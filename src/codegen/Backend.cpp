//===- codegen/Backend.cpp - Backend registry --------------------------------===//

#include "codegen/Backend.h"

#include <algorithm>

using namespace descend;
using namespace descend::codegen;

namespace descend::codegen {
// Factories defined in the per-backend translation units.
std::unique_ptr<Backend> createCudaBackend();
std::unique_ptr<Backend> createSimBackend();
std::unique_ptr<Backend> createVmBackend();

void registerBuiltinBackends(BackendRegistry &R) {
  R.registerBackend(createCudaBackend());
  R.registerBackend(createSimBackend());
  R.registerBackend(createVmBackend());
}
} // namespace descend::codegen

BackendRegistry &BackendRegistry::instance() {
  static BackendRegistry Registry = [] {
    BackendRegistry R;
    registerBuiltinBackends(R);
    return R;
  }();
  return Registry;
}

void BackendRegistry::registerBackend(std::unique_ptr<Backend> B) {
  Entry E;
  E.Name = B->name();
  E.Impl = std::move(B);
  auto It = std::lower_bound(
      Backends.begin(), Backends.end(), E.Name,
      [](const Entry &A, const std::string &N) { return A.Name < N; });
  if (It != Backends.end() && It->Name == E.Name)
    *It = std::move(E); // last registration wins
  else
    Backends.insert(It, std::move(E));
}

const Backend *BackendRegistry::lookup(const std::string &Name) const {
  auto It = std::lower_bound(
      Backends.begin(), Backends.end(), Name,
      [](const Entry &A, const std::string &N) { return A.Name < N; });
  if (It == Backends.end() || It->Name != Name)
    return nullptr;
  return It->Impl.get();
}

std::vector<std::string> BackendRegistry::names() const {
  std::vector<std::string> Out;
  Out.reserve(Backends.size());
  for (const Entry &E : Backends)
    Out.push_back(E.Name);
  return Out;
}
