//===- codegen/CudaBackend.cpp - CUDA backend --------------------------------===//
//
// The `cuda` backend (Section 5): GPU grid functions become __global__
// kernels. The shared Lowerer produces typed kernel IR (kir::Stmt); this
// backend is a *printer* over that IR with the CUDA spelling
// (kir::CudaStyle): coordinates print as blockIdx/threadIdx, accesses as
// raw pointer indexing, barriers as __syncthreads(), `2^i` strides as
// shifts. sched disappears, selections and views are already compiled to
// raw indices, split is an if/else over coordinates. A for-nat whose
// body merely synchronizes (or strides by 2^i) keeps its loop structure —
// a real `for` with __syncthreads() inside — and only split-containing
// loops are unrolled (see codegen/Lowerer.h). CPU functions become host
// C++ using the CUDA runtime API.
//
//===----------------------------------------------------------------------===//

#include "codegen/Backend.h"
#include "codegen/Lowerer.h"
#include "hostgen/HostGen.h"
#include "kir/KIR.h"

#include "support/StringUtils.h"

#include <sstream>

using namespace descend;
using namespace descend::codegen;

namespace {

class CudaBackend final : public Backend {
public:
  const char *name() const override { return "cuda"; }
  const char *description() const override {
    return "CUDA C++ (__global__ kernels + host functions)";
  }
  GenResult emit(const Module &M, const BackendOptions &Opts) const override;
};

GenResult CudaBackend::emit(const Module &M, const BackendOptions &Opts) const {
  GenResult R;
  std::ostringstream OS;
  OS << "// Generated by descendc --emit=cuda. Do not edit.\n";
  OS << "#include <cstdint>\n#include <cstdio>\n#include <vector>\n";
  OS << "#include <cuda_runtime.h>\n\n";

  kir::CudaStyle Style;
  for (const auto &FnPtr : M.Fns) {
    const FnDef &Fn = *FnPtr;
    if (!Fn.isGpuFn())
      continue;
    Lowerer L(M, LowerTarget::Cuda, Opts.Passes);
    if (!L.runKernel(Fn)) {
      R.Error = "while lowering `" + Fn.Name + "`: " + L.Error;
      return R;
    }
    OS << "/// " << Fn.signature() << "\n";
    OS << "__global__ void " << Fn.Name << Opts.FnSuffix << "(";
    for (size_t I = 0; I != Fn.Params.size(); ++I) {
      if (I)
        OS << ", ";
      const auto *Ref = cast<RefType>(Fn.Params[I].Ty.get());
      std::vector<Nat> Dims;
      ScalarKind Elem = ScalarKind::F64;
      arrayNest(Ref->Pointee, Dims, Elem);
      OS << (Ref->Own == Ownership::Shrd ? "const " : "")
         << cppScalarType(Elem) << " *" << Fn.Params[I].Name;
    }
    OS << ") {\n";
    // Shared allocations are part of the function shell.
    for (const SharedDecl &D : L.SharedDecls)
      OS << strfmt("  __shared__ %s %s[%zu];\n", cppScalarType(D.Elem),
                   D.Name.c_str(), D.Elems);
    std::string BodyText, Err;
    if (!kir::printStmts(L.Body, Style, /*Indent=*/1, BodyText, Err)) {
      R.Error = "while printing `" + Fn.Name + "`: " + Err;
      return R;
    }
    OS << BodyText << "}\n\n";
  }

  // Host functions (Sections 3.4/3.5): the hostgen subsystem turns the
  // statically checked transfers and launches into CUDA runtime API code.
  for (const auto &FnPtr : M.Fns) {
    const FnDef &Fn = *FnPtr;
    if (!Fn.isCpuFn() || !Fn.Body)
      continue;
    hostgen::HostBuildResult IR = hostgen::buildHostFn(M, Fn);
    if (!IR.Ok) {
      R.Error = "while emitting host `" + Fn.Name + "`: " + IR.Error;
      return R;
    }
    OS << hostgen::printHostFn(IR.Fn, hostgen::HostTarget::Cuda,
                               Opts.FnSuffix)
       << "\n";
  }

  R.Ok = true;
  R.Code = OS.str();
  return R;
}

} // namespace

namespace descend::codegen {
std::unique_ptr<Backend> createCudaBackend() {
  return std::make_unique<CudaBackend>();
}
} // namespace descend::codegen
