//===- codegen/Backend.h - Pluggable code-generation backends ---*- C++ -*-===//
//
// Part of the Descend reproduction. The code-generation stage of the
// compilation pipeline is pluggable: a Backend translates a well-typed
// (and, for concrete code, nat-instantiated) module into one textual
// artifact. Backends are registered by name in a BackendRegistry; the
// driver resolves `--emit=<name>` against it, so adding a backend is one
// class + one registration call (see docs/architecture.md).
//
// Builtin backends:
//   cuda  CUDA C++ (kernels + host functions, Section 5)
//   sim   phase-structured simulator C++ against sim/Sim.h
//   vm    register bytecode for the in-process interpreter (vm/Interp.h)
//
//===----------------------------------------------------------------------===//

#ifndef DESCEND_CODEGEN_BACKEND_H
#define DESCEND_CODEGEN_BACKEND_H

#include "kir/Schedule.h"

#include <memory>
#include <string>
#include <vector>

namespace descend {

class Module;

namespace codegen {

/// Result of a code generation run.
struct GenResult {
  bool Ok = false;
  std::string Code;
  std::string Error; // set when !Ok
};

/// Per-invocation backend options.
struct BackendOptions {
  /// Appended to every emitted function name so multiple instantiations of
  /// the same kernel can coexist in one binary (sim backend).
  std::string FnSuffix;

  /// Opt-in schedule passes to run over the lowered kernel IR before
  /// printing (kir/Schedule.h). Default: none.
  kir::PassConfig Passes;
};

/// Abstract code-generation backend. Implementations must be stateless
/// across emit() calls (one registry instance serves every Session).
class Backend {
public:
  virtual ~Backend() = default;

  /// The registry key, e.g. "cuda". Lowercase, no spaces.
  virtual const char *name() const = 0;

  /// One-line human-readable description (usage/help output).
  virtual const char *description() const = 0;

  /// Translates \p M. The module must have passed the type checker.
  virtual GenResult emit(const Module &M, const BackendOptions &Opts) const = 0;
};

/// Name-keyed backend collection. The process-wide instance() comes with
/// the builtin backends (cuda, sim, vm) pre-registered; tests may build
/// private registries.
class BackendRegistry {
public:
  /// Registry with no backends registered.
  BackendRegistry() = default;

  /// The process-wide registry holding the builtin backends.
  static BackendRegistry &instance();

  /// Registers \p B under B->name(). Replaces an existing backend with the
  /// same name (last registration wins, enabling out-of-tree overrides).
  void registerBackend(std::unique_ptr<Backend> B);

  /// Looks up a backend by name; null if unknown (callers turn this into a
  /// diagnostic, never a crash).
  const Backend *lookup(const std::string &Name) const;

  /// All registered names, sorted alphabetically.
  std::vector<std::string> names() const;

private:
  struct Entry {
    std::string Name;
    std::unique_ptr<Backend> Impl;
  };
  std::vector<Entry> Backends; // sorted by name
};

/// Registers the builtin backends into \p R (idempotent per registry).
void registerBuiltinBackends(BackendRegistry &R);

} // namespace codegen
} // namespace descend

#endif // DESCEND_CODEGEN_BACKEND_H
