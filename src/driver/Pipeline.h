//===- driver/Pipeline.h - Staged compilation pipeline ----------*- C++ -*-===//
//
// Part of the Descend reproduction. The staged public API the descendc
// tool, the benches and library users drive:
//
//   CompilerInvocation Inv;            // what to compile and how far
//   Inv.Defines["nb"] = 8;
//   Inv.BackendName = "sim";
//   Session S(Inv);
//   CompileResult R = S.run(Source);   // parse -> instantiate -> typecheck
//                                      //       -> codegen
//
// Stages can equally be run one at a time (parse(), instantiate(),
// typecheck(), emit()), e.g. to inspect the module between stages. Every
// executed stage records its wall-clock time; `descendc --time-passes`
// prints the table. Code generation goes through the pluggable backend
// registry (codegen/Backend.h), so `--emit=<name>` accepts any registered
// backend and unknown names produce a driver diagnostic instead of a
// crash.
//
//===----------------------------------------------------------------------===//

#ifndef DESCEND_DRIVER_PIPELINE_H
#define DESCEND_DRIVER_PIPELINE_H

#include "ast/Item.h"
#include "codegen/Backend.h"
#include "kir/Schedule.h"
#include "obs/Counters.h"
#include "support/Diagnostics.h"
#include "support/SourceManager.h"

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace descend {

/// The named stages of the lowering pipeline, in execution order.
enum class Stage {
  None,        ///< nothing ran (or the first stage failed)
  Parse,       ///< source text -> AST
  Instantiate, ///< -D substitution of generic nat parameters (Section 3.5)
  Typecheck,   ///< Sections 3-4: ownership, narrowing, nat side conditions
  Codegen,     ///< Section 5: backend emission
};

/// Canonical lowercase stage name ("parse", "instantiate", ...).
const char *stageName(Stage S);

/// Everything a compilation needs to know beyond the source text.
struct CompilerInvocation {
  /// Name the source buffer is registered under (diagnostics point here).
  std::string BufferName = "<input>";

  /// Instantiates generic nat parameters (and free size variables) before
  /// type checking, e.g. {"n", 1024}. Mirrors how the call side fixes grid
  /// size variables (Section 3.5), but at compile-tool granularity. A
  /// negative value fails the instantiate stage with a diagnostic.
  std::map<std::string, long long> Defines;

  /// Registry name of the code-generation backend ("cuda", "sim", "vm").
  std::string BackendName = "cuda";

  /// Appended to every emitted function name (see BackendOptions).
  std::string FnSuffix;

  /// Opt-in, semantics-preserving schedule passes run over the lowered
  /// kernel IR before emission (`--pad-shared=N`, `--vectorize`). The
  /// default (no passes) keeps every artifact byte-identical to the
  /// historical output. Part of the compile-service cache key.
  kir::PassConfig Passes;

  /// Stage cutoff: run() stops after this stage (e.g. Stage::Typecheck for
  /// `--emit=check`).
  Stage RunUntil = Stage::Codegen;

  /// executeMain only: enable the device's perf counters and return one
  /// obs::LaunchStats per kernel launch in ExecuteResult::KernelStats
  /// (`descendc --kernel-stats`).
  bool CollectKernelStats = false;
};

/// Wall-clock time of one executed stage. A stage that ran and failed is
/// still timed, with Failed set — reporting tools must not present it as
/// having been reached.
struct StageTiming {
  Stage S = Stage::None;
  double Millis = 0.0;
  bool Failed = false;
};

/// What a Session::run produced.
struct CompileResult {
  /// True when every requested stage succeeded.
  bool Ok = false;

  /// The last stage that completed successfully.
  Stage Reached = Stage::None;

  /// The code-generation artifact (empty unless codegen ran and succeeded).
  std::string Artifact;

  /// Number of errors in the session diagnostics after the run.
  unsigned Errors = 0;

  /// Per-stage wall-clock timings, in execution order.
  std::vector<StageTiming> Timings;
};

/// What Session::executeMain produced: one process-internal end-to-end
/// run (text -> vm bytecode -> interpreter) with no C++ compiler in the
/// loop.
struct ExecuteResult {
  bool Ok = false;

  /// Compile or runtime diagnostic when !Ok (pipeline diagnostics are
  /// additionally available via Session::renderDiagnostics).
  std::string Error;

  /// One `RESULT <param> n=<count> sum=... first=... last=...` line per
  /// host-array parameter of `main`, in declaration order — a stable,
  /// comparable digest of the program's observable output.
  std::string Output;

  /// Per-launch perf counters in launch order, labeled with kernel
  /// names; filled only under CompilerInvocation::CollectKernelStats.
  std::vector<obs::LaunchStats> KernelStats;
};

/// One compilation session: owns the source manager, the diagnostics and
/// the module, and runs pipeline stages over them. Stages must be run in
/// order; each returns false (or a failed GenResult) on error, with the
/// details in diagnostics(). A session compiles one buffer.
class Session {
public:
  explicit Session(CompilerInvocation Inv = CompilerInvocation());

  /// The invocation, adjustable until the corresponding stage ran.
  CompilerInvocation &invocation() { return Inv; }
  const CompilerInvocation &invocation() const { return Inv; }

  //===--------------------------------------------------------------------===//
  // Individual stages
  //===--------------------------------------------------------------------===//

  /// Stage 1: parses \p Source. The module remains available even on
  /// failure (it may be partially usable).
  bool parse(const std::string &Source);

  /// Stage 2: substitutes the invocation's Defines into the module.
  bool instantiate();

  /// Stage 3: type checks the (instantiated) module.
  bool typecheck();

  /// Stage 4: resolves the invocation's backend in \p Registry (the global
  /// instance by default) and emits. An unknown backend name or an emitter
  /// failure is reported as a driver diagnostic and a failed GenResult —
  /// never a crash.
  codegen::GenResult emit();
  codegen::GenResult emit(const codegen::BackendRegistry &Registry);

  //===--------------------------------------------------------------------===//
  // End-to-end
  //===--------------------------------------------------------------------===//

  /// Runs all stages up to the invocation's RunUntil cutoff, stopping at
  /// the first failure.
  CompileResult run(const std::string &Source);

  /// Compiles \p Source through the vm backend and executes its host
  /// `fn main` on a private simulated device (`descendc --run`). Host
  /// array parameters of `main` are allocated and filled with the
  /// positionally matching entry of \p ArgFills (default 1.0); scalar
  /// parameters take the matching entry as well (default 0). Ignores the
  /// invocation's BackendName/RunUntil. Never throws.
  ExecuteResult executeMain(const std::string &Source,
                            const std::vector<double> &ArgFills = {});

  //===--------------------------------------------------------------------===//
  // State
  //===--------------------------------------------------------------------===//

  Module *module() { return Mod.get(); }
  const Module *module() const { return Mod.get(); }

  DiagnosticEngine &diagnostics() { return Diags; }
  const DiagnosticEngine &diagnostics() const { return Diags; }

  /// Renders all collected diagnostics.
  std::string renderDiagnostics() const { return Diags.renderAll(); }

  /// The last stage that completed successfully so far.
  Stage reached() const { return Reached; }

  /// Timings of the stages executed so far, in execution order.
  const std::vector<StageTiming> &timings() const { return Timings; }

private:
  template <typename Fn> bool timed(Stage S, Fn &&Body);

  CompilerInvocation Inv;
  SourceManager SM;
  DiagnosticEngine Diags;
  std::unique_ptr<Module> Mod;
  Stage Reached = Stage::None;
  std::vector<StageTiming> Timings;
};

/// Substitutes nat variables by literals everywhere in the module (types,
/// dimensions, view arguments, loop bounds, split positions) and removes
/// the instantiated generic parameters.
void instantiateNats(Module &M, const std::map<std::string, long long> &Defs);

} // namespace descend

#endif // DESCEND_DRIVER_PIPELINE_H
