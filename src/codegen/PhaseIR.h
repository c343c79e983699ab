//===- codegen/PhaseIR.h - Structured phase-program IR ----------*- C++ -*-===//
//
// Part of the Descend reproduction. The phase-program IR is the structured
// result of lowering one GPU grid function for the simulator backend
// (Section 5, Fig. 5): a kernel becomes a tree of
//
//   StraightPhase  one barrier-delimited phase body — a vector of typed
//                  kernel-IR statements (kir::Stmt), run for every thread
//                  of a block before the next node starts;
//   PhaseLoop      a host-side loop (variable, lo/hi Nat bounds, slot)
//                  whose children run once per iteration.
//
// A `for` loop whose body synchronizes therefore keeps its loop structure
// (one PhaseLoop, O(1) phase bodies) instead of being unrolled into O(n)
// distinct phases, and loop bounds no longer need to be literals: the
// simulator runtime (sim::PhaseProgram / sim::launchProgram) walks the
// same shape host-side, binding the loop variable per iteration, while
// the CUDA backend emits a real `for` with __syncthreads() inside.
//
// Since the phase-bodies-are-typed-IR refactor, nothing in here is a
// string: backends print the same kir::Stmt vectors with their own
// spelling (kir::CppStyle), and passes (kir/Passes.h) rewrite them before
// any printing happens.
//
//===----------------------------------------------------------------------===//

#ifndef DESCEND_CODEGEN_PHASEIR_H
#define DESCEND_CODEGEN_PHASEIR_H

#include "kir/KIR.h"
#include "kir/Schedule.h"
#include "nat/Nat.h"

#include <string>
#include <vector>

namespace descend {

class Module;

namespace codegen {

/// One node of a phase program.
struct PhaseNode {
  enum Kind { Straight, Loop };
  Kind K = Straight;

  // Straight: the phase body as typed kernel-IR statements, referencing
  // the coordinate variables (_bx/_tx/..., _lin) and any enclosing
  // PhaseLoop variables.
  std::vector<kir::Stmt> Body;

  // Loop:
  std::string Var;  ///< source loop-variable name (spelled in bodies)
  unsigned Slot = 0;///< runtime loop-variable slot (= nesting depth)
  Nat Lo, Hi;       ///< half-open bounds [Lo..Hi); need not be literals
  std::vector<PhaseNode> Children;

  static PhaseNode straight(std::vector<kir::Stmt> Body) {
    PhaseNode N;
    N.K = Straight;
    N.Body = std::move(Body);
    return N;
  }
  static PhaseNode loop(std::string Var, unsigned Slot, Nat Lo, Nat Hi) {
    PhaseNode N;
    N.K = Loop;
    N.Var = std::move(Var);
    N.Slot = Slot;
    N.Lo = std::move(Lo);
    N.Hi = std::move(Hi);
    return N;
  }
};

/// The phase program of one lowered kernel: a sequence of nodes executed
/// in order within every block.
struct PhaseProgramIR {
  std::vector<PhaseNode> Nodes;

  /// Number of StraightPhase nodes in the whole tree — the number of
  /// distinct phase bodies the backend emits. Independent of loop trip
  /// counts (the point of the IR).
  unsigned straightCount() const;

  /// Deepest PhaseLoop nesting (0 = no loops).
  unsigned maxLoopDepth() const;

  /// Human-readable tree with every phase body rendered statement by
  /// statement in the backend-neutral kir::dump spelling, e.g.
  ///   phase #0:
  ///     let double acc_0 = 0.0
  ///   loop t in [0..nt) slot 0
  ///     phase #1:
  ///       st shared asub[_i0] = ld global a[...]
  /// Used by `descendc --dump-kir`.
  std::string dump() const;

  void clear() { Nodes.clear(); }
};

/// Lowers every GPU grid function of \p M (which must have passed the
/// type checker) for the simulator and renders the phase-program IR of
/// each (PhaseProgramIR::dump), separated by blank lines. On failure
/// returns false with the lowering error in \p Error. \p Passes selects
/// the opt-in schedule passes to run before dumping (none by default, so
/// `--dump-kir=pre` and the historical output are identical). Backs
/// `descendc --dump-kir[=pre|post]`.
bool dumpKernelIRs(const Module &M, std::string &Out, std::string &Error,
                   const kir::PassConfig &Passes = {});

} // namespace codegen
} // namespace descend

#endif // DESCEND_CODEGEN_PHASEIR_H
