//===- codegen/Lowerer.h - Shared kernel lowering ---------------*- C++ -*-===//
//
// Part of the Descend reproduction. The lowering core shared by the CUDA
// and simulator backends (Section 5): sched disappears into coordinate
// variables, selections and views compile to raw indices (through
// views/IndexSpace, normalized by the nat simplifier), split becomes an
// if/else over coordinates, sync becomes a barrier (CUDA) or a phase
// boundary (sim). The result is *typed kernel IR* (kir::Stmt), never
// text: the backends print the same IR with their own access spelling
// (kir::CppStyle), and coordinates are the target-independent variables
// _bx/_by/_bz/_tx/_ty/_tz (the CUDA printer maps them to
// blockIdx/threadIdx).
//
// For the simulator the result is a structured phase program
// (codegen/PhaseIR.h): a `for` whose body synchronizes becomes one
// PhaseLoop with a constant number of StraightPhase children instead of
// O(trip count) unrolled phase bodies, and its bounds need not be
// literals. Only loops whose nat arithmetic must fold per iteration —
// split positions mentioning the loop variable, or pow strides that
// cannot print as shifts — are still unrolled (and those genuinely
// require static bounds). `2^i` strides of the loop variable print as
// `(1ll << i)` and no longer force unrolling.
//
// After building, runKernel() runs the KIR pass pipeline (kir/Passes.h:
// index CSE, redundant-barrier and dead-spill elision, empty phases
// dropped at construction) and structurally checks the result with
// kir::verify().
//
//===----------------------------------------------------------------------===//

#ifndef DESCEND_CODEGEN_LOWERER_H
#define DESCEND_CODEGEN_LOWERER_H

#include "ast/Item.h"
#include "codegen/PhaseIR.h"
#include "exec/ExecResource.h"
#include "kir/KIR.h"
#include "kir/Schedule.h"
#include "views/View.h"

#include <array>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace descend {
namespace codegen {

/// Which backend the Lowerer emits for.
enum class LowerTarget { Cuda, Sim };

/// C++ spelling of a Descend scalar type.
inline const char *cppScalarType(ScalarKind K) {
  return kir::cppScalarType(K);
}

/// C++ literal for a float value of kind \p K (F32 gets the 'f' suffix).
inline std::string floatLiteral(double V, ScalarKind K) {
  return kir::floatLiteral(V, K);
}

/// True when the Nat contains any unfolded Pow node (hostgen sizes must
/// be fully folded; kernel indices print 2^i as shifts instead).
inline bool containsPow(const Nat &N) { return kir::containsPow(N); }

/// Extracts the array-nest dimensions and element scalar type of a kernel
/// parameter / allocation type.
bool arrayNest(const TypeRef &T, std::vector<Nat> &Dims, ScalarKind &Elem);

/// The {x, y, z} extents of the grid and the block of kernel \p Fn (an
/// absent axis is 1). Fails, naming the dimension and the value, when an
/// extent is not instantiated or lies outside [1, 2^32 - 1], or when the
/// blocks of the grid or the threads of the block overflow
/// sim::Dim3::total(): the sim and vm backends both need concrete
/// launches, and share these texts.
bool launchExtents(const FnDef &Fn, std::array<unsigned, 3> &Grid,
                   std::array<unsigned, 3> &Block, std::string &Err);

/// A lowering-time symbol.
struct Sym {
  enum Kind { GlobalBuf, SharedBuf, Local, ExecVar, NatVar } K = Local;
  std::string CppName;
  ScalarKind Elem = ScalarKind::F64;
  std::vector<Nat> Dims;    // GlobalBuf / SharedBuf
  size_t ByteBase = 0;      // SharedBuf: offset in the shared arena
  size_t LocalOff = 0;      // Local: offset in the per-thread arena region
  bool Uniq = false;        // GlobalBuf: unique reference?
  // ExecVar:
  ExecResource Exec = ExecResource::cpuThread();
  unsigned OpsBegin = 0, OpsEnd = 0;
  // NatVar:
  Nat ConstVal; // set while unrolled
};

/// One gpu.shared allocation of the kernel, printed by the CUDA backend
/// as a `__shared__` declaration in the function shell.
struct SharedDecl {
  std::string Name;
  ScalarKind Elem = ScalarKind::F64;
  size_t Elems = 0;
  /// Innermost row width in elements (product of every dimension but the
  /// first); 0 for a 1-D allocation. Feeds the shared-padding pass.
  size_t RowWidth = 0;
  /// Byte offset inside the shared arena (8-aligned; may move when the
  /// padding pass grows an earlier allocation).
  size_t ByteBase = 0;
};

/// Lowers one GPU grid function into typed kernel IR: a linear statement
/// body (CUDA) or a phase program (sim).
class Lowerer {
public:
  Lowerer(const Module &Mod, LowerTarget B, kir::PassConfig Passes = {})
      : Mod(Mod), B(B), Passes(Passes) {
    Views.addModuleViews(Mod);
  }

  bool runKernel(const FnDef &Fn);

  // Results for the kernel just lowered.
  PhaseProgramIR Program;               // sim: structured phase program
  std::vector<kir::Stmt> Body;          // cuda: linear kernel body
  std::vector<SharedDecl> SharedDecls;  // cuda shell: __shared__ decls
  size_t SharedBytes = 0;               // shared allocations
  size_t LocalBytesPerThread = 0;       // per-thread register arena
  kir::ScheduleStats SchedStats;        // what the schedule passes did
  std::string Error;

private:
  const Module &Mod;
  LowerTarget B;
  kir::PassConfig Passes;
  ViewRegistry Views;

  std::map<std::string, std::vector<Sym>> Syms;
  std::vector<std::vector<std::string>> Scopes;
  ExecResource CurExec = ExecResource::cpuThread();
  unsigned ThreadsPerBlock = 1;
  unsigned NextLocalUid = 0;
  /// Live phase-spanning locals: (C++ name, element type, arena offset).
  struct LiveLocal {
    std::string CppName;
    ScalarKind Elem;
    size_t Off;
    unsigned ScopeDepth;
  };
  std::vector<LiveLocal> LiveLocals;

  /// Statement-list construction: the innermost open list (the current
  /// phase body for sim / the kernel body for cuda at the bottom, then
  /// the Then/Else/Body of each open if or for).
  std::vector<std::vector<kir::Stmt> *> ListStack;
  std::vector<kir::Stmt> PhaseBuf; // sim: phase body under construction

  /// Phase-program construction (sim): the innermost node list under
  /// construction (Program.Nodes at the bottom, then the Children of each
  /// open PhaseLoop) and the PhaseLoop nesting depth (= next slot).
  std::vector<std::vector<PhaseNode> *> NodeStack;
  unsigned LoopDepth = 0;

  /// Buffers the lowered kernel may touch, for kir::verify().
  std::map<std::string, kir::MemSpace> BufferSpaces;

  bool fail(const std::string &Msg);
  void emit(kir::Stmt S);

  void pushScope();
  void popScope();
  Sym &bind(const std::string &Name, Sym S);
  Sym *lookup(const std::string &Name);

  std::string axisVarName(unsigned Stage, Axis A) const;
  Nat coordinateFor(const ExecResource &Exec, unsigned OpIdx);
  Nat exprToNat(const Expr &E);
  Nat substLoopConsts(Nat N);

  struct LPlace {
    enum Kind { Global, Shared, Local, NatValue } K = Global;
    const Sym *Root = nullptr;
    Nat Index;   // flat element index
    Nat NatVal;  // NatValue
  };

  std::optional<LPlace> lowerPlace(const PlaceExpr &P);
  kir::ExprPtr placeLoad(const LPlace &P);
  bool placeStore(const LPlace &P, kir::ExprPtr Value);
  kir::MemRef memRefFor(const Sym &Root) const;

  kir::ExprPtr genExpr(const Expr &E);
  static bool containsKind(const Expr &E, ExprKind K);
  bool phaseHasContent() const;
  void closePhase(bool KeepEmpty = false);
  void phaseBreak();
  void softPhaseBreak();
  bool checkLoopBounds(const Nat &Lo, const Nat &Hi);
  bool genPhaseLoop(const ForNatExpr &F, Nat Lo, Nat Hi);
  bool genStmt(const Expr &E);
  /// Exclusive upper bounds of the coordinate variables of the kernel
  /// being lowered (from its grid/block dims), for the schedule passes.
  kir::VarBounds CoordBounds;
  /// The statement lists the schedule passes rewrite: the CUDA body, or
  /// every straight phase with its enclosing literal loop bounds.
  std::vector<kir::BodyRef> scheduleBodies();
  bool runSchedulePasses();
  bool runPasses();
  bool verifyKernel();
};

} // namespace codegen
} // namespace descend

#endif // DESCEND_CODEGEN_LOWERER_H
