//===- vm/Interp.cpp - Bytecode interpreter over the simulator --------------===//

#include "vm/Interp.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <limits>
#include <mutex>
#include <type_traits>

using namespace descend;
using namespace descend::vm;

namespace {

//===----------------------------------------------------------------------===//
// Typed element access on raw buffer bytes
//===----------------------------------------------------------------------===//

// Always inlined: the vm executor calls these once per lane per access.
[[gnu::always_inline]] inline Value loadElem(const std::byte *Base,
                                             ScalarKind K, size_t I) {
  Value V{};
  switch (K) {
  case ScalarKind::I32: {
    int32_t X;
    std::memcpy(&X, Base + I * 4, 4);
    V.I = X;
    break;
  }
  case ScalarKind::U32: {
    uint32_t X;
    std::memcpy(&X, Base + I * 4, 4);
    V.I = X;
    break;
  }
  case ScalarKind::I64:
  case ScalarKind::U64:
    std::memcpy(&V.I, Base + I * 8, 8);
    break;
  case ScalarKind::F32: {
    float X;
    std::memcpy(&X, Base + I * 4, 4);
    V.F = static_cast<double>(X);
    break;
  }
  case ScalarKind::F64:
    std::memcpy(&V.F, Base + I * 8, 8);
    break;
  case ScalarKind::Bool:
    V.I = static_cast<unsigned char>(Base[I]) ? 1 : 0;
    break;
  case ScalarKind::Unit:
    V.I = 0;
    break;
  }
  return V;
}

[[gnu::always_inline]] inline void storeElem(std::byte *Base, ScalarKind K,
                                             size_t I, Value V) {
  switch (K) {
  case ScalarKind::I32: {
    int32_t X = static_cast<int32_t>(V.I);
    std::memcpy(Base + I * 4, &X, 4);
    break;
  }
  case ScalarKind::U32: {
    uint32_t X = static_cast<uint32_t>(V.I);
    std::memcpy(Base + I * 4, &X, 4);
    break;
  }
  case ScalarKind::I64:
  case ScalarKind::U64:
    std::memcpy(Base + I * 8, &V.I, 8);
    break;
  case ScalarKind::F32: {
    float X = static_cast<float>(V.F);
    std::memcpy(Base + I * 4, &X, 4);
    break;
  }
  case ScalarKind::F64:
    std::memcpy(Base + I * 8, &V.F, 8);
    break;
  case ScalarKind::Bool:
    Base[I] = static_cast<std::byte>(V.I ? 1 : 0);
    break;
  case ScalarKind::Unit:
    break;
  }
}

bool isFloatKind(ScalarKind K) {
  return K == ScalarKind::F32 || K == ScalarKind::F64;
}

//===----------------------------------------------------------------------===//
// Kernel execution
//===----------------------------------------------------------------------===//

/// First kernel fault of a launch. Pool workers set the flag and stop;
/// the host thread reads the message after launchProgram returns (by
/// then every worker has synchronized, so Msg is stable).
struct TrapState {
  std::atomic<bool> Tripped{false};
  std::mutex M;
  std::string Msg;
  bool Timedout = false; ///< first fault was a step-budget expiry

  void trip(const std::string &S, bool Timeout = false) {
    std::lock_guard<std::mutex> G(M);
    if (!Tripped.load(std::memory_order_relaxed)) {
      Msg = S;
      Timedout = Timeout;
    }
    Tripped.store(true, std::memory_order_release);
  }
  bool tripped() const { return Tripped.load(std::memory_order_relaxed); }
};

/// Register budget of one lane group: the varying registers x G x
/// sizeof(Value) stay within it, which bounds every worker's register
/// scratch whatever the kernel. 256 KiB runs every kernel in kernels/ at
/// full block width (the widest, matmul, holds 13 varying registers
/// x 256 lanes).
constexpr size_t GroupRegBytes = 256 * 1024;

struct KernelEnv {
  const VmKernel &K;
  const std::vector<DevBuf> &Bufs;
  TrapState &Trap;
  uint64_t StepBudget = 0; ///< per-thread instruction cap (0 = unlimited)
  unsigned Threads = 0;    ///< threads per block
  /// threadIdx by linear thread id: the x plane, then y, then z.
  std::vector<uint32_t> ThreadIdx;
  /// The launch's work (LaunchWork), when asked for: each lane group adds
  /// its counts once, on its way out.
  bool CountWork = false;
  mutable std::atomic<uint64_t> Instrs{0}, LaneSteps{0};
};

/// Lanes per group for code \p C: one while anything observes per-thread
/// order — the race log, the bounds log, the counters' per-thread 32-bank
/// grouping, the per-thread step budget — else the whole block, narrowed
/// only to keep the varying registers within GroupRegBytes.
unsigned groupWidth(const KernelEnv &E, const sim::BlockCtx &B,
                    const Code &C) {
  if (B.Dev->raceDetection() || B.Dev->boundsChecking() || B.Counters ||
      E.StepBudget != 0)
    return 1;
  const size_t Fit = GroupRegBytes /
                     (sizeof(Value) * std::max(C.NumRegs - C.NumUniform, 1u));
  return static_cast<unsigned>(
      std::clamp<size_t>(Fit, 1, std::max(E.Threads, 1u)));
}

/// Per-worker scratch of the lane-group executor, reused across groups,
/// phases and launches (runGroup re-zeroes the registers every time).
struct GroupScratch {
  /// The uniform registers, one value each, then the varying ones
  /// lane-major: varying register r of lane L at NumUniform +
  /// (r - NumUniform) * G + L.
  std::vector<Value> Regs;
  std::vector<uint32_t> PCs; ///< per lane: parked pc, or LaneDone
  std::vector<uint32_t> Act; ///< lanes of the running group, ascending
};

constexpr uint32_t LaneDone = UINT32_MAX;

/// Trap text of a shared or arena access outside the block arena. \p Off
/// is the byte offset as the access computed it; an index too large for
/// any byte offset is named by its element index instead.
std::string arenaFault(const char *What, long long Idx, size_t ES,
                       size_t Base, size_t Off, size_t Bytes) {
  const bool Wraps = Idx > 0 && ES != 0 &&
                     static_cast<size_t>(Idx) > (SIZE_MAX - Base) / ES;
  std::string At = Wraps ? "element " + std::to_string(Idx) + " (" +
                               std::to_string(ES) +
                               "-byte elements from byte " +
                               std::to_string(Base) + ")"
                         : "byte " + std::to_string(Off);
  return std::string(What) + " access at " + At +
         " outside the block arena of " + std::to_string(Bytes) + " bytes";
}

/// Narrows to float: the F32 ops round through `float` like generated f32
/// code.
float f32(double X) { return static_cast<float>(X); }

// i64 arithmetic wraps modulo 2^64, through uint64_t, where C++'s signed
// overflow would be undefined.
long long addWrap(long long X, long long Y) {
  return static_cast<long long>(static_cast<uint64_t>(X) +
                                static_cast<uint64_t>(Y));
}
long long subWrap(long long X, long long Y) {
  return static_cast<long long>(static_cast<uint64_t>(X) -
                                static_cast<uint64_t>(Y));
}
long long mulWrap(long long X, long long Y) {
  return static_cast<long long>(static_cast<uint64_t>(X) *
                                static_cast<uint64_t>(Y));
}

/// Whether X / Y (and X % Y) overflows: the one quotient outside the i64
/// range, which the hardware divide faults on.
bool divOverflows(long long X, long long Y) {
  return Y == -1 && X == std::numeric_limits<long long>::min();
}

/// Base^Exp modulo 2^64 by square-and-multiply: O(log Exp) steps, so one
/// instruction cannot outrun the watchdogs, and unsigned, so it wraps
/// instead of overflowing.
uint64_t powWrap(uint64_t Base, uint64_t Exp) {
  uint64_t Acc = 1;
  for (; Exp != 0; Exp >>= 1, Base *= Base)
    if (Exp & 1)
      Acc *= Base;
  return Acc;
}

/// The element kind of the wide global accesses' typed path, as a
/// compile-time constant: loadElem/storeElem fold their switch away for it.
using F64Kind = std::integral_constant<ScalarKind, ScalarKind::F64>;

/// The running lanes of a group: [Lo, Lo + NA) when Contig, else the NA
/// ascending lanes listed in Act.
struct LaneSet {
  bool Contig;
  unsigned Lo, NA;
  const uint32_t *Act;
};

// The hot lane loops live in small functions of their own, out of line:
// in the middle of the dispatch loop the compiler spills their operands
// to the stack on every lane.

/// r[A] = Fn(r[B], r[C]) for lanes \p S. A zero mask marks a uniform
/// operand, read once. Contiguous lanes get plain loops over the register
/// rows. Cache-line aligned, like runGroup: when code added elsewhere in
/// the file moved these loops against 32/64-byte boundaries, matmul's
/// and add_sums' vm launches in `perfbench` kernels ran about 11% slower.
template <typename FnT>
[[gnu::noinline, gnu::aligned(64)]] void
laneBin(Value *Ra, const Value *Rb, size_t Mb, const Value *Rc, size_t Mc,
        LaneSet S, FnT Fn) {
  if (!S.Contig) {
    for (unsigned J = 0; J != S.NA; ++J) {
      const unsigned L = S.Act[J];
      Ra[L] = Fn(Rb[L & Mb], Rc[L & Mc]);
    }
    return;
  }
  Value *const A = Ra + S.Lo;
  if (Mb && Mc) {
    const Value *const B = Rb + S.Lo, *const C = Rc + S.Lo;
    for (unsigned L = 0; L != S.NA; ++L)
      A[L] = Fn(B[L], C[L]);
  } else if (Mb) {
    const Value *const B = Rb + S.Lo, Y = *Rc;
    for (unsigned L = 0; L != S.NA; ++L)
      A[L] = Fn(B[L], Y);
  } else if (Mc) {
    const Value X = *Rb, *const C = Rc + S.Lo;
    for (unsigned L = 0; L != S.NA; ++L)
      A[L] = Fn(X, C[L]);
  } else {
    const Value V = Fn(*Rb, *Rc);
    for (unsigned L = 0; L != S.NA; ++L)
      A[L] = V;
  }
}

/// r[A] = elements r[B] of the f64 array at \p Base, for lanes \p S in
/// order, up to the first index not below \p Room. Returns how many lanes
/// it did.
[[gnu::noinline]] unsigned loadF64(Value *Ra, const Value *Rb, size_t Mb,
                                   const std::byte *Base, size_t Room,
                                   LaneSet S) {
  for (unsigned J = 0; J != S.NA; ++J) {
    const unsigned L = S.Contig ? S.Lo + J : S.Act[J];
    const size_t Idx = static_cast<size_t>(Rb[L & Mb].I);
    if (Idx >= Room) [[unlikely]]
      return J;
    std::memcpy(&Ra[L].F, Base + Idx * 8, 8);
  }
  return S.NA;
}

/// The store twin of loadF64: elements r[B] = r[A].
[[gnu::noinline]] unsigned storeF64(const Value *Ra, size_t Ma,
                                    const Value *Rb, size_t Mb,
                                    std::byte *Base, size_t Room,
                                    LaneSet S) {
  for (unsigned J = 0; J != S.NA; ++J) {
    const unsigned L = S.Contig ? S.Lo + J : S.Act[J];
    const size_t Idx = static_cast<size_t>(Rb[L & Mb].I);
    if (Idx >= Room) [[unlikely]]
      return J;
    std::memcpy(Base + Idx * 8, &Ra[L & Ma].F, 8);
  }
  return S.NA;
}

/// Splits lanes \p S: the lanes L with Stays(L) stay and become \p S
/// (written to Act in order unless they are contiguous); every lane's pc
/// is set to \p ParkAt, since a lane that stays gets its pc rewritten
/// before anything reads it. A split of contiguous lanes that keeps a
/// contiguous range, like `_tx < k`, costs one fill and one scan.
template <typename StaysT>
[[gnu::noinline]] void splitLanes(StaysT Stays, uint32_t ParkAt, LaneSet &S,
                                  uint32_t *Act, uint32_t *PCs) {
  unsigned Kept = 0;
  if (S.Contig) {
    std::fill(PCs + S.Lo, PCs + S.Lo + S.NA, ParkAt);
    unsigned First = S.Lo, Last = S.Lo;
    for (unsigned L = S.Lo; L != S.Lo + S.NA; ++L)
      if (Stays(L)) {
        First = Kept ? First : L;
        Last = L;
        ++Kept;
      }
    if (Kept == 0 || Last - First + 1 == Kept) {
      S.Lo = First;
      S.NA = Kept;
      return;
    }
    for (unsigned L = S.Lo, J = 0; L != S.Lo + S.NA; ++L) {
      Act[J] = L;
      J += Stays(L);
    }
  } else {
    // Filtered in place; when no lane stays, the list is left as it was.
    const uint32_t First = S.Act[0];
    for (unsigned J = 0; J != S.NA; ++J) {
      const unsigned L = S.Act[J];
      Act[Kept] = L;
      Kept += Stays(L);
      PCs[L] = ParkAt;
    }
    if (Kept == 0) {
      Act[0] = First;
      S.NA = 0;
      return;
    }
  }
  S.Contig = Kept != 0 && Act[Kept - 1] - Act[0] == Kept - 1;
  S.Lo = Kept ? Act[0] : 0;
  S.NA = Kept;
}

/// Whether the thread with linear id \p Lin takes the `then` arm of a
/// range op: its lane coordinate, Lin / \p Stride (rangeStride), is below
/// \p Bound.
bool inRange(uint64_t Lin, long long Bound, uint64_t Stride) {
  return Bound > 0 && Lin / Stride < static_cast<uint64_t>(Bound);
}

/// How many leading lanes of the \p G threads from linear id \p First
/// take the `then` arm of a range op, by inRange, computed without a lane
/// loop: the threads with coordinate below \p Bound are the linear ids
/// below Bound * Stride.
unsigned rangeCut(long long Bound, uint64_t Stride, unsigned First,
                  unsigned G) {
  if (Bound <= 0 || G == 0)
    return 0;
  const uint64_t Last = static_cast<uint64_t>(First) + G - 1;
  if (static_cast<uint64_t>(Bound) > Last / Stride)
    return G;
  // Bound * Stride <= Last here, so it cannot wrap.
  const uint64_t Cut = static_cast<uint64_t>(Bound) * Stride;
  return Cut <= First ? 0 : static_cast<unsigned>(Cut - First);
}

/// Keeps the lanes of \p S below lane \p Cut running and parks the rest
/// at \p ParkAt. Running lanes ascend, so the ones that stay are a prefix
/// of them: a range keeps a range, a list a prefix of its list. When no
/// lane stays, \p S is left as it was but for NA = 0.
void narrowLanes(unsigned Cut, uint32_t ParkAt, LaneSet &S, uint32_t *PCs) {
  if (S.Contig) {
    const unsigned End = S.Lo + S.NA;
    const unsigned Mid = std::clamp(Cut, S.Lo, End);
    if (Mid != S.Lo)
      std::fill(PCs + Mid, PCs + End, ParkAt);
    S.NA = Mid - S.Lo;
    return;
  }
  const unsigned Kept = static_cast<unsigned>(
      std::lower_bound(S.Act, S.Act + S.NA, Cut) - S.Act);
  if (Kept == 0) {
    S.NA = 0;
    return;
  }
  for (unsigned J = Kept; J != S.NA; ++J)
    PCs[S.Act[J]] = ParkAt;
  S.NA = Kept;
  S.Contig = S.Act[Kept - 1] - S.Act[0] == Kept - 1;
  S.Lo = S.Act[0];
}

// Runs the statements once per lane L of the running group, in ascending
// lane order: over the range [Lo, Lo + NA) directly while the running
// lanes are contiguous, else through the Act list.
#define EACH_LANE(...) EACH_LANE_FROM(0, __VA_ARGS__)
// The same from the \p From-th running lane on.
#define EACH_LANE_FROM(From, ...)                                              \
  if (Contig) {                                                                \
    for (unsigned L = Lo + (From), LEnd = Lo + NA; L != LEnd; ++L) {           \
      __VA_ARGS__                                                              \
    }                                                                          \
  } else {                                                                     \
    for (unsigned J = (From); J != NA; ++J) {                                  \
      const unsigned L = Act[J];                                               \
      __VA_ARGS__                                                              \
    }                                                                          \
  }

// Case labels of the dispatch switch, which keys on opcode and mark.
#define VARYING(OP) case static_cast<unsigned>(Op::OP) << 1
#define UNIFORM(OP) case static_cast<unsigned>(Op::OP) << 1 | 1

/// Runs code object \p C for the \p G threads of block \p B with linear
/// ids [First, First + G). A uniform instruction runs once for the group;
/// a varying one once for every lane of the running group, reading
/// uniform operands by broadcast. The running lanes always sit at the
/// lowest pc of the group ("min-pc" reconvergence): a varying Jz that
/// splits them lets the side at the lower pc run on and parks the other
/// (or retires it, when that side starts at a `ret`); when the runners
/// reach the lowest parked pc, or jump past it, the lanes parked there
/// take over, and lanes whose pcs meet run as one group again. Every lane
/// thus executes exactly the instruction sequence it would alone; only
/// the interleaving between lanes differs, which a race-free phase cannot
/// observe. A uniform instruction that writes while any lane is parked
/// traps: its register would change under lanes that have not reached
/// it. Returns false if a trap tripped. \p RetOut receives lane 0's
/// RetVal result (bound programs run at G = 1).
///
/// Cache-line aligned because the dispatch loop's speed depends on where
/// it falls against 32/64-byte boundaries: shifting only this function by
/// 32 bytes, as code-size changes elsewhere in the library do, cost about
/// 10% of `perfbench` serve latency on a 4-core 2.1 GHz Xeon.
[[gnu::aligned(64)]] bool runGroup(const Code &C, const KernelEnv &E,
                                   const sim::BlockCtx &B, unsigned First,
                                   unsigned G, long long *RetOut) {
  thread_local GroupScratch S;
  const unsigned NU = C.NumUniform;
  const size_t NumValues = NU + static_cast<size_t>(C.NumRegs - NU) * G;
  if (S.Regs.size() < NumValues)
    S.Regs.resize(NumValues);
  if (NumValues != 0)
    std::memset(S.Regs.data(), 0, NumValues * sizeof(Value));
  S.PCs.resize(G);
  S.Act.resize(G);
  Value *const R = S.Regs.data();
  uint32_t *const PCs = S.PCs.data();
  uint32_t *const Act = S.Act.data();

  const Instr *Ins = C.Instrs.data();
  const uint32_t N = static_cast<uint32_t>(C.Instrs.size());
  // The running group: NA lanes listed in Act, all at PC; Contig when
  // they are the range [Lo, Lo + NA). Every other lane is parked at its
  // pc in PCs or has finished (LaneDone); Limit is the lowest parked pc,
  // N if none.
  // Act is read only while the running lanes are not contiguous, and
  // every step that makes them so (a split, a hand-over) writes it first.
  unsigned NA = G, Lo = 0;
  bool Contig = true;
  uint32_t PC = 0, Limit = N;
  auto SetRange = [&] {
    Lo = NA ? Act[0] : 0;
    Contig = NA == 0 || Act[NA - 1] - Act[0] == NA - 1;
  };
  auto Lanes = [&] { return LaneSet{Contig, Lo, NA, Act}; };
  // Lanes that continue at \p At finish there when it is the end or a
  // `ret`.
  auto Retires = [&](uint32_t At) { return At >= N || Ins[At].K == Op::Ret; };

  // The running lanes park at \p At (or finish, see Retires) and the
  // lanes parked at Limit run next, joined by the runners if At == Limit.
  // False once no lane is left.
  auto HandOver = [&](uint32_t At) {
    if (Limit >= N)
      return false;
    const uint32_t ParkAt = Retires(At) ? LaneDone : At;
    EACH_LANE(PCs[L] = ParkAt;)
    PC = Limit;
    NA = 0;
    Limit = N;
    for (unsigned L = 0; L != G; ++L) {
      if (PCs[L] == PC)
        Act[NA++] = L;
      else
        Limit = std::min(Limit, PCs[L]);
    }
    SetRange();
    return true;
  };
  // After a split the lanes of \p Stay run on and the others wait at
  // \p Other, or have finished (\p Retire). When no lane stays, the whole
  // group moves to \p Other instead; false then.
  auto Narrow = [&](const LaneSet &Stay, uint32_t Other, bool Retire) {
    if (Stay.NA == 0) {
      PC = Other;
      return false;
    }
    if (Stay.NA != NA) {
      NA = Stay.NA;
      Lo = Stay.Lo;
      Contig = Stay.Contig;
      if (!Retire)
        Limit = std::min(Limit, Other);
    }
    return true;
  };
  // Register Ix and the lane mask its reads use: all lanes of a varying
  // register, the one value of a uniform register for every lane.
  auto Reg = [&](uint16_t Ix) {
    return Ix < NU ? R + Ix : R + NU + static_cast<size_t>(Ix - NU) * G;
  };
  auto Mask = [&](uint16_t Ix) { return Ix < NU ? size_t(0) : ~size_t(0); };
  auto Trap = [&](const std::string &Msg) {
    E.Trap.trip("in kernel `" + E.K.Name + "`: " + Msg);
    return false;
  };

  // Counters and the race log see every access; both run at G = 1.
  const bool Watch = B.Counters || B.Dev->raceDetection();
  std::byte *const Shared = B.SharedArena;
  const size_t SharedBytes = B.SharedBytes;

  // The watchdog step budget: each thread's run of a code object may
  // retire at most Budget instructions. An infinite Jmp loop trips here
  // instead of hanging the pool worker forever. A budget forces G = 1,
  // so every dispatch is one thread's step.
  const uint64_t Budget = E.StepBudget;
  // Work done by this group, added to the launch's once on the way out.
  uint64_t Dispatched = 0, LaneSteps = 0;
  struct FlushWork {
    const KernelEnv &E;
    const uint64_t &Dispatched, &LaneSteps;
    ~FlushWork() {
      if (E.CountWork) {
        E.Instrs.fetch_add(Dispatched, std::memory_order_relaxed);
        E.LaneSteps.fetch_add(LaneSteps, std::memory_order_relaxed);
      }
    }
  } Flush{E, Dispatched, LaneSteps};

  for (;;) {
    if (PC >= Limit) [[unlikely]] {
      // The running lanes fell off the end (treated like Ret), reached a
      // parked lane's pc or jumped past it.
      if (!HandOver(PC))
        return true;
      continue;
    }
    if (Budget && Dispatched >= Budget) [[unlikely]] {
      E.Trap.trip("in kernel `" + E.K.Name + "`: step budget of " +
                      std::to_string(Budget) +
                      " instructions exceeded (watchdog steps=" +
                      std::to_string(Budget) + "); launch cancelled",
                  /*Timeout=*/true);
      return false;
    }
    const Instr &I = Ins[PC++];
    ++Dispatched;
    LaneSteps += I.U ? 1 : NA;
    // A uniform write while lanes are parked would leak a value between
    // lanes: only a mis-marked artifact gets here.
#define UNIFORM_WRITE                                                          \
  if (Limit != N) [[unlikely]]                                                 \
    return Trap(std::string("uniform ") + opName(I.K) + " at pc " +            \
                std::to_string(PC - 1) +                                       \
                " writes while lanes are parked (corrupted bytecode?)");
    switch (static_cast<unsigned>(I.K) << 1 | I.U) {
    UNIFORM(Const):
      UNIFORM_WRITE
      R[I.A] = C.Consts[I.Imm];
      break;
    VARYING(Const): {
      Value *Ra = Reg(I.A);
      const Value V = C.Consts[I.Imm];
      EACH_LANE(Ra[L] = V;)
      break;
    }
    UNIFORM(Coord):
      UNIFORM_WRITE
      if (I.Imm < 0 || I.Imm > 2) // lane coordinates are varying
        return Trap("uniform coord " + std::to_string(I.Imm) + " at pc " +
                    std::to_string(PC - 1) + " (corrupted bytecode?)");
      R[I.A].I = I.Imm == 0 ? B.X : I.Imm == 1 ? B.Y : B.Z;
      break;
    VARYING(Coord): {
      Value *Ra = Reg(I.A);
      if (I.Imm >= 3 && I.Imm <= 5) {
        const uint32_t *Idx = E.ThreadIdx.data() +
                              static_cast<size_t>(I.Imm - 3) * E.Threads +
                              First;
        EACH_LANE(Ra[L].I = Idx[L];)
      } else if (I.Imm >= 0 && I.Imm <= 2) {
        const long long V = I.Imm == 0 ? B.X : I.Imm == 1 ? B.Y : B.Z;
        EACH_LANE(Ra[L].I = V;)
      } else {
        EACH_LANE(Ra[L].I = First + L;)
      }
      break;
    }
    UNIFORM(Slot):
      UNIFORM_WRITE
      R[I.A].I = B.loopVar(static_cast<unsigned>(I.Imm));
      break;
    VARYING(Slot): {
      Value *Ra = Reg(I.A);
      const long long V = B.loopVar(static_cast<unsigned>(I.Imm));
      EACH_LANE(Ra[L].I = V;)
      break;
    }
    UNIFORM(Move):
      UNIFORM_WRITE
      R[I.A] = R[I.B];
      break;
    VARYING(Move):
      laneBin(Reg(I.A), Reg(I.B), Mask(I.B), Reg(I.B), Mask(I.B), Lanes(),
              [](Value X, Value) { return X; });
      break;

    VARYING(LoadGlobal):
    VARYING(StoreGlobal): {
      const DevBuf &D = E.Bufs[I.Imm];
      std::byte *const Data = D.Data;
      const size_t Count = D.Count;
      const bool Write = I.K == Op::StoreGlobal;
      const ScalarKind EK = static_cast<ScalarKind>(I.C);
      Value *Ra = Reg(I.A);
      const Value *Rb = Reg(I.B);
      const size_t Ma = Mask(I.A), Mb = Mask(I.B);
      // The typed f64 path: nothing to count or log, and an index out of
      // range leaves it for the general loop below, which replays that
      // lane and continues from there.
      unsigned Done = 0;
      if (!Watch && EK == ScalarKind::F64) {
        Done = Write ? storeF64(Ra, Ma, Rb, Mb, Data, Count, Lanes())
                     : loadF64(Ra, Rb, Mb, Data, Count, Lanes());
        if (Done == NA)
          break;
      }
      auto Access = [&](auto EK) __attribute__((always_inline)) {
        EACH_LANE_FROM(Done,
          const long long Idx = Rb[L & Mb].I;
          // Replicates GpuDevice::Buffer<T>::load/store: count and log
          // first, then bounds-check. A negative index wraps to a huge
          // size_t exactly like the size_t parameter of Buffer::load would.
          if (Watch) [[unlikely]] {
            if (B.Counters)
              B.Counters->countGlobal(Write);
            if (B.Dev->raceDetection())
              B.Dev->logAccess(B, D.Id, static_cast<size_t>(Idx), Write);
          }
          if (static_cast<size_t>(Idx) >= Count) [[unlikely]] {
            if (B.Dev->boundsChecking()) {
              B.Dev->logBounds(D.Id, static_cast<size_t>(Idx), Count);
              if (!Write)
                Ra[L] = Value{}; // Buffer::load returns T{} on OOB
              continue;
            }
            // The generated C++ would fault undefined here; trap instead.
            return Trap("global buffer `" + E.K.Params[I.Imm].Name +
                        "` index " + std::to_string(Idx) +
                        " out of range [0, " + std::to_string(Count) + ")");
          }
          if (Write)
            storeElem(Data, EK, static_cast<size_t>(Idx), Ra[L & Ma]);
          else
            Ra[L] = loadElem(Data, EK, static_cast<size_t>(Idx));
        )
        return true;
      };
      if (!Access(EK))
        return false;
      break;
    }

    VARYING(LoadGlobal2):
    VARYING(StoreGlobal2): {
      const DevBuf &D = E.Bufs[I.Imm];
      std::byte *const Data = D.Data;
      const size_t Count = D.Count;
      const bool Write = I.K == Op::StoreGlobal2;
      Value *Ra = Reg(I.A), *Ra1 = Reg(I.A + 1);
      const Value *Rb = Reg(I.B);
      const size_t Ma = Mask(I.A), Ma1 = Mask(I.A + 1), Mb = Mask(I.B);
      auto Access = [&](auto EK) __attribute__((always_inline)) {
        EACH_LANE(
          const long long Idx = Rb[L & Mb].I;
          const size_t At = static_cast<size_t>(Idx);
          // Replicates Buffer<T>::load2/store2: ONE counted transaction
          // for the fused pair, both elements race-logged, bounds through
          // Idx+1.
          if (Watch) [[unlikely]] {
            if (B.Counters)
              B.Counters->countGlobal(Write);
            if (B.Dev->raceDetection()) {
              B.Dev->logAccess(B, D.Id, At, Write);
              B.Dev->logAccess(B, D.Id, At + 1, Write);
            }
          }
          if (Idx < 0 || At + 1 >= Count) [[unlikely]] {
            if (B.Dev->boundsChecking()) {
              B.Dev->logBounds(D.Id, At + 1, Count);
              if (!Write)
                Ra[L] = Ra1[L] = Value{};
              continue;
            }
            return Trap("global buffer `" + E.K.Params[I.Imm].Name +
                        "` wide index " + std::to_string(Idx) +
                        " out of range [0, " + std::to_string(Count) + ")");
          }
          if (Write) {
            storeElem(Data, EK, At, Ra[L & Ma]);
            storeElem(Data, EK, At + 1, Ra1[L & Ma1]);
          } else {
            Ra[L] = loadElem(Data, EK, At);
            Ra1[L] = loadElem(Data, EK, At + 1);
          }
        )
        return true;
      };
      const ScalarKind EK = static_cast<ScalarKind>(I.C);
      if (!(EK == ScalarKind::F64 ? Access(F64Kind{}) : Access(EK)))
        return false;
      break;
    }

    VARYING(LoadShared):
    VARYING(StoreShared):
    VARYING(LoadArena):
    VARYING(StoreArena):
    VARYING(LoadShared2):
    VARYING(StoreShared2): {
      const bool Write = I.K == Op::StoreShared || I.K == Op::StoreArena ||
                         I.K == Op::StoreShared2;
      const bool Arena = I.K == Op::LoadArena || I.K == Op::StoreArena;
      const bool Wide = I.K == Op::LoadShared2 || I.K == Op::StoreShared2;
      const ScalarKind EK = static_cast<ScalarKind>(I.C);
      const size_t ES = scalarSize(EK);
      const size_t Base =
          static_cast<size_t>(I.Imm) + (Arena ? E.K.LocalsBase : 0);
      // Elements [Idx, Idx + Span) lie inside the arena iff Idx < Room:
      // the room left after Base, counted once per dispatch. Comparing
      // the index (not the byte offset, which a large index would wrap
      // back into range) keeps every out-of-range index out.
      const size_t Span = Wide ? 2 : 1;
      const size_t Elems = Base > SharedBytes ? 0
                           : ES == 0          ? size_t(1) << 63
                                              : (SharedBytes - Base) / ES;
      const size_t Room = ES == 0 ? Elems : Elems >= Span ? Elems - Span + 1 : 0;
      Value *Ra = Reg(I.A), *Ra1 = Reg(I.A + (Wide ? 1 : 0));
      const Value *Rb = Reg(I.B);
      const size_t Ma = Mask(I.A), Ma1 = Mask(I.A + (Wide ? 1 : 0)),
                   Mb = Mask(I.B);
      // The typed f64 path of scalar accesses with nothing to count or
      // log; the general loop below replays a lane out of range and traps.
      unsigned Done = 0;
      if ((!Watch || Arena) && !Wide && EK == ScalarKind::F64) {
        std::byte *const At = Shared + (Room ? Base : 0);
        Done = Write ? storeF64(Ra, Ma, Rb, Mb, At, Room, Lanes())
                     : loadF64(Ra, Rb, Mb, At, Room, Lanes());
        if (Done == NA)
          break;
      }
      auto Access = [&](auto EK) __attribute__((always_inline)) {
        EACH_LANE_FROM(Done,
          const long long Idx = Rb[L & Mb].I;
          // sharedLoad/sharedStore count and log the byte offset; wide
          // accesses count one transaction at the first element and log
          // both. Arena (spill) slots are per-thread-private and stay
          // uncounted and unlogged, like BlockCtx::shared.
          if (Watch && !Arena) [[unlikely]] {
            const size_t Off = Base + static_cast<size_t>(Idx) * ES;
            if (B.Counters)
              B.Counters->countShared(Off, Write, B.CurThread);
            if (B.Dev->raceDetection()) {
              B.Dev->logAccess(B, B.SharedBufferId, Off, Write);
              if (Wide)
                B.Dev->logAccess(B, B.SharedBufferId, Off + ES, Write);
            }
          }
          if (static_cast<size_t>(Idx) >= Room) [[unlikely]]
            return Trap(arenaFault(Arena ? "arena"
                                   : Wide ? "shared wide"
                                          : "shared",
                                   Idx, ES, Base,
                                   Base + static_cast<size_t>(Idx) * ES,
                                   SharedBytes));
          std::byte *const At = Shared + Base;
          if (Write) {
            storeElem(At, EK, static_cast<size_t>(Idx), Ra[L & Ma]);
            if (Wide)
              storeElem(At, EK, static_cast<size_t>(Idx) + 1, Ra1[L & Ma1]);
          } else {
            Ra[L] = loadElem(At, EK, static_cast<size_t>(Idx));
            if (Wide)
              Ra1[L] = loadElem(At, EK, static_cast<size_t>(Idx) + 1);
          }
        )
        return true;
      };
      if (!Access(EK))
        return false;
      break;
    }

// One case per mark: r[A].FIELD = EXPR over the operand values X = r[B]
// and Y = r[C].
#define BIN(OPNAME, FIELD, EXPR)                                               \
  UNIFORM(OPNAME) : {                                                          \
    UNIFORM_WRITE                                                              \
    const Value X = R[I.B], Y = R[I.C];                                        \
    R[I.A].FIELD = (EXPR);                                                     \
    break;                                                                     \
  }                                                                            \
  VARYING(OPNAME) :                                                            \
    laneBin(Reg(I.A), Reg(I.B), Mask(I.B), Reg(I.C), Mask(I.C), Lanes(),       \
            [](Value X, Value Y) {                                             \
              Value Out;                                                       \
              Out.FIELD = (EXPR);                                              \
              return Out;                                                      \
            });                                                                \
    break;
#define UN(OPNAME, FIELD, EXPR)                                                \
  UNIFORM(OPNAME) : {                                                          \
    UNIFORM_WRITE                                                              \
    const Value X = R[I.B];                                                    \
    R[I.A].FIELD = (EXPR);                                                     \
    break;                                                                     \
  }                                                                            \
  VARYING(OPNAME) :                                                            \
    laneBin(Reg(I.A), Reg(I.B), Mask(I.B), Reg(I.B), Mask(I.B), Lanes(),       \
            [](Value X, Value) {                                               \
              Value Out;                                                       \
              Out.FIELD = (EXPR);                                              \
              return Out;                                                      \
            });                                                                \
    break;

      BIN(AddI, I, addWrap(X.I, Y.I))
      BIN(SubI, I, subWrap(X.I, Y.I))
      BIN(MulI, I, mulWrap(X.I, Y.I))

    UNIFORM(DivI):
    UNIFORM(ModI): {
      UNIFORM_WRITE
      const bool Div = I.K == Op::DivI;
      const long long X = R[I.B].I, Y = R[I.C].I;
      if (Y == 0)
        return Trap(Div ? "integer division by zero"
                        : "integer modulo by zero");
      if (divOverflows(X, Y))
        return Trap(Div ? "integer division overflow"
                        : "integer modulo overflow");
      R[I.A].I = Div ? X / Y : X % Y;
      break;
    }
    VARYING(DivI):
    VARYING(ModI): {
      const bool Div = I.K == Op::DivI;
      Value *Ra = Reg(I.A);
      const Value *Rb = Reg(I.B), *Rc = Reg(I.C);
      const size_t Mb = Mask(I.B), Mc = Mask(I.C);
      EACH_LANE(
        const long long X = Rb[L & Mb].I, Y = Rc[L & Mc].I;
        if (Y == 0)
          return Trap(Div ? "integer division by zero"
                          : "integer modulo by zero");
        if (divOverflows(X, Y))
          return Trap(Div ? "integer division overflow"
                          : "integer modulo overflow");
        Ra[L].I = Div ? X / Y : X % Y;
      )
      break;
    }
    UNIFORM(PowI):
      UNIFORM_WRITE
      if (R[I.C].I < 0)
        return Trap("negative exponent in nat power");
      R[I.A].I = static_cast<long long>(powWrap(
          static_cast<uint64_t>(R[I.B].I), static_cast<uint64_t>(R[I.C].I)));
      break;
    VARYING(PowI): {
      Value *Ra = Reg(I.A);
      const Value *Rb = Reg(I.B), *Rc = Reg(I.C);
      const size_t Mb = Mask(I.B), Mc = Mask(I.C);
      EACH_LANE(
        if (Rc[L & Mc].I < 0)
          return Trap("negative exponent in nat power");
        Ra[L].I = static_cast<long long>(
            powWrap(static_cast<uint64_t>(Rb[L & Mb].I),
                    static_cast<uint64_t>(Rc[L & Mc].I)));
      )
      break;
    }

      BIN(AddF, F, X.F + Y.F)
      BIN(SubF, F, X.F - Y.F)
      BIN(MulF, F, X.F * Y.F)
      BIN(DivF, F, X.F / Y.F)
      BIN(AddF32, F, static_cast<double>(f32(X.F) + f32(Y.F)))
      BIN(SubF32, F, static_cast<double>(f32(X.F) - f32(Y.F)))
      BIN(MulF32, F, static_cast<double>(f32(X.F) * f32(Y.F)))
      BIN(DivF32, F, static_cast<double>(f32(X.F) / f32(Y.F)))

      BIN(LtI, I, X.I < Y.I ? 1 : 0)
      BIN(LeI, I, X.I <= Y.I ? 1 : 0)
      BIN(GtI, I, X.I > Y.I ? 1 : 0)
      BIN(GeI, I, X.I >= Y.I ? 1 : 0)
      BIN(EqI, I, X.I == Y.I ? 1 : 0)
      BIN(NeI, I, X.I != Y.I ? 1 : 0)
      BIN(LtF, I, X.F < Y.F ? 1 : 0)
      BIN(LeF, I, X.F <= Y.F ? 1 : 0)
      BIN(GtF, I, X.F > Y.F ? 1 : 0)
      BIN(GeF, I, X.F >= Y.F ? 1 : 0)
      BIN(EqF, I, X.F == Y.F ? 1 : 0)
      BIN(NeF, I, X.F != Y.F ? 1 : 0)

      BIN(AndI, I, (X.I != 0 && Y.I != 0) ? 1 : 0)
      BIN(OrI, I, (X.I != 0 || Y.I != 0) ? 1 : 0)
      UN(NotI, I, X.I == 0 ? 1 : 0)
      UN(NegI, I, subWrap(0, X.I))
      UN(NegF, F, -X.F)
      UN(NegF32, F, static_cast<double>(-f32(X.F)))
      UN(I2F, F, static_cast<double>(X.I))
      UN(F2I, I, static_cast<long long>(X.F))
      UN(F2F32, F, static_cast<double>(f32(X.F)))

#undef BIN
#undef UN
#undef UNIFORM_WRITE

    UNIFORM(Jmp):
    VARYING(Jmp):
      PC = static_cast<uint32_t>(I.Imm);
      break;
    UNIFORM(Jz):
      // A uniform condition sends every running lane the same way.
      if (R[I.A].I == 0)
        PC = static_cast<uint32_t>(I.Imm);
      break;
    VARYING(Jz): {
      // One pass splits the group: the side at the lower pc runs on (Act
      // is filtered in place, so it stays ascending), the other parks, or
      // finishes at once when it would start at a `ret`. Every running
      // lane's pc is written; a lane that runs on gets it rewritten
      // before anything reads it (HandOver).
      const Value *Ra = Reg(I.A);
      const size_t Ma = Mask(I.A);
      const uint32_t Target = static_cast<uint32_t>(I.Imm);
      const bool TakenRun = Target < PC;
      const uint32_t Other = TakenRun ? PC : Target;
      const bool Retire = Retires(Other);
      const uint32_t ParkAt = Retire ? LaneDone : Other;
      LaneSet Stay = Lanes();
      splitLanes(
          [Ra, Ma, TakenRun](unsigned L) {
            return (Ra[L & Ma].I == 0) == TakenRun;
          },
          ParkAt, Stay, Act, PCs);
      if (Narrow(Stay, Other, Retire) && TakenRun)
        PC = Target;
      break;
    }
    UNIFORM(Range):
    VARYING(Range): {
      // The lanes whose coordinate is below the bound run on into the
      // `then` arm; the others park at the forward target, or finish at
      // once when it is a `ret`. Uniform, the bound is one value and the
      // `then` lanes are a prefix of the running ones, cut by arithmetic;
      // varying, each lane compares against its own bound register.
      const uint32_t Target = static_cast<uint32_t>(I.Imm);
      const bool Retire = Retires(Target);
      const uint32_t ParkAt = Retire ? LaneDone : Target;
      const uint64_t Stride = rangeStride(I.C, E.K.Block);
      LaneSet Stay = Lanes();
      if (I.U) {
        narrowLanes(rangeCut(R[I.A].I, Stride, First, G), ParkAt, Stay, PCs);
      } else {
        const Value *Ra = Reg(I.A);
        const size_t Ma = Mask(I.A);
        splitLanes(
            [Ra, Ma, Stride, First](unsigned L) {
              return inRange(First + L, Ra[L & Ma].I, Stride);
            },
            ParkAt, Stay, Act, PCs);
      }
      Narrow(Stay, Target, Retire);
      break;
    }
    UNIFORM(RetVal):
    VARYING(RetVal):
      if (RetOut)
        *RetOut = Reg(I.A)[0].I;
      [[fallthrough]];
    UNIFORM(Ret):
    VARYING(Ret):
      if (!HandOver(N))
        return true;
      break;
    default:
      // Unreachable after validateKernel, but bytecode that dodged
      // validation (or a latent compiler bug) must trap, not fall into
      // undefined behavior.
      return Trap("invalid opcode " +
                  std::to_string(static_cast<unsigned>(I.K)) +
                  (I.U ? " marked uniform" : "") + " at pc " +
                  std::to_string(PC - 1) + " (corrupted bytecode?)");
    }
  }
}

#undef EACH_LANE
#undef EACH_LANE_FROM
#undef VARYING
#undef UNIFORM

//===----------------------------------------------------------------------===//
// Bytecode validation
//===----------------------------------------------------------------------===//

constexpr unsigned NumOps = static_cast<unsigned>(Op::RetVal) + 1;

/// Checks every instruction of \p C against its register file, constant
/// pool, jump range and the kernel's parameter schema, and its uniform
/// mark against the register classes: a uniform instruction writes and
/// reads only uniform registers (so a uniform jz tests a uniform
/// register) and reads no lane coordinate, and a varying instruction
/// never writes a uniform register. Returns the first problem as text,
/// empty when clean.
std::string validateCode(const Code &C, const VmKernel &K,
                         const char *What) {
  // Register operands are 16 bits wide: a larger file is unaddressable,
  // and a corrupted count must not size the executor's register scratch.
  if (C.NumRegs > 65536)
    return std::string(What) + " of kernel `" + K.Name + "` declares " +
           std::to_string(C.NumRegs) + " registers (max 65536)";
  if (C.NumUniform > C.NumRegs)
    return std::string(What) + " of kernel `" + K.Name + "` declares " +
           std::to_string(C.NumUniform) + " uniform registers of " +
           std::to_string(C.NumRegs);
  const size_t N = C.Instrs.size();
  for (size_t PC = 0; PC != N; ++PC) {
    const Instr &I = C.Instrs[PC];
    const unsigned OpV = static_cast<unsigned>(I.K);
    auto Bad = [&](const std::string &Why) {
      return std::string(What) + " of kernel `" + K.Name + "`, pc " +
             std::to_string(PC) + " (" +
             (OpV < NumOps ? opName(I.K) : "invalid") + "): " + Why;
    };
    if (OpV >= NumOps)
      return Bad("opcode " + std::to_string(OpV) + " out of range");

    // Register operands. Wide ops implicitly touch r[A+1].
    const OpShape Sh = opShape(I.K);
    const bool Wide = Sh.Wide;
    auto RegOk = [&](uint16_t Rg, bool WidePair = false) {
      return static_cast<unsigned>(Rg) + (WidePair ? 1u : 0u) < C.NumRegs;
    };
    auto ElemKindOk = [&] {
      return I.C <= static_cast<uint16_t>(ScalarKind::Unit);
    };
    auto JumpOk = [&] {
      // pc == Instrs.size() is a valid landing spot: the loop exits.
      return I.Imm >= 0 && static_cast<size_t>(I.Imm) <= N;
    };

    switch (I.K) {
    case Op::Const:
      if (!RegOk(I.A))
        return Bad("register r" + std::to_string(I.A) + " out of range (" +
                   std::to_string(C.NumRegs) + " registers)");
      if (I.Imm < 0 || static_cast<size_t>(I.Imm) >= C.Consts.size())
        return Bad("constant index " + std::to_string(I.Imm) +
                   " out of range (pool holds " +
                   std::to_string(C.Consts.size()) + ")");
      break;
    case Op::Coord:
      if (!RegOk(I.A))
        return Bad("register out of range");
      break;
    case Op::Slot:
      if (!RegOk(I.A))
        return Bad("register out of range");
      if (I.Imm < 0 ||
          static_cast<unsigned>(I.Imm) >= sim::BlockCtx::MaxLoopSlots)
        return Bad("loop slot " + std::to_string(I.Imm) +
                   " out of range (max " +
                   std::to_string(sim::BlockCtx::MaxLoopSlots) + ")");
      break;
    case Op::Move:
      if (!RegOk(I.A) || !RegOk(I.B))
        return Bad("register out of range");
      break;
    case Op::LoadGlobal:
    case Op::StoreGlobal:
    case Op::LoadGlobal2:
    case Op::StoreGlobal2:
      if (!RegOk(I.A, Wide) || !RegOk(I.B))
        return Bad("register out of range");
      if (I.Imm < 0 || static_cast<size_t>(I.Imm) >= K.Params.size())
        return Bad("buffer index " + std::to_string(I.Imm) +
                   " out of range (kernel has " +
                   std::to_string(K.Params.size()) + " parameters)");
      if (!ElemKindOk())
        return Bad("invalid element kind " + std::to_string(I.C));
      break;
    case Op::LoadShared:
    case Op::StoreShared:
    case Op::LoadArena:
    case Op::StoreArena:
    case Op::LoadShared2:
    case Op::StoreShared2:
      if (!RegOk(I.A, Wide) || !RegOk(I.B))
        return Bad("register out of range");
      if (I.Imm < 0)
        return Bad("negative shared-memory base offset " +
                   std::to_string(I.Imm));
      if (!ElemKindOk())
        return Bad("invalid element kind " + std::to_string(I.C));
      break;
    case Op::Jmp:
      if (!JumpOk())
        return Bad("jump target " + std::to_string(I.Imm) +
                   " out of range [0, " + std::to_string(N) + "]");
      break;
    case Op::Jz:
      if (!RegOk(I.A))
        return Bad("register out of range");
      if (!JumpOk())
        return Bad("jump target " + std::to_string(I.Imm) +
                   " out of range [0, " + std::to_string(N) + "]");
      break;
    case Op::Range:
      // The `then` lanes run on at pc + 1, below the others, which keeps
      // the running lanes at the group's lowest pc.
      if (!RegOk(I.A))
        return Bad("register out of range");
      if (I.Imm <= static_cast<int64_t>(PC) || !JumpOk())
        return Bad("jump target " + std::to_string(I.Imm) +
                   " out of range [" + std::to_string(PC + 1) + ", " +
                   std::to_string(N) + "]");
      if (rangeStride(I.C, K.Block) == 0)
        return Bad("lane coordinate " + std::to_string(I.C) +
                   " of a block(" + std::to_string(K.Block.X) + ", " +
                   std::to_string(K.Block.Y) + ", " +
                   std::to_string(K.Block.Z) +
                   ") is not one run of threads below a bound");
      break;
    case Op::Ret:
      break;
    case Op::RetVal:
      if (!RegOk(I.A))
        return Bad("register out of range");
      break;
    default: // the unary and binary arithmetic, comparison and logic ops
      if (!RegOk(I.A) || !RegOk(I.B) || (Sh.ReadsC && !RegOk(I.C)))
        return Bad("register out of range");
      break;
    }

    // The marks.
    const unsigned NU = C.NumUniform;
    if (I.U > 1)
      return Bad("invalid uniform mark " + std::to_string(I.U));
    if (I.U) {
      if (Sh.Memory)
        return Bad("memory access marked uniform");
      if (I.K == Op::Coord && (I.Imm < 0 || I.Imm > 2))
        return Bad("lane coordinate " + std::to_string(I.Imm) +
                   " marked uniform");
      if ((Sh.WritesA || Sh.ReadsA) && I.A >= NU)
        return Bad("uniform instruction uses varying register r" +
                   std::to_string(I.A));
      if ((Sh.ReadsB && I.B >= NU) || (Sh.ReadsC && I.C >= NU))
        return Bad("uniform instruction reads a varying register");
    } else if (Sh.WritesA && I.A < NU) {
      return Bad("varying instruction writes uniform register r" +
                 std::to_string(I.A));
    }
  }
  return {};
}

std::string validateNodes(const std::vector<VmNode> &Nodes,
                          const VmKernel &K) {
  for (const VmNode &Nd : Nodes) {
    if (Nd.K == VmNode::Straight) {
      if (std::string E = validateCode(Nd.Body, K, "phase body");
          !E.empty())
        return E;
      continue;
    }
    if (Nd.Slot >= sim::BlockCtx::MaxLoopSlots)
      return "loop node of kernel `" + K.Name + "` uses slot " +
             std::to_string(Nd.Slot) + " (max " +
             std::to_string(sim::BlockCtx::MaxLoopSlots) + ")";
    if (std::string E = validateCode(Nd.Lo, K, "loop lower bound");
        !E.empty())
      return E;
    if (std::string E = validateCode(Nd.Hi, K, "loop upper bound");
        !E.empty())
      return E;
    if (std::string E = validateNodes(Nd.Children, K); !E.empty())
      return E;
  }
  return {};
}

long long evalBound(const Code &C, const KernelEnv &E,
                    const sim::BlockCtx &B) {
  if (E.Trap.tripped())
    return 0; // drains the remaining phase structure quickly
  long long Out = 0;
  runGroup(C, E, B, /*First=*/0, /*G=*/1, &Out);
  return E.Trap.tripped() ? 0 : Out;
}

void buildProgram(sim::PhaseProgram &Prog, const std::vector<VmNode> &Nodes,
                  const KernelEnv &Env) {
  for (const VmNode &N : Nodes) {
    if (N.K == VmNode::Straight) {
      // NOTE: the node's std::function is shared across parallel block
      // executions — all per-invocation state (registers, lane pcs) lives
      // in runGroup's per-worker scratch, never in the capture.
      Prog.straightBlock([&Env, &Body = N.Body](sim::BlockCtx &B) {
        if (Env.Trap.tripped())
          return;
        const unsigned T = Env.Threads;
        const unsigned G = groupWidth(Env, B, Body);
        for (unsigned First = 0; First < T; First += G) {
          // Observers read the thread id here; they all run at G = 1.
          B.CurThread = First;
          if (!runGroup(Body, Env, B, First, std::min(G, T - First),
                        nullptr))
            return;
        }
      });
      continue;
    }
    Prog.loopBegin(
        N.Slot,
        [&Env, &C = N.Lo](const sim::BlockCtx &B) {
          return evalBound(C, Env, B);
        },
        [&Env, &C = N.Hi](const sim::BlockCtx &B) {
          return evalBound(C, Env, B);
        });
    buildProgram(Prog, N.Children, Env);
    Prog.loopEnd();
  }
}

//===----------------------------------------------------------------------===//
// Host execution
//===----------------------------------------------------------------------===//

/// Internal host-side failure; converted to a RunStatus at the public
/// entry point, never propagated past it.
struct HostError {
  std::string Msg;
};

[[noreturn]] void hostFail(std::string Msg) { throw HostError{std::move(Msg)}; }

using hostgen::HostExpr;
using hostgen::HostStmt;
using hostgen::HostVar;

struct HostEnv {
  sim::GpuDevice &Dev;
  const CompiledProgram &P;
};

long long asI(Value V, ScalarKind K) {
  return isFloatKind(K) ? static_cast<long long>(V.F) : V.I;
}
double asF(Value V, ScalarKind K) {
  return isFloatKind(K) ? V.F : static_cast<double>(V.I);
}

/// Re-classifies \p V (of kind \p From) as kind \p To with C++ cast
/// semantics; final storage narrowing (i32, f32 payloads) happens in
/// storeElem.
Value convertValue(Value V, ScalarKind From, ScalarKind To) {
  Value Out;
  if (isFloatKind(To)) {
    Out.F = asF(V, From);
    if (To == ScalarKind::F32)
      Out.F = static_cast<double>(static_cast<float>(Out.F));
  } else {
    Out.I = asI(V, From);
  }
  return Out;
}

Value evalHost(const HostExpr &E, const std::vector<HostVal> &Frame) {
  switch (E.K) {
  case HostExpr::Lit: {
    Value Out;
    if (E.Ty == ScalarKind::F32)
      Out.F = static_cast<double>(static_cast<float>(E.Float));
    else if (E.Ty == ScalarKind::F64)
      Out.F = E.Float;
    else
      Out.I = E.Int;
    return Out;
  }
  case HostExpr::Var: {
    const HostVal &S = Frame[E.Slot];
    if (S.K != HostVal::Scalar)
      hostFail("host expression reads a non-scalar frame slot");
    return S.V;
  }
  case HostExpr::Index: {
    const HostVal &S = Frame[E.Slot];
    if (S.K != HostVal::Array || !S.Arr)
      hostFail("host expression indexes a non-array frame slot");
    long long I = asI(evalHost(E.Ops[0], Frame), E.Ops[0].Ty);
    if (I < 0 || static_cast<size_t>(I) >= S.Arr->Count)
      hostFail("host array index " + std::to_string(I) +
               " out of range [0, " + std::to_string(S.Arr->Count) + ")");
    return loadElem(S.Arr->Bytes.data(), S.Arr->Elem,
                    static_cast<size_t>(I));
  }
  case HostExpr::Binary: {
    Value L = evalHost(E.Ops[0], Frame);
    Value R = evalHost(E.Ops[1], Frame);
    ScalarKind LK = E.Ops[0].Ty, RK = E.Ops[1].Ty;
    const BinOpKind BO = E.BO;
    Value Out;
    switch (BO) {
    case BinOpKind::And:
      Out.I = (asI(L, LK) != 0 && asI(R, RK) != 0) ? 1 : 0;
      return Out;
    case BinOpKind::Or:
      Out.I = (asI(L, LK) != 0 || asI(R, RK) != 0) ? 1 : 0;
      return Out;
    default:
      break;
    }
    bool FloatOp = isFloatKind(LK) || isFloatKind(RK);
    bool Cmp = BO == BinOpKind::Eq || BO == BinOpKind::Ne ||
               BO == BinOpKind::Lt || BO == BinOpKind::Le ||
               BO == BinOpKind::Gt || BO == BinOpKind::Ge;
    if (Cmp) {
      bool B2;
      if (FloatOp) {
        double A = asF(L, LK), C = asF(R, RK);
        B2 = BO == BinOpKind::Eq   ? A == C
             : BO == BinOpKind::Ne ? A != C
             : BO == BinOpKind::Lt ? A < C
             : BO == BinOpKind::Le ? A <= C
             : BO == BinOpKind::Gt ? A > C
                                   : A >= C;
      } else {
        long long A = asI(L, LK), C = asI(R, RK);
        B2 = BO == BinOpKind::Eq   ? A == C
             : BO == BinOpKind::Ne ? A != C
             : BO == BinOpKind::Lt ? A < C
             : BO == BinOpKind::Le ? A <= C
             : BO == BinOpKind::Gt ? A > C
                                   : A >= C;
      }
      Out.I = B2 ? 1 : 0;
      return Out;
    }
    // Float operands never meet `%`: the type checker admits it on
    // integers only.
    if (FloatOp) {
      double A = asF(L, LK), C = asF(R, RK);
      if (E.Ty == ScalarKind::F32) {
        float Af = static_cast<float>(A), Cf = static_cast<float>(C);
        Out.F = static_cast<double>(BO == BinOpKind::Add   ? Af + Cf
                                    : BO == BinOpKind::Sub ? Af - Cf
                                    : BO == BinOpKind::Mul ? Af * Cf
                                                           : Af / Cf);
      } else {
        Out.F = BO == BinOpKind::Add   ? A + C
                : BO == BinOpKind::Sub ? A - C
                : BO == BinOpKind::Mul ? A * C
                                       : A / C;
      }
      return Out;
    }
    long long A = asI(L, LK), C = asI(R, RK);
    if (BO == BinOpKind::Div || BO == BinOpKind::Mod) {
      if (C == 0)
        hostFail("integer division by zero in host code");
      if (divOverflows(A, C))
        hostFail("integer division overflow in host code");
    }
    Out.I = BO == BinOpKind::Add   ? addWrap(A, C)
            : BO == BinOpKind::Sub ? subWrap(A, C)
            : BO == BinOpKind::Mul ? mulWrap(A, C)
            : BO == BinOpKind::Div ? A / C
                                   : A % C;
    return Out;
  }
  case HostExpr::Unary: {
    const HostExpr &X = E.Ops[0];
    Value S = evalHost(X, Frame);
    Value Out;
    if (E.UO == UnOpKind::Not) {
      Out.I = asI(S, X.Ty) == 0 ? 1 : 0;
      return Out;
    }
    if (isFloatKind(X.Ty)) {
      Out.F = -asF(S, X.Ty);
      if (X.Ty == ScalarKind::F32)
        Out.F = static_cast<double>(-static_cast<float>(S.F));
    } else {
      Out.I = subWrap(0, asI(S, X.Ty));
    }
    return Out;
  }
  }
  hostFail("unhandled host expression kind");
}

void execHostFn(HostEnv &E, const HostFnIR &Fn, std::vector<HostVal> Args,
                unsigned Depth);

void execHostStmts(HostEnv &E, const HostFnIR &Fn,
                   const std::vector<HostStmt> &Stmts,
                   std::vector<HostVal> &Frame, unsigned Depth) {
  for (const HostStmt &S : Stmts) {
    switch (S.K) {
    case HostStmt::Alloc: {
      const HostVar &V = Fn.Vars[S.Dst];
      auto Arr = std::make_shared<HostArray>();
      Arr->Elem = V.Elem;
      Arr->Count = static_cast<size_t>(*V.CountValue);
      Arr->Bytes.resize(Arr->Count * scalarSize(V.Elem)); // zeroed
      if (S.Value) {
        Value Fill =
            convertValue(evalHost(*S.Value, Frame), S.Value->Ty, V.Elem);
        for (size_t I = 0; I != Arr->Count; ++I)
          storeElem(Arr->Bytes.data(), V.Elem, I, Fill);
      }
      Frame[S.Dst] = HostVal::array(std::move(Arr));
      break;
    }
    case HostStmt::AllocCopy: {
      const HostVal &Src = Frame[S.Src];
      if (Src.K != HostVal::Array || !Src.Arr)
        hostFail("alloc_copy source is not a host array");
      DevBuf D = allocDev(E.Dev, Src.Arr->Elem, Src.Arr->Count);
      std::memcpy(D.Data, Src.Arr->Bytes.data(), Src.Arr->Bytes.size());
      Frame[S.Dst] = HostVal::dev(D);
      break;
    }
    case HostStmt::CopyToHost: {
      const HostVal &Dst = Frame[S.Dst];
      const HostVal &Src = Frame[S.Src];
      if (Dst.K != HostVal::Array || !Dst.Arr || Src.K != HostVal::Dev)
        hostFail("copy_mem_to_host: arguments have the wrong kinds");
      if (Dst.Arr->Count != Src.DevB.Count ||
          Dst.Arr->Elem != Src.DevB.Elem)
        hostFail("copy_mem_to_host: size mismatch"); // same text as rt::
      std::memcpy(Dst.Arr->Bytes.data(), Src.DevB.Data,
                  Dst.Arr->Bytes.size());
      break;
    }
    case HostStmt::CopyToGpu: {
      const HostVal &Dst = Frame[S.Dst];
      const HostVal &Src = Frame[S.Src];
      if (Dst.K != HostVal::Dev || Src.K != HostVal::Array || !Src.Arr)
        hostFail("copy_to_gpu: arguments have the wrong kinds");
      if (Dst.DevB.Count != Src.Arr->Count ||
          Dst.DevB.Elem != Src.Arr->Elem)
        hostFail("copy_to_gpu: size mismatch"); // same text as rt::
      std::memcpy(Dst.DevB.Data, Src.Arr->Bytes.data(),
                  Src.Arr->Bytes.size());
      break;
    }
    case HostStmt::Launch: {
      const VmKernel &K = E.P.Kernels[S.Target];
      std::vector<DevBuf> Bufs;
      for (unsigned Slot : S.Bufs) {
        if (Frame[Slot].K != HostVal::Dev)
          hostFail("launch argument is not a device buffer");
        Bufs.push_back(Frame[Slot].DevB);
      }
      RunStatus St = launchKernel(E.Dev, K, Bufs);
      if (!St.Ok)
        hostFail(St.Error);
      break;
    }
    case HostStmt::Let:
    case HostStmt::Assign: {
      if (S.Index) {
        HostVal &Dst = Frame[S.Dst];
        if (Dst.K != HostVal::Array || !Dst.Arr)
          hostFail("indexed assignment into a non-array slot");
        long long I = asI(evalHost(*S.Index, Frame), S.Index->Ty);
        if (I < 0 || static_cast<size_t>(I) >= Dst.Arr->Count)
          hostFail("host array index " + std::to_string(I) +
                   " out of range [0, " + std::to_string(Dst.Arr->Count) +
                   ")");
        Value V =
            convertValue(evalHost(*S.Value, Frame), S.Value->Ty, Dst.Arr->Elem);
        storeElem(Dst.Arr->Bytes.data(), Dst.Arr->Elem,
                  static_cast<size_t>(I), V);
        break;
      }
      const ScalarKind K = Fn.Vars[S.Dst].Elem;
      Frame[S.Dst] = HostVal::scalar(
          K, convertValue(evalHost(*S.Value, Frame), S.Value->Ty, K));
      break;
    }
    case HostStmt::ForNat: {
      // Same trip semantics as the generated `for (V = Lo; V != Hi; ++V)`.
      for (long long V = *S.LoValue; V != *S.HiValue; ++V) {
        Value IV;
        IV.I = V;
        Frame[S.Dst] = HostVal::scalar(ScalarKind::I64, IV);
        execHostStmts(E, Fn, S.Body, Frame, Depth);
      }
      break;
    }
    case HostStmt::Call: {
      // Buffers pass by slot (shared), scalars by value at the callee's
      // parameter kind.
      const HostFnIR &Callee = E.P.HostFns[S.Target];
      std::vector<HostVal> Args;
      for (size_t I = 0; I != S.Args.size(); ++I) {
        const HostExpr &A = S.Args[I];
        if (A.K == HostExpr::Var && Frame[A.Slot].K != HostVal::Scalar) {
          Args.push_back(Frame[A.Slot]);
          continue;
        }
        ScalarKind K = I < Callee.NumParams ? Callee.Vars[I].Elem : A.Ty;
        Args.push_back(HostVal::scalar(
            K, convertValue(evalHost(A, Frame), A.Ty, K)));
      }
      execHostFn(E, Callee, std::move(Args), Depth + 1);
      break;
    }
    case HostStmt::Block:
      execHostStmts(E, Fn, S.Body, Frame, Depth);
      break;
    case HostStmt::Release: {
      if (Frame[S.Dst].K != HostVal::Dev)
        hostFail("release of a non-device frame slot");
      const unsigned Id = Frame[S.Dst].DevB.Id;
      Frame[S.Dst] = HostVal(); // the slot holds no buffer past its scope
      E.Dev.free(Id);
      break;
    }
    }
  }
}

void execHostFn(HostEnv &E, const HostFnIR &Fn, std::vector<HostVal> Args,
                unsigned Depth) {
  if (Depth > 64)
    hostFail("host call depth exceeds 64 (runaway recursion?)");
  if (Args.size() != Fn.NumParams)
    hostFail("host `" + Fn.Name + "` expects " +
             std::to_string(Fn.NumParams) + " arguments, got " +
             std::to_string(Args.size()));
  for (size_t I = 0; I != Args.size(); ++I) {
    const HostVar &P = Fn.Vars[I];
    const HostVal &A = Args[I];
    const size_t Count = static_cast<size_t>(P.CountValue.value_or(0));
    bool Fits;
    switch (P.K) {
    case HostVar::HostBuf:
      Fits = A.K == HostVal::Array && A.Arr && A.Arr->Elem == P.Elem &&
             A.Arr->Count == Count;
      break;
    case HostVar::DevBuf:
      Fits = A.K == HostVal::Dev && A.DevB.Elem == P.Elem &&
             A.DevB.Count == Count;
      break;
    default:
      Fits = A.K == HostVal::Scalar;
      break;
    }
    if (!Fits)
      hostFail(hostgen::paramMismatch(Fn, static_cast<unsigned>(I)));
  }
  std::vector<HostVal> Frame(Fn.Vars.size());
  for (size_t I = 0; I != Args.size(); ++I)
    Frame[I] = std::move(Args[I]);
  try {
    execHostStmts(E, Fn, Fn.Body, Frame, Depth);
  } catch (...) {
    // A failure skips the release statements of every scope it leaves.
    // A local slot holds at most one buffer (its release empties it), so
    // the frame's device slots are exactly what is still live.
    for (size_t I = Fn.NumParams; I != Frame.size(); ++I)
      if (Frame[I].K == HostVal::Dev)
        E.Dev.free(Frame[I].DevB.Id);
    throw;
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Public entry points
//===----------------------------------------------------------------------===//

DevBuf vm::allocDev(sim::GpuDevice &Dev, ScalarKind Elem, size_t Count) {
  DevBuf D;
  D.Elem = Elem;
  D.Count = Count;
  D.Data = Dev.allocRaw(Count * scalarSize(Elem), D.Id);
  return D;
}

std::shared_ptr<HostArray> vm::makeHostArray(ScalarKind Elem, size_t Count,
                                             double Fill) {
  auto Arr = std::make_shared<HostArray>();
  Arr->Elem = Elem;
  Arr->Count = Count;
  Arr->Bytes.resize(Count * scalarSize(Elem));
  Value V;
  if (isFloatKind(Elem))
    V.F = Elem == ScalarKind::F32
              ? static_cast<double>(static_cast<float>(Fill))
              : Fill;
  else
    V.I = static_cast<long long>(Fill);
  for (size_t I = 0; I != Count; ++I)
    storeElem(Arr->Bytes.data(), Elem, I, V);
  return Arr;
}

RunStatus vm::validateKernel(const VmKernel &K) {
  if (std::string E = validateNodes(K.Nodes, K); !E.empty())
    return {false, "invalid bytecode: " + E};
  return {};
}

RunStatus vm::launchKernel(sim::GpuDevice &Dev, const VmKernel &K,
                           const std::vector<DevBuf> &Args,
                           LaunchWork *Work) {
  // CUDA sticky-error semantics: a poisoned device rejects every launch
  // with the original error until GpuDevice::reset().
  if (Dev.poisoned()) {
    std::string Msg;
    sim::ErrorCode Code = Dev.getLastError(&Msg);
    return {false, "kernel `" + K.Name + "` not launched: device in error "
                   "state (" +
                       sim::errorCodeName(Code) + "): " + Msg};
  }
  if (Args.size() != K.Params.size())
    return {false, "kernel `" + K.Name + "` expects " +
                       std::to_string(K.Params.size()) + " buffers, got " +
                       std::to_string(Args.size())};
  for (size_t I = 0; I != Args.size(); ++I)
    if (Args[I].Elem != K.Params[I].Elem ||
        Args[I].Count != K.Params[I].Count)
      return {false, "kernel `" + K.Name + "` argument `" +
                         K.Params[I].Name + "` must be " +
                         std::to_string(K.Params[I].Count) + " x " +
                         scalarKindName(K.Params[I].Elem)};
  // A freed buffer is refused like a bad argument (InvalidValue does not
  // poison the device). One check per argument per launch; the
  // per-element path stays unchecked.
  for (size_t I = 0; I != Args.size(); ++I)
    if (!Dev.isLive(Args[I].Id))
      return {false, std::string(sim::errorCodeName(
                         sim::ErrorCode::InvalidValue)) +
                         ": kernel `" + K.Name + "` argument `" +
                         K.Params[I].Name + "`: device buffer id " +
                         std::to_string(Args[I].Id) +
                         " was freed or never allocated"};

  if (RunStatus V = validateKernel(K); !V.Ok)
    return V;

  TrapState Trap;
  KernelEnv Env{K, Args, Trap, Dev.watchdog().StepBudget, K.Block.total(),
                {}};
  Env.CountWork = Work != nullptr;
  // At least one entry per plane: loop bounds run as thread 0 even in a
  // block without threads.
  Env.ThreadIdx.assign(3 * static_cast<size_t>(std::max(Env.Threads, 1u)), 0);
  uint32_t *TX = Env.ThreadIdx.data(), *TY = TX + Env.Threads,
           *TZ = TY + Env.Threads;
  for (unsigned Z = 0, Lin = 0; Z != K.Block.Z; ++Z)
    for (unsigned Y = 0; Y != K.Block.Y; ++Y)
      for (unsigned X = 0; X != K.Block.X; ++X, ++Lin) {
        TX[Lin] = X;
        TY[Lin] = Y;
        TZ[Lin] = Z;
      }
  const uint64_t Seq0 = Dev.errorSeq();
  sim::PhaseProgram Prog;
  buildProgram(Prog, K.Nodes, Env);
  // Synchronous, like every generated sim launch; phase numbering and
  // loopVar slots are maintained by launchProgram itself.
  sim::launchProgram(Dev, K.Grid, K.Block, K.ArenaBytes, Prog);
  if (Work) {
    Work->Instrs += Env.Instrs.load(std::memory_order_relaxed);
    Work->LaneSteps += Env.LaneSteps.load(std::memory_order_relaxed);
  }
  if (Dev.countersEnabled()) {
    // Unlike generated C++ launches, the interpreter knows the kernel's
    // name and whether it faulted: tag the launch it just recorded.
    Dev.labelLastLaunch(K.Name);
    if (Trap.tripped())
      Dev.noteLaunchTraps(1);
  }
  if (Trap.tripped()) {
    // Workers have synchronized by now, so Msg/Timedout are stable. The
    // trap becomes the device's sticky error, like a CUDA kernel fault.
    Dev.setDeviceError(Trap.Timedout ? sim::ErrorCode::KernelTimeout
                                     : sim::ErrorCode::KernelTrap,
                       Trap.Msg);
    return {false, Trap.Msg};
  }
  if (Dev.errorSeq() != Seq0) {
    // The launch machinery itself failed under us (injected launch trap,
    // wall-clock watchdog): report the device's error, not success.
    std::string Msg;
    sim::ErrorCode Code = Dev.getLastError(&Msg);
    return {false, std::string(sim::errorCodeName(Code)) + ": " + Msg};
  }
  return {};
}

RunStatus vm::runHostFn(sim::GpuDevice &Dev, const CompiledProgram &P,
                        const HostFnIR &Fn, std::vector<HostVal> Args) {
  try {
    HostEnv E{Dev, P};
    execHostFn(E, Fn, std::move(Args), 0);
    return {};
  } catch (const HostError &H) {
    return {false, "in host `" + Fn.Name + "`: " + H.Msg};
  } catch (const std::exception &Ex) {
    return {false, std::string("internal error in host execution: ") +
                       Ex.what()};
  } catch (...) {
    return {false, "internal error in host execution"};
  }
}

MainArgs vm::bindMainArgs(sim::GpuDevice &Dev, const HostFnIR &Main,
                          const std::vector<double> &Fills) {
  MainArgs Out;
  for (unsigned I = 0; I != Main.NumParams; ++I) {
    const hostgen::HostVar &P = Main.Vars[I];
    const size_t Count = static_cast<size_t>(P.CountValue.value_or(0));
    const double Fill = I < Fills.size()
                            ? Fills[I]
                            : (P.K == hostgen::HostVar::Scalar ? 0.0 : 1.0);
    switch (P.K) {
    case hostgen::HostVar::HostBuf:
      Out.Arrays.push_back(makeHostArray(P.Elem, Count, Fill));
      Out.Args.push_back(HostVal::array(Out.Arrays.back()));
      break;
    case hostgen::HostVar::DevBuf:
      Out.Args.push_back(HostVal::dev(allocDev(Dev, P.Elem, Count)));
      break;
    default: {
      Value V;
      if (isFloatKind(P.Elem))
        V.F = Fill;
      else
        V.I = static_cast<long long>(Fill);
      Out.Args.push_back(HostVal::scalar(P.Elem, V));
      break;
    }
    }
  }
  return Out;
}
