//===- vm/Interp.cpp - Bytecode interpreter over the simulator --------------===//

#include "vm/Interp.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <mutex>

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

/// Register budget of one lane group: NumRegs x G x sizeof(Value) stays
/// within it, which bounds every worker's register scratch whatever the
/// kernel. 256 KiB runs every kernel in kernels/ at full block width (the
/// widest, matmul, needs 34 registers x 256 lanes).
constexpr size_t GroupRegBytes = 256 * 1024;

struct KernelEnv {
  const VmKernel &K;
  const std::vector<DevBuf> &Bufs;
  TrapState &Trap;
  uint64_t StepBudget = 0; ///< per-thread instruction cap (0 = unlimited)
  unsigned Threads = 0;    ///< threads per block
  /// threadIdx by linear thread id: the x plane, then y, then z.
  std::vector<uint32_t> ThreadIdx;
};

/// Lanes per group for a code object of \p NumRegs registers: one while
/// anything observes per-thread order — the race log, the bounds log, the
/// counters' per-thread 32-bank grouping, the per-thread step budget —
/// else the whole block, narrowed only to keep the register file within
/// GroupRegBytes.
unsigned groupWidth(const KernelEnv &E, const sim::BlockCtx &B,
                    unsigned NumRegs) {
  if (B.Dev->raceDetection() || B.Dev->boundsChecking() || B.Counters ||
      E.StepBudget != 0)
    return 1;
  const size_t Fit = GroupRegBytes / (sizeof(Value) * std::max(NumRegs, 1u));
  return static_cast<unsigned>(
      std::clamp<size_t>(Fit, 1, std::max(E.Threads, 1u)));
}

/// Per-worker scratch of the lane-group executor, reused across groups,
/// phases and launches (runGroup re-zeroes the registers every time).
struct GroupScratch {
  std::vector<Value> Regs;   ///< lane-major: register r of lane L at r*G+L
  std::vector<uint32_t> PCs; ///< per lane: parked pc, or LaneDone
  std::vector<uint32_t> Act; ///< lanes of the running group, ascending
};

constexpr uint32_t LaneDone = UINT32_MAX;

/// True when elements [Idx, Idx + Span) of \p ES bytes starting at byte
/// \p Base lie inside an arena of \p Bytes bytes. Compares the index with
/// the room left after Base instead of forming the byte offset, which a
/// large index would wrap back into range.
bool inArena(long long Idx, size_t Span, size_t ES, size_t Base,
             size_t Bytes) {
  if (Idx < 0 || Base > Bytes)
    return false;
  return ES == 0 || static_cast<size_t>(Idx) + Span <= (Bytes - Base) / ES;
}

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

// Runs the statements once per lane L of the running group, in ascending
// lane order.
#define EACH_LANE(...)                                                         \
  for (unsigned J = 0; J != NA; ++J) {                                         \
    const unsigned L = Act[J];                                                 \
    __VA_ARGS__                                                                \
  }

/// Runs code object \p C for the \p G threads of block \p B with linear
/// ids [First, First + G), dispatching each instruction once for every
/// lane of the running group. The running lanes always sit at the lowest
/// pc of the group ("min-pc" reconvergence): a Jz that splits them lets
/// the side at the lower pc run on and parks the other; when the runners
/// reach the lowest parked pc, or jump past it, the lanes parked there
/// take over, and lanes whose pcs meet run as one group again. Every lane
/// thus executes exactly the instruction sequence it would alone; only
/// the interleaving between lanes differs, which a race-free phase cannot
/// observe. Returns false if a trap tripped. \p RetOut receives lane 0's
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
  const size_t NumValues = static_cast<size_t>(C.NumRegs) * G;
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
  // The running group: NA lanes listed in Act, all at PC. Every other lane
  // is parked at its pc in PCs or has finished (LaneDone); Limit is the
  // lowest parked pc, N if none.
  unsigned NA = G;
  for (unsigned L = 0; L != G; ++L)
    Act[L] = L;
  uint32_t PC = 0, Limit = N;

  // The running lanes park at \p At (N or beyond: they finish) and the
  // lanes parked at Limit run next, joined by the runners if At == Limit.
  // False once no lane is left.
  auto HandOver = [&](uint32_t At) {
    if (Limit >= N)
      return false;
    const uint32_t ParkAt = At >= N ? LaneDone : At;
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
    return true;
  };
  auto Reg = [&](uint16_t Ix) { return R + static_cast<size_t>(Ix) * G; };
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
  uint64_t Steps = 0;

  for (;;) {
    if (PC >= Limit) [[unlikely]] {
      // The running lanes fell off the end (treated like Ret), reached a
      // parked lane's pc or jumped past it.
      if (!HandOver(PC))
        return true;
      continue;
    }
    if (Budget && ++Steps > Budget) [[unlikely]] {
      E.Trap.trip("in kernel `" + E.K.Name + "`: step budget of " +
                      std::to_string(Budget) +
                      " instructions exceeded (watchdog steps=" +
                      std::to_string(Budget) + "); launch cancelled",
                  /*Timeout=*/true);
      return false;
    }
    const Instr &I = Ins[PC++];
    switch (I.K) {
    case Op::Const: {
      Value *Ra = Reg(I.A);
      const Value V = C.Consts[I.Imm];
      EACH_LANE(Ra[L] = V;)
      break;
    }
    case Op::Coord: {
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
    case Op::Slot: {
      Value *Ra = Reg(I.A);
      const long long V = B.loopVar(static_cast<unsigned>(I.Imm));
      EACH_LANE(Ra[L].I = V;)
      break;
    }
    case Op::Move: {
      Value *Ra = Reg(I.A);
      const Value *Rb = Reg(I.B);
      EACH_LANE(Ra[L] = Rb[L];)
      break;
    }

    case Op::LoadGlobal:
    case Op::StoreGlobal: {
      const DevBuf &D = E.Bufs[I.Imm];
      std::byte *const Data = D.Data;
      const size_t Count = D.Count;
      const bool Write = I.K == Op::StoreGlobal;
      const ScalarKind EK = static_cast<ScalarKind>(I.C);
      Value *Ra = Reg(I.A);
      const Value *Rb = Reg(I.B);
      EACH_LANE(
        const long long Idx = Rb[L].I;
        // Replicates GpuDevice::Buffer<T>::load/store: count and log
        // first, then bounds-check. A negative index wraps to a huge
        // size_t exactly like the size_t parameter of Buffer::load would.
        if (Watch) [[unlikely]] {
          if (B.Counters)
            B.Counters->countGlobal(Write);
          if (B.Dev->raceDetection())
            B.Dev->logAccess(B, D.Id, static_cast<size_t>(Idx), Write);
        }
        if (Idx < 0 || static_cast<size_t>(Idx) >= Count) [[unlikely]] {
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
          storeElem(Data, EK, static_cast<size_t>(Idx), Ra[L]);
        else
          Ra[L] = loadElem(Data, EK, static_cast<size_t>(Idx));
      )
      break;
    }

    case Op::LoadGlobal2:
    case Op::StoreGlobal2: {
      const DevBuf &D = E.Bufs[I.Imm];
      std::byte *const Data = D.Data;
      const size_t Count = D.Count;
      const bool Write = I.K == Op::StoreGlobal2;
      const ScalarKind EK = static_cast<ScalarKind>(I.C);
      Value *Ra = Reg(I.A), *Ra1 = Ra + G;
      const Value *Rb = Reg(I.B);
      EACH_LANE(
        const long long Idx = Rb[L].I;
        const size_t At = static_cast<size_t>(Idx);
        // Replicates Buffer<T>::load2/store2: ONE counted transaction for
        // the fused pair, both elements race-logged, bounds through Idx+1.
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
          storeElem(Data, EK, At, Ra[L]);
          storeElem(Data, EK, At + 1, Ra1[L]);
        } else {
          Ra[L] = loadElem(Data, EK, At);
          Ra1[L] = loadElem(Data, EK, At + 1);
        }
      )
      break;
    }

    case Op::LoadShared:
    case Op::StoreShared:
    case Op::LoadArena:
    case Op::StoreArena: {
      const bool Write = I.K == Op::StoreShared || I.K == Op::StoreArena;
      const bool Arena = I.K == Op::LoadArena || I.K == Op::StoreArena;
      const ScalarKind EK = static_cast<ScalarKind>(I.C);
      const size_t ES = scalarSize(EK);
      const size_t Base =
          static_cast<size_t>(I.Imm) + (Arena ? E.K.LocalsBase : 0);
      Value *Ra = Reg(I.A);
      const Value *Rb = Reg(I.B);
      EACH_LANE(
        const long long Idx = Rb[L].I;
        const size_t Off = Base + static_cast<size_t>(Idx) * ES;
        // sharedLoad/sharedStore count and log the byte offset; arena
        // (spill) slots are per-thread-private and stay uncounted and
        // unlogged, like BlockCtx::shared.
        if (Watch && !Arena) [[unlikely]] {
          if (B.Counters)
            B.Counters->countShared(Off, Write, B.CurThread);
          if (B.Dev->raceDetection())
            B.Dev->logAccess(B, B.SharedBufferId, Off, Write);
        }
        if (!inArena(Idx, 1, ES, Base, SharedBytes)) [[unlikely]]
          return Trap(arenaFault(Arena ? "arena" : "shared", Idx, ES, Base,
                                 Off, SharedBytes));
        if (Write)
          storeElem(Shared + Off, EK, 0, Ra[L]);
        else
          Ra[L] = loadElem(Shared + Off, EK, 0);
      )
      break;
    }

    case Op::LoadShared2:
    case Op::StoreShared2: {
      const bool Write = I.K == Op::StoreShared2;
      const ScalarKind EK = static_cast<ScalarKind>(I.C);
      const size_t ES = scalarSize(EK);
      const size_t Base = static_cast<size_t>(I.Imm);
      Value *Ra = Reg(I.A), *Ra1 = Ra + G;
      const Value *Rb = Reg(I.B);
      EACH_LANE(
        const long long Idx = Rb[L].I;
        const size_t Off = Base + static_cast<size_t>(Idx) * ES;
        // Replicates sharedLoad2/sharedStore2: ONE counted transaction at
        // the first element's byte offset, both elements race-logged.
        if (Watch) [[unlikely]] {
          if (B.Counters)
            B.Counters->countShared(Off, Write, B.CurThread);
          if (B.Dev->raceDetection()) {
            B.Dev->logAccess(B, B.SharedBufferId, Off, Write);
            B.Dev->logAccess(B, B.SharedBufferId, Off + ES, Write);
          }
        }
        if (!inArena(Idx, 2, ES, Base, SharedBytes)) [[unlikely]]
          return Trap(arenaFault("shared wide", Idx, ES, Base, Off,
                                 SharedBytes));
        if (Write) {
          storeElem(Shared + Off, EK, 0, Ra[L]);
          storeElem(Shared + Off + ES, EK, 0, Ra1[L]);
        } else {
          Ra[L] = loadElem(Shared + Off, EK, 0);
          Ra1[L] = loadElem(Shared + Off + ES, EK, 0);
        }
      )
      break;
    }

#define LANE_BIN(OPNAME, FIELD, EXPR)                                          \
  case Op::OPNAME: {                                                           \
    Value *Ra = Reg(I.A);                                                      \
    const Value *Rb = Reg(I.B), *Rc = Reg(I.C);                                \
    EACH_LANE(Ra[L].FIELD = (EXPR);)                                           \
    break;                                                                     \
  }
#define LANE_UN(OPNAME, FIELD, EXPR)                                           \
  case Op::OPNAME: {                                                           \
    Value *Ra = Reg(I.A);                                                      \
    const Value *Rb = Reg(I.B);                                                \
    EACH_LANE(Ra[L].FIELD = (EXPR);)                                           \
    break;                                                                     \
  }

      LANE_BIN(AddI, I, Rb[L].I + Rc[L].I)
      LANE_BIN(SubI, I, Rb[L].I - Rc[L].I)
      LANE_BIN(MulI, I, Rb[L].I * Rc[L].I)
    case Op::DivI:
    case Op::ModI: {
      const bool Div = I.K == Op::DivI;
      Value *Ra = Reg(I.A);
      const Value *Rb = Reg(I.B), *Rc = Reg(I.C);
      EACH_LANE(
        const long long Y = Rc[L].I;
        if (Y == 0)
          return Trap(Div ? "integer division by zero"
                          : "integer modulo by zero");
        Ra[L].I = Div ? Rb[L].I / Y : Rb[L].I % Y;
      )
      break;
    }
    case Op::PowI: {
      Value *Ra = Reg(I.A);
      const Value *Rb = Reg(I.B), *Rc = Reg(I.C);
      EACH_LANE(
        if (Rc[L].I < 0)
          return Trap("negative exponent in nat power");
        Ra[L].I = static_cast<long long>(powWrap(
            static_cast<uint64_t>(Rb[L].I), static_cast<uint64_t>(Rc[L].I)));
      )
      break;
    }

      LANE_BIN(AddF, F, Rb[L].F + Rc[L].F)
      LANE_BIN(SubF, F, Rb[L].F - Rc[L].F)
      LANE_BIN(MulF, F, Rb[L].F * Rc[L].F)
      LANE_BIN(DivF, F, Rb[L].F / Rc[L].F)
      LANE_BIN(AddF32, F, static_cast<double>(f32(Rb[L].F) + f32(Rc[L].F)))
      LANE_BIN(SubF32, F, static_cast<double>(f32(Rb[L].F) - f32(Rc[L].F)))
      LANE_BIN(MulF32, F, static_cast<double>(f32(Rb[L].F) * f32(Rc[L].F)))
      LANE_BIN(DivF32, F, static_cast<double>(f32(Rb[L].F) / f32(Rc[L].F)))

      LANE_BIN(LtI, I, Rb[L].I < Rc[L].I ? 1 : 0)
      LANE_BIN(LeI, I, Rb[L].I <= Rc[L].I ? 1 : 0)
      LANE_BIN(GtI, I, Rb[L].I > Rc[L].I ? 1 : 0)
      LANE_BIN(GeI, I, Rb[L].I >= Rc[L].I ? 1 : 0)
      LANE_BIN(EqI, I, Rb[L].I == Rc[L].I ? 1 : 0)
      LANE_BIN(NeI, I, Rb[L].I != Rc[L].I ? 1 : 0)
      LANE_BIN(LtF, I, Rb[L].F < Rc[L].F ? 1 : 0)
      LANE_BIN(LeF, I, Rb[L].F <= Rc[L].F ? 1 : 0)
      LANE_BIN(GtF, I, Rb[L].F > Rc[L].F ? 1 : 0)
      LANE_BIN(GeF, I, Rb[L].F >= Rc[L].F ? 1 : 0)
      LANE_BIN(EqF, I, Rb[L].F == Rc[L].F ? 1 : 0)
      LANE_BIN(NeF, I, Rb[L].F != Rc[L].F ? 1 : 0)

      LANE_BIN(AndI, I, (Rb[L].I != 0 && Rc[L].I != 0) ? 1 : 0)
      LANE_BIN(OrI, I, (Rb[L].I != 0 || Rc[L].I != 0) ? 1 : 0)
      LANE_UN(NotI, I, Rb[L].I == 0 ? 1 : 0)
      LANE_UN(NegI, I, -Rb[L].I)
      LANE_UN(NegF, F, -Rb[L].F)
      LANE_UN(NegF32, F, static_cast<double>(-f32(Rb[L].F)))
      LANE_UN(I2F, F, static_cast<double>(Rb[L].I))
      LANE_UN(F2I, I, static_cast<long long>(Rb[L].F))
      LANE_UN(F2F32, F, static_cast<double>(f32(Rb[L].F)))

#undef LANE_BIN
#undef LANE_UN

    case Op::Jmp:
      PC = static_cast<uint32_t>(I.Imm);
      break;
    case Op::Jz: {
      const Value *Ra = Reg(I.A);
      unsigned Taken = 0;
      EACH_LANE(Taken += Ra[L].I == 0;)
      if (Taken == NA) {
        PC = static_cast<uint32_t>(I.Imm);
      } else if (Taken != 0) {
        // The group splits: the side at the lower pc runs on, the other
        // parks. Act is filtered in place, so it stays ascending.
        const uint32_t Target = static_cast<uint32_t>(I.Imm);
        const bool TakenRun = Target < PC;
        const uint32_t Other = TakenRun ? PC : Target;
        const uint32_t ParkAt = Other >= N ? LaneDone : Other;
        unsigned Kept = 0;
        EACH_LANE(if ((Ra[L].I == 0) == TakenRun) Act[Kept++] = L;
                  else PCs[L] = ParkAt;)
        NA = Kept;
        if (TakenRun)
          PC = Target;
        Limit = std::min(Limit, Other);
      }
      break;
    }
    case Op::RetVal:
      if (RetOut)
        *RetOut = Reg(I.A)[0].I;
      [[fallthrough]];
    case Op::Ret:
      if (!HandOver(N))
        return true;
      break;
    default:
      // Unreachable after validateKernel, but bytecode that dodged
      // validation (or a latent compiler bug) must trap, not fall into
      // undefined behavior.
      return Trap("invalid opcode " +
                  std::to_string(static_cast<unsigned>(I.K)) + " at pc " +
                  std::to_string(PC - 1) + " (corrupted bytecode?)");
    }
  }
}

#undef EACH_LANE

//===----------------------------------------------------------------------===//
// Bytecode validation
//===----------------------------------------------------------------------===//

constexpr unsigned NumOps = static_cast<unsigned>(Op::RetVal) + 1;

/// Checks every instruction of \p C against its register file, constant
/// pool, jump range and the kernel's parameter schema. Returns the first
/// problem as text, empty when clean.
std::string validateCode(const Code &C, const VmKernel &K,
                         const char *What) {
  // Register operands are 16 bits wide: a larger file is unaddressable,
  // and a corrupted count must not size the executor's register scratch.
  if (C.NumRegs > 65536)
    return std::string(What) + " of kernel `" + K.Name + "` declares " +
           std::to_string(C.NumRegs) + " registers (max 65536)";
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
    const bool Wide = I.K == Op::LoadGlobal2 || I.K == Op::StoreGlobal2 ||
                      I.K == Op::LoadShared2 || I.K == Op::StoreShared2;
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
    case Op::AddI:
    case Op::SubI:
    case Op::MulI:
    case Op::DivI:
    case Op::ModI:
    case Op::PowI:
    case Op::AddF:
    case Op::SubF:
    case Op::MulF:
    case Op::DivF:
    case Op::AddF32:
    case Op::SubF32:
    case Op::MulF32:
    case Op::DivF32:
    case Op::LtI:
    case Op::LeI:
    case Op::GtI:
    case Op::GeI:
    case Op::EqI:
    case Op::NeI:
    case Op::LtF:
    case Op::LeF:
    case Op::GtF:
    case Op::GeF:
    case Op::EqF:
    case Op::NeF:
    case Op::AndI:
    case Op::OrI:
      if (!RegOk(I.A) || !RegOk(I.B) || !RegOk(I.C))
        return Bad("register out of range");
      break;
    case Op::NotI:
    case Op::NegI:
    case Op::NegF:
    case Op::NegF32:
    case Op::I2F:
    case Op::F2I:
    case Op::F2F32:
      if (!RegOk(I.A) || !RegOk(I.B))
        return Bad("register out of range");
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
    case Op::Ret:
      break;
    case Op::RetVal:
      if (!RegOk(I.A))
        return Bad("register out of range");
      break;
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
        const unsigned G = groupWidth(Env, B, Body.NumRegs);
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
    if ((BO == BinOpKind::Div || BO == BinOpKind::Mod) && C == 0)
      hostFail("integer division by zero in host code");
    Out.I = BO == BinOpKind::Add   ? A + C
            : BO == BinOpKind::Sub ? A - C
            : BO == BinOpKind::Mul ? A * C
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
      Out.I = -asI(S, X.Ty);
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
                           const std::vector<DevBuf> &Args) {
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
