//===- sim/Sim.cpp - Simulator implementation -------------------------------===//

#include "sim/Sim.h"

#include "obs/Trace.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#else
#define ASAN_POISON_MEMORY_REGION(Addr, Size) ((void)(Addr), (void)(Size))
#define ASAN_UNPOISON_MEMORY_REGION(Addr, Size) ((void)(Addr), (void)(Size))
#endif

using namespace descend::sim;

//===----------------------------------------------------------------------===//
// Worker pool
//===----------------------------------------------------------------------===//

std::byte *detail::threadArena(size_t Bytes) {
  thread_local std::vector<std::byte> Arena;
  if (Arena.size() < Bytes)
    Arena.resize(Bytes);
  return Arena.data();
}

/// One unit of pool work: the block-items of a parallelFor. Body is
/// borrowed from the caller's frame — the job completes before
/// parallelFor returns.
struct detail::WorkerPool::Job {
  const std::function<void(unsigned)> *Body = nullptr;
  unsigned NumItems = 0;
  unsigned Chunk = 1;
  std::atomic<unsigned> Next{0};      // next unclaimed item
  std::atomic<unsigned> Remaining{0}; // items not yet finished
  std::mutex DoneM;
  std::condition_variable DoneCV;
  bool Done = false;
};

detail::WorkerPool::WorkerPool(unsigned ThreadCount) {
  Workers.reserve(ThreadCount);
  for (unsigned I = 0; I != ThreadCount; ++I)
    Workers.emplace_back([this, I] { workerLoop(I + 1); });
}

detail::WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> G(M);
    Stopping = true;
  }
  WorkCV.notify_all();
  for (std::thread &T : Workers)
    T.join();
}

void detail::WorkerPool::removeFromQueue(const std::shared_ptr<Job> &J) {
  std::lock_guard<std::mutex> G(M);
  auto It = std::find(Queue.begin(), Queue.end(), J);
  if (It != Queue.end())
    Queue.erase(It);
  Queued.store(Queue.size(), std::memory_order_relaxed);
}

/// Claims one run of items from \p J and executes it. Returns false when
/// nothing was left to claim. The last finisher signals completion.
bool detail::WorkerPool::claimAndRun(Job &J) {
  const unsigned Begin = J.Next.fetch_add(J.Chunk, std::memory_order_relaxed);
  if (Begin >= J.NumItems)
    return false;
  const unsigned End = std::min(Begin + J.Chunk, J.NumItems);
  std::string SpanArgs;
  if (obs::TraceCollector::global().enabled()) [[unlikely]]
    SpanArgs = descend::strfmt("{\"items\":%u}", End - Begin);
  obs::Span PoolSpan("pool", "blocks", std::move(SpanArgs));
  for (unsigned I = Begin; I != End; ++I)
    (*J.Body)(I);
  const unsigned Ran = End - Begin;
  if (J.Remaining.fetch_sub(Ran, std::memory_order_acq_rel) == Ran) {
    std::lock_guard<std::mutex> G(J.DoneM);
    J.Done = true;
    J.DoneCV.notify_all();
  }
  return true;
}

void detail::WorkerPool::pollForWork() const {
  // Spin first: in a back-to-back loop the next launch usually comes
  // within microseconds, and the worker that just finished, whose caches
  // hold that loop's data, reacts first. Then yield the core between
  // checks — the pool has as many workers as cores, plus the submitting
  // thread.
  const auto Start = std::chrono::steady_clock::now();
  for (;;) {
    if (Queued.load(std::memory_order_relaxed) != 0)
      return;
    const auto Idle = std::chrono::steady_clock::now() - Start;
    if (Idle >= IdlePoll)
      return;
#if defined(__x86_64__) || defined(__i386__)
    if (Idle < IdleSpin) {
      __builtin_ia32_pause();
      continue;
    }
#endif
    std::this_thread::yield();
  }
}

void detail::WorkerPool::workerLoop(unsigned Ordinal) {
  std::unique_lock<std::mutex> L(M);
  while (true) {
    if (Queue.empty() && !Stopping) {
      L.unlock();
      pollForWork(); // the wait below then usually returns at once
      L.lock();
    }
    WorkCV.wait(L, [&] { return Stopping || !Queue.empty(); });
    if (Queue.empty()) {
      if (Stopping)
        return; // drained: queued work always finishes before teardown
      continue;
    }
    std::shared_ptr<Job> J = Queue.front();
    L.unlock();
    // Fault injection: `delay:worker=K:ms=M` stalls worker K before each
    // work batch — the deterministic stand-in for a descheduled or slow
    // worker that the TSan stress run leans on.
    uint64_t DelayMs = 0;
    if (FaultInjector::global().armed() &&
        FaultInjector::global().shouldDelayWorker(Ordinal, DelayMs))
      [[unlikely]]
      std::this_thread::sleep_for(std::chrono::milliseconds(DelayMs));
    if (!claimAndRun(*J))
      removeFromQueue(J); // exhausted; stop offering it to workers
    L.lock();
  }
}

void detail::WorkerPool::parallelFor(
    unsigned NumItems, unsigned Chunk,
    const std::function<void(unsigned)> &Body) {
  if (NumItems == 0)
    return;
  auto J = std::make_shared<Job>();
  J->Body = &Body;
  J->NumItems = NumItems;
  J->Chunk = std::max(1u, Chunk);
  J->Remaining.store(NumItems, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> G(M);
    Queue.push_back(J);
    Queued.store(Queue.size(), std::memory_order_relaxed);
  }
  // Wake at most one worker per claimable chunk beyond the caller's own.
  const unsigned Chunks = (NumItems + J->Chunk - 1) / J->Chunk;
  if (Chunks > 1 && threadCount() > 0) {
    const unsigned Wake = std::min(threadCount(), Chunks - 1);
    if (Wake >= threadCount())
      WorkCV.notify_all();
    else
      for (unsigned I = 0; I != Wake; ++I)
        WorkCV.notify_one();
  }
  // The caller participates: small launches usually finish right here,
  // without paying for a worker wake-up at all.
  while (claimAndRun(*J))
    ;
  removeFromQueue(J);
  std::unique_lock<std::mutex> L(J->DoneM);
  J->DoneCV.wait(L, [&] { return J->Done; });
}

std::string RaceReport::str() const {
  return descend::strfmt(
      "data race on buffer %u offset %zu: block %u thread %u (%s, phase %u) "
      "vs block %u thread %u (%s, phase %u)",
      BufferId, Offset, BlockA, ThreadA, WriteA ? "write" : "read", PhaseA,
      BlockB, ThreadB, WriteB ? "write" : "read", PhaseB);
}

std::string BoundsReport::str() const {
  return descend::strfmt(
      "out-of-bounds access on buffer %u: offset %zu, size %zu", BufferId,
      Offset, Size);
}

bool detail::parseWatchdogConfig(const char *Text,
                                 GpuDevice::WatchdogConfig &Out,
                                 std::string *Err) {
  auto Fail = [&](const std::string &Msg) {
    if (Err)
      *Err = Msg;
    return false;
  };
  if (!Text)
    return Fail("null watchdog config");
  GpuDevice::WatchdogConfig W;
  bool SawSteps = false, SawMs = false;
  const std::string S(Text);
  size_t Pos = 0;
  while (Pos <= S.size()) {
    size_t End = S.find(',', Pos);
    if (End == std::string::npos)
      End = S.size();
    const std::string Clause = S.substr(Pos, End - Pos);
    uint64_t *Target = nullptr;
    std::string Num;
    if (Clause.rfind("steps=", 0) == 0 && !SawSteps) {
      Target = &W.StepBudget;
      SawSteps = true;
      Num = Clause.substr(6);
    } else if (Clause.rfind("ms=", 0) == 0 && !SawMs) {
      Target = &W.LaunchTimeoutMs;
      SawMs = true;
      Num = Clause.substr(3);
    } else {
      return Fail("bad clause '" + Clause + "' (want steps=N and/or ms=M)");
    }
    // Same strictness as parseWorkerCount: digits only, nonzero, in
    // range — a typo disables nothing and enables nothing.
    if (Num.empty() || Num[0] < '0' || Num[0] > '9')
      return Fail("bad number in '" + Clause + "'");
    errno = 0;
    char *NumEnd = nullptr;
    unsigned long long V = std::strtoull(Num.c_str(), &NumEnd, 10);
    if (errno == ERANGE || NumEnd != Num.c_str() + Num.size() || V == 0)
      return Fail("bad number in '" + Clause + "'");
    *Target = V;
    Pos = End + 1;
  }
  Out = W;
  return true;
}

GpuDevice::GpuDevice() {
  // DESCEND_WATCHDOG seeds the default limits machine-wide (parsed once,
  // with a one-time warning on garbage — all-or-nothing, like
  // DESCEND_WORKERS); setWatchdog overrides per device.
  static const WatchdogConfig EnvWd = [] {
    WatchdogConfig W;
    const char *Text = std::getenv("DESCEND_WATCHDOG");
    if (!Text || !*Text)
      return W;
    std::string Err;
    if (!detail::parseWatchdogConfig(Text, W, &Err)) {
      std::fprintf(stderr,
                   "descend: warning: ignoring invalid DESCEND_WATCHDOG="
                   "\"%s\": %s\n",
                   Text, Err.c_str());
      W = WatchdogConfig();
    }
    return W;
  }();
  WdStepBudget.store(EnvWd.StepBudget, std::memory_order_relaxed);
  WdTimeoutMs.store(EnvWd.LaunchTimeoutMs, std::memory_order_relaxed);
}

void GpuDevice::setWatchdog(WatchdogConfig W) {
  WdStepBudget.store(W.StepBudget, std::memory_order_relaxed);
  WdTimeoutMs.store(W.LaunchTimeoutMs, std::memory_order_relaxed);
}

GpuDevice::WatchdogConfig GpuDevice::watchdog() const {
  WatchdogConfig W;
  W.StepBudget = WdStepBudget.load(std::memory_order_relaxed);
  W.LaunchTimeoutMs = WdTimeoutMs.load(std::memory_order_relaxed);
  return W;
}

ErrorCode GpuDevice::getLastError(std::string *MsgOut) const {
  std::lock_guard<std::mutex> G(ErrM);
  if (MsgOut)
    *MsgOut = ErrMsg;
  return Err;
}

ErrorCode GpuDevice::peekLastError(std::string *MsgOut) const {
  return getLastError(MsgOut);
}

void GpuDevice::setDeviceError(ErrorCode Code, const std::string &Msg) {
  {
    std::lock_guard<std::mutex> G(ErrM);
    if (Err == ErrorCode::Ok) { // first error wins; later ones only bump
      Err = Code;               // the sequence below
      ErrMsg = Msg;
      HasErr.store(true, std::memory_order_release);
    }
  }
  ErrSeq.fetch_add(1, std::memory_order_acq_rel);
  if (obs::TraceCollector::global().enabled()) [[unlikely]]
    obs::TraceCollector::global().addInstant("error", errorCodeName(Code));
}

void GpuDevice::reset() {
  {
    std::lock_guard<std::mutex> G(ErrM);
    Err = ErrorCode::Ok;
    ErrMsg.clear();
    HasErr.store(false, std::memory_order_release);
  }
  clearLogs();
  resetStats();
  std::lock_guard<std::mutex> G(PoolM);
  Pool.reset(); // recreated lazily at the next parallel launch
}

unsigned detail::parseWorkerCount(const char *Text, std::string *Warning) {
  if (!Text)
    return 0; // unset: no override, no warning
  errno = 0;
  char *End = nullptr;
  const long V = std::strtol(Text, &End, 10);
  // strtol silently skips leading whitespace; a worker count with stray
  // whitespace is treated as malformed, like any other garbage.
  if (std::isspace(static_cast<unsigned char>(Text[0])) || End == Text ||
      *End != '\0') {
    if (Warning)
      *Warning = descend::strfmt(
          "DESCEND_WORKERS=\"%s\" is not a number; using the default worker "
          "count",
          Text);
    return 0;
  }
  if (errno == ERANGE || V <= 0 || V > MaxWorkerOverride) {
    if (Warning)
      *Warning = descend::strfmt(
          "DESCEND_WORKERS=\"%s\" is out of range (want 1..%ld); using the "
          "default worker count",
          Text, MaxWorkerOverride);
    return 0;
  }
  return static_cast<unsigned>(V);
}

unsigned GpuDevice::effectiveWorkers() const {
  if (RaceDetection)
    return 1;
  if (Workers != 0)
    return Workers;
  // DESCEND_WORKERS pins the default machine-wide (each bench records
  // the resulting count in its BENCH_*.json provenance, so numbers
  // compare across machines); otherwise use the hardware concurrency.
  // Garbage, zero or out-of-range values fall back to the default with
  // a one-time stderr warning instead of being silently misparsed.
  static const unsigned EnvWorkers = [] {
    std::string Warning;
    unsigned N = detail::parseWorkerCount(std::getenv("DESCEND_WORKERS"),
                                          &Warning);
    if (!Warning.empty())
      std::fprintf(stderr, "descend: warning: %s\n", Warning.c_str());
    return N;
  }();
  if (EnvWorkers != 0)
    return EnvWorkers;
  unsigned HW = std::thread::hardware_concurrency();
  return HW ? HW : 1;
}

void GpuDevice::setWorkers(unsigned N) {
  if (Workers == N)
    return;
  Workers = N;
  Pool.reset(); // recreated lazily at the new size
}

detail::WorkerPool &GpuDevice::pool() {
  // Host threads sharing the device launch concurrently; the mutex makes
  // the lazy creation race-free. Resizing happens only in setWorkers
  // (host-side, quiescent) — never here.
  std::lock_guard<std::mutex> G(PoolM);
  if (!Pool)
    Pool = std::make_unique<detail::WorkerPool>(effectiveWorkers());
  return *Pool;
}

//===----------------------------------------------------------------------===//
// Global memory
//===----------------------------------------------------------------------===//

namespace {
constexpr unsigned MinBlockClass = 4; // 16-byte blocks
constexpr unsigned SlotMask = (1u << detail::BufferSlotBits) - 1;
constexpr unsigned GenMask =
    (detail::FirstSharedBufferId >> detail::BufferSlotBits) - 1;
} // namespace

detail::DeviceMemory::~DeviceMemory() {
  auto Release = [](std::byte *Block, unsigned Class) {
    ASAN_UNPOISON_MEMORY_REGION(Block, size_t{1} << Class);
    delete[] Block;
  };
  for (const Slot &S : Slots)
    if (S.Mem)
      Release(S.Mem, S.Class);
  for (unsigned Class = 0; Class != std::size(FreeBlocks); ++Class)
    for (std::byte *Block : FreeBlocks[Class])
      Release(Block, Class);
}

std::byte *detail::DeviceMemory::alloc(size_t Bytes, unsigned &IdOut) {
  if (Bytes > size_t{1} << (std::size(FreeBlocks) - 2))
    throw std::bad_alloc(); // beyond the largest class, as new[] would
  const unsigned Class =
      Bytes <= (size_t{1} << MinBlockClass)
          ? MinBlockClass
          : static_cast<unsigned>(std::bit_width(Bytes - 1));
  const size_t BlockBytes = size_t{1} << Class;
  std::byte *Block = nullptr;
  {
    std::lock_guard<std::mutex> G(M);
    if (!FreeBlocks[Class].empty()) {
      Block = FreeBlocks[Class].back();
      FreeBlocks[Class].pop_back();
    }
  }
  const bool Reused = Block != nullptr;
  // Zeroing runs outside the lock; the block is ours alone by now. The
  // class slack past the requested bytes stays poisoned under ASan.
  if (Reused) {
    ASAN_UNPOISON_MEMORY_REGION(Block, Bytes);
  } else {
    Block = new std::byte[BlockBytes];
    ASAN_POISON_MEMORY_REGION(Block + Bytes, BlockBytes - Bytes);
  }
  std::memset(Block, 0, Bytes);

  std::lock_guard<std::mutex> G(M);
  if (!Reused)
    Stats.ReservedBytes += BlockBytes;
  unsigned Index;
  if (!FreeSlots.empty()) {
    Index = FreeSlots.back();
    FreeSlots.pop_back();
    Slots[Index - 1].Gen = (Slots[Index - 1].Gen + 1) & GenMask;
  } else if (Slots.size() < SlotMask) {
    Slots.emplace_back();
    Index = static_cast<unsigned>(Slots.size());
  } else {
    // More live buffers than ids: out of memory, as far as ids go.
    ASAN_POISON_MEMORY_REGION(Block, BlockBytes);
    FreeBlocks[Class].push_back(Block);
    throw std::bad_alloc();
  }
  ++(Reused ? Stats.ReusedAllocs : Stats.FreshAllocs);
  ++Stats.LiveBuffers;
  Stats.LiveBytes += Bytes;
  Slot &S = Slots[Index - 1];
  S.Mem = Block;
  S.Bytes = Bytes;
  S.Class = Class;
  IdOut = Index | S.Gen << BufferSlotBits;
  return Block;
}

void detail::DeviceMemory::free(unsigned Id) {
  const unsigned Index = Id & SlotMask;
  std::lock_guard<std::mutex> G(M);
  if (Index == 0 || Index > Slots.size())
    throw DeviceError(ErrorCode::InvalidValue,
                      descend::strfmt("GpuDevice::free: buffer id %u was "
                                      "never allocated on this device", Id));
  Slot &S = Slots[Index - 1];
  if (Id >> BufferSlotBits != S.Gen || !S.Mem)
    throw DeviceError(ErrorCode::InvalidValue,
                      descend::strfmt("GpuDevice::free: buffer id %u was "
                                      "already freed", Id));
  // Poisoned before it is visible to another allocation.
  ASAN_POISON_MEMORY_REGION(S.Mem, size_t{1} << S.Class);
  FreeBlocks[S.Class].push_back(S.Mem);
  --Stats.LiveBuffers;
  Stats.LiveBytes -= S.Bytes;
  S.Mem = nullptr;
  FreeSlots.push_back(Index);
}

bool detail::DeviceMemory::live(unsigned Id) const {
  const unsigned Index = Id & SlotMask;
  std::lock_guard<std::mutex> G(M);
  return Index != 0 && Index <= Slots.size() &&
         Slots[Index - 1].Gen == Id >> BufferSlotBits &&
         Slots[Index - 1].Mem != nullptr;
}

MemoryStats detail::DeviceMemory::stats() const {
  std::lock_guard<std::mutex> G(M);
  return Stats;
}

std::byte *GpuDevice::allocRaw(size_t Bytes, unsigned &IdOut) {
  // Fault injection: `alloc:N` fails the N-th device allocation — the
  // deterministic stand-in for device-memory exhaustion — whether or not
  // a free block would have served it. The failure is sticky (CUDA: an
  // allocation failure poisons the context) and surfaces as a structured
  // DeviceError.
  FaultInjector &FI = FaultInjector::global();
  if (FI.armed() && FI.shouldFailAlloc()) [[unlikely]] {
    const std::string Msg = descend::strfmt(
        "device allocation of %zu bytes failed (fault injection, alloc:%llu)",
        Bytes, static_cast<unsigned long long>(FI.plan().AllocFailAt));
    setDeviceError(ErrorCode::AllocFailed, Msg);
    throw DeviceError(ErrorCode::AllocFailed, Msg);
  }
  return Mem.alloc(Bytes, IdOut);
}

void GpuDevice::free(unsigned Id) { Mem.free(Id); }

bool GpuDevice::isLive(unsigned Id) const { return Mem.live(Id); }

MemoryStats GpuDevice::memoryStats() const { return Mem.stats(); }

void GpuDevice::logAccess(const BlockCtx &B, unsigned BufferId, size_t Offset,
                          bool Write) {
  detail::Access A;
  A.BufferId = BufferId;
  A.Offset = Offset;
  A.Block = B.linear();
  A.Thread = B.CurThread;
  A.Phase = static_cast<uint16_t>(B.CurPhase);
  A.Write = Write;
  AccessLog.push_back(A);
}

void GpuDevice::logBounds(unsigned BufferId, size_t Offset, size_t Size) {
  BoundsReport R;
  R.BufferId = BufferId;
  R.Offset = Offset;
  R.Size = Size;
  // Unlike race logging, bounds checking does not force sequential
  // execution, so violating blocks may report from pool workers.
  std::lock_guard<std::mutex> G(BoundsM);
  BoundsViolations.push_back(R);
}

void GpuDevice::clearLogs() {
  AccessLog.clear();
  BoundsViolations.clear();
}

void GpuDevice::setCounters(bool On) {
  // Read once per launch in detail::runBlocks, so no launch straddles
  // the transition.
  CountersOn.store(On, std::memory_order_relaxed);
}

LaunchStats GpuDevice::lastLaunchStats() const {
  std::lock_guard<std::mutex> G(StatsM);
  return LastLaunch;
}

LaunchStats GpuDevice::totalStats() const {
  std::lock_guard<std::mutex> G(StatsM);
  return Total;
}

std::vector<LaunchStats> GpuDevice::launchLog() const {
  std::lock_guard<std::mutex> G(StatsM);
  return LaunchLog;
}

uint64_t GpuDevice::droppedLaunchStats() const {
  std::lock_guard<std::mutex> G(StatsM);
  return DroppedLaunches;
}

void GpuDevice::resetStats() {
  std::lock_guard<std::mutex> G(StatsM);
  LastLaunch = LaunchStats();
  Total = LaunchStats();
  LaunchLog.clear();
  DroppedLaunches = 0;
}

void GpuDevice::recordLaunchStats(LaunchStats LS) {
  std::lock_guard<std::mutex> G(StatsM);
  Total.merge(LS);
  if (LaunchLog.size() < MaxLaunchLog)
    LaunchLog.push_back(LS);
  else
    ++DroppedLaunches; // counts still land in Total above
  LastLaunch = std::move(LS);
}

void GpuDevice::labelLastLaunch(const std::string &Name) {
  std::lock_guard<std::mutex> G(StatsM);
  LastLaunch.Label = Name;
  if (!LaunchLog.empty())
    LaunchLog.back().Label = Name;
}

void GpuDevice::noteLaunchTraps(uint64_t N) {
  if (N == 0)
    return;
  std::lock_guard<std::mutex> G(StatsM);
  LastLaunch.Traps += N;
  Total.Traps += N;
  if (!LaunchLog.empty())
    LaunchLog.back().Traps += N;
}

std::vector<RaceReport> GpuDevice::findRaces() const {
  std::vector<detail::Access> Log = AccessLog;
  std::sort(Log.begin(), Log.end(),
            [](const detail::Access &A, const detail::Access &B) {
              if (A.BufferId != B.BufferId)
                return A.BufferId < B.BufferId;
              return A.Offset < B.Offset;
            });

  std::vector<RaceReport> Reports;
  size_t I = 0;
  while (I < Log.size()) {
    size_t J = I;
    while (J < Log.size() && Log[J].BufferId == Log[I].BufferId &&
           Log[J].Offset == Log[I].Offset)
      ++J;
    // Scan the group [I, J) for one representative conflict.
    bool Found = false;
    for (size_t A = I; A != J && !Found; ++A) {
      if (!Log[A].Write)
        continue; // at least one access must be a write
      for (size_t B = I; B != J && !Found; ++B) {
        if (A == B)
          continue;
        bool SameThread =
            Log[A].Block == Log[B].Block && Log[A].Thread == Log[B].Thread;
        if (SameThread)
          continue;
        bool Conflict;
        if (Log[A].Block != Log[B].Block) {
          // No ordering between blocks within one kernel.
          Conflict = true;
        } else {
          // Same block: phases are ordered by the barrier.
          Conflict = Log[A].Phase == Log[B].Phase;
        }
        if (!Conflict)
          continue;
        RaceReport R;
        R.BufferId = Log[A].BufferId;
        R.Offset = Log[A].Offset;
        R.BlockA = Log[A].Block;
        R.ThreadA = Log[A].Thread;
        R.PhaseA = Log[A].Phase;
        R.WriteA = Log[A].Write;
        R.BlockB = Log[B].Block;
        R.ThreadB = Log[B].Thread;
        R.PhaseB = Log[B].Phase;
        R.WriteB = Log[B].Write;
        Reports.push_back(R);
        Found = true;
      }
    }
    I = J;
  }
  return Reports;
}

//===----------------------------------------------------------------------===//
// Phase programs
//===----------------------------------------------------------------------===//

PhaseProgram &PhaseProgram::straightBlock(BlockPhase Fn) {
  Node N;
  N.Fn = std::move(Fn);
  (OpenBodies.empty() ? Nodes : OpenBodies.back()).push_back(std::move(N));
  return *this;
}

PhaseProgram &PhaseProgram::loopBegin(unsigned Slot, Bound Lo, Bound Hi) {
  assert(Slot < BlockCtx::MaxLoopSlots && "loop slot out of range");
  Node N;
  N.Slot = Slot;
  N.Lo = std::move(Lo);
  N.Hi = std::move(Hi);
  OpenHeaders.push_back(std::move(N));
  OpenBodies.emplace_back();
  return *this;
}

PhaseProgram &PhaseProgram::loopBegin(unsigned Slot, long long Lo,
                                      long long Hi) {
  return loopBegin(
      Slot, [Lo](const BlockCtx &) { return Lo; },
      [Hi](const BlockCtx &) { return Hi; });
}

PhaseProgram &PhaseProgram::loopEnd() {
  assert(!OpenHeaders.empty() && "loopEnd() without matching loopBegin()");
  Node N = std::move(OpenHeaders.back());
  OpenHeaders.pop_back();
  N.Body = std::move(OpenBodies.back());
  OpenBodies.pop_back();
  (OpenBodies.empty() ? Nodes : OpenBodies.back()).push_back(std::move(N));
  return *this;
}

const std::vector<PhaseProgram::Node> &PhaseProgram::nodes() const {
  assert(OpenHeaders.empty() && "program has an unclosed loopBegin()");
  return Nodes;
}

namespace {

/// Static phases in a node list: the counter slot count (loop bodies
/// count once, not once per iteration).
unsigned staticPhaseCount(const std::vector<PhaseProgram::Node> &Nodes) {
  unsigned N = 0;
  for (const PhaseProgram::Node &Node : Nodes)
    N += Node.Fn ? 1 : staticPhaseCount(Node.Body);
  return N;
}

/// \p PhaseIdx is the *dynamic* phase counter (increments across loop
/// iterations — the ordering the race detector keys on); \p StaticBase is
/// the pre-order tree position perf counters key on, so a loop's phases
/// accumulate into stable slots across iterations. Static ids are only
/// maintained when counters are on.
void runProgramNodes(const std::vector<PhaseProgram::Node> &Nodes,
                     BlockCtx &B, unsigned &PhaseIdx, unsigned StaticBase) {
  const bool Count = B.Counters != nullptr;
  unsigned StaticId = StaticBase;
  for (const PhaseProgram::Node &N : Nodes) {
    // Watchdog cancellation points: before each phase and each loop
    // iteration — the phase boundaries, where no barrier is mid-flight.
    // Counter bookkeeping of a cancelled launch is abandoned with it.
    if (B.cancelled()) [[unlikely]]
      return;
    if (N.Fn) {
      B.CurPhase = PhaseIdx++;
      if (Count) [[unlikely]]
        B.Counters->beginPhase(StaticId++);
      N.Fn(B);
      continue;
    }
    const long long Lo = N.Lo(B), Hi = N.Hi(B);
    for (long long V = Lo; V < Hi; ++V) {
      if (B.cancelled()) [[unlikely]]
        return;
      B.LoopVars[N.Slot] = V;
      runProgramNodes(N.Body, B, PhaseIdx, StaticId);
    }
    if (Count) [[unlikely]]
      StaticId += staticPhaseCount(N.Body);
  }
}

} // namespace

void descend::sim::launchProgram(GpuDevice &Dev, Dim3 Grid, Dim3 Block,
                                 size_t SharedBytes,
                                 const PhaseProgram &Prog) {
  detail::runBlocks(Dev, Grid, Block, SharedBytes, [&](BlockCtx &B) {
    unsigned PhaseIdx = 0;
    runProgramNodes(Prog.nodes(), B, PhaseIdx, 0);
  });
}

void detail::runBlocks(GpuDevice &Dev, Dim3 Grid, Dim3 Block,
                       size_t SharedBytes,
                       const std::function<void(BlockCtx &)> &RunBlock) {
  const unsigned NumBlocks = Grid.total();
  if (NumBlocks == 0)
    return;
  // Fault injection: `trap:launch=N` traps the N-th launch whole — no
  // block runs, no buffer is touched, the device records a sticky
  // KernelTrap. Every launch path (generated C++, vm, handwritten)
  // funnels through here, so the ordinal is backend-independent.
  {
    FaultInjector &FI = FaultInjector::global();
    if (FI.armed() && FI.shouldTrapLaunch()) [[unlikely]] {
      Dev.setDeviceError(
          ErrorCode::KernelTrap,
          descend::strfmt("kernel trap: forced at launch %llu "
                          "(fault injection, trap:launch=%llu)",
                          static_cast<unsigned long long>(
                              FI.plan().TrapAtLaunch),
                          static_cast<unsigned long long>(
                              FI.plan().TrapAtLaunch)));
      return;
    }
  }
  const unsigned NumWorkers = std::min(Dev.effectiveWorkers(), NumBlocks);
  const size_t ArenaBytes = SharedBytes ? SharedBytes : 1;

  // Wall-clock watchdog: arm a per-launch deadline every block polls at
  // phase boundaries. Off (and free) unless a timeout is configured.
  const GpuDevice::WatchdogConfig Wd = Dev.watchdog();
  LaunchControl Ctl;
  if (Wd.LaunchTimeoutMs) {
    Ctl.HasDeadline = true;
    Ctl.Deadline = std::chrono::steady_clock::now() +
                   std::chrono::milliseconds(Wd.LaunchTimeoutMs);
  }

  // Per-launch counters: blocks count into private BlockCounters and
  // merge here under MergeM. Every merge is a commutative sum, so totals
  // are bit-equal no matter how the pool distributed the blocks.
  const bool Count = Dev.countersEnabled();
  LaunchStats LS;
  std::mutex MergeM;
  size_t RaceLogBefore = 0;
  if (Count) [[unlikely]] {
    LS.Launches = 1;
    LS.Blocks = NumBlocks;
    LS.ThreadsPerBlock = Block.total();
    LS.ArenaBytesPerBlock = SharedBytes;
    LS.ArenaBytesTotal = static_cast<uint64_t>(SharedBytes) * NumBlocks;
    LS.Workers = NumWorkers;
    RaceLogBefore = Dev.accessLogSize();
  }

  auto RunOne = [&](unsigned Linear, std::byte *Arena) {
    BlockCtx B;
    B.X = Linear % Grid.X;
    B.Y = (Linear / Grid.X) % Grid.Y;
    B.Z = Linear / (Grid.X * Grid.Y);
    B.GridDim = Grid;
    B.BlockDim = Block;
    B.SharedArena = Arena;
    B.SharedBytes = SharedBytes;
    B.Dev = &Dev;
    // Shared arenas are per block instance: give each block its own
    // logical buffer id so the detector separates them.
    B.SharedBufferId = FirstSharedBufferId + Linear;
    if (Wd.LaunchTimeoutMs) {
      B.Ctl = &Ctl;
      if (Ctl.cancelled()) [[unlikely]]
        return; // watchdog fired: remaining blocks are dropped whole
    }
    if (SharedBytes)
      std::memset(Arena, 0, SharedBytes);
    if (!Count) {
      RunBlock(B);
      return;
    }
    obs::BlockCounters BC;
    B.Counters = &BC;
    RunBlock(B);
    BC.finish();
    std::lock_guard<std::mutex> G(MergeM);
    if (LS.Phases.size() < BC.phases().size())
      LS.Phases.resize(BC.phases().size());
    for (size_t I = 0; I < BC.phases().size(); ++I)
      LS.Phases[I] += BC.phases()[I];
  };

  {
    std::string SpanArgs;
    if (obs::TraceCollector::global().enabled()) [[unlikely]]
      SpanArgs = descend::strfmt(
          "{\"blocks\":%u,\"threads_per_block\":%u,\"workers\":%u}", NumBlocks,
          Block.total(), NumWorkers);
    obs::Span LaunchSpan("sim", "launch", std::move(SpanArgs));

    if (NumWorkers <= 1) {
      std::byte *Arena = threadArena(ArenaBytes);
      for (unsigned L = 0; L != NumBlocks; ++L)
        RunOne(L, Arena);
      if (Count) [[unlikely]]
        LS.ChunkClaims = 1; // the caller ran everything in one run
    } else {
      // Chunked claiming: around eight claims per worker amortizes the
      // atomic on large grids while keeping the tail balanced; small
      // grids fall back to one block per claim.
      const unsigned Chunk = std::max(1u, NumBlocks / (NumWorkers * 8));
      if (Count) [[unlikely]]
        LS.ChunkClaims = (NumBlocks + Chunk - 1) / Chunk;
      Dev.pool().parallelFor(NumBlocks, Chunk, [&](unsigned L) {
        RunOne(L, threadArena(ArenaBytes));
      });
    }
  }

  if (Wd.LaunchTimeoutMs && Ctl.Cancel.load(std::memory_order_relaxed))
    Dev.setDeviceError(
        ErrorCode::KernelTimeout,
        descend::strfmt("kernel timeout: launch exceeded the %llu ms "
                        "watchdog budget and was cancelled at a phase "
                        "boundary",
                        static_cast<unsigned long long>(Wd.LaunchTimeoutMs)));

  if (Count) [[unlikely]] {
    // Only race detection grows the access log, and it forces sequential
    // execution, so this delta is deterministic (and 0 when detection is
    // off).
    LS.RaceLogEntries = Dev.accessLogSize() - RaceLogBefore;
    Dev.recordLaunchStats(std::move(LS));
  }
}
