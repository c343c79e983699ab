//===- sim/Sim.h - Phase-structured GPU execution simulator -----*- C++ -*-===//
//
// Part of the Descend reproduction. This is the substrate substituting for
// the paper's CUDA/Tesla-P100 testbed (see docs/architecture.md § "The
// simulator runtime"): a CUDA-like execution model on the host CPU.
//
// Execution model:
//  * A launch runs a grid of independent blocks; blocks are distributed
//    over a persistent worker pool owned by the device (they may not
//    synchronize with each other, exactly as in CUDA). Workers park on a
//    condition variable between launches and claim *runs* of blocks per
//    atomic claim, so a launch costs a wake-up, not a thread spawn, and
//    large grids do not serialize on one counter.
//  * A kernel is a *phase program*: a sequence of phases and host-side
//    loops over phases (PhaseProgram, the runtime mirror of the
//    compiler's phase-program IR). A phase runs for every thread of a
//    block before the next phase starts, so a phase boundary is a
//    __syncthreads() barrier; a loop node binds a per-block loop
//    variable (BlockCtx::loopVar) and runs its children once per
//    iteration. Descend only admits structured barriers (sync at block
//    scope), so every well-typed Descend program maps onto this
//    representation; handwritten kernels are written in the same style
//    through the variadic launchPhases, mirroring how __syncthreads()
//    partitions a CUDA kernel.
//  * Shared memory is a per-block arena living across the block's phases;
//    each executing thread caches one arena across launches.
//  * Every host operation is a synchronous call on the GpuDevice, as in
//    Descend's host programs (paper §3.4-3.5): an allocation, a copy, a
//    launch or a free has finished when it returns. The worker pool's
//    only job is to run the blocks of one launch; host threads sharing a
//    device overlap their launches on it.
//  * Global memory (detail::DeviceMemory) is reused: GpuDevice::free
//    (cudaFree) returns a buffer to a free list per power-of-two size
//    class that the next allocation of that class takes first. A buffer
//    id carries its slot's generation, so a freed id is an InvalidValue
//    error rather than a use-after-free (best effort: generations wrap,
//    see BufferSlotBits).
//
// Observability (both off by default; the hot path pays one predicted
// branch):
//  * Race detection logs (buffer, offset, mode, thread, phase) accesses and
//    reports CUDA-model races: same offset, >=1 write, different threads,
//    and either different blocks (no ordering at all) or the same block in
//    the same phase (no barrier in between).
//  * Bounds checking records out-of-range accesses instead of corrupting
//    memory (used to demonstrate the Section 2.3 launch-size bug).
//
// Failure semantics (sim/Fault.h): a kernel trap, failed allocation or
// watchdog timeout records a sticky device-level ErrorCode (first error
// wins) — the generated drivers turn it into an rt::Error after the
// failing step, and GpuDevice::reset() is the only way back to a healthy
// device. DESCEND_FAULTS injects exactly these failures deterministically;
// DESCEND_WATCHDOG (or setWatchdog) arms a per-launch wall-clock timeout
// whose cancel flag every block observes at phase boundaries, plus a vm
// instruction budget.
//
//===----------------------------------------------------------------------===//

#ifndef DESCEND_SIM_SIM_H
#define DESCEND_SIM_SIM_H

#include "obs/Counters.h"
#include "sim/Fault.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace descend::sim {

/// Per-launch perf counters (defined in obs/Counters.h; the simulator
/// fills them, GpuDevice::lastLaunchStats() and friends expose them).
using LaunchStats = obs::LaunchStats;

struct Dim3 {
  unsigned X = 1, Y = 1, Z = 1;
  unsigned total() const { return X * Y * Z; }
};

/// One recorded data race.
struct RaceReport {
  unsigned BufferId = 0;
  size_t Offset = 0;
  unsigned BlockA = 0, ThreadA = 0, PhaseA = 0;
  unsigned BlockB = 0, ThreadB = 0, PhaseB = 0;
  bool WriteA = false, WriteB = false;
  std::string str() const;
};

struct BoundsReport {
  unsigned BufferId = 0;
  size_t Offset = 0;
  size_t Size = 0;
  std::string str() const;
};

/// Global-memory counters (GpuDevice::memoryStats). A buffer is live from
/// its allocation until it is freed.
struct MemoryStats {
  uint64_t LiveBuffers = 0;
  uint64_t LiveBytes = 0;     ///< requested bytes of the live buffers
  uint64_t ReservedBytes = 0; ///< size-class bytes held, live or free
  uint64_t FreshAllocs = 0;   ///< allocations served by new memory
  uint64_t ReusedAllocs = 0;  ///< allocations served from a free list
};

namespace detail {
struct Access {
  unsigned BufferId;
  uint64_t Offset;
  unsigned Block;
  unsigned Thread;
  uint16_t Phase;
  bool Write;
};

/// First logical buffer id of the per-block shared-memory range. Global
/// buffer ids stay below it (slot and generation bits, see
/// DeviceMemory), so shared and global accesses can never alias in the
/// race detector's log, no matter how long the device lives.
constexpr unsigned FirstSharedBufferId = 0x80000000u;

/// A global buffer id is `slot | generation << BufferSlotBits`, below
/// FirstSharedBufferId. Slots count from 1 and a slot's first generation
/// is 0, so while nothing is freed the ids are 1, 2, 3, ...; reusing a
/// freed slot bumps its generation, which makes every id of the earlier
/// incarnation stale. Generations wrap (11 bits), so stale-id detection
/// is best effort: an id 2048 incarnations old names its slot's buffer
/// again. (CUDA detects no stale pointer at all.)
constexpr unsigned BufferSlotBits = 20;

/// The global memory of one device: buffer slots with generations, and
/// one free list of blocks per power-of-two size class. A buffer's
/// memory is a whole class block; allocation takes a block of its class
/// from the free list first and re-zeroes only the requested bytes.
/// Thread-safe.
class DeviceMemory {
public:
  DeviceMemory() = default;
  ~DeviceMemory();
  DeviceMemory(const DeviceMemory &) = delete;
  DeviceMemory &operator=(const DeviceMemory &) = delete;

  /// A zeroed buffer of \p Bytes. Throws std::bad_alloc beyond the
  /// largest class or when every slot holds a live buffer.
  std::byte *alloc(size_t Bytes, unsigned &IdOut);
  /// Ends live buffer \p Id and returns its block to its class free
  /// list. Throws DeviceError(InvalidValue) when \p Id is unknown or no
  /// longer live.
  void free(unsigned Id);
  bool live(unsigned Id) const;
  MemoryStats stats() const;

private:
  struct Slot {
    std::byte *Mem = nullptr; ///< null unless the slot's buffer is live
    size_t Bytes = 0;         ///< requested size
    unsigned Class = 0;       ///< log2 of the block size
    unsigned Gen = 0;
  };

  mutable std::mutex M;
  std::vector<Slot> Slots;          // slot N at index N - 1
  std::vector<unsigned> FreeSlots;  // unused slots
  std::vector<std::byte *> FreeBlocks[64]; // by class
  MemoryStats Stats;
};

/// The calling thread's cached scratch arena, grown to at least \p Bytes.
/// One arena per OS thread, reused across launches: block execution pays
/// no allocator traffic after warm-up.
std::byte *threadArena(size_t Bytes);

/// Strictly parses a DESCEND_WORKERS-style worker-count override.
/// Returns the count for a well-formed positive integer within
/// [1, MaxWorkerOverride]; returns 0 (meaning "use the default") for
/// null, empty, non-numeric, trailing-garbage, zero, negative or
/// out-of-range text, filling \p Warning (when non-null and the text was
/// present but unusable) with a one-line explanation for stderr.
constexpr long MaxWorkerOverride = 4096;
unsigned parseWorkerCount(const char *Text, std::string *Warning = nullptr);

/// Per-launch cancellation state for the wall-clock watchdog. Blocks
/// poll cancelled() at phase boundaries — the only points where stopping
/// is well-defined (no thread is mid-phase, so no barrier is torn). The
/// first poller past the deadline trips the flag for every block;
/// runBlocks converts the trip into a KernelTimeout sticky device error
/// once the launch drains. One steady_clock read per phase boundary,
/// paid only when a timeout is armed.
struct LaunchControl {
  std::atomic<bool> Cancel{false};
  std::chrono::steady_clock::time_point Deadline{};
  bool HasDeadline = false;

  bool cancelled() {
    if (Cancel.load(std::memory_order_relaxed))
      return true;
    if (HasDeadline && std::chrono::steady_clock::now() >= Deadline) {
      Cancel.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  }
};

/// A persistent pool of worker threads parked on a condition variable.
/// Owned by a GpuDevice, created lazily at the first parallel launch and
/// torn down with the device (or when setWorkers resizes it). A worker
/// that runs out of work polls the queue for IdlePoll — spinning for the
/// first IdleSpin, then yielding between checks — before it parks, so
/// back-to-back synchronous launches (a serving loop's small kernels)
/// start without a condition-variable wake-up, which can cost more than
/// the launch itself.
///
/// The pool's one kind of work is parallelFor, which distributes the
/// blocks of one launch (the calling thread participates, so small grids
/// finish without waiting for a wake-up). Items are claimed in runs of
/// Chunk per atomic fetch_add; callers scale Chunk to the grid so a
/// launch costs a handful of claims per worker instead of one per block.
class WorkerPool {
public:
  static constexpr std::chrono::microseconds IdlePoll{50};
  static constexpr std::chrono::microseconds IdleSpin{4};

  explicit WorkerPool(unsigned ThreadCount);
  ~WorkerPool();
  WorkerPool(const WorkerPool &) = delete;
  WorkerPool &operator=(const WorkerPool &) = delete;

  unsigned threadCount() const {
    return static_cast<unsigned>(Workers.size());
  }

  /// Runs Body(I) for every I in [0, NumItems), distributing runs of
  /// Chunk items over the pool. The calling thread claims chunks too;
  /// returns once every item has finished.
  void parallelFor(unsigned NumItems, unsigned Chunk,
                   const std::function<void(unsigned)> &Body);

private:
  struct Job;
  /// \p Ordinal is the worker's 1-based index — the `delay:worker=K`
  /// fault-injection clause keys on it.
  void workerLoop(unsigned Ordinal);
  /// Returns once a job is queued or IdlePoll has passed.
  void pollForWork() const;
  bool claimAndRun(Job &J);
  void removeFromQueue(const std::shared_ptr<Job> &J);

  std::mutex M;
  std::condition_variable WorkCV;
  std::deque<std::shared_ptr<Job>> Queue; // jobs with unclaimed items
  std::atomic<size_t> Queued{0}; // Queue.size(), written under M
  bool Stopping = false;
  std::vector<std::thread> Workers;
};
} // namespace detail

class GpuDevice;

/// Per-block execution context: block coordinates, dims, the shared-memory
/// arena and the logging position (updated per thread/phase; block-local,
/// so parallel block execution stays race-free).
struct BlockCtx {
  unsigned X = 0, Y = 0, Z = 0; // blockIdx
  Dim3 GridDim, BlockDim;
  std::byte *SharedArena = nullptr;
  size_t SharedBytes = 0;
  GpuDevice *Dev = nullptr;
  unsigned SharedBufferId = 0; // logical id for race logging
  unsigned CurThread = 0;      // linear id of the executing thread
  unsigned CurPhase = 0;

  /// Per-block perf counters; null (and free apart from the predicted
  /// branch per access) unless GpuDevice::setCounters(true). Block-local
  /// like everything else here, so counting needs no synchronization.
  obs::BlockCounters *Counters = nullptr;

  /// Wall-clock watchdog control of the enclosing launch; null unless a
  /// launch timeout is armed. Kernels poll cancelled() at phase
  /// boundaries (launchPhases and runProgramNodes do it for them).
  detail::LaunchControl *Ctl = nullptr;
  bool cancelled() const { return Ctl && Ctl->cancelled(); }

  /// Host-side phase-loop variables (PhaseProgram loop nodes), one slot
  /// per nesting level. Block-local, so parallel block execution may sit
  /// at different iterations.
  static constexpr unsigned MaxLoopSlots = 16;
  long long LoopVars[MaxLoopSlots] = {};
  long long loopVar(unsigned Slot) const { return LoopVars[Slot]; }

  unsigned linear() const { return (Z * GridDim.Y + Y) * GridDim.X + X; }

  /// Raw typed view into the shared arena at byte offset \p Offset.
  template <typename T> T *shared(size_t Offset) const {
    return reinterpret_cast<T *>(SharedArena + Offset);
  }

  // Logged shared-memory access; see class GpuDevice for the global side.
  template <typename T> T sharedLoad(size_t Base, size_t I) const;
  template <typename T> void sharedStore(size_t Base, size_t I, T V) const;

  // Wide (two-element) access at elements I and I+1, fused by the
  // vectorize schedule pass into ONE issued transaction: a single counter
  // tick at the first element's byte offset, both elements race-logged.
  template <typename T>
  void sharedLoad2(size_t Base, size_t I, T &V0, T &V1) const;
  template <typename T>
  void sharedStore2(size_t Base, size_t I, T V0, T V1) const;
};

/// Thread coordinates within a block.
struct ThreadCtx {
  unsigned X = 0, Y = 0, Z = 0; // threadIdx
};

/// Simulated device: owns global-memory buffers, the persistent worker
/// pool block execution runs on, and the observability state. Every host
/// operation on it is synchronous.
class GpuDevice {
public:
  GpuDevice();

  template <typename T> class Buffer;

  /// Allocates a zero-initialized global buffer of \p Count elements.
  template <typename T> Buffer<T> alloc(size_t Count);

  /// Enables the dynamic race detector. Forces sequential block execution
  /// so the log is deterministic.
  void setRaceDetection(bool On) { RaceDetection = On; }
  bool raceDetection() const { return RaceDetection; }

  void setBoundsChecking(bool On) { BoundsChecking = On; }
  bool boundsChecking() const { return BoundsChecking; }

  /// Enables per-launch perf counters (obs::LaunchStats). Orthogonal to
  /// race detection and composable with it: under race detection the
  /// sequential schedule makes even the execution-shape fields
  /// deterministic. Each launch reads the flag once; a launch that
  /// another host thread runs meanwhile keeps the setting it began with.
  void setCounters(bool On);
  bool countersEnabled() const {
    return CountersOn.load(std::memory_order_relaxed);
  }

  /// Stats of the most recent counted launch (value-copied under the
  /// stats lock; empty before the first counted launch).
  LaunchStats lastLaunchStats() const;
  /// Accumulated stats over every counted launch since resetStats().
  LaunchStats totalStats() const;
  /// Every counted launch in completion order (capped; see
  /// droppedLaunchStats), labels included once labelLastLaunch ran.
  std::vector<LaunchStats> launchLog() const;
  /// Launches not logged because the log hit its cap (their counts are
  /// still in totalStats()).
  uint64_t droppedLaunchStats() const;
  void resetStats();

  // Internal: launcher/interpreter hooks on the stats log.
  void recordLaunchStats(LaunchStats LS);
  /// Tags the most recent counted launch with a kernel name (the vm
  /// interpreter knows it; generated C++ code does not).
  void labelLastLaunch(const std::string &Name);
  /// Adds vm-kernel trap counts to the most recent counted launch.
  void noteLaunchTraps(uint64_t N);
  size_t accessLogSize() const { return AccessLog.size(); }

  /// Worker threads for block execution; 0 = the DESCEND_WORKERS
  /// environment variable if set, else hardware concurrency.
  /// Tears down the current pool; the next parallel launch recreates it
  /// at the new size. Host-side API: it does not wait for a launch that
  /// another host thread runs on this device, so call it while none
  /// does.
  void setWorkers(unsigned N);
  unsigned effectiveWorkers() const;

  /// The device's persistent worker pool, created lazily at the
  /// effective worker count. Internal: launches reach it through
  /// detail::runBlocks.
  detail::WorkerPool &pool();

  // Sticky errors (see sim/Fault.h) ----------------------------------

  /// The first device-level error since construction (or the last
  /// reset()); Ok while healthy, with \p MsgOut (when non-null) set to
  /// the original diagnostic. Sticky: unlike cudaGetLastError this does
  /// NOT clear — reset() is the only way back to Ok.
  ErrorCode getLastError(std::string *MsgOut = nullptr) const;
  /// Alias of getLastError (CUDA exposes both; ours are equally sticky).
  ErrorCode peekLastError(std::string *MsgOut = nullptr) const;
  /// True once any device error was recorded. One relaxed load.
  bool poisoned() const { return HasErr.load(std::memory_order_acquire); }

  /// Internal: records \p Code / \p Msg. The first error wins (later
  /// calls keep the original text but still bump errorSeq) and emits an
  /// "error" trace instant.
  void setDeviceError(ErrorCode Code, const std::string &Msg);
  /// Internal: monotone error-observation counter. A caller snapshots it
  /// around an operation to attribute a device error to that operation
  /// (vm::launchKernel does so per launch).
  uint64_t errorSeq() const { return ErrSeq.load(std::memory_order_acquire); }

  /// The cudaDeviceReset analogue and the only path from poisoned back
  /// to healthy: clears the sticky error, the stats and the logs, and
  /// tears down the worker pool (recreated lazily). Buffers stay
  /// allocated but their contents are unspecified. Like setWorkers, it
  /// does not wait for a launch another host thread runs meanwhile.
  void reset();

  // Watchdogs --------------------------------------------------------

  struct WatchdogConfig {
    uint64_t StepBudget = 0;      ///< vm instructions per launch; 0 = off
    uint64_t LaunchTimeoutMs = 0; ///< wall-clock ms per launch; 0 = off
  };
  /// Installs watchdog limits (the DESCEND_WATCHDOG environment
  /// variable, e.g. "steps=1000000,ms=2000", seeds the default). Each
  /// launch reads the limits once, when it starts.
  void setWatchdog(WatchdogConfig W);
  WatchdogConfig watchdog() const;

  /// Analyzes the logged accesses of the last launch. One report per
  /// conflicting (buffer, offset) pair.
  std::vector<RaceReport> findRaces() const;
  const std::vector<BoundsReport> &boundsViolations() const {
    return BoundsViolations;
  }
  void clearLogs();

  // Internal: used by accessors and the launcher.
  void logAccess(const BlockCtx &B, unsigned BufferId, size_t Offset,
                 bool Write);
  void logBounds(unsigned BufferId, size_t Offset, size_t Size);
  std::byte *allocRaw(size_t Bytes, unsigned &IdOut);

  // Global memory ------------------------------------------------------

  /// Returns buffer \p Id's memory to the free list now (cudaFree). The
  /// caller guarantees no launch still uses it. Throws
  /// DeviceError(InvalidValue) for an unknown or already-freed id,
  /// without poisoning the device.
  void free(unsigned Id);
  /// True while \p Id names an allocated buffer that was not freed.
  bool isLive(unsigned Id) const;
  MemoryStats memoryStats() const;

private:
  bool RaceDetection = false;
  bool BoundsChecking = false;
  std::atomic<bool> CountersOn{false}; // read by concurrent launches
  unsigned Workers = 0;

  static constexpr size_t MaxLaunchLog = 65536;
  mutable std::mutex StatsM;
  LaunchStats LastLaunch;
  LaunchStats Total;
  std::vector<LaunchStats> LaunchLog;
  uint64_t DroppedLaunches = 0;

  // Sticky error state: first error wins; HasErr is the lock-free
  // poisoned() probe, ErrSeq the per-launch attribution counter.
  mutable std::mutex ErrM;
  ErrorCode Err = ErrorCode::Ok; // guarded by ErrM
  std::string ErrMsg;            // guarded by ErrM
  std::atomic<bool> HasErr{false};
  std::atomic<uint64_t> ErrSeq{0};

  // Watchdog limits; atomics because launches on pool workers read them.
  std::atomic<uint64_t> WdStepBudget{0};
  std::atomic<uint64_t> WdTimeoutMs{0};

  std::unique_ptr<detail::WorkerPool> Pool;
  std::mutex PoolM; // guards lazy pool creation
  std::mutex BoundsM; // bounds logging may run from parallel blocks

  detail::DeviceMemory Mem;
  std::vector<detail::Access> AccessLog;
  std::vector<BoundsReport> BoundsViolations;
};

/// Typed handle to a global buffer. Copyable; does not own the memory.
template <typename T> class GpuDevice::Buffer {
public:
  Buffer() = default;

  size_t size() const { return Count; }
  unsigned id() const { return Id; }
  /// The owning device; null for a default-constructed handle.
  GpuDevice *device() const { return Dev; }

  /// Host-side unchecked access (initialization and verification).
  T *data() { return Data; }
  const T *data() const { return Data; }

  /// Device-side access from inside a kernel phase. Counters tick before
  /// the bounds check, mirroring the race log: the access was *issued*
  /// whether or not it lands.
  T load(const BlockCtx &B, size_t I) const {
    if (B.Counters) [[unlikely]]
      B.Counters->countGlobal(/*Write=*/false);
    if (Dev->raceDetection()) [[unlikely]]
      Dev->logAccess(B, Id, I, /*Write=*/false);
    if (Dev->boundsChecking()) [[unlikely]] {
      if (I >= Count) {
        Dev->logBounds(Id, I, Count);
        return T{};
      }
    }
    return Data[I];
  }
  void store(const BlockCtx &B, size_t I, T Value) const {
    if (B.Counters) [[unlikely]]
      B.Counters->countGlobal(/*Write=*/true);
    if (Dev->raceDetection()) [[unlikely]]
      Dev->logAccess(B, Id, I, /*Write=*/true);
    if (Dev->boundsChecking()) [[unlikely]] {
      if (I >= Count) {
        Dev->logBounds(Id, I, Count);
        return;
      }
    }
    Data[I] = Value;
  }

  /// Wide (two-element) access at elements I and I+1, fused by the
  /// vectorize schedule pass into ONE issued transaction: a single
  /// counter tick, but both elements race-logged and bounds-checked.
  void load2(const BlockCtx &B, size_t I, T &V0, T &V1) const {
    if (B.Counters) [[unlikely]]
      B.Counters->countGlobal(/*Write=*/false);
    if (Dev->raceDetection()) [[unlikely]] {
      Dev->logAccess(B, Id, I, /*Write=*/false);
      Dev->logAccess(B, Id, I + 1, /*Write=*/false);
    }
    if (Dev->boundsChecking()) [[unlikely]] {
      if (I + 1 >= Count) {
        Dev->logBounds(Id, I + 1, Count);
        V0 = V1 = T{};
        return;
      }
    }
    V0 = Data[I];
    V1 = Data[I + 1];
  }
  void store2(const BlockCtx &B, size_t I, T V0, T V1) const {
    if (B.Counters) [[unlikely]]
      B.Counters->countGlobal(/*Write=*/true);
    if (Dev->raceDetection()) [[unlikely]] {
      Dev->logAccess(B, Id, I, /*Write=*/true);
      Dev->logAccess(B, Id, I + 1, /*Write=*/true);
    }
    if (Dev->boundsChecking()) [[unlikely]] {
      if (I + 1 >= Count) {
        Dev->logBounds(Id, I + 1, Count);
        return;
      }
    }
    Data[I] = V0;
    Data[I + 1] = V1;
  }

private:
  friend class GpuDevice;
  Buffer(GpuDevice *Dev, T *Data, size_t Count, unsigned Id)
      : Dev(Dev), Data(Data), Count(Count), Id(Id) {}

  GpuDevice *Dev = nullptr;
  T *Data = nullptr;
  size_t Count = 0;
  unsigned Id = 0;
};

template <typename T> GpuDevice::Buffer<T> GpuDevice::alloc(size_t Count) {
  unsigned Id = 0;
  std::byte *Raw = allocRaw(Count * sizeof(T), Id);
  return Buffer<T>(this, reinterpret_cast<T *>(Raw), Count, Id);
}

template <typename T>
T BlockCtx::sharedLoad(size_t Base, size_t I) const {
  if (Counters) [[unlikely]]
    Counters->countShared(Base + I * sizeof(T), /*Write=*/false, CurThread);
  if (Dev->raceDetection()) [[unlikely]]
    Dev->logAccess(*this, SharedBufferId, Base + I * sizeof(T), false);
  return shared<T>(Base)[I];
}

template <typename T>
void BlockCtx::sharedStore(size_t Base, size_t I, T V) const {
  if (Counters) [[unlikely]]
    Counters->countShared(Base + I * sizeof(T), /*Write=*/true, CurThread);
  if (Dev->raceDetection()) [[unlikely]]
    Dev->logAccess(*this, SharedBufferId, Base + I * sizeof(T), true);
  shared<T>(Base)[I] = V;
}

template <typename T>
void BlockCtx::sharedLoad2(size_t Base, size_t I, T &V0, T &V1) const {
  if (Counters) [[unlikely]]
    Counters->countShared(Base + I * sizeof(T), /*Write=*/false, CurThread);
  if (Dev->raceDetection()) [[unlikely]] {
    Dev->logAccess(*this, SharedBufferId, Base + I * sizeof(T), false);
    Dev->logAccess(*this, SharedBufferId, Base + (I + 1) * sizeof(T), false);
  }
  V0 = shared<T>(Base)[I];
  V1 = shared<T>(Base)[I + 1];
}

template <typename T>
void BlockCtx::sharedStore2(size_t Base, size_t I, T V0, T V1) const {
  if (Counters) [[unlikely]]
    Counters->countShared(Base + I * sizeof(T), /*Write=*/true, CurThread);
  if (Dev->raceDetection()) [[unlikely]] {
    Dev->logAccess(*this, SharedBufferId, Base + I * sizeof(T), true);
    Dev->logAccess(*this, SharedBufferId, Base + (I + 1) * sizeof(T), true);
  }
  shared<T>(Base)[I] = V0;
  shared<T>(Base)[I + 1] = V1;
}

namespace detail {
/// Runs \p RunBlock once per block of the grid, distributing chunked runs
/// of blocks over the device's persistent worker pool and providing each
/// call with a zeroed per-thread shared arena. Sequential (and exactly
/// deterministic) when the device's effective worker count is 1.
void runBlocks(GpuDevice &Dev, Dim3 Grid, Dim3 Block, size_t SharedBytes,
               const std::function<void(BlockCtx &)> &RunBlock);

/// Strictly parses a DESCEND_WATCHDOG value ("steps=N", "ms=M", or both
/// comma-separated, each at most once, N/M positive). Returns false —
/// leaving \p Out untouched, \p Err set — on any malformed or unknown
/// clause, same all-or-nothing discipline as FaultPlan::parse.
bool parseWatchdogConfig(const char *Text, GpuDevice::WatchdogConfig &Out,
                         std::string *Err = nullptr);
} // namespace detail

/// A phase program: the host-side runtime mirror of the compiler's
/// phase-program IR (codegen/PhaseIR.h). Straight nodes are phases run
/// over every thread of a block; loop nodes bind a per-block loop
/// variable slot and run their children once per iteration, so a kernel
/// with a sync-containing loop is a constant number of phase lambdas plus
/// loop structure instead of one lambda per unrolled iteration.
///
/// Built once per launch with the fluent builder (generated code calls
/// straight()/loopBegin()/loopEnd() in emission order), then executed by
/// launchProgram.
class PhaseProgram {
public:
  /// A stored phase runs once per block execution with the thread loop
  /// inside (see straight()).
  using BlockPhase = std::function<void(BlockCtx &)>;
  /// Loop bounds are evaluated per entry, per block: they may read outer
  /// loop variables through the BlockCtx.
  using Bound = std::function<long long(const BlockCtx &)>;

  struct Node {
    BlockPhase Fn; // straight phase; null for loop nodes
    unsigned Slot = 0;
    Bound Lo, Hi; // half-open [Lo..Hi)
    std::vector<Node> Body;
  };

  /// Appends a phase to the innermost open loop (or the top level).
  /// \p Fn is a per-thread callable phase(BlockCtx&, ThreadCtx&); the
  /// thread loop is wrapped around it *before* type erasure, so the
  /// per-thread calls stay direct (inlinable) and only one erased call is
  /// paid per phase per block — the launchPhases fast path, preserved.
  template <typename ThreadFn> PhaseProgram &straight(ThreadFn Fn) {
    return straightBlock([Fn = std::move(Fn)](BlockCtx &B) mutable {
      const Dim3 Block = B.BlockDim;
      ThreadCtx T;
      for (T.Z = 0; T.Z != Block.Z; ++T.Z)
        for (T.Y = 0; T.Y != Block.Y; ++T.Y)
          for (T.X = 0; T.X != Block.X; ++T.X) {
            B.CurThread = (T.Z * Block.Y + T.Y) * Block.X + T.X;
            Fn(B, T);
          }
    });
  }

  /// Appends a phase that drives the block itself (the thread loop, if
  /// any, is the callee's business).
  PhaseProgram &straightBlock(BlockPhase Fn);

  /// Opens a loop over BlockCtx::loopVar(\p Slot); nodes appended until
  /// the matching loopEnd() run once per iteration.
  PhaseProgram &loopBegin(unsigned Slot, Bound Lo, Bound Hi);
  /// Convenience overload for literal bounds.
  PhaseProgram &loopBegin(unsigned Slot, long long Lo, long long Hi);
  PhaseProgram &loopEnd();

  /// The completed program (every loopBegin matched by a loopEnd).
  const std::vector<Node> &nodes() const;

private:
  std::vector<Node> Nodes;           // completed top-level nodes
  std::vector<Node> OpenHeaders;     // loop nodes under construction
  std::vector<std::vector<Node>> OpenBodies; // their pending children
};

/// Launches a phase program: within each block the program's nodes run in
/// order — every phase over all threads before the next node starts (the
/// __syncthreads() barrier), loop bodies once per iteration with the loop
/// variable bound in the BlockCtx.
void launchProgram(GpuDevice &Dev, Dim3 Grid, Dim3 Block, size_t SharedBytes,
                   const PhaseProgram &Prog);

/// Launches a straight-line phase-structured kernel: each Phase must be
/// callable as phase(BlockCtx&, ThreadCtx&). Within a block, every phase
/// runs over all threads before the next one starts (the __syncthreads()
/// barrier). The phase calls are direct (no type erasure), which keeps
/// handwritten baseline kernels and loop-free generated kernels on the
/// fastest path; kernels with host-side loop structure go through
/// PhaseProgram / launchProgram instead.
template <typename... Phases>
void launchPhases(GpuDevice &Dev, Dim3 Grid, Dim3 Block, size_t SharedBytes,
                  Phases &&...PhaseFns) {
  detail::runBlocks(Dev, Grid, Block, SharedBytes, [&](BlockCtx &B) {
    unsigned PhaseIdx = 0;
    auto RunPhase = [&](auto &&Phase) {
      // Watchdog cancellation point: a phase boundary is the only place
      // a block may stop without tearing a barrier.
      if (B.cancelled()) [[unlikely]]
        return;
      B.CurPhase = PhaseIdx;
      if (B.Counters) [[unlikely]]
        B.Counters->beginPhase(PhaseIdx);
      ThreadCtx T;
      for (T.Z = 0; T.Z != Block.Z; ++T.Z)
        for (T.Y = 0; T.Y != Block.Y; ++T.Y)
          for (T.X = 0; T.X != Block.X; ++T.X) {
            B.CurThread = (T.Z * Block.Y + T.Y) * Block.X + T.X;
            Phase(B, T);
          }
      ++PhaseIdx;
    };
    (RunPhase(PhaseFns), ...);
  });
}

} // namespace descend::sim

#endif // DESCEND_SIM_SIM_H
