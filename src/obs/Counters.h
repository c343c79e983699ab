//===- obs/Counters.h - Simulator performance counters ----------*- C++ -*-===//
//
// Part of the Descend reproduction. The counter half of the observability
// subsystem: what a kernel *did* — memory accesses per phase, barrier
// executions, a shared-memory bank-conflict model — as opposed to how
// long it took. The timing half lives in obs/Trace.h.
//
// Collection is strictly per block: the simulator gives every executing
// block a private BlockCounters (reached through BlockCtx::Counters, null
// when counters are off, so the hot path pays one predicted branch per
// access). At block exit the simulator merges the block's counters into
// the launch's LaunchStats under a mutex. Every merge is a commutative
// sum, so the totals are bit-identical no matter how blocks were
// distributed over workers — the property tests/obs_test.cpp pins.
//
// The bank-conflict model (the classic 32-bank, 4-byte-word shared
// memory): threads are grouped into warps of 32 by their linear id, and
// the k-th shared access of each thread in a warp is treated as one warp
// access (straight-line phase bodies execute the same access sequence per
// thread, so ordinal k identifies "the same instruction"). For each such
// group, accesses to the same word broadcast for free, while distinct
// words in one bank serialize: the group costs max-over-banks(distinct
// words in bank) transactions, and everything beyond the first
// transaction counts as a bank conflict. 8-byte elements therefore pay
// the familiar 2-way conflict of double-precision shared accesses.
//
// Phase identity is *static*: phase bodies inside a host-side phase loop
// accumulate into one slot across iterations (slot = pre-order position
// of the phase in the program tree), so a kernel's profile has as many
// rows as its source has barrier-delimited sections, not one row per
// dynamic iteration.
//
//===----------------------------------------------------------------------===//

#ifndef DESCEND_OBS_COUNTERS_H
#define DESCEND_OBS_COUNTERS_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace descend::obs {

/// Counters of one static phase (barrier-delimited section), summed over
/// every execution of that phase across all blocks of a launch.
struct PhaseCounters {
  uint64_t GlobalLoads = 0;
  uint64_t GlobalStores = 0;
  uint64_t SharedLoads = 0;
  uint64_t SharedStores = 0;
  /// Serialized shared-memory transactions under the 32-bank model (one
  /// per warp access group when conflict-free).
  uint64_t SharedTransactions = 0;
  /// Transactions beyond the first per warp access group — the cycles a
  /// real GPU would stall on.
  uint64_t BankConflicts = 0;
  /// Executions of this phase (each phase boundary is one barrier).
  uint64_t Barriers = 0;

  PhaseCounters &operator+=(const PhaseCounters &O);
  friend bool operator==(const PhaseCounters &,
                         const PhaseCounters &) = default;
  bool empty() const {
    return !(GlobalLoads | GlobalStores | SharedLoads | SharedStores |
             SharedTransactions | BankConflicts | Barriers);
  }
};

/// Everything counted for one launch (sim::LaunchStats is an alias).
/// merge() additionally lets stats accumulate across launches.
struct LaunchStats {
  /// Kernel name when the launcher knows it (the vm interpreter and the
  /// stats log label launches; generated C++ launches stay unlabeled).
  std::string Label;

  uint64_t Launches = 0; ///< 1 per launch; >1 after merge()
  uint64_t Blocks = 0;
  uint64_t ThreadsPerBlock = 0;
  uint64_t ArenaBytesPerBlock = 0; ///< shared + per-thread spill arena
  uint64_t ArenaBytesTotal = 0;    ///< ArenaBytesPerBlock * Blocks
  uint64_t Traps = 0;              ///< vm kernel faults (generated C++: 0)
  uint64_t RaceLogEntries = 0;     ///< race-detector accesses logged
  std::vector<PhaseCounters> Phases; ///< by static phase id

  // Execution-shape facts. These legitimately vary with the worker count
  // (chunking policy) and are therefore EXCLUDED from operator==, which
  // compares only the deterministic kernel-behaviour counters above.
  uint64_t ChunkClaims = 0; ///< pool claims that ran blocks
  uint64_t Workers = 0;     ///< workers the launch ran on

  // Totals over all phases.
  uint64_t globalLoads() const;
  uint64_t globalStores() const;
  uint64_t sharedLoads() const;
  uint64_t sharedStores() const;
  uint64_t sharedTransactions() const;
  uint64_t bankConflicts() const;
  uint64_t barriers() const;

  /// Accumulates \p O: counts sum, per-launch shape facts (threads per
  /// block, arena per block, workers) keep the maximum.
  void merge(const LaunchStats &O);

  /// Deterministic-counter equality: Label, ChunkClaims and Workers are
  /// excluded (see above). This is the relation obs_test pins across the
  /// sim-generated and vm-interpreted execution paths and across worker
  /// counts.
  friend bool operator==(const LaunchStats &A, const LaunchStats &B) {
    return A.Launches == B.Launches && A.Blocks == B.Blocks &&
           A.ThreadsPerBlock == B.ThreadsPerBlock &&
           A.ArenaBytesPerBlock == B.ArenaBytesPerBlock &&
           A.ArenaBytesTotal == B.ArenaBytesTotal && A.Traps == B.Traps &&
           A.RaceLogEntries == B.RaceLogEntries && A.Phases == B.Phases;
  }

  /// Multi-line human report (descendc --kernel-stats).
  std::string str() const;
  /// One JSON object (descendc --kernel-stats=json, BENCH_*.json rows).
  std::string json() const;
};

/// Per-block counter collection. Owned by the launcher, reached through
/// BlockCtx::Counters from the access hooks; strictly block-local, so no
/// synchronization is needed until the final merge.
class BlockCounters {
public:
  BlockCounters() { Phases.resize(1); }

  /// Enters static phase \p StaticPhase: flushes the pending warp group
  /// of the previous phase and counts one barrier.
  void beginPhase(unsigned StaticPhase);

  void countGlobal(bool Write) {
    if (Write)
      ++Phases[CurPhase].GlobalStores;
    else
      ++Phases[CurPhase].GlobalLoads;
  }

  /// Counts a shared-memory access at byte offset \p ByteOffset in the
  /// block's arena by the thread with linear id \p Thread, feeding the
  /// bank-conflict model.
  void countShared(size_t ByteOffset, bool Write, unsigned Thread);

  /// Flushes the trailing warp group; call once after the block's last
  /// phase ran.
  void finish() { flushWarp(); }

  const std::vector<PhaseCounters> &phases() const { return Phases; }

private:
  void flushWarp();

  std::vector<PhaseCounters> Phases;
  unsigned CurPhase = 0;
  // Bank-model state for the (current phase, current warp) group: the
  // 4-byte word index of every access, per per-thread ordinal.
  std::vector<std::vector<uint32_t>> OrdinalWords;
  unsigned LastThread = ~0u;
  unsigned CurWarp = ~0u;
  unsigned Seq = 0; ///< the executing thread's next shared-access ordinal
};

} // namespace descend::obs

#endif // DESCEND_OBS_COUNTERS_H
