//===- sim/Fault.h - Sticky errors and deterministic fault injection -*- C++ -*-===//
//
// Part of the Descend reproduction. This header defines the runtime's
// failure contract — the piece of the reliability story that the type
// system cannot cover. It has three halves:
//
//  * ErrorCode / DeviceError: the CUDA-style sticky error model. A kernel
//    trap, failed allocation or watchdog timeout records a device-level
//    ErrorCode on the GpuDevice. The *original* error stays (first error
//    wins), `getLastError`/`peekLastError` expose it, and
//    `GpuDevice::reset()` is the only way back to a healthy device.
//    Generated hostgen drivers check the device after every launch and
//    surface the state as a structured `rt::Error` (an alias of
//    DeviceError) instead of leaking half-completed buffers.
//
//  * FaultPlan: a deterministic fault-injection plan, parsed strictly from
//    the DESCEND_FAULTS environment variable. The grammar is a
//    comma-separated list of injection clauses:
//
//        alloc:N              fail the N-th device allocation (1-based)
//        trap:launch=N        force a kernel trap at the N-th launch
//        delay:worker=K:ms=M  delay pool worker K by M ms per work batch
//        e.g. DESCEND_FAULTS=alloc:3,trap:launch=5,delay:worker=2:ms=10
//
//    Parsing follows the same strictness discipline as
//    detail::parseWorkerCount: malformed input is rejected as a whole
//    (with a one-time stderr warning when it came from the environment)
//    rather than partially applied, so a typo can never half-inject.
//
//  * FaultInjector: the process-wide singleton the runtime seams query.
//    Each clause has an atomic trigger counter, so "the N-th allocation"
//    is exact and race-free even when allocations happen on pool workers.
//    Tests install plans directly via setPlanForTest (which also resets
//    the counters); production code never pays more than one relaxed
//    atomic load per seam when no plan is armed.
//
//===----------------------------------------------------------------------===//

#ifndef DESCEND_SIM_FAULT_H
#define DESCEND_SIM_FAULT_H

#include <atomic>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>

namespace descend {
namespace sim {

//===----------------------------------------------------------------------===//
// Sticky error codes
//===----------------------------------------------------------------------===//

/// Device-level error classification, modeled on cudaError_t's sticky
/// subset: once a device records one of these (other than Ok and
/// InvalidValue) every subsequent query returns it until
/// GpuDevice::reset().
enum class ErrorCode : uint8_t {
  Ok = 0,
  KernelTrap,     ///< a kernel body trapped (OOB access, div by zero, ...)
  KernelTimeout,  ///< the watchdog cancelled a runaway launch
  AllocFailed,    ///< device allocation failed (real or injected)
  CopyFailed,     ///< a host<->device copy failed (size mismatch)
  /// A freed or unknown device-buffer id reached free, a copy or a vm
  /// launch. Thrown or returned, never recorded: like
  /// cudaErrorInvalidValue it does not poison the device.
  InvalidValue
};

/// Stable lowercase name of an error code ("kernel_trap", ...). Used in
/// exception texts, trace events and the descendd METRICS line.
const char *errorCodeName(ErrorCode E);

/// The structured exception every host-facing failure surfaces as.
/// Carries the machine-readable code alongside the human text; hostgen
/// drivers and rt:: helpers throw exactly this type (aliased as
/// rt::Error) so callers can switch on `code()` instead of parsing text.
class DeviceError : public std::runtime_error {
public:
  DeviceError(ErrorCode Code, const std::string &What)
      : std::runtime_error(What), Code(Code) {}

  ErrorCode code() const { return Code; }

private:
  ErrorCode Code;
};

//===----------------------------------------------------------------------===//
// Fault plans
//===----------------------------------------------------------------------===//

/// One deterministic injection plan. Value 0 means "clause not armed";
/// all trigger ordinals are 1-based ("the N-th occurrence").
struct FaultPlan {
  uint64_t AllocFailAt = 0;   ///< alloc:N
  uint64_t TrapAtLaunch = 0;  ///< trap:launch=N
  uint64_t DelayWorker = 0;   ///< delay:worker=K (1-based worker ordinal)
  uint64_t DelayMs = 0;       ///< delay:worker=K:ms=M

  bool armed() const { return AllocFailAt || TrapAtLaunch || DelayWorker; }

  /// Strictly parses \p Text (the DESCEND_FAULTS grammar above) into
  /// \p Out. Returns false — leaving \p Out untouched — on any malformed
  /// clause, unknown key, duplicate clause, zero ordinal or trailing
  /// garbage, setting \p Err to a diagnostic. The empty string parses to
  /// an unarmed plan.
  static bool parse(const std::string &Text, FaultPlan &Out,
                    std::string *Err = nullptr);

  /// Canonical textual form (round-trips through parse); "off" when
  /// unarmed. Stamped into bench provenance and trace metadata.
  std::string str() const;
};

//===----------------------------------------------------------------------===//
// The injector singleton
//===----------------------------------------------------------------------===//

/// Process-wide fault injector. The three runtime seams (allocRaw,
/// runBlocks, the worker loop) call the should*() probes; the alloc and
/// trap probes advance their own atomic occurrence counter and fire
/// exactly once, on the configured ordinal.
class FaultInjector {
public:
  /// The singleton. First use parses DESCEND_FAULTS (strictly, with a
  /// one-time stderr warning on malformed input, which then counts as
  /// unset — never a partial plan).
  static FaultInjector &global();

  /// True when any clause is armed. One relaxed load; the fast path for
  /// every seam.
  bool armed() const { return Armed.load(std::memory_order_relaxed); }

  /// Installs \p P and resets every occurrence counter. Tests use this;
  /// it is also how `--no-faults` style call sites disarm injection.
  void setPlanForTest(const FaultPlan &P);

  /// The currently armed plan (copy).
  FaultPlan plan() const;

  // Probes — each returns true exactly when the current occurrence
  // matches the armed ordinal.
  bool shouldFailAlloc();
  bool shouldTrapLaunch();
  /// \p WorkerOrdinal is 1-based; on a hit sets \p DelayMsOut.
  bool shouldDelayWorker(uint64_t WorkerOrdinal, uint64_t &DelayMsOut);

private:
  FaultInjector();

  std::atomic<bool> Armed{false};
  FaultPlan Plan; // written only under setPlanForTest / ctor
  mutable std::mutex PlanM;

  std::atomic<uint64_t> AllocSeen{0};
  std::atomic<uint64_t> LaunchSeen{0};
};

} // namespace sim
} // namespace descend

#endif // DESCEND_SIM_FAULT_H
