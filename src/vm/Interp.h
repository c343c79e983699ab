//===- vm/Interp.h - Bytecode interpreter over the simulator ----*- C++ -*-===//
//
// Part of the Descend reproduction. Executes CompiledProgram artifacts
// (vm/Bytecode.h) on a sim::GpuDevice: launchKernel builds a
// sim::PhaseProgram whose phase bodies run the bytecode dispatch loop
// once per *lane group* — G threads of a block in lockstep. A uniform
// instruction (vm/Bytecode.h) runs once for the group on its uniform
// registers; a varying one is applied to every running lane, its
// registers stored lane-major, its uniform operands read by broadcast.
// Well-typed phases are race-free, so the interleaving of a
// block's threads between two barriers cannot change a result; a branch
// that splits a group runs the lanes at the lowest pc first and merges
// lanes whose pcs meet, so each thread still executes exactly its own
// instruction sequence. G is the block's thread count (narrowed to a
// fixed register budget), and 1 whenever race detection, bounds
// checking, counters or a watchdog step budget observe per-thread
// order. Compiled-from-source kernels ride the same persistent worker
// pool, phase barriers, loopVar slots, shared/arena memory and
// race/bounds observability as the build-time-generated C++ — with zero
// C++ compilation at runtime. runHostFn interprets hostgen's host IR of a
// cpu.thread function (allocations, transfers, launches, scalar code) on
// the calling thread: the same IR the sim and cuda printers print, over a
// slot-indexed frame, with every size, bound and launch target resolved
// by vm::compile — no name lookup and no Nat evaluation per run. Each
// release statement frees its device buffer (GpuDevice::free), so a
// device serving many requests reuses the same memory; a failure partway
// frees the failing frames' live device buffers on its way out.
//
// A uniform range op (a split along a lane coordinate that numbers the
// threads in one run, vm/Bytecode.h) keeps the lanes below its cut
// running, a prefix of the group found by arithmetic, and parks the rest
// the way a varying jz would: each arm gets the lanes, and runs in the
// order, that a per-lane compare and jz would give it.
//
// Error discipline: kernel runtime faults (integer division by zero or
// overflow, arena or shared accesses outside the block's allocation,
// out-of-range global accesses with bounds checking off; i64 +, -, * and
// negation wrap instead) trip a shared trap flag and halt the launch —
// they never throw on pool workers. A tripped trap is also
// recorded as the device's sticky error (sim::ErrorCode::KernelTrap, or
// KernelTimeout when the watchdog step budget expired), so subsequent
// launches fail fast until GpuDevice::reset(). Bytecode is structurally
// validated before every launch (validateKernel): truncated or
// bit-flipped artifacts, out-of-range register indices, uniform marks
// that break the register classes, and range ops without a forward
// target or over a coordinate that is no run of the kernel's block
// produce a RunStatus error, never undefined behavior; a uniform write
// while lanes are parked, which no static check rules out, traps.
// Host-side faults (integer division by zero or overflow among them)
// surface as a RunStatus error; nothing escapes these entry points as an
// exception.
//
//===----------------------------------------------------------------------===//

#ifndef DESCEND_VM_INTERP_H
#define DESCEND_VM_INTERP_H

#include "vm/Bytecode.h"

#include <memory>
#include <string>
#include <vector>

namespace descend {
namespace vm {

/// Untyped handle to a device-global buffer allocated on a GpuDevice.
/// Copyable; copies alias the same memory (like GpuDevice::Buffer).
struct DevBuf {
  ScalarKind Elem = ScalarKind::F64;
  std::byte *Data = nullptr;
  size_t Count = 0;
  unsigned Id = 0; ///< buffer id (allocRaw): race/bounds logs, liveness
};

/// Allocates a zero-initialized device buffer (GpuDevice::alloc, minus
/// the compile-time element type).
DevBuf allocDev(sim::GpuDevice &Dev, ScalarKind Elem, size_t Count);

/// A host-heap array (rt::HostBuffer minus the compile-time element
/// type). Shared by pointer across host frames — parameter passing has
/// `HostBuffer<T>&` semantics.
struct HostArray {
  ScalarKind Elem = ScalarKind::F64;
  size_t Count = 0;
  std::vector<std::byte> Bytes;
};

/// One host frame slot: empty, a scalar, a host array, or a device
/// buffer.
struct HostVal {
  enum Kind { None, Scalar, Array, Dev } K = None;
  ScalarKind SK = ScalarKind::F64; ///< Scalar element kind
  Value V{};                       ///< Scalar payload
  std::shared_ptr<HostArray> Arr;  ///< Array payload
  DevBuf DevB;                     ///< Dev payload

  static HostVal scalar(ScalarKind SK, Value V) {
    HostVal H;
    H.K = Scalar;
    H.SK = SK;
    H.V = V;
    return H;
  }
  static HostVal array(std::shared_ptr<HostArray> A) {
    HostVal H;
    H.K = Array;
    H.Arr = std::move(A);
    return H;
  }
  static HostVal dev(DevBuf D) {
    HostVal H;
    H.K = Dev;
    H.DevB = D;
    return H;
  }
};

/// Allocates a host array of \p Count elements, every element set to
/// \p Fill (interpreted per \p Elem).
std::shared_ptr<HostArray> makeHostArray(ScalarKind Elem, size_t Count,
                                         double Fill);

struct RunStatus {
  bool Ok = true;
  std::string Error;
};

/// Structural validation of every code object in \p K: opcode in range,
/// register / constant-pool / jump-target / buffer / loop-slot indices
/// in bounds, element kinds valid, and the uniform marks consistent: a
/// uniform instruction writes and reads only uniform registers (so a
/// uniform jz tests a uniform register), a varying one never writes a
/// uniform register. Returns a failing RunStatus naming
/// the first malformed instruction — the interpreter's defense against
/// truncated or bit-flipped bytecode reaching the unchecked dispatch
/// loop. launchKernel runs this before executing anything.
RunStatus validateKernel(const VmKernel &K);

/// The work a launch did, counted exactly by the executor at the width it
/// ran: every dispatched instruction (loop-bound programs included) once,
/// and per dispatch the lanes it ran for — 1 for a uniform instruction,
/// the running lanes for a varying one. At one thread per group both
/// counts are the per-thread instruction count.
struct LaunchWork {
  uint64_t Instrs = 0;
  uint64_t LaneSteps = 0;
};

/// Launches \p K on \p Dev with one device buffer per kernel parameter.
/// Synchronous (like the generated sim launches); honors the device's
/// race-detection and bounds-checking modes. Argument arity, element
/// kinds and counts are validated against the kernel's parameter schema,
/// a freed buffer is refused with an invalid_value error that leaves the
/// device healthy, and the bytecode is checked through validateKernel.
/// Fails fast (without launching) while the device carries a sticky
/// error; a kernel trap poisons the device in turn. Of several faulting threads the trap names
/// the first the executor reaches: at G = 1 the lowest faulting thread,
/// else the lowest lane faulting at the earliest faulting instruction of
/// the lockstep schedule. When the device watchdog configures a
/// step budget (DESCEND_WATCHDOG steps=N), each thread's phase body may
/// execute at most N instructions before the launch is cancelled as a
/// KernelTimeout. Registers start zeroed for every lane group of every
/// phase, so no value survives from another thread, phase or launch.
/// With \p Work, also adds the work the launch did to it (the counts
/// depend only on the kernel, its inputs and the device's modes).
RunStatus launchKernel(sim::GpuDevice &Dev, const VmKernel &K,
                       const std::vector<DevBuf> &Args,
                       LaunchWork *Work = nullptr);

/// Runs host function \p Fn of \p P with \p Args bound to its
/// parameters (validated against the parameter schema). Array arguments
/// are shared, so caller-held HostVals observe all writes; scalars pass
/// by value. Never throws.
RunStatus runHostFn(sim::GpuDevice &Dev, const CompiledProgram &P,
                    const HostFnIR &Fn, std::vector<HostVal> Args);

/// Arguments for a host `main`, bound by bindMainArgs.
struct MainArgs {
  std::vector<HostVal> Args;
  /// The host-array arguments, in parameter order: they hold the
  /// program's observable output after runHostFn.
  std::vector<std::shared_ptr<HostArray>> Arrays;
};

/// Binds \p Main's parameters the way `descendc --run --args` does: the
/// I-th parameter takes \p Fills[I] (default 1 for buffers, 0 for
/// scalars). Host arrays are filled with it, device buffers are allocated
/// zeroed on \p Dev, scalars take it as their value.
MainArgs bindMainArgs(sim::GpuDevice &Dev, const HostFnIR &Main,
                      const std::vector<double> &Fills);

} // namespace vm
} // namespace descend

#endif // DESCEND_VM_INTERP_H
