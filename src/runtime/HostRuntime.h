//===- runtime/HostRuntime.h - Host-side runtime API ------------*- C++ -*-===//
//
// Part of the Descend reproduction. The host API of Section 3.4/3.5 as a
// C++ library over the simulator: heap allocation, CPU<->GPU transfer with
// direction checking and kernel-launch configuration checking. Every call
// is synchronous, like the host programs whose generated drivers make
// them: a call has finished when it returns.
//
// Device buffers die where their Descend scope ends: a generated driver
// holds each device local as an rt::DeviceLocal, which frees it when its
// C++ scope (the Descend scope) ends, also when the driver throws.
// Every copy checks that its device handle is still live, so a freed
// handle is an rt::Error with code InvalidValue rather than a
// use-after-free (best effort: buffer-id generations wrap).
//
// In Descend these mistakes are compile-time errors; this runtime is the
// substrate equivalent for *handwritten* host code (and for demonstrating,
// in the examples, what the type system prevents).
//
//===----------------------------------------------------------------------===//

#ifndef DESCEND_RUNTIME_HOSTRUNTIME_H
#define DESCEND_RUNTIME_HOSTRUNTIME_H

#include "sim/Fault.h"
#include "sim/Sim.h"

#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

namespace descend::rt {

/// The structured error type every rt:: failure and every generated
/// hostgen driver surfaces: sim::DeviceError, carrying the
/// machine-readable sim::ErrorCode alongside the text. Callers switch on
/// code() instead of parsing messages.
using Error = sim::DeviceError;

/// Fail-fast check the generated drivers emit after every launch: throws
/// the device's sticky error as a structured rt::Error (naming the failed
/// step) instead of letting a half-completed driver return as if it had
/// succeeded. Free when the device is healthy — one relaxed atomic load.
inline void checkDevice(sim::GpuDevice &Dev, const char *What = nullptr) {
  if (!Dev.poisoned()) [[likely]]
    return;
  std::string Msg;
  const sim::ErrorCode Code = Dev.getLastError(&Msg);
  throw Error(Code, std::string(What ? What : "device operation") +
                        " failed: " + Msg);
}

namespace detail {
/// Structured size-mismatch text: keeps the historical
/// "<op>: size mismatch" prefix (callers grep for it) and appends the
/// offending buffers by name and element count.
inline std::string sizeMismatch(const char *Op, const char *DstName,
                                size_t DstCount, const char *SrcName,
                                size_t SrcCount) {
  return std::string(Op) + ": size mismatch: destination `" +
         (DstName ? DstName : "?") + "` holds " + std::to_string(DstCount) +
         " elements, source `" + (SrcName ? SrcName : "?") + "` holds " +
         std::to_string(SrcCount);
}

/// Throws InvalidValue unless \p Buf is a live allocation of its device.
template <typename T>
void requireLive(const sim::GpuDevice::Buffer<T> &Buf, const char *Op,
                 const char *Name) {
  if (Buf.device() && Buf.device()->isLive(Buf.id())) [[likely]]
    return;
  throw Error(sim::ErrorCode::InvalidValue,
              std::string(Op) + ": device buffer `" + (Name ? Name : "?") +
                  "` (id " + std::to_string(Buf.id()) +
                  ") was freed or never allocated");
}
} // namespace detail

/// CpuHeap::new — host heap allocation (the paper's `[T; n] @ cpu.mem`).
template <typename T> class HostBuffer {
public:
  HostBuffer(size_t Count, T Fill) : Data(Count, Fill) {}
  explicit HostBuffer(std::vector<T> Init) : Data(std::move(Init)) {}

  size_t size() const { return Data.size(); }
  T *data() { return Data.data(); }
  const T *data() const { return Data.data(); }
  T &operator[](size_t I) { return Data.at(I); }
  const T &operator[](size_t I) const { return Data.at(I); }

private:
  std::vector<T> Data;
};

/// GpuGlobal::alloc_copy — allocates global memory and copies host data.
template <typename T>
sim::GpuDevice::Buffer<T> allocCopy(sim::GpuDevice &Dev,
                                    const HostBuffer<T> &Host) {
  auto Buf = Dev.alloc<T>(Host.size());
  std::memcpy(Buf.data(), Host.data(), Host.size() * sizeof(T));
  return Buf;
}

/// copy_mem_to_host — checked direction and size (what cudaMemcpy does not
/// verify; Section 2.3's swapped-arguments bug surfaces here at runtime
/// instead of compile time). \p DstName / \p SrcName (the generated
/// drivers pass the host-program variable names) make the mismatch text
/// name the offending buffers; the throw is a structured rt::Error with
/// code CopyFailed.
template <typename T>
void copyToHost(HostBuffer<T> &Dst, const sim::GpuDevice::Buffer<T> &Src,
                const char *DstName = nullptr, const char *SrcName = nullptr) {
  detail::requireLive(Src, "copy_mem_to_host", SrcName);
  if (Dst.size() != Src.size())
    throw Error(sim::ErrorCode::CopyFailed,
                detail::sizeMismatch("copy_mem_to_host", DstName, Dst.size(),
                                     SrcName, Src.size()));
  std::memcpy(Dst.data(), Src.data(), Src.size() * sizeof(T));
}

template <typename T>
void copyToGpu(sim::GpuDevice::Buffer<T> &Dst, const HostBuffer<T> &Src,
               const char *DstName = nullptr, const char *SrcName = nullptr) {
  detail::requireLive(Dst, "copy_to_gpu", DstName);
  if (Dst.size() != Src.size())
    throw Error(sim::ErrorCode::CopyFailed,
                detail::sizeMismatch("copy_to_gpu", DstName, Dst.size(),
                                     SrcName, Src.size()));
  std::memcpy(Dst.data(), Src.data(), Src.size() * sizeof(T));
}

/// GpuGlobal buffer release at scope end (cudaFree): the memory returns
/// to the device's free list now. Throws InvalidValue unless \p Buf was
/// allocated on \p Dev: ids are per device, so another device's id could
/// name a live buffer here.
template <typename T>
void free(sim::GpuDevice &Dev, const sim::GpuDevice::Buffer<T> &Buf) {
  if (Buf.device() != &Dev)
    throw Error(sim::ErrorCode::InvalidValue,
                "free: buffer id " + std::to_string(Buf.id()) +
                    " was not allocated on this device");
  Dev.free(Buf.id());
}

/// A generated driver's device-buffer local: the handle plus the duty to
/// free it. The sim printer prints every Descend scope (function body,
/// block, for-nat body) as a C++ scope, and a scope's releases come last,
/// the last defined first: C++ destruction order. So the destructor frees
/// the buffer where its Descend scope ends, and on the way out when the
/// driver throws first.
template <typename T> class DeviceLocal : public sim::GpuDevice::Buffer<T> {
public:
  explicit DeviceLocal(sim::GpuDevice::Buffer<T> Buf)
      : sim::GpuDevice::Buffer<T>(Buf) {}
  DeviceLocal(const DeviceLocal &) = delete;
  DeviceLocal &operator=(const DeviceLocal &) = delete;
  /// Nothing else frees a driver's local (parameters are never released),
  /// so the id is live and free() does not throw.
  ~DeviceLocal() { this->device()->free(this->id()); }
};

/// The entry check a generated driver prints for each buffer parameter
/// whose size is instantiated: throws a non-sticky InvalidValue carrying
/// \p What (the vm's text for the same call) unless \p Buf holds
/// \p Count elements.
template <typename T>
void checkArg(const HostBuffer<T> &Buf, size_t Count, const char *What) {
  if (Buf.size() != Count) [[unlikely]]
    throw Error(sim::ErrorCode::InvalidValue, What);
}

/// The same for a device-buffer parameter, which must also be live: a
/// freed handle keeps its size, and a launch on it would write into
/// whatever allocation reused its block. One lookup per call.
template <typename T>
void checkArg(const sim::GpuDevice::Buffer<T> &Buf, size_t Count,
              const char *What) {
  if (Buf.size() != Count) [[unlikely]]
    throw Error(sim::ErrorCode::InvalidValue, What);
  if (!Buf.device() || !Buf.device()->isLive(Buf.id())) [[unlikely]]
    throw Error(sim::ErrorCode::InvalidValue,
                std::string(What) + "; id " + std::to_string(Buf.id()) +
                    " was freed or never allocated");
}

/// Checks a launch configuration against the element count a kernel
/// expects (one element per thread). Descend proves this statically
/// (Section 3.5); handwritten host code can at best assert it here.
inline void checkLaunchConfig(sim::Dim3 Grid, sim::Dim3 Block,
                              size_t Elements) {
  size_t Threads = static_cast<size_t>(Grid.total()) * Block.total();
  if (Threads != Elements)
    throw std::runtime_error(
        "launch configuration mismatch: " + std::to_string(Threads) +
        " threads for " + std::to_string(Elements) + " elements");
}

} // namespace descend::rt

#endif // DESCEND_RUNTIME_HOSTRUNTIME_H
