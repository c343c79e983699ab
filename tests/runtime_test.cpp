//===- tests/runtime_test.cpp - Host runtime API tests ----------------------===//
//
// Dedicated tests for runtime/HostRuntime.h: the checked CPU<->GPU
// transfer and launch-configuration API that handwritten host code uses
// (and that the hostgen-generated sim drivers call into), and the release
// helper with its stale-handle errors. The checks here are the *runtime*
// mirror of what the type checker proves statically for .descend host
// programs.
//
//===----------------------------------------------------------------------===//

#include "runtime/HostRuntime.h"

#include <gtest/gtest.h>

#include <numeric>

using namespace descend;

namespace {

TEST(HostRuntime, HostBufferConstructionAndAccess) {
  rt::HostBuffer<double> Fill(16, 2.5);
  EXPECT_EQ(Fill.size(), 16u);
  EXPECT_EQ(Fill[15], 2.5);

  rt::HostBuffer<int> FromVec(std::vector<int>{1, 2, 3});
  EXPECT_EQ(FromVec.size(), 3u);
  EXPECT_EQ(FromVec[2], 3);

  FromVec[0] = 7;
  EXPECT_EQ(FromVec.data()[0], 7);
}

TEST(HostRuntime, HostBufferIndexIsBoundsChecked) {
  rt::HostBuffer<double> B(4, 0.0);
  EXPECT_THROW(B[4], std::out_of_range);
}

TEST(HostRuntime, AllocCopyRoundTrips) {
  sim::GpuDevice Dev;
  rt::HostBuffer<double> Host(64, 0.0);
  for (size_t I = 0; I != Host.size(); ++I)
    Host[I] = static_cast<double>(I);

  auto Buf = rt::allocCopy(Dev, Host);
  ASSERT_EQ(Buf.size(), Host.size());
  EXPECT_EQ(Buf.data()[63], 63.0);

  rt::HostBuffer<double> Back(64, -1.0);
  rt::copyToHost(Back, Buf);
  for (size_t I = 0; I != Back.size(); ++I)
    EXPECT_EQ(Back[I], static_cast<double>(I));
}

TEST(HostRuntime, CopyToGpuHappyPath) {
  sim::GpuDevice Dev;
  auto Buf = Dev.alloc<double>(8);
  rt::HostBuffer<double> Host(8, 3.25);
  rt::copyToGpu(Buf, Host);
  EXPECT_EQ(Buf.data()[7], 3.25);
}

TEST(HostRuntime, CopyToHostSizeMismatchThrows) {
  sim::GpuDevice Dev;
  auto Buf = Dev.alloc<double>(32);
  rt::HostBuffer<double> TooSmall(16, 0.0);
  EXPECT_THROW(rt::copyToHost(TooSmall, Buf), std::runtime_error);
  rt::HostBuffer<double> TooBig(64, 0.0);
  EXPECT_THROW(rt::copyToHost(TooBig, Buf), std::runtime_error);
  // The structured form: an rt::Error classified CopyFailed whose text
  // names both buffers and their element counts. Generated drivers pass
  // the host variable names, so the diagnostic reads like the source.
  try {
    rt::copyToHost(TooSmall, Buf, "host_out", "d_data");
    FAIL() << "expected rt::Error for a size mismatch";
  } catch (const rt::Error &E) {
    EXPECT_EQ(E.code(), sim::ErrorCode::CopyFailed);
    EXPECT_NE(std::string(E.what())
                  .find("copy_mem_to_host: size mismatch: destination "
                        "`host_out` holds 16 elements, source `d_data` "
                        "holds 32"),
              std::string::npos)
        << E.what();
  }
}

TEST(HostRuntime, CopyToGpuSizeMismatchThrows) {
  sim::GpuDevice Dev;
  auto Buf = Dev.alloc<double>(16);
  rt::HostBuffer<double> Host(32, 0.0);
  EXPECT_THROW(rt::copyToGpu(Buf, Host), std::runtime_error);
  try {
    rt::copyToGpu(Buf, Host, "d_data", "host_in");
    FAIL() << "expected rt::Error for a size mismatch";
  } catch (const rt::Error &E) {
    EXPECT_EQ(E.code(), sim::ErrorCode::CopyFailed);
    EXPECT_NE(std::string(E.what())
                  .find("copy_to_gpu: size mismatch: destination `d_data` "
                        "holds 16 elements, source `host_in` holds 32"),
              std::string::npos)
        << E.what();
  }
  // Unnamed call sites degrade to `?`, never to garbage.
  try {
    rt::copyToGpu(Buf, Host);
    FAIL() << "expected rt::Error for a size mismatch";
  } catch (const rt::Error &E) {
    EXPECT_NE(std::string(E.what()).find("destination `?`"),
              std::string::npos)
        << E.what();
  }
}

TEST(HostRuntime, CheckLaunchConfigAcceptsExactCover) {
  EXPECT_NO_THROW(
      rt::checkLaunchConfig(sim::Dim3{16}, sim::Dim3{256}, 16 * 256));
  EXPECT_NO_THROW(
      rt::checkLaunchConfig(sim::Dim3{4, 4}, sim::Dim3{8, 8}, 1024));
}

TEST(HostRuntime, CheckLaunchConfigRejectsMismatch) {
  // The Section 2.3 bug: 1 block of 8192 threads for 2^20 elements.
  EXPECT_THROW(rt::checkLaunchConfig(sim::Dim3{1}, sim::Dim3{8192}, 1u << 20),
               std::runtime_error);
  try {
    rt::checkLaunchConfig(sim::Dim3{2}, sim::Dim3{128}, 512);
    FAIL() << "expected launch configuration mismatch";
  } catch (const std::runtime_error &E) {
    EXPECT_NE(std::string(E.what()).find("launch configuration mismatch"),
              std::string::npos);
    EXPECT_NE(std::string(E.what()).find("256 threads for 512 elements"),
              std::string::npos);
  }
}

TEST(HostRuntime, TransfersComposeIntoAWorkingPipeline) {
  // The handwritten equivalent of a generated driver: stage, "launch"
  // (host-side transform standing in for a kernel), copy back.
  sim::GpuDevice Dev;
  rt::HostBuffer<double> Host(128, 1.0);
  auto Buf = rt::allocCopy(Dev, Host);
  for (size_t I = 0; I != Buf.size(); ++I)
    Buf.data()[I] *= 2.0;
  rt::copyToHost(Host, Buf);
  double Sum = std::accumulate(Host.data(), Host.data() + Host.size(), 0.0);
  EXPECT_EQ(Sum, 256.0);
}

/// Expects \p Fn to throw an rt::Error with code InvalidValue whose text
/// contains \p Needle.
template <typename Fn> void expectInvalidValue(Fn F, const char *Needle) {
  try {
    F();
    ADD_FAILURE() << "expected an invalid_value rt::Error";
  } catch (const rt::Error &E) {
    EXPECT_EQ(E.code(), sim::ErrorCode::InvalidValue);
    EXPECT_NE(std::string(E.what()).find(Needle), std::string::npos)
        << E.what();
  }
}

TEST(HostRuntime, FreedHandleIsAnInvalidValueError) {
  sim::GpuDevice Dev;
  rt::HostBuffer<double> Host(64, 1.0);
  auto Buf = rt::allocCopy(Dev, Host);
  rt::free(Dev, Buf);

  // Every copy refuses the stale handle, by name when it has one...
  expectInvalidValue([&] { rt::copyToHost(Host, Buf, "h", "d"); },
                     "copy_mem_to_host: device buffer `d` (id 1) was freed");
  expectInvalidValue([&] { rt::copyToGpu(Buf, Host, "d", "h"); },
                     "copy_to_gpu: device buffer `d` (id 1) was freed");
  // ...and a second free of it is an error.
  expectInvalidValue([&] { rt::free(Dev, Buf); },
                     "buffer id 1 was already freed");
  expectInvalidValue([&] { Dev.free(12345); }, "was never allocated");
  expectInvalidValue([&] { Dev.free(0); }, "was never allocated");

  // InvalidValue is not sticky: the device stays healthy.
  EXPECT_FALSE(Dev.poisoned());
  EXPECT_EQ(Dev.getLastError(), sim::ErrorCode::Ok);
  auto Fresh = rt::allocCopy(Dev, Host);
  rt::copyToHost(Host, Fresh);
  EXPECT_EQ(Host[63], 1.0);
}

TEST(HostRuntime, FreeOnAnotherDeviceIsRefused) {
  // Ids are per device: buffer 1 of Dev must not free buffer 1 of Other.
  sim::GpuDevice Dev, Other;
  auto Mine = Dev.alloc<double>(8);
  auto Theirs = Other.alloc<double>(8);
  ASSERT_EQ(Mine.id(), Theirs.id());
  expectInvalidValue([&] { rt::free(Other, Mine); },
                     "free: buffer id 1 was not allocated on this device");
  EXPECT_TRUE(Other.isLive(Theirs.id()));
  EXPECT_TRUE(Dev.isLive(Mine.id()));
}

TEST(HostRuntime, DefaultHandleIsNoDeviceBuffer) {
  rt::HostBuffer<double> Host(0, 0.0);
  sim::GpuDevice::Buffer<double> None;
  expectInvalidValue([&] { rt::copyToHost(Host, None); },
                     "was freed or never allocated");
}

} // namespace
