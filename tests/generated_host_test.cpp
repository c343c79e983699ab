//===- tests/generated_host_test.cpp - Generated host drivers, executed -----===//
//
// Executes the build-time generated host drivers (programs/*.descend
// compiled by descendc --emit=sim) and checks them bit-for-bit against the
// equivalent handwritten host code over runtime/HostRuntime.h — the
// acceptance gate for the host-program subsystem: the driver Descend
// generates must be indistinguishable from the driver a careful human
// writes, and every driver rejects wrongly sized arguments at entry.
//
//===----------------------------------------------------------------------===//

#include "runtime/HostRuntime.h"

#include "gen_device_param_host.h"    // twice + twice_on         (nb=1)
#include "gen_quickstart_host.h"      // scale_vec + run          (nb=8)
#include "gen_reduction_host_small.h" // reduce_small + run_small (nb=8)

#include <gtest/gtest.h>

#include <cstring>

using namespace descend;

namespace {

TEST(GeneratedHost, QuickstartDriverBitIdenticalToHandwritten) {
  const size_t N = 8 * 256;

  // Generated path: one call into the emitted driver.
  sim::GpuDevice DevGen;
  rt::HostBuffer<double> Gen(N, 0.0);
  for (size_t I = 0; I != N; ++I)
    Gen[I] = static_cast<double>(I) * 0.25;
  descend::gen::run(DevGen, Gen);

  // Handwritten path: the same host logic spelled by hand.
  sim::GpuDevice DevRef;
  rt::HostBuffer<double> Ref(N, 0.0);
  for (size_t I = 0; I != N; ++I)
    Ref[I] = static_cast<double>(I) * 0.25;
  auto DVec = rt::allocCopy(DevRef, Ref);
  descend::gen::scale_vec(DevRef, DVec);
  rt::copyToHost(Ref, DVec);

  EXPECT_EQ(0, std::memcmp(Gen.data(), Ref.data(), N * sizeof(double)));
  // And both actually computed the kernel.
  EXPECT_EQ(Gen[100], 100.0 * 0.25 * 3.0);
}

TEST(GeneratedHost, ReductionDriverBitIdenticalToHandwritten) {
  const unsigned NB = 8;
  const size_t N = static_cast<size_t>(NB) * 256;

  auto Fill = [N](rt::HostBuffer<double> &B) {
    for (size_t I = 0; I != N; ++I)
      B[I] = static_cast<double>(I % 1000) * 0.001;
  };

  // Generated path: transfers, launch, copy-back and the sequential CPU
  // finish all come out of the compiled host function.
  sim::GpuDevice DevGen;
  rt::HostBuffer<double> Data(N, 0.0), Partials(NB, 0.0), Total(1, 0.0);
  Fill(Data);
  descend::gen::run_small(DevGen, Data, Partials, Total);

  // Handwritten path, step for step.
  sim::GpuDevice DevRef;
  rt::HostBuffer<double> RData(N, 0.0), RPartials(NB, 0.0), RTotal(1, 0.0);
  Fill(RData);
  auto DIn = rt::allocCopy(DevRef, RData);
  auto DOut = rt::allocCopy(DevRef, RPartials);
  descend::gen::reduce_small(DevRef, DIn, DOut);
  rt::copyToHost(RPartials, DOut);
  RTotal[0] = 0.0;
  for (size_t I = 0; I != NB; ++I)
    RTotal[0] = RTotal[0] + RPartials[I];

  EXPECT_EQ(0,
            std::memcmp(Partials.data(), RPartials.data(),
                        NB * sizeof(double)));
  EXPECT_EQ(0, std::memcmp(Total.data(), RTotal.data(), sizeof(double)));

  // Sanity: the reduction really reduced.
  double Expected = 0.0;
  for (size_t I = 0; I != N; ++I)
    Expected += static_cast<double>(I % 1000) * 0.001;
  EXPECT_NEAR(Total[0], Expected, 1e-9);
}

TEST(GeneratedHost, DriverIsRerunnable) {
  // The driver owns no global state: running it twice on fresh devices
  // gives identical results.
  const size_t N = 8 * 256;
  rt::HostBuffer<double> A(N, 1.5), B(N, 1.5);
  sim::GpuDevice D1, D2;
  descend::gen::run(D1, A);
  descend::gen::run(D2, B);
  EXPECT_EQ(0, std::memcmp(A.data(), B.data(), N * sizeof(double)));
  EXPECT_EQ(A[0], 4.5);
}

//===----------------------------------------------------------------------===//
// Argument checks at driver entry
//===----------------------------------------------------------------------===//

/// Runs \p Call, which must throw a non-sticky InvalidValue with text
/// \p Want, and checks that the driver allocated nothing on \p Dev.
template <typename CallT>
void expectRejected(sim::GpuDevice &Dev, CallT Call, const std::string &Want) {
  const sim::MemoryStats Before = Dev.memoryStats();
  try {
    Call();
    ADD_FAILURE() << "expected rt::Error: " << Want;
  } catch (const rt::Error &E) {
    EXPECT_EQ(E.code(), sim::ErrorCode::InvalidValue);
    EXPECT_EQ(std::string(E.what()), Want);
  }
  EXPECT_FALSE(Dev.poisoned());
  const sim::MemoryStats After = Dev.memoryStats();
  EXPECT_EQ(After.LiveBuffers, Before.LiveBuffers);
  EXPECT_EQ(After.FreshAllocs, Before.FreshAllocs);
  EXPECT_EQ(After.ReusedAllocs, Before.ReusedAllocs);
}

TEST(GeneratedHost, DriverRejectsWronglySizedArguments) {
  // quickstart at nb=8 declares 2048 elements; the vm rejects the same
  // calls with the same texts.
  sim::GpuDevice Dev;
  const std::string HostText =
      "argument 0 of host `main` must be a host array of 2048 x f64";
  rt::HostBuffer<double> Small(1024, 1.0), Large(4096, 1.0);
  expectRejected(Dev, [&] { descend::gen::run(Dev, Small); }, HostText);
  expectRejected(Dev, [&] { descend::gen::run(Dev, Large); }, HostText);
  EXPECT_EQ(Small[0], 1.0) << "the kernel never ran";

  // twice_on at nb=1 borrows a 256-element device buffer.
  auto Wrong = Dev.alloc<double>(512);
  expectRejected(Dev, [&] { descend::gen::twice_on(Dev, Wrong); },
                 "argument 0 of host `twice_on` must be a device buffer of "
                 "256 x f64");
  auto Right = Dev.alloc<double>(256);
  Right.data()[0] = 1.5;
  descend::gen::twice_on(Dev, Right);
  EXPECT_EQ(Right.data()[0], 3.0);

  // A freed handle keeps its size; the allocation after the free reuses
  // its block, and a launch on the stale handle would scale that one.
  auto Freed = Dev.alloc<double>(256);
  Dev.free(Freed.id());
  auto Reuser = Dev.alloc<double>(256);
  ASSERT_EQ(Reuser.data(), Freed.data()) << "the free list reuses the block";
  Reuser.data()[0] = 1.5;
  expectRejected(Dev, [&] { descend::gen::twice_on(Dev, Freed); },
                 "argument 0 of host `twice_on` must be a device buffer of "
                 "256 x f64; id " +
                     std::to_string(Freed.id()) +
                     " was freed or never allocated");
  EXPECT_EQ(Reuser.data()[0], 1.5) << "the kernel never ran";
}

} // namespace
