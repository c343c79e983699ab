//===- tests/pool_test.cpp - Worker pool tests ------------------------------===//
//
// Exercises the persistent execution engine: the worker pool reused
// across launches, chunked block claiming on large grids, setWorkers
// resizing, per-block shared arenas, host threads sharing one device,
// the reserved shared-memory id range, and the hardened DESCEND_WORKERS
// parse. The stress test here is what the ThreadSanitizer CI job
// hammers.
//
//===----------------------------------------------------------------------===//

#include "runtime/HostRuntime.h"
#include "sim/Sim.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

using namespace descend::sim;

namespace {

/// The per-buffer workload of the stress test: Rounds ping-pong rounds
/// of "scale by 2, then add the block index", each round one synchronous
/// launch that reads Buf and writes it back.
void pingPongRounds(GpuDevice &Dev, GpuDevice::Buffer<double> Buf,
                    unsigned Blocks, unsigned Threads, int Rounds) {
  for (int R = 0; R != Rounds; ++R)
    launchPhases(Dev, Dim3{Blocks}, Dim3{Threads}, 0,
                 [Buf](BlockCtx &B, ThreadCtx &T) {
                   size_t I = B.X * B.BlockDim.X + T.X;
                   Buf.store(B, I, Buf.load(B, I) * 2.0 + B.X);
                 });
}

TEST(WorkerPool, ReusedAcrossManyLaunches) {
  // Thousands of small launches on one device: every launch must run
  // every block, with the pool persisting in between (this is the
  // bench_throughput hot path).
  GpuDevice Dev;
  Dev.setWorkers(4);
  const unsigned Blocks = 8, Threads = 16;
  auto Buf = Dev.alloc<long long>(Blocks * Threads);
  const int Launches = 2000;
  for (int L = 0; L != Launches; ++L)
    launchPhases(Dev, Dim3{Blocks}, Dim3{Threads}, 0,
                 [Buf](BlockCtx &B, ThreadCtx &T) {
                   size_t I = B.X * B.BlockDim.X + T.X;
                   Buf.store(B, I, Buf.load(B, I) + 1);
                 });
  for (size_t I = 0; I != Blocks * Threads; ++I)
    EXPECT_EQ(Buf.data()[I], Launches);
}

TEST(WorkerPool, ChunkedClaimingCoversEveryBlockOfALargeGrid) {
  // A grid big enough that claims happen in chunks: every block must run
  // exactly once (each writes its own slot once).
  GpuDevice Dev;
  Dev.setWorkers(8);
  const unsigned Blocks = 10000;
  auto Out = Dev.alloc<unsigned>(Blocks);
  launchPhases(Dev, Dim3{Blocks}, Dim3{1}, 0,
               [Out](BlockCtx &B, ThreadCtx &) {
                 Out.store(B, B.linear(), Out.load(B, B.linear()) + 1);
               });
  for (size_t I = 0; I != Blocks; ++I)
    EXPECT_EQ(Out.data()[I], 1u) << "block " << I;
}

TEST(WorkerPool, SetWorkersResizesBetweenLaunches) {
  GpuDevice Dev;
  auto Buf = Dev.alloc<double>(256);
  for (unsigned W : {1u, 2u, 4u, 2u}) {
    Dev.setWorkers(W);
    launchPhases(Dev, Dim3{8}, Dim3{32}, 0,
                 [Buf](BlockCtx &B, ThreadCtx &T) {
                   size_t I = B.X * 32 + T.X;
                   Buf.store(B, I, Buf.load(B, I) + 1.0);
                 });
  }
  for (size_t I = 0; I != 256; ++I)
    EXPECT_EQ(Buf.data()[I], 4.0);
}

TEST(WorkerPool, SharedMemoryArenasStayPerBlock) {
  // Per-worker cached arenas must still behave as per-*block* shared
  // memory: zeroed on entry, private while the block runs.
  GpuDevice Dev;
  Dev.setWorkers(4);
  const unsigned Blocks = 64;
  auto Out = Dev.alloc<int>(Blocks);
  for (int Round = 0; Round != 50; ++Round)
    launchPhases(
        Dev, Dim3{Blocks}, Dim3{1}, sizeof(int),
        [](BlockCtx &B, ThreadCtx &) {
          EXPECT_EQ(B.sharedLoad<int>(0, 0), 0) << "arena not zeroed";
          B.sharedStore<int>(0, 0, static_cast<int>(B.X) + 1);
        },
        [Out](BlockCtx &B, ThreadCtx &) {
          Out.store(B, B.X, B.sharedLoad<int>(0, 0));
        });
  for (unsigned I = 0; I != Blocks; ++I)
    EXPECT_EQ(Out.data()[I], static_cast<int>(I) + 1);
}

TEST(WorkerPool, HostThreadStressMatchesSequential) {
  // Four host threads share one 4-worker device. Each runs the ping-pong
  // rounds on its own buffer as synchronous launches and, between them,
  // allocates a scratch buffer, reads it back and frees it, so
  // allocations and frees race with the other threads' launches. Every
  // buffer must equal the 1-worker reference bit for bit.
  const unsigned Blocks = 16, Threads = 32;
  const size_t N = Blocks * Threads;
  const int Rounds = 64;
  const int NumHosts = 4;

  auto Fill = [N](double *P, int HI) {
    for (size_t I = 0; I != N; ++I)
      P[I] = static_cast<double>((I * 13 + HI * 7) % 101) * 0.125;
  };

  // Sequential reference.
  GpuDevice Ref;
  Ref.setWorkers(1);
  std::vector<GpuDevice::Buffer<double>> RefBufs;
  for (int HI = 0; HI != NumHosts; ++HI) {
    RefBufs.push_back(Ref.alloc<double>(N));
    Fill(RefBufs.back().data(), HI);
    pingPongRounds(Ref, RefBufs.back(), Blocks, Threads, Rounds);
  }

  GpuDevice Dev;
  Dev.setWorkers(4);
  std::vector<GpuDevice::Buffer<double>> Bufs;
  for (int HI = 0; HI != NumHosts; ++HI) {
    Bufs.push_back(Dev.alloc<double>(N));
    Fill(Bufs.back().data(), HI);
  }
  std::atomic<bool> ScratchOk{true};
  std::vector<std::thread> Hosts;
  for (int HI = 0; HI != NumHosts; ++HI)
    Hosts.emplace_back([&, HI] {
      for (int R = 0; R != Rounds; ++R) {
        descend::rt::HostBuffer<double> Scratch(64, HI + R * 0.5);
        auto DScratch = descend::rt::allocCopy(Dev, Scratch);
        pingPongRounds(Dev, Bufs[HI], Blocks, Threads, 1);
        descend::rt::HostBuffer<double> Back(64, -1.0);
        descend::rt::copyToHost(Back, DScratch);
        descend::rt::free(Dev, DScratch);
        if (std::memcmp(Back.data(), Scratch.data(),
                        Scratch.size() * sizeof(double)) != 0)
          ScratchOk = false;
      }
    });
  for (std::thread &T : Hosts)
    T.join();
  EXPECT_TRUE(ScratchOk.load());
  EXPECT_EQ(Dev.memoryStats().LiveBuffers, static_cast<uint64_t>(NumHosts));

  for (int HI = 0; HI != NumHosts; ++HI)
    ASSERT_EQ(0, std::memcmp(Bufs[HI].data(), RefBufs[HI].data(),
                             N * sizeof(double)))
        << "host thread " << HI;
}

TEST(SharedIds, GlobalAllocationsNeverEnterTheSharedIdRange) {
  // Satellite: shared-memory logical ids live in a reserved range; a
  // long-lived device allocating many buffers must never produce a
  // global id that aliases a shared id in the race log.
  GpuDevice Dev;
  std::vector<GpuDevice::Buffer<char>> Keep;
  for (int I = 0; I != 4096; ++I) {
    Keep.push_back(Dev.alloc<char>(1));
    ASSERT_LT(Keep.back().id(), detail::FirstSharedBufferId);
  }
  // And the detector keeps shared accesses of high-linear blocks apart
  // from every global buffer: no cross-aliased false race.
  Dev.setRaceDetection(true);
  auto Out = Dev.alloc<int>(4096);
  launchPhases(
      Dev, Dim3{4096}, Dim3{1}, sizeof(int),
      [](BlockCtx &B, ThreadCtx &) {
        B.sharedStore<int>(0, 0, static_cast<int>(B.X));
      },
      [Out](BlockCtx &B, ThreadCtx &) {
        Out.store(B, B.X, B.sharedLoad<int>(0, 0));
      });
  EXPECT_TRUE(Dev.findRaces().empty());
}

//===----------------------------------------------------------------------===//
// DESCEND_WORKERS parsing (hardened env handling)
//===----------------------------------------------------------------------===//

TEST(WorkerEnv, ValidCountsParse) {
  std::string W;
  EXPECT_EQ(detail::parseWorkerCount("1", &W), 1u);
  EXPECT_TRUE(W.empty());
  EXPECT_EQ(detail::parseWorkerCount("8", &W), 8u);
  EXPECT_TRUE(W.empty());
  EXPECT_EQ(detail::parseWorkerCount("4096", &W), 4096u);
  EXPECT_TRUE(W.empty());
}

TEST(WorkerEnv, UnsetMeansDefaultWithoutWarning) {
  std::string W;
  EXPECT_EQ(detail::parseWorkerCount(nullptr, &W), 0u);
  EXPECT_TRUE(W.empty());
}

TEST(WorkerEnv, GarbageFallsBackWithWarning) {
  for (const char *Bad : {"", "abc", "4x", "x4", "1.5", " 2", "2 "}) {
    std::string W;
    EXPECT_EQ(detail::parseWorkerCount(Bad, &W), 0u) << "input: " << Bad;
    EXPECT_NE(W.find("is not a number"), std::string::npos)
        << "input: " << Bad << " warning: " << W;
    EXPECT_NE(W.find("DESCEND_WORKERS"), std::string::npos);
  }
}

TEST(WorkerEnv, ZeroNegativeAndHugeFallBackWithWarning) {
  for (const char *Bad : {"0", "-1", "-4096", "4097", "99999999999999999999"}) {
    std::string W;
    EXPECT_EQ(detail::parseWorkerCount(Bad, &W), 0u) << "input: " << Bad;
    EXPECT_NE(W.find("out of range"), std::string::npos)
        << "input: " << Bad << " warning: " << W;
  }
}

} // namespace
