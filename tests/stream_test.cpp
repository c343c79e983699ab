//===- tests/stream_test.cpp - Worker pool and stream tests -----------------===//
//
// Exercises the persistent execution engine: the worker pool reused
// across launches, chunked block claiming on large grids, setWorkers
// resizing, and the CUDA-style streams — in-order execution per stream,
// overlap across streams, synchronize/deviceSynchronize joins, and the
// sequential determinism race detection relies on. The stress tests here
// are what the ThreadSanitizer CI job hammers.
//
//===----------------------------------------------------------------------===//

#include "runtime/HostRuntime.h"
#include "sim/Sim.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

using namespace descend::sim;

namespace {

/// The per-stream workload of the stress tests: Rounds ping-pong rounds
/// of "scale by 2, then add the block index", each round one launch that
/// reads Buf and writes it back. In-order per-stream execution is what
/// makes the result well-defined.
void pingPongRounds(GpuDevice &Dev, GpuDevice::Buffer<double> Buf,
                    unsigned Blocks, unsigned Threads, int Rounds,
                    Stream *S) {
  for (int R = 0; R != Rounds; ++R) {
    auto Launch = [&Dev, Buf, Blocks, Threads] {
      launchPhases(Dev, Dim3{Blocks}, Dim3{Threads}, 0,
                   [Buf](BlockCtx &B, ThreadCtx &T) {
                     size_t I = B.X * B.BlockDim.X + T.X;
                     Buf.store(B, I, Buf.load(B, I) * 2.0 + B.X);
                   });
    };
    if (S)
      S->enqueue(Launch);
    else
      Launch();
  }
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

TEST(Stream, OpsRunInOrderWithinAStream) {
  // Launch 1 writes, launch 2 reads what launch 1 wrote, the copy reads
  // what launch 2 wrote: only in-order execution gives the final value.
  GpuDevice Dev;
  Dev.setWorkers(4);
  auto Buf = Dev.alloc<double>(128);
  descend::rt::HostBuffer<double> Host(128, 0.0);
  {
    Stream S(Dev);
    S.enqueue([&Dev, Buf] {
      launchPhases(Dev, Dim3{4}, Dim3{32}, 0,
                   [Buf](BlockCtx &B, ThreadCtx &T) {
                     Buf.store(B, B.X * 32 + T.X, 3.0);
                   });
    });
    S.enqueue([&Dev, Buf] {
      launchPhases(Dev, Dim3{4}, Dim3{32}, 0,
                   [Buf](BlockCtx &B, ThreadCtx &T) {
                     size_t I = B.X * 32 + T.X;
                     Buf.store(B, I, Buf.load(B, I) * 7.0);
                   });
    });
    descend::rt::copyToHostAsync(S, Host, Buf);
    S.synchronize();
  }
  for (size_t I = 0; I != 128; ++I)
    EXPECT_EQ(Host[I], 21.0);
}

TEST(Stream, LaunchEnqueuesPhasePrograms) {
  GpuDevice Dev;
  Dev.setWorkers(4);
  auto Out = Dev.alloc<long long>(64);
  Stream S(Dev);
  for (int R = 0; R != 3; ++R) {
    PhaseProgram Prog;
    Prog.loopBegin(0, 0, 5);
    Prog.straight([Out](BlockCtx &B, ThreadCtx &T) {
      size_t I = B.X * 32 + T.X;
      Out.store(B, I, Out.load(B, I) + B.loopVar(0));
    });
    Prog.loopEnd();
    S.launch(Dim3{2}, Dim3{32}, 0, std::move(Prog));
  }
  S.synchronize();
  for (int I = 0; I != 64; ++I)
    EXPECT_EQ(Out.data()[I], 3 * (0 + 1 + 2 + 3 + 4));
}

TEST(Stream, DestructorSynchronizes) {
  GpuDevice Dev;
  Dev.setWorkers(4);
  auto Buf = Dev.alloc<int>(32);
  {
    Stream S(Dev);
    S.enqueue([&Dev, Buf] {
      launchPhases(Dev, Dim3{1}, Dim3{32}, 0,
                   [Buf](BlockCtx &B, ThreadCtx &T) {
                     Buf.store(B, T.X, 9);
                   });
    });
  } // ~Stream joins
  for (size_t I = 0; I != 32; ++I)
    EXPECT_EQ(Buf.data()[I], 9);
}

TEST(Stream, DeviceSynchronizeJoinsAllStreams) {
  GpuDevice Dev;
  Dev.setWorkers(4);
  auto A = Dev.alloc<int>(64);
  auto B2 = Dev.alloc<int>(64);
  Stream SA(Dev), SB(Dev);
  auto Fill = [&Dev](GpuDevice::Buffer<int> Buf, int V) {
    return [&Dev, Buf, V] {
      launchPhases(Dev, Dim3{2}, Dim3{32}, 0,
                   [Buf, V](BlockCtx &B, ThreadCtx &T) {
                     Buf.store(B, B.X * 32 + T.X, V);
                   });
    };
  };
  SA.enqueue(Fill(A, 1));
  SB.enqueue(Fill(B2, 2));
  Dev.deviceSynchronize();
  for (size_t I = 0; I != 64; ++I) {
    EXPECT_EQ(A.data()[I], 1);
    EXPECT_EQ(B2.data()[I], 2);
  }
}

TEST(Stream, AsyncHostRuntimeRoundTrip) {
  GpuDevice Dev;
  Dev.setWorkers(4);
  descend::rt::HostBuffer<double> In(256, 0.0), Out(256, -1.0);
  for (size_t I = 0; I != 256; ++I)
    In[I] = static_cast<double>(I);
  Stream S(Dev);
  auto Buf = descend::rt::allocCopyAsync(S, In);
  S.enqueue([&Dev, Buf] {
    launchPhases(Dev, Dim3{8}, Dim3{32}, 0,
                 [Buf](BlockCtx &B, ThreadCtx &T) {
                   size_t I = B.X * 32 + T.X;
                   Buf.store(B, I, Buf.load(B, I) + 0.5);
                 });
  });
  descend::rt::copyToHostAsync(S, Out, Buf);
  S.synchronize();
  for (size_t I = 0; I != 256; ++I)
    EXPECT_EQ(Out[I], static_cast<double>(I) + 0.5);
}

TEST(Stream, AsyncCopySizeMismatchThrowsAtEnqueue) {
  GpuDevice Dev;
  Dev.setWorkers(2);
  auto Buf = Dev.alloc<double>(16);
  descend::rt::HostBuffer<double> Wrong(8, 0.0);
  Stream S(Dev);
  EXPECT_THROW(descend::rt::copyToHostAsync(S, Wrong, Buf),
               std::runtime_error);
  EXPECT_THROW(descend::rt::copyToGpuAsync(S, Buf, Wrong),
               std::runtime_error);
}

TEST(Stream, InterleavedMultiStreamStressMatchesSequential) {
  // The satellite stress test: four streams hammer one device with
  // interleaved launches (each stream owns its buffer; streams only
  // order their own work), then the results are checked against the
  // sequential, stream-less reference.
  const unsigned Blocks = 16, Threads = 32;
  const size_t N = Blocks * Threads;
  const int Rounds = 64;
  const int NumStreams = 4;

  auto Fill = [N](double *P, int SIdx) {
    for (size_t I = 0; I != N; ++I)
      P[I] = static_cast<double>((I * 13 + SIdx * 7) % 101) * 0.125;
  };

  // Sequential reference.
  GpuDevice Ref;
  Ref.setWorkers(1);
  std::vector<GpuDevice::Buffer<double>> RefBufs;
  for (int SI = 0; SI != NumStreams; ++SI) {
    RefBufs.push_back(Ref.alloc<double>(N));
    Fill(RefBufs.back().data(), SI);
    pingPongRounds(Ref, RefBufs.back(), Blocks, Threads, Rounds, nullptr);
  }

  // Stressed device: interleave the enqueues round-robin across streams
  // from several host threads, so enqueue-side locking is exercised too.
  GpuDevice Dev;
  Dev.setWorkers(4);
  std::vector<GpuDevice::Buffer<double>> Bufs;
  for (int SI = 0; SI != NumStreams; ++SI) {
    Bufs.push_back(Dev.alloc<double>(N));
    Fill(Bufs.back().data(), SI);
  }
  {
    std::vector<std::unique_ptr<Stream>> Streams;
    for (int SI = 0; SI != NumStreams; ++SI)
      Streams.push_back(std::make_unique<Stream>(Dev));
    std::atomic<bool> ScratchOk{true};
    std::vector<std::thread> Issuers;
    for (int SI = 0; SI != NumStreams; ++SI)
      Issuers.emplace_back([&, SI] {
        // Host threads also allocate against the shared device while
        // other streams are in flight (allocRaw must be thread-safe).
        descend::rt::HostBuffer<double> Scratch(64, SI + 0.5);
        auto DScratch = descend::rt::allocCopyAsync(*Streams[SI], Scratch);
        pingPongRounds(Dev, Bufs[SI], Blocks, Threads, Rounds,
                       Streams[SI].get());
        descend::rt::copyToHostAsync(*Streams[SI], Scratch, DScratch);
        Streams[SI]->synchronize();
        for (size_t I = 0; I != Scratch.size(); ++I)
          if (Scratch[I] != SI + 0.5)
            ScratchOk = false;
      });
    for (std::thread &T : Issuers)
      T.join();
    for (auto &S : Streams)
      S->synchronize();
    EXPECT_TRUE(ScratchOk.load());
  }

  for (int SI = 0; SI != NumStreams; ++SI)
    for (size_t I = 0; I != N; ++I)
      ASSERT_EQ(Bufs[SI].data()[I], RefBufs[SI].data()[I])
          << "stream " << SI << " index " << I;
}

TEST(Stream, RaceDetectionKeepsSequentialDeterminism) {
  // With race detection on, the device forces one worker and stream ops
  // run inline: findRaces() must see exactly what a synchronous launch
  // produces (the H1-H4-style fixtures depend on this determinism).
  auto RunRacy = [](GpuDevice &Dev, bool ViaStream) {
    auto Buf = Dev.alloc<double>(256);
    auto Racy = [&Dev, Buf] {
      launchPhases(Dev, Dim3{1}, Dim3{256}, 0,
                   [Buf](BlockCtx &B, ThreadCtx &T) {
                     Buf.store(B, T.X, Buf.load(B, 255 - T.X));
                   });
    };
    if (ViaStream) {
      Stream S(Dev);
      S.enqueue(Racy);
      S.synchronize();
    } else {
      Racy();
    }
    return Dev.findRaces();
  };
  GpuDevice Direct, Streamed;
  Direct.setRaceDetection(true);
  Streamed.setRaceDetection(true);
  auto RacesDirect = RunRacy(Direct, false);
  auto RacesStreamed = RunRacy(Streamed, true);
  ASSERT_FALSE(RacesDirect.empty());
  ASSERT_EQ(RacesDirect.size(), RacesStreamed.size());
  for (size_t I = 0; I != RacesDirect.size(); ++I)
    EXPECT_EQ(RacesDirect[I].str(), RacesStreamed[I].str());
}

TEST(Stream, GeneratedStyleStreamDriverMatchesSyncDriver) {
  // A driver written by hand against the rt::*Async API (the calls
  // bench_throughput's replay gate is made of): async transfers, an
  // enqueued launch, a single join — must be bit-identical to the
  // synchronous rt:: sequence.
  const size_t N = 8 * 32;
  auto Kernel = [](GpuDevice &Dev, GpuDevice::Buffer<double> Buf) {
    launchPhases(Dev, Dim3{8}, Dim3{32}, 0,
                 [Buf](BlockCtx &B, ThreadCtx &T) {
                   size_t I = B.X * 32 + T.X;
                   Buf.store(B, I, Buf.load(B, I) * 3.0);
                 });
  };

  GpuDevice DevSync;
  DevSync.setWorkers(4);
  descend::rt::HostBuffer<double> HostSync(N, 0.0);
  for (size_t I = 0; I != N; ++I)
    HostSync[I] = static_cast<double>(I) * 0.5;
  auto DSync = descend::rt::allocCopy(DevSync, HostSync);
  Kernel(DevSync, DSync);
  descend::rt::copyToHost(HostSync, DSync);

  GpuDevice DevStream;
  DevStream.setWorkers(4);
  descend::rt::HostBuffer<double> HostStream(N, 0.0);
  for (size_t I = 0; I != N; ++I)
    HostStream[I] = static_cast<double>(I) * 0.5;
  {
    Stream S(DevStream);
    auto D = descend::rt::allocCopyAsync(S, HostStream);
    S.enqueue([&DevStream, D, &Kernel] { Kernel(DevStream, D); });
    descend::rt::copyToHostAsync(S, HostStream, D);
    S.synchronize();
  }

  for (size_t I = 0; I != N; ++I)
    EXPECT_EQ(HostSync[I], HostStream[I]);
}

TEST(Stream, QueryPollsCompletionWithoutJoining) {
  // Satellite: non-blocking completion probes. A fresh stream is idle; a
  // stream with a gated op in flight reports busy without blocking the
  // poller; after release + synchronize it reports idle again.
  GpuDevice Dev;
  Dev.setWorkers(4);
  Stream S(Dev);
  EXPECT_TRUE(S.query()) << "fresh stream must be idle";

  std::atomic<bool> Release{false};
  Event Done;
  S.enqueue([&Release] {
    while (!Release.load())
      std::this_thread::yield();
  });
  S.record(Done);
  EXPECT_FALSE(S.query()) << "gated op still pending";
  EXPECT_FALSE(Done.query()) << "event records after the gated op";
  Release = true;
  S.synchronize();
  EXPECT_TRUE(S.query());
  EXPECT_TRUE(Done.query());

  // Poll-until-done is the intended use.
  std::atomic<bool> Release2{false};
  S.enqueue([&Release2] {
    while (!Release2.load())
      std::this_thread::yield();
  });
  EXPECT_FALSE(S.query());
  Release2 = true;
  while (!S.query())
    std::this_thread::yield();
  EXPECT_TRUE(S.query());
}

TEST(Stream, QueryIsAlwaysTrueOnSequentialDevices) {
  // Inline execution never leaves ops pending (the race-detector mode).
  GpuDevice Dev;
  Dev.setRaceDetection(true);
  Stream S(Dev);
  auto Buf = Dev.alloc<int>(32);
  S.enqueue([&Dev, Buf] {
    launchPhases(Dev, Dim3{1}, Dim3{32}, 0,
                 [Buf](BlockCtx &B, ThreadCtx &T) { Buf.store(B, T.X, 3); });
  });
  EXPECT_TRUE(S.query());
  Event E;
  S.record(E);
  EXPECT_TRUE(E.query());
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

} // namespace
