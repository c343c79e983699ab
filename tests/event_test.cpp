//===- tests/event_test.cpp - Event and launch-graph tests ------------------===//
//
// Exercises the cross-stream dependency primitives and the capture/replay
// subsystem: Stream::record / Stream::wait fan-out-and-rejoin (including
// the parked-pump resumption under real parallelism — part of the
// ThreadSanitizer CI stress set), the CUDA-matching event edge cases
// (wait-before-record, re-record re-arming, reuse across streams,
// destruction with pending waiters), graph capture -> replay over fixed
// buffers, and the hardened DESCEND_WORKERS and DESCEND_TRACE parses (the
// same strictness discipline).
//
//===----------------------------------------------------------------------===//

#include "obs/Trace.h"
#include "runtime/HostRuntime.h"
#include "sim/Sim.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

using namespace descend::sim;

namespace {

/// One enqueued launch adding \p V to every element of \p Buf.
void enqueueAdd(Stream &S, GpuDevice &Dev, GpuDevice::Buffer<double> Buf,
                double V, unsigned Blocks = 4, unsigned Threads = 32) {
  S.enqueue([&Dev, Buf, V, Blocks, Threads] {
    launchPhases(Dev, Dim3{Blocks}, Dim3{Threads}, 0,
                 [Buf, V](BlockCtx &B, ThreadCtx &T) {
                   size_t I = B.X * B.BlockDim.X + T.X;
                   Buf.store(B, I, Buf.load(B, I) + V);
                 });
  });
}

//===----------------------------------------------------------------------===//
// Events
//===----------------------------------------------------------------------===//

TEST(Event, FanOutAndRejoinOrdersAcrossStreams) {
  // Producer writes, records; consumer waits on the event, then reads —
  // without either stream draining the device. Only the event edge makes
  // the final value well-defined.
  GpuDevice Dev;
  Dev.setWorkers(4);
  auto Buf = Dev.alloc<double>(128);
  for (int Round = 0; Round != 50; ++Round) {
    Stream Producer(Dev), Consumer(Dev);
    Event Done;
    enqueueAdd(Producer, Dev, Buf, 1.0);
    Producer.record(Done);
    Consumer.wait(Done);
    enqueueAdd(Consumer, Dev, Buf, 1.0);
    Consumer.synchronize();
    Producer.synchronize();
  }
  for (size_t I = 0; I != 128; ++I)
    EXPECT_EQ(Buf.data()[I], 100.0);
}

TEST(Event, WaitBeforeRecordIsANoOp) {
  // CUDA semantics: waiting on a never-recorded event does not block.
  GpuDevice Dev;
  Dev.setWorkers(2);
  Stream S(Dev);
  Event Never;
  EXPECT_TRUE(Never.query());
  S.wait(Never); // must not deadlock
  auto Buf = Dev.alloc<int>(32);
  S.enqueue([&Dev, Buf] {
    launchPhases(Dev, Dim3{1}, Dim3{32}, 0,
                 [Buf](BlockCtx &B, ThreadCtx &T) { Buf.store(B, T.X, 7); });
  });
  S.synchronize();
  for (size_t I = 0; I != 32; ++I)
    EXPECT_EQ(Buf.data()[I], 7);
}

TEST(Event, DoubleRecordReArmsToTheLatestSnapshot) {
  // Re-recording moves the event forward: a wait targets the latest
  // record at wait time, and synchronize() joins the newest generation.
  GpuDevice Dev;
  Dev.setWorkers(2);
  Stream S(Dev);
  Event E;
  std::atomic<int> Stage{0};
  S.enqueue([&Stage] { Stage = 1; });
  S.record(E);
  E.synchronize();
  EXPECT_EQ(Stage.load(), 1);
  EXPECT_TRUE(E.query());
  S.enqueue([&Stage] { Stage = 2; });
  S.record(E); // re-arm
  E.synchronize();
  EXPECT_EQ(Stage.load(), 2);
  EXPECT_TRUE(E.query());
  S.synchronize();
}

TEST(Event, ReusedAcrossStreamsAndCopies) {
  // An Event is a shared handle: copies observe the same state, and one
  // event can gate several consumer streams at once.
  GpuDevice Dev;
  Dev.setWorkers(4);
  auto Buf = Dev.alloc<double>(128);
  Stream Producer(Dev);
  enqueueAdd(Producer, Dev, Buf, 5.0);
  Event Done;
  Producer.record(Done);
  Event Copy = Done; // same underlying state
  std::vector<double> Seen(3, 0.0);
  {
    std::vector<std::unique_ptr<Stream>> Consumers;
    for (int I = 0; I != 3; ++I)
      Consumers.push_back(std::make_unique<Stream>(Dev));
    for (int I = 0; I != 3; ++I) {
      Consumers[I]->wait(I % 2 ? Copy : Done);
      double *Slot = &Seen[I];
      Consumers[I]->enqueue([Buf, Slot] { *Slot = Buf.data()[0]; });
    }
    for (auto &C : Consumers)
      C->synchronize();
  }
  for (int I = 0; I != 3; ++I)
    EXPECT_EQ(Seen[I], 5.0) << "consumer " << I;
  Producer.synchronize();
  EXPECT_TRUE(Copy.query());
}

TEST(Event, StreamDestructionWithPendingWaitersJoins) {
  // A stream destroyed while parked on an event must block in its
  // destructor until the event fires, then run its remaining ops — no
  // dropped work, no use-after-free of the stream's queue.
  GpuDevice Dev;
  Dev.setWorkers(4);
  auto Buf = Dev.alloc<int>(32);
  for (int Round = 0; Round != 50; ++Round) {
    Stream Producer(Dev);
    Event Gate;
    std::atomic<bool> Released{false};
    Producer.enqueue([&Released] {
      while (!Released.load())
        std::this_thread::yield();
    });
    Producer.record(Gate);
    {
      Stream Waiter(Dev);
      Waiter.wait(Gate);
      Waiter.enqueue([&Dev, Buf, Round] {
        launchPhases(Dev, Dim3{1}, Dim3{32}, 0,
                     [Buf, Round](BlockCtx &B, ThreadCtx &T) {
                       Buf.store(B, T.X, Round + 1);
                     });
      });
      Released = true;
    } // ~Waiter: must wait out the parked event edge, then launch
    Producer.synchronize();
    for (size_t I = 0; I != 32; ++I)
      ASSERT_EQ(Buf.data()[I], Round + 1) << "round " << Round;
  }
}

TEST(Event, RaceDetectionStaysInlineAndDeterministic) {
  // Under race detection the device forces one worker; record/wait must
  // keep executing inline so findRaces() sees the sequential log.
  auto RunRacy = [](GpuDevice &Dev, bool WithEvents) {
    auto Buf = Dev.alloc<double>(256);
    Stream A(Dev), B(Dev);
    Event E;
    auto Racy = [&Dev, Buf] {
      launchPhases(Dev, Dim3{1}, Dim3{256}, 0,
                   [Buf](BlockCtx &Blk, ThreadCtx &T) {
                     Buf.store(Blk, T.X, Buf.load(Blk, 255 - T.X));
                   });
    };
    if (WithEvents) {
      A.enqueue(Racy);
      A.record(E);
      EXPECT_TRUE(E.query()) << "inline record must complete immediately";
      B.wait(E); // must not deadlock on the sequential device
    } else {
      A.enqueue(Racy);
    }
    A.synchronize();
    B.synchronize();
    return Dev.findRaces();
  };
  GpuDevice Plain, Evented;
  Plain.setRaceDetection(true);
  Evented.setRaceDetection(true);
  auto RPlain = RunRacy(Plain, false);
  auto REvented = RunRacy(Evented, true);
  ASSERT_FALSE(RPlain.empty());
  ASSERT_EQ(RPlain.size(), REvented.size());
  for (size_t I = 0; I != RPlain.size(); ++I)
    EXPECT_EQ(RPlain[I].str(), REvented[I].str());
}

TEST(Event, CrossDeviceWaitFromSequentialConsumer) {
  // A sequential (1-worker) stream waiting on an event recorded by a
  // multi-worker device must block the calling thread until the recorder
  // finishes — the inline path cannot park.
  GpuDevice Producer, Consumer;
  Producer.setWorkers(4);
  Consumer.setWorkers(1);
  auto Buf = Producer.alloc<double>(64);
  Stream P(Producer), C(Consumer);
  enqueueAdd(P, Producer, Buf, 2.5, 2, 32);
  Event Done;
  P.record(Done);
  C.wait(Done);
  double Seen = -1.0;
  C.enqueue([Buf, &Seen] { Seen = Buf.data()[0]; });
  C.synchronize();
  EXPECT_EQ(Seen, 2.5);
  P.synchronize();
}

//===----------------------------------------------------------------------===//
// Launch graphs
//===----------------------------------------------------------------------===//

TEST(Graph, CaptureReplayMatchesDirectExecution) {
  // The capture allocates the device buffer once; every replay copies the
  // same host buffer in and out again.
  GpuDevice Dev;
  Dev.setWorkers(4);
  const size_t N = 4 * 32;
  descend::rt::HostBuffer<double> Host(N, 0.0);
  Stream S(Dev);
  S.beginCapture();
  EXPECT_TRUE(S.capturing());
  auto D = descend::rt::allocCopyAsync(S, Host);
  S.enqueue([&Dev, D] {
    launchPhases(Dev, Dim3{4}, Dim3{32}, 0, [D](BlockCtx &B, ThreadCtx &T) {
      size_t I = B.X * 32 + T.X;
      D.store(B, I, D.load(B, I) * 2.0 + 1.0);
    });
  });
  descend::rt::copyToHostAsync(S, Host, D);
  Graph G = S.endCapture();
  EXPECT_FALSE(S.capturing());
  EXPECT_EQ(G.opCount(), 3u);

  for (int Round = 0; Round != 4; ++Round) {
    for (size_t I = 0; I != N; ++I)
      Host[I] = static_cast<double>(I + Round);
    G.launch(S);
    S.synchronize();
    for (size_t I = 0; I != N; ++I)
      ASSERT_EQ(Host[I], static_cast<double>(I + Round) * 2.0 + 1.0)
          << "round " << Round << " index " << I;
  }
}

TEST(Graph, CaptureApiMisuseThrows) {
  GpuDevice Dev;
  Dev.setWorkers(2);
  Stream S(Dev);
  EXPECT_THROW(S.endCapture(), std::logic_error); // no beginCapture
  S.beginCapture();
  EXPECT_THROW(S.beginCapture(), std::logic_error); // nested capture
  EXPECT_THROW(S.runInline([] {}), std::logic_error); // runs, not records
  Graph G = S.endCapture();
  EXPECT_EQ(G.opCount(), 0u);
  EXPECT_THROW(Graph().launch(S), std::logic_error); // empty handle
}

TEST(Graph, EventsInsideACaptureReplayPerLaunch) {
  // record inside a capture re-arms the event at every replay (the
  // generation is minted when the node runs, not at capture time).
  GpuDevice Dev;
  Dev.setWorkers(2);
  Stream S(Dev);
  Event E;
  S.beginCapture();
  S.enqueue([] {});
  S.record(E);
  Graph G = S.endCapture();
  EXPECT_TRUE(E.query()) << "capture must not arm the event";
  for (int Round = 0; Round != 3; ++Round) {
    G.launch(S);
    S.synchronize();
    EXPECT_TRUE(E.query()) << "round " << Round;
  }
}

TEST(Graph, AThrowingNodePoisonsTheReplayingStream) {
  // Replays run on the pool, so a node's exception becomes the replaying
  // stream's sticky error; the capturing stream stays healthy.
  GpuDevice Dev;
  Dev.setWorkers(2);
  Stream Capture(Dev), Replay(Dev);
  bool Later = false;
  Capture.beginCapture();
  Capture.enqueue([] {
    throw descend::rt::Error(ErrorCode::CopyFailed, "node failed");
  });
  Capture.enqueue([&Later] { Later = true; });
  Graph G = Capture.endCapture();
  G.launch(Replay);
  Replay.synchronize();
  std::string Msg;
  EXPECT_EQ(Replay.error(&Msg), ErrorCode::CopyFailed);
  EXPECT_EQ(Msg, "node failed");
  EXPECT_FALSE(Later) << "the replay stops at the failing node";
  EXPECT_EQ(Capture.error(), ErrorCode::Ok);
  EXPECT_FALSE(Dev.poisoned()) << "a non-sticky error stays off the device";
}

TEST(Graph, CaptureUnderRaceDetectionStillReplays) {
  // Race detection forces sequential execution; capture must still
  // record (not execute inline) and the replay must produce the same
  // result as everywhere else.
  GpuDevice Dev;
  Dev.setRaceDetection(true);
  const size_t N = 32;
  descend::rt::HostBuffer<double> Host(N, 2.0);
  Stream S(Dev);
  S.beginCapture();
  auto D = descend::rt::allocCopyAsync(S, Host);
  S.enqueue([&Dev, D] {
    launchPhases(Dev, Dim3{1}, Dim3{32}, 0, [D](BlockCtx &B, ThreadCtx &T) {
      D.store(B, T.X, D.load(B, T.X) * 3.0);
    });
  });
  descend::rt::copyToHostAsync(S, Host, D);
  Graph G = S.endCapture();
  for (size_t I = 0; I != N; ++I)
    ASSERT_EQ(Host[I], 2.0) << "capture must not execute";
  G.launch(S);
  S.synchronize();
  for (size_t I = 0; I != N; ++I)
    EXPECT_EQ(Host[I], 6.0);
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

//===----------------------------------------------------------------------===//
// DESCEND_TRACE parsing (the DESCEND_WORKERS strictness discipline)
//===----------------------------------------------------------------------===//

TEST(TraceEnv, UnsetAndExplicitOffAreSilent) {
  std::string Path, W = "sentinel";
  EXPECT_FALSE(descend::obs::parseTraceEnv(nullptr, &Path, &W));
  EXPECT_TRUE(W.empty());
  EXPECT_FALSE(descend::obs::parseTraceEnv("0", &Path, &W));
  EXPECT_TRUE(W.empty());
  EXPECT_FALSE(descend::obs::parseTraceEnv("off", &Path, &W));
  EXPECT_TRUE(W.empty());
}

TEST(TraceEnv, OnSelectsTheDefaultPath) {
  for (const char *On : {"1", "on"}) {
    std::string Path, W;
    EXPECT_TRUE(descend::obs::parseTraceEnv(On, &Path, &W)) << On;
    EXPECT_EQ(Path, descend::obs::DefaultTracePath) << On;
    EXPECT_TRUE(W.empty()) << On;
  }
}

TEST(TraceEnv, CleanTokenIsTheOutputPath) {
  std::string Path, W;
  EXPECT_TRUE(descend::obs::parseTraceEnv("/tmp/my_trace.json", &Path, &W));
  EXPECT_EQ(Path, "/tmp/my_trace.json");
  EXPECT_TRUE(W.empty());
}

TEST(TraceEnv, GarbageDisablesWithWarning) {
  for (const char *Bad : {"", " ", "a b", "x\ty", "p\nq", " on", "on "}) {
    std::string Path, W;
    EXPECT_FALSE(descend::obs::parseTraceEnv(Bad, &Path, &W))
        << "input: '" << Bad << "'";
    EXPECT_NE(W.find("DESCEND_TRACE"), std::string::npos)
        << "input: '" << Bad << "' warning: " << W;
    EXPECT_NE(W.find("tracing is off"), std::string::npos) << W;
  }
}

} // namespace
