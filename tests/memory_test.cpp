//===- tests/memory_test.cpp - Ownership-scoped device memory -------------===//
//
// Device buffers die where their Descend scope ends, and the device reuses
// their memory. These tests pin the allocator (power-of-two size classes,
// free-list reuse, ids with generations, the memoryStats counters, ASan
// poisoning of freed blocks) and every consumer of hostgen's release
// statement: the vm serving the perfbench mix for 10k requests on one
// device, the generated driver called directly and on a stream, a
// generated driver captured into a user graph and replayed, handwritten
// stream drivers freeing in stream order and under a capture (the graph
// owns those buffers until its last handle and replay are gone), a
// stream-ordered free racing a host allocation (also under capture), and
// four host threads sharing one device. Runs under ASan and TSan in CI.
//
//===----------------------------------------------------------------------===//

#include "runtime/HostRuntime.h"
#include "service/CompileService.h"
#include "sim/Fault.h"
#include "sim/Sim.h"
#include "vm/Interp.h"

#include "gen_quickstart_host.h"      // scale_vec + run          (nb=8)
#include "gen_reduction_host_small.h" // reduce_small + run_small (nb=8)

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <sstream>
#include <thread>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

using namespace descend;

namespace {

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << "cannot open " << Path;
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// Compiles \p Path for the vm with `Nat = Size` through the compile
/// service, the way descendd and the serve benchmark do.
std::shared_ptr<const vm::CompiledProgram>
compileVm(service::CompileService &Svc, const std::string &Path,
          const char *Nat, long long Size, bool Vectorize = false) {
  service::CompileRequest Req;
  Req.Backend = "vm";
  Req.Source = readFile(Path);
  Req.Defines[Nat] = Size;
  Req.Passes.Vectorize = Vectorize;
  service::CompileReply Rep = Svc.compile(Req);
  EXPECT_TRUE(Rep.Ok) << Rep.Diagnostics;
  return Rep.Program;
}

//===----------------------------------------------------------------------===//
// The allocator
//===----------------------------------------------------------------------===//

TEST(DeviceMemory, IdsCountFromOneUntilSomethingIsFreed) {
  sim::GpuDevice Dev;
  auto A = Dev.alloc<double>(4);
  auto B = Dev.alloc<float>(100);
  auto C = Dev.alloc<double>(1);
  EXPECT_EQ(A.id(), 1u);
  EXPECT_EQ(B.id(), 2u);
  EXPECT_EQ(C.id(), 3u);
  EXPECT_EQ(B.device(), &Dev);
  EXPECT_EQ(sim::GpuDevice::Buffer<double>().device(), nullptr);
}

TEST(DeviceMemory, SizeClassesArePowersOfTwo) {
  sim::GpuDevice Dev;
  auto A = Dev.alloc<double>(3);   // 24 bytes -> 32
  auto B = Dev.alloc<double>(256); // 2048 bytes -> 2048
  auto C = Dev.alloc<char>(1);     // 1 byte -> the 16-byte minimum
  sim::MemoryStats S = Dev.memoryStats();
  EXPECT_EQ(S.LiveBuffers, 3u);
  EXPECT_EQ(S.LiveBytes, 24u + 2048u + 1u);
  EXPECT_EQ(S.ReservedBytes, 32u + 2048u + 16u);
  EXPECT_EQ(S.FreshAllocs, 3u);
  EXPECT_EQ(S.ReusedAllocs, 0u);
  (void)A, (void)B, (void)C;
}

TEST(DeviceMemory, FreedBlockIsReusedZeroedUnderANewId) {
  sim::GpuDevice Dev;
  auto A = Dev.alloc<double>(4);
  for (int I = 0; I != 4; ++I)
    A.data()[I] = 7.0;
  double *Block = A.data();
  const unsigned OldId = A.id();
  Dev.free(OldId);
  EXPECT_FALSE(Dev.isLive(OldId));
  EXPECT_EQ(Dev.memoryStats().LiveBuffers, 0u);
  EXPECT_EQ(Dev.memoryStats().ReservedBytes, 32u);

  // Same class (3 doubles round to 32 bytes too): same block, new id.
  auto B = Dev.alloc<double>(3);
  EXPECT_EQ(B.data(), Block);
  EXPECT_NE(B.id(), OldId);
  EXPECT_EQ(B.id() & ((1u << sim::detail::BufferSlotBits) - 1), OldId)
      << "the slot is reused with a bumped generation";
  for (int I = 0; I != 3; ++I)
    EXPECT_EQ(B.data()[I], 0.0) << I;
  EXPECT_TRUE(Dev.isLive(B.id()));

  sim::MemoryStats S = Dev.memoryStats();
  EXPECT_EQ(S.FreshAllocs, 1u);
  EXPECT_EQ(S.ReusedAllocs, 1u);
  EXPECT_EQ(S.LiveBytes, 24u);
  EXPECT_EQ(S.ReservedBytes, 32u);

  // A different class does not take the block.
  auto C = Dev.alloc<double>(5);
  EXPECT_NE(C.data(), Block);
}

TEST(DeviceMemory, StaleIdCannotFreeTheSlotsNextBuffer) {
  sim::GpuDevice Dev;
  auto A = Dev.alloc<double>(8);
  const unsigned OldId = A.id();
  Dev.free(OldId);
  auto B = Dev.alloc<double>(8); // reuses A's slot and block
  try {
    Dev.free(OldId);
    FAIL() << "a stale id must not free the slot's new buffer";
  } catch (const sim::DeviceError &E) {
    EXPECT_EQ(E.code(), sim::ErrorCode::InvalidValue);
    EXPECT_NE(std::string(E.what()).find("already freed"), std::string::npos)
        << E.what();
  }
  EXPECT_TRUE(Dev.isLive(B.id()));
  EXPECT_FALSE(Dev.poisoned());
  Dev.free(B.id());
  EXPECT_EQ(Dev.memoryStats().LiveBuffers, 0u);
}

TEST(DeviceMemory, GenerationsWrapAndTheSlotStaysInService) {
  // Slot 1 serves every incarnation; its 11-bit generation wraps after
  // 2048 of them, and the device keeps allocating.
  sim::GpuDevice Dev;
  const unsigned SlotMask = (1u << sim::detail::BufferSlotBits) - 1;
  double *Block = nullptr;
  for (unsigned I = 0; I != 2100; ++I) {
    auto B = Dev.alloc<double>(8);
    if (!Block)
      Block = B.data();
    EXPECT_EQ(B.data(), Block) << "the block is reused throughout";
    EXPECT_EQ(B.id() & SlotMask, 1u) << "incarnation " << I;
    EXPECT_EQ(B.id() >> sim::detail::BufferSlotBits, I % 2048)
        << "incarnation " << I;
    EXPECT_LT(B.id(), sim::detail::FirstSharedBufferId);
    Dev.free(B.id());
  }
  EXPECT_FALSE(Dev.poisoned());
  auto After = Dev.alloc<double>(8);
  EXPECT_TRUE(Dev.isLive(After.id()));
  sim::MemoryStats S = Dev.memoryStats();
  EXPECT_EQ(S.FreshAllocs, 1u);
  EXPECT_EQ(S.ReusedAllocs, 2100u);
  EXPECT_EQ(S.LiveBuffers, 1u);
}

#if defined(__SANITIZE_ADDRESS__)
TEST(DeviceMemory, AsanSeesFreedBlocksAndClassSlack) {
  sim::GpuDevice Dev;
  auto A = Dev.alloc<char>(100); // class 128: bytes 100..127 are slack
  char *P = A.data();
  EXPECT_FALSE(__asan_address_is_poisoned(P));
  EXPECT_FALSE(__asan_address_is_poisoned(P + 99));
  EXPECT_TRUE(__asan_address_is_poisoned(P + 120));
  Dev.free(A.id());
  EXPECT_TRUE(__asan_address_is_poisoned(P))
      << "a block on the free list must be poisoned";
  auto B = Dev.alloc<char>(72); // same class, smaller request
  ASSERT_EQ(B.data(), P);
  EXPECT_FALSE(__asan_address_is_poisoned(P + 71));
  EXPECT_TRUE(__asan_address_is_poisoned(P + 80));
}
#endif

//===----------------------------------------------------------------------===//
// The vm serving the perfbench mix
//===----------------------------------------------------------------------===//

struct ServeKind {
  std::shared_ptr<const vm::CompiledProgram> Program;
  std::vector<size_t> ArgCounts; ///< element count per host array argument
};

/// The serve mix of perfbench/perfbench.cpp: quickstart_host and
/// reduction_host at nb in {1,2,4,8}, scale2 at nb in {1,2,4} with
/// --vectorize, and matmul_host at nt=1.
std::vector<ServeKind> serveKinds(service::CompileService &Svc) {
  std::vector<ServeKind> Kinds;
  for (long long NB : {1, 2, 4, 8}) {
    size_t N = static_cast<size_t>(NB);
    Kinds.push_back(
        {compileVm(Svc, DESCEND_PROGRAM_DIR "/quickstart_host.descend", "nb",
                   NB),
         {N * 256}});
    Kinds.push_back(
        {compileVm(Svc, DESCEND_PROGRAM_DIR "/reduction_host.descend", "nb",
                   NB),
         {N * 256, N, 1}});
  }
  for (long long NB : {1, 2, 4})
    Kinds.push_back({compileVm(Svc, DESCEND_KERNEL_DIR "/scale2.descend",
                               "nb", NB, /*Vectorize=*/true),
                     {static_cast<size_t>(NB) * 512}});
  Kinds.push_back(
      {compileVm(Svc, DESCEND_PROGRAM_DIR "/matmul_host.descend", "nt", 1),
       {256, 256, 256}});
  return Kinds;
}

vm::RunStatus serveOne(sim::GpuDevice &Dev, const ServeKind &K,
                       double Fill) {
  std::vector<vm::HostVal> Args;
  for (size_t Count : K.ArgCounts)
    Args.push_back(
        vm::HostVal::array(vm::makeHostArray(ScalarKind::F64, Count, Fill)));
  return vm::runHostFn(Dev, *K.Program, *K.Program->findHostFn("main"),
                       std::move(Args));
}

TEST(DeviceMemory, VmServesTenThousandRequestsWithoutGrowing) {
  service::CompileService Svc;
  std::vector<ServeKind> Kinds = serveKinds(Svc);
  for (const ServeKind &K : Kinds)
    ASSERT_TRUE(K.Program);
  sim::GpuDevice Dev;
  Dev.setWorkers(1);
  const sim::MemoryStats Start = Dev.memoryStats();

  // One request of each kind reserves what the mix ever needs...
  for (const ServeKind &K : Kinds)
    ASSERT_TRUE(serveOne(Dev, K, 1.0).Ok);
  const sim::MemoryStats Warm = Dev.memoryStats();
  EXPECT_EQ(Warm.LiveBytes, Start.LiveBytes);

  // ...and 10k more allocate nothing new.
  const size_t Requests = 10000;
  for (size_t I = 0; I != Requests; ++I) {
    vm::RunStatus St =
        serveOne(Dev, Kinds[(I * 7) % Kinds.size()], 0.25 * (I % 5));
    ASSERT_TRUE(St.Ok) << "request " << I << ": " << St.Error;
  }
  const sim::MemoryStats End = Dev.memoryStats();
  EXPECT_EQ(End.LiveBuffers, Start.LiveBuffers);
  EXPECT_EQ(End.LiveBytes, Start.LiveBytes);
  EXPECT_EQ(End.FreshAllocs, Warm.FreshAllocs)
      << "no fresh allocation after the first request of each kind";
  EXPECT_EQ(End.ReservedBytes, Warm.ReservedBytes);
  EXPECT_GE(End.ReusedAllocs, Warm.ReusedAllocs + Requests);
}

TEST(DeviceMemory, FourHostThreadsServeOneDevice) {
  service::CompileService Svc;
  std::vector<ServeKind> Kinds = serveKinds(Svc);
  for (const ServeKind &K : Kinds)
    ASSERT_TRUE(K.Program);
  sim::GpuDevice Dev;
  Dev.setWorkers(4);
  std::atomic<int> Failures{0};
  std::vector<std::thread> Threads;
  for (int T = 0; T != 4; ++T)
    Threads.emplace_back([&, T] {
      for (size_t I = 0; I != 200; ++I)
        if (!serveOne(Dev, Kinds[(I * 5 + T) % Kinds.size()], 1.0).Ok)
          ++Failures;
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Failures.load(), 0);
  EXPECT_EQ(Dev.memoryStats().LiveBuffers, 0u);
  EXPECT_EQ(Dev.memoryStats().LiveBytes, 0u);
}

//===----------------------------------------------------------------------===//
// The generated drivers
//===----------------------------------------------------------------------===//

constexpr size_t QuickN = 8 * 256;

TEST(GeneratedDriverMemory, SyncDriverFreesAtScopeEnd) {
  sim::GpuDevice Dev;
  for (int Call = 0; Call != 10; ++Call) {
    rt::HostBuffer<double> Host(QuickN, 1.0);
    gen::run(Dev, Host);
    ASSERT_EQ(Host[0], 3.0);
    ASSERT_EQ(Dev.memoryStats().LiveBuffers, 0u) << "call " << Call;
  }
  EXPECT_EQ(Dev.memoryStats().FreshAllocs, 1u);
}

TEST(GeneratedDriverMemory, RunOnStreamFreesEveryCall) {
  sim::GpuDevice Dev;
  Dev.setWorkers(4);
  sim::Stream S(Dev);
  for (int Call = 0; Call != 10; ++Call) {
    rt::HostBuffer<double> Data(QuickN, 0.5), Partials(8, 0.0), Total(1, 0.0);
    rt::runOnStream(S, gen::run_small, Data, Partials, Total);
    ASSERT_EQ(Total[0], 0.5 * QuickN) << "call " << Call;
    ASSERT_EQ(Dev.memoryStats().LiveBuffers, 0u) << "call " << Call;
    ASSERT_EQ(Dev.memoryStats().LiveBytes, 0u) << "call " << Call;
  }
  EXPECT_EQ(Dev.memoryStats().FreshAllocs, 2u);
}

TEST(GeneratedDriverMemory, DriversCapturedInAUserGraph) {
  // The bench_throughput pipeline shape: generated drivers recorded into
  // one user graph. Each call is one node that re-runs the whole driver,
  // so every replay allocates, frees and runs the host tail again; after
  // the first replay the device serves every allocation from its free
  // lists.
  sim::GpuDevice Dev;
  Dev.setWorkers(4);
  rt::HostBuffer<double> Vec(QuickN, 0.0);
  rt::HostBuffer<double> Data(QuickN, 0.0), Partials(8, 0.0), Total(1, 0.0);
  sim::Stream S(Dev);
  S.beginCapture();
  rt::runOnStream(S, gen::run, Vec);
  rt::runOnStream(S, gen::run_small, Data, Partials, Total);
  sim::Graph G = S.endCapture();
  EXPECT_EQ(G.opCount(), 2u) << "one node per driver call";
  EXPECT_EQ(Dev.memoryStats().FreshAllocs, 0u) << "capture allocates nothing";
  sim::MemoryStats First;
  for (int Replay = 0; Replay != 100; ++Replay) {
    for (size_t I = 0; I != QuickN; ++I) {
      Vec[I] = static_cast<double>(I % 17 + Replay);
      Data[I] = 0.25 * static_cast<double>(Replay % 4 + 1);
    }
    G.launch(S);
    S.synchronize();
    ASSERT_EQ(S.error(), sim::ErrorCode::Ok);
    for (size_t I = 0; I != QuickN; ++I)
      ASSERT_EQ(Vec[I], 3.0 * static_cast<double>(I % 17 + Replay))
          << "replay " << Replay << " element " << I;
    for (size_t B = 0; B != 8; ++B)
      ASSERT_EQ(Partials[B], 256 * 0.25 * (Replay % 4 + 1))
          << "replay " << Replay << " block " << B;
    // The host tail replays too: no hand patch of Total.
    ASSERT_EQ(Total[0], QuickN * 0.25 * (Replay % 4 + 1))
        << "replay " << Replay;
    const sim::MemoryStats Now = Dev.memoryStats();
    ASSERT_EQ(Now.LiveBuffers, 0u) << "replay " << Replay;
    if (Replay == 0)
      First = Now;
    ASSERT_EQ(Now.FreshAllocs, First.FreshAllocs)
        << "fresh allocation in replay " << Replay;
  }
  EXPECT_GT(First.FreshAllocs, 0u);
}

//===----------------------------------------------------------------------===//
// Handwritten stream drivers
//===----------------------------------------------------------------------===//

// quickstart and the reduction written by hand against the rt::*Async
// API, one stream operation per step (bench_throughput's pipeline has the
// same shape): alloc-copy, enqueued launch, copy-to-host and a
// stream-ordered free per device buffer; the reduction joins before its
// host tail. Under capture they record 3 and 4 nodes, and their frees
// hand the buffers to the graph.

void quickstartAsync(sim::Stream &S, rt::HostBuffer<double> &Vec) {
  sim::GpuDevice &Dev = S.device();
  auto D = rt::allocCopyAsync(S, Vec);
  S.enqueue([&Dev, D] { gen::scale_vec(Dev, D); });
  rt::copyToHostAsync(S, Vec, D);
  rt::freeAsync(S, D);
}

void reductionAsync(sim::Stream &S, rt::HostBuffer<double> &Data,
                    rt::HostBuffer<double> &Partials,
                    rt::HostBuffer<double> &Total) {
  sim::GpuDevice &Dev = S.device();
  auto In = rt::allocCopyAsync(S, Data);
  auto Out = rt::allocCopyAsync(S, Partials);
  S.enqueue([&Dev, In, Out] { gen::reduce_small(Dev, In, Out); });
  rt::copyToHostAsync(S, Partials, Out);
  S.synchronize();
  Total[0] = 0.0;
  for (size_t I = 0; I != Partials.size(); ++I)
    Total[0] += Partials[I];
  rt::freeAsync(S, Out);
  rt::freeAsync(S, In);
}

/// The pipeline's inputs for replay \p Replay.
void fillPipeline(int Replay, rt::HostBuffer<double> &Vec,
                  rt::HostBuffer<double> &Data) {
  for (size_t I = 0; I != QuickN; ++I) {
    Vec[I] = static_cast<double>(I % 17 + Replay);
    Data[I] = 0.25 * static_cast<double>(Replay % 4 + 1);
  }
}

/// Whether the device work of replay \p Replay ran on its inputs.
::testing::AssertionResult pipelineRan(int Replay,
                                       const rt::HostBuffer<double> &Vec,
                                       const rt::HostBuffer<double> &Partials) {
  for (size_t I = 0; I != QuickN; ++I)
    if (Vec[I] != 3.0 * static_cast<double>(I % 17 + Replay))
      return ::testing::AssertionFailure()
             << "replay " << Replay << " element " << I << ": " << Vec[I];
  for (size_t B = 0; B != 8; ++B)
    if (Partials[B] != 256 * 0.25 * (Replay % 4 + 1))
      return ::testing::AssertionFailure()
             << "replay " << Replay << " block " << B << ": " << Partials[B];
  return ::testing::AssertionSuccess();
}

TEST(GeneratedDriverMemory, StreamDriverFreesInStreamOrder) {
  sim::GpuDevice Dev;
  Dev.setWorkers(4);
  sim::Stream S(Dev);
  for (int Call = 0; Call != 10; ++Call) {
    rt::HostBuffer<double> Data(QuickN, 0.5), Partials(8, 0.0), Total(1, 0.0);
    reductionAsync(S, Data, Partials, Total);
    ASSERT_EQ(Total[0], 0.5 * QuickN) << "call " << Call;
  }
  S.synchronize(); // a driver may return with its frees still queued
  EXPECT_EQ(Dev.memoryStats().LiveBuffers, 0u);
}

TEST(GeneratedDriverMemory, StreamDriversCapturedInAUserGraph) {
  // The bench_throughput pipeline: stream drivers run inside a user
  // capture. Their frees move the buffers to the graph instead of
  // recording a node, so 100 replays free nothing (a recorded free would
  // free on the first replay and again on the second).
  sim::GpuDevice Dev;
  Dev.setWorkers(4);
  const sim::MemoryStats Start = Dev.memoryStats();
  rt::HostBuffer<double> Vec(QuickN, 0.0);
  rt::HostBuffer<double> Data(QuickN, 0.0), Partials(8, 0.0), Total(1, 0.0);
  {
    sim::Stream S(Dev);
    sim::Graph Captured;
    S.beginCapture();
    quickstartAsync(S, Vec);
    reductionAsync(S, Data, Partials, Total);
    Captured = S.endCapture();
    EXPECT_EQ(Captured.opCount(), 3u + 4u) << "a free is no graph node";
    EXPECT_EQ(Dev.memoryStats().LiveBuffers, 3u);
    for (int Replay = 0; Replay != 100; ++Replay) {
      fillPipeline(Replay, Vec, Data);
      Captured.launch(S);
      S.synchronize();
      ASSERT_EQ(S.error(), sim::ErrorCode::Ok);
      ASSERT_TRUE(pipelineRan(Replay, Vec, Partials));
    }
    EXPECT_EQ(Dev.memoryStats().LiveBuffers, 3u);
    EXPECT_EQ(Dev.memoryStats().FreshAllocs, 3u);
  } // the Graph and the stream die here
  EXPECT_EQ(Dev.memoryStats().LiveBuffers, Start.LiveBuffers);
  EXPECT_EQ(Dev.memoryStats().LiveBytes, Start.LiveBytes);

  // A replay still queued when the last Graph handle dies keeps the
  // graph's buffers until it has run, and frees them after.
  sim::Stream S(Dev);
  S.beginCapture();
  quickstartAsync(S, Vec);
  reductionAsync(S, Data, Partials, Total);
  sim::Graph Captured = S.endCapture();
  std::atomic<bool> Go{false};
  S.enqueue([&Go] {
    while (!Go.load(std::memory_order_acquire))
      std::this_thread::yield();
  });
  fillPipeline(100, Vec, Data);
  Captured.launch(S);
  Captured = sim::Graph(); // the replay is queued behind the gate
  EXPECT_EQ(Dev.memoryStats().LiveBuffers, 3u);
  Go.store(true, std::memory_order_release);
  S.synchronize();
  ASSERT_EQ(S.error(), sim::ErrorCode::Ok);
  EXPECT_TRUE(pipelineRan(100, Vec, Partials));
  EXPECT_EQ(Dev.memoryStats().LiveBuffers, Start.LiveBuffers);
  EXPECT_EQ(Dev.memoryStats().LiveBytes, Start.LiveBytes);
  EXPECT_EQ(Dev.memoryStats().FreshAllocs, 3u) << "the free lists served it";
}

//===----------------------------------------------------------------------===//
// Stream order
//===----------------------------------------------------------------------===//

/// Arms a fault plan for one test and disarms it on every exit path.
struct FaultGuard {
  explicit FaultGuard(const char *Text) {
    sim::FaultPlan Plan;
    EXPECT_TRUE(sim::FaultPlan::parse(Text, Plan));
    sim::FaultInjector::global().setPlanForTest(Plan);
  }
  ~FaultGuard() {
    sim::FaultInjector::global().setPlanForTest(sim::FaultPlan{});
  }
};

TEST(StreamFree, HostAllocationBeforeTheFreeRunsGetsFreshMemory) {
  FaultGuard Faults("delay:worker=1:ms=2");
  {
    sim::GpuDevice Dev;
    Dev.setWorkers(4);
    const size_t N = 1024;
    auto X = Dev.alloc<double>(N);
    double *XMem = X.data();
    std::atomic<bool> Gate{false};
    double Seen = 0.0;
    sim::Stream A(Dev);
    // A slow launch on X: the stream cannot reach the free before the
    // host opens the gate.
    A.enqueue([&] {
      while (!Gate.load())
        std::this_thread::yield();
      sim::launchPhases(Dev, sim::Dim3{4}, sim::Dim3{256}, 0,
                        [&](sim::BlockCtx &B, sim::ThreadCtx &T) {
                          X.store(B, B.X * 256 + T.X, 1.5);
                        });
      Seen = XMem[N - 1];
    });
    rt::freeAsync(A, X);
    EXPECT_FALSE(Dev.isLive(X.id())) << "the id dies at the call";
    EXPECT_THROW(rt::freeAsync(A, X), rt::Error);

    // X is still in flight, so a same-sized host allocation must not
    // get its memory.
    auto Y = Dev.alloc<double>(N);
    EXPECT_NE(Y.data(), XMem);
    EXPECT_EQ(Dev.memoryStats().LiveBuffers, 2u);

    Gate = true;
    A.synchronize();
    EXPECT_EQ(A.error(), sim::ErrorCode::Ok);
    EXPECT_EQ(Seen, 1.5) << "the launch ran before the free";
    EXPECT_EQ(Dev.memoryStats().LiveBuffers, 1u);
    auto Z = Dev.alloc<double>(N);
    EXPECT_EQ(Z.data(), XMem) << "once the free ran, the block is reused";
    EXPECT_EQ(Z.data()[N - 1], 0.0);
  }
}

TEST(StreamFree, FreeUnderCaptureWaitsForWorkBeforeTheCapture) {
  // The captured graph owns X and frees it when it dies, which may be
  // right after endCapture; a launch enqueued before the capture must
  // not write into whatever allocation gets X's block next.
  sim::GpuDevice Dev;
  Dev.setWorkers(4);
  const size_t N = 1024;
  auto X = Dev.alloc<double>(N);
  double *XMem = X.data();
  std::atomic<bool> Gate{false}, LaunchDone{false};
  sim::Stream A(Dev);
  A.enqueue([&] {
    while (!Gate.load())
      std::this_thread::yield();
    sim::launchPhases(Dev, sim::Dim3{4}, sim::Dim3{256}, 0,
                      [&](sim::BlockCtx &B, sim::ThreadCtx &T) {
                        X.store(B, B.X * 256 + T.X, 1.5);
                      });
    LaunchDone = true;
  });
  std::thread Opener([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    Gate = true;
  });
  {
    A.beginCapture();
    rt::freeAsync(A, X);
    sim::Graph G = A.endCapture();
    EXPECT_TRUE(LaunchDone.load())
        << "endCapture returned before the pre-capture launch ran";
  } // the graph dies and frees X
  auto Y = Dev.alloc<double>(N);
  EXPECT_EQ(Y.data(), XMem);
  Opener.join();
  A.synchronize();
  EXPECT_EQ(A.error(), sim::ErrorCode::Ok);
  for (size_t I = 0; I != N; ++I)
    ASSERT_EQ(Y.data()[I], 0.0) << "element " << I;
  EXPECT_EQ(Dev.memoryStats().LiveBuffers, 1u);
}

TEST(StreamFree, PoisonedStreamStillReturnsTheMemory) {
  sim::GpuDevice Dev;
  Dev.setWorkers(2);
  sim::Stream S(Dev);
  auto X = Dev.alloc<double>(64);
  Dev.setDeviceError(sim::ErrorCode::KernelTrap, "test trap");
  S.poison(sim::ErrorCode::KernelTrap, "test trap");
  EXPECT_THROW(S.enqueue([] {}), rt::Error);
  rt::freeAsync(S, X); // no fail-fast for a free
  S.synchronize();
  EXPECT_EQ(Dev.memoryStats().LiveBuffers, 0u);
}

TEST(StreamFree, AbandonedCaptureReturnsWhatItOwned) {
  sim::GpuDevice Dev;
  {
    sim::Stream S(Dev);
    auto X = Dev.alloc<double>(64);
    S.beginCapture();
    rt::freeAsync(S, X);
    EXPECT_EQ(Dev.memoryStats().LiveBuffers, 1u);
  } // destroyed mid-capture
  EXPECT_EQ(Dev.memoryStats().LiveBuffers, 0u);
}

} // namespace
