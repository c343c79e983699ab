//===- tests/memory_test.cpp - Ownership-scoped device memory -------------===//
//
// Device buffers die where their Descend scope ends, and the device reuses
// their memory. These tests pin the allocator (power-of-two size classes,
// free-list reuse, ids with generations, the memoryStats counters, ASan
// poisoning of freed blocks) and every consumer of hostgen's release
// statement: the vm serving the perfbench mix for 10k requests on one
// device, the generated driver called directly, and four host threads
// sharing one device. Runs under ASan and TSan in CI.
//
//===----------------------------------------------------------------------===//

#include "runtime/HostRuntime.h"
#include "service/CompileService.h"
#include "sim/Sim.h"
#include "vm/Interp.h"

#include "gen_quickstart_host.h" // scale_vec + run (nb=8)

#include <gtest/gtest.h>

#include <atomic>
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

} // namespace
