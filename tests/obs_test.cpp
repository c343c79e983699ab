//===- tests/obs_test.cpp - Perf counters and trace exporter ----------------===//
//
// The acceptance gate for the observability subsystem. The counter half
// pins the matmul (nt=4) profile to exact values — every load, store,
// barrier and modeled bank conflict — and proves the numbers are
// bit-identical across every execution path that can run a kernel:
// sim-generated C++ and the vm interpreter, one worker or many, race
// detection on or off. The bank-conflict model itself is unit-tested on
// handwritten phases with known access patterns. The trace half checks
// the Chrome-trace-event JSON structure and the hardened DESCEND_TRACE
// parse.
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "kir/Schedule.h"
#include "obs/Trace.h"
#include "runtime/HostRuntime.h"
#include "support/StringUtils.h"
#include "vm/Interp.h"

#include "gen_matmul_small.h"    // matmul          (nt=4)
#include "gen_quickstart_host.h" // scale_vec + run (nb=8)

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

using namespace descend;
using sim::BlockCtx;
using sim::Dim3;
using sim::ThreadCtx;

namespace {

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << "cannot open " << Path;
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

std::shared_ptr<const vm::CompiledProgram>
compileVm(const std::string &Path, std::map<std::string, long long> Defines,
          kir::PassConfig Passes = {}) {
  CompilerInvocation Inv;
  Inv.BufferName = Path;
  Inv.Defines = std::move(Defines);
  Inv.RunUntil = Stage::Typecheck;
  Session S(Inv);
  CompileResult R = S.run(readFile(Path));
  EXPECT_TRUE(R.Ok) << S.renderDiagnostics();
  if (!R.Ok)
    return nullptr;
  vm::CompileVmResult C = vm::compile(*S.module(), Passes);
  EXPECT_TRUE(C.Ok) << C.Error;
  return C.Ok ? C.Program : nullptr;
}

double fillVal(size_t I) {
  return static_cast<double>((I * 37) % 101) * 0.5 - 3.0;
}

/// Runs the generated matmul (nt=4, 64x64 doubles) on a device with
/// counters enabled and returns the launch's stats.
sim::LaunchStats countedMatmul(unsigned Workers, bool RaceDetection) {
  const int N = 64;
  sim::GpuDevice Dev;
  Dev.setWorkers(Workers);
  Dev.setRaceDetection(RaceDetection);
  Dev.setCounters(true);
  auto A = Dev.alloc<double>(N * N);
  auto B = Dev.alloc<double>(N * N);
  auto C = Dev.alloc<double>(N * N);
  for (int I = 0; I != N * N; ++I) {
    A.data()[I] = fillVal(I);
    B.data()[I] = fillVal(I + 17);
  }
  gen::matmul(Dev, A, B, C);
  return Dev.lastLaunchStats();
}

//===----------------------------------------------------------------------===//
// The pinned matmul profile (nt=4): exact counter values
//===----------------------------------------------------------------------===//

// matmul at nt=4: grid 4x4, block 16x16, 4 host-side tile iterations.
// Derivation: 16 blocks x 256 threads x 4 iterations x 2 tile loads give
// the global loads; each thread writes one C element; the inner k-loop
// reads 2 shared values 16 times per iteration. The conflict totals come
// from the 32-bank model over double-wide tiles (2-way on the stores,
// row-broadcast asub reads adding one serialization per group).
constexpr uint64_t MatmulGlobalLoads = 32768;
constexpr uint64_t MatmulGlobalStores = 4096;
constexpr uint64_t MatmulSharedLoads = 524288;
constexpr uint64_t MatmulSharedStores = 32768;
constexpr uint64_t MatmulSharedTransactions = 26624;
constexpr uint64_t MatmulBankConflicts = 9216;
constexpr uint64_t MatmulBarriers = 160;

TEST(ObsCounters, MatmulPinnedValues) {
  sim::LaunchStats S = countedMatmul(/*Workers=*/1, /*RaceDetection=*/false);

  EXPECT_EQ(S.Launches, 1u);
  EXPECT_EQ(S.Blocks, 16u);
  EXPECT_EQ(S.ThreadsPerBlock, 256u);
  EXPECT_EQ(S.ArenaBytesPerBlock, 6144u); // 2 double tiles + spill slots
  EXPECT_EQ(S.ArenaBytesTotal, 6144u * 16);
  EXPECT_EQ(S.Traps, 0u);
  EXPECT_EQ(S.RaceLogEntries, 0u);

  EXPECT_EQ(S.globalLoads(), MatmulGlobalLoads);
  EXPECT_EQ(S.globalStores(), MatmulGlobalStores);
  EXPECT_EQ(S.sharedLoads(), MatmulSharedLoads);
  EXPECT_EQ(S.sharedStores(), MatmulSharedStores);
  EXPECT_EQ(S.sharedTransactions(), MatmulSharedTransactions);
  EXPECT_EQ(S.bankConflicts(), MatmulBankConflicts);
  EXPECT_EQ(S.barriers(), MatmulBarriers);

  // Static phase identity: one row per barrier-delimited source section
  // (init, tile-fill, inner product, write-back), not one per dynamic
  // iteration of the host-side tile loop.
  ASSERT_EQ(S.Phases.size(), 4u);

  const obs::PhaseCounters &Init = S.Phases[0];
  EXPECT_EQ(Init.GlobalLoads, 0u);
  EXPECT_EQ(Init.SharedStores, 0u);
  EXPECT_EQ(Init.Barriers, 16u); // once per block

  const obs::PhaseCounters &Fill = S.Phases[1];
  EXPECT_EQ(Fill.GlobalLoads, 32768u);
  EXPECT_EQ(Fill.GlobalStores, 0u);
  EXPECT_EQ(Fill.SharedLoads, 0u);
  EXPECT_EQ(Fill.SharedStores, 32768u);
  EXPECT_EQ(Fill.SharedTransactions, 2048u);
  EXPECT_EQ(Fill.BankConflicts, 1024u); // double-wide: 2-way
  EXPECT_EQ(Fill.Barriers, 64u);        // 16 blocks x 4 tile iterations

  const obs::PhaseCounters &Inner = S.Phases[2];
  EXPECT_EQ(Inner.GlobalLoads, 0u);
  EXPECT_EQ(Inner.SharedLoads, 524288u);
  EXPECT_EQ(Inner.SharedStores, 0u);
  EXPECT_EQ(Inner.SharedTransactions, 24576u);
  EXPECT_EQ(Inner.BankConflicts, 8192u);
  EXPECT_EQ(Inner.Barriers, 64u);

  const obs::PhaseCounters &Write = S.Phases[3];
  EXPECT_EQ(Write.GlobalLoads, 0u);
  EXPECT_EQ(Write.GlobalStores, 4096u);
  EXPECT_EQ(Write.SharedLoads, 0u);
  EXPECT_EQ(Write.Barriers, 16u);
}

TEST(ObsCounters, MatmulWorkerCountInvariance) {
  // Totals must be bit-identical no matter how blocks were distributed
  // over workers — every merge is a commutative sum. Only the excluded
  // execution-shape fields (ChunkClaims, Workers) may differ.
  sim::LaunchStats One = countedMatmul(1, false);
  sim::LaunchStats Four = countedMatmul(4, false);
  EXPECT_EQ(One, Four);
  EXPECT_EQ(Four.Workers, 4u);
}

TEST(ObsCounters, RaceDetectionModeAgreesAndLogsAccesses) {
  // Race detection forces sequential execution and logs every access; the
  // counters must not drift, and the race-log total must equal the counted
  // (non-arena) accesses — the two observers see the same traffic.
  sim::LaunchStats Plain = countedMatmul(1, false);
  sim::LaunchStats Raced = countedMatmul(1, true);
  EXPECT_EQ(Plain.Phases, Raced.Phases);
  EXPECT_EQ(Raced.RaceLogEntries,
            Raced.globalLoads() + Raced.globalStores() + Raced.sharedLoads() +
                Raced.sharedStores());
}

TEST(ObsCounters, VmInterpreterMatchesGeneratedSim) {
  const int NT = 4, N = NT * 16;
  auto P = compileVm(DESCEND_KERNEL_DIR "/matmul.descend", {{"nt", NT}});
  ASSERT_TRUE(P);
  const vm::VmKernel *K = P->findKernel("matmul");
  ASSERT_NE(K, nullptr);

  sim::GpuDevice DV;
  DV.setWorkers(1);
  DV.setCounters(true);
  vm::DevBuf VA = vm::allocDev(DV, ScalarKind::F64, N * N);
  vm::DevBuf VB = vm::allocDev(DV, ScalarKind::F64, N * N);
  vm::DevBuf VC = vm::allocDev(DV, ScalarKind::F64, N * N);
  for (int I = 0; I != N * N; ++I) {
    reinterpret_cast<double *>(VA.Data)[I] = fillVal(I);
    reinterpret_cast<double *>(VB.Data)[I] = fillVal(I + 17);
  }
  ASSERT_TRUE(vm::launchKernel(DV, *K, {VA, VB, VC}).Ok);

  sim::LaunchStats Vm = DV.lastLaunchStats();
  sim::LaunchStats Gen = countedMatmul(1, false);

  // The two execution paths (generated C++ vs bytecode interpreter) must
  // count identically, phase by phase; only the interpreter knows the
  // kernel's name.
  EXPECT_EQ(Gen, Vm);
  EXPECT_EQ(Vm.Label, "matmul");
  EXPECT_EQ(Vm.globalLoads(), MatmulGlobalLoads);
  EXPECT_EQ(Vm.bankConflicts(), MatmulBankConflicts);
}

TEST(ObsCounters, TunedMatmulEliminatesInnerConflictsBitIdentically) {
  // The schedule-pass acceptance pin: --pad-shared=1 (the config the
  // autotuner selects for matmul) must drive the inner-product phase's
  // bank conflicts to exactly zero, leaving only the tile-fill phase's
  // unavoidable 2-way store conflicts — with the C output bit-identical
  // to the default lowering.
  const int NT = 4, N = NT * 16;
  auto Run = [&](kir::PassConfig Passes, sim::LaunchStats &Stats) {
    auto P =
        compileVm(DESCEND_KERNEL_DIR "/matmul.descend", {{"nt", NT}}, Passes);
    if (!P)
      return std::vector<double>();
    const vm::VmKernel *K = P->findKernel("matmul");
    EXPECT_NE(K, nullptr);
    sim::GpuDevice Dev;
    Dev.setWorkers(1);
    Dev.setCounters(true);
    vm::DevBuf A = vm::allocDev(Dev, ScalarKind::F64, N * N);
    vm::DevBuf B = vm::allocDev(Dev, ScalarKind::F64, N * N);
    vm::DevBuf C = vm::allocDev(Dev, ScalarKind::F64, N * N);
    for (int I = 0; I != N * N; ++I) {
      reinterpret_cast<double *>(A.Data)[I] = fillVal(I);
      reinterpret_cast<double *>(B.Data)[I] = fillVal(I + 17);
    }
    EXPECT_TRUE(vm::launchKernel(Dev, *K, {A, B, C}).Ok);
    Stats = Dev.lastLaunchStats();
    const double *Out = reinterpret_cast<const double *>(C.Data);
    return std::vector<double>(Out, Out + N * N);
  };

  sim::LaunchStats Def, Tuned;
  std::vector<double> DefOut = Run({}, Def);
  std::vector<double> TunedOut = Run(kir::PassConfig{1, false}, Tuned);
  ASSERT_EQ(DefOut.size(), (size_t)N * N);
  ASSERT_EQ(TunedOut.size(), (size_t)N * N);

  // Bit-identical result: padding only moves bytes around shared memory.
  EXPECT_EQ(DefOut, TunedOut);

  // Default profile: the pinned 9216 conflicts (1024 fill + 8192 inner).
  EXPECT_EQ(Def.bankConflicts(), MatmulBankConflicts);

  // Tuned profile: the inner-product phase is conflict-free; the total is
  // the fill phase's 1024 alone, and shared transactions drop with it.
  // The padded 16x17 tiles grow the per-block arena by 2*16 doubles.
  ASSERT_EQ(Tuned.Phases.size(), 4u);
  EXPECT_EQ(Tuned.Phases[2].BankConflicts, 0u);
  EXPECT_EQ(Tuned.bankConflicts(), 1024u);
  EXPECT_EQ(Tuned.sharedTransactions(), 18432u);
  EXPECT_EQ(Tuned.ArenaBytesPerBlock, 6400u);

  // The access *counts* are untouched — padding changes layout, never how
  // many loads and stores the kernel issues.
  EXPECT_EQ(Tuned.globalLoads(), Def.globalLoads());
  EXPECT_EQ(Tuned.globalStores(), Def.globalStores());
  EXPECT_EQ(Tuned.sharedLoads(), Def.sharedLoads());
  EXPECT_EQ(Tuned.sharedStores(), Def.sharedStores());
  EXPECT_EQ(Tuned.barriers(), Def.barriers());
}

TEST(ObsCounters, CountersOffByDefaultAndCostNothingToSkip) {
  sim::GpuDevice Dev;
  EXPECT_FALSE(Dev.countersEnabled());
  rt::HostBuffer<double> Host(2048, 1.0);
  gen::run(Dev, Host);
  EXPECT_TRUE(Dev.launchLog().empty());
  EXPECT_EQ(Dev.lastLaunchStats().Launches, 0u);
  EXPECT_EQ(Dev.totalStats().Launches, 0u);
  EXPECT_EQ(Dev.droppedLaunchStats(), 0u);
}

TEST(ObsCounters, TotalStatsAccumulateAcrossLaunches) {
  sim::GpuDevice Dev;
  Dev.setCounters(true);
  rt::HostBuffer<double> Host(2048, 1.0);
  gen::run(Dev, Host);
  gen::run(Dev, Host);
  sim::LaunchStats Total = Dev.totalStats();
  EXPECT_EQ(Total.Launches, 2u);
  EXPECT_EQ(Total.globalLoads(), 4096u);
  Dev.resetStats();
  EXPECT_TRUE(Dev.launchLog().empty());
  EXPECT_EQ(Dev.totalStats().Launches, 0u);
}

//===----------------------------------------------------------------------===//
// The 32-bank shared-memory conflict model, on known access patterns
//===----------------------------------------------------------------------===//

/// Runs one single-block phase over \p Threads threads with counters on
/// and returns the launch stats.
template <typename Phase>
sim::LaunchStats countedPhase(unsigned Threads, size_t SharedBytes,
                              Phase &&P) {
  sim::GpuDevice Dev;
  Dev.setWorkers(1);
  Dev.setCounters(true);
  sim::launchPhases(Dev, Dim3{1, 1, 1}, Dim3{Threads, 1, 1}, SharedBytes,
                    std::forward<Phase>(P));
  return Dev.lastLaunchStats();
}

TEST(ObsBankModel, UnitStrideFloatsAreConflictFree) {
  // 32 consecutive 4-byte words: one word per bank, one transaction.
  sim::LaunchStats S =
      countedPhase(32, 32 * 4, [](BlockCtx &B, ThreadCtx &T) {
        B.sharedStore<float>(0, T.X, 1.0f);
      });
  EXPECT_EQ(S.sharedStores(), 32u);
  EXPECT_EQ(S.sharedTransactions(), 1u);
  EXPECT_EQ(S.bankConflicts(), 0u);
}

TEST(ObsBankModel, SameWordBroadcastsForFree) {
  sim::LaunchStats S =
      countedPhase(32, 4, [](BlockCtx &B, ThreadCtx &T) {
        (void)T;
        (void)B.sharedLoad<float>(0, 0);
      });
  EXPECT_EQ(S.sharedLoads(), 32u);
  EXPECT_EQ(S.sharedTransactions(), 1u);
  EXPECT_EQ(S.bankConflicts(), 0u);
}

TEST(ObsBankModel, Stride32WordsFullySerializes) {
  // Word index 32*t: every access lands in bank 0 at a distinct word —
  // the classic worst case, 32 transactions and 31 conflicts.
  sim::LaunchStats S =
      countedPhase(32, 32 * 32 * 4, [](BlockCtx &B, ThreadCtx &T) {
        B.sharedStore<float>(0, T.X * 32, 1.0f);
      });
  EXPECT_EQ(S.sharedStores(), 32u);
  EXPECT_EQ(S.sharedTransactions(), 32u);
  EXPECT_EQ(S.bankConflicts(), 31u);
}

TEST(ObsBankModel, UnitStrideDoublesAreTwoWayConflicted) {
  // 8-byte elements: thread t's double starts at word 2t, so each bank
  // holds two distinct words per warp group.
  sim::LaunchStats S =
      countedPhase(32, 32 * 8, [](BlockCtx &B, ThreadCtx &T) {
        B.sharedStore<double>(0, T.X, 1.0);
      });
  EXPECT_EQ(S.sharedStores(), 32u);
  EXPECT_EQ(S.sharedTransactions(), 2u);
  EXPECT_EQ(S.bankConflicts(), 1u);
}

TEST(ObsBankModel, WarpsOfThirtyTwoAreGroupedSeparately) {
  // 64 threads = 2 warps; each warp's unit-stride access is one
  // transaction of its own.
  sim::LaunchStats S =
      countedPhase(64, 64 * 4, [](BlockCtx &B, ThreadCtx &T) {
        B.sharedStore<float>(0, T.X, 1.0f);
      });
  EXPECT_EQ(S.sharedStores(), 64u);
  EXPECT_EQ(S.sharedTransactions(), 2u);
  EXPECT_EQ(S.bankConflicts(), 0u);
}

TEST(ObsBankModel, OrdinalsSeparateAccessesWithinAThread) {
  // Each thread issues two accesses: ordinal 0 is unit-stride (1
  // transaction), ordinal 1 is stride-32 (32 transactions). The model
  // must not fuse them into one 64-access group.
  sim::LaunchStats S =
      countedPhase(32, 32 * 32 * 4, [](BlockCtx &B, ThreadCtx &T) {
        B.sharedStore<float>(0, T.X, 1.0f);
        B.sharedStore<float>(0, T.X * 32, 2.0f);
      });
  EXPECT_EQ(S.sharedStores(), 64u);
  EXPECT_EQ(S.sharedTransactions(), 33u);
  EXPECT_EQ(S.bankConflicts(), 31u);
}

//===----------------------------------------------------------------------===//
// LaunchStats rendering
//===----------------------------------------------------------------------===//

TEST(ObsStats, JsonAndHumanRenderings) {
  sim::LaunchStats S = countedMatmul(1, false);
  S.Label = "matmul";
  std::string H = S.str();
  EXPECT_NE(H.find("matmul"), std::string::npos) << H;
  EXPECT_NE(H.find("32768 loads"), std::string::npos) << H;
  EXPECT_NE(H.find("9216 bank conflicts"), std::string::npos) << H;

  std::string J = S.json();
  EXPECT_EQ(J.front(), '{');
  EXPECT_EQ(J.back(), '}');
  EXPECT_NE(J.find("\"label\":\"matmul\""), std::string::npos) << J;
  EXPECT_NE(J.find("\"bank_conflicts\":9216"), std::string::npos) << J;
  EXPECT_NE(J.find("\"phases\":["), std::string::npos) << J;
}

TEST(ObsStats, JsonLabelEscapesLikeEveryJsonWriter) {
  // A label holding a quote, a backslash, a newline and 0x01 renders as
  // descend::jsonEscape renders it, control characters as \u escapes.
  sim::LaunchStats S;
  S.Label = std::string("a\"b\\c\nd") + '\x01';
  const std::string J = S.json();
  EXPECT_NE(J.find("\"label\":\"" + jsonEscape(S.Label) + "\","),
            std::string::npos)
      << J;
  EXPECT_NE(J.find("a\\\"b\\\\c\\u000ad\\u0001"), std::string::npos) << J;
}

//===----------------------------------------------------------------------===//
// Trace exporter: Chrome-trace-event JSON structure
//===----------------------------------------------------------------------===//

TEST(ObsTrace, SpansRenderAsChromeTraceEvents) {
  obs::TraceCollector &C = obs::TraceCollector::global();
  C.resetForTest();
  C.enable(::testing::TempDir() + "obs_test_trace.json");

  { obs::Span S("sim", "launch", "{\"blocks\":8}"); }
  C.addInstant("stream", "eventRecord");

  EXPECT_EQ(C.eventCount(), 2u);
  std::string J = C.renderJson();
  EXPECT_NE(J.find("\"traceEvents\":["), std::string::npos) << J;
  EXPECT_NE(J.find("\"name\":\"launch\""), std::string::npos) << J;
  EXPECT_NE(J.find("\"cat\":\"sim\""), std::string::npos) << J;
  EXPECT_NE(J.find("\"ph\":\"X\""), std::string::npos) << J;
  EXPECT_NE(J.find("\"args\":{\"blocks\":8}"), std::string::npos) << J;
  EXPECT_NE(J.find("\"ph\":\"i\""), std::string::npos) << J;
  EXPECT_NE(J.find("\"s\":\"t\""), std::string::npos) << J;

  C.resetForTest(); // nothing left for the exit-time flush
}

TEST(ObsTrace, DisabledCollectorRecordsNothing) {
  obs::TraceCollector &C = obs::TraceCollector::global();
  C.resetForTest();
  EXPECT_FALSE(C.enabled());
  { obs::Span S("sim", "launch"); }
  C.addInstant("stream", "eventRecord");
  EXPECT_EQ(C.eventCount(), 0u);
}

TEST(ObsTrace, TracedLaunchEmitsSimSpan) {
  obs::TraceCollector &C = obs::TraceCollector::global();
  C.resetForTest();
  C.enable(::testing::TempDir() + "obs_test_trace2.json");

  sim::GpuDevice Dev;
  rt::HostBuffer<double> Host(2048, 1.0);
  gen::run(Dev, Host);

  std::string J = C.renderJson();
  C.resetForTest();
  EXPECT_NE(J.find("\"cat\":\"sim\""), std::string::npos) << J;
  EXPECT_NE(J.find("\"name\":\"launch\""), std::string::npos) << J;
  EXPECT_NE(J.find("\"blocks\":8"), std::string::npos) << J;
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
