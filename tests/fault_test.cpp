//===- tests/fault_test.cpp - Sticky errors, fault injection, watchdogs ---===//
//
// The acceptance gate for the robustness layer: a forced kernel trap at
// launch N runs no block and latches the device's error, getLastError
// stays sticky until GpuDevice::reset(), an infinite-loop kernel is
// cancelled within the watchdog budget instead of hanging the suite, and every
// DESCEND_FAULTS / DESCEND_WATCHDOG clause parses strictly (all-or-
// nothing, like DESCEND_SIM_WORKERS). Runs under ASan and TSan in CI —
// the injection seams sit on pool-worker code paths.
//
//===----------------------------------------------------------------------===//

#include "runtime/HostRuntime.h"
#include "service/CompileService.h"
#include "sim/Fault.h"
#include "sim/Sim.h"
#include "vm/Interp.h"

#include "gen_quickstart_host.h" // scale_vec + run (nb=8)

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <thread>

using namespace descend;
using namespace descend::sim;

namespace {

/// Every test arming the global FaultInjector must restore it on exit —
/// the injector outlives the test, the plan must not. The guard puts back
/// the plan it found, so a DESCEND_FAULTS plan (the CI worker-delay
/// stress) stays armed for every later test.
struct FaultGuard {
  FaultPlan Found = FaultInjector::global().plan();
  ~FaultGuard() { FaultInjector::global().setPlanForTest(Found); }
  void arm(const std::string &Text) {
    FaultPlan P;
    std::string Err;
    ASSERT_TRUE(FaultPlan::parse(Text, P, &Err)) << Err;
    FaultInjector::global().setPlanForTest(P);
  }
};

//===----------------------------------------------------------------------===//
// Plan / watchdog parsing
//===----------------------------------------------------------------------===//

TEST(FaultPlan, ParsesFullGrammarAndRoundTrips) {
  FaultPlan P;
  std::string Err;
  ASSERT_TRUE(FaultPlan::parse("alloc:3,trap:launch=5,delay:worker=2:ms=10",
                               P, &Err))
      << Err;
  EXPECT_EQ(P.AllocFailAt, 3u);
  EXPECT_EQ(P.TrapAtLaunch, 5u);
  EXPECT_EQ(P.DelayWorker, 2u);
  EXPECT_EQ(P.DelayMs, 10u);
  EXPECT_TRUE(P.armed());
  // str() renders the canonical spelling, which re-parses to the same
  // plan.
  FaultPlan Q;
  ASSERT_TRUE(FaultPlan::parse(P.str(), Q, &Err)) << Err;
  EXPECT_EQ(Q.str(), P.str());

  FaultPlan Empty;
  ASSERT_TRUE(FaultPlan::parse("", Empty, &Err));
  EXPECT_FALSE(Empty.armed());
  EXPECT_EQ(Empty.str(), "off");
}

TEST(FaultPlan, RejectsMalformedPlansWholesale) {
  const char *Bad[] = {
      "alloc",           // missing ordinal
      "alloc:",          // empty ordinal
      "alloc:0",         // ordinals are 1-based
      "alloc:-1",        // no signs
      "alloc:3x",        // trailing garbage
      " alloc:3",        // no whitespace
      "alloc:3,",        // empty clause
      "trap:5",          // trap wants launch=N
      "trap:launch=",    // empty ordinal
      "delay:worker=1",  // delay wants both worker= and ms=
      "drop:3",          // unknown kind
      "compile:3",       // unknown kind
      "bogus:3",         // unknown kind
      "alloc:3,bogus:1", // one bad clause poisons the whole plan
      "drop:event=1",         // unknown kind
      "alloc:1,drop:event=1", // ...rejects the whole plan
      "compile:fail=1",         // unknown kind
      "alloc:1,compile:fail=1", // ...rejects the whole plan
  };
  for (const char *Text : Bad) {
    FaultPlan P;
    std::string Err;
    EXPECT_FALSE(FaultPlan::parse(Text, P, &Err)) << Text;
    EXPECT_FALSE(Err.empty()) << Text;
  }
  for (const char *Text : {"drop:event=1", "alloc:1,drop:event=1"}) {
    FaultPlan P;
    P.AllocFailAt = 7; // untouched on failure
    std::string Err;
    EXPECT_FALSE(FaultPlan::parse(Text, P, &Err)) << Text;
    EXPECT_EQ(Err, "unknown fault kind 'drop' in 'drop:event=1'") << Text;
    EXPECT_EQ(P.AllocFailAt, 7u) << Text;
  }
  for (const char *Text : {"compile:fail=1", "alloc:1,compile:fail=1"}) {
    FaultPlan P;
    std::string Err;
    EXPECT_FALSE(FaultPlan::parse(Text, P, &Err)) << Text;
    EXPECT_EQ(Err, "unknown fault kind 'compile' in 'compile:fail=1'")
        << Text;
  }
}

TEST(FaultPlan, GuardRestoresThePlanItFound) {
  FaultGuard Outer;
  Outer.arm("delay:worker=1:ms=1");
  {
    FaultGuard Inner;
    Inner.arm("alloc:5");
    EXPECT_EQ(FaultInjector::global().plan().str(), "alloc:5");
  }
  EXPECT_EQ(FaultInjector::global().plan().str(), "delay:worker=1:ms=1");
  EXPECT_TRUE(FaultInjector::global().armed());
}

TEST(Watchdog, ParsesConfigStrictly) {
  GpuDevice::WatchdogConfig W;
  std::string Err;
  ASSERT_TRUE(detail::parseWatchdogConfig("steps=1000,ms=50", W, &Err))
      << Err;
  EXPECT_EQ(W.StepBudget, 1000u);
  EXPECT_EQ(W.LaunchTimeoutMs, 50u);

  GpuDevice::WatchdogConfig StepsOnly;
  ASSERT_TRUE(detail::parseWatchdogConfig("steps=7", StepsOnly, &Err));
  EXPECT_EQ(StepsOnly.StepBudget, 7u);
  EXPECT_EQ(StepsOnly.LaunchTimeoutMs, 0u);

  const char *Bad[] = {"steps=0", "ms=", "steps=1,steps=2", "budget=3",
                       "steps=1x", ""};
  for (const char *Text : Bad) {
    GpuDevice::WatchdogConfig Out;
    EXPECT_FALSE(detail::parseWatchdogConfig(Text, Out, &Err)) << Text;
  }
}

TEST(Watchdog, SetWatchdogRoundTrips) {
  GpuDevice Dev;
  GpuDevice::WatchdogConfig W;
  W.StepBudget = 123;
  W.LaunchTimeoutMs = 456;
  Dev.setWatchdog(W);
  EXPECT_EQ(Dev.watchdog().StepBudget, 123u);
  EXPECT_EQ(Dev.watchdog().LaunchTimeoutMs, 456u);
}

//===----------------------------------------------------------------------===//
// Sticky device errors
//===----------------------------------------------------------------------===//

TEST(StickyError, FirstErrorWinsAndResetRestores) {
  GpuDevice Dev;
  EXPECT_FALSE(Dev.poisoned());
  EXPECT_EQ(Dev.getLastError(), ErrorCode::Ok);

  const uint64_t Seq0 = Dev.errorSeq();
  Dev.setDeviceError(ErrorCode::KernelTrap, "first fault");
  Dev.setDeviceError(ErrorCode::AllocFailed, "second fault");
  EXPECT_TRUE(Dev.poisoned());
  EXPECT_EQ(Dev.errorSeq(), Seq0 + 2); // both recorded for attribution

  std::string Msg;
  EXPECT_EQ(Dev.getLastError(&Msg), ErrorCode::KernelTrap);
  EXPECT_EQ(Msg, "first fault");
  // Sticky: reading does not clear.
  EXPECT_EQ(Dev.peekLastError(), ErrorCode::KernelTrap);
  EXPECT_EQ(Dev.getLastError(), ErrorCode::KernelTrap);

  Dev.reset();
  EXPECT_FALSE(Dev.poisoned());
  EXPECT_EQ(Dev.getLastError(), ErrorCode::Ok);
}

TEST(StickyError, AllocInjectionFailsNthAllocationOnly) {
  FaultGuard G;
  G.arm("alloc:2");
  GpuDevice Dev;
  auto First = Dev.alloc<double>(16); // allocation #1 succeeds
  (void)First;
  try {
    (void)Dev.alloc<double>(16); // #2 is the injected failure
    FAIL() << "allocation #2 should have thrown";
  } catch (const DeviceError &E) {
    EXPECT_EQ(E.code(), ErrorCode::AllocFailed);
    EXPECT_NE(std::string(E.what()).find("fault injection"),
              std::string::npos)
        << E.what();
  }
  EXPECT_EQ(Dev.getLastError(), ErrorCode::AllocFailed);
  // The plan fired once; after reset() the device allocates again.
  Dev.reset();
  auto Third = Dev.alloc<double>(16);
  EXPECT_NE(Third.data(), nullptr);
  EXPECT_EQ(Dev.getLastError(), ErrorCode::Ok);
}

TEST(StickyError, TrapAtLaunchLatchesUntilReset) {
  FaultGuard G;
  G.arm("trap:launch=1");
  GpuDevice Dev;
  Dev.setWorkers(2);
  auto Buf = Dev.alloc<double>(64);
  auto Fill = [&](double V) {
    launchPhases(Dev, Dim3{2}, Dim3{32}, 0, [&](BlockCtx &B, ThreadCtx &T) {
      Buf.store(B, B.X * 32 + T.X, V);
    });
  };

  // The trapped launch runs no block and latches the device's error...
  Fill(1.0);
  for (size_t I = 0; I != 64; ++I)
    ASSERT_EQ(Buf.data()[I], 0.0) << "element " << I;
  std::string Msg;
  EXPECT_EQ(Dev.getLastError(&Msg), ErrorCode::KernelTrap);
  EXPECT_NE(Msg.find("forced at launch 1"), std::string::npos) << Msg;
  EXPECT_TRUE(Dev.poisoned());

  // ...the next launch, past the armed ordinal, runs, and the error
  // stays latched...
  Fill(2.0);
  for (size_t I = 0; I != 64; ++I)
    ASSERT_EQ(Buf.data()[I], 2.0) << "element " << I;
  EXPECT_EQ(Dev.getLastError(), ErrorCode::KernelTrap);

  // ...until reset() heals the device; a launch after it writes.
  Dev.reset();
  EXPECT_EQ(Dev.getLastError(), ErrorCode::Ok);
  EXPECT_FALSE(Dev.poisoned());
  Fill(3.0);
  for (size_t I = 0; I != 64; ++I)
    ASSERT_EQ(Buf.data()[I], 3.0) << "element " << I;
  EXPECT_EQ(Dev.getLastError(), ErrorCode::Ok);
}

TEST(StickyError, WorkerDelayInjectionOnlySlowsExecution) {
  // delay:worker=K:ms=M must perturb timing, never results — this is
  // the clause the TSan stress job runs the whole suite under.
  FaultGuard G;
  G.arm("delay:worker=1:ms=1");
  GpuDevice Dev;
  Dev.setWorkers(4);
  auto Buf = Dev.alloc<double>(512);
  launchPhases(Dev, Dim3{8}, Dim3{64}, 0, [&](BlockCtx &B, ThreadCtx &T) {
    size_t I = B.X * 64 + T.X;
    Buf.store(B, I, static_cast<double>(I) * 2.0);
  });
  for (size_t I = 0; I != 512; ++I)
    ASSERT_EQ(Buf.data()[I], static_cast<double>(I) * 2.0);
  EXPECT_EQ(Dev.getLastError(), ErrorCode::Ok);
}

//===----------------------------------------------------------------------===//
// Watchdogs
//===----------------------------------------------------------------------===//

TEST(Watchdog, WallClockBudgetCancelsRunawayLaunch) {
  GpuDevice Dev;
  GpuDevice::WatchdogConfig W;
  W.LaunchTimeoutMs = 25;
  Dev.setWatchdog(W);

  // A phase-program loop that would run for ~100 seconds unchecked; the
  // watchdog must cancel it at a phase boundary within the budget.
  PhaseProgram Prog;
  Prog.loopBegin(0, 0, 100000);
  Prog.straight([](BlockCtx &, ThreadCtx &) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  });
  Prog.loopEnd();

  auto T0 = std::chrono::steady_clock::now();
  launchProgram(Dev, Dim3{1}, Dim3{1}, 0, Prog);
  auto ElapsedMs = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - T0)
                       .count();

  std::string Msg;
  EXPECT_EQ(Dev.getLastError(&Msg), ErrorCode::KernelTimeout);
  EXPECT_NE(Msg.find("watchdog"), std::string::npos) << Msg;
  // Generous bound: cancellation plus drain must be near the budget,
  // nowhere near the 100 s the loop wanted.
  EXPECT_LT(ElapsedMs, 5000.0);
  Dev.reset();
  EXPECT_EQ(Dev.getLastError(), ErrorCode::Ok);
}

TEST(Watchdog, VmStepBudgetTrapsInfiniteLoop) {
  GpuDevice Dev;
  GpuDevice::WatchdogConfig W;
  W.StepBudget = 10000;
  Dev.setWatchdog(W);

  // A hand-built bytecode kernel that spins forever: `0: Jmp 0`.
  vm::VmKernel Spin;
  Spin.Name = "spin_forever";
  Spin.Grid = Dim3{1};
  Spin.Block = Dim3{1};
  Spin.StraightPhases = 1;
  vm::VmNode N;
  N.K = vm::VmNode::Straight;
  vm::Instr Jmp;
  Jmp.K = vm::Op::Jmp;
  Jmp.Imm = 0;
  N.Body.Instrs = {Jmp};
  N.Body.NumRegs = 0;
  Spin.Nodes.push_back(std::move(N));

  vm::RunStatus St = vm::launchKernel(Dev, Spin, {});
  EXPECT_FALSE(St.Ok);
  EXPECT_NE(St.Error.find("step budget"), std::string::npos) << St.Error;
  EXPECT_EQ(Dev.getLastError(), ErrorCode::KernelTimeout);

  // Sticky: the next launch fails fast without running...
  vm::VmKernel Trivial;
  Trivial.Name = "trivial";
  Trivial.Grid = Dim3{1};
  Trivial.Block = Dim3{1};
  Trivial.StraightPhases = 1;
  vm::VmNode T;
  T.K = vm::VmNode::Straight;
  T.Body.Instrs = {vm::Instr{}}; // Ret
  T.Body.NumRegs = 0;
  Trivial.Nodes.push_back(std::move(T));
  vm::RunStatus Blocked = vm::launchKernel(Dev, Trivial, {});
  EXPECT_FALSE(Blocked.Ok);
  EXPECT_NE(Blocked.Error.find("device in error state"), std::string::npos)
      << Blocked.Error;

  // ...and reset() restores a working device.
  Dev.reset();
  EXPECT_TRUE(vm::launchKernel(Dev, Trivial, {}).Ok);
}

//===----------------------------------------------------------------------===//
// Device memory on the failure paths
//===----------------------------------------------------------------------===//

const char *const ScaleKernel = R"(
fn scale(v: &uniq gpu.global [f64; 256]) -[grid: gpu.grid<X<1>, X<256>>]-> () {
  sched(X) block in grid {
    sched(X) thread in block {
      v.group::<256>[[block]][[thread]] =
        v.group::<256>[[block]][[thread]] * 3.0
    }
  }
}
)";

std::shared_ptr<const vm::CompiledProgram>
compileVm(const std::string &Source) {
  service::CompileService Service(8);
  service::CompileRequest Req;
  Req.Backend = "vm";
  Req.Source = Source;
  service::CompileReply Rep = Service.compile(Req);
  EXPECT_TRUE(Rep.Ok) << Rep.Diagnostics;
  return Rep.Program;
}

TEST(StaleHandles, VmLaunchOfFreedBufferIsInvalidValueNotSticky) {
  auto P = compileVm(ScaleKernel);
  ASSERT_TRUE(P);
  const vm::VmKernel &K = *P->findKernel("scale");
  GpuDevice Dev;
  vm::DevBuf D = vm::allocDev(Dev, ScalarKind::F64, 256);
  Dev.free(D.Id);
  vm::RunStatus St = vm::launchKernel(Dev, K, {D});
  EXPECT_FALSE(St.Ok);
  EXPECT_NE(St.Error.find("invalid_value: kernel `scale` argument `v`: "
                          "device buffer id 1 was freed"),
            std::string::npos)
      << St.Error;
  // Refused before launching, and not sticky: the next launch runs.
  EXPECT_FALSE(Dev.poisoned());
  EXPECT_EQ(Dev.getLastError(), ErrorCode::Ok);
  vm::DevBuf Live = vm::allocDev(Dev, ScalarKind::F64, 256);
  EXPECT_NE(Live.Id, D.Id) << "the reused slot carries a new generation";
  EXPECT_TRUE(vm::launchKernel(Dev, K, {Live}).Ok);
  try {
    Dev.free(D.Id);
    FAIL() << "double free must throw";
  } catch (const DeviceError &E) {
    EXPECT_EQ(E.code(), ErrorCode::InvalidValue);
  }
  EXPECT_FALSE(Dev.poisoned());
}

TEST(StickyError, AllocInjectionFiresEvenWhenAFreeBlockWouldServe) {
  // The alloc:N seam sits before the free-list probe: a reused block is
  // still "the N-th allocation".
  FaultGuard G;
  GpuDevice Dev;
  auto First = Dev.alloc<double>(16);
  double *Block = First.data();
  Dev.free(First.id());
  G.arm("alloc:1");
  EXPECT_THROW(Dev.alloc<double>(16), DeviceError);
  EXPECT_EQ(Dev.getLastError(), ErrorCode::AllocFailed);
  MemoryStats S = Dev.memoryStats();
  EXPECT_EQ(S.ReusedAllocs, 0u);
  EXPECT_EQ(S.LiveBuffers, 0u);
  EXPECT_EQ(S.ReservedBytes, 128u) << "the free block stays reserved";
  Dev.reset();
  auto Again = Dev.alloc<double>(16);
  EXPECT_EQ(Again.data(), Block);
  EXPECT_EQ(Dev.memoryStats().ReusedAllocs, 1u);
}

/// `inner` fails in host code when z is 0; with z = 1 both launches run.
std::string failingHostProgram() {
  return std::string(ScaleKernel) + R"(
fn inner(h: &uniq cpu.mem [f64; 256], z: i64) -[t: cpu.thread]-> () {
  let e = GpuGlobal::alloc_copy(&*h);
  scale::<<<X<1>, X<256>>>>(&uniq e);
  let q = z / z;
  copy_mem_to_host(&uniq *h, &e)
}
fn main(h: &uniq cpu.mem [f64; 256], z: i64) -[t: cpu.thread]-> () {
  let d = GpuGlobal::alloc_copy(&*h);
  {
    let f = GpuGlobal::alloc_copy(&*h);
    inner(&uniq *h, z);
    copy_mem_to_host(&uniq *h, &f)
  };
  scale::<<<X<1>, X<256>>>>(&uniq d);
  copy_mem_to_host(&uniq *h, &d)
}
)";
}

/// Runs main of \p P with h filled with ones and z = \p Z.
vm::RunStatus runMain(GpuDevice &Dev, const vm::CompiledProgram &P,
                      double Z) {
  const vm::HostFnIR &Main = *P.findHostFn("main");
  vm::MainArgs A = vm::bindMainArgs(Dev, Main, {1.0, Z});
  return vm::runHostFn(Dev, P, Main, A.Args);
}

TEST(FailurePaths, RunHostFnFreesEveryFrameOnHostFailure) {
  auto P = compileVm(failingHostProgram());
  ASSERT_TRUE(P);
  GpuDevice Dev;
  const MemoryStats Start = Dev.memoryStats();
  ASSERT_TRUE(runMain(Dev, *P, 1.0).Ok);
  EXPECT_EQ(Dev.memoryStats().LiveBytes, Start.LiveBytes);

  // Division by zero in `inner`, with d, f (caller) and e (callee) live.
  vm::RunStatus St = runMain(Dev, *P, 0.0);
  EXPECT_FALSE(St.Ok);
  EXPECT_NE(St.Error.find("integer division by zero"), std::string::npos)
      << St.Error;
  EXPECT_EQ(Dev.memoryStats().LiveBuffers, Start.LiveBuffers);
  EXPECT_EQ(Dev.memoryStats().LiveBytes, Start.LiveBytes);
  EXPECT_FALSE(Dev.poisoned());
}

TEST(FailurePaths, RunHostFnFreesEveryFrameOnTrappedLaunch) {
  auto P = compileVm(failingHostProgram());
  ASSERT_TRUE(P);
  // Launch 1 traps in `inner`, launch 2 in `main` after the call.
  for (const char *Plan : {"trap:launch=1", "trap:launch=2"}) {
    SCOPED_TRACE(Plan);
    FaultGuard G;
    GpuDevice Dev;
    const MemoryStats Start = Dev.memoryStats();
    G.arm(Plan);
    vm::RunStatus St = runMain(Dev, *P, 1.0);
    EXPECT_FALSE(St.Ok);
    EXPECT_NE(St.Error.find("kernel_trap"), std::string::npos) << St.Error;
    EXPECT_EQ(Dev.memoryStats().LiveBuffers, Start.LiveBuffers);
    EXPECT_EQ(Dev.memoryStats().LiveBytes, Start.LiveBytes);
  }
}

/// Runs \p Call with launch 1 trapping: it must throw the driver's
/// `launch scale_vec failed: kernel trap ...` and leave no live device
/// buffer behind.
template <typename CallT> void expectTrapFreesEverything(CallT Call) {
  FaultGuard G;
  GpuDevice Dev;
  Dev.setWorkers(4);
  const MemoryStats Start = Dev.memoryStats();
  rt::HostBuffer<double> Host(2048, 1.0);
  G.arm("trap:launch=1");
  try {
    Call(Dev, Host);
    ADD_FAILURE() << "expected the trapped launch's rt::Error";
  } catch (const rt::Error &E) {
    EXPECT_EQ(E.code(), ErrorCode::KernelTrap);
    EXPECT_EQ(std::string(E.what()).rfind("launch scale_vec failed: kernel "
                                          "trap: forced at launch 1",
                                          0),
              0u)
        << E.what();
  }
  EXPECT_EQ(Dev.memoryStats().LiveBuffers, Start.LiveBuffers);
  EXPECT_EQ(Dev.memoryStats().LiveBytes, Start.LiveBytes);
}

TEST(FailurePaths, GeneratedDriverFreesOnTrappedLaunch) {
  expectTrapFreesEverything(
      [](GpuDevice &Dev, auto &Host) { gen::run(Dev, Host); });
}

TEST(FailurePaths, AllocCopyInALoopReusesOneBlock) {
  auto P = compileVm(std::string(ScaleKernel) + R"(
fn main(h: &uniq cpu.mem [f64; 256]) -[t: cpu.thread]-> () {
  for i in [0..64] {
    let d = GpuGlobal::alloc_copy(&*h);
    scale::<<<X<1>, X<256>>>>(&uniq d);
    copy_mem_to_host(&uniq *h, &d)
  }
}
)");
  ASSERT_TRUE(P);
  GpuDevice Dev;
  const MemoryStats Start = Dev.memoryStats();
  const vm::HostFnIR &Main = *P->findHostFn("main");
  vm::MainArgs A = vm::bindMainArgs(Dev, Main, {1.0});
  ASSERT_TRUE(vm::runHostFn(Dev, *P, Main, A.Args).Ok);
  double Want = 1.0;
  for (int I = 0; I != 64; ++I)
    Want *= 3.0;
  double Got;
  std::memcpy(&Got, A.Arrays[0]->Bytes.data(), sizeof(double));
  EXPECT_EQ(Got, Want);
  const MemoryStats End = Dev.memoryStats();
  EXPECT_EQ(End.LiveBytes, Start.LiveBytes);
  EXPECT_EQ(End.ReservedBytes, 256u * sizeof(double)) << "one class block";
  EXPECT_EQ(End.FreshAllocs, 1u);
  EXPECT_EQ(End.ReusedAllocs, 63u);
}

} // namespace
