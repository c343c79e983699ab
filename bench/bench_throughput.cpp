//===- bench/bench_throughput.cpp - Launch-path throughput ------------------===//
//
// Measures the absolute throughput of the simulator launch path — the
// number the ROADMAP's "as fast as the hardware allows" goal actually
// cares about, complementing the Fig. 8 generated/handwritten *ratio*:
//
//  1. Small-launch rate: >= 4k launches of a tiny kernel, executed two
//     ways — inline on a 1-worker device (every block on the calling
//     thread, no pool) and synchronously on the persistent worker pool.
//     The pool/inline ratio (`pool_vs_inline`) is gated: it prices a
//     launch's pool hand-off, and a return to spawning threads per launch
//     cuts it about tenfold.
//  2. Worker-count scaling sweep on a medium kernel.
//  3. A mixed serving loop alternating the generated quickstart and
//     reduction host drivers, called directly, approximating a service
//     handling small independent requests.
//  4. The compile service: cold compiles against warm cache hits.
//
// `bench_throughput OUT_DIR` writes BENCH_throughput.json; the gated
// fields and their floors are in tools/bench_baseline.json.
//
//===----------------------------------------------------------------------===//

#include "bench/Report.h"
#include "runtime/HostRuntime.h"
#include "service/CompileService.h"
#include "sim/Sim.h"

#include "gen_quickstart_host_serve.h" // scale_vec_serve + run_serve (nb=1)
#include "gen_reduction_host_serve.h"  // reduce_rserve + run_rserve  (nb=1)

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace descend;
using sim::BlockCtx;
using sim::Dim3;
using sim::GpuDevice;
using sim::ThreadCtx;

namespace {

/// How many workers the measured devices use. Pinned (not hardware
/// concurrency) so the pool-vs-inline comparison is the same experiment
/// on every machine; BENCH_throughput.json records it as "workers".
constexpr unsigned BenchWorkers = 4;

double msSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - T0)
      .count();
}

template <typename BufT>
void tinyPhase(BufT Buf, BlockCtx &B, ThreadCtx &T) {
  size_t I = B.X * B.BlockDim.X + T.X;
  Buf.store(B, I, Buf.load(B, I) + 1.0);
}

std::vector<bench::Json> Rows;

/// Prints one table line and records it as a row.
void report(const char *Section, const char *Mode, long long Count,
            double Ms) {
  const double Rate = Count / (Ms / 1000.0);
  std::printf("%-13s %-20s %6lld %10.3f %14.1f\n", Section, Mode, Count, Ms,
              Rate);
  Rows.push_back(bench::Json()
                     .str("section", Section)
                     .str("mode", Mode)
                     .num("count", Count)
                     .num("ms", Ms)
                     .num("rate_per_sec", Rate));
}

//===----------------------------------------------------------------------===//
// 1. Small-launch rate
//===----------------------------------------------------------------------===//

/// Returns the rate of \p Launches launches of an 8x32 tiny kernel.
/// Modes: "inline" launches synchronously on a 1-worker device, which
/// runs every block on the calling thread; "pool_sync" launches
/// synchronously on the BenchWorkers pool.
double smallLaunchRate(const char *Mode, int Launches, bool Emit = true) {
  const unsigned Blocks = 8, Threads = 32;
  GpuDevice Dev;
  Dev.setWorkers(std::strcmp(Mode, "inline") == 0 ? 1 : BenchWorkers);
  auto Buf = Dev.alloc<double>(Blocks * Threads);

  auto T0 = std::chrono::steady_clock::now();
  for (int L = 0; L != Launches; ++L)
    launchPhases(Dev, Dim3{Blocks}, Dim3{Threads}, 0,
                 [Buf](BlockCtx &B, ThreadCtx &T) { tinyPhase(Buf, B, T); });
  double Ms = msSince(T0);
  if (Emit)
    report("small_launch", Mode, Launches, Ms);
  return Launches / (Ms / 1000.0);
}

//===----------------------------------------------------------------------===//
// 2. Worker-count scaling sweep
//===----------------------------------------------------------------------===//

void workerSweep() {
  const unsigned Blocks = 64, Threads = 256;
  const size_t N = static_cast<size_t>(Blocks) * Threads;
  const int Launches = 40;
  for (unsigned W : {1u, 2u, 4u, 8u}) {
    GpuDevice Dev;
    Dev.setWorkers(W);
    auto In = Dev.alloc<double>(N);
    auto Out = Dev.alloc<double>(Blocks);
    for (size_t I = 0; I != N; ++I)
      In.data()[I] = static_cast<double>(I % 97);
    auto Run = [&] {
      launchPhases(Dev, Dim3{Blocks}, Dim3{1}, 0,
                   [In, Out, Threads](BlockCtx &B, ThreadCtx &) {
                     double Sum = 0;
                     for (size_t I = 0; I != Threads; ++I)
                       Sum += In.load(B, B.X * Threads + I);
                     Out.store(B, B.X, Sum);
                   });
    };
    Run(); // warm-up (creates the pool)
    auto T0 = std::chrono::steady_clock::now();
    for (int L = 0; L != Launches; ++L)
      Run();
    double Ms = msSince(T0);
    char Mode[32];
    std::snprintf(Mode, sizeof(Mode), "workers_%u", W);
    report("worker_sweep", Mode, Launches, Ms);
  }
}

//===----------------------------------------------------------------------===//
// 3. Mixed host-program serving loop (generated drivers)
//===----------------------------------------------------------------------===//

/// The serving loop measures best-of-N rounds: scheduler noise on a
/// shared machine would otherwise dominate a single 512-request sample.
constexpr int ServingRounds = 3;

/// Serves \p Requests requests, alternating the generated quickstart and
/// reduction drivers, each called directly on one BenchWorkers device.
void servingLoop(int Requests) {
  const size_t NQ = 256; // one block per request: serving-sized
  GpuDevice Dev;
  Dev.setWorkers(BenchWorkers);
  rt::HostBuffer<double> QVec(NQ, 1.0);
  rt::HostBuffer<double> RData(NQ, 0.5), RPartials(1, 0.0), RTotal(1, 0.0);

  double BestMs = 0;
  for (int Round = 0; Round != ServingRounds; ++Round) {
    auto T0 = std::chrono::steady_clock::now();
    for (int R = 0; R != Requests; ++R) {
      if (R % 2 == 0)
        descend::gen::run_serve(Dev, QVec);
      else
        descend::gen::run_rserve(Dev, RData, RPartials, RTotal);
    }
    double Ms = msSince(T0);
    if (Round == 0 || Ms < BestMs)
      BestMs = Ms;
  }
  report("serving", "generated_sync", Requests, BestMs);
}

//===----------------------------------------------------------------------===//
// 4. Compile service: cold vs warm latency and serving-loop hit rate
//===----------------------------------------------------------------------===//

std::string slurp(const char *Path) {
  std::ifstream In(Path);
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// Measures the CompileService the way descendd uses it: a set of
/// programs compiled cold (distinct sources), then re-requested warm
/// (cache probes), then a mixed serving loop. Returns the summary with
/// the gated warm/cold speedup, empty when the section could not run.
bench::Json compileServiceBench() {
  std::string Sources[2] = {
      slurp(DESCEND_PROGRAM_DIR "/quickstart_host.descend"),
      slurp(DESCEND_PROGRAM_DIR "/reduction_host.descend")};
  if (Sources[0].empty() || Sources[1].empty()) {
    std::printf("service section skipped: sources not found\n");
    return {};
  }

  service::CompileService Svc(/*Capacity=*/128);
  auto Salted = [&](int I) {
    service::CompileRequest Req;
    Req.Source = "// request " + std::to_string(I) + "\n" + Sources[I % 2];
    Req.Defines["nb"] = 8;
    return Req;
  };

  // Cold: every request is a distinct key, so each pays the full
  // parse -> typecheck -> bytecode pipeline.
  const int Cold = 24;
  auto T0 = std::chrono::steady_clock::now();
  for (int I = 0; I != Cold; ++I) {
    service::CompileReply Rep = Svc.compile(Salted(I));
    if (!Rep.Ok) {
      std::printf("service section skipped: compile failed\n");
      std::fprintf(stderr, "%s\n", Rep.Diagnostics.c_str());
      return {};
    }
  }
  double ColdMs = msSince(T0);
  report("service", "cold_compile", Cold, ColdMs);

  // Warm: the same keys again, many times over — every request is a
  // cache probe.
  const int Warm = 4096;
  T0 = std::chrono::steady_clock::now();
  for (int I = 0; I != Warm; ++I)
    Svc.compile(Salted(I % Cold));
  double WarmMs = msSince(T0);
  report("service", "warm_hit", Warm, WarmMs);

  // Mixed serving loop: mostly warm probes with a trickle of new
  // specializations, like a long-lived daemon serving editors.
  service::ServiceStats Before = Svc.stats();
  const int Mixed = 512;
  T0 = std::chrono::steady_clock::now();
  for (int I = 0; I != Mixed; ++I) {
    if (I % 16 == 15) {
      service::CompileRequest Req = Salted(I % Cold);
      Req.Defines["nb"] = 8 + I % 3; // new -D binding: a distinct entry
      Svc.compile(Req);
    } else {
      Svc.compile(Salted(I % Cold));
    }
  }
  double MixedMs = msSince(T0);
  report("service", "mixed_serving", Mixed, MixedMs);
  service::ServiceStats After = Svc.stats();

  double HitRate =
      static_cast<double>(After.Hits - Before.Hits) / Mixed;
  double ColdPer = ColdMs / Cold, WarmPer = WarmMs / Warm;
  std::printf("service: hit rate %.3f, warm hit %.1fx faster than a cold "
              "compile, %zu entries, %llu evictions\n",
              HitRate, ColdPer / WarmPer, After.Entries,
              static_cast<unsigned long long>(After.Evictions));
  return bench::Json()
      .num("hit_rate", HitRate)
      .num("cold_ms", ColdPer)
      .num("warm_ms", WarmPer)
      .num("warm_speedup", ColdPer / WarmPer)
      .num("entries", After.Entries)
      .num("evictions", After.Evictions);
}

} // namespace

int main(int argc, char **argv) {
  const char *OutDir = bench::outputDir(argc, argv);
  std::printf("Simulator launch-path throughput (workers=%u)\n",
              BenchWorkers);
  std::printf("(inline runs the small launches on a 1-worker device; "
              "pool_vs_inline = pool_sync rate / inline rate)\n\n");
  std::printf("%-13s %-20s %6s %10s %14s\n", "section", "mode", "count",
              "ms", "rate [1/s]");

  const int Launches = 4096;
  smallLaunchRate("pool_sync", 256, /*Emit=*/false); // warm-up
  double InlineRate = smallLaunchRate("inline", Launches);
  double PoolRate = smallLaunchRate("pool_sync", Launches);

  workerSweep();

  servingLoop(/*Requests=*/512);

  bench::Json Service = compileServiceBench();

  std::printf("\npool_vs_inline %.3f\n", PoolRate / InlineRate);
  bench::Json Report;
  Report.str("unit", "ops/s")
      .array("rows", Rows)
      .num("workers", BenchWorkers)
      .num("pool_vs_inline", PoolRate / InlineRate)
      .raw("service", Service.text());
  return bench::writeReport(OutDir, "throughput", Report) ? 0 : 1;
}
