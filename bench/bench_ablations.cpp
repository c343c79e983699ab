//===- bench/bench_ablations.cpp - Design-choice ablations -------------------===//
//
// Google-benchmark microbenchmarks for design choices docs/architecture.md
// explains (§ "The kernel IR" for compiled view indices, § "The simulator
// runtime" for race detection and the worker pool):
//
//  * ViewIndexCompiled vs ViewIndexInterpreted — Section 5 claims views
//    are erased at compile time. The ablation compares an access through
//    the *compiled* (nat-simplified, inlined) index against evaluating the
//    unsimplified symbolic index expression at run time per access.
//  * RaceDetector On/Off — the observability cost of the simulator's
//    dynamic race detection (why it is off for the Figure 8 runs).
//  * SimWorkers — block-parallel scaling of the simulator substrate.
//  * Typecheck/Parse — compiler throughput on the real transpose kernel
//    and on synthetically growing programs (access-environment scaling).
//
// `bench_ablations OUT_DIR` writes google-benchmark's JSON report to
// OUT_DIR/BENCH_ablations.json, with the provenance fields of
// bench/Report.h in its context; other arguments go to google-benchmark.
//
//===----------------------------------------------------------------------===//

#include "bench/Report.h"
#include "driver/Pipeline.h"
#include "sim/Sim.h"
#include "views/IndexSpace.h"

#include <benchmark/benchmark.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace descend;

namespace {

//===----------------------------------------------------------------------===//
// View index lowering: compiled vs interpreted
//===----------------------------------------------------------------------===//

/// The Listing 2 tmp access index, built through the view pipeline.
Nat buildTransposeIndex() {
  IndexSpace S = IndexSpace::fromDims({Nat::lit(32), Nat::lit(32)});
  std::string Err;
  S.applyView(View::group(Nat::lit(8)), &Err);
  S.applyView(View::transpose(), &Err);
  S.applyView(View::map({View::transpose()}), &Err);
  S.bindOuter(Nat::var("ty"), &Err);
  S.bindOuter(Nat::var("tx"), &Err);
  S.bindOuter(Nat::var("i"), &Err);
  return S.flatten(&Err);
}

void BM_ViewIndexCompiled(benchmark::State &State) {
  // What generated code does: the simplified polynomial, inlined.
  std::vector<double> Data(1024, 1.0);
  double Sum = 0;
  for (auto _ : State) {
    for (long long Ty = 0; Ty != 8; ++Ty)
      for (long long Tx = 0; Tx != 32; ++Tx)
        for (long long I = 0; I != 4; ++I)
          Sum += Data[Tx + Ty * 32 + I * 256];
    benchmark::DoNotOptimize(Sum);
  }
  State.SetItemsProcessed(State.iterations() * 1024);
}
BENCHMARK(BM_ViewIndexCompiled);

void BM_ViewIndexInterpreted(benchmark::State &State) {
  // The ablation: evaluate the symbolic index per access (no compile-time
  // simplification / inlining).
  Nat Index = buildTransposeIndex();
  std::vector<double> Data(1024, 1.0);
  double Sum = 0;
  for (auto _ : State) {
    for (long long Ty = 0; Ty != 8; ++Ty)
      for (long long Tx = 0; Tx != 32; ++Tx)
        for (long long I = 0; I != 4; ++I) {
          NatEnv Env{{"ty", Ty}, {"tx", Tx}, {"i", I}};
          Sum += Data[*Index.evaluate(Env)];
        }
    benchmark::DoNotOptimize(Sum);
  }
  State.SetItemsProcessed(State.iterations() * 1024);
}
BENCHMARK(BM_ViewIndexInterpreted);

void BM_ViewIndexLowering(benchmark::State &State) {
  // Compiler-side cost of lowering + simplifying one view chain.
  for (auto _ : State) {
    Nat N = buildTransposeIndex();
    benchmark::DoNotOptimize(N);
  }
}
BENCHMARK(BM_ViewIndexLowering);

//===----------------------------------------------------------------------===//
// Race detector overhead
//===----------------------------------------------------------------------===//

void runTransposeKernel(sim::GpuDevice &Dev,
                        sim::GpuDevice::Buffer<double> In,
                        sim::GpuDevice::Buffer<double> Out, unsigned N) {
  sim::launchPhases(
      Dev, sim::Dim3{N / 32, N / 32, 1}, sim::Dim3{32, 8, 1},
      32 * 32 * sizeof(double),
      [=](sim::BlockCtx &B, sim::ThreadCtx &T) {
        for (unsigned J = 0; J != 32; J += 8)
          B.sharedStore<double>(
              0, (T.Y + J) * 32 + T.X,
              In.load(B, (size_t)(B.Y * 32 + T.Y + J) * N + B.X * 32 + T.X));
      },
      [=](sim::BlockCtx &B, sim::ThreadCtx &T) {
        for (unsigned J = 0; J != 32; J += 8)
          Out.store(B, (size_t)(B.X * 32 + T.Y + J) * N + B.Y * 32 + T.X,
                    B.sharedLoad<double>(0, T.X * 32 + T.Y + J));
      });
}

void BM_RaceDetectorOff(benchmark::State &State) {
  const unsigned N = 512;
  sim::GpuDevice Dev;
  Dev.setWorkers(1); // isolate the per-access cost
  auto In = Dev.alloc<double>(N * N);
  auto Out = Dev.alloc<double>(N * N);
  for (auto _ : State)
    runTransposeKernel(Dev, In, Out, N);
  State.SetItemsProcessed(State.iterations() * N * N);
}
BENCHMARK(BM_RaceDetectorOff);

void BM_RaceDetectorOn(benchmark::State &State) {
  const unsigned N = 512;
  sim::GpuDevice Dev;
  Dev.setRaceDetection(true);
  auto In = Dev.alloc<double>(N * N);
  auto Out = Dev.alloc<double>(N * N);
  for (auto _ : State) {
    Dev.clearLogs();
    runTransposeKernel(Dev, In, Out, N);
  }
  State.SetItemsProcessed(State.iterations() * N * N);
}
BENCHMARK(BM_RaceDetectorOn);

//===----------------------------------------------------------------------===//
// Simulator worker scaling
//===----------------------------------------------------------------------===//

void BM_SimWorkers(benchmark::State &State) {
  const unsigned N = 2048;
  sim::GpuDevice Dev;
  Dev.setWorkers(static_cast<unsigned>(State.range(0)));
  auto In = Dev.alloc<double>((size_t)N * N);
  auto Out = Dev.alloc<double>((size_t)N * N);
  for (auto _ : State)
    runTransposeKernel(Dev, In, Out, N);
  State.SetBytesProcessed(State.iterations() * (size_t)N * N * 16);
}
BENCHMARK(BM_SimWorkers)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

//===----------------------------------------------------------------------===//
// Compiler throughput
//===----------------------------------------------------------------------===//

std::string transposeSource() {
  return R"(
view group_by_row<row_size: nat, num_rows: nat> =
  group::<row_size/num_rows>.transpose.map(transpose)
view group_by_tile<th: nat, tw: nat> =
  group::<th>.map(map(group::<tw>)).map(transpose)
fn transpose(input: & gpu.global [[f64;2048];2048],
             output: &uniq gpu.global [[f64;2048];2048])
-[grid: gpu.grid<XY<64,64>,XY<32,8>>]-> () {
  sched(Y,X) block in grid {
    let tmp = alloc::<gpu.shared, [[f64; 32]; 32]>();
    sched(Y,X) thread in block {
      for i in [0..4] {
        tmp.group_by_row::<32,4>[[thread]][i] =
          input.group_by_tile::<32,32>.transpose[[block]]
            .group_by_row::<32,4>[[thread]][i] };
      sync;
      for i in [0..4] {
        output.group_by_tile::<32,32>[[block]]
          .group_by_row::<32,4>[[thread]][i] =
          tmp.transpose.group_by_row::<32,4>[[thread]][i] }
    } } }
)";
}

void BM_CompileTranspose(benchmark::State &State) {
  std::string Src = transposeSource();
  for (auto _ : State) {
    CompilerInvocation Inv;
    Inv.BufferName = "bench.descend";
    Inv.RunUntil = Stage::Typecheck;
    Session S(Inv);
    bool Ok = S.run(Src).Ok;
    benchmark::DoNotOptimize(Ok);
  }
}
BENCHMARK(BM_CompileTranspose);

void BM_EmitCudaTranspose(benchmark::State &State) {
  CompilerInvocation Inv;
  Inv.BufferName = "bench.descend";
  Inv.RunUntil = Stage::Typecheck;
  Session S(Inv);
  S.run(transposeSource());
  const codegen::Backend *Cuda =
      codegen::BackendRegistry::instance().lookup("cuda");
  for (auto _ : State) {
    codegen::GenResult R = Cuda->emit(*S.module(), codegen::BackendOptions());
    benchmark::DoNotOptimize(R.Code);
  }
}
BENCHMARK(BM_EmitCudaTranspose);

/// Access-environment scaling: K independent assignments per kernel. The
/// conflict check compares each new access against the recorded ones, so
/// this exercises the quadratic-in-K worst case of borrow checking.
void BM_TypecheckScaling(benchmark::State &State) {
  const int K = static_cast<int>(State.range(0));
  std::ostringstream Src;
  Src << "fn k(a: &uniq gpu.global [f64; " << 256 * K << "])\n"
      << "-[grid: gpu.grid<X<1>, X<256>>]-> () {\n"
      << "  sched(X) block in grid {\n    sched(X) thread in block {\n";
  for (int I = 0; I != K; ++I)
    Src << "      a.group::<" << K << ">[[thread]][" << I << "] = " << I
        << ".0;\n";
  Src << "    }\n  }\n}\n";
  std::string S = Src.str();
  for (auto _ : State) {
    CompilerInvocation Inv;
    Inv.BufferName = "scale.descend";
    Inv.RunUntil = Stage::Typecheck;
    Session Sess(Inv);
    if (!Sess.run(S).Ok) {
      State.SkipWithError("program unexpectedly rejected");
      return;
    }
  }
  State.SetItemsProcessed(State.iterations() * K);
}
BENCHMARK(BM_TypecheckScaling)->Arg(4)->Arg(16)->Arg(64)->Arg(128);

} // namespace

int main(int argc, char **argv) {
  std::vector<char *> Args(argv, argv + argc);
  std::string OutFlag, FormatFlag = "--benchmark_out_format=json";
  if (argc > 1 && argv[1][0] != '-') {
    OutFlag = std::string("--benchmark_out=") + argv[1] +
              "/BENCH_ablations.json";
    Args[1] = OutFlag.data();
    Args.push_back(FormatFlag.data());
  }
  for (const bench::MetaField &F : bench::metaFields())
    benchmark::AddCustomContext(F.Key, F.Value);
  int N = static_cast<int>(Args.size());
  benchmark::Initialize(&N, Args.data());
  if (benchmark::ReportUnrecognizedArguments(N, Args.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
