//===- bench/bench_fig8.cpp - Figure 8 reproduction --------------------------===//
//
// Reproduces Figure 8 of the paper: relative median kernel runtimes of
// handwritten implementations vs the code generated by the Descend
// compiler, for four benchmarks (Reduce, Transpose, Scan, MM) at three
// footprint sizes each.
//
// Both sides are compiled by the same host compiler and run on the same
// simulator substrate; the Descend side was generated at build time by
// descendc --emit=sim from kernels/*.descend (docs/architecture.md
// § "The simulator runtime" gives the substitution rationale). The
// paper's claim is that Descend's safety layer is fully erased at compile
// time, so the ratio should be ~1.
//
// Output: one row per (benchmark, size) with median times and the
// CUDA/Descend relative runtime the figure plots (higher = Descend
// faster). `bench_fig8 OUT_DIR` also writes BENCH_fig8.json: each row
// adds both sides' quartiles and the counters of one untimed generated
// run.
//
// A second table prices the vm against the generated code (`vm.tax`):
// each Fig. 8 kernel, compiled from kernels/*.descend by vm::compile at
// the repository benchmark's kernels sizes, is launched through
// vm::launchKernel interleaved with the same kernel generated at build
// time, on a 1-worker device. The JSON's `vm_tax.<kernel>` objects carry
// both sides' quartiles, `gen_over_vm` (the generated median over the
// vm's; higher = a cheaper vm) and the vm's exact work counts
// (vm::LaunchWork).
//
//===----------------------------------------------------------------------===//

#include "bench/Report.h"
#include "bench/handwritten.h"

// Generated kernels, three instantiations each (suffix = footprint).
#include "gen_fig8_matmul_large.h"
#include "gen_fig8_matmul_medium.h"
#include "gen_fig8_matmul_small.h"
#include "gen_fig8_reduce_large.h"
#include "gen_fig8_reduce_medium.h"
#include "gen_fig8_reduce_small.h"
#include "gen_fig8_scan_large.h"
#include "gen_fig8_scan_medium.h"
#include "gen_fig8_scan_small.h"
#include "gen_fig8_transpose_large.h"
#include "gen_fig8_transpose_medium.h"
#include "gen_fig8_transpose_small.h"
// The same kernels at the repository benchmark's kernels sizes, for vm.tax.
#include "gen_tax_matmul.h"
#include "gen_tax_reduce.h"
#include "gen_tax_scan.h"
#include "gen_tax_transpose.h"

#include "driver/Pipeline.h"
#include "vm/Interp.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

using namespace descend;
using sim::GpuDevice;

namespace {

bool nearlyEqual(const double *A, const double *B, size_t N) {
  for (size_t I = 0; I != N; ++I)
    if (std::abs(A[I] - B[I]) > 1e-6 * (1.0 + std::abs(A[I])))
      return false;
  return true;
}

struct Row {
  const char *Bench;
  const char *Size;
  bench::PairedMs Ms;
  std::string CountersJson; ///< one counted (untimed) generated run
};

std::vector<Row> Rows;

/// Records a timing row with the counters of one untimed run of \p Gen.
template <typename GenFn>
void report(const char *Bench, const char *Size, const bench::PairedMs &Ms,
            GpuDevice &Dev, GenFn &&Gen) {
  Rows.push_back(Row{Bench, Size, Ms, bench::countedRun(Dev, Gen).json()});
}

int repsFor(const char *Size) {
  // The paper ran 100 repetitions per configuration; we keep that for the
  // small/medium footprints and reduce it for large ones to keep the
  // total wall time reasonable on the simulator (medians are stable).
  if (std::string(Size) == "large")
    return 31;
  return 101;
}

//===----------------------------------------------------------------------===//
// Transpose
//===----------------------------------------------------------------------===//

template <typename GenFn>
void runTranspose(const char *Size, unsigned N, GenFn Gen) {
  GpuDevice Dev;
  auto In = Dev.alloc<double>((size_t)N * N);
  auto OutH = Dev.alloc<double>((size_t)N * N);
  auto OutG = Dev.alloc<double>((size_t)N * N);
  for (size_t I = 0; I != (size_t)N * N; ++I)
    In.data()[I] = static_cast<double>(I % 1013);

  hand::transpose(Dev, In, OutH, N);
  Gen(Dev, In, OutG);
  if (!nearlyEqual(OutH.data(), OutG.data(), (size_t)N * N)) {
    std::fprintf(stderr, "transpose %s: generated != handwritten!\n", Size);
    std::exit(1);
  }
  report("Transpose", Size,
         bench::pairedMs([&] { hand::transpose(Dev, In, OutH, N); },
                         [&] { Gen(Dev, In, OutG); }, repsFor(Size)),
         Dev, [&] { Gen(Dev, In, OutG); });
}

//===----------------------------------------------------------------------===//
// Reduce
//===----------------------------------------------------------------------===//

template <typename GenFn>
void runReduce(const char *Size, unsigned NB, GenFn Gen) {
  GpuDevice Dev;
  auto In = Dev.alloc<double>((size_t)NB * 256);
  auto OutH = Dev.alloc<double>(NB);
  auto OutG = Dev.alloc<double>(NB);
  for (size_t I = 0; I != (size_t)NB * 256; ++I)
    In.data()[I] = static_cast<double>(I % 89) * 0.5;

  hand::reduce(Dev, In, OutH, NB);
  Gen(Dev, In, OutG);
  if (!nearlyEqual(OutH.data(), OutG.data(), NB)) {
    std::fprintf(stderr, "reduce %s: generated != handwritten!\n", Size);
    std::exit(1);
  }
  report("Reduce", Size,
         bench::pairedMs([&] { hand::reduce(Dev, In, OutH, NB); },
                         [&] { Gen(Dev, In, OutG); }, repsFor(Size)),
         Dev, [&] { Gen(Dev, In, OutG); });
}

//===----------------------------------------------------------------------===//
// Scan (two kernels, host scanning the block totals in between — the
// paper measures from the start of the first to the end of the second)
//===----------------------------------------------------------------------===//

template <typename ScanFn, typename AddFn>
void runScan(const char *Size, unsigned NB, ScanFn GenScan, AddFn GenAdd) {
  GpuDevice Dev;
  const size_t N = (size_t)NB * 256;
  auto In = Dev.alloc<double>(N);
  auto OutH = Dev.alloc<double>(N);
  auto OutG = Dev.alloc<double>(N);
  auto Sums = Dev.alloc<double>(NB);
  auto Offsets = Dev.alloc<double>(NB);
  for (size_t I = 0; I != N; ++I)
    In.data()[I] = static_cast<double>(I % 31) * 0.25;

  auto HostScanTotals = [&] {
    double Acc = 0;
    for (unsigned B = 0; B != NB; ++B) {
      Acc += Sums.data()[B];
      Offsets.data()[B] = Acc;
    }
  };
  auto RunHand = [&] {
    hand::scanBlocks(Dev, In, OutH, Sums, NB);
    HostScanTotals();
    hand::addSums(Dev, OutH, Offsets, NB);
  };
  auto RunGen = [&] {
    GenScan(Dev, In, OutG, Sums);
    HostScanTotals();
    GenAdd(Dev, OutG, Offsets);
  };

  RunHand();
  RunGen();
  if (!nearlyEqual(OutH.data(), OutG.data(), N)) {
    std::fprintf(stderr, "scan %s: generated != handwritten!\n", Size);
    std::exit(1);
  }
  // Two launches per generated run; the counted stats merge both.
  report("Scan", Size, bench::pairedMs(RunHand, RunGen, repsFor(Size)), Dev,
         RunGen);
}

//===----------------------------------------------------------------------===//
// Matrix multiplication
//===----------------------------------------------------------------------===//

template <typename GenFn>
void runMatmul(const char *Size, unsigned NT, GenFn Gen) {
  GpuDevice Dev;
  const unsigned N = NT * 16;
  auto A = Dev.alloc<double>((size_t)N * N);
  auto B = Dev.alloc<double>((size_t)N * N);
  auto CH = Dev.alloc<double>((size_t)N * N);
  auto CG = Dev.alloc<double>((size_t)N * N);
  for (size_t I = 0; I != (size_t)N * N; ++I) {
    A.data()[I] = static_cast<double>((I * 7) % 13) - 6.0;
    B.data()[I] = static_cast<double>((I * 11) % 9) - 4.0;
  }

  hand::matmul(Dev, A, B, CH, NT);
  Gen(Dev, A, B, CG);
  if (!nearlyEqual(CH.data(), CG.data(), (size_t)N * N)) {
    std::fprintf(stderr, "matmul %s: generated != handwritten!\n", Size);
    std::exit(1);
  }
  int Reps = std::string(Size) == "large" ? 11 : 31;
  report("MM", Size,
         bench::pairedMs([&] { hand::matmul(Dev, A, B, CH, NT); },
                         [&] { Gen(Dev, A, B, CG); }, Reps),
         Dev, [&] { Gen(Dev, A, B, CG); });
}

//===----------------------------------------------------------------------===//
// vm.tax: the vm against the generated code, kernel by kernel
//===----------------------------------------------------------------------===//

using GenBufs = std::vector<GpuDevice::Buffer<double>>;

struct TaxRow {
  const char *Kernel;
  bench::PairedMs Ms; ///< A: generated, B: vm
  vm::LaunchWork Work;
};

std::vector<TaxRow> TaxRows;

/// Compiles kernels/\p File at `-D Nat=Size` for the vm; exits on error.
std::shared_ptr<const vm::CompiledProgram>
compileVm(const char *File, const char *Nat, long long Size) {
  const std::string Path = std::string(DESCEND_SOURCE_DIR "/kernels/") + File;
  std::ifstream In(Path);
  std::stringstream Src;
  Src << In.rdbuf();
  CompilerInvocation Inv;
  Inv.BufferName = Path;
  Inv.Defines[Nat] = Size;
  Inv.RunUntil = Stage::Typecheck;
  Session S(Inv);
  vm::CompileVmResult C;
  if (S.run(Src.str()).Ok)
    C = vm::compile(*S.module());
  if (!C.Ok) {
    std::fprintf(stderr, "vm.tax: cannot compile %s: %s%s\n", Path.c_str(),
                 S.renderDiagnostics().c_str(), C.Error.c_str());
    std::exit(1);
  }
  return C.Program;
}

/// Times kernel \p Name of \p P on the vm against \p Gen, its generated
/// twin, on a 1-worker device. Both sides get buffers of the kernel's
/// parameter sizes, filled alike, and must write the same bytes.
template <typename GenFn>
void runTax(const vm::CompiledProgram &P, const char *Name, GenFn Gen) {
  const vm::VmKernel *K = P.findKernel(Name);
  if (!K) {
    std::fprintf(stderr, "vm.tax: no kernel `%s`\n", Name);
    std::exit(1);
  }
  GpuDevice Dev;
  Dev.setWorkers(1);
  GenBufs GB;
  std::vector<vm::DevBuf> VB;
  for (size_t I = 0; I != K->Params.size(); ++I) {
    const size_t Count = K->Params[I].Count;
    GB.push_back(Dev.alloc<double>(Count));
    VB.push_back(vm::allocDev(Dev, ScalarKind::F64, Count));
    for (size_t J = 0; J != Count; ++J)
      GB.back().data()[J] = static_cast<double>((J * 7 + I) % 29) * 0.5;
    std::memcpy(VB.back().Data, GB.back().data(), Count * sizeof(double));
  }
  auto RunVm = [&] {
    if (!vm::launchKernel(Dev, *K, VB).Ok) {
      std::fprintf(stderr, "vm.tax: vm launch of `%s` failed\n", Name);
      std::exit(1);
    }
  };
  auto RunGen = [&] { Gen(Dev, GB); };
  RunGen();
  RunVm();
  for (size_t I = 0; I != VB.size(); ++I)
    if (std::memcmp(VB[I].Data, GB[I].data(),
                    VB[I].Count * sizeof(double)) != 0) {
      std::fprintf(stderr, "vm.tax %s: vm != generated!\n", Name);
      std::exit(1);
    }
  TaxRow Row{Name, bench::pairedMs(RunGen, RunVm, 31), {}};
  vm::launchKernel(Dev, *K, VB, &Row.Work);
  TaxRows.push_back(Row);
}

void runTaxes() {
  auto Reduce = compileVm("reduce.descend", "nb", 256);
  runTax(*Reduce, "reduce",
         [](GpuDevice &D, GenBufs &B) { gen::reduce_tax(D, B[0], B[1]); });
  auto Scan = compileVm("scan.descend", "nb", 256);
  runTax(*Scan, "scan_blocks", [](GpuDevice &D, GenBufs &B) {
    gen::scan_blocks_tax(D, B[0], B[1], B[2]);
  });
  runTax(*Scan, "add_sums",
         [](GpuDevice &D, GenBufs &B) { gen::add_sums_tax(D, B[0], B[1]); });
  auto Transpose = compileVm("transpose.descend", "n", 256);
  runTax(*Transpose, "transpose",
         [](GpuDevice &D, GenBufs &B) { gen::transpose_tax(D, B[0], B[1]); });
  auto Matmul = compileVm("matmul.descend", "nt", 4);
  runTax(*Matmul, "matmul", [](GpuDevice &D, GenBufs &B) {
    gen::matmul_tax(D, B[0], B[1], B[2]);
  });
}

} // namespace

int main(int argc, char **argv) {
  const char *OutDir = bench::outputDir(argc, argv);
  std::printf("Figure 8 reproduction: handwritten vs Descend-generated "
              "kernels on the GPU simulator\n");
  std::printf("(relative runtime = CUDA/Descend; 1.0 = equal, the paper "
              "reports |1 - r| < 3%%)\n\n");

  runReduce("small", 16384, descend::gen::reduce_small);
  runReduce("medium", 32768, descend::gen::reduce_medium);
  runReduce("large", 65536, descend::gen::reduce_large);

  runTranspose("small", 1024, descend::gen::transpose_small);
  runTranspose("medium", 2048, descend::gen::transpose_medium);
  runTranspose("large", 4096, descend::gen::transpose_large);

  runScan("small", 4096, descend::gen::scan_blocks_small,
          descend::gen::add_sums_small);
  runScan("medium", 8192, descend::gen::scan_blocks_medium,
          descend::gen::add_sums_medium);
  runScan("large", 16384, descend::gen::scan_blocks_large,
          descend::gen::add_sums_large);

  runMatmul("small", 16, descend::gen::matmul_small);
  runMatmul("medium", 24, descend::gen::matmul_medium);
  runMatmul("large", 32, descend::gen::matmul_large);

  bench::printTimingHeader();
  std::printf("---------------------------------------------------------\n");
  double GeoMean = 1.0;
  std::vector<bench::Json> JsonRows;
  for (const Row &R : Rows) {
    GeoMean *= R.Ms.A.Median / R.Ms.B.Median;
    bench::printTimingRow(R.Bench, R.Size, R.Ms);
    bench::Json Row;
    Row.str("bench", R.Bench).str("size", R.Size);
    bench::timingFields(Row, R.Ms).raw("counters", R.CountersJson);
    JsonRows.push_back(Row);
  }
  GeoMean = std::pow(GeoMean, 1.0 / Rows.size());
  std::printf("---------------------------------------------------------\n");
  std::printf("%-10s %-7s %12s %14s %9.3fx\n", "Mean", "", "", "", GeoMean);
  std::printf("\nShape check (geomean within 10%% of 1.0): %s\n",
              std::abs(1.0 - GeoMean) < 0.10 ? "PASS" : "CHECK MANUALLY");
  // The paper's claim is per kernel; name every row the geomean hides.
  std::string Outside;
  for (const Row &R : Rows) {
    const double Ratio = R.Ms.A.Median / R.Ms.B.Median;
    if (Ratio < 0.90 || Ratio > 1.10) {
      char Item[64];
      std::snprintf(Item, sizeof(Item), " %s/%s %.3f", R.Bench, R.Size, Ratio);
      Outside += Item;
    }
  }
  std::printf("Ratios outside [0.90, 1.10]:%s\n",
              Outside.empty() ? " none" : Outside.c_str());

  runTaxes();
  std::printf("\nvm.tax: vm::launchKernel vs the generated launch, 1 worker\n");
  std::printf("%-12s %10s %10s %12s %12s %12s\n", "kernel", "gen [ms]",
              "vm [ms]", "gen_over_vm", "instrs", "lane_steps");
  bench::Json Tax;
  for (const TaxRow &T : TaxRows) {
    const double Ratio = T.Ms.A.Median / T.Ms.B.Median;
    std::printf("%-12s %10.3f %10.3f %12.3f %12llu %12llu\n", T.Kernel,
                T.Ms.A.Median, T.Ms.B.Median, Ratio,
                static_cast<unsigned long long>(T.Work.Instrs),
                static_cast<unsigned long long>(T.Work.LaneSteps));
    bench::Json Row;
    Row.num("gen_ms", T.Ms.A.Median)
        .num("gen_q1_ms", T.Ms.A.Q1)
        .num("gen_q3_ms", T.Ms.A.Q3)
        .num("vm_ms", T.Ms.B.Median)
        .num("vm_q1_ms", T.Ms.B.Q1)
        .num("vm_q3_ms", T.Ms.B.Q3)
        .num("gen_over_vm", Ratio)
        .num("instrs", T.Work.Instrs)
        .num("lane_steps", T.Work.LaneSteps);
    Tax.raw(T.Kernel, Row.text());
  }

  bench::Json Report;
  Report.str("unit", "ms")
      .array("rows", JsonRows)
      .num("geomean_relative", GeoMean)
      .raw("vm_tax", Tax.text());
  return bench::writeReport(OutDir, "fig8", Report) ? 0 : 1;
}
