//===- bench/bench_matmul_sweep.cpp - Matmul tile-count sweep ----------------===//
//
// Sweeps the Figure 8 matmul over tile counts nt = 4 / 8 / 16 / 32 and
// reports the handwritten-vs-generated relative runtime per nt. This is
// the regression guard for the phase-program IR: with the tile loop kept
// as host-side loop structure the generated code size is independent of
// nt, so the ratio must stay flat instead of collapsing at nt >= 16 the
// way the unrolling lowerer did (2-6x slower, see ROADMAP history).
//
// Since the schedule-pass PR every sweep point also runs the *tuned*
// instantiation (built with `--pad-shared=1`, the config
// `descendc --autotune` selects): the MMtuned rows and their counters
// are the autotuner's regression harness. Per nt the bench records the
// default-vs-tuned bank-conflict delta (`tuned_deltas`) and the worst
// improvement over all nts, which tools/check_bench.py gates. Tuned
// outputs are verified bit-identical to the handwritten baseline like
// every other row.
//
// `bench_matmul_sweep OUT_DIR` writes BENCH_matmul_sweep.json.
//
//===----------------------------------------------------------------------===//

#include "bench/Report.h"
#include "bench/handwritten.h"

// Generated at build time by descendc --emit=sim from kernels/matmul.descend.
#include "gen_fig8_matmul_large.h"  // nt=32, suffix _large
#include "gen_fig8_matmul_small.h"  // nt=16, suffix _small
#include "gen_matmul_nt8.h"         // nt=8,  suffix _nt8
#include "gen_matmul_small.h"       // nt=4, unsuffixed
// The same nts with the shared-padding schedule pass on (--pad-shared=1).
#include "gen_matmul_tuned16.h"     // nt=16, suffix _tuned16
#include "gen_matmul_tuned32.h"     // nt=32, suffix _tuned32
#include "gen_matmul_tuned4.h"      // nt=4,  suffix _tuned4
#include "gen_matmul_tuned8.h"      // nt=8,  suffix _tuned8

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

using namespace descend;
using sim::GpuDevice;

namespace {

std::vector<bench::Json> Rows;
bench::Json TunedDeltas;
double WorstImprovement = 1.0;

/// One sweep point: correctness against the handwritten kernel, the
/// timing row (handwritten and generated interleaved), and one counted
/// run, whose stats it returns. \p Label is the table tag ("MMsweep" for
/// the default lowering, "MMtuned" for the padded one).
template <typename GenFn>
sim::LaunchStats runSweepPoint(const char *Label, unsigned NT, GenFn Gen,
                               int Reps) {
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
  for (size_t I = 0; I != (size_t)N * N; ++I)
    if (CH.data()[I] != CG.data()[I]) {
      std::fprintf(stderr, "matmul %s nt=%u: generated != handwritten!\n",
                   Label, NT);
      std::exit(1);
    }

  bench::PairedMs P =
      bench::pairedMs([&] { hand::matmul(Dev, A, B, CH, NT); },
                      [&] { Gen(Dev, A, B, CG); }, Reps);
  bench::printTimingRow(Label, ("nt=" + std::to_string(NT)).c_str(), P);
  sim::LaunchStats LS = bench::countedRun(Dev, [&] { Gen(Dev, A, B, CG); });

  bench::Json Row;
  Row.str("bench", "MM")
      .str("variant", std::string(Label) == "MMtuned" ? "tuned" : "default")
      .num("nt", NT);
  bench::timingFields(Row, P).raw("counters", LS.json());
  Rows.push_back(Row);
  return LS;
}

/// Both lowerings at one nt, and what the shared-padding pass bought
/// there by the deterministic counters (the autotuner's scoring signal).
template <typename GenFn, typename TunedFn>
void runSweepPair(unsigned NT, GenFn Gen, TunedFn Tuned, int Reps) {
  sim::LaunchStats D = runSweepPoint("MMsweep", NT, Gen, Reps);
  sim::LaunchStats T = runSweepPoint("MMtuned", NT, Tuned, Reps);
  const uint64_t DC = D.bankConflicts(), TC = T.bankConflicts();
  const double Improvement =
      DC ? (static_cast<double>(DC) - static_cast<double>(TC)) /
               static_cast<double>(DC)
         : 0.0;
  WorstImprovement = std::min(WorstImprovement, Improvement);
  TunedDeltas.raw(std::to_string(NT).c_str(),
                  bench::Json()
                      .num("default_conflicts", DC)
                      .num("tuned_conflicts", TC)
                      .num("conflict_improvement", Improvement)
                      .num("default_shared_transactions",
                           D.sharedTransactions())
                      .num("tuned_shared_transactions",
                           T.sharedTransactions())
                      .text());
}

} // namespace

int main(int argc, char **argv) {
  const char *OutDir = bench::outputDir(argc, argv);
  std::printf("Matmul nt sweep: handwritten vs Descend-generated "
              "(relative = CUDA/Descend; flat ~1.0 = loop-preserving "
              "lowering holds)\n\n");
  bench::printTimingHeader();
  runSweepPair(4, descend::gen::matmul, descend::gen::matmul_tuned4, 51);
  runSweepPair(8, descend::gen::matmul_nt8, descend::gen::matmul_tuned8, 31);
  runSweepPair(16, descend::gen::matmul_small, descend::gen::matmul_tuned16,
               21);
  runSweepPair(32, descend::gen::matmul_large, descend::gen::matmul_tuned32,
               11);
  std::printf("worst tuned bank-conflict improvement: %.3f\n",
              WorstImprovement);

  bench::Json Report;
  Report.str("unit", "ms")
      .array("rows", Rows)
      .raw("tuned_deltas", TunedDeltas.text())
      .num("worst_conflict_improvement", WorstImprovement);
  return bench::writeReport(OutDir, "matmul_sweep", Report) ? 0 : 1;
}
