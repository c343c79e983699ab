//===- bench/bench_safety.cpp - Safety-evaluation table ----------------------===//
//
// Regenerates the qualitative "table" of the paper's Sections 2 and 3: for
// every erroneous program (S1..S8) the compiler must reject it with the
// documented diagnostic, and for every correct counterpart it must accept.
// Prints one row per case plus compile times (static checking is the
// paper's entire runtime-cost story: it happens before execution);
// `bench_safety OUT_DIR` also writes the rows to BENCH_safety.json.
//
//===----------------------------------------------------------------------===//

#include "bench/Report.h"
#include "driver/Pipeline.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace descend;

namespace {

struct CaseRow {
  std::string Id;
  std::string What;
  DiagCode Expected;
  bool ShouldPass; // positive control cases
  std::string Source;
};

/// Loads a programs/*.descend fixture (the H and host-P rows are the
/// single-source fixtures the hostgen tests also use). An unreadable
/// fixture is a configuration error, not a verdict: abort loudly.
std::string programSource(const std::string &Name) {
  std::string Path = std::string(DESCEND_PROGRAM_DIR) + "/" + Name;
  std::ifstream In(Path);
  if (!In.good()) {
    std::fprintf(stderr, "bench_safety: cannot open fixture '%s'\n",
                 Path.c_str());
    std::exit(1);
  }
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

const char *ScaleVecPoly = R"(
fn scale_vec<n: nat>(vec: &uniq gpu.global [f64; n])
-[grid: gpu.grid<X<1>, X<n>>]-> () {
  sched(X) block in grid {
    sched(X) thread in block {
      vec.group::<n>[[block]][[thread]] =
        vec.group::<n>[[block]][[thread]] * 3.0
    }
  }
}
)";

std::vector<CaseRow> cases() {
  std::vector<CaseRow> Out;
  Out.push_back({"S1", "rev_per_block data race",
                 DiagCode::ConflictingMemoryAccess, false, R"(
fn rev_per_block(arr: &uniq gpu.global [f64; 4096])
-[grid: gpu.grid<X<16>, X<256>>]-> () {
  sched(X) block in grid {
    sched(X) thread in block {
      arr.group::<256>[[block]][[thread]] =
        arr.group::<256>[[block]].rev[[thread]]
    } } }
)"});
  Out.push_back({"S2", "barrier under split", DiagCode::BarrierNotAllowed,
                 false, R"(
fn kernel(arr: &uniq gpu.global [f64; 4096])
-[grid: gpu.grid<X<16>, X<256>>]-> () {
  sched(X) block in grid {
    split(X) block at 32 { a => { sync }, b => { } } } }
)"});
  Out.push_back({"S3", "swapped copy direction",
                 DiagCode::TransferDirectionMismatch, false, R"(
fn host() -[t: cpu.thread]-> () {
  let h_vec = CpuHeap::new([0.0; 1024]);
  let d_vec = GpuGlobal::alloc_copy(&h_vec);
  copy_mem_to_host(&uniq d_vec, &h_vec) }
)"});
  Out.push_back({"S4", "CPU pointer dereferenced on GPU",
                 DiagCode::CannotDereference, false, R"(
fn init_kernel(vec: &uniq cpu.mem [f64; 1024])
-[grid: gpu.grid<X<1>, X<1024>>]-> () {
  sched(X) block in grid {
    sched(X) thread in block { (*vec)[[thread]] = 1.0 } } }
)"});
  // The paper reports this as "mismatched types" (the argument's size
  // conflicts with the launch-bound grid variable).
  Out.push_back({"S5", "launch with wrong thread count",
                 DiagCode::MismatchedTypes, false,
                 std::string(ScaleVecPoly) + R"(
fn host() -[t: cpu.thread]-> () {
  let h = CpuHeap::new([0.0; 1024]);
  let d_vec = GpuGlobal::alloc_copy(&h);
  scale_vec::<<<X<1>, X<8192>>>>(&uniq d_vec) }
)"});
  Out.push_back({"S6", "block borrows whole array",
                 DiagCode::NarrowingViolated, false, R"(
fn kernel(arr: &uniq gpu.global [f32; 1024])
-[grid: gpu.grid<X<32>, X<32>>]-> () {
  sched(X) block in grid { let b = &uniq *arr } }
)"});
  Out.push_back({"S7", "select without block narrowing",
                 DiagCode::NarrowingViolated, false, R"(
fn kernel(arr: &uniq gpu.global [f32; 1024])
-[grid: gpu.grid<X<32>, X<32>>]-> () {
  sched(X) block in grid {
    sched(X) thread in block {
      let g = &uniq arr.group::<32>[[thread]] } } }
)"});
  Out.push_back({"S8", "transpose without barrier",
                 DiagCode::ConflictingMemoryAccess, false, R"(
view group_by_row<a: nat, b: nat> = group::<a/b>.transpose.map(transpose)
view group_by_tile<a: nat, b: nat> =
  group::<a>.map(map(group::<b>)).map(transpose)
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
      for i in [0..4] {
        output.group_by_tile::<32,32>[[block]]
          .group_by_row::<32,4>[[thread]][i] =
          tmp.transpose.group_by_row::<32,4>[[thread]][i] } } } }
)"});
  // Host-program rows (Fig. 1 / Sections 2.3, 3.4, 3.5): complete
  // programs whose *host* side carries the bug. Always-reject.
  Out.push_back({"H1", "host: swapped copy direction (Fig. 1)",
                 DiagCode::TransferDirectionMismatch, false,
                 programSource("bad_swapped_copy.descend")});
  Out.push_back({"H2", "host: size-mismatched transfer",
                 DiagCode::TransferSizeMismatch, false,
                 programSource("bad_size_mismatch.descend")});
  Out.push_back({"H3", "host: wrong launch configuration",
                 DiagCode::LaunchConfigMismatch, false,
                 programSource("bad_launch_config.descend")});
  Out.push_back({"H4", "host: device pointer deref on CPU",
                 DiagCode::CannotDereference, false,
                 programSource("bad_host_deref.descend")});
  // Positive controls: the corrected programs must pass.
  Out.push_back({"P1", "correct per-block reverse (out-of-place)",
                 DiagCode::ConflictingMemoryAccess, true, R"(
fn rev_ok(arr: &uniq gpu.global [f64; 4096], out: &uniq gpu.global [f64; 4096])
-[grid: gpu.grid<X<16>, X<256>>]-> () {
  sched(X) block in grid {
    sched(X) thread in block {
      out.group::<256>[[block]][[thread]] =
        arr.group::<256>[[block]].rev[[thread]]
    } } }
)"});
  Out.push_back({"P2", "correct launch configuration",
                 DiagCode::LaunchConfigMismatch, true,
                 std::string(ScaleVecPoly) + R"(
fn host() -[t: cpu.thread]-> () {
  let h = CpuHeap::new([0.0; 1024]);
  let d_vec = GpuGlobal::alloc_copy(&h);
  scale_vec::<<<X<1>, X<1024>>>>(&uniq d_vec) }
)"});
  Out.push_back({"P3", "host: quickstart program (kernel + driver)",
                 DiagCode::LaunchConfigMismatch, true,
                 programSource("quickstart_host.descend")});
  Out.push_back({"P4", "host: reduction program with CPU finish",
                 DiagCode::LaunchConfigMismatch, true,
                 programSource("reduction_host.descend")});
  return Out;
}

} // namespace

int main(int argc, char **argv) {
  const char *OutDir = bench::outputDir(argc, argv);
  std::vector<CaseRow> Rows = cases();

  std::printf("Safety evaluation (paper Sections 2-3): compile-time "
              "verdicts\n\n");
  std::printf("%-4s %-38s %-10s %-9s %10s\n", "id", "program", "expect",
              "verdict", "time");
  std::printf(
      "------------------------------------------------------------------"
      "--------\n");
  int Correct = 0;
  std::vector<bench::Json> JsonRows;
  for (const CaseRow &R : Rows) {
    CompilerInvocation Inv;
    Inv.BufferName = R.Id + ".descend";
    Inv.RunUntil = Stage::Typecheck;
    Session S(Inv);
    CompileResult Res = S.run(R.Source);
    double Ms = 0;
    for (const StageTiming &T : Res.Timings)
      Ms += T.Millis;
    bool AsExpected = R.ShouldPass
                          ? Res.Ok
                          : (!Res.Ok && S.diagnostics().contains(R.Expected));
    if (AsExpected)
      ++Correct;
    const char *Expect = R.ShouldPass ? "accept" : "reject";
    const char *Verdict = AsExpected ? (R.ShouldPass ? "accepted" : "rejected")
                                     : "WRONG";
    std::printf("%-4s %-38s %-10s %-9s %8.2fms\n", R.Id.c_str(),
                R.What.c_str(), Expect, Verdict, Ms);
    JsonRows.push_back(bench::Json()
                           .str("id", R.Id)
                           .str("case", R.What)
                           .str("expect", Expect)
                           .str("verdict", Verdict)
                           .num("compile_ms", Ms));
  }
  std::printf(
      "------------------------------------------------------------------"
      "--------\n");
  std::printf("%d/%zu verdicts as the paper describes\n", Correct,
              Rows.size());
  bench::Json Report;
  Report.str("unit", "ms")
      .array("rows", JsonRows)
      .num("correct", Correct)
      .num("total", Rows.size());
  bool Written = bench::writeReport(OutDir, "safety", Report);
  return Written && Correct == static_cast<int>(Rows.size()) ? 0 : 1;
}
