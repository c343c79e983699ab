//===- tests/descendc_cli_test.cpp - descendc command-line behaviour --------===//
//
// Drives the installed descendc binary as a subprocess and checks the
// command-line contract: exit code 0 for successful compilations, 1 for
// rejected programs / IO failures, 2 for driver misuse (unknown flags,
// malformed -D arguments), each with a diagnostic naming the offending
// argument.
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>

namespace {

struct RunResult {
  int ExitCode = -1;
  std::string Stderr;
  std::string Stdout;
};

/// Runs `descendc <args>`, capturing both streams.
RunResult runDescendc(const std::string &Args) {
  static int Counter = 0;
  std::string Base = ::testing::TempDir() + "descendc_cli_" +
                     std::to_string(Counter++);
  std::string OutFile = Base + ".out", ErrFile = Base + ".err";
  std::string Cmd = std::string(DESCENDC_BIN) + " " + Args + " > " + OutFile +
                    " 2> " + ErrFile;
  int Status = std::system(Cmd.c_str());

  RunResult R;
  R.ExitCode = WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
  auto Slurp = [](const std::string &Path) {
    std::ifstream In(Path);
    std::stringstream SS;
    SS << In.rdbuf();
    return SS.str();
  };
  R.Stdout = Slurp(OutFile);
  R.Stderr = Slurp(ErrFile);
  std::remove(OutFile.c_str());
  std::remove(ErrFile.c_str());
  return R;
}

std::string kernel(const std::string &Name) {
  return std::string(DESCEND_KERNEL_DIR) + "/" + Name;
}
std::string program(const std::string &Name) {
  return std::string(DESCEND_PROGRAM_DIR) + "/" + Name;
}

/// Writes \p Text to a file named \p Name in the test's temporary
/// directory and returns its path.
std::string tempSource(const std::string &Name, const std::string &Text) {
  std::string Path = ::testing::TempDir() + Name;
  std::ofstream(Path) << Text;
  return Path;
}

TEST(DescendcCli, HelpPrintsUsageToStdoutAndExitsZero) {
  for (const char *Flag : {"--help", "-h"}) {
    RunResult R = runDescendc(Flag);
    EXPECT_EQ(R.ExitCode, 0) << Flag;
    EXPECT_NE(R.Stdout.find("usage: descendc"), std::string::npos)
        << R.Stdout;
    EXPECT_NE(R.Stdout.find("backends:"), std::string::npos) << R.Stdout;
    EXPECT_TRUE(R.Stderr.empty()) << R.Stderr;
  }
}

TEST(DescendcCli, TimePassesMarksFailedStage) {
  // Codegen on the uninstantiated matmul fails (unfolded sizes); the
  // timing table must not present the codegen row as having been
  // reached.
  RunResult R = runDescendc(kernel("matmul.descend") +
                            " --emit=cuda --time-passes -o /dev/null");
  EXPECT_EQ(R.ExitCode, 1);
  EXPECT_NE(R.Stderr.find("stage reached: typecheck"), std::string::npos)
      << R.Stderr;
  EXPECT_NE(R.Stderr.find("codegen"), std::string::npos) << R.Stderr;
  EXPECT_NE(R.Stderr.find("(failed)"), std::string::npos) << R.Stderr;
}

TEST(DescendcCli, TimePassesHasNoFailedMarkOnSuccess) {
  RunResult R = runDescendc(kernel("matmul.descend") +
                            " --emit=cuda --time-passes -D nt=4 "
                            "-o /dev/null");
  EXPECT_EQ(R.ExitCode, 0) << R.Stderr;
  EXPECT_NE(R.Stderr.find("stage reached: codegen"), std::string::npos)
      << R.Stderr;
  EXPECT_EQ(R.Stderr.find("(failed)"), std::string::npos) << R.Stderr;
}

TEST(DescendcCli, SuccessfulCheckExitsZero) {
  RunResult R = runDescendc(kernel("scale_vec.descend") + " --emit=check");
  EXPECT_EQ(R.ExitCode, 0) << R.Stderr;
}

TEST(DescendcCli, HostProgramEmitsSimDriver) {
  RunResult R =
      runDescendc(program("quickstart_host.descend") + " --emit=sim -D nb=4");
  EXPECT_EQ(R.ExitCode, 0) << R.Stderr;
  EXPECT_NE(R.Stdout.find("inline void run("), std::string::npos)
      << R.Stdout;
}

TEST(DescendcCli, RejectedProgramExitsOne) {
  RunResult R = runDescendc(program("bad_swapped_copy.descend"));
  EXPECT_EQ(R.ExitCode, 1);
  EXPECT_NE(R.Stderr.find("arguments to `copy_mem_to_host` are swapped"),
            std::string::npos)
      << R.Stderr;
}

TEST(DescendcCli, MissingInputFileExitsOne) {
  RunResult R = runDescendc("/nonexistent/no_such_file.descend");
  EXPECT_EQ(R.ExitCode, 1);
  EXPECT_NE(R.Stderr.find("cannot open"), std::string::npos) << R.Stderr;
}

TEST(DescendcCli, UnknownFlagExitsTwoWithDiagnostic) {
  RunResult R =
      runDescendc(kernel("scale_vec.descend") + " --frobnicate");
  EXPECT_EQ(R.ExitCode, 2);
  EXPECT_NE(R.Stderr.find("unrecognized option '--frobnicate'"),
            std::string::npos)
      << R.Stderr;
}

TEST(DescendcCli, MalformedDefineMissingValueExitsTwo) {
  RunResult R = runDescendc(kernel("scale_vec.descend") + " -D nb");
  EXPECT_EQ(R.ExitCode, 2);
  EXPECT_NE(R.Stderr.find("malformed -D argument 'nb'"), std::string::npos)
      << R.Stderr;
}

TEST(DescendcCli, MalformedDefineNonIntegerExitsTwo) {
  RunResult R = runDescendc(kernel("scale_vec.descend") + " -D nb=eight");
  EXPECT_EQ(R.ExitCode, 2);
  EXPECT_NE(R.Stderr.find("'eight' is not an integer"), std::string::npos)
      << R.Stderr;
}

TEST(DescendcCli, OutOfRangeDefineExitsTwo) {
  // strtoll saturates both to the 64-bit limits; neither may reach the
  // compiler as a different number.
  for (const char *Def :
       {"nb=99999999999999999999", "nb=-99999999999999999999"}) {
    SCOPED_TRACE(Def);
    RunResult R = runDescendc(kernel("scale_vec.descend") +
                              " --emit=check -D " + Def);
    EXPECT_EQ(R.ExitCode, 2);
    EXPECT_NE(R.Stderr.find(std::string("-D argument '") + Def +
                            "': '" + (Def + 3) +
                            "' is out of range for a 64-bit integer"),
              std::string::npos)
        << R.Stderr;
  }
  RunResult T = runDescendc("--autotune " + program("matmul_host.descend") +
                            " --tune nt=1,99999999999999999999");
  EXPECT_EQ(T.ExitCode, 2);
  EXPECT_NE(T.Stderr.find("is out of range for a 64-bit integer"),
            std::string::npos)
      << T.Stderr;
}

TEST(DescendcCli, InlineDefineFormIsValidatedToo) {
  RunResult R = runDescendc(kernel("scale_vec.descend") + " -Dnb=");
  EXPECT_EQ(R.ExitCode, 2);
  EXPECT_NE(R.Stderr.find("malformed -D"), std::string::npos) << R.Stderr;

  RunResult Ok = runDescendc(kernel("scale_vec.descend") +
                             " -Dnb=4 --emit=check");
  EXPECT_EQ(Ok.ExitCode, 0) << Ok.Stderr;
}

TEST(DescendcCli, ExtraPositionalArgumentExitsTwo) {
  RunResult R = runDescendc(kernel("scale_vec.descend") + " " +
                            kernel("reduce.descend"));
  EXPECT_EQ(R.ExitCode, 2);
  EXPECT_NE(R.Stderr.find("unexpected extra input"), std::string::npos)
      << R.Stderr;
}

TEST(DescendcCli, MissingInputArgumentExitsTwo) {
  RunResult R = runDescendc("--emit=check");
  EXPECT_EQ(R.ExitCode, 2);
  EXPECT_NE(R.Stderr.find("no input file"), std::string::npos) << R.Stderr;
}

TEST(DescendcCli, DumpKirPrintsKernelStatements) {
  RunResult R = runDescendc(kernel("matmul.descend") + " --dump-kir -D nt=4");
  EXPECT_EQ(R.ExitCode, 0) << R.Stderr;
  EXPECT_NE(R.Stdout.find("kir for `matmul`"), std::string::npos)
      << R.Stdout;
  EXPECT_NE(R.Stdout.find("loop t in [0..4) slot 0"), std::string::npos)
      << R.Stdout;
  // Full statements, not just phase counts: typed stores with a memory
  // space and the spill/reload markers.
  EXPECT_NE(R.Stdout.find("st shared "), std::string::npos) << R.Stdout;
  EXPECT_NE(R.Stdout.find("st.spill arena "), std::string::npos)
      << R.Stdout;
  EXPECT_NE(R.Stdout.find("ld global "), std::string::npos) << R.Stdout;
}

TEST(DescendcCli, DumpKirRejectsEmitCombination) {
  RunResult R = runDescendc(kernel("matmul.descend") +
                            " --dump-kir --emit=cuda -D nt=4");
  EXPECT_EQ(R.ExitCode, 2);
  EXPECT_NE(R.Stderr.find("--dump-kir cannot be combined"),
            std::string::npos)
      << R.Stderr;
}

TEST(DescendcCli, ListBackendsPrintsRegistry) {
  RunResult R = runDescendc("--list-backends");
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_EQ(R.Stdout, "cuda sim vm\n");
}

TEST(DescendcCli, RetiredIrViewsAreRefused) {
  // --dump-kir is the one IR dump: --emit=ast and --dump-phase-ir fail
  // as any unknown backend or flag does.
  RunResult Ast =
      runDescendc(kernel("scale_vec.descend") + " --emit=ast -D nb=4");
  EXPECT_EQ(Ast.ExitCode, 2);
  EXPECT_NE(Ast.Stderr.find("unknown backend 'ast'"), std::string::npos)
      << Ast.Stderr;
  EXPECT_TRUE(Ast.Stdout.empty()) << Ast.Stdout;

  RunResult Phase =
      runDescendc(kernel("matmul.descend") + " --dump-phase-ir -D nt=4");
  EXPECT_EQ(Phase.ExitCode, 2);
  EXPECT_NE(Phase.Stderr.find("unrecognized option '--dump-phase-ir'"),
            std::string::npos)
      << Phase.Stderr;
}

//===----------------------------------------------------------------------===//
// --run: end-to-end execution through the vm backend
//===----------------------------------------------------------------------===//

TEST(DescendcCli, RunExecutesQuickstartHostProgram) {
  RunResult R = runDescendc("--run " + program("quickstart_host.descend") +
                            " -D nb=8");
  EXPECT_EQ(R.ExitCode, 0) << R.Stderr;
  // Default fill 1.0, scaled by 3.0 over nb*256 = 2048 elements.
  EXPECT_NE(R.Stdout.find("RESULT host_vec n=2048 sum=6144"),
            std::string::npos)
      << R.Stdout;
}

TEST(DescendcCli, RunExecutesReductionHostProgramWithArgs) {
  RunResult R = runDescendc("--run " + program("reduction_host.descend") +
                            " -D nb=8 --args 0.5 0 0");
  EXPECT_EQ(R.ExitCode, 0) << R.Stderr;
  // 2048 elements of 0.5: the partials sum to 1024, the total matches.
  EXPECT_NE(R.Stdout.find("RESULT partials n=8 sum=1024"),
            std::string::npos)
      << R.Stdout;
  EXPECT_NE(R.Stdout.find("RESULT total n=1 sum=1024"), std::string::npos)
      << R.Stdout;
}

TEST(DescendcCli, RunOnRejectedProgramExitsOne) {
  RunResult R =
      runDescendc("--run " + program("bad_swapped_copy.descend") + " -D nb=8");
  EXPECT_EQ(R.ExitCode, 1);
  EXPECT_NE(R.Stderr.find("arguments to `copy_mem_to_host` are swapped"),
            std::string::npos)
      << R.Stderr;
}

TEST(DescendcCli, RunWithoutDefinesReportsUninstantiatedGeometry) {
  RunResult R = runDescendc("--run " + program("quickstart_host.descend"));
  EXPECT_EQ(R.ExitCode, 1);
  EXPECT_NE(R.Stderr.find("descendc: error:"), std::string::npos)
      << R.Stderr;
}

TEST(DescendcCli, RunIntegerDivisionOverflowIsAnError) {
  // LLONG_MIN / -1 has no i64 quotient and faults the hardware divide. In
  // a kernel and in host code alike it is a diagnostic and exit 1, never
  // a signal.
  const std::string Kernel = tempSource("int_div_kernel.descend", R"(
fn divide(a: &uniq gpu.global [i64; 1], b: & gpu.global [i64; 1])
-[grid: gpu.grid<X<1>, X<1>>]-> () {
  sched(X) block in grid {
    sched(X) thread in block {
      a.group::<1>[[block]][[thread]] =
        a.group::<1>[[block]][[thread]] / b.group::<1>[[block]][[thread]]
    }
  }
}
fn main(ha: &uniq cpu.mem [i64; 1], hb: & cpu.mem [i64; 1])
-[t: cpu.thread]-> () {
  let da = GpuGlobal::alloc_copy(&*ha);
  let db = GpuGlobal::alloc_copy(&*hb);
  divide::<<<X<1>, X<1>>>>(&uniq da, &db);
  copy_mem_to_host(&uniq *ha, &da)
}
)");
  const std::string Host = tempSource("int_div_host.descend", R"(
fn main(ha: &uniq cpu.mem [i64; 1], hb: & cpu.mem [i64; 1])
-[t: cpu.thread]-> () {
  (*ha)[0] = (*ha)[0] / (*hb)[0]
}
)");
  struct Case {
    std::string Path;
    const char *Msg;
  } const Cases[] = {
      {Kernel, "in host `main`: in kernel `divide`: integer division overflow"},
      {Host, "in host `main`: integer division overflow in host code"},
  };
  for (const Case &C : Cases) {
    SCOPED_TRACE(C.Path);
    RunResult R = runDescendc("--run " + C.Path +
                              " --args -9223372036854775808 -1");
    EXPECT_EQ(R.ExitCode, 1);
    EXPECT_NE(R.Stderr.find(C.Msg), std::string::npos) << R.Stderr;
    RunResult Ok = runDescendc("--run " + C.Path + " --args 7 -2");
    EXPECT_EQ(Ok.ExitCode, 0) << Ok.Stderr;
    EXPECT_NE(Ok.Stdout.find("RESULT ha n=1 sum=-3"), std::string::npos)
        << Ok.Stdout;
  }
}

TEST(DescendcCli, RunRejectsEmitCombination) {
  RunResult R = runDescendc("--run " + program("quickstart_host.descend") +
                            " --emit=sim -D nb=8");
  EXPECT_EQ(R.ExitCode, 2);
  EXPECT_NE(R.Stderr.find("--run cannot be combined with --emit"),
            std::string::npos)
      << R.Stderr;
}

TEST(DescendcCli, RunRejectsOutputAndDumpFlags) {
  RunResult R = runDescendc("--run " + program("quickstart_host.descend") +
                            " -o /dev/null -D nb=8");
  EXPECT_EQ(R.ExitCode, 2);
  EXPECT_NE(R.Stderr.find("--run cannot be combined with -o"),
            std::string::npos)
      << R.Stderr;

  RunResult D = runDescendc("--run " + program("quickstart_host.descend") +
                            " --dump-kir -D nb=8");
  EXPECT_EQ(D.ExitCode, 2);
}

TEST(DescendcCli, RunRejectsNonNumericArgs) {
  RunResult R = runDescendc("--run " + program("quickstart_host.descend") +
                            " -D nb=8 --args banana");
  EXPECT_EQ(R.ExitCode, 2);
  EXPECT_NE(R.Stderr.find("--args expects numbers, got 'banana'"),
            std::string::npos)
      << R.Stderr;
}

TEST(DescendcCli, ArgsWithoutRunExitsTwo) {
  RunResult R = runDescendc(program("quickstart_host.descend") +
                            " --args 1.0");
  EXPECT_EQ(R.ExitCode, 2);
  EXPECT_NE(R.Stderr.find("--args requires --run"), std::string::npos)
      << R.Stderr;
}

//===----------------------------------------------------------------------===//
// Observability flags: --time-passes=json, --kernel-stats, --trace-json
//===----------------------------------------------------------------------===//

TEST(DescendcCli, TimePassesJsonPrintsOneObjectOnStdout) {
  RunResult R = runDescendc(kernel("scale_vec.descend") +
                            " --emit=check -D nb=4 --time-passes=json");
  EXPECT_EQ(R.ExitCode, 0) << R.Stderr;
  EXPECT_EQ(R.Stdout.front(), '{') << R.Stdout;
  EXPECT_NE(R.Stdout.find("\"reached\":\"typecheck\""), std::string::npos)
      << R.Stdout;
  EXPECT_NE(R.Stdout.find("\"name\":\"parse\""), std::string::npos)
      << R.Stdout;
  EXPECT_NE(R.Stdout.find("\"failed\":false"), std::string::npos)
      << R.Stdout;
  // The JSON mode replaces the stderr table, not the diagnostics stream.
  EXPECT_EQ(R.Stderr.find("pass timings"), std::string::npos) << R.Stderr;
}

TEST(DescendcCli, TimePassesJsonKeepsTheExitCodeContract) {
  // Codegen on the uninstantiated matmul fails; JSON mode still reports
  // the failed stage and the process still exits 1.
  RunResult R = runDescendc(kernel("matmul.descend") +
                            " --emit=cuda --time-passes=json -o /dev/null");
  EXPECT_EQ(R.ExitCode, 1);
  EXPECT_NE(R.Stdout.find("\"reached\":\"typecheck\""), std::string::npos)
      << R.Stdout;
  EXPECT_NE(R.Stdout.find("\"name\":\"codegen\",\"ms\":"), std::string::npos)
      << R.Stdout;
  EXPECT_NE(R.Stdout.find("\"failed\":true"), std::string::npos) << R.Stdout;
}

TEST(DescendcCli, TimePassesUnknownModeExitsTwo) {
  RunResult R = runDescendc(kernel("scale_vec.descend") +
                            " --time-passes=xml");
  EXPECT_EQ(R.ExitCode, 2);
  EXPECT_NE(R.Stderr.find("unknown --time-passes mode 'xml'"),
            std::string::npos)
      << R.Stderr;
}

TEST(DescendcCli, KernelStatsReportsCountersAndResults) {
  RunResult R = runDescendc("--kernel-stats " +
                            program("quickstart_host.descend") + " -D nb=8");
  EXPECT_EQ(R.ExitCode, 0) << R.Stderr;
  EXPECT_NE(R.Stdout.find("scale_vec:"), std::string::npos) << R.Stdout;
  EXPECT_NE(R.Stdout.find("global: 2048 loads, 2048 stores"),
            std::string::npos)
      << R.Stdout;
  // The RESULT digest still prints in human mode.
  EXPECT_NE(R.Stdout.find("RESULT host_vec n=2048 sum=6144"),
            std::string::npos)
      << R.Stdout;
}

TEST(DescendcCli, KernelStatsJsonIsOneObject) {
  RunResult R = runDescendc("--kernel-stats=json " +
                            program("quickstart_host.descend") + " -D nb=8");
  EXPECT_EQ(R.ExitCode, 0) << R.Stderr;
  EXPECT_EQ(R.Stdout.front(), '{') << R.Stdout;
  EXPECT_NE(R.Stdout.find("\"launches\":["), std::string::npos) << R.Stdout;
  EXPECT_NE(R.Stdout.find("\"label\":\"scale_vec\""), std::string::npos)
      << R.Stdout;
  EXPECT_NE(R.Stdout.find("\"global_loads\":2048"), std::string::npos)
      << R.Stdout;
  // One JSON object only: no RESULT lines in the machine-readable mode.
  EXPECT_EQ(R.Stdout.find("RESULT"), std::string::npos) << R.Stdout;
}

TEST(DescendcCli, KernelStatsInheritsRunConflictRules) {
  RunResult R = runDescendc("--kernel-stats " +
                            program("quickstart_host.descend") +
                            " --emit=sim -D nb=8");
  EXPECT_EQ(R.ExitCode, 2);
  EXPECT_NE(R.Stderr.find("--kernel-stats cannot be combined with --emit"),
            std::string::npos)
      << R.Stderr;
}

TEST(DescendcCli, TraceJsonWritesALoadableTraceFile) {
  std::string Trace = ::testing::TempDir() + "descendc_cli_trace.json";
  std::remove(Trace.c_str());
  RunResult R = runDescendc("--trace-json=" + Trace + " --run " +
                            program("quickstart_host.descend") + " -D nb=8");
  EXPECT_EQ(R.ExitCode, 0) << R.Stderr;
  std::ifstream In(Trace);
  ASSERT_TRUE(In.good()) << "trace file not written: " << Trace;
  std::stringstream SS;
  SS << In.rdbuf();
  std::string Doc = SS.str();
  EXPECT_NE(Doc.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(Doc.find("\"cat\":\"pipeline\""), std::string::npos);
  EXPECT_NE(Doc.find("\"cat\":\"sim\""), std::string::npos);
  std::remove(Trace.c_str());
}

//===----------------------------------------------------------------------===//
// Schedule passes and the autotuner: --pad-shared, --vectorize,
// --dump-kir=pre|post, --autotune
//===----------------------------------------------------------------------===//

TEST(DescendcCli, PadSharedRewritesDumpedIndexesPostOnly) {
  std::string Base = kernel("matmul.descend") + " -D nt=4 --pad-shared=1";
  RunResult Plain =
      runDescendc(kernel("matmul.descend") + " -D nt=4 --dump-kir");
  RunResult Pre = runDescendc(Base + " --dump-kir=pre");
  RunResult Post = runDescendc(Base + " --dump-kir=post");
  ASSERT_EQ(Plain.ExitCode, 0) << Plain.Stderr;
  ASSERT_EQ(Pre.ExitCode, 0) << Pre.Stderr;
  ASSERT_EQ(Post.ExitCode, 0) << Post.Stderr;
  // =pre shows the IR before the schedule passes run: byte-identical to
  // the dump without any passes requested.
  EXPECT_EQ(Pre.Stdout, Plain.Stdout);
  // =post shows the padded 16x17 tiles.
  EXPECT_EQ(Pre.Stdout.find("* 17"), std::string::npos) << Pre.Stdout;
  EXPECT_NE(Post.Stdout.find("* 17"), std::string::npos) << Post.Stdout;
}

TEST(DescendcCli, VectorizeFusesDumpedStores) {
  std::string Base = kernel("scale2.descend") + " -D nb=2 --vectorize";
  RunResult Pre = runDescendc(Base + " --dump-kir=pre");
  RunResult Post = runDescendc(Base + " --dump-kir=post");
  ASSERT_EQ(Pre.ExitCode, 0) << Pre.Stderr;
  ASSERT_EQ(Post.ExitCode, 0) << Post.Stderr;
  EXPECT_EQ(Pre.Stdout.find("st2 "), std::string::npos) << Pre.Stdout;
  EXPECT_NE(Post.Stdout.find("st2 global "), std::string::npos)
      << Post.Stdout;
}

TEST(DescendcCli, PadSharedRunKeepsResultsBitIdentical) {
  std::string Base = "--run " + program("matmul_host.descend") + " -D nt=4";
  RunResult Def = runDescendc(Base);
  RunResult Padded = runDescendc(Base + " --pad-shared=1");
  ASSERT_EQ(Def.ExitCode, 0) << Def.Stderr;
  ASSERT_EQ(Padded.ExitCode, 0) << Padded.Stderr;
  EXPECT_NE(Def.Stdout.find("RESULT c n=4096"), std::string::npos)
      << Def.Stdout;
  // Padding is layout-only: the RESULT digests (sum/first/last to 17
  // significant digits) must agree exactly.
  EXPECT_EQ(Def.Stdout, Padded.Stdout);
}

TEST(DescendcCli, AutotuneSelectsThePaddedMatmul) {
  RunResult R = runDescendc("--autotune " + program("matmul_host.descend") +
                            " -D nt=4");
  EXPECT_EQ(R.ExitCode, 0) << R.Stderr;
  EXPECT_NE(R.Stdout.find("best: -D nt=4 --pad-shared=1"),
            std::string::npos)
      << R.Stdout;
}

TEST(DescendcCli, AutotuneJsonIsOneObjectWithRankedCandidates) {
  RunResult R = runDescendc("--autotune=json " +
                            program("matmul_host.descend") + " -D nt=4");
  EXPECT_EQ(R.ExitCode, 0) << R.Stderr;
  EXPECT_EQ(R.Stdout.front(), '{') << R.Stdout;
  EXPECT_NE(R.Stdout.find("\"best\":"), std::string::npos) << R.Stdout;
  EXPECT_NE(R.Stdout.find("\"pad\":1"), std::string::npos) << R.Stdout;
  EXPECT_NE(R.Stdout.find("\"bit_identical\":true"), std::string::npos)
      << R.Stdout;
  // One JSON object only: no table rows in the machine-readable mode.
  EXPECT_EQ(R.Stdout.find("best: "), std::string::npos) << R.Stdout;
}

TEST(DescendcCli, AutotuneTableHasOneLinePerCandidate) {
  // A failed candidate's row carries its diagnostic's first line only.
  RunResult R = runDescendc("--autotune " + program("matmul_host.descend") +
                            " --tune nt=-1,2");
  EXPECT_EQ(R.ExitCode, 0) << R.Stderr;
  std::vector<std::string> Lines;
  std::istringstream In(R.Stdout);
  for (std::string L; std::getline(In, L);)
    Lines.push_back(L);
  ASSERT_GE(Lines.size(), 3u) << R.Stdout;
  EXPECT_EQ(Lines[0], "autotune: 8 candidates") << R.Stdout;
  // The title, the column header, eight rows and the verdict.
  ASSERT_EQ(Lines.size(), 11u) << R.Stdout;
  EXPECT_EQ(Lines[10].rfind("best: -D nt=2", 0), 0u) << R.Stdout;
  unsigned Failed = 0;
  for (size_t I = 2; I != 10; ++I)
    if (Lines[I].find("[failed: ") != std::string::npos) {
      ++Failed;
      EXPECT_NE(Lines[I].find("-D nt=-1"), std::string::npos) << Lines[I];
      EXPECT_EQ(Lines[I].back(), ']') << Lines[I];
    }
  EXPECT_EQ(Failed, 4u) << R.Stdout;
}

TEST(DescendcCli, AutotuneFlagConflictsExitTwo) {
  RunResult E = runDescendc("--autotune " + program("matmul_host.descend") +
                            " --emit=sim -D nt=4");
  EXPECT_EQ(E.ExitCode, 2);
  EXPECT_NE(E.Stderr.find("--autotune cannot be combined"),
            std::string::npos)
      << E.Stderr;

  // Explicit pass flags contradict the sweep.
  RunResult P = runDescendc("--autotune " + program("matmul_host.descend") +
                            " --pad-shared=1 -D nt=4");
  EXPECT_EQ(P.ExitCode, 2);
  EXPECT_NE(P.Stderr.find("sweeps the schedule passes itself"),
            std::string::npos)
      << P.Stderr;

  RunResult T = runDescendc(program("matmul_host.descend") +
                            " --tune nt=4,8");
  EXPECT_EQ(T.ExitCode, 2);
  EXPECT_NE(T.Stderr.find("--tune requires --autotune"), std::string::npos)
      << T.Stderr;
}

TEST(DescendcCli, MalformedScheduleFlagsExitTwo) {
  RunResult P = runDescendc(kernel("scale_vec.descend") + " --pad-shared=x");
  EXPECT_EQ(P.ExitCode, 2);
  EXPECT_NE(P.Stderr.find("--pad-shared expects a non-negative integer"),
            std::string::npos)
      << P.Stderr;

  RunResult D = runDescendc(kernel("matmul.descend") +
                            " --dump-kir=sideways -D nt=4");
  EXPECT_EQ(D.ExitCode, 2);
  EXPECT_NE(D.Stderr.find("unknown --dump-kir mode 'sideways'"),
            std::string::npos)
      << D.Stderr;
}

TEST(DescendcCli, TraceJsonWithoutPathExitsTwo) {
  RunResult R = runDescendc("--trace-json " + kernel("scale_vec.descend"));
  EXPECT_EQ(R.ExitCode, 2);
  EXPECT_NE(R.Stderr.find("--trace-json expects a file path"),
            std::string::npos)
      << R.Stderr;
}

} // namespace
