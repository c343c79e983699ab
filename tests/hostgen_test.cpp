//===- tests/hostgen_test.cpp - Host-program subsystem tests ----------------===//
//
// Exercises the host-program compilation subsystem end to end at the
// artifact level: the programs/*.descend fixtures typecheck (or are
// rejected with the targeted host diagnostics), the sim backend emits a
// runnable host driver against runtime/HostRuntime.h, and the cuda
// backend's host output matches the checked-in golden .cu.
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "hostgen/HostGen.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

using namespace descend;

namespace {

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << "cannot open " << Path;
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

std::string programPath(const std::string &Name) {
  return std::string(DESCEND_PROGRAM_DIR) + "/" + Name;
}

struct Outcome {
  bool Ok = false;
  std::string Artifact;
  std::string Rendered;
  std::unique_ptr<Session> S;
};

Outcome compileProgram(const std::string &FileName,
                       const std::string &Backend,
                       std::map<std::string, long long> Defines = {},
                       const std::string &FnSuffix = "") {
  Outcome O;
  CompilerInvocation Inv;
  Inv.BufferName = FileName;
  Inv.Defines = std::move(Defines);
  Inv.FnSuffix = FnSuffix;
  if (Backend.empty())
    Inv.RunUntil = Stage::Typecheck;
  else
    Inv.BackendName = Backend;
  O.S = std::make_unique<Session>(Inv);
  CompileResult R = O.S->run(readFile(programPath(FileName)));
  O.Ok = R.Ok;
  O.Artifact = R.Artifact;
  O.Rendered = O.S->renderDiagnostics();
  return O;
}

//===----------------------------------------------------------------------===//
// Positive programs: typecheck and emit a sim host driver
//===----------------------------------------------------------------------===//

TEST(HostGen, QuickstartSimDriver) {
  Outcome O = compileProgram("quickstart_host.descend", "sim", {{"nb", 8}});
  ASSERT_TRUE(O.Ok) << O.Rendered;
  // The generated header drives the host runtime...
  EXPECT_NE(O.Artifact.find("#include \"runtime/HostRuntime.h\""),
            std::string::npos)
      << O.Artifact;
  // ...with `main` emitted as the `run` entry point...
  EXPECT_NE(O.Artifact.find(
                "inline void run(descend::sim::GpuDevice &_dev"),
            std::string::npos)
      << O.Artifact;
  EXPECT_NE(O.Artifact.find("descend::rt::HostBuffer<double> &host_vec"),
            std::string::npos)
      << O.Artifact;
  // ...checking its argument at entry, with the vm's text...
  EXPECT_NE(O.Artifact.find("descend::rt::checkArg(host_vec, 2048, "
                            "\"argument 0 of host `main` must be a host "
                            "array of 2048 x f64\");"),
            std::string::npos)
      << O.Artifact;
  // ...performing the statically checked transfer/launch sequence, with
  // the device local owned by its C++ scope, which frees it: no release
  // statement is printed.
  EXPECT_NE(O.Artifact.find("descend::rt::DeviceLocal d_vec("
                            "descend::rt::allocCopy(_dev, host_vec));"),
            std::string::npos)
      << O.Artifact;
  EXPECT_EQ(O.Artifact.find("rt::free"), std::string::npos) << O.Artifact;
  EXPECT_NE(O.Artifact.find("scale_vec(_dev, d_vec);"), std::string::npos)
      << O.Artifact;
  EXPECT_NE(O.Artifact.find("descend::rt::copyToHost(host_vec, d_vec, "
                            "\"host_vec\", \"d_vec\");"),
            std::string::npos)
      << O.Artifact;
  // Synchronous launches are followed by a device check so sticky errors
  // surface as structured rt::Errors at the failing step.
  EXPECT_NE(O.Artifact.find("descend::rt::checkDevice(_dev, \"launch "
                            "scale_vec\");"),
            std::string::npos)
      << O.Artifact;
}

TEST(HostGen, ReductionSimDriverLowersHostLoop) {
  Outcome O = compileProgram("reduction_host.descend", "sim", {{"nb", 8}});
  ASSERT_TRUE(O.Ok) << O.Rendered;
  // The sequential CPU finish compiles to a real host loop.
  EXPECT_NE(O.Artifact.find("for (long long i = 0; i != 8; ++i)"),
            std::string::npos)
      << O.Artifact;
  EXPECT_NE(O.Artifact.find("total[0] = (total[0] + partials[i]);"),
            std::string::npos)
      << O.Artifact;
  // Two transfers in, one out.
  EXPECT_NE(O.Artifact.find("allocCopy(_dev, data)"), std::string::npos);
  EXPECT_NE(O.Artifact.find("allocCopy(_dev, partials)"), std::string::npos);
  EXPECT_NE(O.Artifact.find(
                "copyToHost(partials, d_out, \"partials\", \"d_out\")"),
            std::string::npos);
}

TEST(HostGen, FnSuffixAppliesToDriverAndLaunches) {
  Outcome O = compileProgram("quickstart_host.descend", "sim", {{"nb", 8}},
                             "_tiny");
  ASSERT_TRUE(O.Ok) << O.Rendered;
  EXPECT_NE(O.Artifact.find("inline void run_tiny("), std::string::npos)
      << O.Artifact;
  // The launch resolves against the suffixed kernel in the same header.
  EXPECT_NE(O.Artifact.find("scale_vec_tiny(_dev, d_vec);"),
            std::string::npos)
      << O.Artifact;
}

TEST(HostGen, SymbolicHostProgramTypechecks) {
  // Without -D the whole program stays polymorphic in nb; the transfer
  // and launch checks go through the Nat solver.
  Outcome O = compileProgram("reduction_host.descend", "");
  EXPECT_TRUE(O.Ok) << O.Rendered;
}

TEST(HostGen, KernelOnlyModulesStayRuntimeFree) {
  CompilerInvocation Inv;
  Inv.BufferName = "k.descend";
  Inv.Defines["nb"] = 2;
  Inv.BackendName = "sim";
  Session S(Inv);
  CompileResult R = S.run(R"(
fn scale_vec<nb: nat>(vec: &uniq gpu.global [f64; nb*256])
-[grid: gpu.grid<X<nb>, X<256>>]-> () {
  sched(X) block in grid {
    sched(X) thread in block {
      vec.group::<256>[[block]][[thread]] =
        vec.group::<256>[[block]][[thread]] * 3.0
    }
  }
}
)");
  ASSERT_TRUE(R.Ok) << S.renderDiagnostics();
  EXPECT_EQ(R.Artifact.find("HostRuntime"), std::string::npos)
      << "kernel-only headers must not pull in the host runtime";
}

//===----------------------------------------------------------------------===//
// One driver per host function
//===----------------------------------------------------------------------===//

TEST(HostGen, EverySimArtifactPrintsEachHostFunctionOnce) {
  // The sim artifact is the synchronous driver alone: no stream or graph
  // type appears in it.
  std::vector<std::string> Paths = {std::string(DESCEND_KERNEL_DIR) +
                                    "/scale2.descend"};
  for (const auto &E : std::filesystem::directory_iterator(DESCEND_PROGRAM_DIR))
    if (E.path().extension() == ".descend" &&
        E.path().filename().string().rfind("bad_", 0) != 0)
      Paths.push_back(E.path().string());
  ASSERT_GE(Paths.size(), 4u);
  for (const std::string &Path : Paths) {
    SCOPED_TRACE(Path);
    CompilerInvocation Inv;
    Inv.BufferName = Path;
    Inv.Defines = {{"nb", 8}, {"nt", 4}};
    Inv.BackendName = "sim";
    Session S(Inv);
    CompileResult R = S.run(readFile(Path));
    ASSERT_TRUE(R.Ok) << S.renderDiagnostics();
    EXPECT_EQ(R.Artifact.find("sim::Stream"), std::string::npos) << R.Artifact;
    EXPECT_EQ(R.Artifact.find("GraphExec"), std::string::npos) << R.Artifact;
    size_t Drivers = 0;
    for (size_t Pos = 0;
         (Pos = R.Artifact.find("inline void run(", Pos)) != std::string::npos;
         ++Pos)
      ++Drivers;
    EXPECT_EQ(Drivers, 1u) << R.Artifact;
  }
}

//===----------------------------------------------------------------------===//
// Release statements
//===----------------------------------------------------------------------===//

TEST(HostGenRelease, EveryScopeReleasesItsDeviceBuffersInReverseOrder) {
  const char *Src = R"(
fn scale(v: &uniq gpu.global [f64; 256]) -[grid: gpu.grid<X<1>, X<256>>]-> () {
  sched(X) block in grid {
    sched(X) thread in block {
      v.group::<256>[[block]][[thread]] =
        v.group::<256>[[block]][[thread]] * 3.0
    }
  }
}
fn main(h: &uniq cpu.mem [f64; 256], p: &uniq gpu.global [f64; 256])
-[t: cpu.thread]-> () {
  let a = GpuGlobal::alloc_copy(&*h);
  let b = GpuGlobal::alloc_copy(&*h);
  {
    let c = GpuGlobal::alloc_copy(&*h);
    scale::<<<X<1>, X<256>>>>(&uniq c)
  };
  for i in [0..2] {
    let d = GpuGlobal::alloc_copy(&*h);
    scale::<<<X<1>, X<256>>>>(&uniq d)
  }
}
)";
  CompilerInvocation Inv;
  Inv.BufferName = "scopes.descend";
  Inv.RunUntil = Stage::Typecheck;
  Session S(Inv);
  ASSERT_TRUE(S.run(Src).Ok) << S.renderDiagnostics();
  hostgen::HostBuildResult IR =
      hostgen::buildHostFn(*S.module(), *S.module()->findFn("main"));
  ASSERT_TRUE(IR.Ok) << IR.Error;
  std::string Dump = hostgen::dumpHostFn(IR.Fn);
  // The parameter `p` is borrowed and never released.
  EXPECT_NE(Dump.find("  alloc-copy a <- h\n"
                      "  alloc-copy b <- h\n"
                      "  block\n"
                      "    alloc-copy c <- h\n"
                      "    launch scale(c)\n"
                      "    release c\n"
                      "  for-nat i in [0..2)\n"
                      "    alloc-copy d <- h\n"
                      "    launch scale(d)\n"
                      "    release d\n"
                      "  release b\n"
                      "  release a\n"),
            std::string::npos)
      << Dump;
  EXPECT_EQ(Dump.find("release p"), std::string::npos) << Dump;

  // The cuda printer frees each buffer where its scope ends.
  std::string Cuda = hostgen::printHostFn(IR.Fn, hostgen::HostTarget::Cuda, "");
  EXPECT_NE(Cuda.find("    scale<<<dim3(1, 1, 1), dim3(256, 1, 1)>>>(c);\n"
                      "    cudaDeviceSynchronize();\n"
                      "    cudaFree(c);\n"
                      "  }\n"),
            std::string::npos)
      << Cuda;
  EXPECT_NE(Cuda.find("  cudaFree(b);\n  cudaFree(a);\n}\n"),
            std::string::npos)
      << Cuda;
  // The sim driver prints no release: each scope is a C++ scope that
  // ends right after its releases, so the DeviceLocal frees there.
  std::string Sim = hostgen::printHostFn(IR.Fn, hostgen::HostTarget::Sim, "");
  EXPECT_NE(Sim.find("    descend::rt::DeviceLocal d("
                     "descend::rt::allocCopy(_dev, h));\n"
                     "    scale(_dev, d);\n"
                     "    descend::rt::checkDevice(_dev, \"launch scale\");\n"
                     "  }\n"
                     "}\n"),
            std::string::npos)
      << Sim;
  EXPECT_EQ(Sim.find("rt::free"), std::string::npos) << Sim;
}

//===----------------------------------------------------------------------===//
// The cuda host golden
//===----------------------------------------------------------------------===//

TEST(HostGen, CudaDriverMatchesGolden) {
  Outcome O = compileProgram("quickstart_host.descend", "cuda", {{"nb", 8}});
  ASSERT_TRUE(O.Ok) << O.Rendered;
  std::string Golden =
      readFile(std::string(DESCEND_GOLDEN_DIR) + "/quickstart_host.cu");
  EXPECT_EQ(O.Artifact, Golden)
      << "regenerate with: descendc programs/quickstart_host.descend "
         "--emit=cuda -D nb=8 -o tests/goldens/quickstart_host.cu";
}

TEST(HostGen, CudaLaunchKeepsAxisSlots) {
  // A Y-leading grid must land in dim3's .y slot, not be packed into .x.
  CompilerInvocation Inv;
  Inv.BufferName = "ygrid.descend";
  Inv.BackendName = "cuda";
  Session S(Inv);
  CompileResult R = S.run(R"(
fn scale_y(vec: &uniq gpu.global [f64; 2048])
-[grid: gpu.grid<Y<8>, X<256>>]-> () {
  sched(Y) block in grid {
    sched(X) thread in block {
      vec.group::<256>[[block]][[thread]] =
        vec.group::<256>[[block]][[thread]] * 3.0
    }
  }
}
fn main() -[t: cpu.thread]-> () {
  let h = CpuHeap::new([0.0; 2048]);
  let d = GpuGlobal::alloc_copy(&h);
  scale_y::<<<Y<8>, X<256>>>>(&uniq d)
}
)");
  ASSERT_TRUE(R.Ok) << S.renderDiagnostics();
  EXPECT_NE(R.Artifact.find(
                "scale_y<<<dim3(1, 8, 1), dim3(256, 1, 1)>>>(d);"),
            std::string::npos)
      << R.Artifact;
}

TEST(HostGen, CudaDriverFreesDeviceBuffers) {
  Outcome O = compileProgram("reduction_host.descend", "cuda", {{"nb", 8}});
  ASSERT_TRUE(O.Ok) << O.Rendered;
  EXPECT_NE(O.Artifact.find("cudaFree(d_in);"), std::string::npos)
      << O.Artifact;
  EXPECT_NE(O.Artifact.find("cudaFree(d_out);"), std::string::npos)
      << O.Artifact;
  // Byte counts are computed from the statically proven element counts.
  EXPECT_NE(O.Artifact.find("sizeof(double) * (2048)"), std::string::npos)
      << O.Artifact;
}

//===----------------------------------------------------------------------===//
// Negative programs: compile-time rejection with targeted diagnostics
//===----------------------------------------------------------------------===//

TEST(HostGenDiagnostics, SwappedCopyDirectionRejected) {
  Outcome O = compileProgram("bad_swapped_copy.descend", "");
  EXPECT_FALSE(O.Ok);
  EXPECT_TRUE(
      O.S->diagnostics().contains(DiagCode::TransferDirectionMismatch))
      << O.Rendered;
}

TEST(HostGenDiagnostics, SizeMismatchedTransferRejected) {
  Outcome O = compileProgram("bad_size_mismatch.descend", "");
  EXPECT_FALSE(O.Ok);
  EXPECT_TRUE(O.S->diagnostics().contains(DiagCode::TransferSizeMismatch))
      << O.Rendered;
}

TEST(HostGenDiagnostics, WrongLaunchConfigRejected) {
  Outcome O = compileProgram("bad_launch_config.descend", "");
  EXPECT_FALSE(O.Ok);
  EXPECT_TRUE(O.S->diagnostics().contains(DiagCode::LaunchConfigMismatch))
      << O.Rendered;
}

TEST(HostGenDiagnostics, DevicePointerDerefOnHostRejected) {
  Outcome O = compileProgram("bad_host_deref.descend", "");
  EXPECT_FALSE(O.Ok);
  EXPECT_TRUE(O.S->diagnostics().contains(DiagCode::CannotDereference))
      << O.Rendered;
}

//===----------------------------------------------------------------------===//
// hostgen API details
//===----------------------------------------------------------------------===//

TEST(HostGenApi, EmitNameMapsMainToRun) {
  FnDef Fn;
  Fn.Name = "main";
  EXPECT_EQ(hostgen::hostFnEmitName(Fn, ""), "run");
  EXPECT_EQ(hostgen::hostFnEmitName(Fn, "_small"), "run_small");
  Fn.Name = "stage_inputs";
  EXPECT_EQ(hostgen::hostFnEmitName(Fn, ""), "stage_inputs");
}

TEST(HostGenApi, HasHostFnsDistinguishesModules) {
  CompilerInvocation Inv;
  Inv.RunUntil = Stage::Typecheck;
  Session S(Inv);
  ASSERT_TRUE(S.run("fn host() -[t: cpu.thread]-> () { }").Ok)
      << S.renderDiagnostics();
  EXPECT_TRUE(hostgen::hasHostFns(*S.module()));

  Session S2(Inv);
  ASSERT_TRUE(S2.run(R"(
fn k(v: &uniq gpu.global [f64; 64])
-[grid: gpu.grid<X<1>, X<64>>]-> () {
  sched(X) block in grid {
    sched(X) thread in block { v.group::<64>[[block]][[thread]] = 1.0 }
  }
}
)")
                  .Ok)
      << S2.renderDiagnostics();
  EXPECT_FALSE(hostgen::hasHostFns(*S2.module()));
}

TEST(HostGenApi, HostFunctionsCanCallEachOther) {
  CompilerInvocation Inv;
  Inv.BufferName = "chain.descend";
  Inv.BackendName = "sim";
  Session S(Inv);
  CompileResult R = S.run(R"(
fn prepare(buf: &uniq cpu.mem [f64; 16]) -[t: cpu.thread]-> () {
  for i in [0..16] { (*buf)[i] = 2.0 }
}
fn main(buf: &uniq cpu.mem [f64; 16]) -[t: cpu.thread]-> () {
  prepare(&uniq *buf)
}
)");
  ASSERT_TRUE(R.Ok) << S.renderDiagnostics();
  EXPECT_NE(R.Artifact.find("inline void prepare("), std::string::npos)
      << R.Artifact;
  EXPECT_NE(R.Artifact.find("prepare(_dev, buf);"), std::string::npos)
      << R.Artifact;
}

TEST(HostGenApi, UnsupportedHostConstructIsReported) {
  // Tuples are not part of the host fragment; the emitter reports a
  // descriptive error instead of emitting garbage.
  CompilerInvocation Inv;
  Inv.BufferName = "bad.descend";
  Inv.BackendName = "sim";
  Session S(Inv);
  CompileResult R = S.run(R"(
fn main(pair: &uniq cpu.mem (f64, f64)) -[t: cpu.thread]-> () { }
)");
  EXPECT_FALSE(R.Ok);
  EXPECT_TRUE(S.diagnostics().contains(DiagCode::BackendFailed))
      << S.renderDiagnostics();
}

//===----------------------------------------------------------------------===//
// One verdict across backends
//===----------------------------------------------------------------------===//

/// What \p Backend makes of \p Src: empty when it compiles, else its first
/// error. A backend failure drops the backend's own wrapper (`backend `x`
/// failed: while ... host `f`: `) so buildHostFn's message compares
/// across backends.
std::string verdict(const std::string &Src, const std::string &Backend,
                    const std::map<std::string, long long> &Defines) {
  CompilerInvocation Inv;
  Inv.BufferName = "row.descend";
  Inv.BackendName = Backend;
  Inv.Defines = Defines;
  Session S(Inv);
  if (S.run(Src).Ok)
    return "";
  const Diagnostic &D = S.diagnostics().all().front();
  size_t Host = D.Message.find("host `");
  size_t End = D.Message.find("`: ", Host);
  if (D.Code != DiagCode::BackendFailed || End == std::string::npos)
    return D.Message;
  return D.Message.substr(End + 3);
}

struct ConformanceRow {
  const char *Name;
  const char *Source;
  std::map<std::string, long long> Defines;
  /// Null: sim, cuda and vm all accept. Else the message they reject with.
  const char *Reject;
  /// The one backend whose documented target rule rejects alone, or null
  /// when all three share the verdict.
  const char *OnlyIn;
  /// When the vm accepts: the RESULT line `--run` prints.
  const char *Result;
};

TEST(HostConformance, EveryBackendSharesOneVerdict) {
  const char *GenericFill = R"(
fn main<n: nat>(buf: &uniq cpu.mem [f64; n]) -[t: cpu.thread]-> () {
  for i in [0..n] { (*buf)[i] = 2.0 }
}
)";
  const ConformanceRow Rows[] = {
      {"scalar host call argument", R"(
fn fill(buf: &uniq cpu.mem [f64; 16], v: f64) -[t: cpu.thread]-> () {
  for i in [0..16] { (*buf)[i] = v }
}
fn main(buf: &uniq cpu.mem [f64; 16]) -[t: cpu.thread]-> () {
  fill(&uniq *buf, 2.5)
}
)",
       {}, nullptr, nullptr, "RESULT buf n=16 sum=40 first=2.5 last=2.5\n"},
      {"multi-dimensional host index", R"(
fn main(a: &uniq cpu.mem [[f64; 4]; 4]) -[t: cpu.thread]-> () {
  (*a)[1][2] = 7.0
}
)",
       {}, "place `(*a)[1][2]` indexes more than one dimension", nullptr,
       nullptr},
      {"float modulo", R"(
fn main(a: &uniq cpu.mem [f64; 4]) -[t: cpu.thread]-> () {
  (*a)[0] = (*a)[1] % 2.0
}
)",
       {}, "`%` requires integer operands, found `f64`", nullptr, nullptr},
      {"tuple parameter", R"(
fn main(pair: &uniq cpu.mem (f64, f64)) -[t: cpu.thread]-> () { }
)",
       {}, "unsupported host parameter type `&uniq cpu.mem (f64, f64)`",
       nullptr, nullptr},
      // Every backend frees a device buffer where its scope ends.
      {"nested-scope alloc_copy", R"(
fn scale(v: &uniq gpu.global [f64; 256]) -[grid: gpu.grid<X<1>, X<256>>]-> () {
  sched(X) block in grid {
    sched(X) thread in block {
      v.group::<256>[[block]][[thread]] =
        v.group::<256>[[block]][[thread]] * 3.0
    }
  }
}
fn main(h: &uniq cpu.mem [f64; 256]) -[t: cpu.thread]-> () {
  {
    let d = GpuGlobal::alloc_copy(&*h);
    scale::<<<X<1>, X<256>>>>(&uniq d);
    copy_mem_to_host(&uniq *h, &d)
  }
}
)",
       {}, nullptr, nullptr, "RESULT h n=256 sum=768 first=3 last=3\n"},
      // The vm evaluates sizes and bounds at compile time; the printers
      // spell them symbolically.
      {"no -D", GenericFill, {},
       "host parameter size `n` is not instantiated (pass -D)", "vm",
       nullptr},
      {"with -D", GenericFill, {{"n", 16}}, nullptr, nullptr,
       "RESULT buf n=16 sum=32 first=2 last=2\n"},
  };
  for (const ConformanceRow &Row : Rows) {
    SCOPED_TRACE(Row.Name);
    for (const char *Backend : {"sim", "cuda", "vm"}) {
      const bool Rejects =
          Row.Reject && (!Row.OnlyIn || std::string(Row.OnlyIn) == Backend);
      EXPECT_EQ(verdict(Row.Source, Backend, Row.Defines),
                Rejects ? Row.Reject : "")
          << Backend;
    }
    if (!Row.Result)
      continue;
    CompilerInvocation Inv;
    Inv.BufferName = "row.descend";
    Inv.Defines = Row.Defines;
    Session S(Inv);
    ExecuteResult E = S.executeMain(Row.Source);
    EXPECT_TRUE(E.Ok) << E.Error << S.renderDiagnostics();
    EXPECT_EQ(E.Output, Row.Result);
  }
}

} // namespace
