//===- tests/codegen_test.cpp - CUDA/sim backend tests --------------------===//

#include "codegen/Backend.h"

#include "codegen/PhaseIR.h"
#include "driver/Pipeline.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

using namespace descend;

namespace {

struct Gen {
  std::string Cuda, Sim, Error;
  bool Ok = false;
};

Gen generate(const std::string &Src,
             std::map<std::string, long long> Defines = {}) {
  Gen G;
  CompilerInvocation Inv;
  Inv.BufferName = "t.descend";
  Inv.Defines = std::move(Defines);
  Inv.RunUntil = Stage::Typecheck;
  Session S(Inv);
  if (!S.run(Src).Ok) {
    G.Error = S.renderDiagnostics();
    return G;
  }
  const codegen::BackendRegistry &R = codegen::BackendRegistry::instance();
  codegen::GenResult Cuda =
      R.lookup("cuda")->emit(*S.module(), codegen::BackendOptions());
  if (!Cuda.Ok) {
    G.Error = Cuda.Error;
    return G;
  }
  G.Cuda = std::move(Cuda.Code);
  codegen::GenResult Sim =
      R.lookup("sim")->emit(*S.module(), codegen::BackendOptions());
  if (!Sim.Ok) {
    G.Error = Sim.Error;
    return G;
  }
  G.Sim = std::move(Sim.Code);
  G.Ok = true;
  return G;
}

const char *ScaleVec = R"(
fn scale_vec(vec: &uniq gpu.global [f64; 1024])
-[grid: gpu.grid<X<4>, X<256>>]-> () {
  sched(X) block in grid {
    sched(X) thread in block {
      vec.group::<256>[[block]][[thread]] =
        vec.group::<256>[[block]][[thread]] * 3.0
    }
  }
}
)";

TEST(CudaGen, ScaleVecKernel) {
  Gen G = generate(ScaleVec);
  ASSERT_TRUE(G.Ok) << G.Error;
  // The kernel signature and the fully simplified selection index.
  EXPECT_NE(G.Cuda.find("__global__ void scale_vec(double *vec)"),
            std::string::npos)
      << G.Cuda;
  // The fully simplified selection index is computed once (index CSE)
  // and reused by the load and the store.
  EXPECT_NE(G.Cuda.find("const long long _i0 = blockIdx.x * 256 + "
                        "threadIdx.x;"),
            std::string::npos)
      << G.Cuda;
  EXPECT_NE(G.Cuda.find("vec[_i0] = (vec[_i0] * 3.0);"), std::string::npos)
      << G.Cuda;
  // No view machinery survives into the generated code.
  EXPECT_EQ(G.Cuda.find("group"), std::string::npos);
}

TEST(CudaGen, SharedRefBecomesConstPointer) {
  Gen G = generate(R"(
fn copy(src: & gpu.global [f64; 256], dst: &uniq gpu.global [f64; 256])
-[grid: gpu.grid<X<1>, X<256>>]-> () {
  sched(X) block in grid {
    sched(X) thread in block {
      dst.group::<256>[[block]][[thread]] =
        src.group::<256>[[block]][[thread]]
    }
  }
}
)");
  ASSERT_TRUE(G.Ok) << G.Error;
  EXPECT_NE(G.Cuda.find("const double *src, double *dst"),
            std::string::npos)
      << G.Cuda;
}

TEST(CudaGen, TransposeMatchesListing1Indexing) {
  Gen G = generate(R"(
view group_by_row<row_size: nat, num_rows: nat> =
  group::<row_size/num_rows>.transpose.map(transpose)
view group_by_tile<th: nat, tw: nat> =
  group::<th>.map(map(group::<tw>)).map(transpose)
fn transpose<n: nat>(input: & gpu.global [[f64; n]; n],
                     output: &uniq gpu.global [[f64; n]; n])
-[grid: gpu.grid<XY<n/32, n/32>, XY<32, 8>>]-> () {
  sched(Y, X) block in grid {
    let tmp = alloc::<gpu.shared, [[f64; 32]; 32]>();
    sched(Y, X) thread in block {
      for i in [0..4] {
        tmp.group_by_row::<32, 4>[[thread]][i] =
          input.group_by_tile::<32, 32>.transpose[[block]]
            .group_by_row::<32, 4>[[thread]][i]
      };
      sync;
      for i in [0..4] {
        output.group_by_tile::<32, 32>[[block]]
          .group_by_row::<32, 4>[[thread]][i] =
          tmp.transpose.group_by_row::<32, 4>[[thread]][i]
      }
    }
  }
}
)",
                   {{"n", 2048}});
  ASSERT_TRUE(G.Ok) << G.Error;
  EXPECT_NE(G.Cuda.find("__shared__ double tmp[1024];"), std::string::npos)
      << G.Cuda;
  EXPECT_NE(G.Cuda.find("__syncthreads();"), std::string::npos);
  // The store into tmp is the fixed Listing 1 index (ty + 8i) * 32 + tx,
  // in canonical polynomial order (coordinates sort before the loop
  // variable since lowering spells them _tx/_ty).
  EXPECT_NE(G.Cuda.find("tmp[threadIdx.x + threadIdx.y * 32 + i * 256]"),
            std::string::npos)
      << G.Cuda;
  // The input read matches (32 bx + ty + 8i) * 2048 + 32 by + tx.
  EXPECT_NE(G.Cuda.find("input[blockIdx.x * 65536 + blockIdx.y * 32 + "
                        "threadIdx.x + threadIdx.y * 2048 + i * 16384]"),
            std::string::npos)
      << G.Cuda;
}

TEST(CudaGen, SplitBecomesIfElse) {
  Gen G = generate(R"(
fn k(arr: &uniq gpu.global [f64; 64])
-[grid: gpu.grid<X<1>, X<64>>]-> () {
  sched(X) block in grid {
    split(X) block at 32 {
      lo => { sched(X) t in lo { arr.split::<32>.fst[[t]] = 0.0 } },
      hi => { sched(X) t in hi { arr.split::<32>.snd[[t]] = 1.0 } }
    }
  }
}
)");
  ASSERT_TRUE(G.Ok) << G.Error;
  EXPECT_NE(G.Cuda.find("if (threadIdx.x < 32) {"), std::string::npos)
      << G.Cuda;
  // snd-arm coordinates are rebased: local t = threadIdx.x - 32, and the
  // split view adds the 32 back: the two cancel.
  EXPECT_NE(G.Cuda.find("arr[threadIdx.x] = 1.0;"), std::string::npos)
      << G.Cuda;
}

TEST(CudaGen, HostFunctionUsesCudaApi) {
  Gen G = generate(R"(
fn scale_vec(vec: &uniq gpu.global [f64; 1024])
-[grid: gpu.grid<X<4>, X<256>>]-> () {
  sched(X) block in grid {
    sched(X) thread in block {
      vec.group::<256>[[block]][[thread]] =
        vec.group::<256>[[block]][[thread]] * 3.0
    }
  }
}
fn host() -[t: cpu.thread]-> () {
  let h = CpuHeap::new([1.0; 1024]);
  let d = GpuGlobal::alloc_copy(&h);
  scale_vec::<<<X<4>, X<256>>>>(&uniq d);
  copy_mem_to_host(&uniq h, &d)
}
)");
  ASSERT_TRUE(G.Ok) << G.Error;
  EXPECT_NE(G.Cuda.find("std::vector<double> h(1024, 1"), std::string::npos)
      << G.Cuda;
  EXPECT_NE(G.Cuda.find("cudaMalloc(&d, sizeof(double) * (1024));"),
            std::string::npos)
      << G.Cuda;
  EXPECT_NE(G.Cuda.find("cudaMemcpyHostToDevice"), std::string::npos);
  EXPECT_NE(G.Cuda.find("scale_vec<<<dim3(4, 1, 1), dim3(256, 1, 1)>>>(d);"),
            std::string::npos)
      << G.Cuda;
  EXPECT_NE(G.Cuda.find("cudaMemcpy(h.data(), d"), std::string::npos);
  EXPECT_NE(G.Cuda.find("cudaDeviceSynchronize();"), std::string::npos);
  // hostgen releases every device allocation before returning.
  EXPECT_NE(G.Cuda.find("cudaFree(d);"), std::string::npos) << G.Cuda;
}

TEST(SimGen, PhasesSplitAtSync) {
  Gen G = generate(R"(
fn k(arr: &uniq gpu.global [f64; 256])
-[grid: gpu.grid<X<1>, X<256>>]-> () {
  sched(X) block in grid {
    let tmp = alloc::<gpu.shared, [f64; 256]>();
    sched(X) thread in block {
      tmp[[thread]] = arr.group::<256>[[block]][[thread]];
      sync;
      arr.group::<256>[[block]][[thread]] = tmp.rev[[thread]]
    }
  }
}
)");
  ASSERT_TRUE(G.Ok) << G.Error;
  // Two phases (two lambdas) and a reversed shared read in the second.
  size_t First = G.Sim.find("[&](BlockCtx &_b, ThreadCtx &_t)");
  ASSERT_NE(First, std::string::npos);
  size_t Second =
      G.Sim.find("[&](BlockCtx &_b, ThreadCtx &_t)", First + 1);
  EXPECT_NE(Second, std::string::npos) << G.Sim;
  EXPECT_NE(G.Sim.find("255 - _tx"), std::string::npos) << G.Sim;
  // No __syncthreads in the sim backend.
  EXPECT_EQ(G.Sim.find("__syncthreads"), std::string::npos);
}

TEST(SimGen, LocalsSpillAcrossPhases) {
  Gen G = generate(R"(
fn k(arr: &uniq gpu.global [f64; 256])
-[grid: gpu.grid<X<1>, X<256>>]-> () {
  sched(X) block in grid {
    sched(X) thread in block {
      let acc = 1.5;
      sync;
      arr.group::<256>[[block]][[thread]] = acc
    }
  }
}
)");
  ASSERT_TRUE(G.Ok) << G.Error;
  // Spill before the phase boundary, reload after.
  EXPECT_NE(G.Sim.find("_b.shared<double>(_locals_base + 0)[_lin] = acc_0;"),
            std::string::npos)
      << G.Sim;
  EXPECT_NE(G.Sim.find(
                "double acc_0 = _b.shared<double>(_locals_base + 0)[_lin];"),
            std::string::npos)
      << G.Sim;
}

TEST(SimGen, RequiresConcreteDimensions) {
  CompilerInvocation Inv;
  Inv.BufferName = "t.descend";
  Inv.BackendName = "sim";
  Session S(Inv);
  CompileResult R = S.run(R"(
fn k<n: nat>(arr: &uniq gpu.global [f64; n])
-[grid: gpu.grid<X<1>, X<n>>]-> () {
  sched(X) block in grid {
    sched(X) thread in block {
      arr.group::<n>[[block]][[thread]] = 0.0
    }
  }
}
)");
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Reached, Stage::Typecheck);
  EXPECT_TRUE(R.Artifact.empty());
  EXPECT_NE(S.renderDiagnostics().find("--define"), std::string::npos)
      << S.renderDiagnostics();
}

TEST(SimGen, RejectsAnUninstantiatedGrid) {
  // The block is concrete, the grid is not: sim fails with the vm's text
  // instead of launching one block.
  const char *Src = R"(
fn k<nb: nat>(arr: &uniq gpu.global [f64; nb*256])
-[grid: gpu.grid<X<nb>, X<256>>]-> () {
  sched(X) block in grid {
    sched(X) thread in block {
      arr.group::<256>[[block]][[thread]] = 0.0
    }
  }
}
)";
  for (const char *Backend : {"sim", "vm"}) {
    SCOPED_TRACE(Backend);
    CompilerInvocation Inv;
    Inv.BufferName = "t.descend";
    Inv.BackendName = Backend;
    Session S(Inv);
    CompileResult R = S.run(Src);
    EXPECT_FALSE(R.Ok);
    EXPECT_TRUE(R.Artifact.empty());
    EXPECT_NE(S.renderDiagnostics().find(
                  "launch dimension `nb` of `k` is not instantiated (pass -D)"),
              std::string::npos)
        << S.renderDiagnostics();
  }
}

std::string readKernelFile(const std::string &Name); // kernels/<Name>

TEST(SimGen, RejectsAnOutOfRangeGrid) {
  // A nat is natural and a launch fits sim::Dim3's unsigned: sim and vm
  // refuse the same bindings with the same text. n = 2^21 gives
  // transpose a 65536 x 65536 grid, whose extents fit but whose 2^32
  // blocks do not.
  const struct {
    const char *File, *Nat;
    long long Value;
    const char *Text;
  } Rows[] = {
      {"scale_vec.descend", "nb", -1, "-D nb=-1: a nat cannot be negative"},
      {"scale_vec.descend", "nb", 0,
       "grid extent X of `scale_vec` is 0; a launch extent must lie in "
       "[1, 4294967295]"},
      {"scale_vec.descend", "nb", 4294967297,
       "grid extent X of `scale_vec` is 4294967297; a launch extent must "
       "lie in [1, 4294967295]"},
      {"transpose.descend", "n", 2097152,
       "grid of `transpose` spans 65536 x 65536 x 1 blocks; a launch holds "
       "at most 4294967295"},
  };
  for (const auto &Row : Rows)
    for (const char *Backend : {"sim", "vm"}) {
      SCOPED_TRACE(std::string(Backend) + " " + Row.File + " " + Row.Nat +
                   "=" + std::to_string(Row.Value));
      CompilerInvocation Inv;
      Inv.BufferName = Row.File;
      Inv.BackendName = Backend;
      Inv.Defines[Row.Nat] = Row.Value;
      Session S(Inv);
      CompileResult R = S.run(readKernelFile(Row.File));
      EXPECT_FALSE(R.Ok);
      EXPECT_TRUE(R.Artifact.empty());
      EXPECT_NE(S.renderDiagnostics().find(Row.Text), std::string::npos)
          << S.renderDiagnostics();
    }
}

/// Counts the phase lambdas of a generated sim artifact.
size_t phaseLambdaCount(const std::string &Sim) {
  size_t Count = 0, Pos = 0;
  while ((Pos = Sim.find("[&](BlockCtx", Pos)) != std::string::npos) {
    ++Count;
    ++Pos;
  }
  return Count;
}

TEST(SimGen, SyncLoopsBecomePhaseLoops) {
  Gen G = generate(R"(
fn k(arr: &uniq gpu.global [f64; 256])
-[grid: gpu.grid<X<1>, X<256>>]-> () {
  sched(X) block in grid {
    let tmp = alloc::<gpu.shared, [f64; 256]>();
    sched(X) thread in block {
      for s in [0..3] {
        tmp[[thread]] = arr.group::<256>[[block]][[thread]];
        sync
      }
    }
  }
}
)");
  ASSERT_TRUE(G.Ok) << G.Error;
  // The loop survives as host-side structure: one phase lambda inside a
  // loopBegin/loopEnd pair, not three unrolled copies.
  EXPECT_EQ(phaseLambdaCount(G.Sim), 1u) << G.Sim;
  EXPECT_NE(G.Sim.find("_prog.loopBegin(0"), std::string::npos) << G.Sim;
  EXPECT_NE(G.Sim.find("return 3; }"), std::string::npos) << G.Sim;
  EXPECT_NE(G.Sim.find("_prog.loopEnd();"), std::string::npos) << G.Sim;
  EXPECT_NE(G.Sim.find("launchProgram"), std::string::npos) << G.Sim;
}

TEST(SimGen, LoopFreeKernelsKeepVariadicLaunch) {
  // Straight-line kernels stay on the direct launchPhases path (no type
  // erasure in the per-thread calls).
  Gen G = generate(R"(
fn k(arr: &uniq gpu.global [f64; 256])
-[grid: gpu.grid<X<1>, X<256>>]-> () {
  sched(X) block in grid {
    let tmp = alloc::<gpu.shared, [f64; 256]>();
    sched(X) thread in block {
      tmp[[thread]] = arr.group::<256>[[block]][[thread]];
      sync;
      arr.group::<256>[[block]][[thread]] = tmp.rev[[thread]]
    }
  }
}
)");
  ASSERT_TRUE(G.Ok) << G.Error;
  EXPECT_NE(G.Sim.find("launchPhases"), std::string::npos) << G.Sim;
  EXPECT_EQ(G.Sim.find("PhaseProgram"), std::string::npos) << G.Sim;
}

TEST(SimGen, IterationDependentBoundsAreLegal) {
  // The inner bound depends on the outer loop variable: impossible to
  // unroll, lowered as nested PhaseLoops with the bound read from the
  // block's loop-variable slots at runtime.
  Gen G = generate(R"(
fn k(arr: &uniq gpu.global [f64; 256])
-[grid: gpu.grid<X<1>, X<256>>]-> () {
  sched(X) block in grid {
    let tmp = alloc::<gpu.shared, [f64; 256]>();
    sched(X) thread in block {
      for s in [0..4] {
        for u in [0..s+1] {
          tmp[[thread]] = arr.group::<256>[[block]][[thread]];
          sync
        }
      }
    }
  }
}
)");
  ASSERT_TRUE(G.Ok) << G.Error;
  EXPECT_NE(G.Sim.find("_prog.loopBegin(1"), std::string::npos) << G.Sim;
  EXPECT_NE(G.Sim.find("const long long s = _b.loopVar(0); (void)s; "
                       "return 1 + s;"),
            std::string::npos)
      << G.Sim;
}

TEST(SimGen, SplitLoopsKeepPreciseStaticBoundsDiagnostic) {
  // Split positions (and part shapes) change per iteration, so loops
  // containing split are genuinely static: symbolic bounds stay an error,
  // now with a diagnostic naming the reason.
  CompilerInvocation Inv;
  Inv.BufferName = "t.descend";
  Inv.BackendName = "sim";
  Session S(Inv);
  CompileResult R = S.run(R"(
fn k<m: nat>(arr: &uniq gpu.global [f64; 256])
-[grid: gpu.grid<X<1>, X<256>>]-> () {
  sched(X) block in grid {
    for s in [0..m] {
      split(X) block at 128 {
        lo => { sched(X) t in lo { arr.split::<128>.fst[[t]] = 0.0 } },
        hi => { sched(X) t in hi { arr.split::<128>.snd[[t]] = 1.0 } }
      }
    }
  }
}
)");
  EXPECT_FALSE(R.Ok);
  std::string Rendered = S.renderDiagnostics();
  EXPECT_NE(Rendered.find("loops containing split need static bounds"),
            std::string::npos)
      << Rendered;
  EXPECT_NE(Rendered.find("[0..m]"), std::string::npos) << Rendered;
}

TEST(SimGen, UninstantiatedLoopBoundIsDiagnosed) {
  // A free size variable in a sync-loop bound cannot be emitted (nothing
  // declares it in the generated code): it must be a clean diagnostic
  // pointing at --define, not silently uncompilable output.
  CompilerInvocation Inv;
  Inv.BufferName = "t.descend";
  Inv.BackendName = "sim";
  Session S(Inv);
  CompileResult R = S.run(R"(
fn k<m: nat>(arr: &uniq gpu.global [f64; 256])
-[grid: gpu.grid<X<1>, X<256>>]-> () {
  sched(X) block in grid {
    let tmp = alloc::<gpu.shared, [f64; 256]>();
    sched(X) thread in block {
      for s in [0..m] {
        tmp[[thread]] = arr.group::<256>[[block]][[thread]];
        sync
      }
    }
  }
}
)");
  EXPECT_FALSE(R.Ok);
  std::string Rendered = S.renderDiagnostics();
  EXPECT_NE(Rendered.find("uninstantiated size variable `m`"),
            std::string::npos)
      << Rendered;
  EXPECT_NE(Rendered.find("--define"), std::string::npos) << Rendered;
}

//===----------------------------------------------------------------------===//
// The Figure 8 matmul through the phase-program IR
//===----------------------------------------------------------------------===//

std::string readKernelFile(const std::string &Name) {
  std::ifstream In(std::string(DESCEND_KERNEL_DIR "/") + Name);
  EXPECT_TRUE(In.good()) << "missing kernel " << Name;
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// Compiles kernels/matmul.descend at tile count \p Nt and returns the
/// sim artifact.
std::string matmulSim(long long Nt) {
  Gen G = generate(readKernelFile("matmul.descend"), {{"nt", Nt}});
  EXPECT_TRUE(G.Ok) << G.Error;
  return G.Sim;
}

TEST(SimGen, MatmulPhaseCountIndependentOfNt) {
  std::string Small = matmulSim(4);
  std::string Large = matmulSim(32);
  // Constant number of phase lambdas (init, tile load, mac, write back)
  // regardless of the tile count; only the loop bound differs.
  EXPECT_EQ(phaseLambdaCount(Small), 4u) << Small;
  EXPECT_EQ(phaseLambdaCount(Large), 4u) << Large;
  EXPECT_NE(Small.find("return 4; }"), std::string::npos) << Small;
  EXPECT_NE(Large.find("return 32; }"), std::string::npos) << Large;
}

TEST(PhaseIR, DumpPrintsLoopBounds) {
  CompilerInvocation Inv;
  Inv.BufferName = "matmul.descend";
  Inv.Defines["nt"] = 4;
  Inv.RunUntil = Stage::Typecheck;
  Session S(Inv);
  ASSERT_TRUE(S.run(readKernelFile("matmul.descend")).Ok)
      << S.renderDiagnostics();
  std::string Dump, Error;
  ASSERT_TRUE(codegen::dumpKernelIRs(*S.module(), Dump, Error)) << Error;
  EXPECT_NE(Dump.find("straight phases: 4"), std::string::npos) << Dump;
  EXPECT_NE(Dump.find("max loop depth: 1"), std::string::npos) << Dump;
  EXPECT_NE(Dump.find("loop t in [0..4) slot 0"), std::string::npos) << Dump;
}

TEST(CudaGen, MatmulMatchesGolden) {
  // tests/goldens/matmul.cu pins the emitted CUDA matmul byte for byte:
  // it was captured before the KIR refactor and updated intentionally
  // with the index-CSE/naming changes, so any emission drift is a
  // deliberate, reviewed golden update.
  std::ifstream In(DESCEND_GOLDEN_DIR "/matmul.cu");
  ASSERT_TRUE(In.good()) << "missing golden matmul.cu";
  std::stringstream SS;
  SS << In.rdbuf();
  Gen G = generate(readKernelFile("matmul.descend"), {{"nt", 4}});
  ASSERT_TRUE(G.Ok) << G.Error;
  EXPECT_EQ(G.Cuda, SS.str());
}

TEST(CudaGen, MatmulTileLoopKeepsSyncthreads) {
  Gen G = generate(readKernelFile("matmul.descend"), {{"nt", 4}});
  ASSERT_TRUE(G.Ok) << G.Error;
  // The tile loop survives as a real for with the barriers inside, the
  // way a CUDA programmer writes it — no unrolled copies.
  size_t LoopPos = G.Cuda.find("for (long long t = 0; t < 4; ++t) {");
  ASSERT_NE(LoopPos, std::string::npos) << G.Cuda;
  size_t SyncPos = G.Cuda.find("__syncthreads();", LoopPos);
  size_t ClosePos = G.Cuda.find("\n  }", LoopPos);
  ASSERT_NE(SyncPos, std::string::npos) << G.Cuda;
  ASSERT_NE(ClosePos, std::string::npos) << G.Cuda;
  EXPECT_LT(SyncPos, ClosePos) << "__syncthreads() must sit inside the "
                                  "tile loop:\n"
                               << G.Cuda;
}

} // namespace
