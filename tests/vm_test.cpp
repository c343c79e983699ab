//===- tests/vm_test.cpp - VM backend vs generated simulator code -----------===//
//
// The acceptance gate for the vm backend: interpreting the compiled
// bytecode must be *bit-identical* to running the C++ the sim backend
// generated at build time — for every kernel in kernels/*.descend at the
// test footprints and for both host-bearing programs/*.descend drivers.
// Same inputs, same launch, memcmp over the raw output bytes: the two
// execution paths (text -> C++ -> compiler -> binary vs text -> bytecode
// -> interpreter) may not disagree in a single bit.
//
// Also covers the CompileService LRU cache semantics (hit/miss/eviction,
// and the key discipline: same source at a different -D binding is a
// distinct entry).
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "runtime/HostRuntime.h"
#include "service/CompileService.h"
#include "vm/Interp.h"

#include "gen_matmul_small.h"         // matmul                   (nt=4)
#include "gen_quickstart_host.h"      // scale_vec + run          (nb=8)
#include "gen_reduce_small.h"         // reduce                   (nb=8)
#include "gen_reduction_host_small.h" // reduce_small + run_small (nb=8)
#include "gen_scan_small.h"           // scan_blocks + add_sums   (nb=8)
#include "gen_split_2d.h"             // split_2d                 (nb=2)
#include "gen_transpose_small.h"      // transpose                (n=128)

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
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

/// Compiles \p Path through the front end and vm::compile; fails the test
/// (and returns null) on any diagnostic.
std::shared_ptr<const vm::CompiledProgram>
compileVm(const std::string &Path, std::map<std::string, long long> Defines,
          const kir::PassConfig &Passes = {}) {
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

/// Deterministic input data shared by both execution paths.
double fillVal(size_t I) {
  return static_cast<double>((I * 37) % 101) * 0.5 - 3.0;
}

double *devData(vm::DevBuf &B) {
  return reinterpret_cast<double *>(B.Data);
}

//===----------------------------------------------------------------------===//
// Kernel bit-equality: interpreter vs build-time generated sim code
//===----------------------------------------------------------------------===//

TEST(VmKernel, TransposeBitIdenticalToGeneratedSim) {
  const int N = 128;
  auto P = compileVm(DESCEND_KERNEL_DIR "/transpose.descend", {{"n", N}});
  ASSERT_TRUE(P);
  const vm::VmKernel *K = P->findKernel("transpose");
  ASSERT_NE(K, nullptr);

  sim::GpuDevice DG;
  auto In = DG.alloc<double>(N * N);
  auto Out = DG.alloc<double>(N * N);
  sim::GpuDevice DV;
  vm::DevBuf VIn = vm::allocDev(DV, ScalarKind::F64, N * N);
  vm::DevBuf VOut = vm::allocDev(DV, ScalarKind::F64, N * N);
  for (int I = 0; I != N * N; ++I)
    In.data()[I] = devData(VIn)[I] = fillVal(I);

  descend::gen::transpose(DG, In, Out);
  vm::RunStatus St = vm::launchKernel(DV, *K, {VIn, VOut});
  ASSERT_TRUE(St.Ok) << St.Error;

  EXPECT_EQ(0, std::memcmp(Out.data(), VOut.Data, N * N * sizeof(double)));
  // Sanity against a closed form, not just against the twin.
  EXPECT_EQ(devData(VOut)[3 * N + 5], fillVal(5 * N + 3));
}

TEST(VmKernel, ReduceBitIdenticalToGeneratedSim) {
  const int NB = 8, N = NB * 256;
  auto P = compileVm(DESCEND_KERNEL_DIR "/reduce.descend", {{"nb", NB}});
  ASSERT_TRUE(P);
  const vm::VmKernel *K = P->findKernel("reduce");
  ASSERT_NE(K, nullptr);

  sim::GpuDevice DG;
  auto In = DG.alloc<double>(N);
  auto Out = DG.alloc<double>(NB);
  sim::GpuDevice DV;
  vm::DevBuf VIn = vm::allocDev(DV, ScalarKind::F64, N);
  vm::DevBuf VOut = vm::allocDev(DV, ScalarKind::F64, NB);
  for (int I = 0; I != N; ++I)
    In.data()[I] = devData(VIn)[I] = fillVal(I);

  descend::gen::reduce(DG, In, Out);
  vm::RunStatus St = vm::launchKernel(DV, *K, {VIn, VOut});
  ASSERT_TRUE(St.Ok) << St.Error;

  // The tree reduction sums in a fixed association order; bit-equality
  // holds exactly because the interpreter replays the same order.
  EXPECT_EQ(0, std::memcmp(Out.data(), VOut.Data, NB * sizeof(double)));
}

TEST(VmKernel, ScanBothKernelsBitIdenticalToGeneratedSim) {
  const int NB = 8, N = NB * 256;
  auto P = compileVm(DESCEND_KERNEL_DIR "/scan.descend", {{"nb", NB}});
  ASSERT_TRUE(P);
  const vm::VmKernel *KScan = P->findKernel("scan_blocks");
  const vm::VmKernel *KAdd = P->findKernel("add_sums");
  ASSERT_NE(KScan, nullptr);
  ASSERT_NE(KAdd, nullptr);

  sim::GpuDevice DG;
  auto In = DG.alloc<double>(N);
  auto Out = DG.alloc<double>(N);
  auto Sums = DG.alloc<double>(NB);
  auto Offs = DG.alloc<double>(NB);
  sim::GpuDevice DV;
  vm::DevBuf VIn = vm::allocDev(DV, ScalarKind::F64, N);
  vm::DevBuf VOut = vm::allocDev(DV, ScalarKind::F64, N);
  vm::DevBuf VSums = vm::allocDev(DV, ScalarKind::F64, NB);
  vm::DevBuf VOffs = vm::allocDev(DV, ScalarKind::F64, NB);
  for (int I = 0; I != N; ++I)
    In.data()[I] = devData(VIn)[I] = fillVal(I);

  descend::gen::scan_blocks(DG, In, Out, Sums);
  ASSERT_TRUE(vm::launchKernel(DV, *KScan, {VIn, VOut, VSums}).Ok);
  EXPECT_EQ(0, std::memcmp(Out.data(), VOut.Data, N * sizeof(double)));
  EXPECT_EQ(0, std::memcmp(Sums.data(), VSums.Data, NB * sizeof(double)));

  // The paper's two-kernel structure: the host scans the block totals
  // (inclusive), the second kernel adds the offsets. Same host math on
  // both paths.
  double Acc = 0.0, VAcc = 0.0;
  for (int B = 0; B != NB; ++B) {
    Acc += Sums.data()[B];
    Offs.data()[B] = Acc;
    VAcc += devData(VSums)[B];
    devData(VOffs)[B] = VAcc;
  }
  descend::gen::add_sums(DG, Out, Offs);
  ASSERT_TRUE(vm::launchKernel(DV, *KAdd, {VOut, VOffs}).Ok);
  EXPECT_EQ(0, std::memcmp(Out.data(), VOut.Data, N * sizeof(double)));
}

TEST(VmKernel, MatmulBitIdenticalToGeneratedSim) {
  const int NT = 4, N = NT * 16;
  auto P = compileVm(DESCEND_KERNEL_DIR "/matmul.descend", {{"nt", NT}});
  ASSERT_TRUE(P);
  const vm::VmKernel *K = P->findKernel("matmul");
  ASSERT_NE(K, nullptr);

  sim::GpuDevice DG;
  auto A = DG.alloc<double>(N * N);
  auto B = DG.alloc<double>(N * N);
  auto C = DG.alloc<double>(N * N);
  sim::GpuDevice DV;
  vm::DevBuf VA = vm::allocDev(DV, ScalarKind::F64, N * N);
  vm::DevBuf VB = vm::allocDev(DV, ScalarKind::F64, N * N);
  vm::DevBuf VC = vm::allocDev(DV, ScalarKind::F64, N * N);
  for (int I = 0; I != N * N; ++I) {
    A.data()[I] = devData(VA)[I] = fillVal(I);
    B.data()[I] = devData(VB)[I] = fillVal(I + 17);
  }

  descend::gen::matmul(DG, A, B, C);
  vm::RunStatus St = vm::launchKernel(DV, *K, {VA, VB, VC});
  ASSERT_TRUE(St.Ok) << St.Error;

  EXPECT_EQ(0, std::memcmp(C.data(), VC.Data, N * N * sizeof(double)));
}

TEST(VmKernel, ScaleVecBitIdenticalToGeneratedSim) {
  const int NB = 8, N = NB * 256;
  auto P = compileVm(DESCEND_KERNEL_DIR "/scale_vec.descend", {{"nb", NB}});
  ASSERT_TRUE(P);
  const vm::VmKernel *K = P->findKernel("scale_vec");
  ASSERT_NE(K, nullptr);

  sim::GpuDevice DG;
  auto Vec = DG.alloc<double>(N);
  sim::GpuDevice DV;
  vm::DevBuf VVec = vm::allocDev(DV, ScalarKind::F64, N);
  for (int I = 0; I != N; ++I)
    Vec.data()[I] = devData(VVec)[I] = fillVal(I);

  descend::gen::scale_vec(DG, Vec);
  ASSERT_TRUE(vm::launchKernel(DV, *K, {VVec}).Ok);
  EXPECT_EQ(0, std::memcmp(Vec.data(), VVec.Data, N * sizeof(double)));
}

TEST(VmKernel, Split2dBitIdenticalToGeneratedSim) {
  // The Y split of a 16 x 8 block selects its top rows as one run of
  // lanes, a range op; the X split's left columns are no run, so every
  // lane compares its _tx.
  const int NB = 2, N = NB * 128;
  auto P = compileVm(DESCEND_FIXTURE_DIR "/split_2d.descend", {{"nb", NB}});
  ASSERT_TRUE(P);
  const vm::VmKernel *K = P->findKernel("split_2d");
  ASSERT_NE(K, nullptr);
  ASSERT_EQ(K->Nodes.size(), 2u);
  auto Has = [](const vm::Code &C, vm::Op O) {
    return std::any_of(C.Instrs.begin(), C.Instrs.end(),
                       [O](const vm::Instr &I) { return I.K == O; });
  };
  EXPECT_TRUE(Has(K->Nodes[0].Body, vm::Op::Range));
  EXPECT_FALSE(Has(K->Nodes[0].Body, vm::Op::Jz));
  EXPECT_FALSE(Has(K->Nodes[1].Body, vm::Op::Range));
  EXPECT_TRUE(Has(K->Nodes[1].Body, vm::Op::Jz));
  const std::string L = vm::disassemble(*P);
  EXPECT_NE(L.find(": u range _ty < r"), std::string::npos) << L;

  sim::GpuDevice DG;
  auto Vec = DG.alloc<double>(N);
  sim::GpuDevice DV;
  vm::DevBuf VVec = vm::allocDev(DV, ScalarKind::F64, N);
  for (int I = 0; I != N; ++I)
    Vec.data()[I] = devData(VVec)[I] = fillVal(I);

  descend::gen::split_2d(DG, Vec);
  vm::RunStatus St = vm::launchKernel(DV, *K, {VVec});
  ASSERT_TRUE(St.Ok) << St.Error;
  EXPECT_EQ(0, std::memcmp(Vec.data(), VVec.Data, N * sizeof(double)));
  // Row 2 doubled, row 3 incremented, column 3 of both tripled.
  EXPECT_EQ(devData(VVec)[2 * 16 + 3], fillVal(2 * 16 + 3) * 2.0 * 3.0);
  EXPECT_EQ(devData(VVec)[3 * 16 + 3], (fillVal(3 * 16 + 3) + 1.0) * 3.0);
  EXPECT_EQ(devData(VVec)[3 * 16 + 4], fillVal(3 * 16 + 4) + 1.0);
}

TEST(VmKernel, HonorsRaceDetectorSequentialMode) {
  // The interpreter logs shared/global accesses through the same
  // BlockCtx/GpuDevice hooks as generated code, so a race-free kernel
  // must stay race-free under detection (which forces sequential
  // single-worker execution).
  const int NB = 8, N = NB * 256;
  auto P = compileVm(DESCEND_KERNEL_DIR "/reduce.descend", {{"nb", NB}});
  ASSERT_TRUE(P);
  const vm::VmKernel *K = P->findKernel("reduce");
  ASSERT_NE(K, nullptr);

  sim::GpuDevice DV;
  DV.setRaceDetection(true);
  vm::DevBuf VIn = vm::allocDev(DV, ScalarKind::F64, N);
  vm::DevBuf VOut = vm::allocDev(DV, ScalarKind::F64, NB);
  for (int I = 0; I != N; ++I)
    devData(VIn)[I] = fillVal(I);

  ASSERT_TRUE(vm::launchKernel(DV, *K, {VIn, VOut}).Ok);
  auto Races = DV.findRaces();
  EXPECT_TRUE(Races.empty())
      << Races.size() << " races; first: " << Races[0].str();
}

TEST(VmKernel, ReportsOutOfRangeLaunchArguments) {
  const int NB = 8;
  auto P = compileVm(DESCEND_KERNEL_DIR "/reduce.descend", {{"nb", NB}});
  ASSERT_TRUE(P);
  const vm::VmKernel *K = P->findKernel("reduce");
  ASSERT_NE(K, nullptr);

  sim::GpuDevice DV;
  vm::DevBuf Small = vm::allocDev(DV, ScalarKind::F64, 16); // wrong size
  vm::DevBuf VOut = vm::allocDev(DV, ScalarKind::F64, NB);
  vm::RunStatus St = vm::launchKernel(DV, *K, {Small, VOut});
  EXPECT_FALSE(St.Ok);
  EXPECT_NE(St.Error.find("input"), std::string::npos) << St.Error;
}

//===----------------------------------------------------------------------===//
// Negative group: corrupted bytecode must trap, never hit UB. Runs under
// ASan/UBSan in CI — any unchecked register/const/jump index would fire
// there.
//===----------------------------------------------------------------------===//

namespace {
/// One-straight-node kernel around \p Body, no parameters.
vm::VmKernel corruptKernel(std::vector<vm::Instr> Body, unsigned NumRegs) {
  vm::VmKernel K;
  K.Name = "corrupt";
  K.Grid = sim::Dim3{1};
  K.Block = sim::Dim3{1};
  K.StraightPhases = 1;
  vm::VmNode N;
  N.K = vm::VmNode::Straight;
  N.Body.Instrs = std::move(Body);
  N.Body.NumRegs = NumRegs;
  K.Nodes.push_back(std::move(N));
  return K;
}

vm::Instr instr(vm::Op O, uint16_t A = 0, uint16_t B = 0, uint16_t C = 0,
                int32_t Imm = 0) {
  vm::Instr I;
  I.K = O;
  I.A = A;
  I.B = B;
  I.C = C;
  I.Imm = Imm;
  return I;
}

vm::Value imm(long long V) {
  vm::Value X;
  X.I = V;
  return X;
}

/// \p I marked uniform.
vm::Instr uniform(vm::Instr I) {
  I.U = 1;
  return I;
}

/// \p K with every mark stripped: every instruction and register varying.
vm::VmKernel stripMarks(vm::VmKernel K) {
  std::function<void(std::vector<vm::VmNode> &)> Walk =
      [&](std::vector<vm::VmNode> &Nodes) {
        for (vm::VmNode &N : Nodes) {
          for (vm::Code *C : {&N.Body, &N.Lo, &N.Hi}) {
            C->NumUniform = 0;
            for (vm::Instr &I : C->Instrs)
              I.U = 0;
          }
          Walk(N.Children);
        }
      };
  Walk(K.Nodes);
  return K;
}
} // namespace

TEST(VmValidate, RejectsOutOfRangeRegisterIndices) {
  // r5 with a 1-register file — the dispatch loop would index past the
  // register vector.
  auto K = corruptKernel({instr(vm::Op::Move, /*A=*/5, /*B=*/0)},
                         /*NumRegs=*/1);
  vm::RunStatus V = vm::validateKernel(K);
  EXPECT_FALSE(V.Ok);
  EXPECT_NE(V.Error.find("register"), std::string::npos) << V.Error;

  // launchKernel refuses it too (same check, before anything runs).
  sim::GpuDevice DV;
  vm::RunStatus St = vm::launchKernel(DV, K, {});
  EXPECT_FALSE(St.Ok);
  EXPECT_NE(St.Error.find("invalid bytecode"), std::string::npos)
      << St.Error;
  EXPECT_FALSE(DV.poisoned()) << "rejected bytecode must not poison";
}

TEST(VmValidate, RejectsBitFlippedOpcode) {
  auto K = corruptKernel({instr(static_cast<vm::Op>(0xEF))}, 1);
  vm::RunStatus V = vm::validateKernel(K);
  EXPECT_FALSE(V.Ok);
  EXPECT_NE(V.Error.find("opcode"), std::string::npos) << V.Error;
}

TEST(VmValidate, RejectsTruncatedArtifactShapes) {
  // A constant pool shorter than the Const index refers to — what a
  // truncated artifact looks like after deserialization.
  auto Trunc = corruptKernel({instr(vm::Op::Const, 0, 0, 0, /*Imm=*/3)}, 1);
  vm::RunStatus V1 = vm::validateKernel(Trunc);
  EXPECT_FALSE(V1.Ok);
  EXPECT_NE(V1.Error.find("constant index"), std::string::npos) << V1.Error;

  // Jump past the instruction vector (backwards, via a negative Imm).
  auto BadJmp = corruptKernel({instr(vm::Op::Jmp, 0, 0, 0, /*Imm=*/-7)}, 1);
  vm::RunStatus V2 = vm::validateKernel(BadJmp);
  EXPECT_FALSE(V2.Ok);
  EXPECT_NE(V2.Error.find("jump target"), std::string::npos) << V2.Error;

  // A global access against a parameter the kernel does not have.
  auto BadBuf = corruptKernel(
      {instr(vm::Op::LoadGlobal, 0, 0,
             static_cast<uint16_t>(ScalarKind::F64), /*Imm=*/2)},
      1);
  vm::RunStatus V3 = vm::validateKernel(BadBuf);
  EXPECT_FALSE(V3.Ok);
  EXPECT_NE(V3.Error.find("buffer index"), std::string::npos) << V3.Error;

  // Wide ops implicitly use r[A+1]: A = NumRegs-1 is out of range.
  auto BadWide = corruptKernel(
      {instr(vm::Op::LoadShared2, /*A=*/1, 0,
             static_cast<uint16_t>(ScalarKind::F64), /*Imm=*/0)},
      /*NumRegs=*/2);
  vm::RunStatus V4 = vm::validateKernel(BadWide);
  EXPECT_FALSE(V4.Ok);
  EXPECT_NE(V4.Error.find("register"), std::string::npos) << V4.Error;

  // And the compiled kernels in this suite all pass validation.
  auto P = compileVm(DESCEND_KERNEL_DIR "/reduce.descend", {{"nb", 8}});
  ASSERT_TRUE(P);
  for (const vm::VmKernel &K : P->Kernels)
    EXPECT_TRUE(vm::validateKernel(K).Ok);
}

TEST(VmValidate, RejectsMisMarkedInstructions) {
  using vm::Op;
  // r0 is uniform, r1 varying.
  struct Case {
    const char *Rule;
    vm::Instr I;
    const char *Why;
  } const Cases[] = {
      {"a uniform instruction reads only uniform registers",
       uniform(instr(Op::AddI, 0, 0, 1)), "reads a varying register"},
      {"a uniform instruction writes only uniform registers",
       uniform(instr(Op::Const, 1, 0, 0, 0)), "uses varying register r1"},
      {"a varying instruction never writes a uniform register",
       instr(Op::Const, 0, 0, 0, 0), "writes uniform register r0"},
      {"a uniform jz tests a uniform register",
       uniform(instr(Op::Jz, 1, 0, 0, 1)), "uses varying register r1"},
      {"memory accesses are per lane",
       uniform(instr(Op::LoadShared, 0, 0,
                     static_cast<uint16_t>(ScalarKind::F64), 0)),
       "memory access marked uniform"},
      {"lane coordinates are varying", uniform(instr(Op::Coord, 0, 0, 0, 3)),
       "lane coordinate 3 marked uniform"},
  };
  for (const Case &C : Cases) {
    SCOPED_TRACE(C.Rule);
    auto K = corruptKernel({C.I, uniform(instr(Op::Ret))}, /*NumRegs=*/2);
    K.Nodes[0].Body.NumUniform = 1;
    K.Nodes[0].Body.Consts.push_back(imm(0));
    vm::RunStatus V = vm::validateKernel(K);
    EXPECT_FALSE(V.Ok);
    EXPECT_NE(V.Error.find(C.Why), std::string::npos) << V.Error;
  }
  // More uniform registers than registers, and a mark that is not 0/1.
  auto K = corruptKernel({instr(Op::Ret)}, /*NumRegs=*/1);
  K.Nodes[0].Body.NumUniform = 2;
  EXPECT_FALSE(vm::validateKernel(K).Ok);
  vm::Instr Ret = instr(Op::Ret);
  Ret.U = 7;
  EXPECT_FALSE(vm::validateKernel(corruptKernel({Ret}, 1)).Ok);
}

TEST(VmValidate, RangeOpsNeedAUniformBoundAForwardTargetAndOneRun) {
  using vm::Op;
  // r0 is uniform, r1 varying; the block is 1-D unless a case says not.
  struct Case {
    const char *Rule;
    vm::Instr I;
    sim::Dim3 Block;
    const char *Why; ///< nullptr: valid
  } const Cases[] = {
      {"a uniform range reads a uniform bound",
       uniform(instr(Op::Range, 1, 0, 3, 1)), sim::Dim3{64},
       "uses varying register r1"},
      {"the bound register exists", instr(Op::Range, 5, 0, 3, 1),
       sim::Dim3{64}, "register out of range"},
      {"the target lies within the code",
       uniform(instr(Op::Range, 0, 0, 3, 9)), sim::Dim3{64},
       "jump target 9 out of range [1, 2]"},
      {"the target lies ahead", uniform(instr(Op::Range, 0, 0, 3, 0)),
       sim::Dim3{64}, "jump target 0 out of range [1, 2]"},
      {"_tx of an XY block is no run", uniform(instr(Op::Range, 0, 0, 3, 1)),
       sim::Dim3{16, 4}, "lane coordinate 3 of a block(16, 4, 1) is not"},
      {"_ty of an XYZ block is no run", uniform(instr(Op::Range, 0, 0, 4, 1)),
       sim::Dim3{4, 4, 4}, "lane coordinate 4 of a block(4, 4, 4) is not"},
      {"a block coordinate is no lane range",
       uniform(instr(Op::Range, 0, 0, 0, 1)), sim::Dim3{64},
       "lane coordinate 0 of a block(64, 1, 1) is not"},
      {"_tx of a 1-D block", uniform(instr(Op::Range, 0, 0, 3, 1)),
       sim::Dim3{64}, nullptr},
      {"_ty of an XY block", uniform(instr(Op::Range, 0, 0, 4, 2)),
       sim::Dim3{16, 4}, nullptr},
      {"_tz of any block", uniform(instr(Op::Range, 0, 0, 5, 1)),
       sim::Dim3{4, 4, 4}, nullptr},
      {"a varying range may read any register", instr(Op::Range, 1, 0, 6, 1),
       sim::Dim3{4, 4, 4}, nullptr},
  };
  for (const Case &C : Cases) {
    SCOPED_TRACE(C.Rule);
    auto K = corruptKernel({C.I, uniform(instr(Op::Ret))}, /*NumRegs=*/2);
    K.Block = C.Block;
    K.Nodes[0].Body.NumUniform = 1;
    vm::RunStatus V = vm::validateKernel(K);
    if (!C.Why) {
      EXPECT_TRUE(V.Ok) << V.Error;
      continue;
    }
    EXPECT_FALSE(V.Ok);
    EXPECT_NE(V.Error.find(C.Why), std::string::npos) << V.Error;
  }
}

TEST(VmKernel, UniformWriteWhileLanesAreParkedTraps) {
  // Lane 0 runs on past a varying split while lanes 1..63 wait at pc 5;
  // a uniform write then would change r1 under them. The marks pass
  // validation, so the executor must catch it, at every launch.
  using vm::Op;
  auto K = corruptKernel(
      {uniform(instr(Op::Const, 0, 0, 0, 0)), // 0: r0 = 1
       instr(Op::Coord, 2, 0, 0, 3),          // 1: tx
       instr(Op::LtI, 3, 2, 0),               // 2: tx < 1
       instr(Op::Jz, 3, 0, 0, 5),             // 3: lanes 1.. park at 5
       uniform(instr(Op::Const, 1, 0, 0, 0)), // 4: uniform write
       instr(Op::Move, 4, 2),                 // 5
       uniform(instr(Op::Ret))},              // 6
      /*NumRegs=*/5);
  K.Block = sim::Dim3{64};
  K.Nodes[0].Body.NumUniform = 2;
  K.Nodes[0].Body.Consts.push_back(imm(1));
  ASSERT_TRUE(vm::validateKernel(K).Ok) << vm::validateKernel(K).Error;
  sim::GpuDevice DV;
  for (int Rep = 0; Rep != 2; ++Rep) {
    vm::RunStatus St = vm::launchKernel(DV, K, {});
    EXPECT_FALSE(St.Ok);
    EXPECT_EQ(St.Error, "in kernel `corrupt`: uniform const at pc 4 writes "
                        "while lanes are parked (corrupted bytecode?)");
    EXPECT_EQ(DV.getLastError(), sim::ErrorCode::KernelTrap);
    DV.reset();
  }
  // One thread at a time no lane is ever parked: the same bytecode runs.
  DV.setBoundsChecking(true);
  EXPECT_TRUE(vm::launchKernel(DV, K, {}).Ok);
}

TEST(VmKernel, SharedIndexTooLargeForAByteOffsetTraps) {
  // shared[2^61] of 8-byte elements: 2^61 * 8 wraps to byte 0 of a
  // size_t, which lies inside the 8-byte arena. The index itself is out
  // of range and must trap, for the scalar and the wide access alike.
  for (vm::Op Load : {vm::Op::LoadShared, vm::Op::LoadShared2}) {
    auto K = corruptKernel(
        {instr(vm::Op::Const, 0, 0, 0, /*Imm=*/0),
         instr(Load, /*A=*/1, /*B=*/0, static_cast<uint16_t>(ScalarKind::F64),
               /*Imm=*/0),
         instr(vm::Op::Ret)},
        /*NumRegs=*/3);
    K.Nodes[0].Body.Consts.push_back(imm(1ll << 61));
    K.SharedBytes = K.LocalsBase = K.ArenaBytes = 8;
    ASSERT_TRUE(vm::validateKernel(K).Ok);

    sim::GpuDevice DV;
    vm::RunStatus St = vm::launchKernel(DV, K, {});
    EXPECT_FALSE(St.Ok) << vm::opName(Load);
    EXPECT_NE(St.Error.find("shared"), std::string::npos) << St.Error;
    EXPECT_NE(St.Error.find("2305843009213693952"), std::string::npos)
        << St.Error;
    EXPECT_EQ(DV.getLastError(), sim::ErrorCode::KernelTrap);
  }
}

TEST(VmKernel, NatPowerWrapsInLogarithmicTime) {
  // out[0] = 3^(2^40): a trillion multiplications one at a time, forty
  // squarings by square-and-multiply. The result wraps modulo 2^64.
  auto K = corruptKernel(
      {instr(vm::Op::Const, 0, 0, 0, /*Imm=*/0),
       instr(vm::Op::Const, 1, 0, 0, /*Imm=*/1),
       instr(vm::Op::PowI, 2, 0, 1), instr(vm::Op::Const, 3, 0, 0, /*Imm=*/2),
       instr(vm::Op::StoreGlobal, 2, 3, static_cast<uint16_t>(ScalarKind::I64),
             /*Imm=*/0),
       instr(vm::Op::Ret)},
      /*NumRegs=*/4);
  for (long long V : {3ll, 1ll << 40, 0ll})
    K.Nodes[0].Body.Consts.push_back(imm(V));
  K.Params.push_back({"out", ScalarKind::I64, 1});

  sim::GpuDevice DV;
  vm::DevBuf Out = vm::allocDev(DV, ScalarKind::I64, 1);
  auto T0 = std::chrono::steady_clock::now();
  vm::RunStatus St = vm::launchKernel(DV, K, {Out});
  double Ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - T0)
                  .count();
  ASSERT_TRUE(St.Ok) << St.Error;
  EXPECT_LT(Ms, 1000.0);

  uint64_t Want = 3;
  for (int I = 0; I != 40; ++I)
    Want *= Want;
  uint64_t Got;
  std::memcpy(&Got, Out.Data, sizeof(Got));
  EXPECT_EQ(Got, Want);
}

TEST(VmKernel, IntegerOverflowWrapsAndDivisionOverflowTraps) {
  // Uniform and varying alike: add, sub, mul and neg wrap modulo 2^64;
  // LLONG_MIN / -1 and % -1, whose quotient has no i64, trap where the
  // hardware divide would kill the process.
  using vm::Op;
  const long long Min = std::numeric_limits<long long>::min();
  const long long Max = std::numeric_limits<long long>::max();
  const uint16_t I64 = static_cast<uint16_t>(ScalarKind::I64);
  auto Wraps = corruptKernel(
      {uniform(instr(Op::Const, 0, 0, 0, 0)), // 0: max
       uniform(instr(Op::Const, 1, 0, 0, 1)), // 1: 1
       uniform(instr(Op::Const, 2, 0, 0, 2)), // 2: min
       uniform(instr(Op::Const, 3, 0, 0, 3)), // 3: 2
       uniform(instr(Op::Const, 8, 0, 0, 4)), // 4: 0
       uniform(instr(Op::Const, 9, 0, 0, 5)), // 5: 3
       uniform(instr(Op::AddI, 4, 0, 1)),     // 6: max + 1
       uniform(instr(Op::SubI, 5, 2, 1)),     // 7: min - 1
       uniform(instr(Op::MulI, 6, 0, 3)),     // 8: max * 2
       uniform(instr(Op::NegI, 7, 2)),        // 9: -min
       instr(Op::StoreGlobal, 4, 8, I64, 0),  // out[0]
       instr(Op::StoreGlobal, 5, 1, I64, 0),  // out[1]
       instr(Op::StoreGlobal, 6, 3, I64, 0),  // out[2]
       instr(Op::StoreGlobal, 7, 9, I64, 0),  // out[3]
       uniform(instr(Op::Ret))},
      /*NumRegs=*/10);
  for (long long V : {Max, 1ll, Min, 2ll, 0ll, 3ll})
    Wraps.Nodes[0].Body.Consts.push_back(imm(V));
  Wraps.Nodes[0].Body.NumUniform = 10;
  Wraps.Params.push_back({"out", ScalarKind::I64, 4});
  for (bool Strip : {false, true}) {
    SCOPED_TRACE(Strip ? "varying" : "uniform");
    const vm::VmKernel K = Strip ? stripMarks(Wraps) : Wraps;
    ASSERT_TRUE(vm::validateKernel(K).Ok) << vm::validateKernel(K).Error;
    sim::GpuDevice DV;
    vm::DevBuf Out = vm::allocDev(DV, ScalarKind::I64, 4);
    vm::RunStatus St = vm::launchKernel(DV, K, {Out});
    ASSERT_TRUE(St.Ok) << St.Error;
    long long Got[4];
    std::memcpy(Got, Out.Data, sizeof(Got));
    EXPECT_EQ(Got[0], Min);
    EXPECT_EQ(Got[1], Max);
    EXPECT_EQ(Got[2], -2);
    EXPECT_EQ(Got[3], Min);
  }

  for (Op O : {Op::DivI, Op::ModI})
    for (bool Strip : {false, true}) {
      SCOPED_TRACE(std::string(vm::opName(O)) +
                   (Strip ? " varying" : " uniform"));
      auto K = corruptKernel({uniform(instr(Op::Const, 0, 0, 0, 0)), // min
                              uniform(instr(Op::Const, 1, 0, 0, 1)), // -1
                              uniform(instr(O, 2, 0, 1)),
                              uniform(instr(Op::Ret))},
                             /*NumRegs=*/3);
      K.Nodes[0].Body.Consts = {imm(Min), imm(-1)};
      K.Nodes[0].Body.NumUniform = 3;
      if (Strip)
        K = stripMarks(std::move(K));
      ASSERT_TRUE(vm::validateKernel(K).Ok) << vm::validateKernel(K).Error;
      sim::GpuDevice DV;
      vm::RunStatus St = vm::launchKernel(DV, K, {});
      EXPECT_FALSE(St.Ok);
      EXPECT_EQ(St.Error, O == Op::DivI
                              ? "in kernel `corrupt`: integer division overflow"
                              : "in kernel `corrupt`: integer modulo overflow");
      EXPECT_EQ(DV.getLastError(), sim::ErrorCode::KernelTrap);
    }
}

//===----------------------------------------------------------------------===//
// Lane groups: the same bytes at every width, worker count and branch
// pattern. A default device runs each phase body for a whole block at
// once; bounds checking, like every mode that observes per-thread order,
// runs it one thread at a time.
//===----------------------------------------------------------------------===//

namespace {

struct ExecMode {
  bool OneThreadGroups; ///< bounds checking on
  unsigned Workers;
};
const ExecMode Modes[] = {{false, 1}, {false, 4}, {true, 1}, {true, 4}};

std::string modeName(const ExecMode &M) {
  return std::string(M.OneThreadGroups ? "one-thread groups" : "full width") +
         ", " + std::to_string(M.Workers) + " workers";
}

sim::GpuDevice &configure(sim::GpuDevice &Dev, const ExecMode &M) {
  Dev.setWorkers(M.Workers);
  Dev.setBoundsChecking(M.OneThreadGroups);
  return Dev;
}

/// Launches every kernel of \p P once on freshly filled f64 buffers and
/// returns the bytes of all of them afterwards.
std::vector<std::byte> runKernels(const vm::CompiledProgram &P,
                                  const ExecMode &M) {
  sim::GpuDevice Dev;
  configure(Dev, M);
  std::vector<std::byte> Bytes;
  for (const vm::VmKernel &K : P.Kernels) {
    std::vector<vm::DevBuf> Bufs;
    for (const vm::VmKernel::Param &Prm : K.Params) {
      EXPECT_EQ(Prm.Elem, ScalarKind::F64) << K.Name << " " << Prm.Name;
      vm::DevBuf D = vm::allocDev(Dev, ScalarKind::F64, Prm.Count);
      for (size_t I = 0; I != Prm.Count; ++I)
        devData(D)[I] = fillVal(I + 13 * Bufs.size());
      Bufs.push_back(D);
    }
    vm::RunStatus St = vm::launchKernel(Dev, K, Bufs);
    EXPECT_TRUE(St.Ok) << K.Name << ": " << St.Error;
    for (const vm::DevBuf &D : Bufs)
      Bytes.insert(Bytes.end(), D.Data, D.Data + D.Count * sizeof(double));
  }
  EXPECT_TRUE(Dev.boundsViolations().empty());
  return Bytes;
}

constexpr unsigned LaneBlocks = 3, LaneThreads = 64;

/// A kernel of LaneBlocks x LaneThreads threads running \p Body, then
/// `out[_bx * LaneThreads + _lin] = r[Result]` (registers Tmp..Tmp+4 and
/// one appended constant). A jump to Body.size() lands on that store.
vm::VmKernel laneKernel(std::vector<vm::Instr> Body,
                        std::vector<long long> Consts, uint16_t Result,
                        uint16_t Tmp, unsigned NumRegs) {
  const int32_t Width = static_cast<int32_t>(Consts.size());
  Consts.push_back(LaneThreads);
  for (vm::Instr I :
       {instr(vm::Op::Coord, Tmp, 0, 0, /*_bx*/ 0),
        instr(vm::Op::Const, Tmp + 1, 0, 0, Width),
        instr(vm::Op::MulI, Tmp + 2, Tmp, Tmp + 1),
        instr(vm::Op::Coord, Tmp + 3, 0, 0, /*_lin*/ 6),
        instr(vm::Op::AddI, Tmp + 4, Tmp + 2, Tmp + 3),
        instr(vm::Op::StoreGlobal, Result, Tmp + 4,
              static_cast<uint16_t>(ScalarKind::I64), 0),
        instr(vm::Op::Ret)})
    Body.push_back(I);
  vm::VmKernel K = corruptKernel(std::move(Body), NumRegs);
  K.Name = "lanes";
  K.Grid = sim::Dim3{LaneBlocks};
  K.Block = sim::Dim3{LaneThreads};
  for (long long V : Consts)
    K.Nodes[0].Body.Consts.push_back(imm(V));
  K.Params.push_back({"out", ScalarKind::I64, LaneBlocks * LaneThreads});
  return K;
}

/// out[] after one launch of \p K; untouched entries stay -1.
std::vector<long long> runLanes(const vm::VmKernel &K, const ExecMode &M) {
  sim::GpuDevice Dev;
  configure(Dev, M);
  vm::DevBuf Out =
      vm::allocDev(Dev, ScalarKind::I64, LaneBlocks * LaneThreads);
  std::vector<long long> V(Out.Count, -1);
  std::memcpy(Out.Data, V.data(), V.size() * sizeof(long long));
  vm::RunStatus St = vm::launchKernel(Dev, K, {Out});
  EXPECT_TRUE(St.Ok) << St.Error;
  std::memcpy(V.data(), Out.Data, V.size() * sizeof(long long));
  return V;
}

/// A loop whose trip count depends on _tx, over registers Base..Base+12:
/// sum of (3i + 1) for i < _tx % 5 + _tx / 16, left in r[Base + 6].
std::vector<vm::Instr> tripCountLoop(uint16_t Base) {
  auto R = [Base](int I) { return static_cast<uint16_t>(Base + I); };
  using vm::Op;
  return {
      instr(Op::Coord, R(0), 0, 0, 3),     // 0: tx
      instr(Op::Const, R(1), 0, 0, 0),     // 1: 5
      instr(Op::ModI, R(2), R(0), R(1)),   // 2
      instr(Op::Const, R(3), 0, 0, 1),     // 3: 16
      instr(Op::DivI, R(4), R(0), R(3)),   // 4
      instr(Op::AddI, R(5), R(2), R(4)),   // 5: n
      instr(Op::Const, R(6), 0, 0, 2),     // 6: sum = 0
      instr(Op::Const, R(7), 0, 0, 2),     // 7: i = 0
      instr(Op::LtI, R(8), R(7), R(5)),    // 8: loop head
      instr(Op::Jz, R(8), 0, 0, 17),       // 9
      instr(Op::Const, R(9), 0, 0, 3),     // 10: 3
      instr(Op::MulI, R(10), R(7), R(9)),  // 11
      instr(Op::Const, R(11), 0, 0, 4),    // 12: 1
      instr(Op::AddI, R(12), R(10), R(11)), // 13
      instr(Op::AddI, R(6), R(6), R(12)),  // 14
      instr(Op::AddI, R(7), R(7), R(11)),  // 15
      instr(Op::Jmp, 0, 0, 0, 8),          // 16
  };
}
const std::vector<long long> TripCountConsts = {5, 16, 0, 3, 1};
long long tripCountSum(long long Tx) {
  long long N = Tx % 5 + Tx / 16;
  return 3 * N * (N - 1) / 2 + N;
}

} // namespace

TEST(VmLaneGroups, KernelsWriteTheSameBytesAtEveryWidthAndWorkerCount) {
  kir::PassConfig Vec, Pad;
  Vec.Vectorize = true;
  Pad.SharedPad = 1;
  struct Case {
    const char *File, *Nat;
    long long Size;
    kir::PassConfig Passes;
  } const Cases[] = {{"transpose.descend", "n", 128, {}},
                     {"reduce.descend", "nb", 8, {}},
                     {"scan.descend", "nb", 8, {}},
                     {"matmul.descend", "nt", 4, {}},
                     {"scale_vec.descend", "nb", 8, {}},
                     {"scale2.descend", "nb", 8, Vec},
                     {"matmul.descend", "nt", 4, Pad}};
  for (const Case &C : Cases) {
    SCOPED_TRACE(std::string(C.File) + " " + C.Passes.cacheKey());
    auto P = compileVm(std::string(DESCEND_KERNEL_DIR "/") + C.File,
                       {{C.Nat, C.Size}}, C.Passes);
    ASSERT_TRUE(P);
    const std::vector<std::byte> Ref = runKernels(*P, Modes[0]);
    for (const ExecMode &M : Modes)
      EXPECT_TRUE(runKernels(*P, M) == Ref) << modeName(M);
  }
}

TEST(VmLaneGroups, DivergentBodiesMatchClosedFormsAtEveryWidth) {
  using vm::Op;
  struct Case {
    const char *Name;
    vm::VmKernel K;
    long long (*Want)(long long Tx);
  };
  const std::vector<Case> Cases = {
      // if/else on _tx. r6 is written only on the then-path: the else
      // lanes must read it as 0 although the lane before them wrote 77.
      {"if/else",
       laneKernel({instr(Op::Coord, 0, 0, 0, 3),  // 0: tx
                   instr(Op::Const, 1, 0, 0, 0),  // 1: 3
                   instr(Op::ModI, 2, 0, 1),      // 2
                   instr(Op::Jz, 2, 0, 0, 8),     // 3: tx % 3 == 0: else
                   instr(Op::Const, 3, 0, 0, 1),  // 4: 100
                   instr(Op::AddI, 5, 0, 3),      // 5
                   instr(Op::Const, 6, 0, 0, 3),  // 6: 77
                   instr(Op::Jmp, 0, 0, 0, 10),   // 7
                   instr(Op::Const, 4, 0, 0, 2),  // 8: 7
                   instr(Op::MulI, 5, 0, 4),      // 9
                   instr(Op::AddI, 7, 5, 6)},     // 10
                  {3, 100, 7, 77}, /*Result=*/7, /*Tmp=*/8, 13),
       [](long long Tx) { return Tx % 3 ? Tx + 177 : Tx * 7; }},
      // Nested ifs; lanes in [40, 60) take neither inner branch.
      {"nested ifs",
       laneKernel({instr(Op::Coord, 0, 0, 0, 3),  // 0: tx
                   instr(Op::Const, 1, 0, 0, 0),  // 1: 40
                   instr(Op::LtI, 2, 0, 1),       // 2
                   instr(Op::Jz, 2, 0, 0, 11),    // 3: tx >= 40
                   instr(Op::Const, 3, 0, 0, 1),  // 4: 2
                   instr(Op::ModI, 4, 0, 3),      // 5
                   instr(Op::Jz, 4, 0, 0, 9),     // 6: even
                   instr(Op::Const, 9, 0, 0, 1),  // 7: v = 2
                   instr(Op::Jmp, 0, 0, 0, 15),   // 8
                   instr(Op::Const, 9, 0, 0, 2),  // 9: v = 1
                   instr(Op::Jmp, 0, 0, 0, 15),   // 10
                   instr(Op::Const, 5, 0, 0, 3),  // 11: 60
                   instr(Op::GeI, 6, 0, 5),       // 12
                   instr(Op::Jz, 6, 0, 0, 15),    // 13: tx < 60
                   instr(Op::Const, 9, 0, 0, 4)}, // 14: v = 3
                  {40, 2, 1, 60, 3}, /*Result=*/9, /*Tmp=*/10, 15),
       [](long long Tx) -> long long {
         return Tx < 40 ? (Tx % 2 ? 2 : 1) : Tx >= 60 ? 3 : 0;
       }},
      // if / else if: the first two arms meet at pc 9 while the third
      // waits at pc 10.
      {"if / else if",
       laneKernel({instr(Op::Coord, 0, 0, 0, 3),  // 0: tx
                   instr(Op::Const, 1, 0, 0, 0),  // 1: 3
                   instr(Op::ModI, 2, 0, 1),      // 2: m
                   instr(Op::Jz, 2, 0, 0, 10),    // 3: m == 0
                   instr(Op::Const, 3, 0, 0, 1),  // 4: 1
                   instr(Op::EqI, 4, 2, 3),       // 5
                   instr(Op::Jz, 4, 0, 0, 9),     // 6: m == 2
                   instr(Op::Const, 6, 0, 0, 2),  // 7: 100
                   instr(Op::AddI, 5, 5, 6),      // 8: m == 1 only
                   instr(Op::AddI, 5, 5, 0),      // 9: m != 0
                   instr(Op::Const, 7, 0, 0, 3),  // 10: 1000
                   instr(Op::AddI, 8, 5, 7)},     // 11
                  {3, 1, 100, 1000}, /*Result=*/8, /*Tmp=*/9, 14),
       [](long long Tx) {
         return Tx % 3 == 0 ? 1000 : Tx % 3 == 1 ? Tx + 1100 : Tx + 1000;
       }},
      {"trip count depends on _tx",
       laneKernel(tripCountLoop(0), TripCountConsts, /*Result=*/6,
                  /*Tmp=*/13, 18),
       tripCountSum},
      // Lanes with _tx % 4 == 1 return before the store; the others
      // split again and meet without them.
      {"early return",
       laneKernel({instr(Op::Coord, 0, 0, 0, 3), // 0: tx
                   instr(Op::Const, 1, 0, 0, 0), // 1: 4
                   instr(Op::ModI, 2, 0, 1),     // 2
                   instr(Op::Const, 3, 0, 0, 1), // 3: 1
                   instr(Op::EqI, 4, 2, 3),      // 4
                   instr(Op::Jz, 4, 0, 0, 7),    // 5
                   instr(Op::Ret),               // 6
                   instr(Op::Const, 6, 0, 0, 2), // 7: 2
                   instr(Op::ModI, 7, 0, 6),     // 8
                   instr(Op::Jz, 7, 0, 0, 12),   // 9: even
                   instr(Op::MulI, 5, 0, 0),     // 10: tx * tx
                   instr(Op::Jmp, 0, 0, 0, 13),  // 11
                   instr(Op::AddI, 5, 0, 0)},    // 12: tx + tx
                  {4, 1, 2}, /*Result=*/5, /*Tmp=*/8, 13),
       [](long long Tx) {
         return Tx % 4 == 1 ? -1 : Tx % 2 ? Tx * Tx : 2 * Tx;
       }},
      // A backward jz (do-while): looping lanes run first, finished ones
      // wait below the loop.
      {"backward branch",
       laneKernel({instr(Op::Coord, 0, 0, 0, 3), // 0: tx
                   instr(Op::Const, 1, 0, 0, 0), // 1: 4
                   instr(Op::ModI, 2, 0, 1),     // 2: n
                   instr(Op::Const, 5, 0, 0, 1), // 3: 1
                   instr(Op::AddI, 4, 4, 5),     // 4: loop: i += 1
                   instr(Op::AddI, 3, 3, 4),     // 5: sum += i
                   instr(Op::GeI, 6, 4, 2),      // 6
                   instr(Op::Jz, 6, 0, 0, 4)},   // 7: i < n: loop
                  {4, 1}, /*Result=*/3, /*Tmp=*/7, 12),
       [](long long Tx) {
         long long K = std::max(Tx % 4, 1ll);
         return K * (K + 1) / 2;
       }},
      // 3000 registers fit ten lanes into the register budget: the block
      // runs as groups of 10, 10, ..., 4.
      {"register count narrows the group",
       laneKernel(tripCountLoop(2980), TripCountConsts, /*Result=*/2986,
                  /*Tmp=*/2993, 3000),
       tripCountSum},
  };
  for (const Case &C : Cases) {
    SCOPED_TRACE(C.Name);
    ASSERT_TRUE(vm::validateKernel(C.K).Ok) << vm::validateKernel(C.K).Error;
    for (const ExecMode &M : Modes) {
      std::vector<long long> Out = runLanes(C.K, M);
      for (unsigned G = 0; G != Out.size(); ++G)
        ASSERT_EQ(Out[G], C.Want(G % LaneThreads))
            << modeName(M) << ", thread " << G;
    }
  }
}

TEST(VmLaneGroups, ScatteredGroupBranchesTogether) {
  // The odd lanes run on alone (not contiguous) and then all take the
  // same branch: the group moves as a whole and keeps its lanes.
  using vm::Op;
  vm::VmKernel K =
      laneKernel({instr(Op::Coord, 0, 0, 0, 3), // 0: tx
                  instr(Op::Const, 1, 0, 0, 0), // 1: 2
                  instr(Op::ModI, 2, 0, 1),     // 2
                  instr(Op::Jz, 2, 0, 0, 9),    // 3: even lanes wait at 9
                  instr(Op::Const, 3, 0, 0, 1), // 4: 100
                  instr(Op::GeI, 4, 0, 3),      // 5: tx >= 100: never
                  instr(Op::Jz, 4, 0, 0, 8),    // 6: every odd lane jumps
                  instr(Op::Const, 5, 0, 0, 1), // 7: skipped
                  instr(Op::AddI, 6, 0, 3)},    // 8: tx + 100
                 {2, 100}, /*Result=*/6, /*Tmp=*/7, 12);
  ASSERT_TRUE(vm::validateKernel(K).Ok) << vm::validateKernel(K).Error;
  for (const ExecMode &M : Modes) {
    std::vector<long long> Out = runLanes(K, M);
    for (unsigned T = 0; T != Out.size(); ++T) {
      const long long Tx = T % LaneThreads;
      ASSERT_EQ(Out[T], Tx % 2 ? Tx + 100 : 0) << modeName(M) << ", " << T;
    }
  }
}

TEST(VmLaneGroups, RangeOpsMatchClosedFormsAtEveryWidth) {
  // Each body marks r0 (and r1 where it says) uniform; each case also runs
  // with its marks stripped, where every lane reads its own bound.
  using vm::Op;
  auto Marked = [](vm::VmKernel K, unsigned NumUniform, sim::Dim3 Block) {
    K.Nodes[0].Body.NumUniform = NumUniform;
    K.Block = Block;
    return K;
  };
  const std::vector<vm::Instr> ThenElse = {
      uniform(instr(Op::Const, 0, 0, 0, 0)), // 0: 40
      uniform(instr(Op::Range, 0, 0, 3, 5)), // 1: _tx < 40, else 5
      instr(Op::Coord, 1, 0, 0, 3),          // 2: tx
      instr(Op::AddI, 2, 1, 1),              // 3: tx + tx
      instr(Op::Jmp, 0, 0, 0, 7),            // 4
      instr(Op::Coord, 1, 0, 0, 3),          // 5: tx
      instr(Op::MulI, 2, 1, 1)};             // 6: tx * tx
  auto ThenElseWant = [](long long Lin) {
    return Lin < 40 ? 2 * Lin : Lin * Lin;
  };
  /// `coordinate C < 3 ? C + 3 : 3 * _tx`.
  auto Axis = [](uint16_t Coord) {
    return std::vector<vm::Instr>{
        uniform(instr(Op::Const, 0, 0, 0, 0)),     // 0: 3
        uniform(instr(Op::Range, 0, 0, Coord, 5)), // 1
        instr(Op::Coord, 1, 0, 0, Coord),          // 2
        instr(Op::AddI, 2, 1, 0),                  // 3
        instr(Op::Jmp, 0, 0, 0, 7),                // 4
        instr(Op::Coord, 1, 0, 0, 3),              // 5: tx
        instr(Op::MulI, 2, 1, 0)};                 // 6
  };
  struct Case {
    const char *Name;
    vm::VmKernel K;
    long long (*Want)(long long Lin);
  };
  const std::vector<Case> Cases = {
      {"_tx with an else arm",
       Marked(laneKernel(ThenElse, {40}, /*Result=*/2, /*Tmp=*/3, 8), 1,
              sim::Dim3{LaneThreads}),
       ThenElseWant},
      // Groups of ten lanes: the cut falls inside the group from 40.
      {"register count narrows the group",
       Marked(laneKernel(ThenElse, {40}, /*Result=*/2, /*Tmp=*/3, 3000), 1,
              sim::Dim3{LaneThreads}),
       ThenElseWant},
      // The odd lanes run alone (a listed group), and the range keeps a
      // prefix of them: even lanes -tx, odd ones below 33 tx + 33, the
      // other odd ones 2tx - tx.
      {"a prefix of a scattered group",
       Marked(laneKernel({uniform(instr(Op::Const, 0, 0, 0, 0)), // 0: 33
                          instr(Op::Coord, 1, 0, 0, 3),          // 1: tx
                          instr(Op::Const, 2, 0, 0, 1),          // 2: 2
                          instr(Op::ModI, 3, 1, 2),              // 3
                          instr(Op::Jz, 3, 0, 0, 9),             // 4: even
                          uniform(instr(Op::Range, 0, 0, 3, 8)), // 5
                          instr(Op::AddI, 4, 1, 0),              // 6
                          instr(Op::Jmp, 0, 0, 0, 10),           // 7
                          instr(Op::MulI, 4, 1, 2),              // 8
                          instr(Op::SubI, 4, 4, 1)},             // 9
                         {33, 2}, /*Result=*/4, /*Tmp=*/5, 10),
              1, sim::Dim3{LaneThreads}),
       [](long long Lin) {
         return Lin % 2 == 0 ? -Lin : Lin < 33 ? Lin + 33 : Lin;
       }},
      // Lanes from 20 on finish at the `ret` and never store.
      {"lanes past the bound retire",
       Marked(laneKernel({uniform(instr(Op::Const, 0, 0, 0, 0)), // 0: 20
                          uniform(instr(Op::Range, 0, 0, 6, 5)), // 1: _lin
                          instr(Op::Coord, 1, 0, 0, 6),          // 2
                          instr(Op::AddI, 2, 1, 1),              // 3
                          instr(Op::Jmp, 0, 0, 0, 6),            // 4
                          instr(Op::Ret)},                       // 5
                         {20}, /*Result=*/2, /*Tmp=*/3, 8),
              1, sim::Dim3{LaneThreads}),
       [](long long Lin) { return Lin < 20 ? 2 * Lin : -1; }},
      // A bound past every lane keeps the group; one below zero moves it.
      {"bounds outside the block",
       Marked(laneKernel({uniform(instr(Op::Const, 0, 0, 0, 0)), // 0: max
                          uniform(instr(Op::Const, 1, 0, 0, 1)), // 1: -5
                          uniform(instr(Op::Range, 0, 0, 3, 8)), // 2: all
                          uniform(instr(Op::Range, 1, 0, 6, 6)), // 3: none
                          instr(Op::Const, 2, 0, 0, 2),          // 4
                          instr(Op::Jmp, 0, 0, 0, 9),            // 5
                          instr(Op::Coord, 2, 0, 0, 6),          // 6: lin
                          instr(Op::Jmp, 0, 0, 0, 9),            // 7
                          instr(Op::Const, 2, 0, 0, 2)},         // 8
                         {std::numeric_limits<long long>::max(), -5, 7},
                         /*Result=*/2, /*Tmp=*/3, 8),
              2, sim::Dim3{LaneThreads}),
       [](long long Lin) { return Lin; }},
      {"_ty of an 8 x 8 block",
       Marked(laneKernel(Axis(4), {3}, /*Result=*/2, /*Tmp=*/3, 8), 1,
              sim::Dim3{8, 8}),
       [](long long Lin) { return Lin / 8 < 3 ? Lin / 8 + 3 : 3 * (Lin % 8); }},
      {"_tz of a 4 x 4 x 4 block",
       Marked(laneKernel(Axis(5), {3}, /*Result=*/2, /*Tmp=*/3, 8), 1,
              sim::Dim3{4, 4, 4}),
       [](long long Lin) {
         return Lin / 16 < 3 ? Lin / 16 + 3 : 3 * (Lin % 4);
       }},
  };
  for (const Case &C : Cases) {
    for (bool Strip : {false, true}) {
      SCOPED_TRACE(std::string(C.Name) + (Strip ? ", marks stripped" : ""));
      const vm::VmKernel K = Strip ? stripMarks(C.K) : C.K;
      ASSERT_TRUE(vm::validateKernel(K).Ok) << vm::validateKernel(K).Error;
      for (const ExecMode &M : Modes) {
        std::vector<long long> Out = runLanes(K, M);
        for (unsigned T = 0; T != Out.size(); ++T)
          ASSERT_EQ(Out[T], C.Want(T % LaneThreads))
              << modeName(M) << ", thread " << T;
      }
    }
  }
}

TEST(VmLaneGroups, TrapTextIsDeterministic) {
  using vm::Op;
  const uint16_t I64 = static_cast<uint16_t>(ScalarKind::I64);
  const std::string DivZero = "in kernel `lanes`: integer division by zero";
  struct Case {
    vm::VmKernel K;
    std::string FullWidth, OneThread; ///< the whole trap text
  } const Cases[] = {
      // Lanes >= 5 of every block divide by zero.
      {laneKernel({instr(Op::Coord, 0, 0, 0, 6), // 0: lin
                   instr(Op::Const, 1, 0, 0, 0), // 1: 5
                   instr(Op::LtI, 2, 0, 1),      // 2
                   instr(Op::DivI, 3, 0, 2)},    // 3
                  {5}, /*Result=*/3, /*Tmp=*/4, 9),
       DivZero, DivZero},
      // Lanes >= 5 branch off to store to out[100000 + _lin] instead, so
      // the text names the lowest of them.
      {laneKernel({instr(Op::Coord, 0, 0, 0, 6),  // 0: lin
                   instr(Op::Const, 1, 0, 0, 0),  // 1: 5
                   instr(Op::GeI, 2, 0, 1),       // 2
                   instr(Op::Jz, 2, 0, 0, 7),     // 3: lanes < 5 skip
                   instr(Op::Const, 3, 0, 0, 1),  // 4: 100000
                   instr(Op::AddI, 4, 3, 0),      // 5
                   instr(Op::StoreGlobal, 0, 4, I64, 0)}, // 6
                  {5, 100000}, /*Result=*/0, /*Tmp=*/5, 10),
       "in kernel `lanes`: global buffer `out` index 100005 out of range "
       "[0, 192)",
       "in kernel `lanes`: global buffer `out` index 100005 out of range "
       "[0, 192)"},
      // Lanes fail at different instructions: lane 7 divides by zero at
      // pc 4, lane 0 stores out of range at pc 9. One thread at a time,
      // thread 0 runs first and its store is the fault; at full width the
      // lockstep schedule reaches lane 7's division first.
      {laneKernel({instr(Op::Coord, 0, 0, 0, 6),  // 0: lin
                   instr(Op::Const, 1, 0, 0, 0),  // 1: 7
                   instr(Op::SubI, 2, 0, 1),      // 2
                   instr(Op::Const, 3, 0, 0, 1),  // 3: 1
                   instr(Op::DivI, 4, 3, 2),      // 4: 1 / (lin - 7)
                   instr(Op::Jz, 0, 0, 0, 7),     // 5: lane 0 stores
                   instr(Op::Jmp, 0, 0, 0, 10),   // 6
                   instr(Op::Const, 5, 0, 0, 2),  // 7: 100000
                   instr(Op::AddI, 6, 5, 0),      // 8
                   instr(Op::StoreGlobal, 0, 6, I64, 0)}, // 9
                  {7, 1, 100000}, /*Result=*/0, /*Tmp=*/7, 12),
       DivZero,
       "in kernel `lanes`: global buffer `out` index 100000 out of range "
       "[0, 192)"},
  };
  for (const Case &C : Cases) {
    // Full width at 1 and 4 workers, then one-thread groups (the race
    // detector observes per-thread order), each launched three times.
    for (int Mode = 0; Mode != 3; ++Mode) {
      sim::GpuDevice Dev;
      Dev.setWorkers(Mode == 1 ? 4 : 1);
      Dev.setRaceDetection(Mode == 2);
      vm::DevBuf Out =
          vm::allocDev(Dev, ScalarKind::I64, LaneBlocks * LaneThreads);
      for (int Rep = 0; Rep != 3; ++Rep) {
        vm::RunStatus St = vm::launchKernel(Dev, C.K, {Out});
        EXPECT_FALSE(St.Ok);
        EXPECT_EQ(Dev.getLastError(), sim::ErrorCode::KernelTrap);
        EXPECT_EQ(St.Error, Mode == 2 ? C.OneThread : C.FullWidth)
            << "mode " << Mode << ", launch " << Rep;
        Dev.reset();
      }
    }
  }
}

TEST(VmLaneGroups, ObservingModesSeeEveryThreadInOrder) {
  using vm::Op;
  const uint16_t I64 = static_cast<uint16_t>(ScalarKind::I64);
  // Bounds checking alone: every lane makes two out-of-range loads, and
  // the log must interleave them thread by thread.
  vm::VmKernel Loads =
      laneKernel({instr(Op::Coord, 0, 0, 0, 6),       // 0: lin
                  instr(Op::Const, 1, 0, 0, 0),       // 1: 1000
                  instr(Op::AddI, 2, 0, 1),           // 2
                  instr(Op::LoadGlobal, 3, 2, I64, 0), // 3
                  instr(Op::Const, 4, 0, 0, 1),       // 4: 2000
                  instr(Op::AddI, 5, 0, 4),           // 5
                  instr(Op::LoadGlobal, 6, 5, I64, 0)}, // 6
                 {1000, 2000}, /*Result=*/0, /*Tmp=*/7, 12);
  {
    sim::GpuDevice Dev;
    Dev.setWorkers(1); // blocks in order, so the log is one block at a time
    Dev.setBoundsChecking(true);
    vm::DevBuf Out =
        vm::allocDev(Dev, ScalarKind::I64, LaneBlocks * LaneThreads);
    vm::RunStatus St = vm::launchKernel(Dev, Loads, {Out});
    ASSERT_TRUE(St.Ok) << St.Error;
    const auto &Bounds = Dev.boundsViolations();
    ASSERT_EQ(Bounds.size(), 2u * LaneBlocks * LaneThreads);
    EXPECT_EQ(Bounds[0].Offset, 1000u);
    EXPECT_EQ(Bounds[1].Offset, 2000u);
    EXPECT_EQ(Bounds[2].Offset, 1001u);
  }
  // Race detection alone: lanes 2k and 2k+1 both store to out[2k], a
  // race the detector must attribute to two threads.
  vm::VmKernel Racy =
      laneKernel({instr(Op::Coord, 0, 0, 0, 6),       // 0: lin
                  instr(Op::Coord, 1, 0, 0, 0),       // 1: bx
                  instr(Op::Const, 2, 0, 0, 0),       // 2: 64
                  instr(Op::MulI, 3, 1, 2),           // 3
                  instr(Op::AddI, 4, 3, 0),           // 4: gid
                  instr(Op::Const, 5, 0, 0, 1),       // 5: 2
                  instr(Op::DivI, 6, 4, 5),           // 6
                  instr(Op::MulI, 7, 6, 5),           // 7: gid & ~1
                  instr(Op::StoreGlobal, 0, 7, I64, 0)}, // 8
                 {LaneThreads, 2}, /*Result=*/0, /*Tmp=*/8, 13);
  {
    sim::GpuDevice Dev;
    Dev.setRaceDetection(true);
    vm::DevBuf Out =
        vm::allocDev(Dev, ScalarKind::I64, LaneBlocks * LaneThreads);
    vm::RunStatus St = vm::launchKernel(Dev, Racy, {Out});
    ASSERT_TRUE(St.Ok) << St.Error;
    std::vector<sim::RaceReport> Races = Dev.findRaces();
    ASSERT_EQ(Races.size(), LaneBlocks * LaneThreads / 2);
    for (const sim::RaceReport &Rc : Races) {
      EXPECT_NE(Rc.ThreadA, Rc.ThreadB) << Rc.str();
      EXPECT_EQ(Rc.ThreadA / 2, Rc.ThreadB / 2) << Rc.str();
    }
  }
}

//===----------------------------------------------------------------------===//
// Uniform work: what vm::compile keeps out of the lane loops, and the work
// the executor reports for it
//===----------------------------------------------------------------------===//

namespace {

/// Every code object of \p P's kernels: phase bodies and loop bounds.
std::vector<const vm::Code *> allCode(const vm::CompiledProgram &P) {
  std::vector<const vm::Code *> Out;
  std::function<void(const std::vector<vm::VmNode> &)> Walk =
      [&](const std::vector<vm::VmNode> &Nodes) {
        for (const vm::VmNode &N : Nodes) {
          if (N.K == vm::VmNode::Straight) {
            Out.push_back(&N.Body);
            continue;
          }
          Out.push_back(&N.Lo);
          Out.push_back(&N.Hi);
          Walk(N.Children);
        }
      };
  for (const vm::VmKernel &K : P.Kernels)
    Walk(K.Nodes);
  return Out;
}

} // namespace

TEST(VmUniform, ListingKeepsFixedWorkOutOfLaneLoops) {
  // matmul nt=4's inner product runs 16 times per tile. Before uniform
  // marking, 16 of its 17 instructions ran once per lane; now the test,
  // the increment and `k * 16` run once per group, and the loop-invariant
  // coordinate terms before the loop head.
  auto P = compileVm(DESCEND_KERNEL_DIR "/matmul.descend", {{"nt", 4}});
  ASSERT_TRUE(P);
  unsigned Loops = 0;
  for (const vm::Code *C : allCode(*P))
    for (size_t PC = 0; PC != C->Instrs.size(); ++PC) {
      const vm::Instr &J = C->Instrs[PC];
      if (J.K != vm::Op::Jmp || static_cast<size_t>(J.Imm) > PC)
        continue;
      ++Loops;
      unsigned Varying = 0;
      for (size_t I = J.Imm; I <= PC; ++I) {
        Varying += C->Instrs[I].U == 0;
        if (C->Instrs[I].K == vm::Op::Jz) {
          EXPECT_EQ(C->Instrs[I].U, 1) << "the loop test is uniform";
        }
      }
      EXPECT_LE(Varying, 7u) << "varying instructions per iteration";
    }
  EXPECT_EQ(Loops, 1u);
  const std::string L = vm::disassemble(*P);
  EXPECT_NE(L.find(": u jz"), std::string::npos) << L;
  EXPECT_NE(L.find(": v ld.s"), std::string::npos) << L;

  // Each of reduce's split phases used to load _tx four times; now every
  // coordinate is loaded at most once per phase.
  for (long long NB : {8, 256}) {
    auto R = compileVm(DESCEND_KERNEL_DIR "/reduce.descend", {{"nb", NB}});
    ASSERT_TRUE(R);
    for (const vm::Code *C : allCode(*R)) {
      unsigned Coords[7] = {};
      for (const vm::Instr &I : C->Instrs)
        if (I.K == vm::Op::Coord) {
          EXPECT_EQ(++Coords[I.Imm], 1u) << "nb=" << NB << ", coord " << I.Imm;
        }
    }
  }
}

TEST(VmUniform, LaunchWorkIsExact) {
  // Instructions dispatched and lane-steps (lanes per dispatch: 1 for a
  // uniform instruction, the running lanes for a varying one) of each
  // Fig. 8 kernel at the repository benchmark's kernels sizes, and of
  // matmul nt=1 (the serve mix's). Before uniform marking every
  // instruction ran per lane: reduce 33280 / 4127488, scan_blocks 45568 /
  // 8521728, add_sums 4602 / 1178112, transpose 16256 / 4161536, matmul
  // nt=4 20976 / 5353536, nt=1 348 / 88068. Before range ops each split
  // ran `coord`, `lt.i` and `jz` on every lane: reduce 24832 / 2364672,
  // scan_blocks 32256 / 4726272.
  struct Case {
    const char *File, *Nat;
    long long Size;
    const char *Kernel;
    uint64_t Instrs, LaneSteps;
  } const Cases[] = {
      {"reduce.descend", "nb", 256, "reduce", 22272, 662784},
      {"scan.descend", "nb", 256, "scan_blocks", 32000, 3548928},
      {"scan.descend", "nb", 256, "add_sums", 3581, 394241},
      {"transpose.descend", "n", 256, "transpose", 8128, 758848},
      {"matmul.descend", "nt", 4, "matmul", 15248, 2242928},
      {"matmul.descend", "nt", 1, "matmul", 254, 36719},
  };
  for (const Case &C : Cases) {
    SCOPED_TRACE(std::string(C.Kernel) + " " + C.Nat + "=" +
                 std::to_string(C.Size));
    auto P = compileVm(std::string(DESCEND_KERNEL_DIR "/") + C.File,
                       {{C.Nat, C.Size}});
    ASSERT_TRUE(P);
    const vm::VmKernel *K = P->findKernel(C.Kernel);
    ASSERT_NE(K, nullptr);
    for (bool OneThread : {false, true}) {
      sim::GpuDevice Dev;
      Dev.setWorkers(OneThread ? 1 : 4);
      Dev.setBoundsChecking(OneThread);
      std::vector<vm::DevBuf> Bufs;
      for (const vm::VmKernel::Param &Prm : K->Params) {
        Bufs.push_back(vm::allocDev(Dev, ScalarKind::F64, Prm.Count));
        for (size_t I = 0; I != Prm.Count; ++I)
          devData(Bufs.back())[I] = fillVal(I);
      }
      vm::LaunchWork W;
      ASSERT_TRUE(vm::launchKernel(Dev, *K, Bufs, &W).Ok);
      if (!OneThread) {
        EXPECT_EQ(W.Instrs, C.Instrs);
        EXPECT_EQ(W.LaneSteps, C.LaneSteps);
      } else {
        // One thread per group: every dispatch is one thread's step.
        EXPECT_EQ(W.Instrs, W.LaneSteps);
      }
    }
  }
}

TEST(VmUniform, StrippedMarksWriteTheSameBytes) {
  // With every mark stripped each instruction runs per lane, a range op
  // included, and the bytes may not change: the marks only save work.
  struct Case {
    std::string File;
    const char *Nat;
    long long Size;
  } const Cases[] = {
      {DESCEND_KERNEL_DIR "/reduce.descend", "nb", 8},
      {DESCEND_KERNEL_DIR "/scan.descend", "nb", 8},
      {DESCEND_KERNEL_DIR "/matmul.descend", "nt", 4},
      {DESCEND_KERNEL_DIR "/transpose.descend", "n", 128},
      {DESCEND_FIXTURE_DIR "/split_2d.descend", "nb", 2},
  };
  for (const Case &C : Cases) {
    SCOPED_TRACE(C.File);
    auto P = compileVm(C.File, {{C.Nat, C.Size}});
    ASSERT_TRUE(P);
    vm::CompiledProgram Stripped = *P;
    for (vm::VmKernel &K : Stripped.Kernels)
      K = stripMarks(std::move(K));
    for (const ExecMode &M : {Modes[0], Modes[2]})
      EXPECT_TRUE(runKernels(Stripped, M) == runKernels(*P, M))
          << modeName(M);
  }
}

//===----------------------------------------------------------------------===//
// Host drivers: interpreted `main` vs generated driver, bit for bit
//===----------------------------------------------------------------------===//

TEST(VmHost, QuickstartDriverBitIdenticalToGenerated) {
  const size_t N = 8 * 256;
  auto P = compileVm(DESCEND_PROGRAM_DIR "/quickstart_host.descend",
                     {{"nb", 8}});
  ASSERT_TRUE(P);
  const vm::HostFnIR *Main = P->findHostFn("main");
  ASSERT_NE(Main, nullptr);

  // Generated path.
  sim::GpuDevice DG;
  rt::HostBuffer<double> Gen(N, 0.0);
  for (size_t I = 0; I != N; ++I)
    Gen[I] = fillVal(I);
  descend::gen::run(DG, Gen);

  // Interpreted path: same fill, same driver logic out of the bytecode.
  sim::GpuDevice DV;
  auto Arr = vm::makeHostArray(ScalarKind::F64, N, 0.0);
  double *AD = reinterpret_cast<double *>(Arr->Bytes.data());
  for (size_t I = 0; I != N; ++I)
    AD[I] = fillVal(I);
  vm::RunStatus St =
      vm::runHostFn(DV, *P, *Main, {vm::HostVal::array(Arr)});
  ASSERT_TRUE(St.Ok) << St.Error;

  EXPECT_EQ(0, std::memcmp(Gen.data(), Arr->Bytes.data(),
                           N * sizeof(double)));
  EXPECT_EQ(AD[100], fillVal(100) * 3.0);
}

TEST(VmHost, ReductionDriverBitIdenticalToGenerated) {
  const unsigned NB = 8;
  const size_t N = static_cast<size_t>(NB) * 256;
  auto P = compileVm(DESCEND_PROGRAM_DIR "/reduction_host.descend",
                     {{"nb", NB}});
  ASSERT_TRUE(P);
  const vm::HostFnIR *Main = P->findHostFn("main");
  ASSERT_NE(Main, nullptr);

  // Generated path (the _small instantiation is the same nb=8 footprint).
  sim::GpuDevice DG;
  rt::HostBuffer<double> Data(N, 0.0), Partials(NB, 0.0), Total(1, 0.0);
  for (size_t I = 0; I != N; ++I)
    Data[I] = fillVal(I);
  descend::gen::run_small(DG, Data, Partials, Total);

  // Interpreted path.
  sim::GpuDevice DV;
  auto AData = vm::makeHostArray(ScalarKind::F64, N, 0.0);
  auto APart = vm::makeHostArray(ScalarKind::F64, NB, 0.0);
  auto ATotal = vm::makeHostArray(ScalarKind::F64, 1, 0.0);
  double *AD = reinterpret_cast<double *>(AData->Bytes.data());
  for (size_t I = 0; I != N; ++I)
    AD[I] = fillVal(I);
  vm::RunStatus St = vm::runHostFn(DV, *P, *Main,
                                   {vm::HostVal::array(AData),
                                    vm::HostVal::array(APart),
                                    vm::HostVal::array(ATotal)});
  ASSERT_TRUE(St.Ok) << St.Error;

  EXPECT_EQ(0, std::memcmp(Partials.data(), APart->Bytes.data(),
                           NB * sizeof(double)));
  EXPECT_EQ(0,
            std::memcmp(Total.data(), ATotal->Bytes.data(), sizeof(double)));

  // Sanity: the sequential CPU finish really summed the partials.
  double Expected = 0.0;
  for (size_t I = 0; I != N; ++I)
    Expected += fillVal(I);
  double Got;
  std::memcpy(&Got, ATotal->Bytes.data(), sizeof(double));
  EXPECT_NEAR(Got, Expected, 1e-9);
}

TEST(VmHost, ExecuteMainDigestsHostArrays) {
  // Session::executeMain is the `descendc --run` entry point: default
  // fill 1.0, RESULT digest per host-array parameter.
  Session S;
  ExecuteResult E = S.executeMain(
      readFile(DESCEND_PROGRAM_DIR "/quickstart_host.descend"), {});
  // Without -D nb=... the launch geometry is uninstantiated: a
  // diagnostic, not a crash.
  EXPECT_FALSE(E.Ok);

  CompilerInvocation Inv;
  Inv.Defines["nb"] = 8;
  Session S2(Inv);
  ExecuteResult E2 = S2.executeMain(
      readFile(DESCEND_PROGRAM_DIR "/quickstart_host.descend"), {2.0});
  ASSERT_TRUE(E2.Ok) << E2.Error << "\n" << S2.renderDiagnostics();
  // 2048 elements of 2.0 scaled by 3.0.
  EXPECT_NE(E2.Output.find("RESULT host_vec n=2048"), std::string::npos)
      << E2.Output;
  EXPECT_NE(E2.Output.find("sum=12288"), std::string::npos) << E2.Output;
}

//===----------------------------------------------------------------------===//
// CompileService cache semantics
//===----------------------------------------------------------------------===//

TEST(CompileServiceCache, HitMissEviction) {
  std::string Src =
      readFile(DESCEND_KERNEL_DIR "/scale_vec.descend");
  service::CompileService Svc(/*Capacity=*/2);

  service::CompileRequest Req;
  Req.Source = Src;
  Req.Defines["nb"] = 8;
  service::CompileReply R1 = Svc.compile(Req);
  ASSERT_TRUE(R1.Ok) << R1.Diagnostics;
  EXPECT_FALSE(R1.CacheHit);
  ASSERT_TRUE(R1.Program);
  EXPECT_NE(R1.Program->findKernel("scale_vec"), nullptr);

  service::CompileReply R2 = Svc.compile(Req);
  ASSERT_TRUE(R2.Ok);
  EXPECT_TRUE(R2.CacheHit);

  // Two more distinct sources evict the oldest entry (capacity 2).
  service::CompileRequest ReqB = Req;
  ReqB.Source = "// variant B\n" + Src;
  service::CompileRequest ReqC = Req;
  ReqC.Source = "// variant C\n" + Src;
  ASSERT_TRUE(Svc.compile(ReqB).Ok);
  ASSERT_TRUE(Svc.compile(ReqC).Ok); // evicts the original

  service::CompileReply R3 = Svc.compile(Req);
  ASSERT_TRUE(R3.Ok);
  EXPECT_FALSE(R3.CacheHit) << "evicted entry must recompile";

  service::ServiceStats St = Svc.stats();
  EXPECT_EQ(St.Hits, 1u);
  EXPECT_EQ(St.Misses, 4u);
  EXPECT_GE(St.Evictions, 2u);
  EXPECT_EQ(St.Entries, 2u);
  EXPECT_EQ(St.Failures, 0u);
}

TEST(CompileServiceCache, SameSourceDifferentDefinesAreDistinctEntries) {
  std::string Src =
      readFile(DESCEND_KERNEL_DIR "/scale_vec.descend");
  service::CompileService Svc;

  service::CompileRequest R8;
  R8.Source = Src;
  R8.Defines["nb"] = 8;
  service::CompileRequest R16 = R8;
  R16.Defines["nb"] = 16;

  EXPECT_FALSE(Svc.compile(R8).CacheHit);
  EXPECT_FALSE(Svc.compile(R16).CacheHit) << "-D nb=16 must not hit nb=8";
  EXPECT_TRUE(Svc.compile(R8).CacheHit);
  EXPECT_TRUE(Svc.compile(R16).CacheHit);

  service::ServiceStats St = Svc.stats();
  EXPECT_EQ(St.Entries, 2u);
  EXPECT_EQ(St.Hits, 2u);
  EXPECT_EQ(St.Misses, 2u);

  // And the two artifacts really are different specializations: the
  // launch grids differ.
  service::CompileReply A = Svc.compile(R8), B = Svc.compile(R16);
  ASSERT_TRUE(A.Program && B.Program);
  EXPECT_NE(A.Program->findKernel("scale_vec")->Grid.X,
            B.Program->findKernel("scale_vec")->Grid.X);
}

TEST(CompileServiceCache, ClearDropsEntriesKeepsStats) {
  std::string Src =
      readFile(DESCEND_KERNEL_DIR "/scale_vec.descend");
  service::CompileService Svc;
  service::CompileRequest Req;
  Req.Source = Src;
  Req.Defines["nb"] = 8;
  ASSERT_TRUE(Svc.compile(Req).Ok);
  EXPECT_TRUE(Svc.compile(Req).CacheHit);
  Svc.clear();
  EXPECT_EQ(Svc.stats().Entries, 0u);
  EXPECT_FALSE(Svc.compile(Req).CacheHit);
  EXPECT_EQ(Svc.stats().Hits, 1u);
}

} // namespace
