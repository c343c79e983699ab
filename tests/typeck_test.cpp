//===- tests/typeck_test.cpp - Tests for Descend's type system ------------===//
//
// Each negative test reproduces one of the erroneous programs from the
// paper (Sections 2 and 3.3) and asserts the diagnostic the paper shows.
// The positive tests check that the paper's correct listings type-check.
//
//===----------------------------------------------------------------------===//

#include "typeck/TypeChecker.h"

#include "parser/Parser.h"
#include "support/SourceManager.h"

#include <gtest/gtest.h>

using namespace descend;

namespace {

struct CheckResult {
  std::shared_ptr<SourceManager> SM;
  std::unique_ptr<DiagnosticEngine> Diags;
  std::unique_ptr<Module> Mod;
  bool Ok = false;
};

CheckResult checkProgram(const std::string &Src) {
  CheckResult R;
  R.SM = std::make_shared<SourceManager>();
  uint32_t Id = R.SM->addBuffer("test.descend", Src);
  R.Diags = std::make_unique<DiagnosticEngine>(*R.SM);
  Parser P(*R.SM, Id, *R.Diags);
  R.Mod = P.parseModule();
  EXPECT_FALSE(R.Diags->hasErrors())
      << "parse errors:\n"
      << R.Diags->renderAll();
  TypeChecker TC(*R.SM, *R.Diags);
  R.Ok = TC.check(*R.Mod);
  return R;
}

//===----------------------------------------------------------------------===//
// Positive cases: the paper's correct programs
//===----------------------------------------------------------------------===//

const char *Prelude = R"(
view group_by_row<row_size: nat, num_rows: nat> =
  group::<row_size/num_rows>.transpose.map(transpose)
view group_by_tile<th: nat, tw: nat> =
  group::<th>.map(map(group::<tw>)).map(transpose)
)";

TEST(Typeck, Listing2TransposeChecks) {
  std::string Src = std::string(Prelude) + R"(
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
  auto R = checkProgram(Src);
  EXPECT_TRUE(R.Ok) << R.Diags->renderAll();
}

TEST(Typeck, Listing2WithoutSyncIsRejected) {
  // Removing the barrier makes the second tmp access (through a different
  // view chain) conflict with the first: exactly why sync cannot be
  // forgotten (Section 3.3).
  std::string Src = std::string(Prelude) + R"(
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
          tmp.transpose.group_by_row::<32,4>[[thread]][i] }
    } } }
)";
  auto R = checkProgram(Src);
  EXPECT_FALSE(R.Ok);
  EXPECT_TRUE(R.Diags->contains(DiagCode::ConflictingMemoryAccess))
      << R.Diags->renderAll();
}

TEST(Typeck, ScaleVecChecks) {
  auto R = checkProgram(R"(
fn scale_vec(vec: &uniq gpu.global [f64; 1024])
-[grid: gpu.grid<X<4>, X<256>>]-> () {
  sched(X) block in grid {
    sched(X) thread in block {
      vec.group::<256>[[block]][[thread]] =
        vec.group::<256>[[block]][[thread]] * 3.0
    }
  }
}
)");
  EXPECT_TRUE(R.Ok) << R.Diags->renderAll();
}

//===----------------------------------------------------------------------===//
// S1: the rev_per_block data race (Section 2.2)
//===----------------------------------------------------------------------===//

TEST(Typeck, S1RevPerBlockDataRace) {
  auto R = checkProgram(R"(
fn rev_per_block(arr: &uniq gpu.global [f64; 4096])
-[grid: gpu.grid<X<16>, X<256>>]-> () {
  sched(X) block in grid {
    sched(X) thread in block {
      arr.group::<256>[[block]][[thread]] =
        arr.group::<256>[[block]].rev[[thread]]
    }
  }
}
)");
  EXPECT_FALSE(R.Ok);
  ASSERT_TRUE(R.Diags->contains(DiagCode::ConflictingMemoryAccess))
      << R.Diags->renderAll();
  // The rendered message matches the paper's wording.
  std::string Msg = R.Diags->renderAll();
  EXPECT_NE(Msg.find("conflicting memory access"), std::string::npos);
  EXPECT_NE(Msg.find("conflicting prior selection"), std::string::npos);
}

TEST(Typeck, RevPerBlockWithSyncStillRacy) {
  // sync cannot fix rev_per_block: the read and write happen in the same
  // phase. Here read and write are separated by sync, which is fine.
  auto R = checkProgram(R"(
fn rev_ok(arr: &uniq gpu.global [f64; 4096],
          out: &uniq gpu.global [f64; 4096])
-[grid: gpu.grid<X<16>, X<256>>]-> () {
  sched(X) block in grid {
    sched(X) thread in block {
      out.group::<256>[[block]][[thread]] =
        arr.group::<256>[[block]].rev[[thread]]
    }
  }
}
)");
  EXPECT_TRUE(R.Ok) << R.Diags->renderAll();
}

//===----------------------------------------------------------------------===//
// S2: barrier under split (Section 2.2)
//===----------------------------------------------------------------------===//

TEST(Typeck, S2BarrierUnderSplitRejected) {
  auto R = checkProgram(R"(
fn kernel(arr: &uniq gpu.global [f64; 4096])
-[grid: gpu.grid<X<16>, X<256>>]-> () {
  sched(X) block in grid {
    split(X) block at 32 {
      first_32_threads => { sync },
      rest => { }
    }
  }
}
)");
  EXPECT_FALSE(R.Ok);
  ASSERT_TRUE(R.Diags->contains(DiagCode::BarrierNotAllowed))
      << R.Diags->renderAll();
  std::string Msg = R.Diags->renderAll();
  EXPECT_NE(Msg.find("barrier not allowed here"), std::string::npos);
  EXPECT_NE(Msg.find("not be performed by all threads"), std::string::npos);
}

TEST(Typeck, SyncAtGridLevelRejected) {
  auto R = checkProgram(R"(
fn kernel(arr: &uniq gpu.global [f64; 4096])
-[grid: gpu.grid<X<16>, X<256>>]-> () {
  sync
}
)");
  EXPECT_FALSE(R.Ok);
  EXPECT_TRUE(R.Diags->contains(DiagCode::BarrierNotAllowed));
}

TEST(Typeck, SyncInsideBlockAllowed) {
  auto R = checkProgram(R"(
fn kernel(arr: &uniq gpu.global [f64; 4096])
-[grid: gpu.grid<X<16>, X<256>>]-> () {
  sched(X) block in grid {
    sched(X) thread in block { sync }
  }
}
)");
  EXPECT_TRUE(R.Ok) << R.Diags->renderAll();
}

//===----------------------------------------------------------------------===//
// S3: swapped copy direction (Section 2.3)
//===----------------------------------------------------------------------===//

TEST(Typeck, S3SwappedMemcpyArguments) {
  auto R = checkProgram(R"(
fn host() -[t: cpu.thread]-> () {
  let h_vec = CpuHeap::new([0.0; 1024]);
  let d_vec = GpuGlobal::alloc_copy(&h_vec);
  copy_mem_to_host(&uniq d_vec, &h_vec)
}
)");
  EXPECT_FALSE(R.Ok);
  ASSERT_TRUE(R.Diags->contains(DiagCode::TransferDirectionMismatch))
      << R.Diags->renderAll();
  std::string Msg = R.Diags->renderAll();
  EXPECT_NE(Msg.find("arguments to `copy_mem_to_host` are swapped"),
            std::string::npos)
      << Msg;
  EXPECT_NE(Msg.find("destination must live in `cpu.mem`"),
            std::string::npos)
      << Msg;
}

TEST(Typeck, TransferSizeMismatchIsTargeted) {
  auto R = checkProgram(R"(
fn host() -[t: cpu.thread]-> () {
  let h_big = CpuHeap::new([1.0; 2048]);
  let d_vec = GpuGlobal::alloc_copy(&h_big);
  let h_small = CpuHeap::new([0.0; 1024]);
  copy_mem_to_host(&uniq h_small, &d_vec)
}
)");
  EXPECT_FALSE(R.Ok);
  ASSERT_TRUE(R.Diags->contains(DiagCode::TransferSizeMismatch))
      << R.Diags->renderAll();
  std::string Msg = R.Diags->renderAll();
  EXPECT_NE(Msg.find("cannot transfer `2048` elements"), std::string::npos)
      << Msg;
}

TEST(Typeck, CopyToGpuDirectionChecked) {
  auto R = checkProgram(R"(
fn host() -[t: cpu.thread]-> () {
  let h_vec = CpuHeap::new([0.0; 1024]);
  let d_vec = GpuGlobal::alloc_copy(&h_vec);
  copy_to_gpu(&uniq h_vec, &d_vec)
}
)");
  EXPECT_FALSE(R.Ok);
  EXPECT_TRUE(R.Diags->contains(DiagCode::TransferDirectionMismatch))
      << R.Diags->renderAll();
}

TEST(Typeck, CorrectMemcpyChecks) {
  auto R = checkProgram(R"(
fn host() -[t: cpu.thread]-> () {
  let h_vec = CpuHeap::new([0.0; 1024]);
  let d_vec = GpuGlobal::alloc_copy(&h_vec);
  copy_mem_to_host(&uniq h_vec, &d_vec)
}
)");
  EXPECT_TRUE(R.Ok) << R.Diags->renderAll();
}

//===----------------------------------------------------------------------===//
// S4: dereferencing CPU memory on the GPU (Section 2.3)
//===----------------------------------------------------------------------===//

TEST(Typeck, S4CpuPointerOnGpu) {
  auto R = checkProgram(R"(
fn init_kernel(vec: &uniq cpu.mem [f64; 1024])
-[grid: gpu.grid<X<1>, X<1024>>]-> () {
  sched(X) block in grid {
    sched(X) thread in block {
      (*vec)[[thread]] = 1.0
    }
  }
}
)");
  EXPECT_FALSE(R.Ok);
  ASSERT_TRUE(R.Diags->contains(DiagCode::CannotDereference))
      << R.Diags->renderAll();
  std::string Msg = R.Diags->renderAll();
  EXPECT_NE(Msg.find("cannot dereference"), std::string::npos);
  EXPECT_NE(Msg.find("cpu.mem"), std::string::npos);
}

TEST(Typeck, GpuPointerOnCpuRejected) {
  auto R = checkProgram(R"(
fn host(vec: &uniq gpu.global [f64; 16]) -[t: cpu.thread]-> () {
  (*vec)[0] = 1.0
}
)");
  EXPECT_FALSE(R.Ok);
  EXPECT_TRUE(R.Diags->contains(DiagCode::CannotDereference));
}

//===----------------------------------------------------------------------===//
// S5: wrong launch configuration (Sections 2.3 / 3.5)
//===----------------------------------------------------------------------===//

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

TEST(Typeck, S5LaunchWithWrongThreadCount) {
  // SIZE (bytes) vs ELEMS: launching with 8192 threads for 1024 elements.
  std::string Src = std::string(ScaleVecPoly) + R"(
fn host() -[t: cpu.thread]-> () {
  let h = CpuHeap::new([0.0; 1024]);
  let d_vec = GpuGlobal::alloc_copy(&h);
  scale_vec::<<<X<1>, X<8192>>>>(&uniq d_vec)
}
)";
  auto R = checkProgram(Src);
  EXPECT_FALSE(R.Ok);
  EXPECT_TRUE(R.Diags->contains(DiagCode::LaunchConfigMismatch) ||
              R.Diags->contains(DiagCode::MismatchedTypes))
      << R.Diags->renderAll();
}

TEST(Typeck, S5CorrectLaunchChecks) {
  std::string Src = std::string(ScaleVecPoly) + R"(
fn host() -[t: cpu.thread]-> () {
  let h = CpuHeap::new([0.0; 1024]);
  let d_vec = GpuGlobal::alloc_copy(&h);
  scale_vec::<<<X<1>, X<1024>>>>(&uniq d_vec)
}
)";
  auto R = checkProgram(Src);
  EXPECT_TRUE(R.Ok) << R.Diags->renderAll();
}

TEST(Typeck, LaunchWithWrongDimensionality) {
  std::string Src = std::string(ScaleVecPoly) + R"(
fn host() -[t: cpu.thread]-> () {
  let h = CpuHeap::new([0.0; 1024]);
  let d_vec = GpuGlobal::alloc_copy(&h);
  scale_vec::<<<XY<1,1>, X<1024>>>>(&uniq d_vec)
}
)";
  auto R = checkProgram(Src);
  EXPECT_FALSE(R.Ok);
  EXPECT_TRUE(R.Diags->contains(DiagCode::LaunchConfigMismatch));
}

TEST(Typeck, LaunchFromGpuRejected) {
  std::string Src = std::string(ScaleVecPoly) + R"(
fn kernel(vec: &uniq gpu.global [f64; 1024])
-[grid: gpu.grid<X<1>, X<1024>>]-> () {
  scale_vec::<<<X<1>, X<1024>>>>(vec)
}
)";
  auto R = checkProgram(Src);
  EXPECT_FALSE(R.Ok);
  EXPECT_TRUE(R.Diags->contains(DiagCode::WrongExecutionContext));
}

//===----------------------------------------------------------------------===//
// S6/S7: narrowing violations (Section 3.3)
//===----------------------------------------------------------------------===//

TEST(Typeck, S6BorrowWholeArrayAfterSched) {
  auto R = checkProgram(R"(
fn kernel(arr: &uniq gpu.global [f32; 1024])
-[grid: gpu.grid<X<32>, X<32>>]-> () {
  sched(X) block in grid {
    let in_borrow = &uniq *arr
  }
}
)");
  EXPECT_FALSE(R.Ok);
  ASSERT_TRUE(R.Diags->contains(DiagCode::NarrowingViolated))
      << R.Diags->renderAll();
}

TEST(Typeck, S7SelectWithoutBlockNarrowing) {
  auto R = checkProgram(R"(
fn kernel(arr: &uniq gpu.global [f32; 1024])
-[grid: gpu.grid<X<32>, X<32>>]-> () {
  sched(X) block in grid {
    sched(X) thread in block {
      let grp = &uniq arr.group::<32>[[thread]]
    }
  }
}
)");
  EXPECT_FALSE(R.Ok);
  ASSERT_TRUE(R.Diags->contains(DiagCode::NarrowingViolated))
      << R.Diags->renderAll();
}

TEST(Typeck, S7CorrectNarrowingAccepted) {
  // Line 8 of the Section 3.3 example: group per block, then per thread.
  auto R = checkProgram(R"(
fn kernel(arr: &uniq gpu.global [f32; 1024])
-[grid: gpu.grid<X<32>, X<32>>]-> () {
  sched(X) block in grid {
    sched(X) thread in block {
      arr.group::<32>[[block]][[thread]] = 1.0f32
    }
  }
}
)");
  EXPECT_TRUE(R.Ok) << R.Diags->renderAll();
}

TEST(Typeck, SharedReadNeedsNoNarrowing) {
  // All threads may read the same location concurrently.
  auto R = checkProgram(R"(
fn kernel(arr: & gpu.global [f32; 1024],
          out: &uniq gpu.global [f32; 1024])
-[grid: gpu.grid<X<32>, X<32>>]-> () {
  sched(X) block in grid {
    sched(X) thread in block {
      out.group::<32>[[block]][[thread]] = arr[0]
    }
  }
}
)");
  EXPECT_TRUE(R.Ok) << R.Diags->renderAll();
}

//===----------------------------------------------------------------------===//
// Further borrow / move / write checks
//===----------------------------------------------------------------------===//

TEST(Typeck, WriteThroughSharedRefRejected) {
  auto R = checkProgram(R"(
fn kernel(input: & gpu.global [f64; 1024])
-[grid: gpu.grid<X<32>, X<32>>]-> () {
  sched(X) block in grid {
    sched(X) thread in block {
      input.group::<32>[[block]][[thread]] = 1.0
    }
  }
}
)");
  EXPECT_FALSE(R.Ok);
  EXPECT_TRUE(R.Diags->contains(DiagCode::SharedWriteRejected))
      << R.Diags->renderAll();
}

TEST(Typeck, UseAfterMoveRejected) {
  auto R = checkProgram(R"(
fn host() -[t: cpu.thread]-> () {
  let a = CpuHeap::new([0; 16]);
  let b = a;
  let c = a
}
)");
  EXPECT_FALSE(R.Ok);
  EXPECT_TRUE(R.Diags->contains(DiagCode::UseOfMovedValue))
      << R.Diags->renderAll();
}

TEST(Typeck, CopyableTypesDoNotMove) {
  auto R = checkProgram(R"(
fn host() -[t: cpu.thread]-> () {
  let a = 3;
  let b = a;
  let c = a
}
)");
  EXPECT_TRUE(R.Ok) << R.Diags->renderAll();
}

TEST(Typeck, ConflictingUniqueBorrows) {
  auto R = checkProgram(R"(
fn host() -[t: cpu.thread]-> () {
  let a = CpuHeap::new([0; 16]);
  let r1 = &uniq a;
  let r2 = &uniq a
}
)");
  EXPECT_FALSE(R.Ok);
  EXPECT_TRUE(R.Diags->contains(DiagCode::ConflictingBorrow))
      << R.Diags->renderAll();
}

TEST(Typeck, SharedBorrowsCoexist) {
  auto R = checkProgram(R"(
fn host() -[t: cpu.thread]-> () {
  let a = CpuHeap::new([0; 16]);
  let r1 = &a;
  let r2 = &a
}
)");
  EXPECT_TRUE(R.Ok) << R.Diags->renderAll();
}

TEST(Typeck, BorrowsExpireWithScope) {
  auto R = checkProgram(R"(
fn host() -[t: cpu.thread]-> () {
  let a = CpuHeap::new([0; 16]);
  { let r1 = &uniq a };
  let r2 = &uniq a
}
)");
  EXPECT_TRUE(R.Ok) << R.Diags->renderAll();
}

TEST(Typeck, IndexOutOfBoundsRejected) {
  auto R = checkProgram(R"(
fn host(arr: &uniq cpu.mem [f64; 8]) -[t: cpu.thread]-> () {
  (*arr)[8] = 1.0
}
)");
  EXPECT_FALSE(R.Ok);
  EXPECT_TRUE(R.Diags->contains(DiagCode::NatCannotProve))
      << R.Diags->renderAll();
}

TEST(Typeck, LoopIndexBoundsChecked) {
  auto Ok = checkProgram(R"(
fn host(arr: &uniq cpu.mem [f64; 8]) -[t: cpu.thread]-> () {
  for i in [0..8] { (*arr)[i] = 1.0 }
}
)");
  EXPECT_TRUE(Ok.Ok) << Ok.Diags->renderAll();

  auto Bad = checkProgram(R"(
fn host(arr: &uniq cpu.mem [f64; 8]) -[t: cpu.thread]-> () {
  for i in [0..9] { (*arr)[i] = 1.0 }
}
)");
  EXPECT_FALSE(Bad.Ok);
}

TEST(Typeck, SchedOverMissingDimension) {
  auto R = checkProgram(R"(
fn kernel(arr: &uniq gpu.global [f64; 1024])
-[grid: gpu.grid<X<32>, X<32>>]-> () {
  sched(Y) block in grid { }
}
)");
  EXPECT_FALSE(R.Ok);
  EXPECT_TRUE(R.Diags->contains(DiagCode::SchedOverMissingDim))
      << R.Diags->renderAll();
}

TEST(Typeck, SelectShapeMismatchRejected) {
  // 32 threads selecting from 16 elements.
  auto R = checkProgram(R"(
fn kernel(arr: &uniq gpu.global [f64; 512])
-[grid: gpu.grid<X<32>, X<32>>]-> () {
  sched(X) block in grid {
    sched(X) thread in block {
      arr.group::<16>[[block]][[thread]] = 1.0
    }
  }
}
)");
  EXPECT_FALSE(R.Ok);
  EXPECT_TRUE(R.Diags->contains(DiagCode::SelectShapeMismatch))
      << R.Diags->renderAll();
}

TEST(Typeck, SplitArmsAccessDisjointParts) {
  auto R = checkProgram(R"(
fn kernel(arr: &uniq gpu.global [f64; 64])
-[grid: gpu.grid<X<1>, X<64>>]-> () {
  sched(X) block in grid {
    split(X) block at 32 {
      lo => {
        sched(X) t in lo {
          arr.split::<32>.fst[[t]] = 0.0
        }
      },
      hi => {
        sched(X) t in hi {
          arr.split::<32>.snd[[t]] = 1.0
        }
      }
    }
  }
}
)");
  EXPECT_TRUE(R.Ok) << R.Diags->renderAll();
}

TEST(Typeck, SplitArmsConflictOnSamePart) {
  auto R = checkProgram(R"(
fn kernel(arr: &uniq gpu.global [f64; 64])
-[grid: gpu.grid<X<1>, X<64>>]-> () {
  sched(X) block in grid {
    split(X) block at 32 {
      lo => {
        sched(X) t in lo {
          arr.split::<32>.fst[[t]] = 0.0
        }
      },
      hi => {
        sched(X) t in hi {
          arr.split::<32>.fst[[t]] = 1.0
        }
      }
    }
  }
}
)");
  EXPECT_FALSE(R.Ok);
  EXPECT_TRUE(R.Diags->contains(DiagCode::ConflictingMemoryAccess))
      << R.Diags->renderAll();
}

TEST(Typeck, UnknownViewRejected) {
  auto R = checkProgram(R"(
fn kernel(arr: &uniq gpu.global [f64; 64])
-[grid: gpu.grid<X<1>, X<64>>]-> () {
  sched(X) block in grid {
    sched(X) thread in block {
      arr.zigzag[[thread]] = 0.0
    }
  }
}
)");
  EXPECT_FALSE(R.Ok);
  EXPECT_TRUE(R.Diags->contains(DiagCode::UnknownView));
}

TEST(Typeck, GroupDivisibilityEnforced) {
  auto R = checkProgram(R"(
fn kernel(arr: &uniq gpu.global [f64; 100])
-[grid: gpu.grid<X<1>, X<32>>]-> () {
  sched(X) block in grid {
    sched(X) thread in block {
      arr.group::<32>[[thread]][0] = 0.0
    }
  }
}
)");
  EXPECT_FALSE(R.Ok);
  EXPECT_TRUE(R.Diags->contains(DiagCode::ViewSideConditionFailed))
      << R.Diags->renderAll();
}

TEST(Typeck, UnknownVariableAndFunction) {
  auto R = checkProgram(R"(
fn host() -[t: cpu.thread]-> () {
  frobnicate(x)
}
)");
  EXPECT_FALSE(R.Ok);
  EXPECT_TRUE(R.Diags->contains(DiagCode::UnknownVariable));
}

TEST(Typeck, RedefinitionRejected) {
  auto R = checkProgram(R"(
fn f() -[t: cpu.thread]-> () { }
fn f() -[t: cpu.thread]-> () { }
)");
  EXPECT_FALSE(R.Ok);
  EXPECT_TRUE(R.Diags->contains(DiagCode::Redefinition));
}

TEST(Typeck, GridFnCallableOnlyAsLaunch) {
  std::string Src = std::string(ScaleVecPoly) + R"(
fn host(v: &uniq gpu.global [f64; 64]) -[t: cpu.thread]-> () {
  scale_vec::<64>(v)
}
)";
  auto R = checkProgram(Src);
  EXPECT_FALSE(R.Ok);
  EXPECT_TRUE(R.Diags->contains(DiagCode::WrongExecutionContext))
      << R.Diags->renderAll();
}

TEST(Typeck, TypeAnnotationMismatch) {
  auto R = checkProgram(R"(
fn host() -[t: cpu.thread]-> () {
  let x: f64 = 1
}
)");
  EXPECT_FALSE(R.Ok);
  EXPECT_TRUE(R.Diags->contains(DiagCode::MismatchedTypes));
}

TEST(Typeck, BinaryOperatorTypeMismatch) {
  auto R = checkProgram(R"(
fn host() -[t: cpu.thread]-> () {
  let x = 1 + 2.0
}
)");
  EXPECT_FALSE(R.Ok);
  EXPECT_TRUE(R.Diags->contains(DiagCode::MismatchedTypes));
}

// `%` is integer-only: C++ rejects it on floats and the vm has no float
// modulo, so the type checker refuses it once for host and kernel code.
TEST(Typeck, FloatModuloRejectedInHostCode) {
  auto R = checkProgram(R"(
fn main(a: &uniq cpu.mem [f64; 4]) -[t: cpu.thread]-> () {
  (*a)[0] = (*a)[1] % 2.0
}
)");
  EXPECT_FALSE(R.Ok);
  EXPECT_TRUE(R.Diags->contains(DiagCode::MismatchedTypes))
      << R.Diags->renderAll();
}

TEST(Typeck, FloatModuloRejectedInKernelCode) {
  auto R = checkProgram(R"(
fn k(v: &uniq gpu.global [f64; 64]) -[grid: gpu.grid<X<1>, X<64>>]-> () {
  sched(X) block in grid {
    sched(X) thread in block {
      v.group::<64>[[block]][[thread]] = v.group::<64>[[block]][[thread]] % 2.0
    }
  }
}
)");
  EXPECT_FALSE(R.Ok);
  EXPECT_TRUE(R.Diags->contains(DiagCode::MismatchedTypes))
      << R.Diags->renderAll();
}

TEST(Typeck, IntegerModuloAccepted) {
  auto R = checkProgram(R"(
fn host() -[t: cpu.thread]-> () {
  let x = 7 % 2
}
)");
  EXPECT_TRUE(R.Ok) << R.Diags->renderAll();
}

TEST(Typeck, SharedAllocOnCpuRejected) {
  auto R = checkProgram(R"(
fn host() -[t: cpu.thread]-> () {
  let tmp = alloc::<gpu.shared, [f64; 32]>()
}
)");
  EXPECT_FALSE(R.Ok);
  EXPECT_TRUE(R.Diags->contains(DiagCode::WrongExecutionContext));
}

} // namespace
