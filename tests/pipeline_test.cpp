//===- tests/pipeline_test.cpp - Session/Backend API tests ----------------===//
//
// Covers the staged pipeline (CompilerInvocation/Session/CompileResult)
// and the pluggable backend registry: stage short-circuiting, per-stage
// timings, backend lookup (including the unknown-name diagnostic) and the
// ast backend.
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace descend;

namespace {

const char *ScaleVec = R"(
fn scale_vec<nb: nat>(vec: &uniq gpu.global [f64; nb*256])
-[grid: gpu.grid<X<nb>, X<256>>]-> () {
  sched(X) block in grid {
    sched(X) thread in block {
      vec.group::<256>[[block]][[thread]] =
        vec.group::<256>[[block]][[thread]] * 2.0
    }
  }
}
)";

CompilerInvocation scaleVecInvocation(const std::string &Backend) {
  CompilerInvocation Inv;
  Inv.BufferName = "k.descend";
  Inv.Defines["nb"] = 4;
  Inv.BackendName = Backend;
  return Inv;
}

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

TEST(BackendRegistry, BuiltinsRegisteredSorted) {
  std::vector<std::string> Names =
      codegen::BackendRegistry::instance().names();
  EXPECT_EQ(Names, (std::vector<std::string>{"cuda", "sim", "vm"}));
  for (const std::string &N : Names) {
    const codegen::Backend *B =
        codegen::BackendRegistry::instance().lookup(N);
    ASSERT_NE(B, nullptr);
    EXPECT_EQ(N, B->name());
    EXPECT_NE(std::string(B->description()), "");
  }
}

TEST(BackendRegistry, UnknownLookupReturnsNull) {
  EXPECT_EQ(codegen::BackendRegistry::instance().lookup("ptx"), nullptr);
  EXPECT_EQ(codegen::BackendRegistry::instance().lookup(""), nullptr);
}

TEST(BackendRegistry, UnknownBackendYieldsDiagnosticNotCrash) {
  Session S(scaleVecInvocation("ptx"));
  CompileResult R = S.run(ScaleVec);
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Reached, Stage::Typecheck) << "codegen must not be reached";
  EXPECT_TRUE(S.diagnostics().contains(DiagCode::UnknownBackend))
      << S.renderDiagnostics();
  // The message names the registered alternatives.
  EXPECT_NE(S.renderDiagnostics().find("cuda sim vm"), std::string::npos)
      << S.renderDiagnostics();
}

TEST(BackendRegistry, PrivateRegistryPluggable) {
  struct NullBackend final : codegen::Backend {
    const char *name() const override { return "null"; }
    const char *description() const override { return "emits nothing"; }
    codegen::GenResult emit(const Module &,
                            const codegen::BackendOptions &) const override {
      codegen::GenResult R;
      R.Ok = true;
      R.Code = "// null backend\n";
      return R;
    }
  };
  codegen::BackendRegistry Registry;
  Registry.registerBackend(std::make_unique<NullBackend>());
  EXPECT_EQ(Registry.names(), std::vector<std::string>{"null"});

  CompilerInvocation Inv = scaleVecInvocation("null");
  Session S(Inv);
  ASSERT_TRUE(S.parse(ScaleVec));
  ASSERT_TRUE(S.instantiate());
  ASSERT_TRUE(S.typecheck());
  codegen::GenResult R = S.emit(Registry);
  EXPECT_TRUE(R.Ok);
  EXPECT_EQ(R.Code, "// null backend\n");
  EXPECT_EQ(S.reached(), Stage::Codegen);
}

//===----------------------------------------------------------------------===//
// Stages
//===----------------------------------------------------------------------===//

TEST(Pipeline, ParseErrorShortCircuits) {
  Session S(scaleVecInvocation("cuda"));
  CompileResult R = S.run("fn (");
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Reached, Stage::None);
  EXPECT_GT(R.Errors, 0u);
  // Only the parse stage ran (and was timed): no typecheck after a parse
  // error.
  ASSERT_EQ(R.Timings.size(), 1u);
  EXPECT_EQ(R.Timings[0].S, Stage::Parse);
}

TEST(Pipeline, TypeErrorStopsBeforeCodegen) {
  CompilerInvocation Inv;
  Inv.BufferName = "bad.descend";
  Inv.BackendName = "cuda";
  Session S(Inv);
  CompileResult R = S.run(R"(
fn k(arr: &uniq gpu.global [f64; 4096])
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
  EXPECT_EQ(R.Reached, Stage::Instantiate);
  EXPECT_TRUE(S.diagnostics().contains(DiagCode::ConflictingMemoryAccess));
  EXPECT_TRUE(R.Artifact.empty());
  ASSERT_EQ(R.Timings.size(), 3u);
  EXPECT_EQ(R.Timings.back().S, Stage::Typecheck);
}

TEST(Pipeline, StageCutoffRespected) {
  CompilerInvocation Inv = scaleVecInvocation("cuda");
  Inv.RunUntil = Stage::Parse;
  Session S(Inv);
  CompileResult R = S.run(ScaleVec);
  EXPECT_TRUE(R.Ok);
  EXPECT_EQ(R.Reached, Stage::Parse);
  ASSERT_EQ(R.Timings.size(), 1u);

  // The generic parameter survives when the run stops before
  // instantiation.
  const FnDef *Fn = S.module()->findFn("scale_vec");
  ASSERT_NE(Fn, nullptr);
  EXPECT_FALSE(Fn->Generics.empty());
}

TEST(Pipeline, TimingsCoverAllFourStages) {
  Session S(scaleVecInvocation("cuda"));
  CompileResult R = S.run(ScaleVec);
  ASSERT_TRUE(R.Ok) << S.renderDiagnostics();
  ASSERT_EQ(R.Timings.size(), 4u);
  EXPECT_EQ(R.Timings[0].S, Stage::Parse);
  EXPECT_EQ(R.Timings[1].S, Stage::Instantiate);
  EXPECT_EQ(R.Timings[2].S, Stage::Typecheck);
  EXPECT_EQ(R.Timings[3].S, Stage::Codegen);
  for (const StageTiming &T : R.Timings)
    EXPECT_GE(T.Millis, 0.0);
  EXPECT_STREQ(stageName(R.Timings[2].S), "typecheck");
  EXPECT_FALSE(R.Artifact.empty());
  EXPECT_EQ(R.Errors, 0u);
}

TEST(Pipeline, RerunDoesNotReportStaleState) {
  // Long-lived sessions recompile in place; a second run must not
  // inherit the first run's stage/timings.
  Session S(scaleVecInvocation("cuda"));
  CompileResult First = S.run(ScaleVec);
  ASSERT_TRUE(First.Ok);
  ASSERT_EQ(First.Reached, Stage::Codegen);

  CompileResult Second = S.run("fn (");
  EXPECT_FALSE(Second.Ok);
  EXPECT_EQ(Second.Reached, Stage::None);
  ASSERT_EQ(Second.Timings.size(), 1u);
  EXPECT_EQ(Second.Timings[0].S, Stage::Parse);
}

TEST(Pipeline, StagesRunIndividually) {
  Session S(scaleVecInvocation("sim"));
  ASSERT_TRUE(S.parse(ScaleVec));
  EXPECT_EQ(S.reached(), Stage::Parse);
  ASSERT_TRUE(S.instantiate());
  // Instantiation replaced nb: the grid dimension is now a literal.
  const FnDef *Fn = S.module()->findFn("scale_vec");
  ASSERT_NE(Fn, nullptr);
  EXPECT_TRUE(Fn->Generics.empty());
  EXPECT_TRUE(Nat::proveEq(Fn->Exec.GridDim.X, Nat::lit(4)));
  ASSERT_TRUE(S.typecheck());
  codegen::GenResult R = S.emit();
  EXPECT_TRUE(R.Ok) << R.Error;
  EXPECT_NE(R.Code.find("inline void scale_vec("), std::string::npos);
  EXPECT_EQ(S.reached(), Stage::Codegen);
}

//===----------------------------------------------------------------------===//
// Backends through the Session
//===----------------------------------------------------------------------===//

TEST(Pipeline, FnSuffixReachesBackend) {
  CompilerInvocation Inv = scaleVecInvocation("sim");
  Inv.FnSuffix = "_tiny";
  Session S(Inv);
  CompileResult R = S.run(ScaleVec);
  ASSERT_TRUE(R.Ok) << S.renderDiagnostics();
  EXPECT_NE(R.Artifact.find("inline void scale_vec_tiny("),
            std::string::npos);
}

TEST(Pipeline, BackendFailureIsDiagnosed) {
  // Generic block dimensions cannot be lowered; the sim backend error is
  // reported through the session diagnostics.
  CompilerInvocation Inv;
  Inv.BufferName = "generic.descend";
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
  EXPECT_TRUE(S.diagnostics().contains(DiagCode::BackendFailed))
      << S.renderDiagnostics();
}

} // namespace
