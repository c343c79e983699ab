//===- driver/Pipeline.cpp - Staged compilation pipeline ---------------------===//

#include "driver/Pipeline.h"

#include "obs/Trace.h"
#include "parser/Parser.h"
#include "support/StringUtils.h"
#include "typeck/TypeChecker.h"
#include "vm/Interp.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>

using namespace descend;

const char *descend::stageName(Stage S) {
  switch (S) {
  case Stage::None:
    return "none";
  case Stage::Parse:
    return "parse";
  case Stage::Instantiate:
    return "instantiate";
  case Stage::Typecheck:
    return "typecheck";
  case Stage::Codegen:
    return "codegen";
  }
  return "none";
}

//===----------------------------------------------------------------------===//
// Nat instantiation (stage 2)
//===----------------------------------------------------------------------===//

namespace {

void substituteInExpr(Expr &E, const std::map<std::string, Nat> &Subst) {
  switch (E.kind()) {
  case ExprKind::PlaceView: {
    auto *V = cast<PlaceView>(&E);
    for (Nat &N : V->NatArgs)
      N = N.substitute(Subst);
    break;
  }
  case ExprKind::ForNat: {
    auto *F = cast<ForNatExpr>(&E);
    F->Lo = F->Lo.substitute(Subst);
    F->Hi = F->Hi.substitute(Subst);
    break;
  }
  case ExprKind::Split: {
    auto *S = cast<SplitExpr>(&E);
    S->Position = S->Position.substitute(Subst);
    break;
  }
  case ExprKind::Alloc: {
    auto *A = cast<AllocExpr>(&E);
    TypeSubst TS;
    TS.Nats = Subst;
    A->AllocTy = substituteType(A->AllocTy, TS);
    break;
  }
  case ExprKind::ArrayInit: {
    auto *A = cast<ArrayInitExpr>(&E);
    A->Count = A->Count.substitute(Subst);
    break;
  }
  case ExprKind::Let: {
    auto *L = cast<LetExpr>(&E);
    if (L->Annotation) {
      TypeSubst TS;
      TS.Nats = Subst;
      L->Annotation = substituteType(L->Annotation, TS);
    }
    break;
  }
  case ExprKind::Call: {
    auto *C = cast<CallExpr>(&E);
    TypeSubst TS;
    TS.Nats = Subst;
    for (GenericArg &G : C->Generics) {
      if (G.Kind == ParamKind::Nat && G.N)
        G.N = G.N.substitute(Subst);
      if (G.Kind == ParamKind::DataType && G.T)
        G.T = substituteType(G.T, TS);
    }
    C->LaunchGrid = C->LaunchGrid.substitute(Subst);
    C->LaunchBlock = C->LaunchBlock.substitute(Subst);
    break;
  }
  default:
    break;
  }
  forEachChild(E, [&](Expr &C) { substituteInExpr(C, Subst); });
}

} // namespace

void descend::instantiateNats(Module &M,
                              const std::map<std::string, long long> &Defs) {
  if (Defs.empty())
    return;
  std::map<std::string, Nat> Subst;
  for (const auto &[Name, Value] : Defs)
    Subst[Name] = Nat::lit(Value);
  TypeSubst TS;
  TS.Nats = Subst;

  for (auto &Fn : M.Fns) {
    for (FnParam &P : Fn->Params)
      P.Ty = substituteType(P.Ty, TS);
    Fn->Exec.GridDim = Fn->Exec.GridDim.substitute(Subst);
    Fn->Exec.BlockDim = Fn->Exec.BlockDim.substitute(Subst);
    if (Fn->RetTy)
      Fn->RetTy = substituteType(Fn->RetTy, TS);
    if (Fn->Body)
      substituteInExpr(*Fn->Body, Subst);
    std::erase_if(Fn->Generics, [&](const GenericParam &G) {
      return G.Kind == ParamKind::Nat && Defs.count(G.Name);
    });
  }
}

//===----------------------------------------------------------------------===//
// Session
//===----------------------------------------------------------------------===//

Session::Session(CompilerInvocation Inv) : Inv(std::move(Inv)), Diags(SM) {}

template <typename Fn> bool Session::timed(Stage S, Fn &&Body) {
  auto T0 = std::chrono::steady_clock::now();
  bool Ok = Body();
  auto T1 = std::chrono::steady_clock::now();
  Timings.push_back(
      {S, std::chrono::duration<double, std::milli>(T1 - T0).count(),
       /*Failed=*/!Ok});
  // StageTiming doubles as the trace span for the stage, so --time-passes
  // and the trace JSON always agree.
  if (obs::TraceCollector::global().enabled()) [[unlikely]]
    obs::TraceCollector::global().addComplete(
        "pipeline", stageName(S), T0, T1,
        Ok ? std::string() : std::string("{\"failed\":true}"));
  if (Ok)
    Reached = S;
  return Ok;
}

bool Session::parse(const std::string &Source) {
  return timed(Stage::Parse, [&] {
    uint32_t Id = SM.addBuffer(Inv.BufferName, Source);
    Parser P(SM, Id, Diags);
    Mod = P.parseModule();
    return !Diags.hasErrors();
  });
}

bool Session::instantiate() {
  return timed(Stage::Instantiate, [&] {
    // A nat is a natural number: one rule for every front end that
    // passes -D bindings (descendc, descendd, the service, the
    // autotuner).
    bool Ok = true;
    for (const auto &[Name, Value] : Inv.Defines)
      if (Value < 0) {
        Diags.error(DiagCode::NegativeDefine, SourceRange(),
                    strfmt("-D %s=%lld: a nat cannot be negative",
                           Name.c_str(), Value));
        Ok = false;
      }
    if (Ok)
      instantiateNats(*Mod, Inv.Defines);
    return Ok;
  });
}

bool Session::typecheck() {
  return timed(Stage::Typecheck, [&] {
    TypeChecker TC(SM, Diags);
    return TC.check(*Mod);
  });
}

codegen::GenResult Session::emit() {
  return emit(codegen::BackendRegistry::instance());
}

codegen::GenResult Session::emit(const codegen::BackendRegistry &Registry) {
  codegen::GenResult R;
  timed(Stage::Codegen, [&] {
    const codegen::Backend *B = Registry.lookup(Inv.BackendName);
    if (!B) {
      std::string Known;
      for (const std::string &N : Registry.names())
        Known += Known.empty() ? N : " " + N;
      Diags.error(DiagCode::UnknownBackend, SourceRange(),
                  strfmt("unknown code-generation backend `%s`; registered "
                         "backends: %s",
                         Inv.BackendName.c_str(), Known.c_str()));
      R.Error = "unknown backend `" + Inv.BackendName + "`";
      return false;
    }
    codegen::BackendOptions Opts;
    Opts.FnSuffix = Inv.FnSuffix;
    Opts.Passes = Inv.Passes;
    R = B->emit(*Mod, Opts);
    if (!R.Ok)
      Diags.error(DiagCode::BackendFailed, SourceRange(),
                  strfmt("backend `%s` failed: %s", Inv.BackendName.c_str(),
                         R.Error.c_str()));
    return R.Ok;
  });
  return R;
}

CompileResult Session::run(const std::string &Source) {
  // A fresh run re-measures from the start: repeated runs on one
  // long-lived session must not report the previous run's stage or
  // timings. Diagnostics accumulate for the session lifetime.
  Reached = Stage::None;
  Timings.clear();

  CompileResult Result;
  auto Finish = [&](bool Ok) {
    Result.Ok = Ok;
    Result.Reached = Reached;
    Result.Errors = Diags.errorCount();
    Result.Timings = Timings;
    return Result;
  };

  if (!parse(Source))
    return Finish(false);
  if (Inv.RunUntil == Stage::Parse)
    return Finish(true);

  if (!instantiate())
    return Finish(false);
  if (Inv.RunUntil == Stage::Instantiate)
    return Finish(true);

  if (!typecheck())
    return Finish(false);
  if (Inv.RunUntil == Stage::Typecheck)
    return Finish(true);

  codegen::GenResult Gen = emit();
  if (!Gen.Ok)
    return Finish(false);
  Result.Artifact = std::move(Gen.Code);
  return Finish(true);
}

//===----------------------------------------------------------------------===//
// Direct execution (the vm backend end-to-end)
//===----------------------------------------------------------------------===//

ExecuteResult Session::executeMain(const std::string &Source,
                                   const std::vector<double> &ArgFills) {
  ExecuteResult Out;

  Stage SavedCutoff = Inv.RunUntil;
  Inv.RunUntil = Stage::Typecheck;
  CompileResult R = run(Source);
  Inv.RunUntil = SavedCutoff;
  if (!R.Ok) {
    Out.Error = "compilation failed";
    return Out;
  }

  vm::CompileVmResult C = vm::compile(*Mod, Inv.Passes);
  if (!C.Ok) {
    Out.Error = C.Error;
    return Out;
  }
  const vm::HostFnIR *Main = C.Program->findHostFn("main");
  if (!Main) {
    Out.Error = "no host `fn main` to execute (define one under "
                "`cpu.thread`)";
    return Out;
  }

  sim::GpuDevice Dev;
  if (Inv.CollectKernelStats)
    Dev.setCounters(true);
  vm::MainArgs Bound = vm::bindMainArgs(Dev, *Main, ArgFills);

  vm::RunStatus St = vm::runHostFn(Dev, *C.Program, *Main, Bound.Args);
  if (Inv.CollectKernelStats)
    // Collected even on failure: a trapping launch is precisely the one
    // whose counters are worth reading.
    Out.KernelStats = Dev.launchLog();
  if (!St.Ok) {
    Out.Error = St.Error;
    return Out;
  }

  // Digest every host-array parameter: count, sum and the two endpoint
  // elements, printed with enough digits to round-trip doubles exactly.
  size_t ArrIdx = 0;
  for (unsigned I = 0; I != Main->NumParams; ++I) {
    const hostgen::HostVar &P = Main->Vars[I];
    if (P.K != hostgen::HostVar::HostBuf)
      continue;
    const vm::HostArray &A = *Bound.Arrays[ArrIdx++];
    double Sum = 0.0, First = 0.0, Last = 0.0;
    for (size_t E = 0; E != A.Count; ++E) {
      double D;
      switch (A.Elem) {
      case ScalarKind::F64: {
        double X;
        std::memcpy(&X, A.Bytes.data() + E * 8, 8);
        D = X;
        break;
      }
      case ScalarKind::F32: {
        float X;
        std::memcpy(&X, A.Bytes.data() + E * 4, 4);
        D = X;
        break;
      }
      case ScalarKind::I32: {
        int32_t X;
        std::memcpy(&X, A.Bytes.data() + E * 4, 4);
        D = X;
        break;
      }
      default: {
        long long X = 0;
        std::memcpy(&X, A.Bytes.data() + E * 8,
                    std::min<size_t>(8, vm::scalarSize(A.Elem)));
        D = static_cast<double>(X);
        break;
      }
      }
      Sum += D;
      if (E == 0)
        First = D;
      Last = D;
    }
    char Line[256];
    std::snprintf(Line, sizeof(Line),
                  "RESULT %s n=%zu sum=%.17g first=%.17g last=%.17g\n",
                  P.Name.c_str(), A.Count, Sum, First, Last);
    Out.Output += Line;
  }
  Out.Ok = true;
  return Out;
}
