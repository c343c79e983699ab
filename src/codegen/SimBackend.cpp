//===- codegen/SimBackend.cpp - Simulator backend ----------------------------===//
//
// The `sim` backend: the shared lowering, but kernels are emitted as
// phase-structured C++ against sim/Sim.h, with sync compiled into a phase
// boundary. The lowering result is a phase-program IR (codegen/PhaseIR.h):
// loop-free kernels are emitted as a variadic launchPhases call (direct,
// inlinable phase calls); kernels with sync-containing loops are emitted
// as a constant number of phase lambdas plus host-side loop structure
// (sim::PhaseProgram / launchProgram), so the generated code size is
// independent of the loop trip count. This is the backend the Figure 8
// reproduction compiles and measures.
//
//===----------------------------------------------------------------------===//

#include "codegen/Backend.h"
#include "codegen/Lowerer.h"
#include "codegen/PhaseIR.h"
#include "hostgen/HostGen.h"
#include "kir/KIR.h"

#include "sim/Sim.h"
#include "support/StringUtils.h"

#include <sstream>

using namespace descend;
using namespace descend::codegen;

namespace {

/// One enclosing PhaseLoop binding visible to a phase body or bound.
struct LoopBinding {
  std::string Var;
  unsigned Slot;
};

/// Emits `const long long <var> = _b.loopVar(<slot>);` declarations for
/// the enclosing loop variables. Inner bindings shadow outer ones of the
/// same name, so only the innermost occurrence of each name is declared.
void emitLoopVarDecls(std::ostringstream &OS,
                      const std::vector<LoopBinding> &Enclosing,
                      const char *Indent) {
  for (size_t I = 0; I != Enclosing.size(); ++I) {
    bool ShadowedLater = false;
    for (size_t J = I + 1; J != Enclosing.size(); ++J)
      ShadowedLater |= Enclosing[J].Var == Enclosing[I].Var;
    if (ShadowedLater)
      continue;
    OS << Indent << "const long long " << Enclosing[I].Var << " = _b.loopVar("
       << Enclosing[I].Slot << "); (void)" << Enclosing[I].Var << ";\n";
  }
}

/// Renders a PhaseLoop bound as a host-side lambda over the BlockCtx.
std::string boundLambda(const Nat &N,
                        const std::vector<LoopBinding> &Enclosing) {
  std::ostringstream OS;
  OS << "[](const BlockCtx &_b) -> long long { (void)_b; ";
  std::ostringstream Decls;
  emitLoopVarDecls(Decls, Enclosing, "");
  // Fold the newline-separated declarations onto one line.
  std::string D = Decls.str();
  for (char &C : D)
    if (C == '\n')
      C = ' ';
  OS << D << "return " << kir::natToCpp(N, kir::SimStyle()) << "; }";
  return OS.str();
}

class SimBackend final : public Backend {
public:
  const char *name() const override { return "sim"; }
  const char *description() const override {
    return "phase-structured simulator C++ header (sim/Sim.h substrate)";
  }
  GenResult emit(const Module &M, const BackendOptions &Opts) const override;
};

/// Emits one phase body — a typed kernel-IR statement vector printed with
/// the simulator spelling — as a lambda argument/statement body.
void emitPhaseBody(std::ostringstream &OS, const std::vector<kir::Stmt> &Body,
                   const std::vector<LoopBinding> &Enclosing,
                   std::string &Err) {
  OS << "      const long long _bx = _b.X, _by = _b.Y, _bz = _b.Z;\n";
  OS << "      const long long _tx = _t.X, _ty = _t.Y, _tz = _t.Z;\n";
  OS << "      const size_t _lin = _b.CurThread;\n";
  OS << "      (void)_bx; (void)_by; (void)_bz; (void)_tx; (void)_ty; "
        "(void)_tz; (void)_lin;\n";
  emitLoopVarDecls(OS, Enclosing, "      ");
  std::string Text;
  std::string PrintErr;
  if (!kir::printStmts(Body, kir::SimStyle(), /*Indent=*/3, Text, PrintErr) &&
      Err.empty())
    Err = PrintErr;
  OS << Text;
}

/// Emits the nodes of a phase program as PhaseProgram builder calls.
void emitProgramNodes(std::ostringstream &OS,
                      const std::vector<PhaseNode> &Nodes,
                      std::vector<LoopBinding> &Enclosing, std::string &Err) {
  for (const PhaseNode &N : Nodes) {
    if (N.K == PhaseNode::Straight) {
      OS << "  _prog.straight([&](BlockCtx &_b, ThreadCtx &_t) {\n";
      emitPhaseBody(OS, N.Body, Enclosing, Err);
      OS << "    });\n";
      continue;
    }
    OS << "  // loop " << N.Var << " in [" << N.Lo.simplified().str() << ".."
       << N.Hi.simplified().str() << ")\n";
    OS << "  _prog.loopBegin(" << N.Slot << ",\n      "
       << boundLambda(N.Lo, Enclosing) << ",\n      "
       << boundLambda(N.Hi, Enclosing) << ");\n";
    Enclosing.push_back(LoopBinding{N.Var, N.Slot});
    emitProgramNodes(OS, N.Children, Enclosing, Err);
    Enclosing.pop_back();
    OS << "  _prog.loopEnd();\n";
  }
}

GenResult SimBackend::emit(const Module &M, const BackendOptions &Opts) const {
  const std::string &FnSuffix = Opts.FnSuffix;
  GenResult R;
  std::ostringstream OS;
  OS << "// Generated by descendc --emit=sim. Do not edit.\n";
  OS << "#pragma once\n\n#include \"sim/Sim.h\"\n";
  // Host-bearing programs additionally drive the host runtime API.
  if (hostgen::hasHostFns(M))
    OS << "#include \"runtime/HostRuntime.h\"\n";
  OS << "\n#include <cstdint>\n\n";
  OS << "namespace descend::gen {\n";

  for (const auto &FnPtr : M.Fns) {
    const FnDef &Fn = *FnPtr;
    if (!Fn.isGpuFn())
      continue;
    Lowerer L(M, LowerTarget::Sim, Opts.Passes);
    if (!L.runKernel(Fn)) {
      R.Error = "while lowering `" + Fn.Name + "`: " + L.Error;
      return R;
    }
    if (L.Program.maxLoopDepth() > sim::BlockCtx::MaxLoopSlots) {
      R.Error = "while lowering `" + Fn.Name + "`: phase loops nest deeper "
                "than the simulator's " +
                std::to_string(sim::BlockCtx::MaxLoopSlots) + " slots";
      return R;
    }

    std::array<unsigned, 3> Grid, Block;
    if (!launchExtents(Fn, Grid, Block, R.Error))
      return R;
    auto Dim3Of = [](const std::array<unsigned, 3> &E) {
      return strfmt("descend::sim::Dim3{%u, %u, %u}", E[0], E[1], E[2]);
    };
    const std::string GridText = Dim3Of(Grid), BlockText = Dim3Of(Block);

    const unsigned Threads = Block[0] * Block[1] * Block[2];
    size_t SharedTotal = (L.SharedBytes + 7) & ~size_t(7);
    size_t ArenaBytes = SharedTotal + L.LocalBytesPerThread * Threads;

    OS << "\n/// " << Fn.signature() << "\n";
    OS << "inline void " << Fn.Name << FnSuffix
       << "(descend::sim::GpuDevice &_dev";
    for (const FnParam &P : Fn.Params) {
      std::vector<Nat> Dims;
      ScalarKind Elem = ScalarKind::F64;
      const auto *Ref = cast<RefType>(P.Ty.get());
      arrayNest(Ref->Pointee, Dims, Elem);
      OS << ",\n    descend::sim::GpuDevice::Buffer<" << cppScalarType(Elem)
         << "> " << P.Name;
    }
    OS << ") {\n";
    OS << "  using descend::sim::BlockCtx;\n";
    OS << "  using descend::sim::ThreadCtx;\n";
    OS << "  constexpr size_t _locals_base = " << SharedTotal << ";\n";
    OS << "  (void)_locals_base;\n";

    std::string PrintErr;
    if (L.Program.maxLoopDepth() == 0) {
      // Straight-line program: variadic launchPhases, direct phase calls.
      OS << "  descend::sim::launchPhases(_dev, " << GridText << ", "
         << BlockText << ", " << ArenaBytes;
      std::vector<LoopBinding> None;
      for (const PhaseNode &N : L.Program.Nodes) {
        OS << ",\n    [&](BlockCtx &_b, ThreadCtx &_t) {\n";
        emitPhaseBody(OS, N.Body, None, PrintErr);
        OS << "    }";
      }
      OS << ");\n}\n";
      if (!PrintErr.empty()) {
        R.Error = "while printing `" + Fn.Name + "`: " + PrintErr;
        return R;
      }
      continue;
    }

    // Loop-carrying program: a constant number of phase lambdas plus
    // host-side loop structure, executed by launchProgram.
    OS << "  descend::sim::PhaseProgram _prog;\n";
    std::vector<LoopBinding> Enclosing;
    emitProgramNodes(OS, L.Program.Nodes, Enclosing, PrintErr);
    if (!PrintErr.empty()) {
      R.Error = "while printing `" + Fn.Name + "`: " + PrintErr;
      return R;
    }
    OS << "  descend::sim::launchProgram(_dev, " << GridText << ", "
       << BlockText << ", " << ArenaBytes << ", _prog);\n}\n";
  }

  // Host functions (Sections 3.4/3.5): emitted below the kernels they
  // launch, so the generated driver resolves the kernel calls directly in
  // this header. `main` is emitted as `run` — the entry point the tests
  // and examples drive. Each host function is printed once, as the
  // synchronous driver over a GpuDevice.
  for (const auto &FnPtr : M.Fns) {
    const FnDef &Fn = *FnPtr;
    if (!Fn.isCpuFn() || !Fn.Body)
      continue;
    hostgen::HostBuildResult IR = hostgen::buildHostFn(M, Fn);
    if (!IR.Ok) {
      R.Error = "while emitting host `" + Fn.Name + "`: " + IR.Error;
      return R;
    }
    OS << "\n"
       << hostgen::printHostFn(IR.Fn, hostgen::HostTarget::Sim, FnSuffix);
  }
  OS << "\n} // namespace descend::gen\n";
  R.Ok = true;
  R.Code = OS.str();
  return R;
}

} // namespace

namespace descend::codegen {
std::unique_ptr<Backend> createSimBackend() {
  return std::make_unique<SimBackend>();
}
} // namespace descend::codegen
