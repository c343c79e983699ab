//===- codegen/PhaseIR.cpp - Structured phase-program IR ---------------------===//

#include "codegen/PhaseIR.h"

#include "ast/Item.h"
#include "codegen/Lowerer.h"
#include "support/StringUtils.h"

#include <sstream>

using namespace descend;
using namespace descend::codegen;

namespace {

unsigned countStraight(const std::vector<PhaseNode> &Nodes) {
  unsigned N = 0;
  for (const PhaseNode &Node : Nodes) {
    if (Node.K == PhaseNode::Straight)
      ++N;
    else
      N += countStraight(Node.Children);
  }
  return N;
}

unsigned depthOf(const std::vector<PhaseNode> &Nodes) {
  unsigned D = 0;
  for (const PhaseNode &Node : Nodes)
    if (Node.K == PhaseNode::Loop)
      D = std::max(D, 1 + depthOf(Node.Children));
  return D;
}

void dumpNodes(const std::vector<PhaseNode> &Nodes, unsigned Indent,
               unsigned &PhaseIdx, std::ostringstream &OS) {
  auto Pad = [&] {
    for (unsigned I = 0; I != Indent; ++I)
      OS << "  ";
  };
  for (const PhaseNode &Node : Nodes) {
    Pad();
    if (Node.K == PhaseNode::Straight) {
      OS << "phase #" << PhaseIdx++ << ":\n";
      OS << kir::dump(Node.Body, Indent + 1);
      continue;
    }
    OS << "loop " << Node.Var << " in [" << Node.Lo.simplified().str()
       << ".." << Node.Hi.simplified().str() << ") slot " << Node.Slot
       << "\n";
    dumpNodes(Node.Children, Indent + 1, PhaseIdx, OS);
  }
}

} // namespace

unsigned PhaseProgramIR::straightCount() const { return countStraight(Nodes); }

unsigned PhaseProgramIR::maxLoopDepth() const { return depthOf(Nodes); }

std::string PhaseProgramIR::dump() const {
  std::ostringstream OS;
  unsigned PhaseIdx = 0;
  dumpNodes(Nodes, 0, PhaseIdx, OS);
  return OS.str();
}

bool codegen::dumpKernelIRs(const Module &M, std::string &Out,
                            std::string &Error,
                            const kir::PassConfig &Passes) {
  std::ostringstream OS;
  for (const auto &FnPtr : M.Fns) {
    const FnDef &Fn = *FnPtr;
    if (!Fn.isGpuFn())
      continue;
    // The phase-structured (sim-target) lowering: the canonical KIR view.
    Lowerer L(M, LowerTarget::Sim, Passes);
    if (!L.runKernel(Fn)) {
      Error = "while lowering `" + Fn.Name + "`: " + L.Error;
      return false;
    }
    OS << "kir for `" << Fn.Name << "` (straight phases: "
       << L.Program.straightCount() << ", max loop depth: "
       << L.Program.maxLoopDepth() << ", shared bytes: " << L.SharedBytes
       << ", local bytes/thread: " << L.LocalBytesPerThread << ")\n";
    OS << L.Program.dump() << "\n";
  }
  Out = OS.str();
  return true;
}
