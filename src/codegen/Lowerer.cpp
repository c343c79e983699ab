//===- codegen/Lowerer.cpp - Shared kernel lowering --------------------------===//

#include "codegen/Lowerer.h"

#include "kir/Passes.h"
#include "support/StringUtils.h"
#include "views/IndexSpace.h"

#include <cassert>
#include <limits>

using namespace descend;
using namespace descend::codegen;

bool descend::codegen::arrayNest(const TypeRef &T, std::vector<Nat> &Dims,
                                 ScalarKind &Elem) {
  const DataType *Cur = T.get();
  while (true) {
    if (const auto *A = dyn_cast<ArrayType>(Cur)) {
      Dims.push_back(A->Size);
      Cur = A->Elem.get();
      continue;
    }
    if (const auto *A = dyn_cast<ArrayViewType>(Cur)) {
      Dims.push_back(A->Size);
      Cur = A->Elem.get();
      continue;
    }
    if (const auto *S = dyn_cast<ScalarType>(Cur)) {
      Elem = S->Scalar;
      return true;
    }
    return false;
  }
}

namespace {

/// launchExtents for one dimension; \p What is "grid" or "block" and
/// \p Unit what it counts ("blocks" or "threads").
bool dimExtents(const FnDef &Fn, const Dim &D, const char *What,
                const char *Unit, std::array<unsigned, 3> &Out,
                std::string &Err) {
  const unsigned long long Max = std::numeric_limits<unsigned>::max();
  const Axis Axes[3] = {Axis::X, Axis::Y, Axis::Z};
  for (unsigned I = 0; I != 3; ++I) {
    Out[I] = 1;
    if (!D.hasAxis(Axes[I]))
      continue;
    auto E = D.extent(Axes[I]).simplified().evaluate({});
    if (!E) {
      Err = "launch dimension `" + D.extent(Axes[I]).str() + "` of `" +
            Fn.Name + "` is not instantiated (pass -D)";
      return false;
    }
    if (*E < 1 || static_cast<unsigned long long>(*E) > Max) {
      Err = std::string(What) + " extent " + axisName(Axes[I]) + " of `" +
            Fn.Name + "` is " + std::to_string(*E) +
            "; a launch extent must lie in [1, " + std::to_string(Max) + "]";
      return false;
    }
    Out[I] = static_cast<unsigned>(*E);
  }
  // sim::Dim3::total() counts in unsigned; each factor is at most Max,
  // so neither product below wraps once the first is checked.
  const unsigned long long XY = 1ull * Out[0] * Out[1];
  if (XY > Max || XY * Out[2] > Max) {
    Err = std::string(What) + " of `" + Fn.Name + "` spans " +
          std::to_string(Out[0]) + " x " + std::to_string(Out[1]) + " x " +
          std::to_string(Out[2]) + " " + Unit + "; a launch holds at most " +
          std::to_string(Max);
    return false;
  }
  return true;
}

} // namespace

bool descend::codegen::launchExtents(const FnDef &Fn,
                                     std::array<unsigned, 3> &Grid,
                                     std::array<unsigned, 3> &Block,
                                     std::string &Err) {
  return dimExtents(Fn, Fn.Exec.GridDim, "grid", "blocks", Grid, Err) &&
         dimExtents(Fn, Fn.Exec.BlockDim, "block", "threads", Block, Err);
}

//===----------------------------------------------------------------------===//
// Scopes and small helpers
//===----------------------------------------------------------------------===//

bool Lowerer::fail(const std::string &Msg) {
  if (Error.empty())
    Error = Msg;
  return false;
}

void Lowerer::emit(kir::Stmt S) { ListStack.back()->push_back(std::move(S)); }

void Lowerer::pushScope() { Scopes.emplace_back(); }

void Lowerer::popScope() {
  for (const std::string &N : Scopes.back())
    Syms[N].pop_back();
  while (!LiveLocals.empty() && LiveLocals.back().ScopeDepth >= Scopes.size())
    LiveLocals.pop_back();
  Scopes.pop_back();
}

Sym &Lowerer::bind(const std::string &Name, Sym S) {
  Scopes.back().push_back(Name);
  auto &Stack = Syms[Name];
  Stack.push_back(std::move(S));
  return Stack.back();
}

Sym *Lowerer::lookup(const std::string &Name) {
  auto It = Syms.find(Name);
  if (It == Syms.end() || It->second.empty())
    return nullptr;
  return &It->second.back();
}

/// Raw coordinate variable for (stage, axis). Target-independent: the
/// CUDA printer maps _bx/_tx/... to blockIdx/threadIdx spelling.
std::string Lowerer::axisVarName(unsigned Stage, Axis A) const {
  std::string Base = Stage == 0 ? "_b" : "_t";
  return Base + (A == Axis::X ? "x" : A == Axis::Y ? "y" : "z");
}

/// Local coordinate of the forall at op index \p OpIdx in \p Exec: the
/// raw coordinate minus the snd-split offsets accumulated before it.
Nat Lowerer::coordinateFor(const ExecResource &Exec, unsigned OpIdx) {
  const ExecOp &Op = Exec.ops()[OpIdx];
  Nat Coord = Nat::var(axisVarName(Op.Stage, Op.Ax));
  for (unsigned I = 0; I != OpIdx; ++I) {
    const ExecOp &Prev = Exec.ops()[I];
    if (Prev.Stage == Op.Stage && Prev.Ax == Op.Ax &&
        Prev.Kind == ExecOpKind::SplitSnd)
      Coord = Coord - Prev.Pos;
  }
  return Coord;
}

Nat Lowerer::exprToNat(const Expr &E) {
  switch (E.kind()) {
  case ExprKind::Literal: {
    const auto *L = cast<LiteralExpr>(&E);
    return Nat::lit(L->IntValue);
  }
  case ExprKind::PlaceVar: {
    const auto *V = cast<PlaceVar>(&E);
    if (Sym *S = lookup(V->Name); S && S->K == Sym::NatVar)
      return S->ConstVal ? S->ConstVal : Nat::var(V->Name);
    return Nat();
  }
  case ExprKind::Binary: {
    const auto *Bin = cast<BinaryExpr>(&E);
    Nat L = exprToNat(*Bin->Lhs);
    Nat R = exprToNat(*Bin->Rhs);
    if (!L || !R)
      return Nat();
    switch (Bin->Op) {
    case BinOpKind::Add:
      return L + R;
    case BinOpKind::Sub:
      return L - R;
    case BinOpKind::Mul:
      return L * R;
    case BinOpKind::Div:
      return L / R;
    case BinOpKind::Mod:
      return L % R;
    default:
      return Nat();
    }
  }
  default:
    return Nat();
  }
}

/// Substitutes unrolled loop constants into a nat from the source.
Nat Lowerer::substLoopConsts(Nat N) {
  if (!N)
    return N;
  std::vector<std::string> Vars;
  N.collectVars(Vars);
  std::map<std::string, Nat> Subst;
  for (const std::string &V : Vars)
    if (Sym *S = lookup(V); S && S->K == Sym::NatVar && S->ConstVal)
      Subst[V] = S->ConstVal;
  return Subst.empty() ? N : N.substitute(Subst);
}

//===----------------------------------------------------------------------===//
// Places
//===----------------------------------------------------------------------===//

std::optional<Lowerer::LPlace> Lowerer::lowerPlace(const PlaceExpr &P) {
  // Collect root-to-leaf chain.
  std::vector<const PlaceExpr *> Chain;
  for (const PlaceExpr *Cur = &P; Cur; Cur = basePlace(Cur))
    Chain.push_back(Cur);
  std::reverse(Chain.begin(), Chain.end());

  const auto *RootVar = dyn_cast<PlaceVar>(Chain[0]);
  assert(RootVar && "place chain must start at a variable");
  Sym *Root = lookup(RootVar->Name);
  if (!Root) {
    fail("internal: unknown symbol `" + RootVar->Name + "`");
    return std::nullopt;
  }

  LPlace Result;
  if (Root->K == Sym::NatVar) {
    Result.K = LPlace::NatValue;
    Result.NatVal = Root->ConstVal ? Root->ConstVal
                                   : Nat::var(RootVar->Name);
    return Result;
  }
  if (Root->K == Sym::Local) {
    Result.K = LPlace::Local;
    Result.Root = Root;
    return Result;
  }
  if (Root->K == Sym::ExecVar) {
    fail("internal: execution resource used as value");
    return std::nullopt;
  }

  Result.K = Root->K == Sym::GlobalBuf ? LPlace::Global : LPlace::Shared;
  Result.Root = Root;

  IndexSpace Space = IndexSpace::fromDims(Root->Dims);
  // Pending split view: a split must be followed by .fst/.snd.
  std::optional<Nat> PendingSplit;

  for (size_t I = 1; I != Chain.size(); ++I) {
    const PlaceExpr *Step = Chain[I];
    std::string Err;
    switch (Step->kind()) {
    case ExprKind::PlaceDeref:
      break; // references were resolved to buffers
    case ExprKind::PlaceView: {
      const auto *V = cast<PlaceView>(Step);
      std::vector<Nat> Args;
      for (const Nat &A : V->NatArgs)
        Args.push_back(substLoopConsts(A).simplified());
      auto Resolved = Views.resolve(V->ViewName, Args, &Err);
      if (!Resolved) {
        fail(Err);
        return std::nullopt;
      }
      for (const View &Prim : *Resolved) {
        if (Prim.Kind == ViewKind::SplitView) {
          if (PendingSplit) {
            fail("internal: split view without projection");
            return std::nullopt;
          }
          PendingSplit = Prim.Arg;
          continue;
        }
        if (PendingSplit) {
          fail("internal: split view without projection");
          return std::nullopt;
        }
        if (!Space.applyView(Prim, &Err)) {
          fail(Err);
          return std::nullopt;
        }
      }
      break;
    }
    case ExprKind::PlaceProj: {
      const auto *Proj = cast<PlaceProj>(Step);
      if (!PendingSplit) {
        fail("tuple projections outside split views are not supported in "
             "kernels");
        return std::nullopt;
      }
      if (!Space.takeSplitPart(*PendingSplit, Proj->Which == 0, &Err)) {
        fail(Err);
        return std::nullopt;
      }
      PendingSplit.reset();
      break;
    }
    case ExprKind::PlaceSelect: {
      const auto *Sel = cast<PlaceSelect>(Step);
      Sym *ExecSym = lookup(Sel->ExecName);
      if (!ExecSym || ExecSym->K != Sym::ExecVar) {
        fail("internal: unknown execution resource `" + Sel->ExecName +
             "`");
        return std::nullopt;
      }
      for (unsigned OpIdx = ExecSym->OpsBegin; OpIdx != ExecSym->OpsEnd;
           ++OpIdx) {
        Nat Coord = coordinateFor(ExecSym->Exec, OpIdx);
        if (!Space.bindOuter(Coord, &Err)) {
          fail(Err);
          return std::nullopt;
        }
      }
      break;
    }
    case ExprKind::PlaceIndex: {
      const auto *Idx = cast<PlaceIndex>(Step);
      Nat N = exprToNat(*Idx->Index);
      if (!N) {
        fail("kernel indices must be static or loop-variable expressions: "
             + exprToString(*Idx->Index));
        return std::nullopt;
      }
      if (!Space.bindOuter(substLoopConsts(N), &Err)) {
        fail(Err);
        return std::nullopt;
      }
      break;
    }
    default:
      fail("unsupported place step in kernel");
      return std::nullopt;
    }
  }

  std::string Err;
  Result.Index = Space.flatten(&Err);
  if (Result.Index.isNull()) {
    fail(Err);
    return std::nullopt;
  }
  return Result;
}

kir::MemRef Lowerer::memRefFor(const Sym &Root) const {
  kir::MemRef Ref;
  Ref.Space = Root.K == Sym::GlobalBuf ? kir::MemSpace::Global
                                       : kir::MemSpace::Shared;
  Ref.Name = Root.CppName;
  Ref.Elem = Root.Elem;
  Ref.ByteBase = Root.ByteBase;
  return Ref;
}

kir::ExprPtr Lowerer::placeLoad(const LPlace &P) {
  switch (P.K) {
  case LPlace::NatValue:
    return kir::Expr::natVal(P.NatVal);
  case LPlace::Local:
    return kir::Expr::varRef(P.Root->CppName);
  case LPlace::Global:
  case LPlace::Shared:
    return kir::Expr::load(memRefFor(*P.Root), P.Index);
  }
  return nullptr;
}

bool Lowerer::placeStore(const LPlace &P, kir::ExprPtr Value) {
  switch (P.K) {
  case LPlace::NatValue:
    return fail("cannot assign to a loop variable");
  case LPlace::Local:
    emit(kir::Stmt::assign(P.Root->CppName, std::move(Value)));
    return true;
  case LPlace::Global:
  case LPlace::Shared:
    emit(kir::Stmt::store(memRefFor(*P.Root), P.Index, std::move(Value)));
    return true;
  }
  return false;
}

//===----------------------------------------------------------------------===//
// Expressions & statements
//===----------------------------------------------------------------------===//

namespace {

kir::BinOp mapBinOp(BinOpKind K) {
  switch (K) {
  case BinOpKind::Add:
    return kir::BinOp::Add;
  case BinOpKind::Sub:
    return kir::BinOp::Sub;
  case BinOpKind::Mul:
    return kir::BinOp::Mul;
  case BinOpKind::Div:
    return kir::BinOp::Div;
  case BinOpKind::Mod:
    return kir::BinOp::Mod;
  case BinOpKind::Eq:
    return kir::BinOp::Eq;
  case BinOpKind::Ne:
    return kir::BinOp::Ne;
  case BinOpKind::Lt:
    return kir::BinOp::Lt;
  case BinOpKind::Le:
    return kir::BinOp::Le;
  case BinOpKind::Gt:
    return kir::BinOp::Gt;
  case BinOpKind::Ge:
    return kir::BinOp::Ge;
  case BinOpKind::And:
    return kir::BinOp::And;
  case BinOpKind::Or:
    return kir::BinOp::Or;
  }
  return kir::BinOp::Add;
}

} // namespace

kir::ExprPtr Lowerer::genExpr(const Expr &E) {
  switch (E.kind()) {
  case ExprKind::Literal: {
    const auto *L = cast<LiteralExpr>(&E);
    switch (L->Scalar) {
    case ScalarKind::Bool:
      return kir::Expr::boolLit(L->BoolValue);
    case ScalarKind::F32:
    case ScalarKind::F64:
      return kir::Expr::floatLit(L->FloatValue, L->Scalar);
    case ScalarKind::Unit:
      return kir::Expr::unitLit();
    default:
      return kir::Expr::intLit(L->IntValue, L->Scalar);
    }
  }
  case ExprKind::Binary: {
    const auto *Bin = cast<BinaryExpr>(&E);
    kir::ExprPtr L = genExpr(*Bin->Lhs);
    kir::ExprPtr R = genExpr(*Bin->Rhs);
    if (!L || !R)
      return nullptr;
    return kir::Expr::binary(mapBinOp(Bin->Op), std::move(L), std::move(R));
  }
  case ExprKind::Unary: {
    const auto *U = cast<UnaryExpr>(&E);
    kir::ExprPtr S = genExpr(*U->Sub);
    if (!S)
      return nullptr;
    return kir::Expr::unary(U->Op == UnOpKind::Neg ? kir::UnOp::Neg
                                                   : kir::UnOp::Not,
                            std::move(S));
  }
  default:
    if (const auto *P = dyn_cast<PlaceExpr>(&E)) {
      auto LP = lowerPlace(*P);
      if (!LP)
        return nullptr;
      return placeLoad(*LP);
    }
    fail("unsupported expression in kernel: " + exprToString(E));
    return nullptr;
  }
}

bool Lowerer::containsKind(const Expr &E, ExprKind K) {
  if (E.kind() == K)
    return true;
  bool Found = false;
  forEachChild(const_cast<Expr &>(E),
               [&](Expr &C) { Found = Found || containsKind(C, K); });
  return Found;
}

/// True when \p N contains a Pow node mentioning \p Var that cannot be
/// printed as a shift (base is not the literal 2). Such nats only fold to
/// printable C++ once the variable is a known constant; `2^i` strides
/// print as `(1ll << i)` and stay symbolic.
static bool nonShiftablePowMentionsVar(const Nat &N, const std::string &Var) {
  if (N.isNull())
    return false;
  switch (N.kind()) {
  case NatKind::Lit:
  case NatKind::Var:
    return false;
  case NatKind::Pow: {
    if (N.lhs().isLit() && N.lhs().litValue() == 2)
      return nonShiftablePowMentionsVar(N.rhs(), Var);
    std::vector<std::string> Vars;
    N.collectVars(Vars);
    for (const std::string &V : Vars)
      if (V == Var)
        return true;
    return false;
  }
  default:
    return nonShiftablePowMentionsVar(N.lhs(), Var) ||
           nonShiftablePowMentionsVar(N.rhs(), Var);
  }
}

/// True when any nat inside \p E (view arguments, split positions, loop
/// bounds) raises a non-2 base to a power of \p Var. A nested for-nat
/// that rebinds the same name shadows it.
static bool usesNonShiftablePowOfVar(const Expr &E, const std::string &Var) {
  if (const auto *V = dyn_cast<PlaceView>(&E)) {
    for (const Nat &A : V->NatArgs)
      if (nonShiftablePowMentionsVar(A, Var))
        return true;
  } else if (const auto *S = dyn_cast<SplitExpr>(&E)) {
    if (nonShiftablePowMentionsVar(S->Position, Var))
      return true;
  } else if (const auto *F = dyn_cast<ForNatExpr>(&E)) {
    if (nonShiftablePowMentionsVar(F->Lo, Var) ||
        nonShiftablePowMentionsVar(F->Hi, Var))
      return true;
    if (F->Var == Var)
      return false; // shadowed in the body
  }
  bool Found = false;
  forEachChild(const_cast<Expr &>(E),
               [&](Expr &C) { Found = Found || usesNonShiftablePowOfVar(C, Var); });
  return Found;
}

//===----------------------------------------------------------------------===//
// Phase construction (sim)
//===----------------------------------------------------------------------===//

/// True when the pending phase has statements beyond the spill/reload
/// preamble.
bool Lowerer::phaseHasContent() const {
  for (const kir::Stmt &S : PhaseBuf)
    if (!S.SpillReload)
      return true;
  return false;
}

/// Closes the pending phase: elides dead spill/reload pairs and appends
/// the body as a StraightPhase to the innermost open node list — unless
/// the body came out empty (a trailing or doubled sync orders nothing, so
/// the no-op phase is dropped; \p KeepEmpty forces a node for otherwise
/// empty kernels).
void Lowerer::closePhase(bool KeepEmpty) {
  kir::elideDeadSpillPairs(PhaseBuf);
  if (!PhaseBuf.empty() || KeepEmpty)
    NodeStack.back()->push_back(PhaseNode::straight(std::move(PhaseBuf)));
  PhaseBuf.clear();
}

void Lowerer::phaseBreak() {
  if (B == LowerTarget::Cuda) {
    emit(kir::Stmt::barrier());
    return;
  }
  if (ListStack.size() != 1) {
    fail("internal: sync inside a divergent or structured context");
    return;
  }
  // Registers do not survive the phase boundary: spill phase-spanning
  // locals to their per-thread arena slot and reload at the start of the
  // next phase (one load/store per local per phase, as a handwritten
  // kernel would do). Phases that never touch a local get the pair
  // elided again in closePhase.
  auto ArenaRef = [&](const LiveLocal &L) {
    kir::MemRef Ref;
    Ref.Space = kir::MemSpace::Arena;
    Ref.Name = L.CppName;
    Ref.Elem = L.Elem;
    Ref.ByteBase = L.Off;
    return Ref;
  };
  for (const LiveLocal &L : LiveLocals)
    emit(kir::Stmt::store(ArenaRef(L), Nat::var("_lin"),
                          kir::Expr::varRef(L.CppName),
                          /*SpillReload=*/true));
  closePhase();
  for (const LiveLocal &L : LiveLocals)
    emit(kir::Stmt::let(L.CppName, L.Elem,
                        kir::Expr::load(ArenaRef(L), Nat::var("_lin")),
                        /*SpillReload=*/true));
}

/// Phase boundary at a PhaseLoop edge: a barrier is only needed when the
/// pending phase has real content beyond the reload preamble; a bare
/// preamble flows into whatever phase starts next.
void Lowerer::softPhaseBreak() {
  if (phaseHasContent())
    phaseBreak();
}

bool Lowerer::genStmt(const Expr &E) {
  switch (E.kind()) {
  case ExprKind::Block: {
    const auto *Blk = cast<BlockExpr>(&E);
    pushScope();
    for (const ExprPtr &S : Blk->Stmts)
      if (!genStmt(*S))
        return false;
    popScope();
    return true;
  }
  case ExprKind::Let: {
    const auto *L = cast<LetExpr>(&E);
    if (const auto *A = dyn_cast<AllocExpr>(L->Init.get())) {
      std::vector<Nat> Dims;
      ScalarKind Elem = ScalarKind::F64;
      if (!arrayNest(A->AllocTy, Dims, Elem))
        return fail("alloc type must be an array of scalars");
      size_t Elems = 1;
      for (const Nat &D : Dims) {
        auto V = D.evaluate({});
        if (!V)
          return fail("shared allocation sizes must be concrete");
        Elems *= *V;
      }
      size_t ElemSize = Elem == ScalarKind::F32 ? 4
                        : Elem == ScalarKind::Bool ? 1
                                                   : 8;
      size_t Bytes = Elems * ElemSize;
      Sym S;
      S.K = Sym::SharedBuf;
      S.CppName = L->Name;
      S.Elem = Elem;
      S.Dims = Dims;
      S.ByteBase = (SharedBytes + 7) & ~size_t(7);
      SharedBytes = S.ByteBase + Bytes;
      // Innermost row width: elements per slice of the outermost
      // dimension. The padding pass needs it to recognize `row*W + col`.
      size_t RowWidth = 0;
      if (Dims.size() > 1) {
        auto Outer = Dims.front().evaluate({});
        if (Outer && *Outer > 0)
          RowWidth = Elems / *Outer;
      }
      SharedDecls.push_back(
          SharedDecl{L->Name, Elem, Elems, RowWidth, S.ByteBase});
      BufferSpaces[L->Name] = kir::MemSpace::Shared;
      bind(L->Name, std::move(S));
      return true;
    }
    // Scalar thread-local binding.
    const auto *Scalar = dyn_cast_if_present<ScalarType>(
        L->Init->Ty ? L->Init->Ty.get()
                    : (L->Annotation ? L->Annotation.get() : nullptr));
    if (!Scalar)
      return fail("only scalar lets and shared allocations are supported "
                  "inside kernels: let " +
                  L->Name);
    kir::ExprPtr Init = genExpr(*L->Init);
    if (!Init)
      return false;
    Sym S;
    S.K = Sym::Local;
    S.CppName = strfmt("%s_%u", L->Name.c_str(), NextLocalUid++);
    S.Elem = Scalar->Scalar;
    // Per-thread arena region for phase-spanning state (sim): each var
    // gets 8 * ThreadsPerBlock bytes after the shared allocations.
    S.LocalOff = ((LocalBytesPerThread + 7) & ~size_t(7));
    LocalBytesPerThread = S.LocalOff + 8;
    S.LocalOff = S.LocalOff * ThreadsPerBlock;
    const Sym &Bound = bind(L->Name, std::move(S));
    emit(kir::Stmt::let(Bound.CppName, Bound.Elem, std::move(Init)));
    if (B == LowerTarget::Sim)
      LiveLocals.push_back(LiveLocal{Bound.CppName, Bound.Elem,
                                     Bound.LocalOff,
                                     (unsigned)Scopes.size()});
    return true;
  }
  case ExprKind::Assign: {
    const auto *A = cast<AssignExpr>(&E);
    kir::ExprPtr Value = genExpr(*A->Rhs);
    if (!Value)
      return false;
    auto LP = lowerPlace(*A->Lhs);
    if (!LP)
      return false;
    return placeStore(*LP, std::move(Value));
  }
  case ExprKind::Sched: {
    const auto *S = cast<SchedExpr>(&E);
    Sym *Target = lookup(S->Target);
    if (!Target || Target->K != Sym::ExecVar)
      return fail("internal: unknown sched target");
    ExecResource Child = Target->Exec;
    for (Axis A : S->Axes) {
      auto Next = Child.forall(A);
      if (!Next)
        return fail("internal: invalid sched");
      Child = *Next;
    }
    pushScope();
    Sym Binder;
    Binder.K = Sym::ExecVar;
    Binder.CppName = S->Binder;
    Binder.Exec = Child;
    Binder.OpsBegin = Target->Exec.numOps();
    Binder.OpsEnd = Child.numOps();
    bind(S->Binder, std::move(Binder));
    ExecResource Saved = CurExec;
    CurExec = Child;
    bool Ok = genStmt(*S->Body);
    CurExec = Saved;
    popScope();
    return Ok;
  }
  case ExprKind::Split: {
    const auto *S = cast<SplitExpr>(&E);
    Sym *Target = lookup(S->Target);
    if (!Target || Target->K != Sym::ExecVar)
      return fail("internal: unknown split target");
    Nat Pos = substLoopConsts(S->Position).simplified();
    auto Fst = Target->Exec.split(S->SplitAxis, Pos, true);
    auto Snd = Target->Exec.split(S->SplitAxis, Pos, false);
    if (!Fst || !Snd)
      return fail("internal: invalid split");
    // Guard: local coordinate along the split axis at the split's stage.
    unsigned Stage = Fst->ops().back().Stage;
    Nat Coord = Nat::var(axisVarName(Stage, S->SplitAxis));
    for (const ExecOp &Op : Target->Exec.ops())
      if (Op.Stage == Stage && Op.Ax == S->SplitAxis &&
          Op.Kind == ExecOpKind::SplitSnd)
        Coord = Coord - Op.Pos;
    emit(kir::Stmt::ifLt(Coord.simplified(), Pos));
    kir::Stmt &IfStmt = ListStack.back()->back();
    {
      ListStack.push_back(&IfStmt.Then);
      pushScope();
      Sym Binder;
      Binder.K = Sym::ExecVar;
      Binder.CppName = S->FstName;
      Binder.Exec = *Fst;
      Binder.OpsBegin = Target->Exec.numOps();
      Binder.OpsEnd = Fst->numOps();
      bind(S->FstName, std::move(Binder));
      ExecResource Saved = CurExec;
      CurExec = *Fst;
      bool Ok = genStmt(*S->FstBody);
      CurExec = Saved;
      popScope();
      ListStack.pop_back();
      if (!Ok)
        return false;
    }
    {
      ListStack.push_back(&IfStmt.Else);
      pushScope();
      Sym Binder;
      Binder.K = Sym::ExecVar;
      Binder.CppName = S->SndName;
      Binder.Exec = *Snd;
      Binder.OpsBegin = Target->Exec.numOps();
      Binder.OpsEnd = Snd->numOps();
      bind(S->SndName, std::move(Binder));
      ExecResource Saved = CurExec;
      CurExec = *Snd;
      bool Ok = genStmt(*S->SndBody);
      CurExec = Saved;
      popScope();
      ListStack.pop_back();
      if (!Ok)
        return false;
    }
    return true;
  }
  case ExprKind::Sync:
    phaseBreak();
    return Error.empty();
  case ExprKind::ForNat: {
    const auto *F = cast<ForNatExpr>(&E);
    Nat Lo = substLoopConsts(F->Lo).simplified();
    Nat Hi = substLoopConsts(F->Hi).simplified();
    // Only loops whose nat arithmetic must fold iteration by iteration
    // are unrolled (their ranges are statically evaluated, Fig. 5): a
    // body that splits the hierarchy (split positions like n/2^(s+1)
    // change shape per iteration) or raises a non-2 base to a power of
    // the loop variable. A loop that merely synchronizes — or strides
    // views by 2^i, which prints as a shift — keeps its structure: a
    // PhaseLoop in the simulator's phase program, a plain `for` with
    // __syncthreads() inside for CUDA, so its bounds stay symbolic.
    bool HasSplit = containsKind(*F->Body, ExprKind::Split);
    bool NeedUnroll = HasSplit || usesNonShiftablePowOfVar(*F->Body, F->Var);
    if (NeedUnroll) {
      if (!Lo.isLit() || !Hi.isLit())
        return fail(std::string(HasSplit
                        ? "loops containing split need static bounds "
                          "(split positions change per iteration)"
                        : "loops raising a non-2 base to a power of " +
                              F->Var + " need static bounds") +
                    ", got [" + Lo.str() + ".." + Hi.str() + "]");
      for (long long V = Lo.litValue(); V < Hi.litValue(); ++V) {
        pushScope();
        Sym S;
        S.K = Sym::NatVar;
        S.CppName = F->Var;
        S.ConstVal = Nat::lit(V);
        bind(F->Var, std::move(S));
        bool Ok = genStmt(*F->Body);
        popScope();
        if (!Ok)
          return false;
      }
      return true;
    }
    if (!checkLoopBounds(Lo, Hi))
      return false;
    if (B == LowerTarget::Sim && containsKind(*F->Body, ExprKind::Sync))
      return genPhaseLoop(*F, std::move(Lo), std::move(Hi));
    emit(kir::Stmt::forLoop(F->Var, std::move(Lo), std::move(Hi)));
    kir::Stmt &ForStmt = ListStack.back()->back();
    ListStack.push_back(&ForStmt.Body);
    pushScope();
    Sym S;
    S.K = Sym::NatVar;
    S.CppName = F->Var;
    bind(F->Var, std::move(S));
    bool Ok = genStmt(*F->Body);
    popScope();
    ListStack.pop_back();
    return Ok;
  }
  default:
    return fail("unsupported statement in kernel: " + exprToString(E));
  }
}

/// A symbolic loop bound may only reference enclosing loop variables
/// (which the emitted code declares); a free size variable or a pow that
/// cannot print as a shift means the kernel was not fully instantiated.
bool Lowerer::checkLoopBounds(const Nat &Lo, const Nat &Hi) {
  if (kir::containsNonShiftablePow(Lo) || kir::containsNonShiftablePow(Hi))
    return fail("loop bounds contain an unprintable pow expression: [" +
                Lo.str() + ".." + Hi.str() + "]; instantiate generic sizes "
                "first (--define)");
  std::vector<std::string> Vars;
  Lo.collectVars(Vars);
  Hi.collectVars(Vars);
  for (const std::string &V : Vars) {
    Sym *S = lookup(V);
    if (!S || S->K != Sym::NatVar)
      return fail("loop bounds reference the uninstantiated size variable "
                  "`" + V + "`: [" + Lo.str() + ".." + Hi.str() +
                  "]; instantiate generic sizes first (--define)");
  }
  return true;
}

/// Lowers a sync-containing for-nat into a PhaseLoop node (sim target):
/// the pending phase is closed, the body's phases are collected as the
/// loop's children with the loop variable left symbolic, and the runtime
/// binds it per iteration through BlockCtx::loopVar(Slot).
bool Lowerer::genPhaseLoop(const ForNatExpr &F, Nat Lo, Nat Hi) {
  if (ListStack.size() != 1)
    return fail("internal: sync-containing loop inside a divergent or "
                "structured context");
  softPhaseBreak();
  PhaseNode LoopNode = PhaseNode::loop(F.Var, LoopDepth, std::move(Lo),
                                       std::move(Hi));
  NodeStack.push_back(&LoopNode.Children);
  ++LoopDepth;
  pushScope();
  Sym S;
  S.K = Sym::NatVar;
  S.CppName = F.Var; // no ConstVal: the variable stays symbolic
  bind(F.Var, std::move(S));
  bool Ok = genStmt(*F.Body);
  popScope();
  --LoopDepth;
  if (Ok)
    softPhaseBreak(); // close a trailing partial phase inside the loop
  NodeStack.pop_back();
  NodeStack.back()->push_back(std::move(LoopNode));
  return Ok;
}

//===----------------------------------------------------------------------===//
// Pass pipeline & verification
//===----------------------------------------------------------------------===//

std::vector<kir::BodyRef> Lowerer::scheduleBodies() {
  std::vector<kir::BodyRef> Bodies;
  if (B == LowerTarget::Cuda) {
    Bodies.push_back(kir::BodyRef{&Body, {}});
    return Bodies;
  }
  // Straight phases, each seeing the (literal) bounds of its enclosing
  // phase loops. Non-literal bounds map to -1, "unbounded".
  std::function<void(std::vector<PhaseNode> &, const kir::VarBounds &)> Walk =
      [&](std::vector<PhaseNode> &Nodes, const kir::VarBounds &Enclosing) {
        for (PhaseNode &N : Nodes) {
          if (N.K == PhaseNode::Straight) {
            Bodies.push_back(kir::BodyRef{&N.Body, Enclosing});
            continue;
          }
          kir::VarBounds Inner = Enclosing;
          Nat Hi = N.Hi.isNull() ? N.Hi : N.Hi.simplified();
          Inner[N.Var] = (!Hi.isNull() && Hi.isLit()) ? Hi.litValue() : -1;
          Walk(N.Children, Inner);
        }
      };
  Walk(Program.Nodes, {});
  return Bodies;
}

bool Lowerer::runSchedulePasses() {
  if (!Passes.any())
    return true;
  std::vector<kir::BodyRef> Bodies = scheduleBodies();

  if (Passes.SharedPad != 0) {
    std::vector<kir::ScheduleSharedBuffer> Bufs;
    for (const SharedDecl &D : SharedDecls)
      Bufs.push_back(kir::ScheduleSharedBuffer{D.Name, D.Elem, D.Elems,
                                               D.ByteBase, D.RowWidth});
    if (kir::padSharedBuffers(Bodies, Bufs, SharedBytes, Passes.SharedPad,
                              CoordBounds, &SchedStats)) {
      for (size_t I = 0; I != Bufs.size(); ++I) {
        SharedDecls[I].Elems = Bufs[I].Elems;
        SharedDecls[I].ByteBase = Bufs[I].ByteBase;
      }
    }
    if (!verifyKernel())
      return fail("after shared-padding pass: " + Error);
  }

  if (Passes.Vectorize) {
    kir::vectorizeAccesses(Bodies, CoordBounds, &SchedStats);
    if (!verifyKernel())
      return fail("after vectorize pass: " + Error);
  }
  return true;
}

bool Lowerer::runPasses() {
  // Opt-in schedule passes first: they match raw `row*W + col` indices
  // and adjacent accesses, which index CSE would hoist out of sight.
  if (!runSchedulePasses())
    return false;
  if (B == LowerTarget::Cuda) {
    kir::elideRedundantBarriers(Body, /*IsKernelTopLevel=*/true);
    kir::cseIndexes(Body);
    return true;
  }
  // Dead spill pairs and empty phases were already handled per phase at
  // closePhase(); CSE runs per straight phase (each is its own scope).
  std::function<void(std::vector<PhaseNode> &)> Walk =
      [&](std::vector<PhaseNode> &Nodes) {
        for (PhaseNode &N : Nodes) {
          if (N.K == PhaseNode::Straight)
            kir::cseIndexes(N.Body);
          else
            Walk(N.Children);
        }
      };
  Walk(Program.Nodes);
  return true;
}

bool Lowerer::verifyKernel() {
  kir::VerifyOptions Opts;
  Opts.DefinedVars = {"_bx", "_by", "_bz", "_tx", "_ty", "_tz", "_lin"};
  Opts.Buffers = BufferSpaces;
  Opts.CheckBuffers = true;

  std::string Err;
  if (B == LowerTarget::Cuda) {
    Opts.AllowBarriers = true;
    if (!kir::verify(Body, Opts, Err))
      return fail("internal: kir verify: " + Err);
    return true;
  }
  // Phase bodies carry no barriers (the boundary is the barrier); phases
  // under a PhaseLoop additionally see the loop variables.
  Opts.AllowBarriers = false;
  std::function<bool(const std::vector<PhaseNode> &,
                     std::vector<std::string> &)>
      Walk = [&](const std::vector<PhaseNode> &Nodes,
                 std::vector<std::string> &Enclosing) -> bool {
    for (const PhaseNode &N : Nodes) {
      if (N.K == PhaseNode::Straight) {
        kir::VerifyOptions PhaseOpts = Opts;
        PhaseOpts.DefinedVars.insert(PhaseOpts.DefinedVars.end(),
                                     Enclosing.begin(), Enclosing.end());
        if (!kir::verify(N.Body, PhaseOpts, Err))
          return fail("internal: kir verify: " + Err);
        continue;
      }
      Enclosing.push_back(N.Var);
      bool Ok = Walk(N.Children, Enclosing);
      Enclosing.pop_back();
      if (!Ok)
        return false;
    }
    return true;
  };
  std::vector<std::string> Enclosing;
  return Walk(Program.Nodes, Enclosing);
}

bool Lowerer::runKernel(const FnDef &Fn) {
  Program.clear();
  Body.clear();
  SharedDecls.clear();
  SharedBytes = 0;
  LocalBytesPerThread = 0;
  Syms.clear();
  Scopes.clear();
  LiveLocals.clear();
  NextLocalUid = 0;
  ListStack.clear();
  PhaseBuf.clear();
  NodeStack.clear();
  NodeStack.push_back(&Program.Nodes);
  ListStack.push_back(B == LowerTarget::Sim ? &PhaseBuf : &Body);
  LoopDepth = 0;
  BufferSpaces.clear();

  auto Threads = Fn.Exec.BlockDim.total().evaluate({});
  if (!Threads)
    return fail("kernel block dimensions must be concrete; instantiate "
                "generic sizes first (--define)");
  ThreadsPerBlock = *Threads;

  // Coordinate bounds for the schedule passes: each raw coordinate ranges
  // over [0, extent) of its axis.
  CoordBounds.clear();
  SchedStats = kir::ScheduleStats{};
  auto NoteAxis = [&](const char *Var, const Nat &Extent) {
    if (Extent.isNull())
      return;
    if (auto V = Extent.evaluate({}))
      CoordBounds[Var] = *V;
  };
  NoteAxis("_bx", Fn.Exec.GridDim.X);
  NoteAxis("_by", Fn.Exec.GridDim.Y);
  NoteAxis("_bz", Fn.Exec.GridDim.Z);
  NoteAxis("_tx", Fn.Exec.BlockDim.X);
  NoteAxis("_ty", Fn.Exec.BlockDim.Y);
  NoteAxis("_tz", Fn.Exec.BlockDim.Z);
  CoordBounds["_lin"] = (long long)ThreadsPerBlock;

  pushScope();
  ExecResource Grid =
      ExecResource::gpuGrid(Fn.ExecName, Fn.Exec.GridDim, Fn.Exec.BlockDim);
  Sym ExecSym;
  ExecSym.K = Sym::ExecVar;
  ExecSym.CppName = Fn.ExecName;
  ExecSym.Exec = Grid;
  bind(Fn.ExecName, std::move(ExecSym));
  CurExec = Grid;

  for (const FnParam &P : Fn.Params) {
    const auto *Ref = dyn_cast<RefType>(P.Ty.get());
    if (!Ref)
      return fail("kernel parameters must be references to global "
                  "memory: " +
                  P.Name);
    std::vector<Nat> Dims;
    ScalarKind Elem = ScalarKind::F64;
    if (!arrayNest(Ref->Pointee, Dims, Elem))
      return fail("kernel parameter must reference an array of scalars: " +
                  P.Name);
    Sym S;
    S.K = Sym::GlobalBuf;
    S.CppName = P.Name;
    S.Elem = Elem;
    S.Dims = std::move(Dims);
    S.Uniq = Ref->Own == Ownership::Uniq;
    BufferSpaces[P.Name] = kir::MemSpace::Global;
    bind(P.Name, std::move(S));
  }

  bool Ok = Fn.Body ? genStmt(*Fn.Body) : true;
  popScope();
  if (!Ok)
    return false;

  if (B == LowerTarget::Sim) {
    // Close the trailing phase; a bare reload preamble left over from a
    // loop edge is dead at kernel end. Keep at least one phase so an
    // empty kernel still launches with a well-formed (no-op) program.
    if (phaseHasContent())
      closePhase();
    PhaseBuf.clear();
    if (Program.Nodes.empty())
      closePhase(/*KeepEmpty=*/true);
  }

  return runPasses() && verifyKernel();
}
