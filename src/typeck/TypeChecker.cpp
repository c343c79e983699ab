//===- typeck/TypeChecker.cpp - Flow-sensitive checking ---------------------===//

#include "typeck/TypeChecker.h"

#include "support/SourceManager.h"
#include "support/StringUtils.h"

#include <cassert>

using namespace descend;

namespace {

/// A local binding: program variables, sched/split execution-resource
/// binders and for-nat loop variables share the scope mechanism.
struct VarInfo {
  std::string Name;
  unsigned BindingId = 0;
  unsigned ScopeDepth = 0;
  TypeRef Ty;
  bool Moved = false;

  // Execution resource at the binding site: determines which foralls a
  // unique access must discharge by selection (narrowing).
  ExecResource OwnerExec = ExecResource::cpuThread();

  // Exec binders (sched/split arms, the function's grid).
  bool IsExecVar = false;
  ExecResource Exec = ExecResource::cpuThread();
  // Ops the binder added relative to its sched target (selections over
  // this binder discharge exactly these).
  unsigned OpsBegin = 0, OpsEnd = 0;
  std::vector<Axis> SchedAxes;       // in sched order
  std::vector<Nat> SelectExtents;    // extent per sched axis

  // For-nat loop variables.
  bool IsNatVar = false;
  Nat LoopLo, LoopHi; // i in [LoopLo, LoopHi)
  Nat ConstVal;       // set while the loop is unrolled iteration by iteration
};

/// One entry of the access environment A (plus active borrows, which are
/// the Γl borrow part folded into the same conflict check).
struct AccessRecord {
  ExecResource Exec = ExecResource::cpuThread();
  PlacePath Path;
  Ownership Mode = Ownership::Shrd;
  SourceRange Range;
  bool IsBorrow = false;
  bool StatementTemporary = false; // borrow for the duration of a call
  unsigned ScopeDepth = 0;
};

} // namespace

struct TypeChecker::Impl {
  const SourceManager &SM;
  DiagnosticEngine &Diags;
  TypeCheckInfo &Info;

  Module *Mod = nullptr;
  ViewRegistry Views;

  // Scoping.
  std::map<std::string, std::vector<VarInfo>> VarStacks;
  std::vector<std::vector<std::string>> Scopes;
  unsigned NextBindingId = 1;

  // Access environment A + borrows.
  std::vector<AccessRecord> Accesses;

  // Current function context.
  const FnDef *CurFn = nullptr;
  ExecResource CurExec = ExecResource::cpuThread();

  Impl(const SourceManager &SM, DiagnosticEngine &Diags, TypeCheckInfo &Info)
      : SM(SM), Diags(Diags), Info(Info) {}

  //===--------------------------------------------------------------------===//
  // Scope helpers
  //===--------------------------------------------------------------------===//

  void pushScope() { Scopes.emplace_back(); }

  void popScope() {
    assert(!Scopes.empty());
    unsigned Depth = Scopes.size();
    for (const std::string &Name : Scopes.back()) {
      auto &Stack = VarStacks[Name];
      assert(!Stack.empty());
      Stack.pop_back();
    }
    // Borrows created in this scope expire with it.
    std::erase_if(Accesses, [&](const AccessRecord &R) {
      return R.IsBorrow && R.ScopeDepth >= Depth;
    });
    Scopes.pop_back();
  }

  VarInfo &bind(VarInfo Info) {
    assert(!Scopes.empty());
    Info.BindingId = NextBindingId++;
    Info.ScopeDepth = Scopes.size();
    Scopes.back().push_back(Info.Name);
    auto &Stack = VarStacks[Info.Name];
    Stack.push_back(std::move(Info));
    return Stack.back();
  }

  VarInfo *lookup(const std::string &Name) {
    auto It = VarStacks.find(Name);
    if (It == VarStacks.end() || It->second.empty())
      return nullptr;
    return &It->second.back();
  }

  //===--------------------------------------------------------------------===//
  // Small utilities
  //===--------------------------------------------------------------------===//

  bool isIntegerType(const TypeRef &T) const {
    const auto *S = dyn_cast_if_present<ScalarType>(T.get());
    if (!S)
      return false;
    switch (S->Scalar) {
    case ScalarKind::I32:
    case ScalarKind::I64:
    case ScalarKind::U32:
    case ScalarKind::U64:
      return true;
    default:
      return false;
    }
  }

  bool isNumericType(const TypeRef &T) const {
    const auto *S = dyn_cast_if_present<ScalarType>(T.get());
    if (!S)
      return false;
    return S->Scalar != ScalarKind::Bool && S->Scalar != ScalarKind::Unit;
  }

  /// Converts an index expression into a Nat when it is built from
  /// literals, for-nat loop variables and arithmetic. Null otherwise.
  Nat exprToNat(const Expr &E) {
    switch (E.kind()) {
    case ExprKind::Literal: {
      const auto *L = cast<LiteralExpr>(&E);
      if (L->Scalar == ScalarKind::F32 || L->Scalar == ScalarKind::F64 ||
          L->Scalar == ScalarKind::Bool || L->Scalar == ScalarKind::Unit)
        return Nat();
      return Nat::lit(L->IntValue);
    }
    case ExprKind::PlaceVar: {
      const auto *V = cast<PlaceVar>(&E);
      if (const VarInfo *I = lookup(V->Name); I && I->IsNatVar)
        return I->ConstVal ? I->ConstVal : Nat::var(V->Name);
      return Nat();
    }
    case ExprKind::Binary: {
      const auto *B = cast<BinaryExpr>(&E);
      Nat L = exprToNat(*B->Lhs);
      Nat R = exprToNat(*B->Rhs);
      if (!L || !R)
        return Nat();
      switch (B->Op) {
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

  /// Substitutes in-scope unrolled loop constants (iteration values) into
  /// \p N: split positions and view arguments become concrete per
  /// iteration.
  Nat resolveNat(Nat N) {
    if (!N)
      return N;
    std::vector<std::string> Vars;
    N.collectVars(Vars);
    std::map<std::string, Nat> Subst;
    for (const std::string &V : Vars)
      if (const VarInfo *I = lookup(V); I && I->IsNatVar && I->ConstVal)
        Subst[V] = I->ConstVal;
    return Subst.empty() ? N : N.substitute(Subst).simplified();
  }

  /// Substitutes every in-scope for-nat loop variable by its maximal value
  /// (Hi - 1). Used for conservative upper-bound reasoning.
  Nat substituteLoopMaxima(Nat N) {
    std::vector<std::string> Vars;
    N.collectVars(Vars);
    std::map<std::string, Nat> Subst;
    for (const std::string &V : Vars)
      if (const VarInfo *I = lookup(V); I && I->IsNatVar && I->LoopHi)
        Subst[V] = Nat::sub(I->LoopHi, Nat::lit(1));
    return Subst.empty() ? N : N.substitute(Subst);
  }

  //===--------------------------------------------------------------------===//
  // access_safety_check (Fig. 7)
  //===--------------------------------------------------------------------===//

  /// Step 1: narrowing. A unique access must select a distinct part for
  /// every forall level between the owner's exec and the current exec.
  /// Additionally, on the GPU every axis of the hierarchy must actually be
  /// scheduled (or have extent 1): an axis never descended over means the
  /// same instruction executes once per instance along it, so a unique
  /// access would be duplicated.
  bool narrowingCheck(const PlacePath &Path, const VarInfo &Root,
                      SourceRange Range) {
    if (CurExec.isGpu()) {
      for (unsigned Stage = 0; Stage != 2; ++Stage) {
        const Dim &D = Stage == 0 ? CurExec.gridDim() : CurExec.blockDim();
        for (Axis A : {Axis::X, Axis::Y, Axis::Z}) {
          if (!D.hasAxis(A))
            continue;
          Nat Remaining = CurExec.remainingExtent(Stage, A);
          if (Remaining.isNull()) // consumed by forall
            continue;
          if (Nat::proveEq(Remaining, Nat::lit(1)))
            continue;
          Diags
              .error(DiagCode::NarrowingViolated, Range,
                     strfmt("narrowing violated: unique access to `%s` is "
                            "collectively performed by %s instances along "
                            "the unscheduled %s dimension",
                            Path.str().c_str(), Remaining.str().c_str(),
                            axisName(A)))
              .note(strfmt("schedule over %s first (sched(%s) ...)",
                           axisName(A), axisName(A)));
          return false;
        }
      }
    }
    unsigned OwnerOps = Root.OwnerExec.numOps();
    const auto &Ops = CurExec.ops();
    for (unsigned I = OwnerOps; I < Ops.size(); ++I) {
      if (Ops[I].Kind != ExecOpKind::Forall)
        continue;
      // Extent-1 foralls have a single instance and need no selection.
      if (Ops[I].Extent && Nat::proveEq(Ops[I].Extent, Nat::lit(1)))
        continue;
      bool Discharged = false;
      for (const PlaceStep &S : Path.Steps)
        if (S.Kind == PlaceStepKind::Select && S.ExecOpsBegin <= I &&
            I < S.ExecOpsEnd) {
          Discharged = true;
          break;
        }
      if (!Discharged) {
        Diags
            .error(DiagCode::NarrowingViolated, Range,
                   strfmt("narrowing violated: unique access to `%s` is "
                          "shared by all instances of `forall(%s)`",
                          Path.str().c_str(), axisName(Ops[I].Ax)))
            .note(strfmt("each of the %s instances at this level of the "
                         "execution hierarchy would gain unique access to "
                         "the same memory; select a distinct part per "
                         "instance",
                         Ops[I].Extent ? Ops[I].Extent.str().c_str() : "?"));
        return false;
      }
    }
    return true;
  }

  /// Steps 2 and 3: conflicts with recorded accesses and active borrows.
  bool conflictCheck(const PlacePath &Path, Ownership Mode,
                     SourceRange Range) {
    for (const AccessRecord &R : Accesses) {
      if (Mode == Ownership::Shrd && R.Mode == Ownership::Shrd)
        continue;
      PlaceRelation Rel = comparePlaces(Path, R.Path);
      if (Rel == PlaceRelation::Disjoint)
        continue;
      if (Rel == PlaceRelation::Equal && !R.IsBorrow)
        continue; // same per-instance access set; ordered by program order
      if (Rel == PlaceRelation::Equal && R.IsBorrow &&
          ExecResource::equal(R.Exec, CurExec) &&
          !(Mode == Ownership::Uniq || R.Mode == Ownership::Uniq))
        continue;
      if (R.IsBorrow) {
        Diags
            .error(DiagCode::ConflictingBorrow, Range,
                   strfmt("cannot access `%s` while `%s` is borrowed%s",
                          Path.str().c_str(), R.Path.str().c_str(),
                          R.Mode == Ownership::Uniq ? " uniquely" : ""))
            .note(R.Range, "borrow occurs here");
        return false;
      }
      Diags
          .error(DiagCode::ConflictingMemoryAccess, Range,
                 "conflicting memory access")
          .note(R.Range, strfmt("cannot select memory because of a "
                                "conflicting prior selection here: `%s`",
                                R.Path.str().c_str()));
      return false;
    }
    return true;
  }

  void recordAccess(PlacePath Path, Ownership Mode, SourceRange Range,
                    bool IsBorrow, bool StatementTemporary) {
    AccessRecord R;
    R.Exec = CurExec;
    R.Path = std::move(Path);
    R.Mode = Mode;
    R.Range = Range;
    R.IsBorrow = IsBorrow;
    R.StatementTemporary = StatementTemporary;
    R.ScopeDepth = Scopes.size();
    Accesses.push_back(std::move(R));
  }

  //===--------------------------------------------------------------------===//
  // Place typing (Fig. 3 / T-Read / T-Write)
  //===--------------------------------------------------------------------===//

  struct PlaceResult {
    TypeRef Ty;
    PlacePath Path;
    const VarInfo *Root = nullptr;
    bool ThroughSharedRef = false; // any deref of a non-unique reference
    bool ThroughBroadcast = false; // any repeat view in the chain
  };

  /// Flattens the place into root-to-leaf order.
  static std::vector<const PlaceExpr *> placeChain(const PlaceExpr &P) {
    std::vector<const PlaceExpr *> Chain;
    for (const PlaceExpr *Cur = &P; Cur; Cur = basePlace(Cur))
      Chain.push_back(Cur);
    std::reverse(Chain.begin(), Chain.end());
    return Chain;
  }

  /// Inserts the implicit dereference steps the surface syntax omits
  /// (views/selections/indices apply through references and boxes, as in
  /// `input.group_by_tile::<32,32>` where input is a reference).
  bool autoDeref(PlaceResult &R, SourceRange Range) {
    while (true) {
      if (const auto *Ref = dyn_cast_if_present<RefType>(R.Ty.get())) {
        if (!checkDerefContext(Ref->Mem, R.Path, Range))
          return false;
        if (Ref->Own == Ownership::Shrd)
          R.ThroughSharedRef = true;
        R.Path.Steps.push_back(PlaceStep::deref());
        R.Ty = Ref->Pointee;
        continue;
      }
      if (const auto *Box = dyn_cast_if_present<BoxType>(R.Ty.get())) {
        if (!checkDerefContext(Box->Mem, R.Path, Range))
          return false;
        R.Path.Steps.push_back(PlaceStep::deref());
        R.Ty = Box->Elem;
        continue;
      }
      return true;
    }
  }

  /// The separated-memories check of Section 3.4: dereferencing requires
  /// the matching execution context.
  bool checkDerefContext(const Memory &Mem, const PlacePath &Path,
                         SourceRange Range) {
    bool OnGpu = CurExec.isGpu();
    if (Mem.Kind == MemoryKind::CpuMem && OnGpu) {
      Diags
          .error(DiagCode::CannotDereference, Range,
                 strfmt("cannot dereference `%s` pointing to `cpu.mem`",
                        Path.str().c_str()))
          .note(strfmt("executed by `%s`", CurExec.str().c_str()))
          .note("dereferencing pointer in `cpu.mem` memory");
      return false;
    }
    if (Mem.isGpu() && !OnGpu) {
      Diags
          .error(DiagCode::CannotDereference, Range,
                 strfmt("cannot dereference `%s` pointing to `%s` on the CPU",
                        Path.str().c_str(), Mem.str().c_str()))
          .note("GPU memory is only accessible from GPU code");
      return false;
    }
    return true;
  }

  /// Types a place expression, building the resolved path. Does not record
  /// an access; the callers decide the mode (read/write/borrow).
  std::optional<PlaceResult> typePlace(const PlaceExpr &P) {
    std::vector<const PlaceExpr *> Chain = placeChain(P);
    PlaceResult R;

    for (const PlaceExpr *StepExpr : Chain) {
      switch (StepExpr->kind()) {
      case ExprKind::PlaceVar: {
        const auto *V = cast<PlaceVar>(StepExpr);
        VarInfo *I = lookup(V->Name);
        if (!I) {
          Diags.error(DiagCode::UnknownVariable, V->Range,
                      strfmt("unknown variable `%s`", V->Name.c_str()));
          return std::nullopt;
        }
        if (I->IsExecVar) {
          Diags.error(DiagCode::MismatchedTypes, V->Range,
                      strfmt("`%s` is an execution resource, not a value",
                             V->Name.c_str()));
          return std::nullopt;
        }
        if (I->Moved) {
          Diags
              .error(DiagCode::UseOfMovedValue, V->Range,
                     strfmt("use of moved value `%s`", V->Name.c_str()))
              .note("ownership was transferred earlier; copying is only "
                    "allowed for copyable data types");
          return std::nullopt;
        }
        if (I->IsNatVar) {
          // Loop variables read as i32 values.
          R.Ty = makeScalar(ScalarKind::I32);
          R.Path.Root = V->Name;
          R.Path.RootBindingId = I->BindingId;
          R.Root = I;
          break;
        }
        R.Ty = I->Ty;
        R.Path.Root = V->Name;
        R.Path.RootBindingId = I->BindingId;
        R.Root = I;
        break;
      }
      case ExprKind::PlaceProj: {
        const auto *Proj = cast<PlaceProj>(StepExpr);
        if (!autoDeref(R, Proj->Range))
          return std::nullopt;
        const auto *T = dyn_cast_if_present<TupleType>(R.Ty.get());
        if (!T || T->Elems.size() < 2) {
          Diags.error(DiagCode::NotATuple, Proj->Range,
                      strfmt("`%s` is not a tuple",
                             R.Path.str().c_str()));
          return std::nullopt;
        }
        R.Ty = T->Elems[Proj->Which];
        R.Path.Steps.push_back(PlaceStep::proj(Proj->Which));
        break;
      }
      case ExprKind::PlaceDeref: {
        const auto *D = cast<PlaceDeref>(StepExpr);
        if (const auto *Ref = dyn_cast_if_present<RefType>(R.Ty.get())) {
          if (!checkDerefContext(Ref->Mem, R.Path, D->Range))
            return std::nullopt;
          if (Ref->Own == Ownership::Shrd)
            R.ThroughSharedRef = true;
          R.Ty = Ref->Pointee;
          R.Path.Steps.push_back(PlaceStep::deref());
          break;
        }
        if (const auto *Box = dyn_cast_if_present<BoxType>(R.Ty.get())) {
          if (!checkDerefContext(Box->Mem, R.Path, D->Range))
            return std::nullopt;
          R.Ty = Box->Elem;
          R.Path.Steps.push_back(PlaceStep::deref());
          break;
        }
        Diags.error(DiagCode::NotAReference, D->Range,
                    strfmt("cannot dereference non-reference `%s`",
                           R.Path.str().c_str()));
        return std::nullopt;
      }
      case ExprKind::PlaceIndex: {
        const auto *Idx = cast<PlaceIndex>(StepExpr);
        if (!autoDeref(R, Idx->Range))
          return std::nullopt;
        TypeRef Elem;
        Nat Size;
        if (const auto *A = dyn_cast_if_present<ArrayType>(R.Ty.get())) {
          Elem = A->Elem;
          Size = A->Size;
        } else if (const auto *A =
                       dyn_cast_if_present<ArrayViewType>(R.Ty.get())) {
          Elem = A->Elem;
          Size = A->Size;
        } else {
          Diags.error(DiagCode::NotAnArray, Idx->Range,
                      strfmt("`%s` is not an array", R.Path.str().c_str()));
          return std::nullopt;
        }
        // Type the index expression (records reads of loop vars etc.).
        TypeRef IdxTy = checkExpr(*Idx->Index);
        if (IdxTy && !isIntegerType(IdxTy)) {
          Diags.error(DiagCode::MismatchedTypes, Idx->Index->Range,
                      strfmt("array index must be an integer, found `%s`",
                             IdxTy->str().c_str()));
          return std::nullopt;
        }
        Nat IdxNat = resolveNat(exprToNat(*Idx->Index));
        if (IdxNat) {
          // Conservative bounds check: substitute loop maxima.
          Nat MaxIdx = substituteLoopMaxima(IdxNat);
          auto InBounds = Nat::proveLt(MaxIdx, Size);
          if (!InBounds || !*InBounds) {
            Diags
                .error(DiagCode::NatCannotProve, Idx->Range,
                       strfmt("cannot prove index `%s` within array bound "
                              "`%s`",
                              IdxNat.str().c_str(), Size.str().c_str()))
                .note("indices must be statically provable in range");
            return std::nullopt;
          }
        }
        R.Ty = Elem;
        R.Path.Steps.push_back(
            PlaceStep::index(IdxNat, exprToString(*Idx->Index)));
        break;
      }
      case ExprKind::PlaceSelect: {
        const auto *Sel = cast<PlaceSelect>(StepExpr);
        if (!autoDeref(R, Sel->Range))
          return std::nullopt;
        VarInfo *ExecVar = lookup(Sel->ExecName);
        if (!ExecVar || !ExecVar->IsExecVar) {
          Diags.error(DiagCode::UnknownVariable, Sel->Range,
                      strfmt("`%s` is not an execution resource in scope",
                             Sel->ExecName.c_str()));
          return std::nullopt;
        }
        if (ExecVar->SchedAxes.empty()) {
          Diags.error(DiagCode::SelectShapeMismatch, Sel->Range,
                      strfmt("cannot select with `%s`: it was not bound by "
                             "sched",
                             Sel->ExecName.c_str()));
          return std::nullopt;
        }
        if (!ExecResource::isPrefixOf(ExecVar->Exec, CurExec)) {
          Diags.error(DiagCode::SelectShapeMismatch, Sel->Range,
                      strfmt("`%s` does not execute this code",
                             Sel->ExecName.c_str()));
          return std::nullopt;
        }
        // Consume one array dimension per sched axis, checking extents.
        for (size_t K = 0; K != ExecVar->SchedAxes.size(); ++K) {
          TypeRef Elem;
          Nat Size;
          if (const auto *A = dyn_cast_if_present<ArrayType>(R.Ty.get())) {
            Elem = A->Elem;
            Size = A->Size;
          } else if (const auto *A =
                         dyn_cast_if_present<ArrayViewType>(R.Ty.get())) {
            Elem = A->Elem;
            Size = A->Size;
          } else {
            Diags.error(DiagCode::SelectShapeMismatch, Sel->Range,
                        strfmt("selection by `%s` needs %zu array "
                               "dimensions, found `%s`",
                               Sel->ExecName.c_str(),
                               ExecVar->SchedAxes.size(),
                               R.Ty ? R.Ty->str().c_str() : "<error>"));
            return std::nullopt;
          }
          const Nat &Expected = ExecVar->SelectExtents[K];
          if (!Nat::proveEq(Size, Expected)) {
            Diags
                .error(DiagCode::SelectShapeMismatch, Sel->Range,
                       strfmt("selection by `%s` along %s expects %s "
                              "elements, found %s",
                              Sel->ExecName.c_str(),
                              axisName(ExecVar->SchedAxes[K]),
                              Expected.str().c_str(), Size.str().c_str()))
                .note("the execution resource must consist of as many "
                      "sub-resources as there are array elements");
            return std::nullopt;
          }
          R.Ty = Elem;
        }
        Info.SelectAxes[Sel] = ExecVar->SchedAxes;
        Info.SelectStage[Sel] =
            ExecVar->OpsBegin < ExecVar->Exec.ops().size()
                ? ExecVar->Exec.ops()[ExecVar->OpsBegin].Stage
                : 0;
        R.Path.Steps.push_back(
            PlaceStep::select(Sel->ExecName, ExecVar->Exec.str(),
                              ExecVar->OpsBegin, ExecVar->OpsEnd));
        break;
      }
      case ExprKind::PlaceView: {
        const auto *View = cast<PlaceView>(StepExpr);
        if (!autoDeref(R, View->Range))
          return std::nullopt;
        std::string Err;
        std::vector<Nat> ViewArgs;
        ViewArgs.reserve(View->NatArgs.size());
        for (const Nat &A : View->NatArgs)
          ViewArgs.push_back(resolveNat(A));
        auto Chain = Views.resolve(View->ViewName, ViewArgs, &Err);
        if (!Chain) {
          Diags.error(DiagCode::UnknownView, View->Range, Err);
          return std::nullopt;
        }
        TypeRef Out = ViewRegistry::applyChainToType(*Chain, R.Ty, &Err);
        if (!Out) {
          Diags.error(DiagCode::ViewSideConditionFailed, View->Range, Err);
          return std::nullopt;
        }
        Info.Views[View] = *Chain;
        for (const auto &Prim : *Chain)
          if (Prim.isBroadcasting())
            R.ThroughBroadcast = true;
        R.Ty = Out;
        R.Path.Steps.push_back(PlaceStep::view(viewChainStr(*Chain)));
        break;
      }
      default:
        assert(false && "not a place expression");
        return std::nullopt;
      }
    }
    return R;
  }

  /// Reads a place as an rvalue (T-Read-By-Copy / move).
  TypeRef readPlace(const PlaceExpr &P) {
    auto R = typePlace(P);
    if (!R)
      return nullptr;
    if (!R->Ty)
      return nullptr;
    if (R->Root->IsNatVar)
      return R->Ty; // loop counters are pure values

    if (!R->Ty->isCopyable()) {
      // Moving is only allowed for whole variables.
      if (!R->Path.Steps.empty()) {
        Diags
            .error(DiagCode::CannotMoveOut, P.Range,
                   strfmt("cannot move out of `%s`", R->Path.str().c_str()))
            .note("only whole variables can be moved; borrow instead");
        return nullptr;
      }
      if (!conflictCheck(R->Path, Ownership::Uniq, P.Range))
        return nullptr;
      VarInfo *I = lookup(R->Path.Root);
      assert(I && "root variable disappeared");
      I->Moved = true;
      return R->Ty;
    }
    if (!conflictCheck(R->Path, Ownership::Shrd, P.Range))
      return nullptr;
    recordAccess(R->Path, Ownership::Shrd, P.Range, /*IsBorrow=*/false,
                 /*StatementTemporary=*/false);
    return R->Ty;
  }

  /// Writes to a place (T-Write).
  bool writePlace(const PlaceExpr &P, const TypeRef &ValueTy,
                  SourceRange Range) {
    auto R = typePlace(P);
    if (!R)
      return false;
    if (R->Root->IsNatVar || R->Root->IsExecVar) {
      Diags.error(DiagCode::CannotAssign, Range,
                  strfmt("cannot assign to `%s`", R->Path.Root.c_str()));
      return false;
    }
    if (R->ThroughSharedRef) {
      Diags
          .error(DiagCode::SharedWriteRejected, Range,
                 strfmt("cannot write to `%s` through a shared reference",
                        R->Path.str().c_str()))
          .note("only unique references (&uniq) permit writing");
      return false;
    }
    if (R->ThroughBroadcast) {
      Diags
          .error(DiagCode::SharedWriteRejected, Range,
                 strfmt("cannot write to `%s` through a broadcasting view",
                        R->Path.str().c_str()))
          .note("repeat views alias every copy onto the same memory");
      return false;
    }
    if (ValueTy && R->Ty && !DataType::equal(R->Ty, ValueTy)) {
      Diags.error(DiagCode::MismatchedTypes, Range,
                  strfmt("mismatched types: expected `%s`, found `%s`",
                         R->Ty->str().c_str(), ValueTy->str().c_str()));
      return false;
    }
    if (!narrowingCheck(R->Path, *R->Root, Range))
      return false;
    if (!conflictCheck(R->Path, Ownership::Uniq, Range))
      return false;
    recordAccess(R->Path, Ownership::Uniq, Range, /*IsBorrow=*/false,
                 /*StatementTemporary=*/false);
    return true;
  }

  /// &p / &uniq p.
  TypeRef borrowPlace(const BorrowExpr &B, bool StatementTemporary) {
    auto R = typePlace(*B.Place);
    if (!R || !R->Ty)
      return nullptr;
    if (B.Own == Ownership::Uniq && R->ThroughSharedRef) {
      Diags.error(DiagCode::SharedWriteRejected, B.Range,
                  strfmt("cannot borrow `%s` uniquely through a shared "
                         "reference",
                         R->Path.str().c_str()));
      return nullptr;
    }
    if (B.Own == Ownership::Uniq &&
        !narrowingCheck(R->Path, *R->Root, B.Range))
      return nullptr;
    if (!conflictCheck(R->Path, B.Own, B.Range))
      return nullptr;

    // Memory space of the borrowed place: unwrap boxes; otherwise the
    // variable's own storage (CPU stack/heap or GPU shared allocation).
    Memory Mem = Memory::cpuMem();
    TypeRef Pointee = R->Ty;
    if (const auto *Box = dyn_cast<BoxType>(R->Ty.get())) {
      Mem = Box->Mem;
      Pointee = Box->Elem;
    } else if (CurExec.isGpu()) {
      Mem = Memory::gpuShared();
    }
    recordAccess(R->Path, B.Own, B.Range, /*IsBorrow=*/true,
                 StatementTemporary);
    return makeRef(B.Own, Mem, Pointee);
  }

  //===--------------------------------------------------------------------===//
  // Expressions
  //===--------------------------------------------------------------------===//

  TypeRef checkExpr(Expr &E) {
    TypeRef Ty = checkExprImpl(E);
    E.Ty = Ty;
    return Ty;
  }

  TypeRef checkExprImpl(Expr &E) {
    switch (E.kind()) {
    case ExprKind::PlaceVar:
    case ExprKind::PlaceProj:
    case ExprKind::PlaceDeref:
    case ExprKind::PlaceIndex:
    case ExprKind::PlaceSelect:
    case ExprKind::PlaceView:
      return readPlace(*cast<PlaceExpr>(&E));

    case ExprKind::Literal: {
      const auto *L = cast<LiteralExpr>(&E);
      return makeScalar(L->Scalar);
    }

    case ExprKind::Binary: {
      auto *B = cast<BinaryExpr>(&E);
      TypeRef L = checkExpr(*B->Lhs);
      TypeRef R = checkExpr(*B->Rhs);
      if (!L || !R)
        return nullptr;
      switch (B->Op) {
      case BinOpKind::Add:
      case BinOpKind::Sub:
      case BinOpKind::Mul:
      case BinOpKind::Div:
      case BinOpKind::Mod:
        if (!isNumericType(L) || !DataType::equal(L, R)) {
          Diags.error(DiagCode::MismatchedTypes, E.Range,
                      strfmt("mismatched operand types `%s` and `%s`",
                             L->str().c_str(), R->str().c_str()));
          return nullptr;
        }
        // `%` has no floating-point meaning in any backend (C++ rejects
        // it, the vm has no float modulo).
        if (B->Op == BinOpKind::Mod && !isIntegerType(L)) {
          Diags.error(DiagCode::MismatchedTypes, E.Range,
                      strfmt("`%%` requires integer operands, found `%s`",
                             L->str().c_str()));
          return nullptr;
        }
        return L;
      case BinOpKind::Eq:
      case BinOpKind::Ne:
      case BinOpKind::Lt:
      case BinOpKind::Le:
      case BinOpKind::Gt:
      case BinOpKind::Ge:
        if (!DataType::equal(L, R)) {
          Diags.error(DiagCode::MismatchedTypes, E.Range,
                      strfmt("mismatched operand types `%s` and `%s`",
                             L->str().c_str(), R->str().c_str()));
          return nullptr;
        }
        return makeScalar(ScalarKind::Bool);
      case BinOpKind::And:
      case BinOpKind::Or: {
        TypeRef BoolTy = makeScalar(ScalarKind::Bool);
        if (!DataType::equal(L, BoolTy) || !DataType::equal(R, BoolTy)) {
          Diags.error(DiagCode::MismatchedTypes, E.Range,
                      "logical operators require bool operands");
          return nullptr;
        }
        return BoolTy;
      }
      }
      return nullptr;
    }

    case ExprKind::Unary: {
      auto *U = cast<UnaryExpr>(&E);
      TypeRef S = checkExpr(*U->Sub);
      if (!S)
        return nullptr;
      if (U->Op == UnOpKind::Neg && !isNumericType(S)) {
        Diags.error(DiagCode::MismatchedTypes, E.Range,
                    "negation requires a numeric operand");
        return nullptr;
      }
      if (U->Op == UnOpKind::Not &&
          !DataType::equal(S, makeScalar(ScalarKind::Bool))) {
        Diags.error(DiagCode::MismatchedTypes, E.Range,
                    "logical not requires a bool operand");
        return nullptr;
      }
      return S;
    }

    case ExprKind::Borrow:
      return borrowPlace(*cast<BorrowExpr>(&E), /*StatementTemporary=*/true);

    case ExprKind::Let: {
      auto *L = cast<LetExpr>(&E);
      bool InitIsBorrow = isa<BorrowExpr>(L->Init.get());
      TypeRef InitTy =
          InitIsBorrow
              ? borrowPlace(*cast<BorrowExpr>(L->Init.get()),
                            /*StatementTemporary=*/false)
              : checkExpr(*L->Init);
      if (InitIsBorrow)
        L->Init->Ty = InitTy;
      if (!InitTy)
        return nullptr;
      if (L->Annotation && !DataType::equal(L->Annotation, InitTy)) {
        Diags.error(DiagCode::MismatchedTypes, E.Range,
                    strfmt("mismatched types: expected `%s`, found `%s`",
                           L->Annotation->str().c_str(),
                           InitTy->str().c_str()));
        return nullptr;
      }
      VarInfo V;
      V.Name = L->Name;
      V.Ty = L->Annotation ? L->Annotation : InitTy;
      V.OwnerExec = CurExec;
      bind(std::move(V));
      return makeUnit();
    }

    case ExprKind::Assign: {
      auto *A = cast<AssignExpr>(&E);
      // T-Write: the term is typed first, then the place (the paper's
      // "conflicting prior selection" points at the right-hand side).
      TypeRef ValTy = checkExpr(*A->Rhs);
      if (!ValTy)
        return nullptr;
      if (!writePlace(*A->Lhs, ValTy, E.Range))
        return nullptr;
      A->Lhs->Ty = ValTy;
      return makeUnit();
    }

    case ExprKind::Block: {
      auto *B = cast<BlockExpr>(&E);
      pushScope();
      for (ExprPtr &S : B->Stmts) {
        checkExpr(*S);
        // Statement-temporary borrows (call arguments) expire here.
        std::erase_if(Accesses, [](const AccessRecord &R) {
          return R.IsBorrow && R.StatementTemporary;
        });
      }
      popScope();
      return makeUnit();
    }

    case ExprKind::Call:
      return checkCall(*cast<CallExpr>(&E));

    case ExprKind::Alloc: {
      const auto *A = cast<AllocExpr>(&E);
      if (A->Mem.Kind == MemoryKind::GpuShared) {
        if (!CurExec.isGpu() || CurExec.currentStage() != 1) {
          Diags
              .error(DiagCode::WrongExecutionContext, E.Range,
                     "gpu.shared memory must be allocated at block level")
              .note(strfmt("executed by `%s`", CurExec.str().c_str()));
          return nullptr;
        }
        return A->AllocTy;
      }
      if (A->Mem.Kind == MemoryKind::CpuMem) {
        if (!CurExec.isCpu()) {
          Diags.error(DiagCode::WrongExecutionContext, E.Range,
                      "cpu.mem must be allocated on the CPU");
          return nullptr;
        }
        return makeBox(A->AllocTy, Memory::cpuMem());
      }
      Diags.error(DiagCode::WrongExecutionContext, E.Range,
                  strfmt("cannot alloc in memory space `%s` directly; use "
                         "GpuGlobal::alloc_copy",
                         A->Mem.str().c_str()));
      return nullptr;
    }

    case ExprKind::ArrayInit: {
      auto *A = cast<ArrayInitExpr>(&E);
      TypeRef Elem = checkExpr(*A->Elem);
      if (!Elem)
        return nullptr;
      return makeArray(Elem, A->Count);
    }

    case ExprKind::ForEach: {
      auto *F = cast<ForEachExpr>(&E);
      // The collection is iterated by shared reference (elements are
      // copied out), not moved.
      TypeRef CollTy;
      if (auto *P = dyn_cast<PlaceExpr>(F->Collection.get())) {
        auto Res = typePlace(*P);
        if (!Res)
          return nullptr;
        if (!conflictCheck(Res->Path, Ownership::Shrd,
                           F->Collection->Range))
          return nullptr;
        recordAccess(Res->Path, Ownership::Shrd, F->Collection->Range,
                     /*IsBorrow=*/false, /*StatementTemporary=*/false);
        CollTy = Res->Ty;
        F->Collection->Ty = CollTy;
      } else {
        CollTy = checkExpr(*F->Collection);
      }
      if (!CollTy)
        return nullptr;
      TypeRef Elem;
      if (const auto *Arr = dyn_cast<ArrayType>(CollTy.get()))
        Elem = Arr->Elem;
      else if (const auto *Arr = dyn_cast<ArrayViewType>(CollTy.get()))
        Elem = Arr->Elem;
      else {
        Diags.error(DiagCode::NotAnArray, F->Collection->Range,
                    "for-each requires an array collection");
        return nullptr;
      }
      pushScope();
      VarInfo V;
      V.Name = F->Var;
      V.Ty = Elem;
      V.OwnerExec = CurExec;
      bind(std::move(V));
      checkExpr(*F->Body);
      popScope();
      return makeUnit();
    }

    case ExprKind::ForNat: {
      auto *F = cast<ForNatExpr>(&E);
      Nat Lo = resolveNat(F->Lo);
      Nat Hi = resolveNat(F->Hi);
      auto UpperOk = Nat::proveLe(Lo, Hi);
      if (!UpperOk || !*UpperOk) {
        Diags.error(DiagCode::NatCannotProve, E.Range,
                    strfmt("cannot prove loop range [%s..%s] non-empty",
                           F->Lo.str().c_str(), F->Hi.str().c_str()));
        return nullptr;
      }
      // Loops whose body synchronizes or splits the execution hierarchy
      // are unrolled iteration by iteration (the range is statically
      // evaluated, Fig. 5): split positions like n/2^i become concrete.
      if (containsSyncOrSplit(*F->Body) && Lo.isLit() && Hi.isLit() &&
          Hi.litValue() - Lo.litValue() <= 64) {
        for (long long IterV = Lo.litValue(); IterV < Hi.litValue();
             ++IterV) {
          unsigned ErrsBefore = Diags.errorCount();
          pushScope();
          VarInfo V;
          V.Name = F->Var;
          V.IsNatVar = true;
          V.LoopLo = Lo;
          V.LoopHi = Hi;
          V.ConstVal = Nat::lit(IterV);
          V.OwnerExec = CurExec;
          bind(std::move(V));
          checkExpr(*F->Body);
          popScope();
          if (Diags.errorCount() != ErrsBefore)
            break; // avoid repeating the same diagnostics per iteration
        }
        return makeUnit();
      }
      pushScope();
      VarInfo V;
      V.Name = F->Var;
      V.IsNatVar = true;
      V.LoopLo = Lo;
      V.LoopHi = Hi;
      V.OwnerExec = CurExec;
      bind(std::move(V));
      checkExpr(*F->Body);
      popScope();
      return makeUnit();
    }

    case ExprKind::Sched:
      return checkSched(*cast<SchedExpr>(&E));

    case ExprKind::Split:
      return checkSplit(*cast<SplitExpr>(&E));

    case ExprKind::Sync:
      return checkSync(E);
    }
    return nullptr;
  }

  static bool containsSyncOrSplit(Expr &E) {
    if (isa<SyncExpr>(&E) || isa<SplitExpr>(&E))
      return true;
    bool Found = false;
    forEachChild(E, [&](Expr &C) { Found = Found || containsSyncOrSplit(C); });
    return Found;
  }

  //===--------------------------------------------------------------------===//
  // Scheduling primitives
  //===--------------------------------------------------------------------===//

  TypeRef checkSched(SchedExpr &S) {
    VarInfo *Target = lookup(S.Target);
    if (!Target || !Target->IsExecVar) {
      Diags.error(DiagCode::UnknownVariable, S.Range,
                  strfmt("`%s` is not an execution resource in scope",
                         S.Target.c_str()));
      return nullptr;
    }
    if (!ExecResource::equal(Target->Exec, CurExec)) {
      Diags
          .error(DiagCode::WrongExecutionContext, S.Range,
                 strfmt("cannot schedule over `%s` here", S.Target.c_str()))
          .note(strfmt("this code is executed by `%s`, not `%s`",
                       CurExec.str().c_str(), Target->Exec.str().c_str()));
      return nullptr;
    }
    if (S.Axes.empty()) {
      Diags.error(DiagCode::ParseBadDim, S.Range,
                  "sched requires at least one axis");
      return nullptr;
    }

    ExecResource Child = Target->Exec;
    std::vector<Nat> Extents;
    for (Axis A : S.Axes) {
      std::string Err;
      Nat Extent = Child.remainingExtent(Child.currentStage(), A);
      auto Next = Child.forall(A, &Err);
      if (!Next) {
        DiagCode Code = Child.currentStage() > 1
                            ? DiagCode::SchedOverThread
                            : DiagCode::SchedOverMissingDim;
        Diags.error(Code, S.Range, Err);
        return nullptr;
      }
      Extents.push_back(Extent);
      Child = *Next;
    }
    Info.SchedExec.insert_or_assign(&S, Child);

    pushScope();
    VarInfo Binder;
    Binder.Name = S.Binder;
    Binder.IsExecVar = true;
    Binder.Exec = Child;
    Binder.OpsBegin = Target->Exec.numOps();
    Binder.OpsEnd = Child.numOps();
    Binder.SchedAxes = S.Axes;
    Binder.SelectExtents = std::move(Extents);
    Binder.OwnerExec = Target->Exec;
    bind(std::move(Binder));

    ExecResource Saved = CurExec;
    CurExec = Child;
    checkExpr(*S.Body);
    CurExec = Saved;
    popScope();
    return makeUnit();
  }

  TypeRef checkSplit(SplitExpr &S) {
    VarInfo *Target = lookup(S.Target);
    if (!Target || !Target->IsExecVar) {
      Diags.error(DiagCode::UnknownVariable, S.Range,
                  strfmt("`%s` is not an execution resource in scope",
                         S.Target.c_str()));
      return nullptr;
    }
    if (!ExecResource::equal(Target->Exec, CurExec)) {
      Diags.error(DiagCode::WrongExecutionContext, S.Range,
                  strfmt("cannot split `%s` here", S.Target.c_str()));
      return nullptr;
    }
    std::string Err;
    Nat Position = resolveNat(S.Position);
    auto Fst = Target->Exec.split(S.SplitAxis, Position, true, &Err);
    if (!Fst) {
      Diags.error(DiagCode::SplitOutOfBounds, S.Range, Err);
      return nullptr;
    }
    auto Snd = Target->Exec.split(S.SplitAxis, Position, false, &Err);
    assert(Snd && "fst split succeeded but snd failed");
    Info.SplitFstExec.insert_or_assign(&S, *Fst);
    Info.SplitSndExec.insert_or_assign(&S, *Snd);

    for (int Arm = 0; Arm != 2; ++Arm) {
      pushScope();
      VarInfo Binder;
      Binder.Name = Arm == 0 ? S.FstName : S.SndName;
      Binder.IsExecVar = true;
      Binder.Exec = Arm == 0 ? *Fst : *Snd;
      Binder.OpsBegin = Target->Exec.numOps();
      Binder.OpsEnd = Binder.Exec.numOps();
      Binder.OwnerExec = Target->Exec;
      bind(std::move(Binder));

      ExecResource Saved = CurExec;
      CurExec = Arm == 0 ? *Fst : *Snd;
      checkExpr(Arm == 0 ? *S.FstBody : *S.SndBody);
      CurExec = Saved;
      popScope();
    }
    return makeUnit();
  }

  TypeRef checkSync(Expr &E) {
    switch (CurExec.syncLegality()) {
    case ExecResource::SyncLegality::Ok:
      break;
    case ExecResource::SyncLegality::NotInBlock:
      Diags
          .error(DiagCode::BarrierNotAllowed, E.Range,
                 "barrier not allowed here")
          .note("`sync` synchronizes the threads of a single block; "
                "schedule over blocks first");
      return nullptr;
    case ExecResource::SyncLegality::InSplit:
      Diags
          .error(DiagCode::BarrierNotAllowed, E.Range,
                 "barrier not allowed here")
          .note("the block is split here; `sync` would not be performed by "
                "all threads in the block");
      return nullptr;
    }
    // Release the recorded accesses of this block's threads: memory
    // accesses before the barrier cannot conflict with accesses after it.
    ExecResource Block = CurExec.blockPrefix();
    std::erase_if(Accesses, [&](const AccessRecord &R) {
      return !R.IsBorrow && ExecResource::isPrefixOf(Block, R.Exec);
    });
    return makeUnit();
  }

  //===--------------------------------------------------------------------===//
  // Calls: builtins, user functions, kernel launches
  //===--------------------------------------------------------------------===//

  /// Structural match binding bare nat variables of the callee signature.
  bool unifyNat(const Nat &Declared, const Nat &Actual,
                std::map<std::string, Nat> &Binding) {
    if (Declared.kind() == NatKind::Var) {
      auto It = Binding.find(Declared.varName());
      if (It == Binding.end()) {
        Binding[Declared.varName()] = Actual;
        return true;
      }
      return Nat::proveEq(It->second, Actual);
    }
    Nat Substituted = Declared.substitute(Binding);
    std::vector<std::string> Free;
    Substituted.collectVars(Free);
    bool Unbound = false;
    for (const std::string &V : Free)
      if (!Binding.count(V) && !lookup(V))
        Unbound = true;
    if (Unbound)
      return true; // defer; final proveEq pass will catch mismatches
    return Nat::proveEq(Substituted, Actual);
  }

  bool unifyType(const TypeRef &Declared, const TypeRef &Actual,
                 TypeSubst &Subst) {
    if (!Declared || !Actual)
      return false;
    if (const auto *TV = dyn_cast<TypeVarType>(Declared.get())) {
      auto It = Subst.Types.find(TV->Name);
      if (It == Subst.Types.end()) {
        Subst.Types[TV->Name] = Actual;
        return true;
      }
      return DataType::equal(It->second, Actual);
    }
    if (Declared->kind() != Actual->kind())
      return false;
    switch (Declared->kind()) {
    case TypeKind::Scalar:
      return cast<ScalarType>(Declared.get())->Scalar ==
             cast<ScalarType>(Actual.get())->Scalar;
    case TypeKind::Tuple: {
      const auto *DT = cast<TupleType>(Declared.get());
      const auto *AT = cast<TupleType>(Actual.get());
      if (DT->Elems.size() != AT->Elems.size())
        return false;
      for (size_t I = 0; I != DT->Elems.size(); ++I)
        if (!unifyType(DT->Elems[I], AT->Elems[I], Subst))
          return false;
      return true;
    }
    case TypeKind::Array: {
      const auto *DA = cast<ArrayType>(Declared.get());
      const auto *AA = cast<ArrayType>(Actual.get());
      return unifyNat(DA->Size, AA->Size, Subst.Nats) &&
             unifyType(DA->Elem, AA->Elem, Subst);
    }
    case TypeKind::ArrayView: {
      const auto *DA = cast<ArrayViewType>(Declared.get());
      const auto *AA = cast<ArrayViewType>(Actual.get());
      return unifyNat(DA->Size, AA->Size, Subst.Nats) &&
             unifyType(DA->Elem, AA->Elem, Subst);
    }
    case TypeKind::Ref: {
      const auto *DR = cast<RefType>(Declared.get());
      const auto *AR = cast<RefType>(Actual.get());
      if (DR->Own != AR->Own)
        return false;
      if (DR->Mem.isVar()) {
        auto It = Subst.Mems.find(DR->Mem.Name);
        if (It == Subst.Mems.end())
          Subst.Mems[DR->Mem.Name] = AR->Mem;
        else if (!(It->second == AR->Mem))
          return false;
      } else if (!(DR->Mem == AR->Mem)) {
        return false;
      }
      return unifyType(DR->Pointee, AR->Pointee, Subst);
    }
    case TypeKind::Box: {
      const auto *DB = cast<BoxType>(Declared.get());
      const auto *AB = cast<BoxType>(Actual.get());
      if (DB->Mem.isVar()) {
        auto It = Subst.Mems.find(DB->Mem.Name);
        if (It == Subst.Mems.end())
          Subst.Mems[DB->Mem.Name] = AB->Mem;
        else if (!(It->second == AB->Mem))
          return false;
      } else if (!(DB->Mem == AB->Mem)) {
        return false;
      }
      return unifyType(DB->Elem, AB->Elem, Subst);
    }
    case TypeKind::TypeVar:
      return false; // handled above
    }
    return false;
  }

  TypeRef checkCall(CallExpr &C) {
    // Type arguments first (they record reads/borrows).
    std::vector<TypeRef> ArgTys;
    ArgTys.reserve(C.Args.size());
    for (ExprPtr &A : C.Args) {
      ArgTys.push_back(checkExpr(*A));
      if (!ArgTys.back())
        return nullptr;
    }

    if (isBuiltinName(C.Callee))
      return checkBuiltinCall(C, ArgTys);

    const FnDef *Callee = Mod->findFn(C.Callee);
    if (!Callee) {
      Diags.error(DiagCode::UnknownFunction, C.Range,
                  strfmt("unknown function `%s`", C.Callee.c_str()));
      return nullptr;
    }
    if (Callee->Params.size() != C.Args.size()) {
      Diags.error(DiagCode::WrongArgCount, C.Range,
                  strfmt("`%s` expects %zu arguments, found %zu",
                         C.Callee.c_str(), Callee->Params.size(),
                         C.Args.size()));
      return nullptr;
    }

    TypeSubst Subst;
    if (!C.IsLaunch && !C.Generics.empty()) {
      if (C.Generics.size() != Callee->Generics.size()) {
        Diags.error(DiagCode::WrongGenericArgCount, C.Range,
                    strfmt("`%s` expects %zu generic arguments, found %zu",
                           C.Callee.c_str(), Callee->Generics.size(),
                           C.Generics.size()));
        return nullptr;
      }
      for (size_t I = 0; I != C.Generics.size(); ++I) {
        const GenericParam &P = Callee->Generics[I];
        const GenericArg &G = C.Generics[I];
        // Bare identifiers parse as nats; reinterpret by declared kind.
        switch (P.Kind) {
        case ParamKind::Nat:
          if (G.Kind != ParamKind::Nat) {
            Diags.error(DiagCode::MismatchedTypes, C.Range,
                        strfmt("generic argument %zu of `%s` must be a nat",
                               I + 1, C.Callee.c_str()));
            return nullptr;
          }
          Subst.Nats[P.Name] = G.N;
          break;
        case ParamKind::Memory:
          if (G.Kind == ParamKind::Memory)
            Subst.Mems[P.Name] = G.M;
          else if (G.Kind == ParamKind::Nat && G.N.kind() == NatKind::Var)
            Subst.Mems[P.Name] = Memory::var(G.N.varName());
          else {
            Diags.error(DiagCode::MismatchedTypes, C.Range,
                        strfmt("generic argument %zu of `%s` must be a "
                               "memory space",
                               I + 1, C.Callee.c_str()));
            return nullptr;
          }
          break;
        case ParamKind::DataType:
          if (G.Kind == ParamKind::DataType)
            Subst.Types[P.Name] = G.T;
          else if (G.Kind == ParamKind::Nat && G.N.kind() == NatKind::Var)
            Subst.Types[P.Name] = makeTypeVar(G.N.varName());
          else {
            Diags.error(DiagCode::MismatchedTypes, C.Range,
                        strfmt("generic argument %zu of `%s` must be a data "
                               "type",
                               I + 1, C.Callee.c_str()));
            return nullptr;
          }
          break;
        }
      }
    }

    if (C.IsLaunch) {
      if (!CurExec.isCpu()) {
        Diags.error(DiagCode::WrongExecutionContext, C.Range,
                    "kernels can only be launched from the CPU");
        return nullptr;
      }
      if (!Callee->isGpuFn()) {
        Diags.error(DiagCode::WrongExecutionContext, C.Range,
                    strfmt("`%s` is not a GPU grid function",
                           C.Callee.c_str()));
        return nullptr;
      }
      // Unify launch dims against the declared grid, then parameters
      // against arguments (Section 3.5: assumptions become checkable).
      for (Axis A : {Axis::X, Axis::Y, Axis::Z}) {
        bool DeclHasG = Callee->Exec.GridDim.hasAxis(A);
        bool DeclHasB = Callee->Exec.BlockDim.hasAxis(A);
        if (DeclHasG != C.LaunchGrid.hasAxis(A) ||
            DeclHasB != C.LaunchBlock.hasAxis(A)) {
          Diags
              .error(DiagCode::LaunchConfigMismatch, C.Range,
                     "mismatched launch configuration")
              .note(strfmt("`%s` expects grid `gpu.grid<%s, %s>`",
                           C.Callee.c_str(),
                           Callee->Exec.GridDim.str().c_str(),
                           Callee->Exec.BlockDim.str().c_str()));
          return nullptr;
        }
        if (DeclHasG &&
            !unifyNat(Callee->Exec.GridDim.extent(A), C.LaunchGrid.extent(A),
                      Subst.Nats)) {
          Diags
              .error(DiagCode::LaunchConfigMismatch, C.Range,
                     "mismatched launch configuration")
              .note(strfmt("grid extent %s: expected `%s`, found `%s`",
                           axisName(A),
                           Callee->Exec.GridDim.extent(A).str().c_str(),
                           C.LaunchGrid.extent(A).str().c_str()));
          return nullptr;
        }
        if (DeclHasB && !unifyNat(Callee->Exec.BlockDim.extent(A),
                                  C.LaunchBlock.extent(A), Subst.Nats)) {
          Diags
              .error(DiagCode::LaunchConfigMismatch, C.Range,
                     "mismatched launch configuration")
              .note(strfmt("block extent %s: expected `%s`, found `%s`",
                           axisName(A),
                           Callee->Exec.BlockDim.extent(A).str().c_str(),
                           C.LaunchBlock.extent(A).str().c_str()));
          return nullptr;
        }
      }
    } else {
      // Plain call: the callee's exec level must match ours.
      auto Level = CurExec.level();
      ExecLevel DeclaredLevel = Callee->Exec.substitute(Subst.Nats);
      if (!Level || !(DeclaredLevel == *Level)) {
        Diags
            .error(DiagCode::WrongExecutionContext, C.Range,
                   strfmt("`%s` cannot be called from this execution "
                          "context",
                          C.Callee.c_str()))
            .note(strfmt("function expects `%s`, but this code is executed "
                         "by `%s`",
                         Callee->Exec.str().c_str(), CurExec.str().c_str()));
        return nullptr;
      }
    }

    // Unify parameter types with argument types (binds remaining nats).
    for (size_t I = 0; I != C.Args.size(); ++I) {
      TypeRef Declared = substituteType(Callee->Params[I].Ty, Subst);
      if (!unifyType(Declared, ArgTys[I], Subst)) {
        Diags
            .error(DiagCode::MismatchedTypes, C.Args[I]->Range,
                   "mismatched types")
            .note(strfmt("expected `%s`, found `%s`",
                         substituteType(Declared, Subst)->str().c_str(),
                         ArgTys[I]->str().c_str()));
        return nullptr;
      }
    }
    // Final pass: every parameter and launch dim must now prove equal.
    for (size_t I = 0; I != C.Args.size(); ++I) {
      TypeRef Declared = substituteType(Callee->Params[I].Ty, Subst);
      if (!DataType::equal(Declared, ArgTys[I])) {
        Diags
            .error(DiagCode::MismatchedTypes, C.Args[I]->Range,
                   "mismatched types")
            .note(strfmt("expected `%s`, found `%s`",
                         Declared->str().c_str(),
                         ArgTys[I]->str().c_str()));
        return nullptr;
      }
    }
    if (C.IsLaunch) {
      for (Axis A : {Axis::X, Axis::Y, Axis::Z}) {
        if (Callee->Exec.GridDim.hasAxis(A)) {
          Nat D = Callee->Exec.GridDim.extent(A).substitute(Subst.Nats);
          if (!Nat::proveEq(D, C.LaunchGrid.extent(A))) {
            Diags
                .error(DiagCode::LaunchConfigMismatch, C.Range,
                       "mismatched launch configuration")
                .note(strfmt("grid extent %s: expected `%s`, found `%s`",
                             axisName(A), D.str().c_str(),
                             C.LaunchGrid.extent(A).str().c_str()));
            return nullptr;
          }
        }
        if (Callee->Exec.BlockDim.hasAxis(A)) {
          Nat D = Callee->Exec.BlockDim.extent(A).substitute(Subst.Nats);
          if (!Nat::proveEq(D, C.LaunchBlock.extent(A))) {
            Diags
                .error(DiagCode::LaunchConfigMismatch, C.Range,
                       "mismatched launch configuration")
                .note(strfmt("block extent %s: expected `%s`, found `%s`",
                             axisName(A), D.str().c_str(),
                             C.LaunchBlock.extent(A).str().c_str()));
            return nullptr;
          }
        }
      }
    }
    return substituteType(Callee->RetTy ? Callee->RetTy : makeUnit(), Subst);
  }

  static bool isBuiltinName(const std::string &Name) {
    return Name == "CpuHeap::new" || Name == "GpuGlobal::alloc_copy" ||
           Name == "copy_mem_to_host" || Name == "copy_to_gpu";
  }

  /// Builtin host API (Section 3.4). Diagnostics are emitted for misused
  /// builtins; returns the result type or null.
  TypeRef checkBuiltinCall(CallExpr &C, const std::vector<TypeRef> &ArgTys) {
    auto RequireCpu = [&]() {
      if (CurExec.isCpu())
        return true;
      Diags.error(DiagCode::WrongExecutionContext, C.Range,
                  strfmt("`%s` is a host function and cannot run on the GPU",
                         C.Callee.c_str()));
      return false;
    };
    auto ArgCount = [&](size_t N) {
      if (C.Args.size() == N)
        return true;
      Diags.error(DiagCode::WrongArgCount, C.Range,
                  strfmt("`%s` expects %zu arguments, found %zu",
                         C.Callee.c_str(), N, C.Args.size()));
      return false;
    };

    if (C.Callee == "CpuHeap::new") {
      if (!RequireCpu() || !ArgCount(1))
        return nullptr;
      return makeBox(ArgTys[0], Memory::cpuMem());
    }
    if (C.Callee == "GpuGlobal::alloc_copy") {
      if (!RequireCpu() || !ArgCount(1))
        return nullptr;
      const auto *Ref = dyn_cast<RefType>(ArgTys[0].get());
      if (!Ref || Ref->Mem.Kind != MemoryKind::CpuMem) {
        Diags
            .error(DiagCode::MismatchedTypes, C.Args[0]->Range,
                   "mismatched types")
            .note(strfmt("expected reference to `cpu.mem`, found `%s`",
                         ArgTys[0]->str().c_str()));
        return nullptr;
      }
      return makeBox(Ref->Pointee, Memory::gpuGlobal());
    }
    if (C.Callee == "copy_mem_to_host" || C.Callee == "copy_to_gpu") {
      if (!RequireCpu() || !ArgCount(2))
        return nullptr;
      bool ToHost = C.Callee == "copy_mem_to_host";
      MemoryKind WantDst = ToHost ? MemoryKind::CpuMem
                                  : MemoryKind::GpuGlobal;
      MemoryKind WantSrc = ToHost ? MemoryKind::GpuGlobal
                                  : MemoryKind::CpuMem;
      const auto *Dst = dyn_cast<RefType>(ArgTys[0].get());
      const auto *Src = dyn_cast<RefType>(ArgTys[1].get());
      // The Section 2.3 bug class: both arguments are references, but the
      // memory spaces are the wrong way around (swapped cudaMemcpy
      // arguments). Report it as a transfer-direction error, not a generic
      // type mismatch.
      if (Dst && Src && Dst->Mem.Kind == WantSrc && Src->Mem.Kind == WantDst) {
        Diags
            .error(DiagCode::TransferDirectionMismatch, C.Range,
                   strfmt("arguments to `%s` are swapped", C.Callee.c_str()))
            .note(C.Args[0]->Range,
                  strfmt("destination must live in `%s`, found `%s`",
                         Memory(WantDst).str().c_str(),
                         Dst->Mem.str().c_str()))
            .note(strfmt("`%s` copies %s; pass the %s buffer first",
                         C.Callee.c_str(),
                         ToHost ? "gpu.global -> cpu.mem"
                                : "cpu.mem -> gpu.global",
                         ToHost ? "host" : "device"));
        return nullptr;
      }
      if (!Dst || Dst->Mem.Kind != WantDst || Dst->Own != Ownership::Uniq) {
        Diags
            .error(DiagCode::MismatchedTypes, C.Args[0]->Range,
                   "mismatched types")
            .note(strfmt("expected unique reference to `%s`, found `%s`",
                         Memory(WantDst).str().c_str(),
                         ArgTys[0]->str().c_str()));
        return nullptr;
      }
      if (!Src || Src->Mem.Kind != WantSrc) {
        Diags
            .error(DiagCode::MismatchedTypes, C.Args[1]->Range,
                   "mismatched types")
            .note(strfmt("expected reference to `%s`, found `%s`",
                         Memory(WantSrc).str().c_str(),
                         ArgTys[1]->str().c_str()));
        return nullptr;
      }
      // Element-count agreement via the Nat solver: same element type but
      // unprovably-equal sizes is the out-of-bounds memcpy of Section 2.3.
      const auto *DstArr = dyn_cast<ArrayType>(Dst->Pointee.get());
      const auto *SrcArr = dyn_cast<ArrayType>(Src->Pointee.get());
      if (DstArr && SrcArr && DataType::equal(DstArr->Elem, SrcArr->Elem) &&
          !Nat::proveEq(DstArr->Size, SrcArr->Size)) {
        Diags
            .error(DiagCode::TransferSizeMismatch, C.Range,
                   strfmt("cannot transfer `%s` elements into a buffer of "
                          "`%s`",
                          SrcArr->Size.str().c_str(),
                          DstArr->Size.str().c_str()))
            .note("both sides of a transfer must have a provably equal "
                  "element count");
        return nullptr;
      }
      if (!DataType::equal(Dst->Pointee, Src->Pointee)) {
        Diags
            .error(DiagCode::MismatchedTypes, C.Range, "mismatched types")
            .note(strfmt("cannot copy `%s` into `%s`",
                         Src->Pointee->str().c_str(),
                         Dst->Pointee->str().c_str()));
        return nullptr;
      }
      return makeUnit();
    }
    return nullptr;
  }

  //===--------------------------------------------------------------------===//
  // Items
  //===--------------------------------------------------------------------===//

  void checkFn(FnDef &Fn) {
    CurFn = &Fn;
    Accesses.clear();
    pushScope();

    // The function's execution resource.
    ExecResource Root =
        Fn.Exec.Kind == ExecLevelKind::GpuGrid
            ? ExecResource::gpuGrid(Fn.ExecName, Fn.Exec.GridDim,
                                    Fn.Exec.BlockDim)
            : ExecResource::cpuThread();
    if (Fn.Exec.Kind == ExecLevelKind::GpuBlock ||
        Fn.Exec.Kind == ExecLevelKind::GpuThread) {
      // Block/thread functions are checked as if executed by a generic
      // grid narrowed appropriately; modelled by a one-block grid here.
      Root = ExecResource::gpuGrid(Fn.ExecName, Dim::makeX(Nat::lit(1)),
                                   Fn.Exec.BlockDim);
      if (auto B = Root.forall(Axis::X))
        Root = *B;
    }
    CurExec = Root;

    VarInfo ExecBinder;
    ExecBinder.Name = Fn.ExecName;
    ExecBinder.IsExecVar = true;
    ExecBinder.Exec = Root;
    ExecBinder.OwnerExec = Root;
    bind(std::move(ExecBinder));

    for (const FnParam &P : Fn.Params) {
      VarInfo V;
      V.Name = P.Name;
      V.Ty = P.Ty;
      V.OwnerExec = Root;
      bind(std::move(V));
    }

    if (Fn.Body)
      checkExpr(*Fn.Body);
    popScope();
    CurFn = nullptr;
  }
};

TypeChecker::TypeChecker(const SourceManager &SM, DiagnosticEngine &Diags)
    : P(std::make_unique<Impl>(SM, Diags, Info)) {}

TypeChecker::~TypeChecker() = default;

bool TypeChecker::check(Module &M) {
  unsigned Before = P->Diags.errorCount();
  P->Mod = &M;
  P->Views.addModuleViews(M);

  // Duplicate definitions.
  std::map<std::string, const FnDef *> Seen;
  for (const auto &Fn : M.Fns) {
    auto [It, Inserted] = Seen.try_emplace(Fn->Name, Fn.get());
    if (!Inserted)
      P->Diags.error(DiagCode::Redefinition, Fn->Range,
                     strfmt("redefinition of function `%s`",
                            Fn->Name.c_str()));
  }

  for (auto &Fn : M.Fns)
    P->checkFn(*Fn);
  return P->Diags.errorCount() == Before;
}
