//===- ast/Expr.h - Descend terms (Fig. 5) ----------------------*- C++ -*-===//
//
// Part of the Descend reproduction. Implements the term syntax of Fig. 5:
//
//   t ::= p                               place expression
//       | let x : δ = t                   definition
//       | p = t                           assignment
//       | &[uniq] p                       (unique) borrow
//       | { t }                           block
//       | f::<η, µ, δ>(t)                 function application
//       | for x in t { t }                for-each loop
//       | for n in rn { t }               for-nat loop
//       | sched([X|Y|Z]) x in e { t }     schedule computation
//       | split([X|Y|Z]) e at η {...}     split execution resource
//       | sync                            barrier synchronization
//
// plus literals and arithmetic needed by real programs, the alloc
// intrinsic of Section 3.4, and kernel launches f::<<<d, d>>>(...) of
// Section 3.5. Place expressions (Fig. 3) form a sub-hierarchy of Expr so
// they can appear both as terms and as assignment targets.
//
//===----------------------------------------------------------------------===//

#ifndef DESCEND_AST_EXPR_H
#define DESCEND_AST_EXPR_H

#include "ast/Type.h"
#include "support/SourceLocation.h"

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace descend {

enum class ExprKind {
  // Place expressions (Fig. 3). Keep contiguous: classof relies on range.
  PlaceVar,
  PlaceProj,
  PlaceDeref,
  PlaceIndex,
  PlaceSelect,
  PlaceView,
  // Other terms.
  Literal,
  Binary,
  Unary,
  Let,
  Assign,
  Borrow,
  Block,
  Call,
  Alloc,
  ArrayInit,
  ForEach,
  ForNat,
  Sched,
  Split,
  Sync,
};

class Expr;
class PlaceExpr;
using ExprPtr = std::unique_ptr<Expr>;
using PlacePtr = std::unique_ptr<PlaceExpr>;

/// Base class of all terms. Carries the source range and, after type
/// checking, the inferred type.
class Expr {
public:
  explicit Expr(ExprKind Kind) : Kind(Kind) {}
  virtual ~Expr() = default;

  ExprKind kind() const { return Kind; }

  SourceRange Range;
  /// Filled in by the type checker.
  TypeRef Ty;

private:
  ExprKind Kind;
};

//===----------------------------------------------------------------------===//
// Place expressions (Fig. 3)
//===----------------------------------------------------------------------===//

/// p ::= x | p.fst | p.snd | *p | p[t] | p[[e]] | p.v::<η>(v)
class PlaceExpr : public Expr {
public:
  using Expr::Expr;
  static bool classof(const Expr *E) {
    return E->kind() >= ExprKind::PlaceVar && E->kind() <= ExprKind::PlaceView;
  }

  /// The root variable of this place (walks through base places).
  const std::string &rootVar() const;

  /// Renders the paper's place-expression syntax.
  std::string str() const;
};

class PlaceVar : public PlaceExpr {
public:
  std::string Name;

  explicit PlaceVar(std::string Name)
      : PlaceExpr(ExprKind::PlaceVar), Name(std::move(Name)) {}
  static bool classof(const Expr *E) {
    return E->kind() == ExprKind::PlaceVar;
  }
};

/// p.fst / p.snd — tuple projection.
class PlaceProj : public PlaceExpr {
public:
  PlacePtr Base;
  unsigned Which; // 0 == fst, 1 == snd

  PlaceProj(PlacePtr Base, unsigned Which)
      : PlaceExpr(ExprKind::PlaceProj), Base(std::move(Base)), Which(Which) {}
  static bool classof(const Expr *E) {
    return E->kind() == ExprKind::PlaceProj;
  }
};

/// *p — dereference.
class PlaceDeref : public PlaceExpr {
public:
  PlacePtr Base;

  explicit PlaceDeref(PlacePtr Base)
      : PlaceExpr(ExprKind::PlaceDeref), Base(std::move(Base)) {}
  static bool classof(const Expr *E) {
    return E->kind() == ExprKind::PlaceDeref;
  }
};

/// p[t] — indexing with a term (loop variable or literal).
class PlaceIndex : public PlaceExpr {
public:
  PlacePtr Base;
  ExprPtr Index;

  PlaceIndex(PlacePtr Base, ExprPtr Index)
      : PlaceExpr(ExprKind::PlaceIndex), Base(std::move(Base)),
        Index(std::move(Index)) {}
  static bool classof(const Expr *E) {
    return E->kind() == ExprKind::PlaceIndex;
  }
};

/// p[[e]] — selection of this execution resource's part of an array.
class PlaceSelect : public PlaceExpr {
public:
  PlacePtr Base;
  std::string ExecName;

  PlaceSelect(PlacePtr Base, std::string ExecName)
      : PlaceExpr(ExprKind::PlaceSelect), Base(std::move(Base)),
        ExecName(std::move(ExecName)) {}
  static bool classof(const Expr *E) {
    return E->kind() == ExprKind::PlaceSelect;
  }
};

/// p.v::<η,...> — view application; `v` may itself take view arguments
/// (map). The view name is resolved against builtins and `view` items.
class PlaceView : public PlaceExpr {
public:
  PlacePtr Base;
  std::string ViewName;
  std::vector<Nat> NatArgs;

  PlaceView(PlacePtr Base, std::string ViewName, std::vector<Nat> NatArgs)
      : PlaceExpr(ExprKind::PlaceView), Base(std::move(Base)),
        ViewName(std::move(ViewName)), NatArgs(std::move(NatArgs)) {}
  static bool classof(const Expr *E) {
    return E->kind() == ExprKind::PlaceView;
  }
};

/// Base place of any non-variable place expression, null for PlaceVar.
const PlaceExpr *basePlace(const PlaceExpr *P);
PlaceExpr *basePlace(PlaceExpr *P);

//===----------------------------------------------------------------------===//
// Literals and operators
//===----------------------------------------------------------------------===//

class LiteralExpr : public Expr {
public:
  ScalarKind Scalar;
  long long IntValue = 0;
  double FloatValue = 0.0;
  bool BoolValue = false;

  static ExprPtr makeInt(long long V, ScalarKind K = ScalarKind::I32);
  static ExprPtr makeFloat(double V, ScalarKind K = ScalarKind::F64);
  static ExprPtr makeBool(bool V);
  static ExprPtr makeUnit();

  static bool classof(const Expr *E) { return E->kind() == ExprKind::Literal; }

  explicit LiteralExpr(ScalarKind K) : Expr(ExprKind::Literal), Scalar(K) {}
};

enum class BinOpKind {
  Add,
  Sub,
  Mul,
  Div,
  Mod,
  Eq,
  Ne,
  Lt,
  Le,
  Gt,
  Ge,
  And,
  Or,
};

const char *binOpSpelling(BinOpKind K);

class BinaryExpr : public Expr {
public:
  BinOpKind Op;
  ExprPtr Lhs, Rhs;

  BinaryExpr(BinOpKind Op, ExprPtr Lhs, ExprPtr Rhs)
      : Expr(ExprKind::Binary), Op(Op), Lhs(std::move(Lhs)),
        Rhs(std::move(Rhs)) {}
  static bool classof(const Expr *E) { return E->kind() == ExprKind::Binary; }
};

enum class UnOpKind { Neg, Not };

class UnaryExpr : public Expr {
public:
  UnOpKind Op;
  ExprPtr Sub;

  UnaryExpr(UnOpKind Op, ExprPtr Sub)
      : Expr(ExprKind::Unary), Op(Op), Sub(std::move(Sub)) {}
  static bool classof(const Expr *E) { return E->kind() == ExprKind::Unary; }
};

//===----------------------------------------------------------------------===//
// Bindings, assignment, borrows, blocks
//===----------------------------------------------------------------------===//

/// let x [: δ] = t
class LetExpr : public Expr {
public:
  std::string Name;
  TypeRef Annotation; // may be null
  ExprPtr Init;

  LetExpr(std::string Name, TypeRef Annotation, ExprPtr Init)
      : Expr(ExprKind::Let), Name(std::move(Name)),
        Annotation(std::move(Annotation)), Init(std::move(Init)) {}
  static bool classof(const Expr *E) { return E->kind() == ExprKind::Let; }
};

/// p = t
class AssignExpr : public Expr {
public:
  PlacePtr Lhs;
  ExprPtr Rhs;

  AssignExpr(PlacePtr Lhs, ExprPtr Rhs)
      : Expr(ExprKind::Assign), Lhs(std::move(Lhs)), Rhs(std::move(Rhs)) {}
  static bool classof(const Expr *E) { return E->kind() == ExprKind::Assign; }
};

/// &[uniq] p
class BorrowExpr : public Expr {
public:
  Ownership Own;
  PlacePtr Place;

  BorrowExpr(Ownership Own, PlacePtr Place)
      : Expr(ExprKind::Borrow), Own(Own), Place(std::move(Place)) {}
  static bool classof(const Expr *E) { return E->kind() == ExprKind::Borrow; }
};

/// { t; t; ... } — introduces a scope.
class BlockExpr : public Expr {
public:
  std::vector<ExprPtr> Stmts;

  explicit BlockExpr(std::vector<ExprPtr> Stmts)
      : Expr(ExprKind::Block), Stmts(std::move(Stmts)) {}
  static bool classof(const Expr *E) { return E->kind() == ExprKind::Block; }
};

//===----------------------------------------------------------------------===//
// Calls, launches, allocation
//===----------------------------------------------------------------------===//

/// A generic argument at a call site: exactly one member is active,
/// matching the declared kind of the corresponding generic parameter.
struct GenericArg {
  ParamKind Kind = ParamKind::Nat;
  Nat N;
  Memory M;
  TypeRef T;

  static GenericArg nat(Nat V) {
    GenericArg A;
    A.Kind = ParamKind::Nat;
    A.N = std::move(V);
    return A;
  }
  static GenericArg memory(Memory V) {
    GenericArg A;
    A.Kind = ParamKind::Memory;
    A.M = std::move(V);
    return A;
  }
  static GenericArg type(TypeRef V) {
    GenericArg A;
    A.Kind = ParamKind::DataType;
    A.T = std::move(V);
    return A;
  }
};

/// f::<η, µ, δ>(t, ...) — also used for builtin path functions such as
/// CpuHeap::new and GpuGlobal::alloc_copy. When IsLaunch is set this is a
/// kernel launch f::<<<GridDim, BlockDim>>>(...) per Section 3.5.
class CallExpr : public Expr {
public:
  std::string Callee;
  std::vector<GenericArg> Generics;
  std::vector<ExprPtr> Args;
  bool IsLaunch = false;
  Dim LaunchGrid, LaunchBlock;

  CallExpr(std::string Callee, std::vector<GenericArg> Generics,
           std::vector<ExprPtr> Args)
      : Expr(ExprKind::Call), Callee(std::move(Callee)),
        Generics(std::move(Generics)), Args(std::move(Args)) {}
  static bool classof(const Expr *E) { return E->kind() == ExprKind::Call; }
};

/// alloc::<µ, δ>() — allocates (shared) memory at the current exec level.
class AllocExpr : public Expr {
public:
  Memory Mem;
  TypeRef AllocTy;

  AllocExpr(Memory Mem, TypeRef AllocTy)
      : Expr(ExprKind::Alloc), Mem(std::move(Mem)),
        AllocTy(std::move(AllocTy)) {}
  static bool classof(const Expr *E) { return E->kind() == ExprKind::Alloc; }
};

/// [t; η] — array-repeat initializer, e.g. CpuHeap::new([0; n]).
class ArrayInitExpr : public Expr {
public:
  ExprPtr Elem;
  Nat Count;

  ArrayInitExpr(ExprPtr Elem, Nat Count)
      : Expr(ExprKind::ArrayInit), Elem(std::move(Elem)),
        Count(std::move(Count)) {}
  static bool classof(const Expr *E) {
    return E->kind() == ExprKind::ArrayInit;
  }
};

//===----------------------------------------------------------------------===//
// Loops
//===----------------------------------------------------------------------===//

/// for x in t { t } — iterates over a collection.
class ForEachExpr : public Expr {
public:
  std::string Var;
  ExprPtr Collection;
  ExprPtr Body;

  ForEachExpr(std::string Var, ExprPtr Collection, ExprPtr Body)
      : Expr(ExprKind::ForEach), Var(std::move(Var)),
        Collection(std::move(Collection)), Body(std::move(Body)) {}
  static bool classof(const Expr *E) { return E->kind() == ExprKind::ForEach; }
};

/// for i in [lo..hi] { t } — statically evaluated range of naturals.
class ForNatExpr : public Expr {
public:
  std::string Var;
  Nat Lo, Hi;
  ExprPtr Body;

  ForNatExpr(std::string Var, Nat Lo, Nat Hi, ExprPtr Body)
      : Expr(ExprKind::ForNat), Var(std::move(Var)), Lo(std::move(Lo)),
        Hi(std::move(Hi)), Body(std::move(Body)) {}
  static bool classof(const Expr *E) { return E->kind() == ExprKind::ForNat; }
};

//===----------------------------------------------------------------------===//
// Scheduling primitives
//===----------------------------------------------------------------------===//

/// sched(A1, A2) x in e { t } — schedules the body over all sub-execution
/// resources of e along the listed axes, binding each as x.
class SchedExpr : public Expr {
public:
  std::vector<Axis> Axes;
  std::string Binder;
  std::string Target; // the enclosing execution resource variable
  ExprPtr Body;

  SchedExpr(std::vector<Axis> Axes, std::string Binder, std::string Target,
            ExprPtr Body)
      : Expr(ExprKind::Sched), Axes(std::move(Axes)),
        Binder(std::move(Binder)), Target(std::move(Target)),
        Body(std::move(Body)) {}
  static bool classof(const Expr *E) { return E->kind() == ExprKind::Sched; }
};

/// split(A) e at η { x1 => { t }, x2 => { t } } — splits e into two
/// independent parts at position η along axis A.
class SplitExpr : public Expr {
public:
  Axis SplitAxis;
  std::string Target;
  Nat Position;
  std::string FstName, SndName;
  ExprPtr FstBody, SndBody;

  SplitExpr(Axis SplitAxis, std::string Target, Nat Position,
            std::string FstName, ExprPtr FstBody, std::string SndName,
            ExprPtr SndBody)
      : Expr(ExprKind::Split), SplitAxis(SplitAxis), Target(std::move(Target)),
        Position(std::move(Position)), FstName(std::move(FstName)),
        SndName(std::move(SndName)), FstBody(std::move(FstBody)),
        SndBody(std::move(SndBody)) {}
  static bool classof(const Expr *E) { return E->kind() == ExprKind::Split; }
};

/// sync — block-wide barrier.
class SyncExpr : public Expr {
public:
  SyncExpr() : Expr(ExprKind::Sync) {}
  static bool classof(const Expr *E) { return E->kind() == ExprKind::Sync; }
};

//===----------------------------------------------------------------------===//
// Traversal helper
//===----------------------------------------------------------------------===//

/// Invokes \p Fn on every direct child of \p E (pre-order building block).
void forEachChild(Expr &E, const std::function<void(Expr &)> &Fn);

/// Renders any expression with the surface syntax (used in diagnostics).
std::string exprToString(const Expr &E);

} // namespace descend

#endif // DESCEND_AST_EXPR_H
