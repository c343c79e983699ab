//===- hostgen/HostGen.cpp - Host-program IR and code generation -------------===//

#include "hostgen/HostGen.h"

#include "codegen/Lowerer.h" // cppScalarType, floatLiteral, arrayNest, containsPow

#include <map>
#include <sstream>

using namespace descend;
using namespace descend::hostgen;

namespace {

using codegen::arrayNest;
using codegen::containsPow;
using codegen::cppScalarType;
using codegen::floatLiteral;

std::string emitName(const std::string &Name, const std::string &FnSuffix) {
  return (Name == "main" ? "run" : Name) + FnSuffix;
}

bool isBuffer(const HostVar &V) {
  return V.K == HostVar::HostBuf || V.K == HostVar::DevBuf;
}

/// Result kind of arithmetic over \p A and \p B: f64 over f32 over
/// integers, the promotion kernel code applies too.
ScalarKind promote(ScalarKind A, ScalarKind B) {
  if (A == ScalarKind::F64 || B == ScalarKind::F64)
    return ScalarKind::F64;
  if (A == ScalarKind::F32 || B == ScalarKind::F32)
    return ScalarKind::F32;
  return ScalarKind::I64;
}

/// The scalar kind of a value typed \p Ty (the literal's when untyped).
ScalarKind scalarOf(const TypeRef &Ty, const Expr &E) {
  if (const auto *S = dyn_cast_if_present<ScalarType>(Ty.get()))
    return S->Scalar;
  if (const auto *Lit = dyn_cast<LiteralExpr>(&E))
    return Lit->Scalar;
  return ScalarKind::F64;
}

//===----------------------------------------------------------------------===//
// Lowering: one walk over the AST, every acceptance rule
//===----------------------------------------------------------------------===//

class HostLowering {
public:
  HostLowering(const Module &M, const FnDef &Fn) : M(M), Fn(Fn) {}

  HostBuildResult run();

private:
  const Module &M;
  const FnDef &Fn;
  HostFn F;
  std::string Error;

  struct Scope {
    std::map<std::string, unsigned> Names;
    std::vector<unsigned> DeviceBufs; ///< local device buffers, in order
  };
  std::vector<Scope> Scopes;

  bool fail(const std::string &Msg) {
    if (Error.empty())
      Error = Msg;
    return false;
  }

  unsigned define(const std::string &Name, HostVar V) {
    V.Name = Name;
    unsigned Slot = static_cast<unsigned>(F.Vars.size());
    if (V.K == HostVar::DevBuf && !V.IsParam)
      Scopes.back().DeviceBufs.push_back(Slot);
    F.Vars.push_back(std::move(V));
    Scopes.back().Names[Name] = Slot;
    return Slot;
  }

  /// Leaves the innermost scope, whose statements are \p Out: the device
  /// buffers it defined die here, the last defined first.
  void closeScope(std::vector<HostStmt> &Out) {
    const std::vector<unsigned> &Bufs = Scopes.back().DeviceBufs;
    for (auto It = Bufs.rbegin(); It != Bufs.rend(); ++It) {
      HostStmt R;
      R.K = HostStmt::Release;
      R.Dst = *It;
      Out.push_back(std::move(R));
    }
    Scopes.pop_back();
  }

  std::optional<unsigned> lookup(const std::string &Name) const {
    for (auto It = Scopes.rbegin(); It != Scopes.rend(); ++It)
      if (auto Found = It->Names.find(Name); Found != It->Names.end())
        return Found->second;
    return std::nullopt;
  }

  /// Simplifies a size or loop bound into \p Out and evaluates it when
  /// instantiated. An unfolded power has no C++ spelling.
  bool nat(const Nat &N, Nat &Out, std::optional<long long> &Value) {
    Out = N.simplified();
    if (containsPow(Out))
      return fail("size expression `" + Out.str() +
                  "` contains an unfolded power");
    Value = Out.evaluate({});
    return true;
  }

  /// \p D with every extent simplified.
  bool dim(const Dim &D, Dim &Out) {
    std::optional<long long> Unused;
    for (auto [From, To] :
         {std::pair{&D.X, &Out.X}, {&D.Y, &Out.Y}, {&D.Z, &Out.Z}})
      if (!From->isNull() && !nat(*From, *To, Unused))
        return false;
    return true;
  }

  /// Element count of an array type `[[T; n]; m]` (its element kind into
  /// \p Elem); nullopt when \p T is no array of scalars.
  static std::optional<Nat> arrayCount(const TypeRef &T, ScalarKind &Elem) {
    std::vector<Nat> Dims;
    if (!arrayNest(T, Dims, Elem))
      return std::nullopt;
    Nat Count = Nat::lit(1);
    for (const Nat &D : Dims)
      Count = Count * D;
    return Count;
  }

  /// Slot of the buffer variable a transfer or launch argument names
  /// (`&uniq *b`, `&b` or `b`).
  std::optional<unsigned> bufferArg(const Expr &E) const {
    const Expr *Inner = &E;
    if (const auto *B = dyn_cast<BorrowExpr>(Inner))
      Inner = B->Place.get();
    const auto *P = dyn_cast<PlaceExpr>(Inner);
    return P ? lookup(P->rootVar()) : std::nullopt;
  }

  struct Place {
    unsigned Slot = 0;
    std::optional<HostExpr> Index;
  };
  std::optional<Place> place(const PlaceExpr &P);
  std::optional<HostExpr> expr(const Expr &E);
  std::optional<HostExpr> callArg(const Expr &E);

  bool params();
  bool block(const BlockExpr &Blk, std::vector<HostStmt> &Out);
  bool stmt(const Expr &E, std::vector<HostStmt> &Out);
  bool let(const LetExpr &L, std::vector<HostStmt> &Out);
  bool call(const CallExpr &C, std::vector<HostStmt> &Out);
  bool forNat(const ForNatExpr &Loop, std::vector<HostStmt> &Out);
};

HostBuildResult HostLowering::run() {
  HostBuildResult R;
  F.Name = Fn.Name;
  F.Signature = Fn.signature();
  Scopes.emplace_back();
  bool Ok = params();
  if (Ok && Fn.Body)
    Ok = block(*cast<BlockExpr>(Fn.Body.get()), F.Body);
  closeScope(F.Body);
  if (!Ok) {
    R.Error = Error.empty() ? "host lowering failed" : Error;
    return R;
  }
  R.Ok = true;
  R.Fn = std::move(F);
  return R;
}

bool HostLowering::params() {
  if (Fn.RetTy && !DataType::equal(Fn.RetTy, makeUnit()))
    return fail("host functions must return (), `" + Fn.Name + "` returns `" +
                Fn.RetTy->str() + "`");
  for (const FnParam &P : Fn.Params) {
    HostVar V;
    V.IsParam = true;
    if (const auto *Ref = dyn_cast<RefType>(P.Ty.get())) {
      std::optional<Nat> Count = arrayCount(Ref->Pointee, V.Elem);
      if (!Count)
        return fail("unsupported host parameter type `" + P.Ty->str() + "`");
      V.Shared = Ref->Own == Ownership::Shrd;
      if (Ref->Mem.Kind == MemoryKind::CpuMem)
        V.K = HostVar::HostBuf;
      else if (Ref->Mem.Kind == MemoryKind::GpuGlobal)
        V.K = HostVar::DevBuf;
      else
        return fail("unsupported host parameter memory `" + Ref->Mem.str() +
                    "`");
      if (!nat(*Count, V.Count, V.CountValue))
        return false;
    } else if (const auto *S = dyn_cast<ScalarType>(P.Ty.get())) {
      V.K = HostVar::Scalar;
      V.Elem = S->Scalar;
    } else {
      return fail("unsupported host parameter type `" + P.Ty->str() + "`");
    }
    define(P.Name, std::move(V));
  }
  F.NumParams = static_cast<unsigned>(F.Vars.size());
  return true;
}

/// A variable, optionally indexed once: host arrays are one-dimensional
/// in every backend (a second index would need row-major flattening).
std::optional<HostLowering::Place> HostLowering::place(const PlaceExpr &P) {
  std::vector<const PlaceExpr *> Chain;
  for (const PlaceExpr *Cur = &P; Cur; Cur = basePlace(Cur))
    Chain.push_back(Cur);
  Place Out;
  for (auto It = Chain.rbegin(); It != Chain.rend(); ++It) {
    switch ((*It)->kind()) {
    case ExprKind::PlaceVar: {
      const auto *V = cast<PlaceVar>(*It);
      std::optional<unsigned> Slot = lookup(V->Name);
      if (!Slot) {
        fail("unknown host variable `" + V->Name + "`");
        return std::nullopt;
      }
      Out.Slot = *Slot;
      break;
    }
    case ExprKind::PlaceDeref:
      break; // buffers index directly; the deref is implicit
    case ExprKind::PlaceIndex:
      if (Out.Index) {
        fail("place `" + P.str() + "` indexes more than one dimension");
        return std::nullopt;
      }
      Out.Index = expr(*cast<PlaceIndex>(*It)->Index);
      if (!Out.Index)
        return std::nullopt;
      break;
    default:
      fail("place `" + P.str() + "` is not addressable in host code");
      return std::nullopt;
    }
  }
  return Out;
}

std::optional<HostExpr> HostLowering::expr(const Expr &E) {
  HostExpr X;
  switch (E.kind()) {
  case ExprKind::Literal: {
    const auto *L = cast<LiteralExpr>(&E);
    X.K = HostExpr::Lit;
    X.Ty = L->Scalar;
    X.Float = L->FloatValue;
    X.Int = L->Scalar == ScalarKind::Bool ? L->BoolValue : L->IntValue;
    return X;
  }
  case ExprKind::Binary: {
    const auto *B = cast<BinaryExpr>(&E);
    auto L = expr(*B->Lhs);
    auto R = expr(*B->Rhs);
    if (!L || !R)
      return std::nullopt;
    X.K = HostExpr::Binary;
    X.BO = B->Op;
    switch (B->Op) {
    case BinOpKind::Add:
    case BinOpKind::Sub:
    case BinOpKind::Mul:
    case BinOpKind::Div:
    case BinOpKind::Mod:
      X.Ty = promote(L->Ty, R->Ty);
      break;
    default:
      X.Ty = ScalarKind::Bool;
      break;
    }
    X.Ops = {std::move(*L), std::move(*R)};
    return X;
  }
  case ExprKind::Unary: {
    const auto *U = cast<UnaryExpr>(&E);
    auto S = expr(*U->Sub);
    if (!S)
      return std::nullopt;
    X.K = HostExpr::Unary;
    X.UO = U->Op;
    X.Ty = U->Op == UnOpKind::Not ? ScalarKind::Bool : S->Ty;
    X.Ops = {std::move(*S)};
    return X;
  }
  case ExprKind::PlaceVar:
  case ExprKind::PlaceDeref:
  case ExprKind::PlaceIndex: {
    const auto &P = *cast<PlaceExpr>(&E);
    auto Pl = place(P);
    if (!Pl)
      return std::nullopt;
    const HostVar &V = F.Vars[Pl->Slot];
    X.Slot = Pl->Slot;
    X.Ty = V.Elem;
    if (Pl->Index) {
      if (V.K != HostVar::HostBuf) {
        fail("place `" + P.str() + "` indexes a non-host-memory buffer");
        return std::nullopt;
      }
      X.K = HostExpr::Index;
      X.Ops = {std::move(*Pl->Index)};
      return X;
    }
    if (isBuffer(V)) {
      fail("place `" + P.str() + "` reads a whole buffer as a scalar");
      return std::nullopt;
    }
    X.K = HostExpr::Var;
    return X;
  }
  default:
    fail("unsupported host expression: " + exprToString(E));
    return std::nullopt;
  }
}

/// A host call argument: a borrowed or named whole buffer passes by slot,
/// anything else is a scalar value.
std::optional<HostExpr> HostLowering::callArg(const Expr &E) {
  const Expr *Inner = &E;
  if (const auto *B = dyn_cast<BorrowExpr>(Inner))
    Inner = B->Place.get();
  if (const auto *P = dyn_cast<PlaceExpr>(Inner)) {
    auto Pl = place(*P);
    if (!Pl)
      return std::nullopt;
    if (!Pl->Index && isBuffer(F.Vars[Pl->Slot])) {
      HostExpr X;
      X.K = HostExpr::Var;
      X.Slot = Pl->Slot;
      X.Ty = F.Vars[Pl->Slot].Elem;
      return X;
    }
  }
  return expr(*Inner);
}

bool HostLowering::block(const BlockExpr &Blk, std::vector<HostStmt> &Out) {
  for (const ExprPtr &S : Blk.Stmts)
    if (!stmt(*S, Out))
      return false;
  return true;
}

bool HostLowering::stmt(const Expr &E, std::vector<HostStmt> &Out) {
  HostStmt S;
  switch (E.kind()) {
  case ExprKind::Let:
    return let(*cast<LetExpr>(&E), Out);
  case ExprKind::Call:
    return call(*cast<CallExpr>(&E), Out);
  case ExprKind::ForNat:
    return forNat(*cast<ForNatExpr>(&E), Out);
  case ExprKind::Assign: {
    const auto *A = cast<AssignExpr>(&E);
    auto Pl = place(*A->Lhs);
    if (!Pl)
      return false;
    const HostVar::Kind K = F.Vars[Pl->Slot].K;
    if (Pl->Index && K != HostVar::HostBuf)
      return fail("assignment target `" + A->Lhs->str() +
                  "` is not a host-memory buffer");
    if (!Pl->Index && K != HostVar::Scalar)
      return fail("assignment target `" + A->Lhs->str() + "` is not a scalar");
    S.K = HostStmt::Assign;
    S.Dst = Pl->Slot;
    S.Index = std::move(Pl->Index);
    S.Value = expr(*A->Rhs);
    if (!S.Value)
      return false;
    break;
  }
  case ExprKind::Block: {
    S.K = HostStmt::Block;
    Scopes.emplace_back();
    bool Ok = block(*cast<BlockExpr>(&E), S.Body);
    closeScope(S.Body);
    if (!Ok)
      return false;
    break;
  }
  default:
    return fail("unsupported host statement: " + exprToString(E));
  }
  Out.push_back(std::move(S));
  return true;
}

bool HostLowering::let(const LetExpr &L, std::vector<HostStmt> &Out) {
  HostStmt S;
  HostVar V;
  const auto *C = dyn_cast<CallExpr>(L.Init.get());
  if (C && C->Callee == "CpuHeap::new") {
    const auto *Init = dyn_cast<ArrayInitExpr>(
        C->Args.empty() ? nullptr : C->Args[0].get());
    if (!Init)
      return fail("CpuHeap::new expects an array initializer `[v; n]`");
    S.K = HostStmt::Alloc;
    V.K = HostVar::HostBuf;
    V.Elem = scalarOf(Init->Elem->Ty, *Init->Elem);
    S.Value = expr(*Init->Elem);
    if (!S.Value || !nat(Init->Count, V.Count, V.CountValue))
      return false;
  } else if (C && C->Callee == "GpuGlobal::alloc_copy") {
    std::optional<unsigned> Src =
        C->Args.empty() ? std::nullopt : bufferArg(*C->Args[0]);
    if (!Src || F.Vars[*Src].K != HostVar::HostBuf)
      return fail("GpuGlobal::alloc_copy expects a reference to a host "
                  "buffer variable");
    S.K = HostStmt::AllocCopy;
    S.Src = *Src;
    V.K = HostVar::DevBuf;
    V.Elem = F.Vars[*Src].Elem;
    V.Count = F.Vars[*Src].Count;
    V.CountValue = F.Vars[*Src].CountValue;
  } else if (const auto *A = dyn_cast<AllocExpr>(L.Init.get())) {
    // alloc::<cpu.mem, [T; n]>() — zero-initialized host heap array.
    std::optional<Nat> Count = A->Mem.Kind == MemoryKind::CpuMem
                                   ? arrayCount(A->AllocTy, V.Elem)
                                   : std::nullopt;
    if (!Count)
      return fail("unsupported host allocation: " + exprToString(*L.Init));
    if (!nat(*Count, V.Count, V.CountValue))
      return false;
    S.K = HostStmt::Alloc;
    V.K = HostVar::HostBuf;
  } else {
    S.K = HostStmt::Let;
    S.Value = expr(*L.Init);
    if (!S.Value)
      return false;
    V.K = HostVar::Scalar;
    V.Elem = scalarOf(L.Annotation ? L.Annotation : L.Init->Ty, *L.Init);
  }
  S.Dst = define(L.Name, std::move(V));
  Out.push_back(std::move(S));
  return true;
}

bool HostLowering::call(const CallExpr &C, std::vector<HostStmt> &Out) {
  HostStmt S;
  S.Callee = C.Callee;
  if (C.IsLaunch) {
    S.K = HostStmt::Launch;
    if (!dim(C.LaunchGrid, S.GridDim) || !dim(C.LaunchBlock, S.BlockDim))
      return false;
    for (const ExprPtr &A : C.Args) {
      std::optional<unsigned> Slot = bufferArg(*A);
      if (!Slot)
        return fail("kernel launch arguments must be buffer variable "
                    "references");
      if (F.Vars[*Slot].K != HostVar::DevBuf)
        return fail("kernel launch argument `" + F.Vars[*Slot].Name +
                    "` is not a device buffer");
      S.Bufs.push_back(*Slot);
    }
  } else if (C.Callee == "copy_mem_to_host" || C.Callee == "copy_to_gpu") {
    const bool ToHost = C.Callee == "copy_mem_to_host";
    if (C.Args.size() != 2)
      return fail("`" + C.Callee + "` expects two arguments");
    std::optional<unsigned> Dst = bufferArg(*C.Args[0]);
    std::optional<unsigned> Src = bufferArg(*C.Args[1]);
    if (!Dst || !Src)
      return fail("`" + C.Callee + "` expects buffer variable references");
    auto Is = [&](unsigned Slot, bool Host) {
      return F.Vars[Slot].K == (Host ? HostVar::HostBuf : HostVar::DevBuf);
    };
    if (!Is(*Dst, ToHost) || !Is(*Src, !ToHost))
      return fail("`" + C.Callee + "`: arguments have the wrong memory spaces");
    S.K = ToHost ? HostStmt::CopyToHost : HostStmt::CopyToGpu;
    S.Dst = *Dst;
    S.Src = *Src;
  } else if (const FnDef *Callee = M.findFn(C.Callee);
             Callee && Callee->isCpuFn()) {
    if (!Callee->Body)
      return fail("host call of `" + C.Callee + "` which has no body");
    S.K = HostStmt::Call;
    for (const auto &Other : M.Fns) {
      if (Other.get() == Callee)
        break;
      S.Target += Other->isCpuFn() && Other->Body;
    }
    for (const ExprPtr &A : C.Args) {
      auto X = callArg(*A);
      if (!X)
        return false;
      S.Args.push_back(std::move(*X));
    }
  } else {
    return fail("unsupported host call: " + C.Callee);
  }
  Out.push_back(std::move(S));
  return true;
}

bool HostLowering::forNat(const ForNatExpr &Loop, std::vector<HostStmt> &Out) {
  HostStmt S;
  S.K = HostStmt::ForNat;
  if (!nat(Loop.Lo, S.Lo, S.LoValue) || !nat(Loop.Hi, S.Hi, S.HiValue))
    return false;
  Scopes.emplace_back();
  HostVar V;
  V.K = HostVar::LoopVar;
  V.Elem = ScalarKind::I64;
  S.Dst = define(Loop.Var, std::move(V));
  bool Ok = Loop.Body->kind() == ExprKind::Block
                ? block(*cast<BlockExpr>(Loop.Body.get()), S.Body)
                : stmt(*Loop.Body, S.Body);
  closeScope(S.Body);
  if (!Ok)
    return false;
  Out.push_back(std::move(S));
  return true;
}

//===----------------------------------------------------------------------===//
// Expression spelling, shared by the printers and the listing
//===----------------------------------------------------------------------===//

std::string exprStr(const HostFn &F, const HostExpr &E) {
  switch (E.K) {
  case HostExpr::Lit:
    if (E.Ty == ScalarKind::F32 || E.Ty == ScalarKind::F64)
      return floatLiteral(E.Float, E.Ty);
    if (E.Ty == ScalarKind::Bool)
      return E.Int ? "true" : "false";
    return std::to_string(E.Int);
  case HostExpr::Var:
    return F.Vars[E.Slot].Name;
  case HostExpr::Index:
    return F.Vars[E.Slot].Name + "[" + exprStr(F, E.Ops[0]) + "]";
  case HostExpr::Unary:
    return (E.UO == UnOpKind::Neg ? "-" : "!") + exprStr(F, E.Ops[0]);
  case HostExpr::Binary:
    return "(" + exprStr(F, E.Ops[0]) + " " + binOpSpelling(E.BO) + " " +
           exprStr(F, E.Ops[1]) + ")";
  }
  return "?";
}

/// The written place of an Assign: `x` or `buf[i]`.
std::string targetStr(const HostFn &F, const HostStmt &S) {
  return F.Vars[S.Dst].Name +
         (S.Index ? "[" + exprStr(F, *S.Index) + "]" : std::string());
}

//===----------------------------------------------------------------------===//
// The printers
//===----------------------------------------------------------------------===//

class Printer {
public:
  Printer(const HostFn &F, HostTarget T, const std::string &FnSuffix)
      : F(F), T(T), FnSuffix(FnSuffix) {}

  std::string run();

private:
  const HostFn &F;
  HostTarget T;
  const std::string &FnSuffix;

  std::ostringstream OS;
  unsigned Depth = 1;

  bool isSim() const { return T != HostTarget::Cuda; }
  const HostVar &var(unsigned Slot) const { return F.Vars[Slot]; }
  const std::string &name(unsigned Slot) const { return F.Vars[Slot].Name; }

  /// The C++ expression denoting the raw host storage of a host buffer
  /// for a cudaMemcpy argument (locals are std::vectors, parameters raw
  /// pointers).
  std::string hostRaw(unsigned Slot) const {
    return var(Slot).IsParam ? name(Slot) : name(Slot) + ".data()";
  }

  void indent() {
    for (unsigned I = 0; I != Depth; ++I)
      OS << "  ";
  }

  void signature();
  void body(const std::vector<HostStmt> &Body);
  void stmt(const HostStmt &S);
  void allocCopy(const HostStmt &S);
  void copy(const HostStmt &S);
  void launch(const HostStmt &S);
  void call(const HostStmt &S);
  void forNat(const HostStmt &S);
  void release(const HostStmt &S);
};

void Printer::signature() {
  OS << "/// " << F.Signature << "\n";
  OS << (isSim() ? "inline void " : "void ") << emitName(F.Name, FnSuffix)
     << "(";
  if (isSim())
    OS << "descend::sim::GpuDevice &_dev";
  for (unsigned I = 0; I != F.NumParams; ++I) {
    const HostVar &V = F.Vars[I];
    const char *CT = cppScalarType(V.Elem);
    if (I || isSim())
      OS << ",\n    "; // after the device argument
    if (V.K == HostVar::Scalar)
      OS << CT << " " << V.Name;
    else if (!isSim())
      OS << (V.Shared ? "const " : "") << CT << " *" << V.Name;
    else if (V.K == HostVar::HostBuf)
      OS << (V.Shared ? "const descend::rt::HostBuffer<"
                      : "descend::rt::HostBuffer<")
         << CT << "> &" << V.Name;
    else
      OS << "descend::sim::GpuDevice::Buffer<" << CT << "> " << V.Name;
  }
  OS << ") {\n";
  if (!isSim())
    return;
  // The sim driver takes its buffers from C++ callers, which the type
  // checker never saw: check every instantiated size at entry, before
  // anything is allocated, with the text the vm rejects the same call
  // with.
  for (unsigned I = 0; I != F.NumParams; ++I) {
    const HostVar &V = F.Vars[I];
    if (!isBuffer(V) || !V.CountValue)
      continue;
    indent();
    OS << "descend::rt::checkArg(" << V.Name << ", " << *V.CountValue
       << ", \"" << paramMismatch(F, I) << "\");\n";
  }
}

void Printer::body(const std::vector<HostStmt> &Body) {
  for (const HostStmt &S : Body)
    stmt(S);
}

void Printer::stmt(const HostStmt &S) {
  switch (S.K) {
  case HostStmt::Alloc: {
    const HostVar &V = var(S.Dst);
    const char *CT = cppScalarType(V.Elem);
    indent();
    OS << (isSim() ? "descend::rt::HostBuffer<" : "std::vector<") << CT
       << "> " << V.Name << "(" << V.Count.str() << ", ";
    if (S.Value)
      OS << exprStr(F, *S.Value);
    else
      OS << CT << "{}";
    OS << ");\n";
    return;
  }
  case HostStmt::AllocCopy:
    return allocCopy(S);
  case HostStmt::CopyToHost:
  case HostStmt::CopyToGpu:
    return copy(S);
  case HostStmt::Launch:
    return launch(S);
  case HostStmt::Let:
    indent();
    OS << cppScalarType(var(S.Dst).Elem) << " " << name(S.Dst) << " = "
       << exprStr(F, *S.Value) << ";\n";
    return;
  case HostStmt::Assign:
    indent();
    OS << targetStr(F, S) << " = " << exprStr(F, *S.Value) << ";\n";
    return;
  case HostStmt::ForNat:
    return forNat(S);
  case HostStmt::Call:
    return call(S);
  case HostStmt::Block:
    indent();
    OS << "{\n";
    ++Depth;
    body(S.Body);
    --Depth;
    indent();
    OS << "}\n";
    return;
  case HostStmt::Release:
    return release(S);
  }
}

/// The sim driver holds each device local as an rt::DeviceLocal, which
/// frees it at the end of its scope, also when the driver throws.
void Printer::allocCopy(const HostStmt &S) {
  const std::string &Dst = name(S.Dst), &Src = name(S.Src);
  if (isSim()) {
    indent();
    OS << "descend::rt::DeviceLocal " << Dst << "(descend::rt::allocCopy(_dev, "
       << Src << "));\n";
    return;
  }
  const char *CT = cppScalarType(var(S.Src).Elem);
  const std::string N = var(S.Src).Count.str();
  indent();
  OS << CT << " *" << Dst << " = nullptr;\n";
  indent();
  OS << "cudaMalloc(&" << Dst << ", sizeof(" << CT << ") * (" << N << "));\n";
  indent();
  OS << "cudaMemcpy(" << Dst << ", " << hostRaw(S.Src) << ", sizeof(" << CT
     << ") * (" << N << "), cudaMemcpyHostToDevice);\n";
}

/// The end of a device buffer's scope: cudaFree. The sim driver prints
/// nothing, because its rt::DeviceLocal dies with the C++ scope, which
/// ends right after the Descend scope's releases.
void Printer::release(const HostStmt &S) {
  if (isSim())
    return;
  indent();
  OS << "cudaFree(" << name(S.Dst) << ");\n";
}

void Printer::copy(const HostStmt &S) {
  const bool ToHost = S.K == HostStmt::CopyToHost;
  const std::string &Dst = name(S.Dst), &Src = name(S.Src);
  indent();
  if (isSim()) {
    // Pass the host-program variable names through so a size-mismatch
    // rt::Error names the offending buffers, not just the counts.
    OS << (ToHost ? "descend::rt::copyToHost(" : "descend::rt::copyToGpu(")
       << Dst << ", " << Src << ", \"" << Dst << "\", \"" << Src << "\");\n";
    return;
  }
  const HostVar &HostSide = var(ToHost ? S.Dst : S.Src);
  OS << "cudaMemcpy(" << (ToHost ? hostRaw(S.Dst) : Dst) << ", "
     << (ToHost ? Src : hostRaw(S.Src)) << ", sizeof("
     << cppScalarType(HostSide.Elem) << ") * (" << HostSide.Count.str()
     << "), "
     << (ToHost ? "cudaMemcpyDeviceToHost" : "cudaMemcpyHostToDevice")
     << ");\n";
}

void Printer::launch(const HostStmt &S) {
  std::string Args;
  for (unsigned B : S.Bufs)
    Args += ", " + name(B);
  indent();
  if (!isSim()) {
    // Each extent lands in its own axis slot (a Y-only grid is
    // dim3(1, n, 1)); absent axes default to 1.
    auto Dim3 = [](const Dim &D) {
      auto Part = [&](Axis A) {
        return D.hasAxis(A) ? D.extent(A).str() : std::string("1");
      };
      return "dim3(" + Part(Axis::X) + ", " + Part(Axis::Y) + ", " +
             Part(Axis::Z) + ")";
    };
    OS << S.Callee << FnSuffix << "<<<" << Dim3(S.GridDim) << ", "
       << Dim3(S.BlockDim) << ">>>(" << (Args.empty() ? "" : Args.substr(2))
       << ");\n";
    indent();
    OS << "cudaDeviceSynchronize();\n";
    return;
  }
  // The generated simulator kernel lives in the same emitted namespace;
  // its signature already encodes the (statically checked) launch
  // configuration.
  OS << S.Callee << FnSuffix << "(_dev" << Args << ");\n";
  // Synchronous launches complete before returning; surface a sticky
  // device error (trap, timeout) here as a structured rt::Error instead
  // of silently running the rest of the driver on a poisoned device.
  indent();
  OS << "descend::rt::checkDevice(_dev, \"launch " << S.Callee << "\");\n";
}

void Printer::call(const HostStmt &S) {
  indent();
  OS << emitName(S.Callee, FnSuffix) << "(";
  if (isSim())
    OS << "_dev" << (S.Args.empty() ? "" : ", ");
  for (size_t I = 0; I != S.Args.size(); ++I) {
    const HostExpr &A = S.Args[I];
    // Cuda locals are std::vectors but host parameters are raw pointers;
    // decay at the call boundary.
    bool Decay = !isSim() && A.K == HostExpr::Var &&
                 var(A.Slot).K == HostVar::HostBuf;
    OS << (I ? ", " : "") << (Decay ? hostRaw(A.Slot) : exprStr(F, A));
  }
  OS << ");\n";
}

void Printer::forNat(const HostStmt &S) {
  const std::string &V = name(S.Dst);
  indent();
  OS << "for (long long " << V << " = " << S.Lo.str() << "; " << V
     << " != " << S.Hi.str() << "; ++" << V << ") {\n";
  ++Depth;
  body(S.Body);
  --Depth;
  indent();
  OS << "}\n";
}

std::string Printer::run() {
  signature();
  body(F.Body);
  OS << "}\n";
  return OS.str();
}

//===----------------------------------------------------------------------===//
// The listing
//===----------------------------------------------------------------------===//

void dumpStmts(std::ostringstream &OS, const HostFn &F,
               const std::vector<HostStmt> &Body, unsigned Depth) {
  const std::string Ind(Depth * 2 + 2, ' ');
  auto Name = [&](unsigned Slot) -> const std::string & {
    return F.Vars[Slot].Name;
  };
  for (const HostStmt &S : Body) {
    OS << Ind;
    switch (S.K) {
    case HostStmt::Alloc:
      OS << "alloc " << Name(S.Dst) << " = ["
         << (S.Value ? exprStr(F, *S.Value) : "0") << "; "
         << F.Vars[S.Dst].Count.str() << "]";
      break;
    case HostStmt::AllocCopy:
    case HostStmt::CopyToHost:
    case HostStmt::CopyToGpu:
      OS << (S.K == HostStmt::AllocCopy    ? "alloc-copy "
             : S.K == HostStmt::CopyToHost ? "copy-to-host "
                                           : "copy-to-gpu ")
         << Name(S.Dst) << " <- " << Name(S.Src);
      break;
    case HostStmt::Launch:
      OS << "launch " << S.Callee << "(";
      for (size_t I = 0; I != S.Bufs.size(); ++I)
        OS << (I ? ", " : "") << Name(S.Bufs[I]);
      OS << ")";
      break;
    case HostStmt::Let:
      OS << "let " << Name(S.Dst) << " = " << exprStr(F, *S.Value);
      break;
    case HostStmt::Assign:
      OS << "assign " << targetStr(F, S) << " = " << exprStr(F, *S.Value);
      break;
    case HostStmt::ForNat:
      OS << "for-nat " << Name(S.Dst) << " in [" << S.Lo.str() << ".."
         << S.Hi.str() << ")";
      break;
    case HostStmt::Call:
      OS << "call " << S.Callee << "(";
      for (size_t I = 0; I != S.Args.size(); ++I)
        OS << (I ? ", " : "") << exprStr(F, S.Args[I]);
      OS << ")";
      break;
    case HostStmt::Block:
      OS << "block";
      break;
    case HostStmt::Release:
      OS << "release " << Name(S.Dst);
      break;
    }
    OS << "\n";
    dumpStmts(OS, F, S.Body, Depth + 1);
  }
}

} // namespace

HostBuildResult hostgen::buildHostFn(const Module &M, const FnDef &Fn) {
  if (!Fn.isCpuFn()) {
    HostBuildResult R;
    R.Error = "`" + Fn.Name + "` is not a cpu.thread function";
    return R;
  }
  return HostLowering(M, Fn).run();
}

std::string hostgen::printHostFn(const HostFn &Fn, HostTarget Target,
                                 const std::string &FnSuffix) {
  return Printer(Fn, Target, FnSuffix).run();
}

std::string hostgen::dumpHostFn(const HostFn &Fn) {
  static const char *const KindNames[] = {"host", "device", "scalar", "loop"};
  std::ostringstream OS;
  OS << "host " << Fn.Name << " (" << Fn.Vars.size() << " slots, "
     << Fn.NumParams << " params)\n";
  for (size_t I = 0; I != Fn.Vars.size(); ++I) {
    const HostVar &V = Fn.Vars[I];
    OS << "  slot " << I << " " << V.Name << ": " << KindNames[V.K] << " "
       << scalarKindName(V.Elem);
    if (isBuffer(V))
      OS << " x " << V.Count.str();
    OS << "\n";
  }
  dumpStmts(OS, Fn, Fn.Body, 0);
  return OS.str();
}

std::string hostgen::paramMismatch(const HostFn &Fn, unsigned I) {
  const HostVar &P = Fn.Vars[I];
  std::string Msg =
      "argument " + std::to_string(I) + " of host `" + Fn.Name + "` must be ";
  if (!isBuffer(P))
    return Msg + "a scalar";
  Msg += P.K == HostVar::HostBuf ? "a host array of " : "a device buffer of ";
  return Msg + std::to_string(P.CountValue.value_or(0)) + " x " +
         scalarKindName(P.Elem);
}

bool hostgen::hasHostFns(const Module &M) {
  for (const auto &Fn : M.Fns)
    if (Fn->isCpuFn() && Fn->Body)
      return true;
  return false;
}

std::string hostgen::hostFnEmitName(const FnDef &Fn,
                                    const std::string &FnSuffix) {
  return emitName(Fn.Name, FnSuffix);
}
