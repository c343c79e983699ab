//===- vm/Bytecode.cpp - KIR -> bytecode compilation -------------------------===//
//
// The vm backend's compiler half: lowers every GPU kernel with the shared
// Lowerer (exactly like the sim backend, so geometry, arena layout and
// phase structure agree bit for bit with the generated headers), then
// translates each phase body / loop bound from typed kernel IR into
// register bytecode. Each cpu.thread function keeps the host IR hostgen
// builds for it, with its sizes instantiated and its launches resolved.
// Everything a launch needs is resolved here; the interpreter never sees
// a Nat or an AST node.
//
//===----------------------------------------------------------------------===//

#include "vm/Bytecode.h"

#include "ast/Item.h"
#include "codegen/Lowerer.h"
#include "kir/KIR.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <map>
#include <sstream>

using namespace descend;
using namespace descend::vm;

namespace {

/// Compile-time class of a register: which union member it holds and at
/// what precision arithmetic on it happens.
enum class VK { I64, F32, F64 };

VK vkOf(ScalarKind K) {
  switch (K) {
  case ScalarKind::F32:
    return VK::F32;
  case ScalarKind::F64:
    return VK::F64;
  default:
    return VK::I64;
  }
}

/// One enclosing PhaseLoop binding visible to the code being compiled.
struct LoopBinding {
  std::string Var;
  unsigned Slot;
};

/// Builds one Code object (a phase body or a loop bound). Registers are
/// SSA-ish: every value lands in a fresh register except named locals,
/// which keep one mutable register for their whole scope (Assign and the
/// For increment write through it).
class CodeBuilder {
public:
  CodeBuilder(const std::vector<LoopBinding> &Enclosing,
              const std::map<std::string, unsigned> &ParamIdx,
              bool AllowCoords)
      : Enclosing(Enclosing), ParamIdx(ParamIdx), AllowCoords(AllowCoords) {
    Scopes.emplace_back();
  }

  bool run(const std::vector<kir::Stmt> &Stmts, Code &Out) {
    if (!compileStmts(Stmts))
      return false;
    emit(Op::Ret, 0, 0, 0, 0);
    return finish(Out);
  }

  bool runBound(const Nat &N, Code &Out) {
    int R = compileNat(N);
    if (R < 0)
      return false;
    emit(Op::RetVal, static_cast<uint16_t>(R), 0, 0, 0);
    return finish(Out);
  }

  const std::string &error() const { return Err; }

private:
  struct LocalVar {
    int Reg = -1;
    VK Kind = VK::I64;
  };

  Code C;
  std::string Err;
  unsigned NextReg = 0;
  std::vector<std::map<std::string, LocalVar>> Scopes;
  const std::vector<LoopBinding> &Enclosing;
  const std::map<std::string, unsigned> &ParamIdx;
  bool AllowCoords;

  bool fail(const std::string &Msg) {
    if (Err.empty())
      Err = Msg;
    return false;
  }

  int newReg() {
    if (NextReg > std::numeric_limits<uint16_t>::max()) {
      fail("phase body needs more than 65536 registers");
      return -1;
    }
    return static_cast<int>(NextReg++);
  }

  void emit(Op K, uint16_t A, uint16_t B, uint16_t CC, int32_t Imm) {
    C.Instrs.push_back(Instr{K, A, B, CC, Imm});
  }

  bool finish(Code &Out) {
    if (!Err.empty())
      return false;
    C.NumRegs = NextReg;
    Out = std::move(C);
    return true;
  }

  int addConst(Value V) {
    C.Consts.push_back(V);
    return static_cast<int>(C.Consts.size() - 1);
  }

  int constI(long long V) {
    int R = newReg();
    if (R < 0)
      return -1;
    Value CV;
    CV.I = V;
    emit(Op::Const, static_cast<uint16_t>(R), 0, 0, addConst(CV));
    return R;
  }

  int constF(double V) {
    int R = newReg();
    if (R < 0)
      return -1;
    Value CV;
    CV.F = V;
    emit(Op::Const, static_cast<uint16_t>(R), 0, 0, addConst(CV));
    return R;
  }

  LocalVar *lookupLocal(const std::string &Name) {
    for (auto It = Scopes.rbegin(); It != Scopes.rend(); ++It)
      if (auto Found = It->find(Name); Found != It->end())
        return &Found->second;
    return nullptr;
  }

  /// Coordinate index of a lowering variable, or -1.
  static int coordIndex(const std::string &Name) {
    static const char *Coords[7] = {"_bx", "_by", "_bz", "_tx",
                                    "_ty", "_tz", "_lin"};
    for (int I = 0; I != 7; ++I)
      if (Name == Coords[I])
        return I;
    return -1;
  }

  /// Compiles a Nat to an i64 register. Variables resolve, innermost
  /// first: local registers (LetIndex / For), enclosing PhaseLoop slots,
  /// then coordinates — the same visibility the printed C++ has.
  int compileNat(const Nat &N) {
    if (N.isNull()) {
      fail("null nat expression");
      return -1;
    }
    switch (N.kind()) {
    case NatKind::Lit:
      return constI(N.litValue());
    case NatKind::Var: {
      const std::string &Name = N.varName();
      if (const LocalVar *L = lookupLocal(Name)) {
        if (L->Kind != VK::I64) {
          fail("nat variable `" + Name + "` is bound to a non-integer local");
          return -1;
        }
        return L->Reg;
      }
      for (auto It = Enclosing.rbegin(); It != Enclosing.rend(); ++It)
        if (It->Var == Name) {
          int R = newReg();
          if (R < 0)
            return -1;
          emit(Op::Slot, static_cast<uint16_t>(R), 0, 0,
               static_cast<int32_t>(It->Slot));
          return R;
        }
      if (int CI = coordIndex(Name); CI >= 0) {
        if (!AllowCoords) {
          fail("coordinate `" + Name + "` used in a host-side loop bound");
          return -1;
        }
        int R = newReg();
        if (R < 0)
          return -1;
        emit(Op::Coord, static_cast<uint16_t>(R), 0, 0, CI);
        return R;
      }
      fail("unbound nat variable `" + Name + "` (pass -D to instantiate)");
      return -1;
    }
    case NatKind::Add:
    case NatKind::Sub:
    case NatKind::Mul:
    case NatKind::Div:
    case NatKind::Mod:
    case NatKind::Pow: {
      int L = compileNat(N.lhs());
      int R = compileNat(N.rhs());
      if (L < 0 || R < 0)
        return -1;
      Op O;
      switch (N.kind()) {
      case NatKind::Add:
        O = Op::AddI;
        break;
      case NatKind::Sub:
        O = Op::SubI;
        break;
      case NatKind::Mul:
        O = Op::MulI;
        break;
      case NatKind::Div:
        O = Op::DivI;
        break;
      case NatKind::Mod:
        O = Op::ModI;
        break;
      default:
        O = Op::PowI;
        break;
      }
      int D = newReg();
      if (D < 0)
        return -1;
      emit(O, static_cast<uint16_t>(D), static_cast<uint16_t>(L),
           static_cast<uint16_t>(R), 0);
      return D;
    }
    }
    fail("unhandled nat kind");
    return -1;
  }

  /// Inserts the conversion instructions turning \p R (kind \p From) into
  /// kind \p To with C++ cast semantics: int -> float narrows through
  /// `float` when the target is f32, float -> int truncates.
  int convert(int R, VK From, VK To) {
    if (R < 0 || From == To)
      return R;
    // F32 registers hold their value as an exact double, so widening to
    // F64 is a re-classification, not an instruction.
    if (From == VK::F32 && To == VK::F64)
      return R;
    int D = newReg();
    if (D < 0)
      return -1;
    if (From == VK::I64) {
      emit(Op::I2F, static_cast<uint16_t>(D), static_cast<uint16_t>(R), 0, 0);
      if (To == VK::F32) {
        int D2 = newReg();
        if (D2 < 0)
          return -1;
        emit(Op::F2F32, static_cast<uint16_t>(D2), static_cast<uint16_t>(D),
             0, 0);
        return D2;
      }
      return D;
    }
    if (To == VK::I64) {
      emit(Op::F2I, static_cast<uint16_t>(D), static_cast<uint16_t>(R), 0, 0);
      return D;
    }
    // F64 -> F32.
    emit(Op::F2F32, static_cast<uint16_t>(D), static_cast<uint16_t>(R), 0, 0);
    return D;
  }

  static VK promote(VK A, VK B) {
    if (A == VK::F64 || B == VK::F64)
      return VK::F64;
    if (A == VK::F32 || B == VK::F32)
      return VK::F32;
    return VK::I64;
  }

  struct RV {
    int Reg = -1;
    VK Kind = VK::I64;
    bool ok() const { return Reg >= 0; }
  };

  int memByteBase(const kir::MemRef &Ref) {
    if (Ref.ByteBase >
        static_cast<size_t>(std::numeric_limits<int32_t>::max())) {
      fail("arena offset of `" + Ref.Name + "` exceeds the bytecode range");
      return -1;
    }
    return static_cast<int>(Ref.ByteBase);
  }

  RV compileLoad(const kir::MemRef &Ref, const Nat &Index) {
    int Idx = compileNat(Index);
    int D = newReg();
    if (Idx < 0 || D < 0)
      return {};
    uint16_t EK = static_cast<uint16_t>(Ref.Elem);
    switch (Ref.Space) {
    case kir::MemSpace::Global: {
      auto It = ParamIdx.find(Ref.Name);
      if (It == ParamIdx.end()) {
        fail("unknown global buffer `" + Ref.Name + "`");
        return {};
      }
      emit(Op::LoadGlobal, static_cast<uint16_t>(D),
           static_cast<uint16_t>(Idx), EK, static_cast<int32_t>(It->second));
      break;
    }
    case kir::MemSpace::Shared: {
      int Base = memByteBase(Ref);
      if (Base < 0)
        return {};
      emit(Op::LoadShared, static_cast<uint16_t>(D),
           static_cast<uint16_t>(Idx), EK, Base);
      break;
    }
    case kir::MemSpace::Arena: {
      int Base = memByteBase(Ref);
      if (Base < 0)
        return {};
      emit(Op::LoadArena, static_cast<uint16_t>(D),
           static_cast<uint16_t>(Idx), EK, Base);
      break;
    }
    }
    return {D, vkOf(Ref.Elem)};
  }

  bool compileStore(const kir::MemRef &Ref, const Nat &Index,
                    const kir::Expr &Value) {
    int Idx = compileNat(Index);
    RV V = compileExpr(Value);
    if (Idx < 0 || !V.ok())
      return false;
    int R = convert(V.Reg, V.Kind, vkOf(Ref.Elem));
    if (R < 0)
      return false;
    uint16_t EK = static_cast<uint16_t>(Ref.Elem);
    switch (Ref.Space) {
    case kir::MemSpace::Global: {
      auto It = ParamIdx.find(Ref.Name);
      if (It == ParamIdx.end())
        return fail("unknown global buffer `" + Ref.Name + "`");
      emit(Op::StoreGlobal, static_cast<uint16_t>(R),
           static_cast<uint16_t>(Idx), EK, static_cast<int32_t>(It->second));
      return true;
    }
    case kir::MemSpace::Shared: {
      int Base = memByteBase(Ref);
      if (Base < 0)
        return false;
      emit(Op::StoreShared, static_cast<uint16_t>(R),
           static_cast<uint16_t>(Idx), EK, Base);
      return true;
    }
    case kir::MemSpace::Arena: {
      int Base = memByteBase(Ref);
      if (Base < 0)
        return false;
      emit(Op::StoreArena, static_cast<uint16_t>(R),
           static_cast<uint16_t>(Idx), EK, Base);
      return true;
    }
    }
    return fail("unhandled memory space");
  }

  /// Wide (two-element) load: r[D], r[D+1] = buf[idx], buf[idx+1] as one
  /// issued transaction. Returns the first register (second is D+1) or -1.
  int compileLoad2(const kir::MemRef &Ref, const Nat &Index) {
    int Idx = compileNat(Index);
    int D0 = newReg();
    int D1 = newReg(); // adjacent by construction
    if (Idx < 0 || D0 < 0 || D1 < 0)
      return -1;
    uint16_t EK = static_cast<uint16_t>(Ref.Elem);
    switch (Ref.Space) {
    case kir::MemSpace::Global: {
      auto It = ParamIdx.find(Ref.Name);
      if (It == ParamIdx.end()) {
        fail("unknown global buffer `" + Ref.Name + "`");
        return -1;
      }
      emit(Op::LoadGlobal2, static_cast<uint16_t>(D0),
           static_cast<uint16_t>(Idx), EK, static_cast<int32_t>(It->second));
      return D0;
    }
    case kir::MemSpace::Shared: {
      int Base = memByteBase(Ref);
      if (Base < 0)
        return -1;
      emit(Op::LoadShared2, static_cast<uint16_t>(D0),
           static_cast<uint16_t>(Idx), EK, Base);
      return D0;
    }
    case kir::MemSpace::Arena:
      break;
    }
    fail("wide access to the per-thread arena");
    return -1;
  }

  bool compileStore2(const kir::MemRef &Ref, const Nat &Index,
                     const kir::Expr &V0, const kir::Expr &V1) {
    int Idx = compileNat(Index);
    RV A = compileExpr(V0);
    RV B = compileExpr(V1);
    if (Idx < 0 || !A.ok() || !B.ok())
      return false;
    int R0 = convert(A.Reg, A.Kind, vkOf(Ref.Elem));
    int R1 = convert(B.Reg, B.Kind, vkOf(Ref.Elem));
    // The wide-store operands live in adjacent registers (A, A+1).
    int D0 = newReg();
    int D1 = newReg();
    if (R0 < 0 || R1 < 0 || D0 < 0 || D1 < 0)
      return false;
    emit(Op::Move, static_cast<uint16_t>(D0), static_cast<uint16_t>(R0), 0, 0);
    emit(Op::Move, static_cast<uint16_t>(D1), static_cast<uint16_t>(R1), 0, 0);
    uint16_t EK = static_cast<uint16_t>(Ref.Elem);
    switch (Ref.Space) {
    case kir::MemSpace::Global: {
      auto It = ParamIdx.find(Ref.Name);
      if (It == ParamIdx.end())
        return fail("unknown global buffer `" + Ref.Name + "`");
      emit(Op::StoreGlobal2, static_cast<uint16_t>(D0),
           static_cast<uint16_t>(Idx), EK, static_cast<int32_t>(It->second));
      return true;
    }
    case kir::MemSpace::Shared: {
      int Base = memByteBase(Ref);
      if (Base < 0)
        return false;
      emit(Op::StoreShared2, static_cast<uint16_t>(D0),
           static_cast<uint16_t>(Idx), EK, Base);
      return true;
    }
    case kir::MemSpace::Arena:
      break;
    }
    return fail("wide access to the per-thread arena");
  }

  RV compileExpr(const kir::Expr &E) {
    switch (E.K) {
    case kir::ExprKind::NatVal:
      return {compileNat(E.N), VK::I64};
    case kir::ExprKind::IntLit:
      return {constI(E.IntVal), VK::I64};
    case kir::ExprKind::FloatLit: {
      VK K = vkOf(E.Scalar);
      double V = K == VK::F32 ? static_cast<double>(
                                    static_cast<float>(E.FloatVal))
                              : E.FloatVal;
      return {constF(V), K};
    }
    case kir::ExprKind::BoolLit:
      return {constI(E.BoolVal ? 1 : 0), VK::I64};
    case kir::ExprKind::UnitLit:
      return {constI(0), VK::I64};
    case kir::ExprKind::VarRef: {
      const LocalVar *L = lookupLocal(E.Name);
      if (!L) {
        fail("reference to undefined local `" + E.Name + "`");
        return {};
      }
      return {L->Reg, L->Kind};
    }
    case kir::ExprKind::Load:
      return compileLoad(E.Ref, E.Index);
    case kir::ExprKind::Binary:
      return compileBinary(E);
    case kir::ExprKind::Unary: {
      RV S = compileExpr(*E.Sub);
      if (!S.ok())
        return {};
      int D = newReg();
      if (D < 0)
        return {};
      if (E.UO == kir::UnOp::Not) {
        int R = convert(S.Reg, S.Kind, VK::I64);
        emit(Op::NotI, static_cast<uint16_t>(D), static_cast<uint16_t>(R), 0,
             0);
        return {D, VK::I64};
      }
      Op O = S.Kind == VK::I64
                 ? Op::NegI
                 : (S.Kind == VK::F32 ? Op::NegF32 : Op::NegF);
      emit(O, static_cast<uint16_t>(D), static_cast<uint16_t>(S.Reg), 0, 0);
      return {D, S.Kind};
    }
    }
    fail("unhandled expression kind");
    return {};
  }

  RV compileBinary(const kir::Expr &E) {
    RV L = compileExpr(*E.Lhs);
    RV R = compileExpr(*E.Rhs);
    if (!L.ok() || !R.ok())
      return {};

    using kir::BinOp;
    if (E.BO == BinOp::And || E.BO == BinOp::Or) {
      int LR = convert(L.Reg, L.Kind, VK::I64);
      int RR = convert(R.Reg, R.Kind, VK::I64);
      int D = newReg();
      if (LR < 0 || RR < 0 || D < 0)
        return {};
      emit(E.BO == BinOp::And ? Op::AndI : Op::OrI, static_cast<uint16_t>(D),
           static_cast<uint16_t>(LR), static_cast<uint16_t>(RR), 0);
      return {D, VK::I64};
    }

    bool IsCmp = E.BO == BinOp::Eq || E.BO == BinOp::Ne ||
                 E.BO == BinOp::Lt || E.BO == BinOp::Le ||
                 E.BO == BinOp::Gt || E.BO == BinOp::Ge;
    VK K = promote(L.Kind, R.Kind);
    // Comparisons of mixed int/float promote the int side; f32 values are
    // exact doubles, so the double comparison matches the float one.
    VK OpK = IsCmp && K == VK::F32 ? VK::F64 : K;
    int LR = convert(L.Reg, L.Kind, IsCmp ? OpK : K);
    int RR = convert(R.Reg, R.Kind, IsCmp ? OpK : K);
    int D = newReg();
    if (LR < 0 || RR < 0 || D < 0)
      return {};

    Op O;
    bool F = (IsCmp ? OpK : K) != VK::I64;
    switch (E.BO) {
    case BinOp::Add:
      O = K == VK::I64 ? Op::AddI : (K == VK::F32 ? Op::AddF32 : Op::AddF);
      break;
    case BinOp::Sub:
      O = K == VK::I64 ? Op::SubI : (K == VK::F32 ? Op::SubF32 : Op::SubF);
      break;
    case BinOp::Mul:
      O = K == VK::I64 ? Op::MulI : (K == VK::F32 ? Op::MulF32 : Op::MulF);
      break;
    case BinOp::Div:
      O = K == VK::I64 ? Op::DivI : (K == VK::F32 ? Op::DivF32 : Op::DivF);
      break;
    case BinOp::Mod: // integers only: the type checker rejects float `%`
      O = Op::ModI;
      break;
    case BinOp::Eq:
      O = F ? Op::EqF : Op::EqI;
      break;
    case BinOp::Ne:
      O = F ? Op::NeF : Op::NeI;
      break;
    case BinOp::Lt:
      O = F ? Op::LtF : Op::LtI;
      break;
    case BinOp::Le:
      O = F ? Op::LeF : Op::LeI;
      break;
    case BinOp::Gt:
      O = F ? Op::GtF : Op::GtI;
      break;
    case BinOp::Ge:
      O = F ? Op::GeF : Op::GeI;
      break;
    default:
      fail("unhandled binary operator");
      return {};
    }
    emit(O, static_cast<uint16_t>(D), static_cast<uint16_t>(LR),
         static_cast<uint16_t>(RR), 0);
    return {D, IsCmp ? VK::I64 : K};
  }

  /// Binds \p Name to a fresh mutable register holding \p V.
  bool bindLocal(const std::string &Name, RV V, VK DeclKind) {
    int R = convert(V.Reg, V.Kind, DeclKind);
    int Slot = newReg();
    if (R < 0 || Slot < 0)
      return false;
    emit(Op::Move, static_cast<uint16_t>(Slot), static_cast<uint16_t>(R), 0,
         0);
    Scopes.back()[Name] = LocalVar{Slot, DeclKind};
    return true;
  }

  bool compileStmts(const std::vector<kir::Stmt> &Stmts) {
    for (const kir::Stmt &S : Stmts)
      if (!compileStmt(S))
        return false;
    return true;
  }

  bool compileStmt(const kir::Stmt &S) {
    switch (S.K) {
    case kir::StmtKind::Let: {
      if (S.Width == 2) {
        if (!S.Value || S.Value->K != kir::ExprKind::Load || S.Name2.empty())
          return fail("wide let `" + S.Name + "` that is not a two-target "
                      "load");
        int D0 = compileLoad2(S.Value->Ref, S.Value->Index);
        if (D0 < 0)
          return false;
        VK K = vkOf(S.Value->Ref.Elem);
        return bindLocal(S.Name, RV{D0, K}, vkOf(S.Elem)) &&
               bindLocal(S.Name2, RV{D0 + 1, K}, vkOf(S.Elem));
      }
      RV V = compileExpr(*S.Value);
      if (!V.ok())
        return false;
      return bindLocal(S.Name, V, vkOf(S.Elem));
    }
    case kir::StmtKind::LetIndex: {
      int R = compileNat(S.Index);
      if (R < 0)
        return false;
      return bindLocal(S.Name, RV{R, VK::I64}, VK::I64);
    }
    case kir::StmtKind::Assign: {
      LocalVar *L = lookupLocal(S.Name);
      if (!L)
        return fail("assignment to undefined local `" + S.Name + "`");
      RV V = compileExpr(*S.Value);
      if (!V.ok())
        return false;
      int R = convert(V.Reg, V.Kind, L->Kind);
      if (R < 0)
        return false;
      emit(Op::Move, static_cast<uint16_t>(L->Reg), static_cast<uint16_t>(R),
           0, 0);
      return true;
    }
    case kir::StmtKind::Store:
      if (S.Width == 2) {
        if (!S.Value || !S.Value2)
          return fail("wide store without both values");
        return compileStore2(S.Ref, S.Index, *S.Value, *S.Value2);
      }
      return compileStore(S.Ref, S.Index, *S.Value);
    case kir::StmtKind::If: {
      int L = compileNat(S.CondL);
      int R = compileNat(S.CondR);
      int Cond = newReg();
      if (L < 0 || R < 0 || Cond < 0)
        return false;
      emit(Op::LtI, static_cast<uint16_t>(Cond), static_cast<uint16_t>(L),
           static_cast<uint16_t>(R), 0);
      size_t JzAt = C.Instrs.size();
      emit(Op::Jz, static_cast<uint16_t>(Cond), 0, 0, 0);
      Scopes.emplace_back();
      bool Ok = compileStmts(S.Then);
      Scopes.pop_back();
      if (!Ok)
        return false;
      if (!S.Else.empty()) {
        size_t JmpAt = C.Instrs.size();
        emit(Op::Jmp, 0, 0, 0, 0);
        C.Instrs[JzAt].Imm = static_cast<int32_t>(C.Instrs.size());
        Scopes.emplace_back();
        Ok = compileStmts(S.Else);
        Scopes.pop_back();
        if (!Ok)
          return false;
        C.Instrs[JmpAt].Imm = static_cast<int32_t>(C.Instrs.size());
      } else {
        C.Instrs[JzAt].Imm = static_cast<int32_t>(C.Instrs.size());
      }
      return true;
    }
    case kir::StmtKind::For: {
      Scopes.emplace_back();
      int Lo = compileNat(S.Lo);
      if (Lo < 0)
        return false;
      if (!bindLocal(S.Name, RV{Lo, VK::I64}, VK::I64))
        return false;
      int Var = lookupLocal(S.Name)->Reg;
      int Hi = compileNat(S.Hi); // loop-invariant: hoisted
      int One = constI(1);
      int Cond = newReg();
      if (Hi < 0 || One < 0 || Cond < 0)
        return false;
      size_t Top = C.Instrs.size();
      emit(Op::LtI, static_cast<uint16_t>(Cond), static_cast<uint16_t>(Var),
           static_cast<uint16_t>(Hi), 0);
      size_t JzAt = C.Instrs.size();
      emit(Op::Jz, static_cast<uint16_t>(Cond), 0, 0, 0);
      bool Ok = compileStmts(S.Body);
      if (!Ok)
        return false;
      emit(Op::AddI, static_cast<uint16_t>(Var), static_cast<uint16_t>(Var),
           static_cast<uint16_t>(One), 0);
      emit(Op::Jmp, 0, 0, 0, static_cast<int32_t>(Top));
      C.Instrs[JzAt].Imm = static_cast<int32_t>(C.Instrs.size());
      Scopes.pop_back();
      return true;
    }
    case kir::StmtKind::Barrier:
      // Sim-target phase bodies never contain barriers: the phase boundary
      // is the barrier. Reaching one means the IR is malformed.
      return fail("barrier statement inside a phase body");
    }
    return fail("unhandled statement kind");
  }
};

//===----------------------------------------------------------------------===//
// Kernel compilation
//===----------------------------------------------------------------------===//

bool compileNodes(const std::vector<codegen::PhaseNode> &Nodes,
                  std::vector<LoopBinding> &Enclosing,
                  const std::map<std::string, unsigned> &ParamIdx,
                  std::vector<VmNode> &Out, unsigned &StraightPhases,
                  std::string &Err) {
  for (const codegen::PhaseNode &N : Nodes) {
    VmNode V;
    if (N.K == codegen::PhaseNode::Straight) {
      V.K = VmNode::Straight;
      CodeBuilder B(Enclosing, ParamIdx, /*AllowCoords=*/true);
      if (!B.run(N.Body, V.Body)) {
        Err = B.error();
        return false;
      }
      ++StraightPhases;
      Out.push_back(std::move(V));
      continue;
    }
    V.K = VmNode::Loop;
    V.Slot = N.Slot;
    {
      CodeBuilder BL(Enclosing, ParamIdx, /*AllowCoords=*/false);
      if (!BL.runBound(N.Lo, V.Lo)) {
        Err = BL.error();
        return false;
      }
      CodeBuilder BH(Enclosing, ParamIdx, /*AllowCoords=*/false);
      if (!BH.runBound(N.Hi, V.Hi)) {
        Err = BH.error();
        return false;
      }
    }
    Enclosing.push_back(LoopBinding{N.Var, N.Slot});
    bool Ok = compileNodes(N.Children, Enclosing, ParamIdx, V.Children,
                           StraightPhases, Err);
    Enclosing.pop_back();
    if (!Ok)
      return false;
    Out.push_back(std::move(V));
  }
  return true;
}

bool compileKernel(const Module &M, const FnDef &Fn,
                   const kir::PassConfig &Passes, VmKernel &K,
                   std::string &Err) {
  codegen::Lowerer L(M, codegen::LowerTarget::Sim, Passes);
  if (!L.runKernel(Fn)) {
    Err = "while lowering `" + Fn.Name + "`: " + L.Error;
    return false;
  }
  if (L.Program.maxLoopDepth() > sim::BlockCtx::MaxLoopSlots) {
    Err = "while lowering `" + Fn.Name + "`: phase loops nest deeper than "
          "the simulator's " +
          std::to_string(sim::BlockCtx::MaxLoopSlots) + " slots";
    return false;
  }

  K.Name = Fn.Name;
  auto DimOf = [&](const Dim &D, sim::Dim3 &Out) -> bool {
    std::array<unsigned, 3> E;
    if (!codegen::launchExtents(Fn, D, E, Err))
      return false;
    Out = sim::Dim3{E[0], E[1], E[2]};
    return true;
  };
  if (!DimOf(Fn.Exec.GridDim, K.Grid) || !DimOf(Fn.Exec.BlockDim, K.Block))
    return false;

  unsigned Threads = K.Block.total();
  K.SharedBytes = L.SharedBytes;
  K.LocalsBase = (L.SharedBytes + 7) & ~size_t(7);
  K.ArenaBytes = K.LocalsBase + L.LocalBytesPerThread * Threads;

  std::map<std::string, unsigned> ParamIdx;
  for (const FnParam &P : Fn.Params) {
    const auto *Ref = dyn_cast<RefType>(P.Ty.get());
    std::vector<Nat> Dims;
    ScalarKind Elem = ScalarKind::F64;
    if (!Ref || !codegen::arrayNest(Ref->Pointee, Dims, Elem)) {
      Err = "unsupported kernel parameter type `" + P.Ty->str() + "` of `" +
            Fn.Name + "`";
      return false;
    }
    Nat Count = Nat::lit(1);
    for (const Nat &D : Dims)
      Count = Count * D;
    auto CV = Count.simplified().evaluate({});
    if (!CV) {
      Err = "parameter `" + P.Name + "` of `" + Fn.Name + "` has size `" +
            Count.simplified().str() + "` that is not instantiated (pass -D)";
      return false;
    }
    VmKernel::Param KP;
    KP.Name = P.Name;
    KP.Elem = Elem;
    KP.Count = static_cast<size_t>(*CV);
    ParamIdx[P.Name] = static_cast<unsigned>(K.Params.size());
    K.Params.push_back(std::move(KP));
  }

  std::vector<LoopBinding> Enclosing;
  std::string NodeErr;
  if (!compileNodes(L.Program.Nodes, Enclosing, ParamIdx, K.Nodes,
                    K.StraightPhases, NodeErr)) {
    Err = "while compiling `" + Fn.Name + "`: " + NodeErr;
    return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Host functions: the vm's two steps over hostgen's IR
//===----------------------------------------------------------------------===//

/// Fails unless buffer \p V's size is instantiated: the interpreter
/// allocates and checks buffers by count and never evaluates a Nat.
bool sized(const hostgen::HostVar &V, const char *What, std::string &Err) {
  if (V.CountValue && *V.CountValue >= 0)
    return true;
  Err = std::string(What) + " `" + V.Count.str() +
        "` is not instantiated (pass -D)";
  return false;
}

/// Checks that \p Body's allocation sizes and loop bounds are
/// instantiated, and resolves its launches to kernel indices.
bool prepareHostStmts(std::vector<hostgen::HostStmt> &Body,
                      const HostFnIR &F, const std::vector<VmKernel> &Kernels,
                      std::string &Err) {
  using hostgen::HostStmt;
  for (HostStmt &S : Body) {
    if (S.K == HostStmt::Alloc &&
        !sized(F.Vars[S.Dst], "host array size", Err))
      return false;
    if (S.K == HostStmt::ForNat && (!S.LoValue || !S.HiValue)) {
      Err = "for-nat bounds `[" + S.Lo.str() + ".." + S.Hi.str() +
            "]` are not instantiated (pass -D)";
      return false;
    }
    if (S.K == HostStmt::Launch) {
      auto It = std::find_if(
          Kernels.begin(), Kernels.end(),
          [&](const VmKernel &K) { return K.Name == S.Callee; });
      if (It == Kernels.end()) {
        Err = "launch of unknown kernel `" + S.Callee + "`";
        return false;
      }
      S.Target = static_cast<unsigned>(It - Kernels.begin());
    }
    if (!prepareHostStmts(S.Body, F, Kernels, Err))
      return false;
  }
  return true;
}

bool prepareHostFn(HostFnIR &F, const std::vector<VmKernel> &Kernels,
                   std::string &Err) {
  for (unsigned I = 0; I != F.NumParams; ++I)
    if (F.Vars[I].K != hostgen::HostVar::Scalar &&
        !sized(F.Vars[I], "host parameter size", Err))
      return false;
  return prepareHostStmts(F.Body, F, Kernels, Err);
}

//===----------------------------------------------------------------------===//
// Disassembly
//===----------------------------------------------------------------------===//

void disasmCode(std::ostringstream &OS, const Code &C, const char *Indent) {
  for (size_t I = 0; I != C.Instrs.size(); ++I) {
    const Instr &In = C.Instrs[I];
    OS << Indent << I << ": " << opName(In.K);
    if (In.K == Op::Jmp) {
      OS << " -> " << In.Imm << "\n";
      continue;
    }
    if (In.K == Op::Ret) {
      OS << "\n";
      continue;
    }
    OS << " r" << In.A;
    switch (In.K) {
    case Op::Const:
      OS << ", const[" << In.Imm << "]";
      break;
    case Op::Coord:
    case Op::Slot:
      OS << ", " << In.Imm;
      break;
    case Op::Jz:
      OS << " -> " << In.Imm;
      break;
    case Op::Move:
    case Op::NotI:
    case Op::NegI:
    case Op::NegF:
    case Op::NegF32:
    case Op::I2F:
    case Op::F2I:
    case Op::F2F32:
      OS << ", r" << In.B;
      break;
    case Op::LoadGlobal:
    case Op::StoreGlobal:
      OS << ", r" << In.B << ", param[" << In.Imm << "]";
      break;
    case Op::LoadGlobal2:
    case Op::StoreGlobal2:
      OS << ":r" << (In.A + 1) << ", r" << In.B << ", param[" << In.Imm
         << "]";
      break;
    case Op::LoadShared:
    case Op::StoreShared:
    case Op::LoadArena:
    case Op::StoreArena:
      OS << ", r" << In.B << ", base=" << In.Imm;
      break;
    case Op::LoadShared2:
    case Op::StoreShared2:
      OS << ":r" << (In.A + 1) << ", r" << In.B << ", base=" << In.Imm;
      break;
    case Op::Ret:
    case Op::RetVal:
      break;
    default:
      OS << ", r" << In.B << ", r" << In.C;
      break;
    }
    OS << "\n";
  }
}

void disasmNodes(std::ostringstream &OS, const std::vector<VmNode> &Nodes,
                 unsigned Depth, unsigned &Phase) {
  std::string Ind(Depth * 2 + 2, ' ');
  for (const VmNode &N : Nodes) {
    if (N.K == VmNode::Straight) {
      OS << Ind << "phase #" << Phase++ << " (" << N.Body.Instrs.size()
         << " instrs, " << N.Body.NumRegs << " regs)\n";
      disasmCode(OS, N.Body, (Ind + "  ").c_str());
      continue;
    }
    OS << Ind << "loop slot " << N.Slot << "\n";
    disasmNodes(OS, N.Children, Depth + 1, Phase);
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Public entry points
//===----------------------------------------------------------------------===//

const char *vm::opName(Op O) {
  switch (O) {
  case Op::Const: return "const";
  case Op::Coord: return "coord";
  case Op::Slot: return "slot";
  case Op::Move: return "move";
  case Op::LoadGlobal: return "ld.g";
  case Op::StoreGlobal: return "st.g";
  case Op::LoadShared: return "ld.s";
  case Op::StoreShared: return "st.s";
  case Op::LoadArena: return "ld.a";
  case Op::StoreArena: return "st.a";
  case Op::LoadGlobal2: return "ld.g2";
  case Op::StoreGlobal2: return "st.g2";
  case Op::LoadShared2: return "ld.s2";
  case Op::StoreShared2: return "st.s2";
  case Op::AddI: return "add.i";
  case Op::SubI: return "sub.i";
  case Op::MulI: return "mul.i";
  case Op::DivI: return "div.i";
  case Op::ModI: return "mod.i";
  case Op::PowI: return "pow.i";
  case Op::AddF: return "add.f";
  case Op::SubF: return "sub.f";
  case Op::MulF: return "mul.f";
  case Op::DivF: return "div.f";
  case Op::AddF32: return "add.f32";
  case Op::SubF32: return "sub.f32";
  case Op::MulF32: return "mul.f32";
  case Op::DivF32: return "div.f32";
  case Op::LtI: return "lt.i";
  case Op::LeI: return "le.i";
  case Op::GtI: return "gt.i";
  case Op::GeI: return "ge.i";
  case Op::EqI: return "eq.i";
  case Op::NeI: return "ne.i";
  case Op::LtF: return "lt.f";
  case Op::LeF: return "le.f";
  case Op::GtF: return "gt.f";
  case Op::GeF: return "ge.f";
  case Op::EqF: return "eq.f";
  case Op::NeF: return "ne.f";
  case Op::AndI: return "and";
  case Op::OrI: return "or";
  case Op::NotI: return "not";
  case Op::NegI: return "neg.i";
  case Op::NegF: return "neg.f";
  case Op::NegF32: return "neg.f32";
  case Op::I2F: return "i2f";
  case Op::F2I: return "f2i";
  case Op::F2F32: return "f2f32";
  case Op::Jmp: return "jmp";
  case Op::Jz: return "jz";
  case Op::Ret: return "ret";
  case Op::RetVal: return "retval";
  }
  return "?";
}

size_t vm::scalarSize(ScalarKind K) {
  switch (K) {
  case ScalarKind::I32:
  case ScalarKind::U32:
  case ScalarKind::F32:
    return 4;
  case ScalarKind::I64:
  case ScalarKind::U64:
  case ScalarKind::F64:
    return 8;
  case ScalarKind::Bool:
    return 1;
  case ScalarKind::Unit:
    return 0;
  }
  return 0;
}

const VmKernel *CompiledProgram::findKernel(const std::string &Name) const {
  for (const VmKernel &K : Kernels)
    if (K.Name == Name)
      return &K;
  return nullptr;
}

const HostFnIR *CompiledProgram::findHostFn(const std::string &Name) const {
  for (const HostFnIR &F : HostFns)
    if (F.Name == Name)
      return &F;
  return nullptr;
}

CompileVmResult vm::compile(const Module &M, const kir::PassConfig &Passes) {
  CompileVmResult R;
  try {
    auto P = std::make_shared<CompiledProgram>();
    for (const auto &FnPtr : M.Fns) {
      const FnDef &Fn = *FnPtr;
      if (!Fn.isGpuFn())
        continue;
      VmKernel K;
      if (!compileKernel(M, Fn, Passes, K, R.Error))
        return R;
      P->Kernels.push_back(std::move(K));
    }
    for (const auto &FnPtr : M.Fns) {
      const FnDef &Fn = *FnPtr;
      if (!Fn.isCpuFn() || !Fn.Body)
        continue;
      hostgen::HostBuildResult H = hostgen::buildHostFn(M, Fn);
      std::string Err = H.Error;
      if (!H.Ok || !prepareHostFn(H.Fn, P->Kernels, Err)) {
        R.Error = "while compiling host `" + Fn.Name + "`: " + Err;
        return R;
      }
      P->HostFns.push_back(std::move(H.Fn));
    }
    R.Ok = true;
    R.Program = std::move(P);
  } catch (const std::exception &E) {
    R.Ok = false;
    R.Program.reset();
    R.Error = std::string("internal error during vm compilation: ") +
              E.what();
  } catch (...) {
    R.Ok = false;
    R.Program.reset();
    R.Error = "internal error during vm compilation";
  }
  return R;
}

std::string vm::disassemble(const CompiledProgram &P) {
  std::ostringstream OS;
  OS << "// vm bytecode listing (descendc --emit=vm)\n";
  for (const VmKernel &K : P.Kernels) {
    OS << "\nkernel " << K.Name << " grid(" << K.Grid.X << ", " << K.Grid.Y
       << ", " << K.Grid.Z << ") block(" << K.Block.X << ", " << K.Block.Y
       << ", " << K.Block.Z << ")\n";
    OS << "  shared " << K.SharedBytes << " B, locals base " << K.LocalsBase
       << ", arena " << K.ArenaBytes << " B\n";
    for (size_t I = 0; I != K.Params.size(); ++I)
      OS << "  param[" << I << "] " << K.Params[I].Name << ": ["
         << scalarKindName(K.Params[I].Elem) << "; " << K.Params[I].Count
         << "]\n";
    unsigned Phase = 0;
    disasmNodes(OS, K.Nodes, 0, Phase);
  }
  for (const HostFnIR &F : P.HostFns)
    OS << "\n" << hostgen::dumpHostFn(F);
  return OS.str();
}
