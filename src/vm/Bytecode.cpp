//===- vm/Bytecode.cpp - KIR -> bytecode compilation -------------------------===//
//
// The vm backend's compiler half: lowers every GPU kernel with the shared
// Lowerer (exactly like the sim backend, so geometry, arena layout and
// phase structure agree bit for bit with the generated headers), then
// translates each phase body / loop bound from typed kernel IR into
// register bytecode, marking what is uniform across a lane group and
// computing it once (CodeBuilder). Each cpu.thread function keeps the
// host IR hostgen builds for it, with its sizes instantiated and its
// launches resolved.
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

/// Names of the coordinates a Coord or Range instruction reads, by index.
const char *const CoordNames[7] = {"_bx", "_by", "_bz", "_tx",
                                   "_ty", "_tz", "_lin"};

/// One enclosing PhaseLoop binding visible to the code being compiled.
struct LoopBinding {
  std::string Var;
  unsigned Slot;
};

/// Builds one Code object (a phase body or a loop bound) in one pass over
/// the KIR, deciding for each value as it is emitted:
/// - its class. A value is uniform when it is a constant, a block
///   coordinate, a loop slot, the counter of a uniform-trip `for` outside
///   any varying `if`, or an operation on uniform values placed outside
///   any varying `if` or varying-trip `for`; else it is varying.
/// - where it is computed. A pure value (no memory access) is looked up
///   in the scoped CSE table first. If it is uniform, depends on no
///   counter and cannot trap, it goes to the prologue; a pure value that
///   cannot trap moves before the head of every enclosing uniform-trip
///   `for` whose body it sits in directly and whose operands it does not
///   depend on. Nothing moves out of an `if`.
/// Divergence is read off KIR's structured `If`/`For` while emitting, and
/// the CSE table is keyed by opcode and register numbers, so the analysis
/// costs one pass. Registers are SSA-ish: every value lands in a fresh
/// register; a named local names the register of its value, except a
/// local that some Assign writes (and every For counter), which keeps one
/// mutable register for its scope.
class CodeBuilder {
public:
  /// \p Block is the kernel's block; without \p AllowCoords (a host-side
  /// loop bound) no coordinate may appear.
  CodeBuilder(const std::vector<LoopBinding> &Enclosing,
              const std::map<std::string, unsigned> &ParamIdx,
              bool AllowCoords, sim::Dim3 Block)
      : Enclosing(Enclosing), ParamIdx(ParamIdx), AllowCoords(AllowCoords),
        Block(Block) {
    Chunks.resize(2); // the prologue, then the body
    Chunks[0].reserve(16);
    Chunks[1].reserve(32);
    Regs.reserve(32);
    Scopes.emplace_back();
  }

  bool run(const std::vector<kir::Stmt> &Stmts, Code &Out) {
    collectAssigned(Stmts);
    if (!compileStmts(Stmts))
      return false;
    emit(Op::Ret, true, -1, -1, -1, 0);
    return finish(Out);
  }

  bool runBound(const Nat &N, Code &Out) {
    int R = compileNat(N);
    if (R < 0)
      return false;
    emit(Op::RetVal, true, R, -1, -1, 0);
    return finish(Out);
  }

  const std::string &error() const { return Err; }

private:
  /// An instruction under construction: registers are builder ids (-1
  /// when unused), jump targets label ids.
  struct BInstr {
    Op K;
    bool U;
    int A, B, C;
    int32_t Imm;
  };

  struct RegInfo {
    bool Uniform = false;
    bool Mutable = false;  ///< a named local's register that Assign or a
                           ///< For increment writes
    bool Prologue = false; ///< computed in the prologue
    bool Lit = false;      ///< a Const of integer value LitValue
    long long LitValue = 0;
    unsigned Level = 0; ///< the scope depth where the value is available
  };

  struct LocalVar {
    int Reg = -1;
    VK Kind = VK::I64;
  };

  struct Scope {
    std::map<std::string, LocalVar> Locals;
    bool Divergent = false; ///< lanes of a group may disagree on entering
    int PreHeader = -1;     ///< chunk before the head of this uniform-trip
                            ///< loop body, -1 for other scopes
  };

  struct CseEntry {
    Op K;
    int B, C;
    int32_t Imm;
    int Reg;
    unsigned Level;
  };

  std::vector<std::vector<BInstr>> Chunks;
  unsigned Cur = 1;
  std::vector<std::pair<unsigned, unsigned>> Labels; ///< (chunk, index)
  std::vector<RegInfo> Regs;
  std::vector<CseEntry> Cse;
  std::vector<Scope> Scopes;
  std::vector<const std::string *> Assigned;
  std::vector<Value> Consts;
  std::string Err;
  const std::vector<LoopBinding> &Enclosing;
  const std::map<std::string, unsigned> &ParamIdx;
  bool AllowCoords;
  sim::Dim3 Block;

  bool fail(const std::string &Msg) {
    if (Err.empty())
      Err = Msg;
    return false;
  }

  unsigned depth() const { return static_cast<unsigned>(Scopes.size() - 1); }
  bool divergent() const { return Scopes.back().Divergent; }

  int newReg(bool Uniform, unsigned Level, bool Mutable = false,
             bool Prologue = false) {
    if (Regs.size() > std::numeric_limits<uint16_t>::max()) {
      fail("phase body needs more than 65536 registers");
      return -1;
    }
    RegInfo RI;
    RI.Uniform = Uniform;
    RI.Mutable = Mutable;
    RI.Prologue = Prologue;
    RI.Level = Level;
    Regs.push_back(RI);
    return static_cast<int>(Regs.size() - 1);
  }

  void emitAt(unsigned Chunk, Op K, bool U, int A, int B, int C,
              int32_t Imm) {
    Chunks[Chunk].push_back(BInstr{K, U, A, B, C, Imm});
  }
  void emit(Op K, bool U, int A, int B, int C, int32_t Imm) {
    emitAt(Cur, K, U, A, B, C, Imm);
  }

  int newLabel() {
    Labels.emplace_back(0, 0);
    return static_cast<int>(Labels.size() - 1);
  }
  /// Points \p L at the next instruction of the current chunk. Labels are
  /// only ever bound in the current chunk, which nothing is hoisted into.
  void bindLabel(int L) {
    Labels[L] = {Cur, static_cast<unsigned>(Chunks[Cur].size())};
  }
  void newChunk() {
    Chunks.emplace_back().reserve(16);
    Cur = static_cast<unsigned>(Chunks.size() - 1);
  }

  void pushScope(bool Divergent, int PreHeader) {
    Scope S;
    S.Divergent = Divergent;
    S.PreHeader = PreHeader;
    Scopes.push_back(std::move(S));
  }
  /// Leaves the innermost scope: its locals and CSE entries end there.
  void popScope() {
    const unsigned D = depth();
    Cse.erase(std::remove_if(Cse.begin(), Cse.end(),
                             [D](const CseEntry &E) { return E.Level >= D; }),
              Cse.end());
    Scopes.pop_back();
  }

  /// Gathers the names any Assign of \p Stmts writes: those locals need a
  /// mutable register of their own.
  void collectAssigned(const std::vector<kir::Stmt> &Stmts) {
    for (const kir::Stmt &S : Stmts) {
      if (S.K == kir::StmtKind::Assign)
        Assigned.push_back(&S.Name);
      collectAssigned(S.Then);
      collectAssigned(S.Else);
      collectAssigned(S.Body);
    }
  }
  bool assigned(const std::string &Name) const {
    for (const std::string *A : Assigned)
      if (*A == Name)
        return true;
    return false;
  }

  bool finish(Code &Out) {
    if (!Err.empty())
      return false;
    // Uniform registers first, each class in allocation order (which
    // keeps the register pairs of wide accesses adjacent).
    std::vector<uint16_t> Map(Regs.size());
    unsigned NumU = 0;
    for (const RegInfo &R : Regs)
      NumU += R.Uniform;
    unsigned NextU = 0, NextV = NumU;
    for (size_t I = 0; I != Regs.size(); ++I)
      Map[I] = static_cast<uint16_t>(Regs[I].Uniform ? NextU++ : NextV++);
    std::vector<unsigned> Start(Chunks.size());
    size_t Total = 0;
    for (size_t I = 0; I != Chunks.size(); ++I) {
      Start[I] = static_cast<unsigned>(Total);
      Total += Chunks[I].size();
    }
    Code C;
    C.Instrs.reserve(Total);
    for (const std::vector<BInstr> &Ch : Chunks)
      for (const BInstr &B : Ch) {
        Instr I;
        I.K = B.K;
        I.U = B.U ? 1 : 0;
        const OpShape Sh = opShape(B.K);
        I.A = Sh.WritesA || Sh.ReadsA ? Map[B.A] : 0;
        I.B = Sh.ReadsB ? Map[B.B] : static_cast<uint16_t>(B.B < 0 ? 0 : B.B);
        I.C = Sh.ReadsC ? Map[B.C] : static_cast<uint16_t>(B.C < 0 ? 0 : B.C);
        I.Imm = B.Imm;
        if (B.K == Op::Jmp || B.K == Op::Jz || B.K == Op::Range)
          I.Imm = static_cast<int32_t>(Start[Labels[B.Imm].first] +
                                       Labels[B.Imm].second);
        C.Instrs.push_back(I);
      }
    C.Consts = std::move(Consts);
    C.NumRegs = static_cast<unsigned>(Regs.size());
    C.NumUniform = NumU;
    Out = std::move(C);
    return true;
  }

  //===--------------------------------------------------------------------===//
  // Pure values: CSE, placement and class
  //===--------------------------------------------------------------------===//

  int lookup(Op K, int B, int C, int32_t Imm) const {
    for (auto It = Cse.rbegin(); It != Cse.rend(); ++It)
      if (It->K == K && It->B == B && It->C == C && It->Imm == Imm)
        return It->Reg;
    return -1;
  }

  /// Whether r = K(B, C) can run where its operands are ready rather than
  /// where it stands: it must not trap, so a division or remainder needs
  /// a positive literal divisor and a power a non-negative literal
  /// exponent.
  bool movable(Op K, int C) const {
    switch (K) {
    case Op::DivI:
    case Op::ModI:
      return Regs[C].Lit && Regs[C].LitValue > 0;
    case Op::PowI:
      return Regs[C].Lit && Regs[C].LitValue >= 0;
    default:
      return true;
    }
  }

  /// Emits the pure operation r = K(B, C, Imm) (operands -1 when absent)
  /// and returns its register, or an equal one already in scope. A leaf
  /// (no operands) is uniform iff \p LeafUniform.
  int pure(Op K, int B, int C, int32_t Imm, bool LeafUniform = true) {
    const bool Mut = (B >= 0 && Regs[B].Mutable) || (C >= 0 && Regs[C].Mutable);
    if (!Mut)
      if (int R = lookup(K, B, C, Imm); R >= 0)
        return R;
    const bool AllU = LeafUniform && (B < 0 || Regs[B].Uniform) &&
                      (C < 0 || Regs[C].Uniform);
    const bool Movable = !Mut && movable(K, C);
    unsigned Level = depth(), Chunk = Cur;
    bool Prologue = false;
    if (AllU && Movable && (B < 0 || Regs[B].Prologue) &&
        (C < 0 || Regs[C].Prologue)) {
      Level = 0;
      Chunk = 0;
      Prologue = true;
    } else if (Movable) {
      const unsigned Ready = std::max(B < 0 ? 0 : Regs[B].Level,
                                      C < 0 ? 0 : Regs[C].Level);
      while (Level > 0 && Scopes[Level].PreHeader >= 0 && Ready < Level) {
        Chunk = static_cast<unsigned>(Scopes[Level].PreHeader);
        --Level;
      }
    }
    const bool U = AllU && (Prologue || !Scopes[Level].Divergent);
    int D = newReg(U, Level, /*Mutable=*/false, Prologue);
    if (D < 0)
      return -1;
    emitAt(Chunk, K, U, D, B, C, Imm);
    if (!Mut)
      Cse.push_back(CseEntry{K, B, C, Imm, D, Level});
    return D;
  }

  int addConst(Value V) {
    for (size_t I = 0; I != Consts.size(); ++I)
      if (std::memcmp(&Consts[I], &V, sizeof(Value)) == 0)
        return static_cast<int>(I);
    Consts.push_back(V);
    return static_cast<int>(Consts.size() - 1);
  }

  int constI(long long V) {
    Value CV;
    CV.I = V;
    int R = pure(Op::Const, -1, -1, addConst(CV));
    if (R >= 0) {
      Regs[R].Lit = true;
      Regs[R].LitValue = V;
    }
    return R;
  }

  int constF(double V) {
    Value CV;
    CV.F = V;
    return pure(Op::Const, -1, -1, addConst(CV));
  }

  LocalVar *lookupLocal(const std::string &Name) {
    for (auto It = Scopes.rbegin(); It != Scopes.rend(); ++It)
      if (auto Found = It->Locals.find(Name); Found != It->Locals.end())
        return &Found->second;
    return nullptr;
  }

  /// Coordinate index of a lowering variable, or -1.
  static int coordIndex(const std::string &Name) {
    for (int I = 0; I != 7; ++I)
      if (Name == CoordNames[I])
        return I;
    return -1;
  }

  /// The lane coordinate \p N names, when the block's threads with that
  /// coordinate below a bound are one run of linear ids (rangeStride);
  /// else -1. A name that a local or an enclosing loop binds is no
  /// coordinate (compileNat resolves those first).
  int rangeAxis(const Nat &N) {
    if (!AllowCoords || N.isNull() || N.kind() != NatKind::Var ||
        lookupLocal(N.varName()))
      return -1;
    for (const LoopBinding &L : Enclosing)
      if (L.Var == N.varName())
        return -1;
    const int CI = coordIndex(N.varName());
    return CI >= 3 && rangeStride(static_cast<unsigned>(CI), Block) ? CI : -1;
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
        if (It->Var == Name)
          return pure(Op::Slot, -1, -1, static_cast<int32_t>(It->Slot));
      if (int CI = coordIndex(Name); CI >= 0) {
        if (!AllowCoords) {
          fail("coordinate `" + Name + "` used in a host-side loop bound");
          return -1;
        }
        // _bx/_by/_bz are the same for every thread of a block.
        return pure(Op::Coord, -1, -1, CI, /*LeafUniform=*/CI < 3);
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
      return pure(O, L, R, 0);
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
    if (From == VK::I64) {
      int D = pure(Op::I2F, R, -1, 0);
      return To == VK::F32 && D >= 0 ? pure(Op::F2F32, D, -1, 0) : D;
    }
    if (To == VK::I64)
      return pure(Op::F2I, R, -1, 0);
    // F64 -> F32.
    return pure(Op::F2F32, R, -1, 0);
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

  /// Opcode and immediate of a scalar (\p Wide false) or wide access to
  /// \p Ref; false after a failure.
  bool memOp(const kir::MemRef &Ref, bool Store, bool Wide, Op &O,
             int32_t &Imm) {
    switch (Ref.Space) {
    case kir::MemSpace::Global: {
      auto It = ParamIdx.find(Ref.Name);
      if (It == ParamIdx.end())
        return fail("unknown global buffer `" + Ref.Name + "`");
      O = Wide ? (Store ? Op::StoreGlobal2 : Op::LoadGlobal2)
               : (Store ? Op::StoreGlobal : Op::LoadGlobal);
      Imm = static_cast<int32_t>(It->second);
      return true;
    }
    case kir::MemSpace::Shared:
      O = Wide ? (Store ? Op::StoreShared2 : Op::LoadShared2)
               : (Store ? Op::StoreShared : Op::LoadShared);
      Imm = memByteBase(Ref);
      return Imm >= 0;
    case kir::MemSpace::Arena:
      if (Wide)
        return fail("wide access to the per-thread arena");
      O = Store ? Op::StoreArena : Op::LoadArena;
      Imm = memByteBase(Ref);
      return Imm >= 0;
    }
    return fail("unhandled memory space");
  }

  /// A load into fresh varying registers: r[D] (and r[D+1] when \p Wide,
  /// allocated adjacent). Returns D or -1.
  int compileLoad(const kir::MemRef &Ref, const Nat &Index, bool Wide) {
    int Idx = compileNat(Index);
    Op O;
    int32_t Imm;
    if (Idx < 0 || !memOp(Ref, /*Store=*/false, Wide, O, Imm))
      return -1;
    int D = newReg(false, depth());
    if (Wide && newReg(false, depth()) < 0)
      return -1;
    if (D < 0)
      return -1;
    emit(O, false, D, Idx, static_cast<uint16_t>(Ref.Elem), Imm);
    return D;
  }

  bool compileStore(const kir::MemRef &Ref, const Nat &Index,
                    const kir::Expr &Value) {
    int Idx = compileNat(Index);
    RV V = compileExpr(Value);
    if (Idx < 0 || !V.ok())
      return false;
    int R = convert(V.Reg, V.Kind, vkOf(Ref.Elem));
    Op O;
    int32_t Imm;
    if (R < 0 || !memOp(Ref, /*Store=*/true, /*Wide=*/false, O, Imm))
      return false;
    emit(O, false, R, Idx, static_cast<uint16_t>(Ref.Elem), Imm);
    return true;
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
    Op O;
    int32_t Imm;
    if (R0 < 0 || R1 < 0 || !memOp(Ref, /*Store=*/true, /*Wide=*/true, O, Imm))
      return false;
    // The wide-store operands live in adjacent registers (A, A+1).
    int D0 = newReg(false, depth());
    int D1 = newReg(false, depth());
    if (D0 < 0 || D1 < 0)
      return false;
    emit(Op::Move, false, D0, R0, -1, 0);
    emit(Op::Move, false, D1, R1, -1, 0);
    emit(O, false, D0, Idx, static_cast<uint16_t>(Ref.Elem), Imm);
    return true;
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
      return {compileLoad(E.Ref, E.Index, /*Wide=*/false), vkOf(E.Ref.Elem)};
    case kir::ExprKind::Binary:
      return compileBinary(E);
    case kir::ExprKind::Unary: {
      RV S = compileExpr(*E.Sub);
      if (!S.ok())
        return {};
      if (E.UO == kir::UnOp::Not)
        return {pure(Op::NotI, convert(S.Reg, S.Kind, VK::I64), -1, 0),
                VK::I64};
      Op O = S.Kind == VK::I64
                 ? Op::NegI
                 : (S.Kind == VK::F32 ? Op::NegF32 : Op::NegF);
      return {pure(O, S.Reg, -1, 0), S.Kind};
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
      if (LR < 0 || RR < 0)
        return {};
      return {pure(E.BO == BinOp::And ? Op::AndI : Op::OrI, LR, RR, 0),
              VK::I64};
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
    if (LR < 0 || RR < 0)
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
    return {pure(O, LR, RR, 0), IsCmp ? VK::I64 : K};
  }

  /// Binds \p Name to \p V. A local no Assign writes names V's register
  /// itself (V must not be mutable); any other gets a register of its
  /// own, written by a Move. An assigned local is varying, since an
  /// assignment may happen under a varying branch.
  bool bindLocal(const std::string &Name, RV V, VK DeclKind) {
    int R = convert(V.Reg, V.Kind, DeclKind);
    if (R < 0)
      return false;
    const bool Mut = assigned(Name);
    if (!Mut && !Regs[R].Mutable) {
      Scopes.back().Locals[Name] = LocalVar{R, DeclKind};
      return true;
    }
    const bool U = !Mut && Regs[R].Uniform && !divergent();
    int Slot = newReg(U, depth(), Mut);
    if (Slot < 0)
      return false;
    emit(Op::Move, U, Slot, R, -1, 0);
    Scopes.back().Locals[Name] = LocalVar{Slot, DeclKind};
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
        int D0 = compileLoad(S.Value->Ref, S.Value->Index, /*Wide=*/true);
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
      emit(Op::Move, Regs[L->Reg].Uniform, L->Reg, R, -1, 0);
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
      // `lane < bound` along a coordinate that numbers the threads in one
      // run, with a uniform bound, selects a prefix of every lane group: a
      // uniform range op. Any other predicate is computed (per lane when
      // varying) and tested by jz.
      const int Axis = rangeAxis(S.CondL);
      int L = Axis < 0 ? compileNat(S.CondL) : -1;
      const int R = compileNat(S.CondR);
      if (R < 0 || (Axis < 0 && L < 0))
        return false;
      const bool Range = Axis >= 0 && Regs[R].Uniform;
      if (!Range && L < 0) {
        // A varying bound: the coordinate is compared per lane after all.
        L = compileNat(S.CondL);
        if (L < 0)
          return false;
      }
      const int Cond = Range ? R : pure(Op::LtI, L, R, 0);
      if (Cond < 0)
        return false;
      // A uniform jz sends the whole group one way; a range op or a
      // varying jz splits it, and the branches are divergent.
      const bool U = Regs[Cond].Uniform;
      const bool Div = divergent() || Range || !U;
      const int Else = newLabel();
      emit(Range ? Op::Range : Op::Jz, U, Cond, -1, Range ? Axis : -1, Else);
      pushScope(Div, -1);
      bool Ok = compileStmts(S.Then);
      const int Join = S.Else.empty() ? -1 : newLabel();
      if (Ok && Join >= 0)
        emit(Op::Jmp, !Div, -1, -1, -1, Join);
      popScope();
      bindLabel(Else);
      if (!Ok || Join < 0)
        return Ok;
      pushScope(Div, -1);
      Ok = compileStmts(S.Else);
      popScope();
      bindLabel(Join);
      return Ok;
    }
    case kir::StmtKind::For: {
      // Bounds are evaluated once, before the loop (kir::verify keeps the
      // loop variable out of them).
      int Lo = compileNat(S.Lo);
      int Hi = compileNat(S.Hi); // loop-invariant: hoisted
      int One = constI(1);
      if (Lo < 0 || Hi < 0 || One < 0)
        return false;
      // Uniform bounds give every lane the same trip count unless the
      // body assigns the counter. Outside any varying branch the counter
      // is then uniform: its test, increment and arithmetic run once per
      // iteration for the whole group.
      const bool UniformTrip =
          Regs[Lo].Uniform && Regs[Hi].Uniform && !assigned(S.Name);
      const bool U = UniformTrip && !divergent();
      int Var = newReg(U, depth() + 1, /*Mutable=*/true);
      int Cond = newReg(U, depth() + 1);
      if (Var < 0 || Cond < 0)
        return false;
      emit(Op::Move, U, Var, Lo, -1, 0);
      int PreHeader = -1;
      if (UniformTrip) {
        newChunk();
        PreHeader = static_cast<int>(Cur);
      }
      newChunk();
      const int Top = newLabel(), Exit = newLabel();
      bindLabel(Top);
      pushScope(divergent() || !U, PreHeader);
      Scopes.back().Locals[S.Name] = LocalVar{Var, VK::I64};
      emit(Op::LtI, U, Cond, Var, Hi, 0);
      emit(Op::Jz, U, Cond, -1, -1, Exit);
      bool Ok = compileStmts(S.Body);
      if (Ok) {
        emit(Op::AddI, U, Var, Var, One, 0);
        emit(Op::Jmp, U, -1, -1, -1, Top);
      }
      popScope();
      newChunk();
      bindLabel(Exit);
      return Ok;
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
                  sim::Dim3 Block, std::vector<VmNode> &Out,
                  unsigned &StraightPhases, std::string &Err) {
  for (const codegen::PhaseNode &N : Nodes) {
    VmNode V;
    if (N.K == codegen::PhaseNode::Straight) {
      V.K = VmNode::Straight;
      CodeBuilder B(Enclosing, ParamIdx, /*AllowCoords=*/true, Block);
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
      CodeBuilder BL(Enclosing, ParamIdx, /*AllowCoords=*/false, Block);
      if (!BL.runBound(N.Lo, V.Lo)) {
        Err = BL.error();
        return false;
      }
      CodeBuilder BH(Enclosing, ParamIdx, /*AllowCoords=*/false, Block);
      if (!BH.runBound(N.Hi, V.Hi)) {
        Err = BH.error();
        return false;
      }
    }
    Enclosing.push_back(LoopBinding{N.Var, N.Slot});
    bool Ok = compileNodes(N.Children, Enclosing, ParamIdx, Block,
                           V.Children, StraightPhases, Err);
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
  std::array<unsigned, 3> Grid, Block;
  if (!codegen::launchExtents(Fn, Grid, Block, Err))
    return false;
  K.Grid = sim::Dim3{Grid[0], Grid[1], Grid[2]};
  K.Block = sim::Dim3{Block[0], Block[1], Block[2]};

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
  if (!compileNodes(L.Program.Nodes, Enclosing, ParamIdx, K.Block, K.Nodes,
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
    OS << Indent << I << ": " << (In.U ? "u " : "v ") << opName(In.K);
    if (In.K == Op::Jmp) {
      OS << " -> " << In.Imm << "\n";
      continue;
    }
    if (In.K == Op::Range) {
      OS << " " << (In.C < 7 ? CoordNames[In.C] : "?") << " < r" << In.A
         << " -> " << In.Imm << "\n";
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
         << " instrs, " << N.Body.NumRegs << " regs, " << N.Body.NumUniform
         << " uniform)\n";
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
  case Op::Range: return "range";
  case Op::Ret: return "ret";
  case Op::RetVal: return "retval";
  }
  return "?";
}

OpShape vm::opShape(Op O) {
  OpShape S;
  switch (O) {
  case Op::Const:
  case Op::Coord:
  case Op::Slot:
    S.WritesA = true;
    break;
  case Op::LoadGlobal:
  case Op::LoadShared:
  case Op::LoadArena:
  case Op::LoadGlobal2:
  case Op::LoadShared2:
    S.WritesA = S.ReadsB = S.Memory = true;
    S.Wide = O == Op::LoadGlobal2 || O == Op::LoadShared2;
    break;
  case Op::StoreGlobal:
  case Op::StoreShared:
  case Op::StoreArena:
  case Op::StoreGlobal2:
  case Op::StoreShared2:
    S.ReadsA = S.ReadsB = S.Memory = true;
    S.Wide = O == Op::StoreGlobal2 || O == Op::StoreShared2;
    break;
  case Op::Move:
  case Op::NotI:
  case Op::NegI:
  case Op::NegF:
  case Op::NegF32:
  case Op::I2F:
  case Op::F2I:
  case Op::F2F32:
    S.WritesA = S.ReadsB = true;
    break;
  case Op::Jz:
  case Op::Range:
  case Op::RetVal:
    S.ReadsA = true;
    break;
  case Op::Jmp:
  case Op::Ret:
    break;
  default: // the binary arithmetic, comparison and logic ops
    S.WritesA = S.ReadsB = S.ReadsC = true;
    break;
  }
  return S;
}

uint64_t vm::rangeStride(unsigned Coord, sim::Dim3 Block) {
  switch (Coord) {
  case 3: // _tx
    return Block.Y == 1 && Block.Z == 1 ? 1 : 0;
  case 4: // _ty
    return Block.Z == 1 ? Block.X : 0;
  case 5: // _tz
    return static_cast<uint64_t>(Block.X) * Block.Y;
  case 6: // _lin
    return 1;
  default:
    return 0;
  }
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
