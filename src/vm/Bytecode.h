//===- vm/Bytecode.h - KIR bytecode artifacts -------------------*- C++ -*-===//
//
// Part of the Descend reproduction. The `vm` backend makes kernels
// *directly executable*: instead of printing KIR as C++ for a build-time
// compiler, vm::compile() translates every lowered kernel of a module
// into a compact register-style bytecode — a flat instruction vector with
// a constant pool per phase body, mirroring the phase-program tree
// (codegen/PhaseIR.h) node for node. The module's cpu.thread functions
// are not lowered here: hostgen builds their host IR (hostgen/HostGen.h),
// the same IR the sim and cuda printers print, and vm::compile keeps it
// after two vm-only steps — every size and loop bound must be
// instantiated (there is no later compiler to defer to), and every launch
// resolves to a kernel index. The result is a self-contained, immutable
// CompiledProgram artifact: it holds no pointers into the Module it was
// compiled from, so a compile service can cache and share it across
// threads, and the interpreter (vm/Interp.h) can launch it on any
// sim::GpuDevice with zero C++ compilation in the loop.
//
// Every Nat is resolved at compile time: literals fold into the constant
// pool, coordinate variables (_bx/_tx/.../_lin) become Coord
// instructions, enclosing PhaseLoop variables become Slot reads
// (BlockCtx::loopVar), and hoisted index lets (LetIndex) name the
// register of their value — the same resolution the C++ printers
// perform, but into instructions instead of text.
//
// The executor runs a phase body for a group of lanes (threads) at once,
// so vm::compile also decides which work is per lane. Every instruction
// is marked uniform or varying (Instr::U), and every register is one or
// the other (Code::NumUniform):
// - uniform values are the same for every lane of a group: constants,
//   _bx/_by/_bz, loop slots, the counter of a `for` whose bounds are
//   uniform and that sits outside any `if` on a varying condition, and
//   arithmetic on these. A uniform instruction runs once per group.
//   Those that depend on no loop counter and cannot trap form a
//   prologue ahead of the body;
// - varying values differ per lane (_tx/_ty/_tz/_lin, loads and what is
//   computed from them). A varying instruction runs once per running
//   lane and reads its uniform operands by broadcast.
// The compiler computes each coordinate or index term once per scope and
// reuses it, and computes a term that does not change inside a
// uniform-trip loop before the loop head. It never moves a value out of
// an `if` on a varying condition (that would compute it for lanes that
// skip the branch), and it moves only operations that cannot trap. The
// marks are checked before every launch (vm::validateKernel), never
// trusted.
//
// A split of the block (KIR's coordinate predicate `if (lane < bound)`)
// becomes one uniform Range instruction when its lane coordinate numbers
// the threads in one run — _lin, _tx of a 1-D block, _ty of a block with
// Z = 1, _tz (rangeStride) — and its bound is uniform. The lanes of a group
// that take the `then` arm are then a prefix of the group, found by
// arithmetic: no lane computes a coordinate, compares or branches. Every
// other predicate (_tx of an XY block, a varying bound) keeps the per-lane
// `coord`/`lt.i`/`jz`. A Range marked varying compares each lane with its
// own copy of the bound, so bytecode stripped of its marks still runs.
//
//===----------------------------------------------------------------------===//

#ifndef DESCEND_VM_BYTECODE_H
#define DESCEND_VM_BYTECODE_H

#include "ast/Type.h" // ScalarKind
#include "hostgen/HostGen.h" // the host IR
#include "kir/Schedule.h" // kir::PassConfig
#include "nat/Nat.h"
#include "sim/Sim.h" // sim::Dim3

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace descend {

class Module;

namespace vm {

//===----------------------------------------------------------------------===//
// Instructions
//===----------------------------------------------------------------------===//

/// Opcode of one bytecode instruction. Arithmetic comes in an integer
/// (i64), a double, and a float-precision variant: the float variants
/// round through `float` exactly like the generated C++ computing in
/// `float` registers, so f32 kernels stay bit-identical to the compiled
/// sim headers.
enum class Op : uint8_t {
  Const,  ///< r[A] = Consts[Imm]
  Coord,  ///< r[A] = coordinate Imm (0 _bx, 1 _by, 2 _bz, 3 _tx, 4 _ty,
          ///<                        5 _tz, 6 _lin)
  Slot,   ///< r[A] = BlockCtx::loopVar(Imm)
  Move,   ///< r[A] = r[B]

  LoadGlobal,  ///< r[A] = buffers[Imm].load(_b, r[B]); elem kind in C
  StoreGlobal, ///< buffers[Imm].store(_b, r[B], r[A])
  LoadShared,  ///< r[A] = _b.sharedLoad<C>(Imm, r[B])
  StoreShared, ///< _b.sharedStore<C>(Imm, r[B], r[A])
  LoadArena,   ///< r[A] = _b.shared<C>(_locals_base + Imm)[r[B]] (unlogged)
  StoreArena,  ///< _b.shared<C>(_locals_base + Imm)[r[B]] = r[A]

  // Wide (two-element) accesses from the vectorize schedule pass: one
  // issued transaction covering elements r[B] and r[B]+1. The second
  // register is implicitly A+1 (the compiler allocates them adjacent).
  LoadGlobal2,  ///< r[A], r[A+1] = buffers[Imm].load2(_b, r[B]); elem in C
  StoreGlobal2, ///< buffers[Imm].store2(_b, r[B], r[A], r[A+1])
  LoadShared2,  ///< r[A], r[A+1] = _b.sharedLoad2<C>(Imm, r[B])
  StoreShared2, ///< _b.sharedStore2<C>(Imm, r[B], r[A], r[A+1])

  AddI, SubI, MulI, DivI, ModI, PowI, ///< r[A] = r[B] op r[C] (i64)
  AddF, SubF, MulF, DivF,             ///< r[A] = r[B] op r[C] (double)
  AddF32, SubF32, MulF32, DivF32,     ///< same at float precision

  LtI, LeI, GtI, GeI, EqI, NeI, ///< r[A] = r[B] cmp r[C] (i64 -> 0/1)
  LtF, LeF, GtF, GeF, EqF, NeF, ///< same over doubles

  AndI, OrI, NotI, ///< logical, eager (KIR expressions are effect-free)
  NegI, NegF, NegF32,
  I2F,   ///< r[A] = (double)r[B].I
  F2I,   ///< r[A] = (long long)r[B].F
  F2F32, ///< r[A] = (double)(float)r[B].F — narrow after f32 arithmetic

  Jmp,    ///< pc = Imm
  Jz,     ///< if (r[A].I == 0) pc = Imm
  Range,  ///< lanes whose lane coordinate C (3 _tx, 4 _ty, 5 _tz, 6 _lin)
          ///< is below r[A] run on; the rest continue at Imm (forward)
  Ret,    ///< end of a phase body
  RetVal, ///< end of a bound program; result is r[A].I
};

const char *opName(Op O);

/// One register value. The statically inferred kind of each register
/// (integer vs floating) picks the union member; there are no runtime
/// type tags.
union Value {
  long long I;
  double F;
};

struct Instr {
  Op K = Op::Ret;
  /// 1: uniform — runs once per lane group and touches only uniform
  /// registers; 0: varying — runs once per running lane. Bytecode
  /// without marks (all 0) runs every instruction per lane.
  uint8_t U = 0;
  uint16_t A = 0, B = 0, C = 0;
  int32_t Imm = 0;
};

/// Which operands of an opcode name registers, and whether the
/// instruction writes r[A] (wide accesses also touch r[A+1]). Memory
/// operations have no uniform form: every lane performs its own access.
struct OpShape {
  bool WritesA = false, ReadsA = false, ReadsB = false, ReadsC = false;
  bool Memory = false, Wide = false;
};
OpShape opShape(Op O);

/// How many consecutive linear thread ids of a \p Block share one value of
/// lane coordinate \p Coord (3 _tx, 4 _ty, 5 _tz, 6 _lin) when the threads
/// with that coordinate below any bound b are exactly the linear ids below
/// b times it: 1 for _lin and for _tx of a 1-D block, X for _ty of a block
/// with Z = 1, X * Y for _tz. 0 for every other coordinate or block shape
/// (_tx of an XY block, say), whose threads below a bound are no one run.
uint64_t rangeStride(unsigned Coord, sim::Dim3 Block);

/// One executable code object: a phase body or a loop-bound program.
struct Code {
  std::vector<Instr> Instrs;
  std::vector<Value> Consts;
  unsigned NumRegs = 0;
  /// Registers [0, NumUniform) are uniform: one value per lane group,
  /// written only by uniform instructions. The rest hold one value per
  /// lane.
  unsigned NumUniform = 0;
};

//===----------------------------------------------------------------------===//
// Kernels
//===----------------------------------------------------------------------===//

/// The bytecode mirror of one PhaseNode: straight nodes carry a phase
/// body, loop nodes carry a loopVar slot, two bound programs and their
/// children.
struct VmNode {
  enum Kind { Straight, Loop } K = Straight;
  Code Body;         // Straight
  unsigned Slot = 0; // Loop
  Code Lo, Hi;       // Loop: RetVal programs over the BlockCtx
  std::vector<VmNode> Children;
};

/// One compiled kernel: concrete launch geometry, arena layout, parameter
/// schema, and the bytecode phase tree. Fully resolved — launching needs
/// only a device and one buffer binding per parameter.
struct VmKernel {
  std::string Name;
  sim::Dim3 Grid, Block;
  size_t SharedBytes = 0; ///< raw shared allocations
  size_t LocalsBase = 0;  ///< 8-aligned shared total (arena spill base)
  size_t ArenaBytes = 0;  ///< LocalsBase + per-thread spill * threads

  struct Param {
    std::string Name;
    ScalarKind Elem = ScalarKind::F64;
    size_t Count = 0; ///< element count the kernel was instantiated for
  };
  std::vector<Param> Params;

  std::vector<VmNode> Nodes;
  unsigned StraightPhases = 0;
};

/// A compiled cpu.thread function: hostgen's host IR, with every size and
/// loop bound instantiated and every launch resolved to a kernel index
/// (HostStmt::Target).
using HostFnIR = hostgen::HostFn;

//===----------------------------------------------------------------------===//
// The compiled artifact
//===----------------------------------------------------------------------===//

/// The self-contained executable artifact of one module: every GPU kernel
/// as bytecode, every host function as instantiated host IR. Immutable
/// after compile; safe to share across threads (the compile service
/// caches shared_ptrs to it).
struct CompiledProgram {
  std::vector<VmKernel> Kernels;
  std::vector<HostFnIR> HostFns;

  const VmKernel *findKernel(const std::string &Name) const;
  const HostFnIR *findHostFn(const std::string &Name) const;
};

struct CompileVmResult {
  bool Ok = false;
  std::shared_ptr<const CompiledProgram> Program;
  std::string Error; // set when !Ok
};

/// Compiles every GPU kernel and host function of \p M (which must have
/// passed the type checker, with all nats instantiated) into bytecode.
/// Never throws: malformed or uninstantiated modules produce an error
/// result. \p Passes selects the opt-in schedule passes to run over the
/// lowered kernel IR before bytecode generation (none by default).
CompileVmResult compile(const Module &M, const kir::PassConfig &Passes = {});

/// Human-readable listing of a compiled program (the `--emit=vm`
/// artifact): per kernel the geometry, parameters and a disassembly of
/// every phase body, each instruction marked `u` (uniform) or `v`
/// (varying); per host function hostgen's listing of its IR.
std::string disassemble(const CompiledProgram &P);

/// Element size of a scalar kind in both the vm's buffers and the
/// generated C++ (same layout).
size_t scalarSize(ScalarKind K);

} // namespace vm
} // namespace descend

#endif // DESCEND_VM_BYTECODE_H
