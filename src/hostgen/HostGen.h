//===- hostgen/HostGen.h - Host-program IR and code generation --*- C++ -*-===//
//
// Part of the Descend reproduction. Lowers the *host* side of a Descend
// program (Sections 2.3 / 3.4 / 3.5): `cpu.thread` functions that allocate
// heap and device memory, transfer data between cpu.mem and gpu.global and
// launch kernels with an explicit execution configuration. Where the type
// checker proves the transfers and launches correct, this layer turns the
// proven program into a runnable driver, in two steps:
//
//   buildHostFn  walks one type-checked cpu.thread function once and
//                builds its host IR (HostFn): variables numbered as frame
//                slots, statements and scalar expressions. It is the
//                only place that decides which host code is accepted:
//                the host fragment (lets, builtin allocation/transfer
//                calls, launches, for-nat loops, host calls, scalar
//                arithmetic and one-dimensional host-array indexing). What
//                it rejects, every backend rejects with the same message.
//                It also states where each device buffer dies: a Release
//                statement closes every scope (function body, block,
//                for-nat body) for each device buffer the scope defined,
//                in reverse definition order. Parameters are borrowed and
//                never released.
//   printHostFn  prints the IR as C++ for one target:
//     sim        one synchronous driver over a sim::GpuDevice, against
//                runtime/HostRuntime.h + sim/Sim.h: an entry check of
//                every instantiated buffer-parameter size (the vm's
//                text), rt::HostBuffer allocations, device locals held as
//                rt::DeviceLocal, rt::allocCopy / rt::copyToHost
//                transfers and direct calls of the generated simulator
//                kernels in the same header. It prints no release: each
//                scope prints as a C++ scope whose releases come last, so
//                a DeviceLocal's destructor frees at the release, and on
//                unwind when the driver throws. Callers call the driver
//                directly; it has finished when it returns.
//     cuda       CUDA runtime API host code — std::vector staging,
//                cudaMalloc / cudaMemcpy with statically computed byte
//                counts, real kernel<<<grid, block>>> launches and a
//                cudaFree at each release.
//
// The vm backend keeps the same IR in its compiled program and interprets
// it (vm/Bytecode.h, vm/Interp.h); `--emit=vm` lists it with dumpHostFn.
//
// One rule belongs to one target and stays there: the vm needs every
// size and loop bound instantiated (`-D`), because no later compiler
// evaluates them (vm::compile).
//
// A host function named `main` is emitted under the name `run` (plus the
// invocation's function suffix), which is the entry point tests and
// examples drive; every other host function keeps its own name so host
// functions can call each other.
//
//===----------------------------------------------------------------------===//

#ifndef DESCEND_HOSTGEN_HOSTGEN_H
#define DESCEND_HOSTGEN_HOSTGEN_H

#include "ast/Item.h"

#include <optional>
#include <string>
#include <vector>

namespace descend {
namespace hostgen {

//===----------------------------------------------------------------------===//
// The host IR
//===----------------------------------------------------------------------===//

/// One variable of a host function; its index in HostFn::Vars is its frame
/// slot.
struct HostVar {
  enum Kind { HostBuf, DevBuf, Scalar, LoopVar } K = Scalar;
  std::string Name;
  ScalarKind Elem = ScalarKind::F64; ///< element or value kind (LoopVar: i64)
  Nat Count;                         ///< buffers: element count, simplified
  std::optional<long long> CountValue; ///< Count, when instantiated
  bool IsParam = false;
  bool Shared = false; ///< parameter bound through a shared reference
};

/// A scalar expression over the frame.
struct HostExpr {
  enum Kind { Lit, Var, Index, Unary, Binary } K = Lit;
  ScalarKind Ty = ScalarKind::F64; ///< result kind (Lit: the literal's)
  double Float = 0.0;              ///< Lit of a float kind
  long long Int = 0;               ///< Lit of an integer kind; bool as 0/1
  unsigned Slot = 0;               ///< Var; Index: the host buffer
  BinOpKind BO = BinOpKind::Add;
  UnOpKind UO = UnOpKind::Neg;
  std::vector<HostExpr> Ops; ///< Index: {index}; Unary: {x}; Binary: {l, r}
};

/// One statement. Dst is the slot a statement defines or writes.
struct HostStmt {
  enum Kind {
    Alloc,      ///< Dst = host buffer, every element Value (absent: zero)
    AllocCopy,  ///< Dst = device buffer copied from host buffer Src
    CopyToHost, ///< host buffer Dst <- device buffer Src
    CopyToGpu,  ///< device buffer Dst <- host buffer Src
    Launch,     ///< Callee<<<GridDim, BlockDim>>>(Bufs...)
    Let,        ///< scalar Dst = Value
    Assign,     ///< Dst[Index] = Value; Dst = Value when Index is absent
    ForNat,     ///< for Dst in [Lo..Hi) { Body }
    Call,       ///< Callee(Args...): buffers as Var, scalars by value
    Block,      ///< { Body }
    Release,    ///< device buffer Dst dies: the end of its scope
  } K = Let;
  unsigned Dst = 0, Src = 0;
  std::optional<HostExpr> Index, Value;
  std::string Callee; ///< Launch: the kernel; Call: the host function
  /// Launch: index of the kernel in the vm's program (set by vm::compile);
  /// Call: index of the callee among the module's host functions.
  unsigned Target = 0;
  Dim GridDim, BlockDim;           ///< Launch
  std::vector<unsigned> Bufs;      ///< Launch: device-buffer arguments
  std::vector<HostExpr> Args;      ///< Call
  Nat Lo, Hi;                      ///< ForNat, simplified
  std::optional<long long> LoValue, HiValue; ///< ForNat, when instantiated
  std::vector<HostStmt> Body;      ///< ForNat / Block
};

/// One cpu.thread function. Vars holds the parameters first, then the
/// locals in definition order.
struct HostFn {
  std::string Name;      ///< source name (`main` stays `main` here)
  std::string Signature; ///< surface signature, printed as a doc comment
  unsigned NumParams = 0;
  std::vector<HostVar> Vars;
  std::vector<HostStmt> Body;
};

//===----------------------------------------------------------------------===//
// Building and printing
//===----------------------------------------------------------------------===//

struct HostBuildResult {
  bool Ok = false;
  HostFn Fn;
  std::string Error; // set when !Ok
};

/// Builds the host IR of \p Fn, a cpu.thread function of \p M that passed
/// the type checker.
HostBuildResult buildHostFn(const Module &M, const FnDef &Fn);

/// Which host substrate to print for.
enum class HostTarget { Sim, Cuda };

/// Prints \p Fn as a host driver for \p Target: one complete C++
/// function definition. \p FnSuffix is appended to the driver's, its
/// callees' and its kernels' names. Printing is total: every IR
/// buildHostFn produces prints for every target.
std::string printHostFn(const HostFn &Fn, HostTarget Target,
                        const std::string &FnSuffix);

/// A human-readable listing of \p Fn: its frame slots and statement tree.
std::string dumpHostFn(const HostFn &Fn);

/// Why argument \p I of \p Fn does not fit its parameter, e.g.
/// "argument 0 of host `main` must be a host array of 2048 x f64": the
/// text the vm and the generated sim drivers reject an argument with.
std::string paramMismatch(const HostFn &Fn, unsigned I);

/// True when the module contains at least one cpu.thread function with a
/// body (i.e. the program has a host side worth emitting).
bool hasHostFns(const Module &M);

/// The C++ name \p Fn is emitted under: `main` becomes `run`, every other
/// function keeps its name; \p FnSuffix is appended in both cases (the
/// same suffix the kernel emitters use, so launches resolve).
std::string hostFnEmitName(const FnDef &Fn, const std::string &FnSuffix);

} // namespace hostgen
} // namespace descend

#endif // DESCEND_HOSTGEN_HOSTGEN_H
