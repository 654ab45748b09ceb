//===- Bytecode.h - Register bytecode for the GDSE VM -----------*- C++ -*-===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compiled execution format: each Function is lowered once to a
/// BytecodeFunction — a flat array of fixed-size register instructions with
/// pre-resolved frame offsets, field offsets, type sizes, scalar encodings,
/// and absolute jump targets — and executed by the dispatch loop in
/// Bytecode.cpp. Virtual registers hold expression temporaries only; named
/// locals and parameters stay in frame memory so that observer-visible
/// addresses, bounds checks, and peak-memory accounting are identical to the
/// tree-walker's.
///
/// Cycle accounting: each instruction carries a static `Cost` added to the
/// cycle counter when it executes. The lowering attaches each IR node's
/// charge to the first instruction it emits for that node, which can reorder
/// charges *within* a straight-line segment relative to the tree-walker —
/// but cycle totals are only observable at loop/iteration/ordered-region
/// boundaries and at run end, which segments never span, so totals are
/// bit-identical on non-trapping runs (EngineDiffTest enforces). On runs
/// that trap mid-expression, the final cycle count and post-trap side
/// effects may differ from the tree-walker; trap messages and prior output
/// do not. Size-dependent charges (aggregate copies, builtins) are computed
/// by the handlers from the live cost table, exactly like the tree-walker.
///
//===----------------------------------------------------------------------===//

#ifndef GDSE_INTERP_BYTECODE_H
#define GDSE_INTERP_BYTECODE_H

#include "interp/ExecState.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace gdse {

enum class BCOp : uint8_t {
  // Values and addressing. LeaFrame/AddImm/AddScaled form addresses;
  // AddScaled also implements ptr±int and array indexing (A = B + C*Imm64).
  ConstI,    ///< A = Imm64
  ConstF,    ///< A.F = bit_cast<double>(Imm64)
  Move,      ///< A = B
  Tid,       ///< A = current simulated thread id
  NThreads,  ///< A = simulated core count
  LeaFrame,  ///< A = FrameBase + Imm64
  LeaGlobal, ///< A = globalAddr(var Imm32b) + Imm64 (traps when unallocated)
  AddImm,    ///< A = B + Imm64
  AddScaled, ///< A = B + C * Imm64

  // Memory. Kind = ScalarKind; Imm32 = AccessId; Imm64 = constant offset
  // (added to FrameBase, the global's base, or register B respectively).
  // Imm32b of LeaGlobal/LdGlobal/StGlobal is the global's VarDecl id.
  LdFrame,
  LdGlobal,
  LdInd,
  StFrame, ///< stores register A
  StGlobal,
  StInd, ///< stores register A at [B + Imm64]
  /// Aggregate copy [A] <- [B] of Imm64 bytes; Imm32 = store access id,
  /// Imm32b = load access id. Charges Load+Store+Size*PerByteCopy itself.
  AggCopy,

  // Integer ALU; Kind = result ScalarKind (for normalization; CmpI/CmpU/CmpF
  // reuse Kind as the predicate, see CmpPred).
  AddI,
  SubI,
  MulI,
  DivI, ///< traps on zero divisor; Cost already includes DivRem/const-div
  RemI,
  BitAndI,
  BitOrI,
  BitXorI,
  ShlI,
  ShrI,
  NegI,
  BitNotI,
  LogNotI, ///< A = (B.I != 0) ? 0 : 1
  LogNotF, ///< A = (B.F != 0.0) ? 0 : 1
  BoolI,   ///< A = (B.I != 0) ? 1 : 0
  PtrDiff, ///< A = (B - C) / Imm64

  // Float ALU.
  AddF,
  SubF,
  MulF,
  DivF,
  NegF,

  // Comparisons (Kind = CmpPred). CmpI signed, CmpU unsigned/pointer,
  // CmpF double (three-way compare first, exactly like the tree-walker).
  CmpI,
  CmpU,
  CmpF,

  // Casts. CastII/CastFI normalize to Kind; CastIF: Kind bit0 = source
  // unsigned, bit1 = round through float; CastFF: Kind bit1 = round through
  // float.
  CastII,
  CastFI,
  CastIF,
  CastFF,

  // Control flow; Imm32 = absolute target pc.
  Jump,
  JumpIfZero,    ///< on A.I == 0
  JumpIfNonZero, ///< on A.I != 0

  // Calls. CallGuard is emitted before argument lowering and carries the
  // call's ExprBase+Call charge plus the depth check (backing the Call
  // charge out on overflow, matching the tree-walker's charge order).
  // Call: A = result, args in registers [B, B+C), Imm32 = callee index.
  // BuiltinOp: Kind = Builtin, A = result, args in [B, B+C), Imm32 = site id.
  CallGuard,
  Call,
  BuiltinOp,
  Ret,  ///< Kind bit0: A holds the return value
  Trap, ///< trap with message TrapMsgs[Imm32]

  // Structured regions. While loops and ordered regions push entries on the
  // VM's scope stack so abnormal exits (trap/halt/return) unwind with the
  // same bookkeeping the tree-walker performs on every exit path.
  LoopEnterW, ///< Imm32 = loop id; pushes a while scope
  WhileHead,  ///< per-iteration cycle-budget check
  IterNote,   ///< observer onLoopIter for the innermost while scope
  LoopExitW,  ///< pops the while scope, runs exit bookkeeping
  ForLoop,    ///< Imm32 = index into Fors; see BCForMeta
  BoundsEnd,  ///< terminator of a for's bounds segment
  IterEnd,    ///< terminator of a for's body segment (normal / continue)
  IterBreak,  ///< terminator of a for's body segment (break)
  OrdEnter,   ///< Imm32 = region id; Cost carries OrderedEnter
  OrdExit,
};

/// Comparison predicate stored in Kind of CmpI/CmpU/CmpF.
enum class CmpPred : uint8_t { Eq, Ne, Lt, Le, Gt, Ge };

/// One fixed-size instruction (40 bytes).
struct BCInst {
  BCOp Op = BCOp::Trap;
  uint8_t Kind = 0;
  uint16_t A = 0;
  uint16_t B = 0;
  uint16_t C = 0;
  uint32_t Imm32 = 0;
  uint32_t Imm32b = 0;
  /// Static cycles charged when this instruction executes (cost-table
  /// entries are uint64, so this is too).
  uint64_t Cost = 0;
  int64_t Imm64 = 0;
};

/// Pre-resolved metadata of one `for` statement. Code layout:
///   ForLoop; [bounds code ... BoundsEnd]; [body code ... IterEnd]; ExitPc:
/// The ForLoop handler drives ThreadState::runForLoop over the two segments.
struct BCForMeta {
  unsigned LoopId = 0;
  ParallelKind Kind = ParallelKind::None;
  uint32_t BoundsStart = 0;
  uint32_t BodyStart = 0;
  uint32_t ExitPc = 0;
  /// Registers holding init/limit/step after the bounds segment ran.
  uint16_t LoReg = 0;
  uint16_t HiReg = 0;
  uint16_t StepReg = 0;
  Type *IVType = nullptr;
  /// Induction variable slot: frame offset, or a global's VarDecl.
  uint64_t IVFrameOff = 0;
  const VarDecl *IVGlobal = nullptr;
};

struct BytecodeFunction {
  const Function *F = nullptr;
  uint64_t FrameSize = 1;
  struct ParamSlot {
    uint64_t Off = 0;
    Type *T = nullptr;
  };
  std::vector<ParamSlot> Params;
  std::vector<BCInst> Code; ///< empty for declarations
  std::vector<BCForMeta> Fors;
  std::vector<std::string> TrapMsgs;
  uint16_t NumRegs = 0;
};

/// A module lowered against one cost table. Immutable once built; safe to
/// share across threads and interpreter instances.
struct BytecodeModule {
  CostModel Costs;
  /// Aligned with Module::getFunctions() order.
  std::vector<BytecodeFunction> Funcs;
  std::map<const Function *, uint32_t> Index;
};

/// Lowers every defined function of \p M against \p Costs.
std::shared_ptr<const BytecodeModule> lowerToBytecode(Module &M,
                                                      const CostModel &Costs);

/// Runs entry function \p F (already validated: defined, no parameters) on
/// the bytecode engine, mirroring the tree-walker's invokeEntry. Results are
/// left in \p S.
void runBytecodeEntry(ThreadState &S, const BytecodeModule &BM,
                      const Function *F);

} // namespace gdse

#endif // GDSE_INTERP_BYTECODE_H
