//===- Bytecode.cpp - The register-bytecode dispatch loop -------------------===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// Executes BytecodeFunctions produced by Lowering.cpp. One dispatch() frame
// runs one code segment (a function body, a for's bounds segment, or a for's
// body segment) to its terminator. Structured constructs (while loops,
// ordered regions) push entries on a scope stack; every dispatch records its
// entry depth and unwinds back to it on *every* exit — normal terminators,
// return, trap — so the loop-exit bookkeeping and ordered-event recording
// the tree-walker performs on each exit path happen here exactly once, in
// the same innermost-to-outermost order.
//
// All memory, builtin, loop-driver, and timeline semantics come from
// ThreadState; this file only moves values between registers and dispatches.
//
//===----------------------------------------------------------------------===//

#include "interp/Bytecode.h"

#include "support/Support.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <vector>

using namespace gdse;

namespace {

/// A structured region entered by the running code: a while loop or an
/// ordered region.
struct ScopeEntry {
  bool IsWhile = false;
  ThreadState::ActiveLoop Loop; // while scopes
  OrderedEvent Ev;            // ordered scopes
};

class BytecodeVM {
public:
  BytecodeVM(ThreadState &S, const BytecodeModule &BM) : S(S), BM(BM) {}

  /// Mirrors the tree-walker's invokeEntry.
  void runEntry(const Function *F) {
    const BytecodeFunction &BF = BM.Funcs[BM.Index.at(F)];
    uint64_t Base = S.Mem.allocate(BF.FrameSize, AllocKind::Frame, 0);
    if (!Base) {
      S.trap(formatString("out of memory: frame of %llu bytes for '%s' failed",
                          static_cast<unsigned long long>(BF.FrameSize),
                          F->getName().c_str()));
      return;
    }
    if (S.Obs)
      S.Obs->onAlloc(*S.Mem.byBase(Base));
    S.ReturnValue = VMValue();
    uint32_t RegBase = allocRegs(BF.NumRegs);
    dispatch(BF, Base, RegBase, 0);
    Regs.resize(RegBase);
    if (!S.Trapped && !S.Halted && F->getReturnType()->isInt())
      S.ExitCode = S.ReturnValue.I;
    S.rtPrivCommitAll();
    if (S.Obs)
      S.Obs->onFree(*S.Mem.byBase(Base));
    S.Mem.deallocate(Base);
  }

private:
  ThreadState &S;
  const BytecodeModule &BM;
  std::vector<VMValue> Regs;
  std::vector<ScopeEntry> Scopes;

  /// Initial capacities of a host-threaded worker's register file and scope
  /// stack (see the ForLoop handler).
  static constexpr size_t WorkerRegReserve = 512;
  static constexpr size_t WorkerScopeReserve = 16;

  uint32_t allocRegs(uint16_t N) {
    uint32_t Base = static_cast<uint32_t>(Regs.size());
    Regs.resize(Base + std::max<uint16_t>(N, 1));
    return Base;
  }

  static int64_t normSK(int64_t V, ScalarKind K) {
    return ThreadState::normalizeInt(V, scalarSize(K) * 8,
                                     K <= ScalarKind::I64);
  }

  /// Mirrors the tree-walker's evalCall from the allocation on (the depth
  /// check, charges, and argument evaluation already ran as instructions).
  /// \p Args points into Regs and is consumed before any reallocation.
  VMValue callFunction(const BytecodeFunction &BF, const VMValue *Args,
                       unsigned NArgs) {
    uint64_t Base = S.Mem.allocate(BF.FrameSize, AllocKind::Frame, 0);
    if (!Base) {
      S.trap(formatString("out of memory: frame of %llu bytes for '%s' failed",
                          static_cast<unsigned long long>(BF.FrameSize),
                          BF.F->getName().c_str()));
      return VMValue();
    }
    if (S.Obs)
      S.Obs->onAlloc(*S.Mem.byBase(Base));
    ++S.CallDepth;
    assert(NArgs <= BF.Params.size() && "argument count exceeds parameters");
    for (unsigned I = 0; I != NArgs; ++I)
      S.storeScalar(Base + BF.Params[I].Off, BF.Params[I].T, Args[I]);
    S.ReturnValue = VMValue();
    uint32_t RegBase = allocRegs(BF.NumRegs);
    dispatch(BF, Base, RegBase, 0);
    Regs.resize(RegBase);
    VMValue RV = S.ReturnValue;
    --S.CallDepth;
    if (S.Obs)
      S.Obs->onFree(*S.Mem.byBase(Base));
    S.Mem.deallocate(Base);
    return RV;
  }

  /// Runs [PC ...] of \p BF until a terminator or a trap/halt. Returns
  /// Normal (BoundsEnd/IterEnd), Break (IterBreak), Return, or Halt.
  Flow dispatch(const BytecodeFunction &BF, uint64_t FrameBase,
                uint32_t RegBase, uint32_t PC) {
    const size_t ScopeFloor = Scopes.size();
    const BCInst *Code = BF.Code.data();
    VMValue *R = Regs.data() + RegBase;
    Flow Result = Flow::Halt;
    bool Done = false;

    while (!Done) {
      const BCInst &I = Code[PC];
      S.Cycles += I.Cost;
      uint32_t NextPC = PC + 1;

      switch (I.Op) {
      case BCOp::ConstI:
        R[I.A] = VMValue::ofInt(I.Imm64);
        break;
      case BCOp::ConstF: {
        double D;
        std::memcpy(&D, &I.Imm64, 8);
        R[I.A] = VMValue::ofFloat(D);
        break;
      }
      case BCOp::Move:
        R[I.A] = R[I.B];
        break;
      case BCOp::Tid:
        R[I.A] = VMValue::ofInt(S.CurTid);
        break;
      case BCOp::NThreads:
        R[I.A] = VMValue::ofInt(S.Opts.NumThreads);
        break;
      case BCOp::LeaFrame:
        R[I.A] = VMValue::ofInt(
            static_cast<int64_t>(FrameBase + static_cast<uint64_t>(I.Imm64)));
        break;
      case BCOp::LeaGlobal: {
        uint64_t GBase = globalBase(I.Imm32b);
        R[I.A] = VMValue::ofInt(
            static_cast<int64_t>(GBase + static_cast<uint64_t>(I.Imm64)));
        break;
      }
      case BCOp::AddImm:
        R[I.A] = VMValue::ofInt(static_cast<int64_t>(
            static_cast<uint64_t>(R[I.B].I) + static_cast<uint64_t>(I.Imm64)));
        break;
      case BCOp::AddScaled:
        R[I.A] = VMValue::ofInt(static_cast<int64_t>(
            static_cast<uint64_t>(R[I.B].I) +
            static_cast<uint64_t>(R[I.C].I * I.Imm64)));
        break;

      case BCOp::LdFrame:
      case BCOp::LdGlobal:
      case BCOp::LdInd: {
        uint64_t Addr;
        if (I.Op == BCOp::LdFrame)
          Addr = FrameBase + static_cast<uint64_t>(I.Imm64);
        else if (I.Op == BCOp::LdGlobal)
          Addr = globalBase(I.Imm32b) + static_cast<uint64_t>(I.Imm64);
        else
          Addr =
              static_cast<uint64_t>(R[I.B].I) + static_cast<uint64_t>(I.Imm64);
        ScalarKind K = static_cast<ScalarKind>(I.Kind);
        uint64_t Size = scalarSize(K);
        if (!S.checkAccess(Addr, Size, "load")) {
          R[I.A] = VMValue();
          break;
        }
        if (S.Obs)
          S.Obs->onLoad(I.Imm32, Addr, Size);
        if (S.GuardHooksOn)
          S.guardLoad(I.Imm32, Addr, Size);
        R[I.A] = S.loadScalarKind(Addr, K);
        break;
      }

      case BCOp::StFrame:
      case BCOp::StGlobal:
      case BCOp::StInd: {
        uint64_t Addr;
        if (I.Op == BCOp::StFrame)
          Addr = FrameBase + static_cast<uint64_t>(I.Imm64);
        else if (I.Op == BCOp::StGlobal)
          Addr = globalBase(I.Imm32b) + static_cast<uint64_t>(I.Imm64);
        else
          Addr =
              static_cast<uint64_t>(R[I.B].I) + static_cast<uint64_t>(I.Imm64);
        ScalarKind K = static_cast<ScalarKind>(I.Kind);
        uint64_t Size = scalarSize(K);
        if (!S.checkAccess(Addr, Size, "store"))
          break;
        S.storeScalarKind(Addr, K, R[I.A]);
        if (S.Obs)
          S.Obs->onStore(I.Imm32, Addr, Size);
        if (S.GuardHooksOn)
          S.guardStore(I.Imm32, Addr, Size);
        break;
      }

      case BCOp::AggCopy: {
        uint64_t Dst = static_cast<uint64_t>(R[I.A].I);
        uint64_t Src = static_cast<uint64_t>(R[I.B].I);
        uint64_t Size = static_cast<uint64_t>(I.Imm64);
        if (!S.checkAccess(Dst, Size, "aggregate store") ||
            !S.checkAccess(Src, Size, "aggregate load"))
          break;
        S.charge(S.Opts.Costs.Load + S.Opts.Costs.Store +
                 Size * S.Opts.Costs.PerByteCopy);
        if (S.Obs) {
          S.Obs->onLoad(I.Imm32b, Src, Size);
          S.Obs->onStore(I.Imm32, Dst, Size);
        }
        if (S.GuardHooksOn) {
          S.guardLoad(I.Imm32b, Src, Size);
          S.guardStore(I.Imm32, Dst, Size);
        }
        std::memmove(reinterpret_cast<void *>(Dst),
                     reinterpret_cast<void *>(Src), Size);
        break;
      }

      case BCOp::AddI:
        R[I.A] = VMValue::ofInt(normSK(
            static_cast<int64_t>(static_cast<uint64_t>(R[I.B].I) +
                                 static_cast<uint64_t>(R[I.C].I)),
            static_cast<ScalarKind>(I.Kind)));
        break;
      case BCOp::SubI:
        R[I.A] = VMValue::ofInt(normSK(
            static_cast<int64_t>(static_cast<uint64_t>(R[I.B].I) -
                                 static_cast<uint64_t>(R[I.C].I)),
            static_cast<ScalarKind>(I.Kind)));
        break;
      case BCOp::MulI:
        R[I.A] = VMValue::ofInt(normSK(
            static_cast<int64_t>(static_cast<uint64_t>(R[I.B].I) *
                                 static_cast<uint64_t>(R[I.C].I)),
            static_cast<ScalarKind>(I.Kind)));
        break;
      case BCOp::DivI: {
        if (R[I.C].I == 0) {
          S.trap("integer division by zero");
          break;
        }
        ScalarKind K = static_cast<ScalarKind>(I.Kind);
        if (K <= ScalarKind::I64)
          R[I.A] = VMValue::ofInt(normSK(R[I.B].I / R[I.C].I, K));
        else
          R[I.A] = VMValue::ofInt(normSK(
              static_cast<int64_t>(static_cast<uint64_t>(R[I.B].I) /
                                   static_cast<uint64_t>(R[I.C].I)),
              K));
        break;
      }
      case BCOp::RemI: {
        if (R[I.C].I == 0) {
          S.trap("integer remainder by zero");
          break;
        }
        ScalarKind K = static_cast<ScalarKind>(I.Kind);
        if (K <= ScalarKind::I64)
          R[I.A] = VMValue::ofInt(normSK(R[I.B].I % R[I.C].I, K));
        else
          R[I.A] = VMValue::ofInt(normSK(
              static_cast<int64_t>(static_cast<uint64_t>(R[I.B].I) %
                                   static_cast<uint64_t>(R[I.C].I)),
              K));
        break;
      }
      case BCOp::BitAndI:
        R[I.A] = VMValue::ofInt(
            normSK(R[I.B].I & R[I.C].I, static_cast<ScalarKind>(I.Kind)));
        break;
      case BCOp::BitOrI:
        R[I.A] = VMValue::ofInt(
            normSK(R[I.B].I | R[I.C].I, static_cast<ScalarKind>(I.Kind)));
        break;
      case BCOp::BitXorI:
        R[I.A] = VMValue::ofInt(
            normSK(R[I.B].I ^ R[I.C].I, static_cast<ScalarKind>(I.Kind)));
        break;
      case BCOp::ShlI: {
        unsigned Sh = static_cast<unsigned>(R[I.C].I) & 63;
        R[I.A] = VMValue::ofInt(normSK(
            static_cast<int64_t>(static_cast<uint64_t>(R[I.B].I) << Sh),
            static_cast<ScalarKind>(I.Kind)));
        break;
      }
      case BCOp::ShrI: {
        unsigned Sh = static_cast<unsigned>(R[I.C].I) & 63;
        ScalarKind K = static_cast<ScalarKind>(I.Kind);
        if (K <= ScalarKind::I64) {
          R[I.A] = VMValue::ofInt(normSK(R[I.B].I >> Sh, K));
        } else {
          unsigned Bits = scalarSize(K) * 8;
          uint64_t Mask =
              Bits == 64 ? ~uint64_t(0) : ((uint64_t(1) << Bits) - 1);
          R[I.A] = VMValue::ofInt(normSK(
              static_cast<int64_t>((static_cast<uint64_t>(R[I.B].I) & Mask) >>
                                   Sh),
              K));
        }
        break;
      }
      case BCOp::NegI:
        R[I.A] = VMValue::ofInt(
            normSK(-R[I.B].I, static_cast<ScalarKind>(I.Kind)));
        break;
      case BCOp::BitNotI:
        R[I.A] = VMValue::ofInt(
            normSK(~R[I.B].I, static_cast<ScalarKind>(I.Kind)));
        break;
      case BCOp::LogNotI:
        R[I.A] = VMValue::ofInt(R[I.B].I != 0 ? 0 : 1);
        break;
      case BCOp::LogNotF:
        R[I.A] = VMValue::ofInt(R[I.B].F != 0.0 ? 0 : 1);
        break;
      case BCOp::BoolI:
        R[I.A] = VMValue::ofInt(R[I.B].I != 0 ? 1 : 0);
        break;
      case BCOp::PtrDiff:
        R[I.A] = VMValue::ofInt((R[I.B].I - R[I.C].I) / I.Imm64);
        break;

      case BCOp::AddF:
        R[I.A] = VMValue::ofFloat(R[I.B].F + R[I.C].F);
        break;
      case BCOp::SubF:
        R[I.A] = VMValue::ofFloat(R[I.B].F - R[I.C].F);
        break;
      case BCOp::MulF:
        R[I.A] = VMValue::ofFloat(R[I.B].F * R[I.C].F);
        break;
      case BCOp::DivF:
        R[I.A] = VMValue::ofFloat(R[I.B].F / R[I.C].F);
        break;
      case BCOp::NegF:
        R[I.A] = VMValue::ofFloat(-R[I.B].F);
        break;

      case BCOp::CmpI: {
        int C = R[I.B].I < R[I.C].I ? -1 : (R[I.B].I > R[I.C].I ? 1 : 0);
        R[I.A] = VMValue::ofInt(applyPred(static_cast<CmpPred>(I.Kind), C));
        break;
      }
      case BCOp::CmpU: {
        uint64_t UL = static_cast<uint64_t>(R[I.B].I),
                 UR = static_cast<uint64_t>(R[I.C].I);
        int C = UL < UR ? -1 : (UL > UR ? 1 : 0);
        R[I.A] = VMValue::ofInt(applyPred(static_cast<CmpPred>(I.Kind), C));
        break;
      }
      case BCOp::CmpF: {
        int C = R[I.B].F < R[I.C].F ? -1 : (R[I.B].F > R[I.C].F ? 1 : 0);
        R[I.A] = VMValue::ofInt(applyPred(static_cast<CmpPred>(I.Kind), C));
        break;
      }

      case BCOp::CastII:
        R[I.A] =
            VMValue::ofInt(normSK(R[I.B].I, static_cast<ScalarKind>(I.Kind)));
        break;
      case BCOp::CastFI:
        R[I.A] = VMValue::ofInt(normSK(static_cast<int64_t>(R[I.B].F),
                                       static_cast<ScalarKind>(I.Kind)));
        break;
      case BCOp::CastIF: {
        double V = (I.Kind & 1)
                       ? static_cast<double>(static_cast<uint64_t>(R[I.B].I))
                       : static_cast<double>(R[I.B].I);
        if (I.Kind & 2)
          V = static_cast<float>(V);
        R[I.A] = VMValue::ofFloat(V);
        break;
      }
      case BCOp::CastFF: {
        double V = R[I.B].F;
        if (I.Kind & 2)
          V = static_cast<float>(V);
        R[I.A] = VMValue::ofFloat(V);
        break;
      }

      case BCOp::Jump:
        NextPC = I.Imm32;
        break;
      case BCOp::JumpIfZero:
        if (R[I.A].I == 0)
          NextPC = I.Imm32;
        break;
      case BCOp::JumpIfNonZero:
        if (R[I.A].I != 0)
          NextPC = I.Imm32;
        break;

      case BCOp::CallGuard:
        if (S.CallDepth > 4000) {
          // The tree-walker traps *before* charging Call; back it out.
          if (I.Kind & 1)
            S.Cycles -= S.Opts.Costs.Call;
          S.trap("call stack overflow");
        }
        break;
      case BCOp::Call: {
        const BytecodeFunction &Callee = BM.Funcs[I.Imm32];
        VMValue RV = callFunction(Callee, Regs.data() + RegBase + I.B, I.C);
        R = Regs.data() + RegBase; // nested calls may reallocate Regs
        R[I.A] = RV;
        break;
      }
      case BCOp::BuiltinOp: {
        VMValue Args[3];
        unsigned N = std::min<unsigned>(I.C, 3);
        for (unsigned J = 0; J != N; ++J)
          Args[J] = R[I.B + J];
        R[I.A] = S.execBuiltinOp(static_cast<Builtin>(I.Kind), I.Imm32, Args,
                                 N);
        break;
      }
      case BCOp::Ret:
        if (I.Kind & 1)
          S.ReturnValue = R[I.A];
        Result = Flow::Return;
        Done = true;
        break;
      case BCOp::Trap:
        S.trap(BF.TrapMsgs[I.Imm32]);
        break;

      case BCOp::LoopEnterW: {
        ScopeEntry E;
        E.IsWhile = true;
        E.Loop = S.loopEnter(I.Imm32);
        Scopes.push_back(E);
        break;
      }
      case BCOp::WhileHead:
        S.checkBudget();
        break;
      case BCOp::IterNote:
        S.loopIterNote(Scopes.back().Loop);
        break;
      case BCOp::LoopExitW:
        S.loopExit(Scopes.back().Loop);
        Scopes.pop_back();
        break;

      case BCOp::ForLoop: {
        const BCForMeta &FM = BF.Fors[I.Imm32];
        auto Bounds = [&](ThreadState::ForBounds &B) {
          B.IVAddr = FM.IVGlobal ? S.globalAddr(FM.IVGlobal)
                                 : FrameBase + FM.IVFrameOff;
          dispatch(BF, FrameBase, RegBase, FM.BoundsStart);
          VMValue *RR = Regs.data() + RegBase;
          B.Lo = RR[FM.LoReg].I;
          B.Hi = RR[FM.HiReg].I;
          B.Step = RR[FM.StepReg].I;
        };
        auto Body = [&] {
          return dispatch(BF, FrameBase, RegBase, FM.BodyStart);
        };
        Flow FL;
        if (S.Opts.Engine == ExecEngine::Threads &&
            FM.Kind != ParallelKind::None) {
          // Offer the loop driver real host-threaded execution: each worker
          // gets its own VM (register file, scope stack) over the shared
          // bytecode and a private copy of this frame. Fresh zeroed
          // registers are equivalent to the enclosing VM's because body
          // segments never read registers written outside themselves (the
          // lowering's per-statement register discipline). The worker VM's
          // register file and scope stack are reserved here, on the calling
          // thread, so a worker's calls rarely grow them on the host heap.
          // The driver still decides per invocation; ineligible loops run
          // the simulated serial-order Body.
          auto MakeWorker = [this, &BF, &FM](ThreadState &WS,
                                             uint64_t WorkerFrame) {
            auto VM = std::make_shared<BytecodeVM>(WS, BM);
            VM->Regs.reserve(WorkerRegReserve);
            VM->Scopes.reserve(WorkerScopeReserve);
            VM->allocRegs(BF.NumRegs);
            return std::function<Flow()>([VM, &BF, &FM, WorkerFrame] {
              return VM->dispatch(BF, WorkerFrame, 0, FM.BodyStart);
            });
          };
          ThreadLoopHooks Hooks;
          Hooks.FrameBase = FrameBase;
          Hooks.FrameSize = BF.FrameSize;
          Hooks.IVInFrame = !FM.IVGlobal;
          Hooks.MakeWorker = MakeWorker;
          FL = S.runForLoop(FM.LoopId, FM.Kind, FM.IVType, Bounds, Body,
                            &Hooks);
        } else {
          FL = S.runForLoop(FM.LoopId, FM.Kind, FM.IVType, Bounds, Body);
        }
        R = Regs.data() + RegBase; // body calls may reallocate Regs
        if (FL == Flow::Return || FL == Flow::Halt) {
          Result = FL;
          Done = true;
          break;
        }
        NextPC = FM.ExitPc;
        break;
      }
      case BCOp::BoundsEnd:
      case BCOp::IterEnd:
        Result = Flow::Normal;
        Done = true;
        break;
      case BCOp::IterBreak:
        Result = Flow::Break;
        Done = true;
        break;

      case BCOp::OrdEnter: {
        // Under real DOACROSS threading, block until this worker's iteration
        // holds the region ticket. Wall-clock only; the recorded entry offset
        // below is in work cycles, which blocking does not advance.
        if (S.DX)
          S.orderedRealEnter(I.Imm32);
        ScopeEntry E;
        E.Ev.RegionId = I.Imm32;
        if (S.RecordOrdered)
          E.Ev.EntryOff = S.Cycles - S.IterStartCycles;
        Scopes.push_back(E);
        break;
      }
      case BCOp::OrdExit: {
        ScopeEntry &E = Scopes.back();
        if (S.RecordOrdered) {
          E.Ev.ExitOff = S.Cycles - S.IterStartCycles;
          S.OrderedEvents.push_back(E.Ev);
        }
        Scopes.pop_back();
        break;
      }
      }

      // A trap or halt anywhere overrides the segment's own flow, exactly
      // like the tree-walker's dead() checks on every path.
      if (S.Trapped || S.Halted) {
        Result = Flow::Halt;
        break;
      }
      PC = NextPC;
    }

    // Unwind scopes this segment opened but did not close (return, trap,
    // halt): innermost-first, while-exit bookkeeping and ordered-event
    // recording in the same order the tree-walker's propagation performs.
    while (Scopes.size() > ScopeFloor) {
      ScopeEntry &E = Scopes.back();
      if (E.IsWhile) {
        S.loopExit(E.Loop);
      } else if (S.RecordOrdered) {
        E.Ev.ExitOff = S.Cycles - S.IterStartCycles;
        S.OrderedEvents.push_back(E.Ev);
      }
      Scopes.pop_back();
    }
    return Result;
  }

  uint64_t globalBase(uint32_t VarId) {
    uint64_t Base =
        VarId < S.P.GlobalAddrById.size() ? S.P.GlobalAddrById[VarId] : 0;
    if (!Base)
      S.trap("reference to unallocated global '" +
             S.M.getVarDecl(VarId)->getName() + "'");
    return Base;
  }

  static int64_t applyPred(CmpPred P, int C) {
    switch (P) {
    case CmpPred::Eq:
      return C == 0;
    case CmpPred::Ne:
      return C != 0;
    case CmpPred::Lt:
      return C < 0;
    case CmpPred::Le:
      return C <= 0;
    case CmpPred::Gt:
      return C > 0;
    case CmpPred::Ge:
      return C >= 0;
    }
    gdse_unreachable("unknown compare predicate");
  }
};

} // namespace

void gdse::runBytecodeEntry(ThreadState &S, const BytecodeModule &BM,
                            const Function *F) {
  BytecodeVM VM(S, BM);
  VM.runEntry(F);
}
