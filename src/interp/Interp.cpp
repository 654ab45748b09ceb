//===- Interp.cpp - The tree-walking reference engine ----------------------===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// The reference execution engine: walks the IR tree directly, re-dispatching
// on node kinds for every operand. All semantics shared with the bytecode VM
// (memory, builtins, loop drivers, the multicore timeline) live in
// ThreadState; this file contains only expression/statement evaluation. The
// bytecode engine (Bytecode.cpp) must match it bit-for-bit on non-trapping
// runs — EngineDiffTest holds the two together.
//
//===----------------------------------------------------------------------===//

#include "interp/Interp.h"

#include "interp/Bytecode.h"
#include "interp/ExecState.h"
#include "ir/IRPrinter.h"
#include "support/Support.h"

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

using namespace gdse;

InterpObserver::~InterpObserver() = default;

ExecEngine gdse::engineFromEnv(ExecEngine Default) {
  const char *E = std::getenv("GDSE_ENGINE");
  if (!E || !*E)
    return Default;
  std::string V(E);
  if (V == "tree" || V == "treewalk")
    return ExecEngine::TreeWalk;
  if (V == "bytecode" || V == "bc")
    return ExecEngine::Bytecode;
  if (V == "threads")
    return ExecEngine::Threads;
  envWarnOnce("GDSE_ENGINE",
              formatString("unrecognized value '%s' for GDSE_ENGINE; using "
                           "'%s' (use tree/treewalk, bytecode/bc, or threads)",
                           E,
                           Default == ExecEngine::TreeWalk    ? "tree"
                           : Default == ExecEngine::Bytecode ? "bytecode"
                                                             : "threads"));
  return Default;
}

namespace {
/// Owns the shared ProgramContext. A base class rather than a member so it is
/// fully constructed before the ThreadState base that holds references into
/// it.
struct ContextHolder {
  ProgramContext PC;
  ContextHolder(Module &M, InterpOptions O) : PC(M, std::move(O)) {}
};
} // namespace

/// The tree-walking evaluator is the ProgramContext + main ThreadState pair:
/// Impl *is* the main thread's state (so evaluator code reads fields
/// directly), and the ContextHolder base owns the shared program half that
/// worker ThreadStates of host-threaded loops attach to.
struct Interp::Impl : ContextHolder, ThreadState {
  using Value = VMValue;

  struct Frame {
    const Function *F = nullptr;
    const FrameLayout *Layout = nullptr;
    uint64_t Base = 0;
  };
  std::vector<Frame> Frames;

  /// Lazily-lowered (or precompiled) bytecode for the Bytecode/Threads
  /// engines.
  std::shared_ptr<const BytecodeModule> BC;

  Impl(Module &M, InterpOptions O)
      : ContextHolder(M, std::move(O)), ThreadState(PC) {
    BC = Opts.Precompiled;
  }

  const FrameLayout &layoutOf(const Function *F) { return PC.layoutOf(F); }

  uint64_t addrOfVar(const VarDecl *D) {
    if (D->isGlobal())
      return globalAddr(D);
    assert(!Frames.empty() && "local access outside any frame");
    const Frame &Fr = Frames.back();
    auto It = Fr.Layout->Offsets.find(D);
    if (It == Fr.Layout->Offsets.end()) {
      trap("variable '" + D->getName() + "' has no slot in frame of " +
           Fr.F->getName());
      return 0;
    }
    return Fr.Base + It->second;
  }

  //===------------------------------------------------------------------===//
  // Expression evaluation
  //===------------------------------------------------------------------===//

  uint64_t evalLValue(const Expr *E) {
    if (dead())
      return 0;
    // Address computation folds into addressing modes: no charge.
    switch (E->getKind()) {
    case Expr::Kind::VarRef:
      return addrOfVar(cast<VarRefExpr>(E)->getDecl());
    case Expr::Kind::Deref:
      return static_cast<uint64_t>(evalExpr(cast<DerefExpr>(E)->getPtr()).I);
    case Expr::Kind::ArrayIndex: {
      const auto *A = cast<ArrayIndexExpr>(E);
      uint64_t Base = static_cast<uint64_t>(evalExpr(A->getBase()).I);
      int64_t Idx = evalExpr(A->getIndex()).I;
      uint64_t ElemSize = Ctx.getLayout(A->getType()).Size;
      return Base + static_cast<uint64_t>(Idx * static_cast<int64_t>(ElemSize));
    }
    case Expr::Kind::FieldAccess: {
      const auto *F = cast<FieldAccessExpr>(E);
      uint64_t Base = evalLValue(F->getBase());
      auto *ST = cast<StructType>(F->getBase()->getType());
      const TypeLayout &L = Ctx.getLayout(ST);
      return Base + L.FieldOffsets[F->getFieldIndex()];
    }
    default:
      trap("evalLValue of non-lvalue " + printExpr(E));
      return 0;
    }
  }

  Value evalExpr(const Expr *E) {
    if (dead())
      return Value();
    switch (E->getKind()) {
    case Expr::Kind::IntLit:
    case Expr::Kind::FloatLit:
    case Expr::Kind::SizeofType:
    case Expr::Kind::ThreadId:
    case Expr::Kind::NumThreads:
      break; // immediates: free
    default:
      charge(Opts.Costs.ExprBase);
      break;
    }
    switch (E->getKind()) {
    case Expr::Kind::IntLit:
      return Value::ofInt(cast<IntLitExpr>(E)->getValue());
    case Expr::Kind::FloatLit:
      return Value::ofFloat(cast<FloatLitExpr>(E)->getValue());
    case Expr::Kind::VarRef:
    case Expr::Kind::Deref:
    case Expr::Kind::ArrayIndex:
    case Expr::Kind::FieldAccess:
      trap("r-value evaluation of bare l-value " + printExpr(E));
      return Value();
    case Expr::Kind::Load: {
      const auto *L = cast<LoadExpr>(E);
      if (L->getType()->isAggregate()) {
        trap("aggregate load outside assignment: " + printExpr(E));
        return Value();
      }
      uint64_t Addr = evalLValue(L->getLocation());
      uint64_t Size = Ctx.getLayout(L->getType()).Size;
      if (!checkAccess(Addr, Size, "load"))
        return Value();
      if (!isRegisterAccess(L->getLocation()))
        charge(Opts.Costs.Load);
      if (Obs)
        Obs->onLoad(L->getAccessId(), Addr, Size);
      if (GuardHooksOn)
        guardLoad(L->getAccessId(), Addr, Size);
      return loadScalar(Addr, L->getType());
    }
    case Expr::Kind::Unary:
      return evalUnary(cast<UnaryExpr>(E));
    case Expr::Kind::Binary:
      return evalBinary(cast<BinaryExpr>(E));
    case Expr::Kind::AddrOf:
      return Value::ofInt(
          static_cast<int64_t>(evalLValue(cast<AddrOfExpr>(E)->getLocation())));
    case Expr::Kind::Decay:
      return Value::ofInt(static_cast<int64_t>(
          evalLValue(cast<DecayExpr>(E)->getArrayLocation())));
    case Expr::Kind::Call:
      return evalCall(cast<CallExpr>(E));
    case Expr::Kind::Cast:
      return evalCast(cast<CastExpr>(E));
    case Expr::Kind::SizeofType:
      return Value::ofInt(static_cast<int64_t>(
          Ctx.getLayout(cast<SizeofTypeExpr>(E)->getQueriedType()).Size));
    case Expr::Kind::ThreadId:
      return Value::ofInt(CurTid);
    case Expr::Kind::NumThreads:
      return Value::ofInt(Opts.NumThreads);
    case Expr::Kind::Cond: {
      const auto *C = cast<CondExpr>(E);
      Value CV = evalExpr(C->getCond());
      return evalExpr(CV.I ? C->getThen() : C->getElse());
    }
    }
    gdse_unreachable("unknown expr kind");
  }

  Value evalUnary(const UnaryExpr *U) {
    Value S = evalExpr(U->getSub());
    Type *T = U->getType();
    switch (U->getOp()) {
    case UnaryOp::Neg:
      if (T->isFloat())
        return Value::ofFloat(-S.F);
      return Value::ofInt(normalizeInt(-S.I, cast<IntType>(T)));
    case UnaryOp::BitNot:
      return Value::ofInt(normalizeInt(~S.I, cast<IntType>(T)));
    case UnaryOp::LogicalNot: {
      Type *ST = U->getSub()->getType();
      bool Truthy = ST->isFloat() ? (S.F != 0.0) : (S.I != 0);
      return Value::ofInt(Truthy ? 0 : 1);
    }
    }
    gdse_unreachable("unknown unary op");
  }

  Value evalBinary(const BinaryExpr *B) {
    BinaryOp Op = B->getOp();
    // Short-circuit forms.
    if (Op == BinaryOp::LogicalAnd || Op == BinaryOp::LogicalOr) {
      Value L = evalExpr(B->getLHS());
      bool LTrue = L.I != 0;
      if (Op == BinaryOp::LogicalAnd && !LTrue)
        return Value::ofInt(0);
      if (Op == BinaryOp::LogicalOr && LTrue)
        return Value::ofInt(1);
      Value R = evalExpr(B->getRHS());
      return Value::ofInt(R.I != 0 ? 1 : 0);
    }

    Value L = evalExpr(B->getLHS());
    Value R = evalExpr(B->getRHS());
    if (dead())
      return Value();
    Type *LT = B->getLHS()->getType();
    Type *RT = B->getRHS()->getType();

    // Pointer arithmetic.
    if (LT->isPointer() && RT->isPointer()) {
      uint64_t Size = Ctx.getLayout(cast<PointerType>(LT)->getPointee()).Size;
      switch (Op) {
      case BinaryOp::Sub:
        return Value::ofInt((L.I - R.I) / static_cast<int64_t>(Size));
      case BinaryOp::Eq:
        return Value::ofInt(L.I == R.I);
      case BinaryOp::Ne:
        return Value::ofInt(L.I != R.I);
      case BinaryOp::Lt:
        return Value::ofInt(static_cast<uint64_t>(L.I) <
                            static_cast<uint64_t>(R.I));
      case BinaryOp::Le:
        return Value::ofInt(static_cast<uint64_t>(L.I) <=
                            static_cast<uint64_t>(R.I));
      case BinaryOp::Gt:
        return Value::ofInt(static_cast<uint64_t>(L.I) >
                            static_cast<uint64_t>(R.I));
      case BinaryOp::Ge:
        return Value::ofInt(static_cast<uint64_t>(L.I) >=
                            static_cast<uint64_t>(R.I));
      default:
        trap("invalid pointer-pair operation");
        return Value();
      }
    }
    if (LT->isPointer()) {
      uint64_t Size = Ctx.getLayout(cast<PointerType>(LT)->getPointee()).Size;
      int64_t Off = R.I * static_cast<int64_t>(Size);
      if (Op == BinaryOp::Add)
        return Value::ofInt(L.I + Off);
      if (Op == BinaryOp::Sub)
        return Value::ofInt(L.I - Off);
      trap("invalid pointer arithmetic operator");
      return Value();
    }

    // Comparisons over scalars (operands share a type after conversions).
    bool IsCmp = Op == BinaryOp::Eq || Op == BinaryOp::Ne ||
                 Op == BinaryOp::Lt || Op == BinaryOp::Le ||
                 Op == BinaryOp::Gt || Op == BinaryOp::Ge;
    if (IsCmp) {
      int C;
      if (LT->isFloat())
        C = L.F < R.F ? -1 : (L.F > R.F ? 1 : 0);
      else if (cast<IntType>(LT)->isSigned())
        C = L.I < R.I ? -1 : (L.I > R.I ? 1 : 0);
      else {
        uint64_t UL = static_cast<uint64_t>(L.I),
                 UR = static_cast<uint64_t>(R.I);
        C = UL < UR ? -1 : (UL > UR ? 1 : 0);
      }
      switch (Op) {
      case BinaryOp::Eq:
        return Value::ofInt(C == 0);
      case BinaryOp::Ne:
        return Value::ofInt(C != 0);
      case BinaryOp::Lt:
        return Value::ofInt(C < 0);
      case BinaryOp::Le:
        return Value::ofInt(C <= 0);
      case BinaryOp::Gt:
        return Value::ofInt(C > 0);
      default:
        return Value::ofInt(C >= 0);
      }
    }

    Type *T = B->getType();
    if (T->isFloat()) {
      switch (Op) {
      case BinaryOp::Add:
        return Value::ofFloat(L.F + R.F);
      case BinaryOp::Sub:
        return Value::ofFloat(L.F - R.F);
      case BinaryOp::Mul:
        return Value::ofFloat(L.F * R.F);
      case BinaryOp::Div:
        charge(Opts.Costs.DivRem);
        return Value::ofFloat(L.F / R.F);
      default:
        trap("invalid float operator");
        return Value();
      }
    }

    const auto *IT = cast<IntType>(T);
    auto norm = [&](int64_t V) { return normalizeInt(V, IT); };
    switch (Op) {
    case BinaryOp::Add:
      return Value::ofInt(
          norm(static_cast<int64_t>(static_cast<uint64_t>(L.I) +
                                    static_cast<uint64_t>(R.I))));
    case BinaryOp::Sub:
      return Value::ofInt(
          norm(static_cast<int64_t>(static_cast<uint64_t>(L.I) -
                                    static_cast<uint64_t>(R.I))));
    case BinaryOp::Mul:
      return Value::ofInt(
          norm(static_cast<int64_t>(static_cast<uint64_t>(L.I) *
                                    static_cast<uint64_t>(R.I))));
    case BinaryOp::Div:
      // Constant divisors are strength-reduced by compilers (mul+shift).
      charge(isa<IntLitExpr>(B->getRHS()) ? 2 : Opts.Costs.DivRem);
      if (R.I == 0) {
        trap("integer division by zero");
        return Value();
      }
      if (IT->isSigned())
        return Value::ofInt(norm(L.I / R.I));
      return Value::ofInt(norm(static_cast<int64_t>(
          static_cast<uint64_t>(L.I) / static_cast<uint64_t>(R.I))));
    case BinaryOp::Rem:
      charge(Opts.Costs.DivRem);
      if (R.I == 0) {
        trap("integer remainder by zero");
        return Value();
      }
      if (IT->isSigned())
        return Value::ofInt(norm(L.I % R.I));
      return Value::ofInt(norm(static_cast<int64_t>(
          static_cast<uint64_t>(L.I) % static_cast<uint64_t>(R.I))));
    case BinaryOp::BitAnd:
      return Value::ofInt(norm(L.I & R.I));
    case BinaryOp::BitOr:
      return Value::ofInt(norm(L.I | R.I));
    case BinaryOp::BitXor:
      return Value::ofInt(norm(L.I ^ R.I));
    case BinaryOp::Shl: {
      unsigned Sh = static_cast<unsigned>(R.I) & 63;
      return Value::ofInt(
          norm(static_cast<int64_t>(static_cast<uint64_t>(L.I) << Sh)));
    }
    case BinaryOp::Shr: {
      unsigned Sh = static_cast<unsigned>(R.I) & 63;
      if (IT->isSigned())
        return Value::ofInt(norm(L.I >> Sh));
      // Value is zero-extended in I for unsigned types after normalize.
      uint64_t Mask = IT->getBits() == 64
                          ? ~uint64_t(0)
                          : ((uint64_t(1) << IT->getBits()) - 1);
      return Value::ofInt(
          norm(static_cast<int64_t>((static_cast<uint64_t>(L.I) & Mask) >> Sh)));
    }
    default:
      gdse_unreachable("unhandled integer binary op");
    }
  }

  Value evalCast(const CastExpr *C) {
    Value S = evalExpr(C->getSub());
    Type *From = C->getSub()->getType();
    Type *To = C->getType();
    if (To->isFloat()) {
      if (From->isFloat()) {
        double V = S.F;
        if (cast<FloatType>(To)->getBits() == 32)
          V = static_cast<float>(V);
        return Value::ofFloat(V);
      }
      const auto *IT = cast<IntType>(From);
      double V = IT->isSigned()
                     ? static_cast<double>(S.I)
                     : static_cast<double>(static_cast<uint64_t>(S.I));
      if (cast<FloatType>(To)->getBits() == 32)
        V = static_cast<float>(V);
      return Value::ofFloat(V);
    }
    if (To->isInt()) {
      const auto *IT = cast<IntType>(To);
      if (From->isFloat())
        return Value::ofInt(normalizeInt(static_cast<int64_t>(S.F), IT));
      return Value::ofInt(normalizeInt(S.I, IT)); // int or pointer source
    }
    // Pointer destination: int or pointer source passes through.
    return Value::ofInt(S.I);
  }

  //===------------------------------------------------------------------===//
  // Calls and builtins
  //===------------------------------------------------------------------===//

  Value evalCall(const CallExpr *C) {
    if (C->isBuiltin())
      return evalBuiltin(C);

    if (CallDepth > 4000) {
      trap("call stack overflow");
      return Value();
    }
    Function *F = C->getCallee();
    if (!F->isDefinition()) {
      trap("call to undefined function '" + F->getName() + "'");
      return Value();
    }
    charge(Opts.Costs.Call);
    std::vector<Value> Args;
    Args.reserve(C->getNumArgs());
    for (const Expr *A : C->getArgs())
      Args.push_back(evalExpr(A));
    if (dead())
      return Value();

    const FrameLayout &L = layoutOf(F);
    Frame Fr;
    Fr.F = F;
    Fr.Layout = &L;
    Fr.Base = Mem.allocate(L.Size, AllocKind::Frame, 0);
    if (!Fr.Base) {
      trap(formatString("out of memory: frame of %llu bytes for '%s' failed",
                        static_cast<unsigned long long>(L.Size),
                        F->getName().c_str()));
      return Value();
    }
    if (Obs)
      Obs->onAlloc(*Mem.byBase(Fr.Base));
    Frames.push_back(Fr);
    ++CallDepth;
    for (unsigned I = 0, E = static_cast<unsigned>(Args.size()); I != E; ++I) {
      const VarDecl *P = F->getParam(I);
      storeScalar(Fr.Base + L.Offsets.at(P), P->getType(), Args[I]);
    }
    ReturnValue = Value();
    Flow FL = execStmt(F->getBody());
    if (FL == Flow::Break || FL == Flow::Continue)
      trap("break/continue escaped function body");
    Value RV = ReturnValue;
    --CallDepth;
    if (Obs)
      Obs->onFree(*Mem.byBase(Frames.back().Base));
    Mem.deallocate(Frames.back().Base);
    Frames.pop_back();
    return RV;
  }

  Value evalBuiltin(const CallExpr *C) {
    // sqrt's cycle charge historically precedes its argument's evaluation;
    // both engines preserve that order (execBuiltinOp itself charges
    // nothing for sqrt).
    if (C->getBuiltin() == Builtin::SqrtFn)
      charge(Opts.Costs.DivRem);
    Value Args[3];
    unsigned N = std::min(C->getNumArgs(), 3u);
    for (unsigned I = 0; I != N; ++I)
      Args[I] = evalExpr(C->getArg(I));
    return execBuiltinOp(C->getBuiltin(), C->getSiteId(), Args, N);
  }

  //===------------------------------------------------------------------===//
  // Statements
  //===------------------------------------------------------------------===//

  Flow execStmt(const Stmt *S) {
    if (Trapped || Halted)
      return Flow::Halt;
    switch (S->getKind()) {
    case Stmt::Kind::Block:
      for (const Stmt *Sub : cast<BlockStmt>(S)->getStmts()) {
        Flow F = execStmt(Sub);
        if (F != Flow::Normal)
          return F;
      }
      return Flow::Normal;
    case Stmt::Kind::ExprStmt:
      evalExpr(cast<ExprStmt>(S)->getExpr());
      return dead() ? Flow::Halt : Flow::Normal;
    case Stmt::Kind::Assign:
      return execAssign(cast<AssignStmt>(S));
    case Stmt::Kind::If: {
      const auto *I = cast<IfStmt>(S);
      Value C = evalExpr(I->getCond());
      if (dead())
        return Flow::Halt;
      if (C.I)
        return execStmt(I->getThen());
      if (I->getElse())
        return execStmt(I->getElse());
      return Flow::Normal;
    }
    case Stmt::Kind::While:
      return execWhile(cast<WhileStmt>(S));
    case Stmt::Kind::For: {
      const auto *F = cast<ForStmt>(S);
      const VarDecl *IV = F->getInductionVar();
      return runForLoop(
          F->getLoopId(), F->getParallelKind(), IV->getType(),
          [&](ForBounds &B) {
            B.IVAddr = addrOfVar(IV);
            B.Lo = evalExpr(F->getInit()).I;
            B.Hi = evalExpr(F->getLimit()).I;
            B.Step = evalExpr(F->getStep()).I;
          },
          [&] { return execStmt(F->getBody()); });
    }
    case Stmt::Kind::Return: {
      const auto *R = cast<ReturnStmt>(S);
      if (R->getValue())
        ReturnValue = evalExpr(R->getValue());
      return dead() ? Flow::Halt : Flow::Return;
    }
    case Stmt::Kind::Break:
      return Flow::Break;
    case Stmt::Kind::Continue:
      return Flow::Continue;
    case Stmt::Kind::Ordered:
      return execOrdered(cast<OrderedStmt>(S));
    }
    gdse_unreachable("unknown stmt kind");
  }

  Flow execAssign(const AssignStmt *A) {
    Type *T = A->getLHS()->getType();
    if (T->isAggregate()) {
      const auto *RL = dyn_cast<LoadExpr>(A->getRHS());
      if (!RL) {
        trap("aggregate assignment RHS must be a memory location");
        return Flow::Halt;
      }
      uint64_t Dst = evalLValue(A->getLHS());
      uint64_t Src = evalLValue(RL->getLocation());
      uint64_t Size = Ctx.getLayout(T).Size;
      if (!checkAccess(Dst, Size, "aggregate store") ||
          !checkAccess(Src, Size, "aggregate load"))
        return Flow::Halt;
      charge(Opts.Costs.Load + Opts.Costs.Store +
             Size * Opts.Costs.PerByteCopy);
      if (Obs) {
        Obs->onLoad(RL->getAccessId(), Src, Size);
        Obs->onStore(A->getAccessId(), Dst, Size);
      }
      if (GuardHooksOn) {
        guardLoad(RL->getAccessId(), Src, Size);
        guardStore(A->getAccessId(), Dst, Size);
      }
      std::memmove(reinterpret_cast<void *>(Dst),
                   reinterpret_cast<void *>(Src), Size);
      return dead() ? Flow::Halt : Flow::Normal;
    }
    uint64_t Addr = evalLValue(A->getLHS());
    Value V = evalExpr(A->getRHS());
    uint64_t Size = Ctx.getLayout(T).Size;
    if (!checkAccess(Addr, Size, "store"))
      return Flow::Halt;
    if (!isRegisterAccess(A->getLHS()))
      charge(Opts.Costs.Store);
    storeScalar(Addr, T, V);
    if (Obs)
      Obs->onStore(A->getAccessId(), Addr, Size);
    if (GuardHooksOn)
      guardStore(A->getAccessId(), Addr, Size);
    return dead() ? Flow::Halt : Flow::Normal;
  }

  Flow execWhile(const WhileStmt *W) {
    ActiveLoop L = loopEnter(W->getLoopId());
    Flow Result = Flow::Normal;
    while (true) {
      if (!checkBudget()) {
        Result = Flow::Halt;
        break;
      }
      Value C = evalExpr(W->getCond());
      if (dead()) {
        Result = Flow::Halt;
        break;
      }
      if (!C.I)
        break;
      loopIterNote(L);
      Flow F = execStmt(W->getBody());
      if (F == Flow::Break)
        break;
      if (F == Flow::Return || F == Flow::Halt) {
        Result = F;
        break;
      }
    }
    loopExit(L);
    return Result;
  }

  Flow execOrdered(const OrderedStmt *O) {
    charge(Opts.Costs.OrderedEnter);
    if (!RecordOrdered)
      return execStmt(O->getBody());
    OrderedEvent Ev;
    Ev.RegionId = O->getRegionId();
    Ev.EntryOff = Cycles - IterStartCycles;
    Flow F = execStmt(O->getBody());
    Ev.ExitOff = Cycles - IterStartCycles;
    OrderedEvents.push_back(Ev);
    return F;
  }

  //===------------------------------------------------------------------===//
  // Entry
  //===------------------------------------------------------------------===//

  RunResult run(const std::string &Entry) {
    auto HostStart = std::chrono::steady_clock::now();
    resetRun();

    RunResult R;
    Function *F = M.getFunction(Entry);
    if (!F || !F->isDefinition()) {
      R.Trapped = true;
      R.TrapMessage = "entry function '" + Entry + "' not found";
      return R;
    }
    if (!F->getParams().empty()) {
      R.Trapped = true;
      R.TrapMessage = "entry function must take no parameters";
      return R;
    }

    if (Opts.Engine == ExecEngine::Bytecode ||
        Opts.Engine == ExecEngine::Threads) {
      // Lower lazily; a precompiled module is usable only if it was built
      // against the exact cost table of this run. The Threads engine is the
      // bytecode evaluator plus host-threaded parallel loops — only the
      // bytecode VM supplies the worker hooks (ThreadLoopHooks).
      if (!BC || !(BC->Costs == Opts.Costs))
        BC = lowerToBytecode(M, Opts.Costs);
      runBytecodeEntry(*this, *BC, F);
    } else {
      invokeEntry(F);
    }

    R.Trapped = Trapped;
    R.TrapMessage = TrapMessage;
    R.TrapLoopId = TrapLoopId;
    R.TrapIteration = TrapIteration;
    R.TrapThread = TrapThread;
    R.ExitCode = Trapped ? -1 : ExitCode;
    R.WorkCycles = Cycles;
    int64_t Sim = static_cast<int64_t>(Cycles) + TimeAdjust;
    R.SimTime = Sim > 0 ? static_cast<uint64_t>(Sim) : 0;
    R.Output = std::move(Output);
    R.PeakMemoryBytes = Mem.peakBytes();
    R.Loops = std::move(Loops);
    R.RtPrivTranslations = RtPrivTranslations;
    R.RtPrivBytesCopied = RtPrivBytesCopied;
    R.Violations = std::move(GuardViolationLog);
    R.HostNanos = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - HostStart)
            .count());
    return R;
  }

  /// Invokes a zero-argument function outside any expression context.
  void invokeEntry(Function *F) {
    const FrameLayout &L = layoutOf(F);
    Frame Fr;
    Fr.F = F;
    Fr.Layout = &L;
    Fr.Base = Mem.allocate(L.Size, AllocKind::Frame, 0);
    if (!Fr.Base) {
      trap(formatString("out of memory: frame of %llu bytes for '%s' failed",
                        static_cast<unsigned long long>(L.Size),
                        F->getName().c_str()));
      return;
    }
    if (Obs)
      Obs->onAlloc(*Mem.byBase(Fr.Base));
    Frames.push_back(Fr);
    ReturnValue = Value();
    Flow FL = execStmt(F->getBody());
    if (FL == Flow::Break || FL == Flow::Continue)
      trap("break/continue escaped entry function");
    if (!Trapped && !Halted && F->getReturnType()->isInt())
      ExitCode = ReturnValue.I;
    rtPrivCommitAll();
    if (Obs)
      Obs->onFree(*Mem.byBase(Frames.back().Base));
    Mem.deallocate(Frames.back().Base);
    Frames.pop_back();
  }
};

Interp::Interp(Module &M, InterpOptions Opts) : P(new Impl(M, std::move(Opts))) {}

Interp::~Interp() { delete P; }

void Interp::setObserver(InterpObserver *O) { P->Obs = O; }

RunResult Interp::run(const std::string &Entry) { return P->run(Entry); }
