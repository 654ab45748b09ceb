//===- ProgramContext.cpp - Shared, per-program execution context ----------===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "interp/ProgramContext.h"

#include "ir/AccessInfo.h"
#include "support/Diagnostics.h"

#include <algorithm>
#include <system_error>

using namespace gdse;

FrameLayout gdse::computeFrameLayout(TypeContext &Ctx, const Function *F) {
  FrameLayout L;
  uint64_t Offset = 0;
  auto place = [&](const VarDecl *D) {
    const TypeLayout &TL = Ctx.getLayout(D->getType());
    Offset = (Offset + TL.Align - 1) / TL.Align * TL.Align;
    L.Offsets[D] = Offset;
    Offset += TL.Size;
  };
  for (const VarDecl *P : F->getParams())
    place(P);
  for (const VarDecl *V : F->getLocals())
    place(V);
  L.Size = std::max<uint64_t>(Offset, 1);
  return L;
}

namespace {

/// Per-function facts collected by one body walk; loop traits are the union
/// of the loop body's direct facts and the closures of every callee.
struct FnFacts {
  bool UsesTid = false;
  bool UsesRtPriv = false;
  std::set<unsigned> RegionIds;
  std::set<const Function *> Callees;

  void mergeFrom(const FnFacts &O) {
    UsesTid |= O.UsesTid;
    UsesRtPriv |= O.UsesRtPriv;
    RegionIds.insert(O.RegionIds.begin(), O.RegionIds.end());
  }
};

struct TraitsScanner {
  std::map<const Function *, FnFacts> Summaries;
  std::map<const Function *, FnFacts> Closures;
  /// Loop id -> the loop body's *direct* facts plus direct callees.
  std::map<unsigned, FnFacts> LoopDirect;

  void walkExpr(const Expr *E, FnFacts &F) {
    if (!E)
      return;
    switch (E->getKind()) {
    case Expr::Kind::ThreadId:
      F.UsesTid = true;
      return;
    case Expr::Kind::IntLit:
    case Expr::Kind::FloatLit:
    case Expr::Kind::SizeofType:
    case Expr::Kind::NumThreads:
      return;
    case Expr::Kind::VarRef:
      return;
    case Expr::Kind::Deref:
      walkExpr(cast<DerefExpr>(E)->getPtr(), F);
      return;
    case Expr::Kind::ArrayIndex: {
      const auto *A = cast<ArrayIndexExpr>(E);
      walkExpr(A->getBase(), F);
      walkExpr(A->getIndex(), F);
      return;
    }
    case Expr::Kind::FieldAccess:
      walkExpr(cast<FieldAccessExpr>(E)->getBase(), F);
      return;
    case Expr::Kind::Load:
      walkExpr(cast<LoadExpr>(E)->getLocation(), F);
      return;
    case Expr::Kind::Unary:
      walkExpr(cast<UnaryExpr>(E)->getSub(), F);
      return;
    case Expr::Kind::Binary: {
      const auto *B = cast<BinaryExpr>(E);
      walkExpr(B->getLHS(), F);
      walkExpr(B->getRHS(), F);
      return;
    }
    case Expr::Kind::AddrOf:
      walkExpr(cast<AddrOfExpr>(E)->getLocation(), F);
      return;
    case Expr::Kind::Decay:
      walkExpr(cast<DecayExpr>(E)->getArrayLocation(), F);
      return;
    case Expr::Kind::Call: {
      const auto *C = cast<CallExpr>(E);
      for (const Expr *A : C->getArgs())
        walkExpr(A, F);
      if (C->isBuiltin()) {
        if (C->getBuiltin() == Builtin::RtPrivPtr)
          F.UsesRtPriv = true;
      } else {
        F.Callees.insert(C->getCallee());
      }
      return;
    }
    case Expr::Kind::Cast:
      walkExpr(cast<CastExpr>(E)->getSub(), F);
      return;
    case Expr::Kind::Cond: {
      const auto *C = cast<CondExpr>(E);
      walkExpr(C->getCond(), F);
      walkExpr(C->getThen(), F);
      walkExpr(C->getElse(), F);
      return;
    }
    }
  }

  void walkStmt(const Stmt *S, FnFacts &F) {
    if (!S)
      return;
    switch (S->getKind()) {
    case Stmt::Kind::Block:
      for (const Stmt *Sub : cast<BlockStmt>(S)->getStmts())
        walkStmt(Sub, F);
      return;
    case Stmt::Kind::ExprStmt:
      walkExpr(cast<ExprStmt>(S)->getExpr(), F);
      return;
    case Stmt::Kind::Assign: {
      const auto *A = cast<AssignStmt>(S);
      walkExpr(A->getLHS(), F);
      walkExpr(A->getRHS(), F);
      return;
    }
    case Stmt::Kind::If: {
      const auto *I = cast<IfStmt>(S);
      walkExpr(I->getCond(), F);
      walkStmt(I->getThen(), F);
      walkStmt(I->getElse(), F);
      return;
    }
    case Stmt::Kind::While: {
      const auto *W = cast<WhileStmt>(S);
      walkExpr(W->getCond(), F);
      walkStmt(W->getBody(), F);
      return;
    }
    case Stmt::Kind::For: {
      const auto *FS = cast<ForStmt>(S);
      walkExpr(FS->getInit(), F);
      walkExpr(FS->getLimit(), F);
      walkExpr(FS->getStep(), F);
      // The loop body's own facts are recorded separately for its traits,
      // then folded into the enclosing context (an outer loop containing an
      // inner one inherits everything the inner body can do).
      FnFacts Body;
      walkStmt(FS->getBody(), Body);
      FnFacts &Slot = LoopDirect[FS->getLoopId()];
      Slot.mergeFrom(Body);
      Slot.Callees.insert(Body.Callees.begin(), Body.Callees.end());
      F.mergeFrom(Body);
      F.Callees.insert(Body.Callees.begin(), Body.Callees.end());
      return;
    }
    case Stmt::Kind::Return:
      walkExpr(cast<ReturnStmt>(S)->getValue(), F);
      return;
    case Stmt::Kind::Break:
    case Stmt::Kind::Continue:
      return;
    case Stmt::Kind::Ordered: {
      const auto *O = cast<OrderedStmt>(S);
      F.RegionIds.insert(O->getRegionId());
      walkStmt(O->getBody(), F);
      return;
    }
    }
  }

  /// Computes the transitive closure of every function's facts over its
  /// callees by monotone fixpoint (handles recursion cycles exactly).
  void close() {
    Closures = Summaries;
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (auto &[Fn, Facts] : Closures) {
        for (const Function *Callee : Facts.Callees) {
          auto It = Closures.find(Callee);
          if (It == Closures.end() || It->first == Fn)
            continue; // undefined callee traps at runtime; self is folded
          const FnFacts &CF = It->second;
          size_t Regions = Facts.RegionIds.size();
          size_t Callees = Facts.Callees.size();
          bool Tid = Facts.UsesTid, Rt = Facts.UsesRtPriv;
          Facts.mergeFrom(CF);
          Facts.Callees.insert(CF.Callees.begin(), CF.Callees.end());
          Changed |= Facts.RegionIds.size() != Regions ||
                     Facts.Callees.size() != Callees ||
                     Facts.UsesTid != Tid || Facts.UsesRtPriv != Rt;
        }
      }
    }
  }
};

} // namespace

ProgramContext::ProgramContext(Module &M, InterpOptions O)
    : M(M), Ctx(M.getTypes()), Opts(std::move(O)),
      RegisterVars(collectRegisterVars(M)) {
  if (Opts.Guard != GuardMode::Off) {
    for (const auto &GP : Opts.GuardPlans) {
      if (!GP || GP->empty())
        continue;
      GuardPlanOf[GP->LoopId] = GP.get();
      for (const auto &[Aid, Cls] : GP->PrivateClassOf)
        GuardAccessMap[Aid] = GuardAccess{GP->LoopId, Cls, false};
      for (const auto &[Aid, Cls] : GP->CommClassOf)
        GuardAccessMap[Aid] = GuardAccess{GP->LoopId, Cls, true};
    }
  }

  TraitsScanner Scan;
  for (Function *F : M.getFunctions()) {
    if (!F->isDefinition())
      continue;
    Layouts.emplace(F, computeFrameLayout(Ctx, F));
    FnFacts Facts;
    Scan.walkStmt(F->getBody(), Facts);
    Scan.Summaries[F] = std::move(Facts);
  }
  // Fold every loop body's direct callees through the call graph.
  Scan.close();
  for (auto &[LoopId, Direct] : Scan.LoopDirect) {
    FnFacts Folded = Direct;
    for (const Function *Callee : Direct.Callees) {
      auto It = Scan.Closures.find(Callee);
      if (It != Scan.Closures.end())
        Folded.mergeFrom(It->second);
    }
    LoopTraits T;
    T.UsesTid = Folded.UsesTid;
    T.UsesRtPriv = Folded.UsesRtPriv;
    T.RegionIds.assign(Folded.RegionIds.begin(), Folded.RegionIds.end());
    LoopTraitsOf.emplace(LoopId, std::move(T));
  }

  Mem.setByteBudget(Opts.Resilience.Budget.MaxBytes);
}

void ProgramContext::armDeadline() {
  uint64_t Ms = Opts.Resilience.Budget.DeadlineMs;
  DeadlineNs.store(Ms ? monotonicNowNs() + Ms * 1000000ull : 0,
                   std::memory_order_relaxed);
}

ProgramContext::~ProgramContext() = default;

const FrameLayout &ProgramContext::layoutOf(const Function *F) const {
  return Layouts.at(F);
}

void ProgramContext::resetGlobals() {
  for (uint64_t Addr : GlobalBlocks)
    Mem.deallocate(Addr);
  GlobalBlocks.clear();
  GlobalAddrById.assign(M.getNumVarDecls() + 1, 0);
  for (VarDecl *G : M.getGlobals()) {
    uint64_t Addr = Mem.allocate(Ctx.getLayout(G->getType()).Size,
                                 AllocKind::Global, G->getId());
    GlobalAddrById[G->getId()] = Addr;
    GlobalBlocks.push_back(Addr);
  }
}

ThreadPool *ProgramContext::loopPoolOrNull() {
  std::lock_guard<std::mutex> Lock(LoopPoolMu);
  if (!LoopPoolTried) {
    LoopPoolTried = true;
    FaultInjector *FI = Opts.Resilience.Faults.get();
    try {
      if (FI && FI->shouldFire(FaultInjector::Point::WorkerStartFail))
        throw std::system_error(
            std::make_error_code(std::errc::resource_unavailable_try_again),
            "injected worker-start failure");
      unsigned N = static_cast<unsigned>(std::max(1, Opts.NumThreads));
      LoopPool.reset(new ThreadPool(N));
    } catch (const std::system_error &E) {
      // std::thread creation failed. Stay serial for the rest of this run
      // (the failure is sticky; no retry storm) and say so exactly once.
      LoopPoolFailed = true;
      LoopPool.reset();
      if (DiagnosticEngine *D = Opts.Resilience.Diags) {
        Diagnostic Diag;
        Diag.Severity = DiagSeverity::Warning;
        Diag.Pass = "resilience";
        Diag.Message = std::string("worker pool unavailable (") + E.what() +
                       "); loops degrade to the simulated serial-order path";
        D->report(Diag);
      }
    }
  }
  return LoopPoolFailed ? nullptr : LoopPool.get();
}
