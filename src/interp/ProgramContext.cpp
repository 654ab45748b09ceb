//===- ProgramContext.cpp - Shared, per-program execution context ----------===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "interp/ProgramContext.h"

#include "ir/AccessInfo.h"
#include "ir/IRVisitor.h"
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
  std::set<unsigned> LoopIds;
  std::set<const Function *> Callees;

  void mergeFrom(const FnFacts &O) {
    UsesTid |= O.UsesTid;
    UsesRtPriv |= O.UsesRtPriv;
    RegionIds.insert(O.RegionIds.begin(), O.RegionIds.end());
    LoopIds.insert(O.LoopIds.begin(), O.LoopIds.end());
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
      // Expansion's copy indices only select a private copy; the runner may
      // substitute its worker index (see ThreadIdExpr).
      if (!cast<ThreadIdExpr>(E)->isSynthesized())
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
      F.LoopIds.insert(W->getLoopId());
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
      F.LoopIds.insert(FS->getLoopId());
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
          size_t Loops = Facts.LoopIds.size();
          size_t Callees = Facts.Callees.size();
          bool Tid = Facts.UsesTid, Rt = Facts.UsesRtPriv;
          Facts.mergeFrom(CF);
          Facts.Callees.insert(CF.Callees.begin(), CF.Callees.end());
          Changed |= Facts.RegionIds.size() != Regions ||
                     Facts.LoopIds.size() != Loops ||
                     Facts.Callees.size() != Callees ||
                     Facts.UsesTid != Tid || Facts.UsesRtPriv != Rt;
        }
      }
    }
  }
};

/// The DOACROSS frame-slot gate. Host-threaded workers run on private copies
/// of the enclosing frame, and the join merges those copies byte-wise, which
/// is exact only when no value flows through a frame slot from one iteration
/// to another or out of the loop. The scan finds, for one loop body:
///  - the local and parameter slots it writes directly (inner induction
///    variables included; the loop's own IV is the runner's to manage);
///  - the slots it may read before writing them on some path through one
///    iteration (a must-define walk over the structured body);
///  - whether it takes the address of a local or writes an element of a
///    frame-local aggregate, either of which lets a write reach the frame
///    copy behind the gate's back.
class FrameSlotScan {
public:
  std::set<const VarDecl *> Written, Exposed;
  bool Escapes = false;

  explicit FrameSlotScan(const VarDecl *IV) : IV(IV) {}

  void walkStmt(const Stmt *S, std::set<const VarDecl *> &Def) {
    if (!S)
      return;
    switch (S->getKind()) {
    case Stmt::Kind::Block:
      for (const Stmt *Sub : cast<BlockStmt>(S)->getStmts())
        walkStmt(Sub, Def);
      return;
    case Stmt::Kind::ExprStmt:
      walkExpr(cast<ExprStmt>(S)->getExpr(), Def);
      return;
    case Stmt::Kind::Assign: {
      const auto *A = cast<AssignStmt>(S);
      walkExpr(A->getRHS(), Def);
      if (const VarDecl *D = slotOf(A->getLHS())) {
        write(D, Def);
        return;
      }
      if (frameRoot(A->getLHS()))
        Escapes = true; // element of a frame-local aggregate
      walkLoc(A->getLHS(), Def);
      return;
    }
    case Stmt::Kind::If: {
      const auto *I = cast<IfStmt>(S);
      walkExpr(I->getCond(), Def);
      std::set<const VarDecl *> Then = Def, Else = Def;
      walkStmt(I->getThen(), Then);
      walkStmt(I->getElse(), Else);
      for (const VarDecl *D : Then)
        if (Else.count(D))
          Def.insert(D);
      return;
    }
    case Stmt::Kind::While: {
      const auto *W = cast<WhileStmt>(S);
      walkExpr(W->getCond(), Def);
      std::set<const VarDecl *> Body = Def; // may run zero times
      walkStmt(W->getBody(), Body);
      return;
    }
    case Stmt::Kind::For: {
      const auto *FS = cast<ForStmt>(S);
      walkExpr(FS->getInit(), Def);
      walkExpr(FS->getLimit(), Def);
      walkExpr(FS->getStep(), Def);
      // The driver stores the IV only when an iteration runs.
      std::set<const VarDecl *> Body = Def;
      if (isSlot(FS->getInductionVar()))
        write(FS->getInductionVar(), Body);
      walkStmt(FS->getBody(), Body);
      return;
    }
    case Stmt::Kind::Return:
      walkExpr(cast<ReturnStmt>(S)->getValue(), Def);
      return;
    case Stmt::Kind::Break:
    case Stmt::Kind::Continue:
      return;
    case Stmt::Kind::Ordered:
      walkStmt(cast<OrderedStmt>(S)->getBody(), Def);
      return;
    }
  }

private:
  const VarDecl *IV;

  static bool isSlot(const VarDecl *D) { return D->isLocal() || D->isParam(); }

  static const VarDecl *slotOf(const Expr *Loc) {
    const auto *R = dyn_cast<VarRefExpr>(Loc);
    return R && isSlot(R->getDecl()) ? R->getDecl() : nullptr;
  }

  /// The frame slot whose storage \p Loc names part of (an element or field
  /// of a local aggregate), or null when \p Loc goes through a pointer.
  static const VarDecl *frameRoot(const Expr *Loc) {
    for (;;) {
      if (const auto *FA = dyn_cast<FieldAccessExpr>(Loc)) {
        Loc = FA->getBase();
      } else if (const auto *AI = dyn_cast<ArrayIndexExpr>(Loc)) {
        const auto *D = dyn_cast<DecayExpr>(AI->getBase());
        if (!D)
          return nullptr;
        Loc = D->getArrayLocation();
      } else {
        return slotOf(Loc);
      }
    }
  }

  void write(const VarDecl *D, std::set<const VarDecl *> &Def) {
    if (D != IV)
      Written.insert(D);
    Def.insert(D);
  }

  /// The sub-expressions a location evaluates (indices, pointers), without
  /// counting the location itself as a read or its decayed base as an
  /// escaping address.
  void walkLoc(const Expr *Loc, std::set<const VarDecl *> &Def) {
    if (const auto *FA = dyn_cast<FieldAccessExpr>(Loc)) {
      walkLoc(FA->getBase(), Def);
    } else if (const auto *AI = dyn_cast<ArrayIndexExpr>(Loc)) {
      if (const auto *D = dyn_cast<DecayExpr>(AI->getBase()))
        walkLoc(D->getArrayLocation(), Def);
      else
        walkExpr(AI->getBase(), Def);
      walkExpr(AI->getIndex(), Def);
    } else if (const auto *DE = dyn_cast<DerefExpr>(Loc)) {
      walkExpr(DE->getPtr(), Def);
    }
  }

  void walkExpr(const Expr *E, std::set<const VarDecl *> &Def) {
    if (!E)
      return;
    switch (E->getKind()) {
    case Expr::Kind::Load: {
      const Expr *Loc = cast<LoadExpr>(E)->getLocation();
      if (const VarDecl *D = slotOf(Loc)) {
        if (!Def.count(D))
          Exposed.insert(D);
        return;
      }
      walkLoc(Loc, Def);
      return;
    }
    case Expr::Kind::AddrOf:
    case Expr::Kind::Decay: {
      const Expr *Loc = isa<AddrOfExpr>(E)
                            ? cast<AddrOfExpr>(E)->getLocation()
                            : cast<DecayExpr>(E)->getArrayLocation();
      if (frameRoot(Loc))
        Escapes = true;
      walkLoc(Loc, Def);
      return;
    }
    case Expr::Kind::VarRef:
    case Expr::Kind::Deref:
    case Expr::Kind::ArrayIndex:
    case Expr::Kind::FieldAccess:
      walkLoc(E, Def); // a bare location: only its sub-expressions run
      return;
    case Expr::Kind::Unary:
      walkExpr(cast<UnaryExpr>(E)->getSub(), Def);
      return;
    case Expr::Kind::Binary:
      walkExpr(cast<BinaryExpr>(E)->getLHS(), Def);
      walkExpr(cast<BinaryExpr>(E)->getRHS(), Def);
      return;
    case Expr::Kind::Call:
      for (const Expr *A : cast<CallExpr>(E)->getArgs())
        walkExpr(A, Def);
      return;
    case Expr::Kind::Cast:
      walkExpr(cast<CastExpr>(E)->getSub(), Def);
      return;
    case Expr::Kind::Cond: {
      const auto *C = cast<CondExpr>(E);
      walkExpr(C->getCond(), Def);
      walkExpr(C->getThen(), Def);
      walkExpr(C->getElse(), Def);
      return;
    }
    case Expr::Kind::IntLit:
    case Expr::Kind::FloatLit:
    case Expr::Kind::SizeofType:
    case Expr::Kind::ThreadId:
    case Expr::Kind::NumThreads:
      return;
    }
  }
};

/// Counts the references to each variable in a statement tree, skipping
/// one sub-tree (the loop body whose outside is being asked about).
void countRefs(Stmt *S, const Stmt *Skip,
               std::map<const VarDecl *, unsigned> &Refs) {
  if (S == Skip)
    return;
  if (auto *FS = dyn_cast<ForStmt>(S))
    ++Refs[FS->getInductionVar()];
  forEachTopLevelExpr(S, [&](Expr *E) {
    walkExpr(E, [&](Expr *Sub) {
      if (auto *R = dyn_cast<VarRefExpr>(Sub))
        ++Refs[R->getDecl()];
    });
  });
  forEachChildStmt(S, [&](Stmt *C) { countRefs(C, Skip, Refs); });
}

/// True when DOACROSS loop \p FS of \p F may carry a value through the
/// enclosing frame (see FrameSlotScan): it escapes a frame address, or it
/// writes a slot that it reads before writing or that the function uses
/// outside the loop.
bool carriesFrameSlot(Function *F, ForStmt *FS) {
  FrameSlotScan Scan(FS->getInductionVar());
  std::set<const VarDecl *> Def;
  Scan.walkStmt(FS->getBody(), Def);
  if (Scan.Escapes)
    return true;
  if (Scan.Written.empty())
    return false;
  std::map<const VarDecl *, unsigned> Outside;
  countRefs(F->getBody(), FS->getBody(), Outside);
  for (const VarDecl *D : Scan.Written)
    if (Scan.Exposed.count(D) || Outside.count(D))
      return true;
  return false;
}

} // namespace

ProgramContext::ProgramContext(Module &M, InterpOptions O)
    : M(M), Ctx(M.getTypes()), Opts(std::move(O)),
      RegisterVars(collectRegisterVars(M)) {
  // Guard shadows store thread ids as int8, so guarding is skipped outright
  // beyond 127 threads (no such configuration exists in practice).
  if (Opts.Guard != GuardMode::Off && Opts.NumThreads <= 127) {
    for (const auto &GP : Opts.GuardPlans) {
      if (!GP || GP->empty())
        continue;
      GuardPlanOf[GP->LoopId] = GP.get();
      auto claim = [&](uint32_t Aid, unsigned Cls, bool Comm) {
        if (Aid >= GuardAccessById.size())
          GuardAccessById.resize(Aid + 1);
        GuardAccessById[Aid] = GuardAccess{GP->LoopId, Cls, Comm};
      };
      for (const auto &[Aid, Cls] : GP->PrivateClassOf)
        claim(Aid, Cls, false);
      for (const auto &[Aid, Cls] : GP->CommClassOf)
        claim(Aid, Cls, true);
    }
  }

  TraitsScanner Scan;
  std::set<unsigned> FrameCarriers;
  for (Function *F : M.getFunctions()) {
    if (!F->isDefinition())
      continue;
    Layouts.emplace(F, computeFrameLayout(Ctx, F));
    FnFacts Facts;
    Scan.walkStmt(F->getBody(), Facts);
    Scan.Summaries[F] = std::move(Facts);
    walkStmts(F->getBody(), [&](Stmt *S) {
      auto *FS = dyn_cast<ForStmt>(S);
      if (FS && FS->getParallelKind() == ParallelKind::DOACROSS &&
          carriesFrameSlot(F, FS))
        FrameCarriers.insert(FS->getLoopId());
    });
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
    T.CarriesFrameSlot = FrameCarriers.count(LoopId) != 0;
    T.RegionIds.assign(Folded.RegionIds.begin(), Folded.RegionIds.end());
    T.InnerLoopIds.assign(Folded.LoopIds.begin(), Folded.LoopIds.end());
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
