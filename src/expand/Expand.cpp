//===- Expand.cpp - Type expansion x N and access redirection --------------===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// Implements §3.1 (Table 1) and §3.3 (Table 2):
//  - expanded heap allocation sites multiply their byte size by N (a runtime
//    value: the __nthreads expression);
//  - expanded locals and globals are converted to heap-backed blocks of N
//    adjacent copies: `T v` becomes `T* v$x = malloc(sizeof(T)*N)` with
//    direct accesses indexing copy tid (private) or copy 0 (shared). Local
//    backings are freed on every return of the owning function; global
//    backings are allocated at main() entry (the paper's global-to-heap
//    conversion);
//  - accesses are redirected: VarRef roots index the converted backing,
//    pointer-based roots (deref / subscripts) offset the base pointer by
//    tid*span/sizeof(*p) in bonded mode, or rescale the subscript to
//    i*N + tid in interleaved mode (which rejects recast structures and
//    mid-structure dereferences — exactly the limitations that made the
//    paper prefer bonded layout).
//
//===----------------------------------------------------------------------===//

#include "expand/ExpansionImpl.h"

#include "ir/IRClone.h"
#include "ir/IRPrinter.h"
#include "ir/IRVisitor.h"
#include "support/Support.h"

using namespace gdse;

namespace {

constexpr unsigned FatPointerField = 0;

class RedirectRewriter : public IRRewriter {
public:
  RedirectRewriter(ExpansionContext &Cx) : IRRewriter(Cx.M), Cx(Cx) {}

  /// Runs on one function; global backing pointers referenced by redirected
  /// accesses are hoisted into a register-like local alias (what LICM /
  /// load-PRE does to the loop-invariant load in compiled code). \p Prepend
  /// is the number of statements the conversion already inserted at the top
  /// of the body (alias initializers go right after them).
  void runOnFunction(Function *F, unsigned Prepend) {
    CurFn = F;
    AliasInits.clear();
    run(F);
    if (!AliasInits.empty() && F->getBody()) {
      auto &Stmts = F->getBody()->getStmts();
      Stmts.insert(Stmts.begin() + std::min<size_t>(Prepend, Stmts.size()),
                   AliasInits.begin(), AliasInits.end());
    }
  }

protected:
  Expr *transformExpr(Expr *E) override {
    switch (E->getKind()) {
    case Expr::Kind::Load: {
      auto *L = cast<LoadExpr>(E);
      const AccessPlan *Plan = planOf(L->getAccessId());
      if (Plan && Plan->Redirect) {
        L->setLocation(redirectLValue(L->getLocation(), *Plan));
        ++(Plan->Private ? Cx.Result.Stats.PrivateAccessesRedirected
                         : Cx.Result.Stats.SharedAccessesRedirected);
      }
      return L;
    }
    case Expr::Kind::AddrOf: {
      // Address computations always yield the canonical (copy 0) address;
      // redirection happens at access time (Table 2's model).
      auto *A = cast<AddrOfExpr>(E);
      A->setLocation(sharedLValue(A->getLocation()));
      return A;
    }
    case Expr::Kind::Decay: {
      auto *D = cast<DecayExpr>(E);
      D->setArrayLocation(sharedLValue(D->getArrayLocation()));
      return D;
    }
    default:
      return E;
    }
  }

  Stmt *transformStmt(Stmt *S) override {
    auto *A = dyn_cast<AssignStmt>(S);
    if (!A)
      return S;
    const AccessPlan *Plan = planOf(A->getAccessId());
    if (Plan && Plan->Redirect) {
      A->setLHS(redirectLValue(A->getLHS(), *Plan));
      ++(Plan->Private ? Cx.Result.Stats.PrivateAccessesRedirected
                       : Cx.Result.Stats.SharedAccessesRedirected);
    }
    return S;
  }

private:
  const AccessPlan *planOf(AccessId Id) const {
    if (Id == InvalidAccessId)
      return nullptr;
    auto It = Cx.Plans.find(Id);
    return It == Cx.Plans.end() ? nullptr : &*&It->second;
  }

  /// Copy index expression for a plan: tid (int) or 0.
  Expr *copyIndex(bool Private) {
    return Private ? static_cast<Expr *>(Cx.B.threadId(/*Synthesized=*/true))
                   : static_cast<Expr *>(Cx.B.intLit(0));
  }

  /// Load of the backing pointer; global backings go through a per-function
  /// local alias so the load stays in a register.
  Expr *backingLoad(VarDecl *Backing) {
    if (!Backing->isGlobal() || !CurFn || !CurFn->getBody())
      return Cx.B.loadVar(Backing);
    VarDecl *&AliasVar = Alias[CurFn][Backing];
    if (!AliasVar) {
      AliasVar = Cx.M.createVar(Backing->getName() + "$l", Backing->getType(),
                                VarDecl::Storage::Local);
      CurFn->addLocal(AliasVar);
      Cx.StableBases.insert(AliasVar);
      AliasInits.push_back(Cx.M.create<AssignStmt>(
          Cx.B.varRef(AliasVar), Cx.B.loadVar(Backing)));
    }
    return Cx.B.loadVar(AliasVar);
  }

  /// Rewrites an l-value whose root was already generically rewritten, but
  /// whose redirection index must be the shared copy (AddrOf/Decay bases).
  Expr *sharedLValue(Expr *LV) {
    AccessPlan SharedPlan;
    SharedPlan.Redirect = true;
    SharedPlan.Private = false;
    SharedPlan.ConstSpan = -1;
    return redirectRootIfExpanded(LV, SharedPlan);
  }

  /// Redirects only when the l-value actually touches an expanded variable
  /// root (used for address computations, which carry no access plan).
  Expr *redirectRootIfExpanded(Expr *LV, const AccessPlan &Plan) {
    switch (LV->getKind()) {
    case Expr::Kind::VarRef: {
      auto *V = cast<VarRefExpr>(LV);
      auto It = Cx.ConvertedBacking.find(V->getDecl());
      if (It == Cx.ConvertedBacking.end())
        return LV;
      return Cx.B.index(backingLoad(It->second), copyIndex(Plan.Private));
    }
    case Expr::Kind::FieldAccess: {
      auto *F = cast<FieldAccessExpr>(LV);
      F->setBase(redirectRootIfExpanded(F->getBase(), Plan));
      return F;
    }
    default:
      // Pointer-based roots need no rewriting for the shared copy (the
      // base address is copy 0 already).
      return LV;
    }
  }

  /// Full Table 2 redirection of an access l-value.
  Expr *redirectLValue(Expr *LV, const AccessPlan &Plan) {
    switch (LV->getKind()) {
    case Expr::Kind::VarRef: {
      auto *V = cast<VarRefExpr>(LV);
      auto It = Cx.ConvertedBacking.find(V->getDecl());
      if (It == Cx.ConvertedBacking.end()) {
        Cx.error("access to expanded variable '" + V->getDecl()->getName() +
                 "' has no converted backing");
        return LV;
      }
      return Cx.B.index(backingLoad(It->second), copyIndex(Plan.Private));
    }
    case Expr::Kind::FieldAccess: {
      auto *F = cast<FieldAccessExpr>(LV);
      F->setBase(redirectLValue(F->getBase(), Plan));
      return F;
    }
    case Expr::Kind::Deref: {
      auto *D = cast<DerefExpr>(LV);
      if (Cx.Opts.Layout == LayoutMode::Interleaved) {
        Cx.error("interleaved layout cannot redirect a pointer dereference "
                 "(mid-structure position is unknown at compile time)");
        return LV;
      }
      if (Plan.Private)
        D->setPtr(adjustBase(D->getPtr(), Plan));
      return D;
    }
    case Expr::Kind::ArrayIndex: {
      auto *A = cast<ArrayIndexExpr>(LV);
      if (Cx.Opts.Layout == LayoutMode::Interleaved)
        return interleavedIndex(A, Plan);
      if (Plan.Private)
        A->setBase(adjustBase(A->getBase(), Plan));
      return A;
    }
    default:
      Cx.error("cannot redirect l-value: " + printExpr(LV));
      return LV;
    }
  }

  /// Bonded mode: base + tid * span / sizeof(*base).
  Expr *adjustBase(Expr *Base, const AccessPlan &Plan) {
    auto *PT = cast<PointerType>(Base->getType());
    int64_t ElemSize =
        static_cast<int64_t>(Cx.types().getLayout(PT->getPointee()).Size);
    Expr *Span = Cx.spanExprForValue(Base, Plan.ConstSpan);
    if (!Span) {
      Cx.error("cannot derive the span of a privatized access base; promote "
               "the pointer or make the allocation size a constant");
      return Base;
    }
    Expr *ElemOffset;
    auto *Lit = dyn_cast<IntLitExpr>(Span);
    if (Lit && Cx.Opts.SpanConstantPropagation) {
      // Constant-folded: tid * (span/elem) (span constant propagation). The
      // unoptimized configuration keeps the literal Table 2 form with the
      // runtime division.
      ElemOffset = Cx.B.mul(
          Cx.B.convert(Cx.B.threadId(/*Synthesized=*/true),
                       Cx.types().getInt64()),
          Cx.B.longLit(Lit->getValue() / ElemSize));
    } else {
      ElemOffset = Cx.B.mul(
          Cx.B.convert(Cx.B.threadId(/*Synthesized=*/true),
                       Cx.types().getInt64()),
          Cx.B.div(Span, Cx.B.longLit(ElemSize)));
    }
    return Cx.B.add(Base, ElemOffset);
  }

  /// Interleaved mode: a[i] -> a[i*N + idx] (primitive elements only).
  Expr *interleavedIndex(ArrayIndexExpr *A, const AccessPlan &Plan) {
    if (!A->getType()->isScalar() && !A->getType()->isPointer()) {
      Cx.error("interleaved layout requires primitive array elements");
      return A;
    }
    Expr *I64 = Cx.B.convert(A->getIndex(), Cx.types().getInt64());
    Expr *Scaled =
        Cx.B.mul(I64, Cx.B.convert(Cx.B.numThreads(), Cx.types().getInt64()));
    Expr *NewIdx =
        Cx.B.add(Scaled, Cx.B.convert(copyIndex(Plan.Private),
                                      Cx.types().getInt64()));
    A->setIndex(NewIdx);
    return A;
  }

  ExpansionContext &Cx;
  Function *CurFn = nullptr;
  std::map<Function *, std::map<VarDecl *, VarDecl *>> Alias;
  std::vector<Stmt *> AliasInits;
};

} // namespace

void ExpansionContext::runExpansionAndRedirection() {
  TypeContext &Ctx = types();
  Type *I64 = Ctx.getInt64();

  // --- Table 1, heap rule: multiply expanded allocation sites by N. ------
  for (CallExpr *C : ExpandedSites) {
    BackingSiteIds.insert(C->getSiteId());
    Expr *N = B.convert(B.numThreads(), I64);
    switch (C->getBuiltin()) {
    case Builtin::MallocFn:
      C->setArg(0, B.mul(C->getArg(0), N));
      break;
    case Builtin::CallocFn:
      C->setArg(0, B.mul(C->getArg(0), N));
      break;
    case Builtin::ReallocFn:
      C->setArg(1, B.mul(C->getArg(1), N));
      break;
    default:
      error("expanded allocation site is not an allocation builtin");
      return;
    }
  }

  // --- Table 1, local/global rules: convert to heap-backed N copies. -----
  std::map<Function *, std::vector<VarDecl *>> LocalBackingsOf;
  std::map<Function *, unsigned> PrependCount;
  Function *Main = M.getFunction("main");

  // Map each local to its owning function once.
  std::map<VarDecl *, Function *> OwnerOf;
  for (Function *F : M.getFunctions())
    for (VarDecl *L : F->getLocals())
      OwnerOf[L] = F;

  for (VarDecl *V : ExpandedVars) {
    Type *CopyTy = V->getType(); // already translated by promotion
    Type *PtrTy = Ctx.getPointerType(CopyTy);
    Expr *Size = B.mul(B.sizeofType(CopyTy), B.convert(B.numThreads(), I64));

    if (V->isGlobal()) {
      if (!Main || !Main->getBody()) {
        error("cannot expand global '" + V->getName() +
              "' without a main() to host its allocation");
        return;
      }
      VarDecl *Backing = M.addGlobal(V->getName() + "$x", PtrTy);
      ConvertedBacking[V] = Backing;
      Expr *AllocCall = B.callBuiltin(Builtin::MallocFn, {Size}, PtrTy);
      BackingSiteIds.insert(cast<CallExpr>(AllocCall)->getSiteId());
      BackingVarOf[cast<CallExpr>(AllocCall)->getSiteId()] = V;
      auto *Alloc = M.create<AssignStmt>(B.varRef(Backing), AllocCall);
      auto &Stmts = Main->getBody()->getStmts();
      Stmts.insert(Stmts.begin(), Alloc);
      ++PrependCount[Main];
      M.removeGlobal(V);
      continue;
    }
    if (V->isParam()) {
      error("cannot expand parameter storage '" + V->getName() + "'");
      return;
    }
    Function *Owner = OwnerOf.count(V) ? OwnerOf[V] : nullptr;
    if (!Owner || !Owner->getBody()) {
      error("expanded local '" + V->getName() + "' has no owning function");
      return;
    }
    VarDecl *Backing =
        M.createVar(V->getName() + "$x", PtrTy, VarDecl::Storage::Local);
    Owner->addLocal(Backing);
    StableBases.insert(Backing);
    ConvertedBacking[V] = Backing;
    Expr *AllocCall = B.callBuiltin(Builtin::MallocFn, {Size}, PtrTy);
    BackingSiteIds.insert(cast<CallExpr>(AllocCall)->getSiteId());
    BackingVarOf[cast<CallExpr>(AllocCall)->getSiteId()] = V;
    auto *Alloc = M.create<AssignStmt>(B.varRef(Backing), AllocCall);
    auto &Stmts = Owner->getBody()->getStmts();
    Stmts.insert(Stmts.begin(), Alloc);
    ++PrependCount[Owner];
    LocalBackingsOf[Owner].push_back(Backing);
  }

  Result.Stats.ExpandedObjects =
      static_cast<unsigned>(ExpandedVars.size() + ExpandedSites.size());

  // --- Free local backings on every return of the owning function. -------
  for (auto &[F, Backings] : LocalBackingsOf) {
    class ReturnFreeRewriter : public IRRewriter {
    public:
      ReturnFreeRewriter(ExpansionContext &Cx, Function *F,
                         const std::vector<VarDecl *> &Backings)
          : IRRewriter(Cx.M), Cx(Cx), F(F), Backings(Backings) {}

    protected:
      Stmt *transformStmt(Stmt *S) override {
        auto *R = dyn_cast<ReturnStmt>(S);
        if (!R)
          return S;
        std::vector<Stmt *> Seq;
        Expr *RetVal = nullptr;
        if (R->getValue()) {
          // Evaluate the return value before releasing the backings.
          VarDecl *Tmp = Cx.M.createVar("ret$tmp", R->getValue()->getType(),
                                        VarDecl::Storage::Local);
          F->addLocal(Tmp);
          Seq.push_back(Cx.M.create<AssignStmt>(Cx.B.varRef(Tmp),
                                                R->getValue()));
          RetVal = Cx.B.loadVar(Tmp);
        }
        for (VarDecl *Backing : Backings)
          Seq.push_back(Cx.B.exprStmt(
              Cx.B.callBuiltin(Builtin::FreeFn, {Cx.B.loadVar(Backing)},
                               Cx.types().getVoidType())));
        Seq.push_back(Cx.M.create<ReturnStmt>(RetVal));
        return Cx.B.block(std::move(Seq));
      }

    private:
      ExpansionContext &Cx;
      Function *F;
      const std::vector<VarDecl *> &Backings;
    };
    ReturnFreeRewriter(*this, F, Backings).run(F);
  }

  if (failed())
    return;

  // --- Table 2: redirect accesses. ---------------------------------------
  RedirectRewriter RW(*this);
  for (Function *F : M.getFunctions()) {
    auto It = PrependCount.find(F);
    RW.runOnFunction(F, It == PrependCount.end() ? 0 : It->second);
  }

  hoistRedirectionBases();
}

/// Stand-in for the loop-invariant code motion a compiling backend performs
/// on the redirected code (the paper relies on GCC -O2 here): within one
/// iteration of the target loop, tid is fixed, so the per-thread copy
/// addresses of converted structures are iteration-invariant. Two shapes are
/// hoisted to the top of the loop body and reused through register-like
/// pointer locals:
///   A. v$x[tid]                 (converted scalar/record access root)
///   B. base + (long)tid * K     (converted array access base, K constant)
void ExpansionContext::hoistRedirectionBases() {
  if (!TargetLoop || !LoopFunction || !LoopFunction->getBody())
    return;

  class Hoister : public IRRewriter {
  public:
    Hoister(ExpansionContext &Cx) : IRRewriter(Cx.M), Cx(Cx) {}
    std::vector<Stmt *> Inits;

  protected:
    Expr *transformExpr(Expr *E) override {
      // Pattern A: ArrayIndex(Load(VarRef stable), tid).
      if (auto *A = dyn_cast<ArrayIndexExpr>(E)) {
        if (isa<ThreadIdExpr>(A->getIndex())) {
          if (VarDecl *X = stableLoadVar(A->getBase())) {
            VarDecl *P = cached("A:" + X->getName(),
                                Cx.types().getPointerType(A->getType()),
                                [&] { return Cx.B.addrOf(cloneLV(A)); });
            return Cx.B.deref(Cx.B.loadVar(P));
          }
        }
        return E;
      }
      // Pattern B: Add(stable-base, Mul(Cast(tid), IntLit)).
      if (auto *Bin = dyn_cast<BinaryExpr>(E)) {
        if (Bin->getOp() == BinaryOp::Add && Bin->getType()->isPointer() &&
            isStableBase(Bin->getLHS()) && isTidTimesConst(Bin->getRHS())) {
          std::string Key = "B:" + printExpr(Bin);
          VarDecl *P = cached(Key, Bin->getType(), [&] {
            return cloneExpr(Cx.M, Bin);
          });
          return Cx.B.loadVar(P);
        }
      }
      return E;
    }

  private:
    Expr *cloneLV(Expr *E) { return cloneExpr(Cx.M, E); }

    VarDecl *stableLoadVar(const Expr *E) const {
      const auto *L = dyn_cast<LoadExpr>(E);
      if (!L)
        return nullptr;
      const auto *V = dyn_cast<VarRefExpr>(L->getLocation());
      if (!V || !Cx.StableBases.count(V->getDecl()))
        return nullptr;
      return V->getDecl();
    }

    bool isStableBase(const Expr *E) const {
      if (stableLoadVar(E))
        return true;
      if (const auto *D = dyn_cast<DecayExpr>(E)) {
        const auto *A = dyn_cast<ArrayIndexExpr>(D->getArrayLocation());
        return A && isa<IntLitExpr>(A->getIndex()) &&
               stableLoadVar(A->getBase());
      }
      return false;
    }

    static bool isTidTimesConst(const Expr *E) {
      const auto *M = dyn_cast<BinaryExpr>(E);
      if (!M || M->getOp() != BinaryOp::Mul)
        return false;
      const Expr *L = M->getLHS();
      if (const auto *C = dyn_cast<CastExpr>(L))
        L = C->getSub();
      return isa<ThreadIdExpr>(L) && isa<IntLitExpr>(M->getRHS());
    }

    VarDecl *cached(const std::string &Key, Type *Ty,
                    const std::function<Expr *()> &Init) {
      auto It = Cache.find(Key);
      if (It != Cache.end())
        return It->second;
      VarDecl *P = Cx.M.createVar(formatString("hoist$%zu", Cache.size()), Ty,
                                  VarDecl::Storage::Local);
      Cx.LoopFunction->addLocal(P);
      Inits.push_back(Cx.M.create<AssignStmt>(Cx.B.varRef(P), Init()));
      Cache[Key] = P;
      return P;
    }

    ExpansionContext &Cx;
    std::map<std::string, VarDecl *> Cache;
  };

  Hoister H(*this);
  Stmt *NewBody = H.rewriteStmt(TargetLoop->getBody());
  auto *Body = cast<BlockStmt>(NewBody);
  Body->getStmts().insert(Body->getStmts().begin(), H.Inits.begin(),
                          H.Inits.end());
  TargetLoop->setBody(Body);
}
