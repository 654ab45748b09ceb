//===- RtPrivPass.cpp - SpiceC-style runtime privatization -----------------===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "rtpriv/RtPrivPass.h"

#include "ir/IRBuilder.h"
#include "ir/IRVisitor.h"
#include "ir/Verifier.h"

using namespace gdse;

namespace {

class RtPrivRewriter : public IRRewriter {
public:
  RtPrivRewriter(Module &M, const std::set<AccessId> &Private,
                 RtPrivResult &Result)
      : IRRewriter(M), B(M), Private(Private), Result(Result) {}

protected:
  Expr *transformExpr(Expr *E) override {
    auto *L = dyn_cast<LoadExpr>(E);
    if (!L || !Private.count(L->getAccessId()))
      return E;
    L->setLocation(wrap(L->getLocation()));
    ++Result.AccessesWrapped;
    return L;
  }

  Stmt *transformStmt(Stmt *S) override {
    auto *A = dyn_cast<AssignStmt>(S);
    if (!A || !Private.count(A->getAccessId()))
      return S;
    A->setLHS(wrap(A->getLHS()));
    ++Result.AccessesWrapped;
    return S;
  }

private:
  /// LV -> *(rtpriv_ptr(&LV, 0)).
  Expr *wrap(Expr *LV) {
    Expr *Addr = B.addrOf(LV);
    Expr *Translated = B.callBuiltin(
        Builtin::RtPrivPtr,
        {Addr, B.longLit(0)}, Addr->getType());
    return B.deref(Translated);
  }

  IRBuilder B;
  const std::set<AccessId> &Private;
  RtPrivResult &Result;
};

} // namespace

RtPrivResult gdse::applyRuntimePrivatization(Module &M,
                                             const std::set<AccessId> &Private,
                                             DiagnosticEngine &DE,
                                             unsigned LoopId) {
  RtPrivResult Result;
  RtPrivRewriter RW(M, Private, Result);
  for (Function *F : M.getFunctions())
    RW.run(F);
  std::vector<std::string> Errs = verifyModule(M);
  DiagnosticScope Scope(DE, "rtpriv", LoopId);
  for (const std::string &E : Errs)
    DE.error("post-rtpriv verification: " + E);
  Result.Ok = Errs.empty();
  return Result;
}
