//===- IRClone.cpp - Deep copies of IR trees -------------------------------===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "ir/IRClone.h"

#include "support/Support.h"

using namespace gdse;

Expr *gdse::cloneExpr(Module &M, const Expr *E) {
  switch (E->getKind()) {
  case Expr::Kind::IntLit: {
    const auto *I = cast<IntLitExpr>(E);
    return M.create<IntLitExpr>(I->getValue(), I->getType());
  }
  case Expr::Kind::FloatLit: {
    const auto *F = cast<FloatLitExpr>(E);
    return M.create<FloatLitExpr>(F->getValue(), F->getType());
  }
  case Expr::Kind::VarRef:
    return M.create<VarRefExpr>(cast<VarRefExpr>(E)->getDecl());
  case Expr::Kind::Load: {
    auto *NewL =
        M.create<LoadExpr>(cloneExpr(M, cast<LoadExpr>(E)->getLocation()));
    // Clones share the original's access id (and with it any per-access
    // transformation plan); renumber when distinct identities are needed.
    NewL->setAccessId(cast<LoadExpr>(E)->getAccessId());
    return NewL;
  }
  case Expr::Kind::Unary: {
    const auto *U = cast<UnaryExpr>(E);
    return M.create<UnaryExpr>(U->getOp(), cloneExpr(M, U->getSub()),
                               U->getType());
  }
  case Expr::Kind::Binary: {
    const auto *B = cast<BinaryExpr>(E);
    return M.create<BinaryExpr>(B->getOp(), cloneExpr(M, B->getLHS()),
                                cloneExpr(M, B->getRHS()), B->getType());
  }
  case Expr::Kind::ArrayIndex: {
    const auto *A = cast<ArrayIndexExpr>(E);
    return M.create<ArrayIndexExpr>(cloneExpr(M, A->getBase()),
                                    cloneExpr(M, A->getIndex()), A->getType());
  }
  case Expr::Kind::FieldAccess: {
    const auto *F = cast<FieldAccessExpr>(E);
    return M.create<FieldAccessExpr>(cloneExpr(M, F->getBase()),
                                     F->getFieldIndex(), F->getType());
  }
  case Expr::Kind::Deref: {
    const auto *D = cast<DerefExpr>(E);
    return M.create<DerefExpr>(cloneExpr(M, D->getPtr()), D->getType());
  }
  case Expr::Kind::AddrOf: {
    const auto *A = cast<AddrOfExpr>(E);
    return M.create<AddrOfExpr>(cloneExpr(M, A->getLocation()), A->getType());
  }
  case Expr::Kind::Decay: {
    const auto *D = cast<DecayExpr>(E);
    return M.create<DecayExpr>(cloneExpr(M, D->getArrayLocation()),
                               D->getType());
  }
  case Expr::Kind::Call: {
    const auto *C = cast<CallExpr>(E);
    std::vector<Expr *> Args;
    Args.reserve(C->getNumArgs());
    for (Expr *A : C->getArgs())
      Args.push_back(cloneExpr(M, A));
    CallExpr *NewC =
        C->isBuiltin()
            ? M.create<CallExpr>(C->getBuiltin(), std::move(Args), C->getType())
            : M.create<CallExpr>(C->getCallee(), std::move(Args), C->getType());
    // A cloned call is a new allocation site.
    NewC->setSiteId(M.nextCallSiteId());
    return NewC;
  }
  case Expr::Kind::Cast:
    return M.create<CastExpr>(cloneExpr(M, cast<CastExpr>(E)->getSub()),
                              E->getType());
  case Expr::Kind::SizeofType: {
    const auto *S = cast<SizeofTypeExpr>(E);
    return M.create<SizeofTypeExpr>(S->getQueriedType(), S->getType());
  }
  case Expr::Kind::ThreadId:
    return M.create<ThreadIdExpr>(E->getType(),
                                  cast<ThreadIdExpr>(E)->isSynthesized());
  case Expr::Kind::NumThreads:
    return M.create<NumThreadsExpr>(E->getType());
  case Expr::Kind::Cond: {
    const auto *C = cast<CondExpr>(E);
    return M.create<CondExpr>(cloneExpr(M, C->getCond()),
                              cloneExpr(M, C->getThen()),
                              cloneExpr(M, C->getElse()), C->getType());
  }
  }
  gdse_unreachable("unknown expr kind");
}

Stmt *gdse::cloneStmt(Module &M, const Stmt *S) {
  switch (S->getKind()) {
  case Stmt::Kind::Block: {
    std::vector<Stmt *> Stmts;
    for (const Stmt *Sub : cast<BlockStmt>(S)->getStmts())
      Stmts.push_back(cloneStmt(M, Sub));
    return M.create<BlockStmt>(std::move(Stmts));
  }
  case Stmt::Kind::ExprStmt:
    return M.create<ExprStmt>(cloneExpr(M, cast<ExprStmt>(S)->getExpr()));
  case Stmt::Kind::Assign: {
    const auto *A = cast<AssignStmt>(S);
    auto *NewA = M.create<AssignStmt>(cloneExpr(M, A->getLHS()),
                                      cloneExpr(M, A->getRHS()));
    NewA->setAccessId(A->getAccessId());
    return NewA;
  }
  case Stmt::Kind::If: {
    const auto *I = cast<IfStmt>(S);
    return M.create<IfStmt>(cloneExpr(M, I->getCond()),
                            cloneStmt(M, I->getThen()),
                            I->getElse() ? cloneStmt(M, I->getElse())
                                         : nullptr);
  }
  case Stmt::Kind::While: {
    const auto *W = cast<WhileStmt>(S);
    return M.create<WhileStmt>(cloneExpr(M, W->getCond()),
                               cloneStmt(M, W->getBody()));
  }
  case Stmt::Kind::For: {
    const auto *F = cast<ForStmt>(S);
    auto *NewF = M.create<ForStmt>(
        F->getInductionVar(), cloneExpr(M, F->getInit()),
        cloneExpr(M, F->getLimit()), cloneExpr(M, F->getStep()),
        cloneStmt(M, F->getBody()));
    NewF->setParallelKind(F->getParallelKind());
    NewF->setCandidate(F->isCandidate());
    return NewF;
  }
  case Stmt::Kind::Return: {
    const auto *R = cast<ReturnStmt>(S);
    return M.create<ReturnStmt>(R->getValue() ? cloneExpr(M, R->getValue())
                                              : nullptr);
  }
  case Stmt::Kind::Break:
    return M.create<BreakStmt>();
  case Stmt::Kind::Continue:
    return M.create<ContinueStmt>();
  case Stmt::Kind::Ordered: {
    const auto *O = cast<OrderedStmt>(S);
    return M.create<OrderedStmt>(O->getRegionId(), cloneStmt(M, O->getBody()));
  }
  }
  gdse_unreachable("unknown stmt kind");
}
