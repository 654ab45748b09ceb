//===- IRBuilder.h - Convenience construction of typed IR -------*- C++ -*-===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helper for constructing well-typed IR. Centralizes C's usual arithmetic
/// conversions, pointer-arithmetic typing, implicit conversions, and the
/// load-insertion discipline, so the frontend, the transformation passes and
/// the tests all build consistent trees.
///
//===----------------------------------------------------------------------===//

#ifndef GDSE_IR_IRBUILDER_H
#define GDSE_IR_IRBUILDER_H

#include "ir/IR.h"

namespace gdse {

class IRBuilder {
public:
  explicit IRBuilder(Module &M) : M(M), Ctx(M.getTypes()) {}

  Module &getModule() { return M; }
  TypeContext &getTypes() { return Ctx; }

  //===--------------------------------------------------------------------===//
  // Literals and simple values
  //===--------------------------------------------------------------------===//

  IntLitExpr *intLit(int64_t V, Type *Ty = nullptr) {
    return M.create<IntLitExpr>(V, Ty ? Ty : Ctx.getInt32());
  }
  IntLitExpr *longLit(int64_t V) {
    return M.create<IntLitExpr>(V, Ctx.getInt64());
  }
  FloatLitExpr *floatLit(double V, Type *Ty = nullptr) {
    return M.create<FloatLitExpr>(V, Ty ? Ty : Ctx.getFloat64());
  }
  VarRefExpr *varRef(VarDecl *D) { return M.create<VarRefExpr>(D); }
  /// \p Synthesized marks an expansion copy index (see ThreadIdExpr).
  ThreadIdExpr *threadId(bool Synthesized = false) {
    return M.create<ThreadIdExpr>(Ctx.getInt32(), Synthesized);
  }
  NumThreadsExpr *numThreads() {
    return M.create<NumThreadsExpr>(Ctx.getInt32());
  }
  SizeofTypeExpr *sizeofType(Type *T) {
    return M.create<SizeofTypeExpr>(T, Ctx.getInt64());
  }

  //===--------------------------------------------------------------------===//
  // Memory
  //===--------------------------------------------------------------------===//

  /// Wraps an l-value in an explicit memory read.
  LoadExpr *load(Expr *LValue) {
    assert(LValue->isLValue() && "load of non-lvalue");
    return M.create<LoadExpr>(LValue);
  }
  /// Shorthand: load of a variable.
  LoadExpr *loadVar(VarDecl *D) { return load(varRef(D)); }

  /// base[idx]: \p Base must be a pointer r-value (decay arrays first).
  ArrayIndexExpr *index(Expr *Base, Expr *Idx);
  /// lvalue.field by index.
  FieldAccessExpr *field(Expr *Base, unsigned FieldIdx);
  /// lvalue.field by name; asserts the field exists.
  FieldAccessExpr *fieldNamed(Expr *Base, const std::string &Name);
  /// *ptr.
  DerefExpr *deref(Expr *Ptr);
  /// &lvalue.
  AddrOfExpr *addrOf(Expr *LValue);
  /// Array-to-pointer decay of an array l-value.
  DecayExpr *decay(Expr *ArrayLValue);

  //===--------------------------------------------------------------------===//
  // Arithmetic (applies usual C conversions, returns typed nodes)
  //===--------------------------------------------------------------------===//

  /// Implicit conversion of \p E to \p Ty (no-op if already that type).
  Expr *convert(Expr *E, Type *Ty);
  /// Explicit cast.
  CastExpr *castTo(Expr *E, Type *Ty) { return M.create<CastExpr>(E, Ty); }

  Expr *unary(UnaryOp Op, Expr *Sub);
  /// Builds a binary expression following C semantics: usual arithmetic
  /// conversions; ptr±int stays pointer; ptr-ptr yields long.
  Expr *binary(BinaryOp Op, Expr *LHS, Expr *RHS);

  Expr *add(Expr *L, Expr *R) { return binary(BinaryOp::Add, L, R); }
  Expr *sub(Expr *L, Expr *R) { return binary(BinaryOp::Sub, L, R); }
  Expr *mul(Expr *L, Expr *R) { return binary(BinaryOp::Mul, L, R); }
  Expr *div(Expr *L, Expr *R) { return binary(BinaryOp::Div, L, R); }
  Expr *lt(Expr *L, Expr *R) { return binary(BinaryOp::Lt, L, R); }

  CondExpr *cond(Expr *C, Expr *Then, Expr *Else);

  //===--------------------------------------------------------------------===//
  // Calls
  //===--------------------------------------------------------------------===//

  /// Calls a user function; converts arguments to parameter types.
  CallExpr *call(Function *F, std::vector<Expr *> Args);
  /// Calls a builtin (caller provides already-correct argument types).
  CallExpr *callBuiltin(Builtin B, std::vector<Expr *> Args, Type *RetTy);
  /// malloc(size) with a fresh call-site id.
  CallExpr *mallocCall(Expr *Size, Type *ResultPtrTy);

  //===--------------------------------------------------------------------===//
  // Statements
  //===--------------------------------------------------------------------===//

  AssignStmt *assign(Expr *LHS, Expr *RHS);
  ExprStmt *exprStmt(Expr *E) { return M.create<ExprStmt>(E); }
  BlockStmt *block(std::vector<Stmt *> Stmts) {
    return M.create<BlockStmt>(std::move(Stmts));
  }
  IfStmt *ifStmt(Expr *Cond, Stmt *Then, Stmt *Else = nullptr);
  WhileStmt *whileStmt(Expr *Cond, Stmt *Body);
  ForStmt *forStmt(VarDecl *IV, Expr *Init, Expr *Limit, Expr *Step,
                   Stmt *Body);
  ReturnStmt *ret(Expr *V = nullptr) { return M.create<ReturnStmt>(V); }

  /// Condition wrapper: converts to a scalar usable in control flow.
  Expr *asCondition(Expr *E);

  /// True if \p Ty can be implicitly converted to \p To (scalar/pointer).
  static bool isImplicitlyConvertible(Type *From, Type *To);

  /// Result type of the usual arithmetic conversions over two scalar types.
  Type *commonArithType(Type *A, Type *B);

private:
  Module &M;
  TypeContext &Ctx;
};

} // namespace gdse

#endif // GDSE_IR_IRBUILDER_H
