//===- IR.h - GDSE typed AST-level IR ---------------------------*- C++ -*-===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The typed, structured IR that the whole system operates on. It is an
/// AST-level IR (close to GIMPLE-before-lowering) because the paper's
/// transformation is defined over C declarations and memory references:
/// type promotion (Figs. 5-6), span insertion (Table 3), type expansion
/// (Table 1) and access redirection (Table 2) all rewrite declaration types
/// and l-value expressions, which a structured IR preserves exactly.
///
/// Key invariants (checked by the Verifier):
///  - every memory *read* is an explicit LoadExpr wrapping an l-value;
///  - every memory *write* is an AssignStmt whose LHS is an l-value;
///  - l-values are VarRefExpr, DerefExpr, ArrayIndexExpr, FieldAccessExpr;
///  - arrays decay to element pointers via DecayExpr before indexing math.
///
/// LoadExpr and AssignStmt carry the AccessID used by the dependence graph
/// (Definition 1) and everything downstream.
///
//===----------------------------------------------------------------------===//

#ifndef GDSE_IR_IR_H
#define GDSE_IR_IR_H

#include "ir/Type.h"
#include "support/Casting.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace gdse {

class Expr;
class Stmt;
class Function;
class Module;

/// Unique id of a static memory access (a LoadExpr or an AssignStmt store).
/// Assigned densely per function by AccessNumbering. 0 means "not numbered".
using AccessId = uint32_t;
inline constexpr AccessId InvalidAccessId = 0;

//===----------------------------------------------------------------------===//
// Declarations
//===----------------------------------------------------------------------===//

/// A variable: global, function-local, or parameter.
class VarDecl {
public:
  enum class Storage : uint8_t { Global, Local, Param };

  VarDecl(std::string Name, Type *Ty, Storage S)
      : Name(std::move(Name)), Ty(Ty), Sto(S) {}

  const std::string &getName() const { return Name; }
  Type *getType() const { return Ty; }
  Storage getStorage() const { return Sto; }
  bool isGlobal() const { return Sto == Storage::Global; }
  bool isLocal() const { return Sto == Storage::Local; }
  bool isParam() const { return Sto == Storage::Param; }

  /// Retypes the variable; used by the promotion and expansion passes which
  /// rewrite declarations in place (Table 1 / Fig. 5).
  void setType(Type *NewTy) { Ty = NewTy; }
  void setName(std::string NewName) { Name = std::move(NewName); }

  /// Module-unique id, assigned on registration; keys analysis side tables.
  uint32_t getId() const { return Id; }

private:
  friend class Module;
  std::string Name;
  Type *Ty;
  Storage Sto;
  uint32_t Id = 0;
};

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

/// Built-in library routines known to the VM. MallocFn/CallocFn/ReallocFn
/// are the allocation sites the paper's Table 1 heap rule rewrites.
enum class Builtin : uint8_t {
  None,
  MallocFn,
  CallocFn,
  ReallocFn,
  FreeFn,
  MemcpyFn,
  MemsetFn,
  PrintInt,
  PrintFloat,
  AbsFn,
  FabsFn,
  SqrtFn,
  ExitFn,
  /// Runtime-privatization access control (the SpiceC-style baseline,
  /// paper §4.2.1): rtpriv_ptr(p, span) returns the address of the current
  /// thread's private copy of the structure containing p. The VM implements
  /// the per-thread translation table, copy-in, and loop-end commit.
  RtPrivPtr,
};

/// Root of the expression hierarchy. Every expression has a static type.
class Expr {
public:
  enum class Kind : uint8_t {
    IntLit,
    FloatLit,
    VarRef,
    Load,
    Unary,
    Binary,
    ArrayIndex,
    FieldAccess,
    Deref,
    AddrOf,
    Decay,
    Call,
    Cast,
    SizeofType,
    ThreadId,
    NumThreads,
    Cond,
  };

  Kind getKind() const { return K; }
  Type *getType() const { return Ty; }
  void setType(Type *NewTy) { Ty = NewTy; }

  /// True for expressions that denote a memory location.
  bool isLValue() const {
    return K == Kind::VarRef || K == Kind::Deref || K == Kind::ArrayIndex ||
           K == Kind::FieldAccess;
  }

  Expr(const Expr &) = delete;
  Expr &operator=(const Expr &) = delete;
  virtual ~Expr() = default;

protected:
  Expr(Kind K, Type *Ty) : K(K), Ty(Ty) {}

private:
  friend class Module;
  Kind K;
  Type *Ty;
};

/// Integer literal (value stored sign-extended in 64 bits).
class IntLitExpr : public Expr {
public:
  IntLitExpr(int64_t Value, Type *Ty) : Expr(Kind::IntLit, Ty), Value(Value) {}
  int64_t getValue() const { return Value; }
  static bool classof(const Expr *E) { return E->getKind() == Kind::IntLit; }

private:
  int64_t Value;
};

/// Floating-point literal.
class FloatLitExpr : public Expr {
public:
  FloatLitExpr(double Value, Type *Ty) : Expr(Kind::FloatLit, Ty), Value(Value) {}
  double getValue() const { return Value; }
  static bool classof(const Expr *E) { return E->getKind() == Kind::FloatLit; }

private:
  double Value;
};

/// Reference to a variable; an l-value of the variable's type.
class VarRefExpr : public Expr {
public:
  explicit VarRefExpr(VarDecl *D) : Expr(Kind::VarRef, D->getType()), D(D) {}
  VarDecl *getDecl() const { return D; }
  void setDecl(VarDecl *NewD) {
    D = NewD;
    setType(NewD->getType());
  }
  static bool classof(const Expr *E) { return E->getKind() == Kind::VarRef; }

private:
  VarDecl *D;
};

/// Explicit memory read of an l-value (the C l-value-to-r-value conversion).
/// Carries the AccessId used by the dependence graph.
class LoadExpr : public Expr {
public:
  explicit LoadExpr(Expr *Loc) : Expr(Kind::Load, Loc->getType()), Loc(Loc) {}
  Expr *getLocation() const { return Loc; }
  void setLocation(Expr *NewLoc) {
    Loc = NewLoc;
    setType(NewLoc->getType());
  }
  AccessId getAccessId() const { return Id; }
  void setAccessId(AccessId NewId) { Id = NewId; }
  static bool classof(const Expr *E) { return E->getKind() == Kind::Load; }

private:
  Expr *Loc;
  AccessId Id = InvalidAccessId;
};

enum class UnaryOp : uint8_t { Neg, BitNot, LogicalNot };

/// Unary arithmetic/logic on an r-value.
class UnaryExpr : public Expr {
public:
  UnaryExpr(UnaryOp Op, Expr *Sub, Type *Ty)
      : Expr(Kind::Unary, Ty), Op(Op), Sub(Sub) {}
  UnaryOp getOp() const { return Op; }
  Expr *getSub() const { return Sub; }
  void setSub(Expr *E) { Sub = E; }
  static bool classof(const Expr *E) { return E->getKind() == Kind::Unary; }

private:
  UnaryOp Op;
  Expr *Sub;
};

enum class BinaryOp : uint8_t {
  Add,
  Sub,
  Mul,
  Div,
  Rem,
  BitAnd,
  BitOr,
  BitXor,
  Shl,
  Shr,
  Eq,
  Ne,
  Lt,
  Le,
  Gt,
  Ge,
  LogicalAnd,
  LogicalOr,
};

/// Binary operation. Pointer arithmetic follows C: ptr+int scales by the
/// pointee size; ptr-ptr yields an element-count integer (the quantity the
/// paper's "Pointer arithmetic 2" span rule tracks).
class BinaryExpr : public Expr {
public:
  BinaryExpr(BinaryOp Op, Expr *LHS, Expr *RHS, Type *Ty)
      : Expr(Kind::Binary, Ty), Op(Op), LHS(LHS), RHS(RHS) {}
  BinaryOp getOp() const { return Op; }
  Expr *getLHS() const { return LHS; }
  Expr *getRHS() const { return RHS; }
  void setLHS(Expr *E) { LHS = E; }
  void setRHS(Expr *E) { RHS = E; }
  static bool classof(const Expr *E) { return E->getKind() == Kind::Binary; }

private:
  BinaryOp Op;
  Expr *LHS;
  Expr *RHS;
};

/// base[index] where base is a pointer r-value; an l-value of the pointee.
class ArrayIndexExpr : public Expr {
public:
  ArrayIndexExpr(Expr *Base, Expr *Index, Type *ElemTy)
      : Expr(Kind::ArrayIndex, ElemTy), Base(Base), Index(Index) {}
  Expr *getBase() const { return Base; }
  Expr *getIndex() const { return Index; }
  void setBase(Expr *E) { Base = E; }
  void setIndex(Expr *E) { Index = E; }
  static bool classof(const Expr *E) {
    return E->getKind() == Kind::ArrayIndex;
  }

private:
  Expr *Base;
  Expr *Index;
};

/// base.field where base is a struct l-value; an l-value of the field type.
class FieldAccessExpr : public Expr {
public:
  FieldAccessExpr(Expr *Base, unsigned FieldIdx, Type *FieldTy)
      : Expr(Kind::FieldAccess, FieldTy), Base(Base), FieldIdx(FieldIdx) {}
  Expr *getBase() const { return Base; }
  unsigned getFieldIndex() const { return FieldIdx; }
  void setBase(Expr *E) { Base = E; }
  void setFieldIndex(unsigned Idx) { FieldIdx = Idx; }
  static bool classof(const Expr *E) {
    return E->getKind() == Kind::FieldAccess;
  }

private:
  Expr *Base;
  unsigned FieldIdx;
};

/// *ptr where ptr is a pointer r-value; an l-value of the pointee type.
class DerefExpr : public Expr {
public:
  DerefExpr(Expr *Ptr, Type *PointeeTy)
      : Expr(Kind::Deref, PointeeTy), Ptr(Ptr) {}
  Expr *getPtr() const { return Ptr; }
  void setPtr(Expr *E) { Ptr = E; }
  static bool classof(const Expr *E) { return E->getKind() == Kind::Deref; }

private:
  Expr *Ptr;
};

/// &lvalue; an r-value of pointer type.
class AddrOfExpr : public Expr {
public:
  AddrOfExpr(Expr *Loc, Type *PtrTy) : Expr(Kind::AddrOf, PtrTy), Loc(Loc) {}
  Expr *getLocation() const { return Loc; }
  void setLocation(Expr *E) { Loc = E; }
  static bool classof(const Expr *E) { return E->getKind() == Kind::AddrOf; }

private:
  Expr *Loc;
};

/// Array-to-pointer decay of an array l-value; an r-value pointer to the
/// first element.
class DecayExpr : public Expr {
public:
  DecayExpr(Expr *ArrayLoc, Type *PtrTy)
      : Expr(Kind::Decay, PtrTy), ArrayLoc(ArrayLoc) {}
  Expr *getArrayLocation() const { return ArrayLoc; }
  void setArrayLocation(Expr *E) { ArrayLoc = E; }
  static bool classof(const Expr *E) { return E->getKind() == Kind::Decay; }

private:
  Expr *ArrayLoc;
};

/// Direct call of a user function or a builtin. Builtin allocation calls are
/// the heap allocation sites of Table 1. Each call site carries a
/// module-unique SiteId used by points-to analysis and the expansion target
/// selection.
class CallExpr : public Expr {
public:
  CallExpr(Function *Callee, std::vector<Expr *> Args, Type *RetTy)
      : Expr(Kind::Call, RetTy), Callee(Callee), B(Builtin::None),
        Args(std::move(Args)) {}
  CallExpr(Builtin B, std::vector<Expr *> Args, Type *RetTy)
      : Expr(Kind::Call, RetTy), Callee(nullptr), B(B), Args(std::move(Args)) {}

  bool isBuiltin() const { return B != Builtin::None; }
  Builtin getBuiltin() const { return B; }
  Function *getCallee() const { return Callee; }
  const std::vector<Expr *> &getArgs() const { return Args; }
  unsigned getNumArgs() const { return static_cast<unsigned>(Args.size()); }
  Expr *getArg(unsigned I) const {
    assert(I < Args.size() && "argument index out of range");
    return Args[I];
  }
  void setArg(unsigned I, Expr *E) {
    assert(I < Args.size() && "argument index out of range");
    Args[I] = E;
  }
  void setArgs(std::vector<Expr *> NewArgs) { Args = std::move(NewArgs); }

  uint32_t getSiteId() const { return SiteId; }
  void setSiteId(uint32_t Id) { SiteId = Id; }

  static bool classof(const Expr *E) { return E->getKind() == Kind::Call; }

private:
  Function *Callee;
  Builtin B;
  std::vector<Expr *> Args;
  uint32_t SiteId = 0;
};

/// Value conversion between scalar/pointer types (C cast semantics).
class CastExpr : public Expr {
public:
  CastExpr(Expr *Sub, Type *ToTy) : Expr(Kind::Cast, ToTy), Sub(Sub) {}
  Expr *getSub() const { return Sub; }
  void setSub(Expr *E) { Sub = E; }
  static bool classof(const Expr *E) { return E->getKind() == Kind::Cast; }

private:
  Expr *Sub;
};

/// sizeof(T) as a compile-time constant of type long.
class SizeofTypeExpr : public Expr {
public:
  SizeofTypeExpr(Type *Queried, Type *ResultTy)
      : Expr(Kind::SizeofType, ResultTy), Queried(Queried) {}
  Type *getQueriedType() const { return Queried; }
  void setQueriedType(Type *T) { Queried = T; }
  static bool classof(const Expr *E) {
    return E->getKind() == Kind::SizeofType;
  }

private:
  Type *Queried;
};

/// The current thread index (the paper's \c tid); 0 outside parallel loops.
/// A *synthesized* tid is one expansion inserted as a copy index: it only
/// selects a thread-private copy, so any index that is exclusive to the
/// running iteration serves (the host-threaded runner uses the worker's).
/// A user-written \c __tid is observable and must equal the virtual thread.
class ThreadIdExpr : public Expr {
public:
  explicit ThreadIdExpr(Type *IntTy, bool Synthesized = false)
      : Expr(Kind::ThreadId, IntTy), Synthesized(Synthesized) {}
  bool isSynthesized() const { return Synthesized; }
  static bool classof(const Expr *E) { return E->getKind() == Kind::ThreadId; }

private:
  bool Synthesized;
};

/// The thread count the program runs with (the paper's \c N); a runtime value.
class NumThreadsExpr : public Expr {
public:
  explicit NumThreadsExpr(Type *IntTy) : Expr(Kind::NumThreads, IntTy) {}
  static bool classof(const Expr *E) {
    return E->getKind() == Kind::NumThreads;
  }
};

/// cond ? then : else with short-circuit evaluation; an r-value.
class CondExpr : public Expr {
public:
  CondExpr(Expr *Cnd, Expr *Then, Expr *Else, Type *Ty)
      : Expr(Kind::Cond, Ty), Cnd(Cnd), Then(Then), Else(Else) {}
  Expr *getCond() const { return Cnd; }
  Expr *getThen() const { return Then; }
  Expr *getElse() const { return Else; }
  void setCond(Expr *E) { Cnd = E; }
  void setThen(Expr *E) { Then = E; }
  void setElse(Expr *E) { Else = E; }
  static bool classof(const Expr *E) { return E->getKind() == Kind::Cond; }

private:
  Expr *Cnd;
  Expr *Then;
  Expr *Else;
};

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

/// How a loop is to be executed by the parallel runtime (paper §4.3).
enum class ParallelKind : uint8_t {
  None,     ///< sequential
  DOALL,    ///< independent iterations; static chunk scheduling
  DOACROSS, ///< cross-iteration sync required; dynamic chunk-1 scheduling
};

/// Root of the statement hierarchy.
class Stmt {
public:
  enum class Kind : uint8_t {
    Block,
    ExprStmt,
    Assign,
    If,
    While,
    For,
    Return,
    Break,
    Continue,
    Ordered,
  };

  Kind getKind() const { return K; }

  Stmt(const Stmt &) = delete;
  Stmt &operator=(const Stmt &) = delete;
  virtual ~Stmt() = default;

protected:
  explicit Stmt(Kind K) : K(K) {}

private:
  Kind K;
};

/// { s0; s1; ... }
class BlockStmt : public Stmt {
public:
  explicit BlockStmt(std::vector<Stmt *> Stmts)
      : Stmt(Kind::Block), Stmts(std::move(Stmts)) {}
  const std::vector<Stmt *> &getStmts() const { return Stmts; }
  std::vector<Stmt *> &getStmts() { return Stmts; }
  static bool classof(const Stmt *S) { return S->getKind() == Kind::Block; }

private:
  std::vector<Stmt *> Stmts;
};

/// Expression evaluated for side effects (calls).
class ExprStmt : public Stmt {
public:
  explicit ExprStmt(Expr *E) : Stmt(Kind::ExprStmt), E(E) {}
  Expr *getExpr() const { return E; }
  void setExpr(Expr *NewE) { E = NewE; }
  static bool classof(const Stmt *S) { return S->getKind() == Kind::ExprStmt; }

private:
  Expr *E;
};

/// lhs = rhs. The single memory-write construct; carries the store AccessId.
/// Aggregate (struct/array) assignment copies the full object, which the
/// paper treats as a series of scalar assignments.
class AssignStmt : public Stmt {
public:
  AssignStmt(Expr *LHS, Expr *RHS) : Stmt(Kind::Assign), LHS(LHS), RHS(RHS) {}
  Expr *getLHS() const { return LHS; }
  Expr *getRHS() const { return RHS; }
  void setLHS(Expr *E) { LHS = E; }
  void setRHS(Expr *E) { RHS = E; }
  AccessId getAccessId() const { return Id; }
  void setAccessId(AccessId NewId) { Id = NewId; }
  static bool classof(const Stmt *S) { return S->getKind() == Kind::Assign; }

private:
  Expr *LHS;
  Expr *RHS;
  AccessId Id = InvalidAccessId;
};

/// if (cond) then else else.
class IfStmt : public Stmt {
public:
  IfStmt(Expr *Cond, Stmt *Then, Stmt *Else)
      : Stmt(Kind::If), Cond(Cond), Then(Then), Else(Else) {}
  Expr *getCond() const { return Cond; }
  Stmt *getThen() const { return Then; }
  Stmt *getElse() const { return Else; }
  void setCond(Expr *E) { Cond = E; }
  void setThen(Stmt *S) { Then = S; }
  void setElse(Stmt *S) { Else = S; }
  static bool classof(const Stmt *S) { return S->getKind() == Kind::If; }

private:
  Expr *Cond;
  Stmt *Then;
  Stmt *Else; // may be null
};

/// while (cond) body. General loops; never a parallelization candidate.
class WhileStmt : public Stmt {
public:
  WhileStmt(Expr *Cond, Stmt *Body)
      : Stmt(Kind::While), Cond(Cond), Body(Body) {}
  Expr *getCond() const { return Cond; }
  Stmt *getBody() const { return Body; }
  void setCond(Expr *E) { Cond = E; }
  void setBody(Stmt *S) { Body = S; }
  unsigned getLoopId() const { return LoopId; }
  void setLoopId(unsigned Id) { LoopId = Id; }
  static bool classof(const Stmt *S) { return S->getKind() == Kind::While; }

private:
  Expr *Cond;
  Stmt *Body;
  unsigned LoopId = 0;
};

/// Canonical counted loop: for (iv = init; iv < limit; iv = iv + step) body.
/// The only parallelization candidate form. \c iv is a dedicated local whose
/// storage is per-worker when the loop runs in parallel.
class ForStmt : public Stmt {
public:
  ForStmt(VarDecl *IV, Expr *Init, Expr *Limit, Expr *Step, Stmt *Body)
      : Stmt(Kind::For), IV(IV), Init(Init), Limit(Limit), Step(Step),
        Body(Body) {}
  VarDecl *getInductionVar() const { return IV; }
  Expr *getInit() const { return Init; }
  Expr *getLimit() const { return Limit; }
  Expr *getStep() const { return Step; }
  Stmt *getBody() const { return Body; }
  void setInductionVar(VarDecl *D) { IV = D; }
  void setInit(Expr *E) { Init = E; }
  void setLimit(Expr *E) { Limit = E; }
  void setStep(Expr *E) { Step = E; }
  void setBody(Stmt *S) { Body = S; }

  unsigned getLoopId() const { return LoopId; }
  void setLoopId(unsigned Id) { LoopId = Id; }
  ParallelKind getParallelKind() const { return PK; }
  void setParallelKind(ParallelKind K) { PK = K; }
  /// Marked as a parallelization candidate (the "@candidate" annotation; the
  /// paper's promising loops selected by profiling/the programmer).
  bool isCandidate() const { return Candidate; }
  void setCandidate(bool C) { Candidate = C; }

  static bool classof(const Stmt *S) { return S->getKind() == Kind::For; }

private:
  VarDecl *IV;
  Expr *Init;
  Expr *Limit;
  Expr *Step;
  Stmt *Body;
  unsigned LoopId = 0;
  ParallelKind PK = ParallelKind::None;
  bool Candidate = false;
};

/// return expr; (expr null for void functions).
class ReturnStmt : public Stmt {
public:
  explicit ReturnStmt(Expr *Value) : Stmt(Kind::Return), Value(Value) {}
  Expr *getValue() const { return Value; }
  void setValue(Expr *E) { Value = E; }
  static bool classof(const Stmt *S) { return S->getKind() == Kind::Return; }

private:
  Expr *Value; // may be null
};

class BreakStmt : public Stmt {
public:
  BreakStmt() : Stmt(Kind::Break) {}
  static bool classof(const Stmt *S) { return S->getKind() == Kind::Break; }
};

class ContinueStmt : public Stmt {
public:
  ContinueStmt() : Stmt(Kind::Continue) {}
  static bool classof(const Stmt *S) { return S->getKind() == Kind::Continue; }
};

/// A cross-iteration synchronization region inserted by the DOACROSS planner:
/// iteration i may enter region R only after iteration i-1 has left region R.
/// Models the paper's "necessary inter-thread synchronization" (§4.3).
class OrderedStmt : public Stmt {
public:
  OrderedStmt(unsigned RegionId, Stmt *Body)
      : Stmt(Kind::Ordered), RegionId(RegionId), Body(Body) {}
  unsigned getRegionId() const { return RegionId; }
  Stmt *getBody() const { return Body; }
  void setBody(Stmt *S) { Body = S; }
  static bool classof(const Stmt *S) { return S->getKind() == Kind::Ordered; }

private:
  unsigned RegionId;
  Stmt *Body;
};

//===----------------------------------------------------------------------===//
// Function and Module
//===----------------------------------------------------------------------===//

/// A function definition: signature, parameter and local declarations, body.
class Function {
public:
  Function(std::string Name, FunctionType *FT) : Name(std::move(Name)), FT(FT) {}

  const std::string &getName() const { return Name; }
  FunctionType *getFunctionType() const { return FT; }
  Type *getReturnType() const { return FT->getReturnType(); }

  const std::vector<VarDecl *> &getParams() const { return Params; }
  const std::vector<VarDecl *> &getLocals() const { return Locals; }
  VarDecl *getParam(unsigned I) const {
    assert(I < Params.size() && "parameter index out of range");
    return Params[I];
  }
  void addParam(VarDecl *D) {
    assert(D->isParam() && "addParam with non-parameter decl");
    Params.push_back(D);
  }
  void addLocal(VarDecl *D) {
    assert(D->isLocal() && "addLocal with non-local decl");
    Locals.push_back(D);
  }
  /// Replaces the whole parameter list (used by pointer promotion when
  /// unbundling fat-pointer parameters). The function type must be updated
  /// by the caller to match.
  void replaceParams(std::vector<VarDecl *> NewParams) {
#ifndef NDEBUG
    for (VarDecl *P : NewParams)
      assert(P->isParam() && "replaceParams with non-parameter decl");
#endif
    Params = std::move(NewParams);
  }

  BlockStmt *getBody() const { return Body; }
  void setBody(BlockStmt *B) { Body = B; }
  bool isDefinition() const { return Body != nullptr; }

  /// Updates the signature after promotion rewrites parameter types.
  void setFunctionType(FunctionType *NewFT) { FT = NewFT; }

private:
  std::string Name;
  FunctionType *FT;
  std::vector<VarDecl *> Params;
  std::vector<VarDecl *> Locals;
  BlockStmt *Body = nullptr;
};

/// A whole program: type context, globals, functions, and the arena that owns
/// every IR node. Transform passes allocate replacement nodes from the same
/// arena; detached nodes simply stay owned by it.
class Module {
public:
  Module() = default;

  TypeContext &getTypes() { return Ctx; }

  /// Allocates an IR node (Expr or Stmt subclasses) in the module arena.
  template <typename NodeT, typename... ArgTs> NodeT *create(ArgTs &&...Args) {
    auto Node = std::make_unique<NodeT>(std::forward<ArgTs>(Args)...);
    NodeT *Raw = Node.get();
    if constexpr (std::is_base_of_v<Expr, NodeT>)
      ExprPool.push_back(std::move(Node));
    else if constexpr (std::is_base_of_v<Stmt, NodeT>)
      StmtPool.push_back(std::move(Node));
    else
      static_assert(std::is_base_of_v<Expr, NodeT> ||
                        std::is_base_of_v<Stmt, NodeT>,
                    "Module::create only allocates Expr/Stmt nodes");
    return Raw;
  }

  /// Creates and registers a variable declaration.
  VarDecl *createVar(const std::string &Name, Type *Ty, VarDecl::Storage S);

  /// Creates and registers a global variable.
  VarDecl *addGlobal(const std::string &Name, Type *Ty) {
    VarDecl *D = createVar(Name, Ty, VarDecl::Storage::Global);
    Globals.push_back(D);
    return D;
  }
  /// Removes a global from the visible list (its storage stays in the arena);
  /// used by the global-to-heap conversion (§3.1).
  void removeGlobal(VarDecl *D);

  const std::vector<VarDecl *> &getGlobals() const { return Globals; }

  Function *createFunction(const std::string &Name, FunctionType *FT);
  Function *getFunction(const std::string &Name) const;
  const std::vector<Function *> &getFunctions() const { return Functions; }

  uint32_t getNumVarDecls() const {
    return static_cast<uint32_t>(VarPool.size());
  }
  /// All declarations ever created (dense by VarDecl::getId(), starting at 1).
  VarDecl *getVarDecl(uint32_t Id) const {
    assert(Id >= 1 && Id <= VarPool.size() && "bad decl id");
    return VarPool[Id - 1].get();
  }

  /// Hands out a fresh call-site id (for points-to object naming).
  uint32_t nextCallSiteId() { return ++LastCallSiteId; }
  uint32_t getMaxCallSiteId() const { return LastCallSiteId; }

private:
  TypeContext Ctx;
  std::vector<std::unique_ptr<Expr>> ExprPool;
  std::vector<std::unique_ptr<Stmt>> StmtPool;
  std::vector<std::unique_ptr<VarDecl>> VarPool;
  std::vector<std::unique_ptr<Function>> FunctionPool;
  std::vector<VarDecl *> Globals;
  std::vector<Function *> Functions;
  std::map<std::string, Function *> FunctionsByName;
  uint32_t LastCallSiteId = 0;
};

/// Returns the printable name of a builtin.
const char *getBuiltinName(Builtin B);
/// Maps a source identifier to a builtin (Builtin::None when unknown).
Builtin lookupBuiltin(const std::string &Name);
/// True for malloc/calloc/realloc — the allocation sites of Table 1.
bool isAllocationBuiltin(Builtin B);

} // namespace gdse

#endif // GDSE_IR_IR_H
