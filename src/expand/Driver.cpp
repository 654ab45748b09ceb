//===- Driver.cpp - Expansion pipeline orchestration -----------------------===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// Makes every decision on the ORIGINAL module (expansion targets, fat
// slots, per-access plans, constant spans), then runs the rewriting passes
// and re-verifies the module.
//
//===----------------------------------------------------------------------===//

#include "expand/ExpansionImpl.h"

#include "analysis/StaticPrivatizer.h"
#include "ir/IRVisitor.h"
#include "ir/Verifier.h"
#include "support/Support.h"

#include <cstdint>
#include <functional>

using namespace gdse;

namespace {

/// sizeof under the ORIGINAL (pre-translation) layout; used while fat slots
/// are still being chosen.
std::optional<int64_t> evalConstSizeOrig(TypeContext &Ctx, const Expr *E) {
  switch (E->getKind()) {
  case Expr::Kind::IntLit:
    return cast<IntLitExpr>(E)->getValue();
  case Expr::Kind::SizeofType:
    return static_cast<int64_t>(
        Ctx.getLayout(cast<SizeofTypeExpr>(E)->getQueriedType()).Size);
  case Expr::Kind::Cast:
    if (E->getType()->isInt())
      return evalConstSizeOrig(Ctx, cast<CastExpr>(E)->getSub());
    return std::nullopt;
  case Expr::Kind::Binary: {
    const auto *B = cast<BinaryExpr>(E);
    auto L = evalConstSizeOrig(Ctx, B->getLHS());
    auto R = evalConstSizeOrig(Ctx, B->getRHS());
    if (!L || !R)
      return std::nullopt;
    switch (B->getOp()) {
    case BinaryOp::Add:
      return *L + *R;
    case BinaryOp::Sub:
      return *L - *R;
    case BinaryOp::Mul:
      return *L * *R;
    default:
      return std::nullopt;
    }
  }
  default:
    return std::nullopt;
  }
}

/// The byte-size expression of an allocation call (before any expansion):
/// malloc(n) -> n, calloc(n,s) -> n*s, realloc(p,n) -> n.
std::optional<int64_t> constSiteSize(ExpansionContext &Cx, const CallExpr *C,
                                     bool Translated) {
  auto eval = [&](const Expr *E) -> std::optional<int64_t> {
    return Translated ? Cx.evalConstSize(E)
                      : evalConstSizeOrig(Cx.types(), E);
  };
  switch (C->getBuiltin()) {
  case Builtin::MallocFn:
    return eval(C->getArg(0));
  case Builtin::CallocFn: {
    auto A = eval(C->getArg(0));
    auto B = eval(C->getArg(1));
    if (A && B)
      return *A * *B;
    return std::nullopt;
  }
  case Builtin::ReallocFn:
    return eval(C->getArg(1));
  default:
    return std::nullopt;
  }
}

/// Common constant size of a set of objects; nullopt when any is unknown or
/// they disagree.
std::optional<int64_t> commonConstSize(ExpansionContext &Cx, const PointsTo &PT,
                                       const std::set<uint32_t> &Objs,
                                       bool Translated) {
  std::optional<int64_t> Common;
  for (uint32_t Id : Objs) {
    const MemObject &O = PT.object(Id);
    std::optional<int64_t> Size;
    if (O.K == MemObject::Kind::Variable) {
      Type *T = O.Var->getType();
      if (Translated)
        T = Cx.translateType(T);
      Size = static_cast<int64_t>(Cx.types().getLayout(T).Size);
    } else {
      Size = constSiteSize(Cx, O.Site, Translated);
    }
    if (!Size)
      return std::nullopt;
    if (Common && *Common != *Size)
      return std::nullopt;
    Common = Size;
  }
  return Common;
}

std::set<uint32_t> intersect(const std::set<uint32_t> &A,
                             const std::set<uint32_t> &B) {
  std::set<uint32_t> Out;
  for (uint32_t X : A)
    if (B.count(X))
      Out.insert(X);
  return Out;
}

} // namespace

ExpansionResult gdse::expandLoop(Module &M, unsigned LoopId,
                                 const LoopDepGraph &G, DiagnosticEngine &DE,
                                 const ExpansionOptions &Opts,
                                 const ExpansionInputs &Inputs) {
  ExpansionResult Result;
  ExpansionContext Cx(M, G, Opts, Result, DE);
  DiagnosticScope Scope(DE, "expansion", LoopId);

  std::optional<AccessNumbering> OwnedNum;
  if (!Inputs.Num)
    OwnedNum = AccessNumbering::compute(M);
  const AccessNumbering &Num = Inputs.Num ? *Inputs.Num : *OwnedNum;
  if (LoopId == 0 || LoopId > Num.numLoops()) {
    Cx.error(formatString("unknown loop id %u", LoopId));
    return Result;
  }
  const LoopDesc &LD = Num.loop(LoopId);
  Cx.TargetLoop = dyn_cast<ForStmt>(LD.LoopStmt);
  Cx.LoopFunction = LD.InFunction;
  if (!Cx.TargetLoop) {
    Cx.error("target loop is not a canonical counted for-loop");
    return Result;
  }
  if (G.LoopId != LoopId) {
    Cx.error("dependence graph was profiled for a different loop");
    return Result;
  }

  std::optional<PointsTo> OwnedPT;
  if (!Inputs.PT)
    OwnedPT = PointsTo::compute(M);
  const PointsTo &PT = Inputs.PT ? *Inputs.PT : *OwnedPT;
  std::optional<AccessClasses> OwnedClasses;
  if (!Inputs.Classes)
    OwnedClasses = AccessClasses::build(G);
  const AccessClasses &Classes =
      Inputs.Classes ? *Inputs.Classes : *OwnedClasses;
  Result.PrivateAccesses = Classes.privateAccesses();

  // --- Per-access root objects, and the expansion-target closure. --------
  std::map<AccessId, std::set<uint32_t>> Roots;
  for (const AccessDesc &D : Num.accesses())
    Roots[D.Id] = PT.lvalueRootObjects(D.location());

  // --- Commutative reduction selection. -----------------------------------
  // A class the witness proved commutative (every carried use one reduction
  // op) rides the private path: its accesses redirect to copy `tid`, and a
  // synthesized pair of helpers initializes copies 1..N-1 to the op's
  // identity before the loop and folds them into copy 0 (serial copy order,
  // so the result is deterministic) after it.
  struct CommObjInfo {
    VarDecl *Var = nullptr;
    unsigned ClassIdx = 0; ///< profile access-class index, for the guard
    CommutativeOp Op = CommutativeOp::None;
  };
  std::map<uint32_t, CommObjInfo> CommObjs; // points-to object id -> info
  std::set<AccessId> CommAccesses;
  do {
    const PrivatizationWitness *W = Inputs.Witness;
    if (!Opts.CommutativePrivatization || !W || W->unmodeled())
      break;
    // The init/merge calls are spliced around the loop statement, so the
    // loop must sit directly in a block we can rewrite.
    bool HaveSplicePoint = false;
    if (Cx.LoopFunction->getBody())
      walkStmts(Cx.LoopFunction->getBody(), [&](Stmt *S) {
        if (auto *Blk = dyn_cast<BlockStmt>(S))
          for (Stmt *Child : Blk->getStmts())
            if (Child == Cx.TargetLoop)
              HaveSplicePoint = true;
      });
    if (!HaveSplicePoint)
      break;

    std::set<AccessId> InLoop; // the graph's vertex set
    for (const auto &[Id, Cnt] : G.DynCount) {
      (void)Cnt;
      InLoop.insert(Id);
    }

    for (unsigned CI = 0; CI != Classes.classes().size(); ++CI) {
      const AccessClassInfo &C = Classes.classes()[CI];
      if (C.Private || C.Members.empty())
        continue;
      CommutativeOp Op = CommutativeOp::None;
      bool Ok = true;
      for (AccessId Id : C.Members) {
        CommutativeOp MOp = W->commutativeOpOf(Id);
        if (MOp == CommutativeOp::None ||
            (Op != CommutativeOp::None && MOp != Op)) {
          Ok = false;
          break;
        }
        Op = MOp;
      }
      if (!Ok)
        continue;
      // Object purity: every root must be a module variable holding an int
      // scalar or a one-dimensional int array (the helpers need a static
      // element count), must not be the induction variable or a parameter,
      // and a local must belong to the loop's own function — a carried
      // accumulator cannot live in a callee frame.
      std::set<uint32_t> ObjSet;
      for (AccessId Id : C.Members) {
        const auto &R = Roots[Id];
        if (R.empty())
          Ok = false;
        ObjSet.insert(R.begin(), R.end());
      }
      for (uint32_t Obj : ObjSet) {
        if (!Ok)
          break;
        const MemObject &O = PT.object(Obj);
        if (O.K != MemObject::Kind::Variable || O.Var->isParam() ||
            O.Var == Cx.TargetLoop->getInductionVar()) {
          Ok = false;
          break;
        }
        Type *Elem = O.Var->getType();
        if (auto *AT = dyn_cast<ArrayType>(Elem))
          Elem = AT->getElement();
        if (!Elem->isInt()) {
          Ok = false;
          break;
        }
        if (O.Var->isLocal()) {
          bool Owned = false;
          for (VarDecl *L : Cx.LoopFunction->getLocals())
            Owned |= L == O.Var;
          if (!Owned)
            Ok = false;
        }
        if (CommObjs.count(Obj))
          Ok = false; // two reduction classes must not share storage
      }
      if (!Ok)
        continue;
      // No foreign in-loop access may reach the reduction storage: a read
      // would observe an unmerged partial, a write would survive the merge
      // only on one thread's copy.
      std::set<AccessId> MemberSet(C.Members.begin(), C.Members.end());
      for (AccessId Id : InLoop) {
        if (MemberSet.count(Id))
          continue;
        auto RIt = Roots.find(Id);
        if (RIt != Roots.end() && !intersect(RIt->second, ObjSet).empty()) {
          Ok = false;
          break;
        }
      }
      if (!Ok)
        continue;
      for (uint32_t Obj : ObjSet)
        CommObjs[Obj] = {PT.object(Obj).Var, CI, Op};
      CommAccesses.insert(C.Members.begin(), C.Members.end());
      ++Result.Stats.CommutativeClasses;
    }
    Result.Stats.CommutativeObjects =
        static_cast<unsigned>(CommObjs.size());
    for (AccessId Id : CommAccesses)
      Result.PrivateAccesses.insert(Id);
  } while (false);

  std::set<uint32_t> &E = Cx.ExpandedObjs;
  for (AccessId Id : Result.PrivateAccesses) {
    const auto &R = Roots[Id];
    E.insert(R.begin(), R.end());
  }
  bool Grew = true;
  while (Grew) {
    Grew = false;
    for (const auto &[Id, R] : Roots) {
      if (R.empty() || intersect(R, E).empty() ||
          std::includes(E.begin(), E.end(), R.begin(), R.end()))
        continue;
      E.insert(R.begin(), R.end());
      Grew = true;
    }
  }

  // --- Scalar privatization exclusion. ------------------------------------
  // Non-address-taken scalar/pointer locals need no data structure
  // expansion: the parallel runtime's loop outlining already gives each
  // worker its own copy (classic scalar privatization — OpenMP `private`).
  // The paper's technique exists for the structures this cannot handle.
  // Such variables cannot be aliased (their address is never taken), so
  // removing them from the target set never breaks the closure.
  std::set<const VarDecl *> AddressTaken;
  {
    for (Function *F : M.getFunctions()) {
      walkExprs(F, [&](Expr *Ex) {
        const Expr *Loc = nullptr;
        if (auto *A = dyn_cast<AddrOfExpr>(Ex))
          Loc = A->getLocation();
        else if (auto *D = dyn_cast<DecayExpr>(Ex))
          Loc = D->getArrayLocation();
        while (Loc) {
          if (auto *FA = dyn_cast<FieldAccessExpr>(Loc)) {
            Loc = FA->getBase();
            continue;
          }
          if (auto *V = dyn_cast<VarRefExpr>(Loc))
            AddressTaken.insert(V->getDecl());
          break;
        }
      });
    }
    for (auto It = E.begin(); It != E.end();) {
      const MemObject &O = PT.object(*It);
      bool RuntimePrivatizable =
          O.K == MemObject::Kind::Variable && O.Var->isLocal() &&
          (O.Var->getType()->isScalar() || O.Var->getType()->isPointer()) &&
          !AddressTaken.count(O.Var) &&
          // Reduction storage must stay expanded: per-worker frame copies
          // (last-writer-wins at join) would lose the partial sums the
          // synthesized merge needs to fold.
          !CommObjs.count(*It);
      if (RuntimePrivatizable)
        It = E.erase(It);
      else
        ++It;
    }
  }

  // --- Resolve and validate the targets. ---------------------------------
  VarDecl *IV = Cx.TargetLoop->getInductionVar();
  for (uint32_t Obj : E) {
    const MemObject &O = PT.object(Obj);
    if (O.K == MemObject::Kind::Variable) {
      if (O.Var->isParam()) {
        Cx.error("cannot expand parameter storage '" + O.Var->getName() +
                 "'");
        return Result;
      }
      if (O.Var == IV) {
        Cx.error("the loop induction variable must not require expansion");
        return Result;
      }
      Cx.ExpandedVars.insert(O.Var);
    } else {
      if (O.Site->getBuiltin() == Builtin::ReallocFn) {
        Cx.error("realloc of an expanded structure is unsupported (grown "
                 "bonded copies would interleave stale data)");
        return Result;
      }
      Cx.ExpandedSites.insert(O.Site);
    }
  }

  // Interleaved layout: reject recast structures (the paper's bzip2 zptr
  // argument for bonded mode).
  if (Opts.Layout == LayoutMode::Interleaved) {
    for (Function *F : M.getFunctions()) {
      walkExprs(F, [&](Expr *Ex) {
        auto *C = dyn_cast<CastExpr>(Ex);
        if (!C || !C->getType()->isPointer() ||
            !C->getSub()->getType()->isPointer())
          return;
        Type *ToP = cast<PointerType>(C->getType())->getPointee();
        Type *FromP = cast<PointerType>(C->getSub()->getType())->getPointee();
        if (ToP->isVoid() || FromP->isVoid())
          return;
        if (Cx.types().getLayout(ToP).Size == Cx.types().getLayout(FromP).Size)
          return;
        if (!intersect(PT.valueObjects(C->getSub()), E).empty())
          Cx.error("interleaved layout cannot expand a structure recast "
                   "between different-sized element types");
      });
    }
    if (Cx.failed())
      return Result;
  }

  // --- Fat pointer slots (§3.4 selective promotion / constant spans). ----
  auto slotNeedsSpan = [&](const std::set<uint32_t> &PointeeObjs) -> bool {
    std::set<uint32_t> Hits = intersect(PointeeObjs, E);
    if (Opts.SelectivePromotion && Hits.empty())
      return false;
    if (!Opts.SelectivePromotion && PointeeObjs.empty() && Hits.empty()) {
      // Unoptimized mode promotes every pointer slot regardless.
      return true;
    }
    if (Opts.SpanConstantPropagation) {
      const std::set<uint32_t> &ForConst = Hits.empty() ? PointeeObjs : Hits;
      if (!ForConst.empty() &&
          commonConstSize(Cx, PT, ForConst, /*Translated=*/false))
        return false;
    }
    if (!Opts.SelectivePromotion)
      return true;
    return !Hits.empty();
  };

  // Variable slots.
  for (uint32_t Id = 1; Id <= M.getNumVarDecls(); ++Id) {
    VarDecl *V = M.getVarDecl(Id);
    if (!V->getType()->isPointer())
      continue;
    if (slotNeedsSpan(PT.contentObjects(V))) {
      PointerSlot Slot;
      Slot.Var = V;
      Cx.FatSlots.insert(Slot);
    }
  }
  // Field slots: gather stored-value objects per (struct, field).
  std::map<std::pair<StructType *, unsigned>, std::set<uint32_t>> FieldPts;
  std::set<std::pair<StructType *, unsigned>> PtrFields;
  for (StructType *S : M.getTypes().getStructs()) {
    if (S->isOpaque())
      continue;
    for (unsigned I = 0, NumF = S->getNumFields(); I != NumF; ++I)
      if (S->getField(I).Ty->isPointer())
        PtrFields.insert({S, I});
  }
  for (Function *F : M.getFunctions()) {
    if (!F->getBody())
      continue;
    walkStmts(F->getBody(), [&](Stmt *S) {
      auto *A = dyn_cast<AssignStmt>(S);
      if (!A || !A->getLHS()->getType()->isPointer())
        return;
      auto *FA = dyn_cast<FieldAccessExpr>(A->getLHS());
      if (!FA)
        return;
      auto *ST = cast<StructType>(FA->getBase()->getType());
      auto &Set = FieldPts[{ST, FA->getFieldIndex()}];
      const auto &VO = PT.valueObjects(A->getRHS());
      Set.insert(VO.begin(), VO.end());
    });
  }
  for (const auto &Key : PtrFields) {
    auto It = FieldPts.find(Key);
    std::set<uint32_t> Objs =
        It == FieldPts.end() ? std::set<uint32_t>() : It->second;
    if (slotNeedsSpan(Objs)) {
      PointerSlot Slot;
      Slot.Struct = Key.first;
      Slot.FieldIdx = Key.second;
      Cx.FatSlots.insert(Slot);
    }
  }

  // Translation tables become valid from here on.
  Cx.computeChangingStructs();

  // --- Table 3 integer span rule: difference variables (i = p - q). ------
  // A reconstruction r = q + i must take p's span (q + (p - q) IS p), so
  // integer variables that only ever receive pointer differences get a
  // shadow span variable carrying the minuend's span. Tracking is
  // conservative: the variable must be a non-address-taken int local or
  // global (never written through an alias), every assignment to it must be
  // a pointer difference whose minuend span is derivable (structurally from
  // a fat slot or as a constant), and it must actually flow back into
  // pointer arithmetic somewhere — otherwise rule 1 stays in effect.
  {
    auto stripIntCasts = [](Expr *Ex) {
      while (auto *C = dyn_cast<CastExpr>(Ex))
        Ex = C->getSub();
      return Ex;
    };
    auto asPtrDifference = [&](Expr *Ex) -> BinaryExpr * {
      auto *Bin = dyn_cast<BinaryExpr>(stripIntCasts(Ex));
      if (Bin && Bin->getOp() == BinaryOp::Sub &&
          Bin->getLHS()->getType()->isPointer() &&
          Bin->getRHS()->getType()->isPointer())
        return Bin;
      return nullptr;
    };
    // Minuend span derivable structurally: a load of a slot that will be
    // promoted to a fat pointer (its .span sibling exists after rewrite).
    auto minuendSpanIsStructural = [&](Expr *Ex) {
      auto *L = dyn_cast<LoadExpr>(stripIntCasts(Ex));
      if (!L)
        return false;
      if (auto *V = dyn_cast<VarRefExpr>(L->getLocation())) {
        PointerSlot Slot;
        Slot.Var = V->getDecl();
        return Cx.FatSlots.count(Slot) != 0;
      }
      if (auto *FA = dyn_cast<FieldAccessExpr>(L->getLocation())) {
        auto *ST = dyn_cast<StructType>(FA->getBase()->getType());
        if (!ST)
          return false;
        PointerSlot Slot;
        Slot.Struct = ST;
        Slot.FieldIdx = FA->getFieldIndex();
        return Cx.FatSlots.count(Slot) != 0;
      }
      return false;
    };

    // Constant span of a difference's minuend, when all relevant pointees
    // agree on one (post-translation) size.
    auto minuendConstSpan = [&](Expr *Minuend) -> std::optional<int64_t> {
      const auto &Objs = PT.valueObjects(Minuend);
      std::set<uint32_t> Rel = intersect(Objs, E);
      if (Rel.empty())
        Rel = Objs;
      if (Rel.empty())
        return std::nullopt;
      return commonConstSize(Cx, PT, Rel, /*Translated=*/true);
    };

    // Variables consumed by pointer arithmetic (q + i / i + q): the only
    // places a difference span is ever read back. Inline differences
    // (r = q + (p - q)) get their minuend's constant fallback recorded here,
    // keyed by the Sub node itself.
    std::set<const VarDecl *> AddedToPointer;
    for (Function *F : M.getFunctions()) {
      walkExprs(F, [&](Expr *Ex) {
        auto *Bin = dyn_cast<BinaryExpr>(Ex);
        if (!Bin || Bin->getOp() != BinaryOp::Add ||
            !Bin->getType()->isPointer())
          return;
        for (Expr *Op : {Bin->getLHS(), Bin->getRHS()}) {
          if (auto *L = dyn_cast<LoadExpr>(stripIntCasts(Op))) {
            if (auto *V = dyn_cast<VarRefExpr>(L->getLocation()))
              if (V->getDecl()->getType()->isInt())
                AddedToPointer.insert(V->getDecl());
          } else if (BinaryExpr *Sub = asPtrDifference(Op)) {
            if (auto CS = minuendConstSpan(Sub->getLHS()))
              Cx.InlineDiffSpanFallback[Sub] = *CS;
          }
        }
      });
    }

    struct DiffCandidate {
      bool Eligible = true;
      Function *Owner = nullptr;
      std::vector<AssignStmt *> Assigns;
    };
    std::map<uint32_t, DiffCandidate> Candidates; // keyed by var id: the
    // shadow creation below must iterate deterministically, not by pointer.
    std::map<const VarDecl *, uint32_t> IdOf;
    for (uint32_t Id = 1; Id <= M.getNumVarDecls(); ++Id)
      IdOf[M.getVarDecl(Id)] = Id;

    for (Function *F : M.getFunctions()) {
      if (!F->getBody())
        continue;
      walkStmts(F->getBody(), [&](Stmt *S) {
        auto *A = dyn_cast<AssignStmt>(S);
        if (!A)
          return;
        auto *VR = dyn_cast<VarRefExpr>(A->getLHS());
        if (!VR || !VR->getDecl()->getType()->isInt())
          return;
        VarDecl *V = VR->getDecl();
        if (!AddedToPointer.count(V))
          return;
        DiffCandidate &C = Candidates[IdOf[V]];
        BinaryExpr *Sub = asPtrDifference(A->getRHS());
        if (!Sub || V->isParam() || AddressTaken.count(V)) {
          C.Eligible = false;
          return;
        }
        // The minuend's span must be obtainable at rewrite time, either
        // structurally or as a constant fallback.
        Expr *Minuend = Sub->getLHS();
        std::optional<int64_t> CS = minuendConstSpan(Minuend);
        if (!CS && !minuendSpanIsStructural(Minuend)) {
          C.Eligible = false;
          return;
        }
        C.Owner = F;
        C.Assigns.push_back(A);
        if (CS)
          Cx.DiffSpanFallback[A] = *CS;
      });
    }

    for (auto &[Id, C] : Candidates) {
      VarDecl *V = M.getVarDecl(Id);
      if (!C.Eligible || C.Assigns.empty())
        continue;
      VarDecl *Shadow;
      if (V->isLocal()) {
        Shadow = M.createVar(V->getName() + "$span", Cx.types().getInt64(),
                             VarDecl::Storage::Local);
        C.Owner->addLocal(Shadow);
      } else {
        Shadow = M.addGlobal(V->getName() + "$span", Cx.types().getInt64());
      }
      Cx.DiffSpanVars[V] = Shadow;
    }
  }

  // --- Per-access plans. --------------------------------------------------
  for (const AccessDesc &D : Num.accesses()) {
    const auto &R = Roots[D.Id];
    if (R.empty() || intersect(R, E).empty())
      continue;
    AccessPlan Plan;
    Plan.Redirect = true;
    Plan.Private = Result.PrivateAccesses.count(D.Id) != 0;
    if (auto C = commonConstSize(Cx, PT, R, /*Translated=*/true))
      Plan.ConstSpan = *C;
    Cx.Plans[D.Id] = Plan;
  }

  // --- Fallback constant spans for pointer definitions. ------------------
  for (Function *F : M.getFunctions()) {
    if (!F->getBody())
      continue;
    walkStmts(F->getBody(), [&](Stmt *S) {
      auto *A = dyn_cast<AssignStmt>(S);
      if (!A || !A->getRHS()->getType()->isPointer())
        return;
      const auto &Objs = PT.valueObjects(A->getRHS());
      std::set<uint32_t> Rel = intersect(Objs, E);
      if (Rel.empty())
        Rel = Objs;
      if (Rel.empty())
        return;
      if (auto C = commonConstSize(Cx, PT, Rel, /*Translated=*/true))
        Cx.AssignConstSpan[A] = *C;
    });
    walkExprs(F, [&](Expr *Ex) {
      auto *C = dyn_cast<CallExpr>(Ex);
      if (!C || C->isBuiltin())
        return;
      for (unsigned I = 0, NumA = C->getNumArgs(); I != NumA; ++I) {
        if (!C->getArg(I)->getType()->isPointer())
          continue;
        const auto &Objs = PT.valueObjects(C->getArg(I));
        std::set<uint32_t> Rel = intersect(Objs, E);
        if (Rel.empty())
          Rel = Objs;
        if (Rel.empty())
          continue;
        if (auto CS = commonConstSize(Cx, PT, Rel, /*Translated=*/true))
          Cx.CallArgConstSpan[{C, I}] = *CS;
      }
    });
  }

  // --- Rewrite. -----------------------------------------------------------
  Cx.runPromotion();
  if (Cx.failed())
    return Result;
  Cx.runExpansionAndRedirection();
  if (Cx.failed())
    return Result;

  // --- Commutative merge synthesis. ---------------------------------------
  // The helpers are appended as new module functions — AccessNumbering
  // numbers them after every existing loop and access, so the profiled ids
  // of other candidate loops in this module stay stable — and called around
  // the target loop. Copies 1..N-1 take the op's identity at loop entry;
  // copy 0 keeps the pre-loop value and absorbs the others in serial copy
  // order at loop exit, so `v0 op x1 op ... op xk` is only reassociated,
  // never reordered across a non-identity — exact for wrap-around integer
  // + and *, idempotent for min/max. Under guard fallback the loop-entry
  // checkpoint lands after the init calls: rollback restores identities,
  // the serial re-run accumulates on copy 0, and the merge degenerates to
  // a no-op.
  if (!CommObjs.empty()) {
    TypeContext &Ctx = Cx.types();
    IRBuilder &B = Cx.B;
    std::vector<Stmt *> InitCalls, MergeCalls;
    for (const auto &Entry : CommObjs) {
      uint32_t Obj = Entry.first;
      VarDecl *V = Entry.second.Var;
      CommutativeOp Op = Entry.second.Op;
      auto BIt = Cx.ConvertedBacking.find(V);
      if (BIt == Cx.ConvertedBacking.end()) {
        Cx.error("commutative object '" + V->getName() +
                 "' has no converted backing");
        return Result;
      }
      VarDecl *Backing = BIt->second;
      Type *CopyTy = V->getType(); // already translated; int or int[]
      Type *ElemTy = CopyTy;
      int64_t NumElems = 1;
      if (auto *AT = dyn_cast<ArrayType>(CopyTy)) {
        ElemTy = AT->getElement();
        NumElems = static_cast<int64_t>(AT->getNumElements());
      }
      auto *IT = cast<IntType>(ElemTy);
      int64_t TypeMax =
          IT->isSigned()
              ? (IT->getBits() >= 64
                     ? INT64_MAX
                     : (int64_t(1) << (IT->getBits() - 1)) - 1)
              : (IT->getBits() >= 64 ? int64_t(-1)
                                     : (int64_t(1) << IT->getBits()) - 1);
      int64_t TypeMin = IT->isSigned()
                            ? (IT->getBits() >= 64
                                   ? INT64_MIN
                                   : -(int64_t(1) << (IT->getBits() - 1)))
                            : 0;
      int64_t Identity = 0;
      switch (Op) {
      case CommutativeOp::Add:
        Identity = 0;
        break;
      case CommutativeOp::Mul:
        Identity = 1;
        break;
      case CommutativeOp::Min:
        Identity = TypeMax;
        break;
      case CommutativeOp::Max:
        Identity = TypeMin;
        break;
      case CommutativeOp::None:
        break;
      }

      Type *PtrElem = Ctx.getPointerType(ElemTy);
      FunctionType *FT = Ctx.getFunctionType(Ctx.getVoidType(), {PtrElem});

      // Builds one helper over the N-copy block: for every copy t in
      // 1..N-1 (and every element for arrays), Emit produces the statement
      // over fresh l-values — LV(true) addresses copy t's element, LV(false)
      // copy 0's.
      auto makeHelper =
          [&](const std::string &Name,
              const std::function<Stmt *(const std::function<Expr *(bool)> &)>
                  &Emit) -> Function * {
        Function *F = M.createFunction(Name, FT);
        VarDecl *P = M.createVar("p", PtrElem, VarDecl::Storage::Param);
        F->addParam(P);
        VarDecl *TV =
            M.createVar("t", Ctx.getInt32(), VarDecl::Storage::Local);
        F->addLocal(TV);
        VarDecl *EV = NumElems == 1
                          ? nullptr
                          : M.createVar("e", Ctx.getInt32(),
                                        VarDecl::Storage::Local);
        if (EV)
          F->addLocal(EV);
        // Flat element index of element e in copy c: bonded copies are
        // whole-structure adjacent (c*NumElems + e), interleaved replicates
        // per element (e*N + c).
        auto LV = [&, P, TV, EV](bool CopyT) -> Expr * {
          Expr *CopyIdx = CopyT ? static_cast<Expr *>(B.loadVar(TV))
                                : static_cast<Expr *>(B.intLit(0));
          if (!EV)
            return B.index(B.loadVar(P), CopyIdx);
          Expr *Flat =
              Cx.Opts.Layout == LayoutMode::Bonded
                  ? B.add(B.mul(CopyIdx,
                                B.intLit(NumElems, Ctx.getInt64())),
                          B.loadVar(EV))
                  : B.add(B.mul(B.loadVar(EV),
                                B.convert(B.numThreads(), Ctx.getInt64())),
                          CopyIdx);
          return B.index(B.loadVar(P), Flat);
        };
        Stmt *Inner = Emit(LV);
        if (EV)
          Inner = B.forStmt(EV, B.intLit(0), B.intLit(NumElems), B.intLit(1),
                            B.block({Inner}));
        Stmt *Loop = B.forStmt(TV, B.intLit(1), B.numThreads(), B.intLit(1),
                               B.block({Inner}));
        F->setBody(B.block({Loop}));
        return F;
      };

      Function *InitF = makeHelper(
          formatString("__gdse_comm_init_l%u_o%u", LoopId, Obj),
          [&](const std::function<Expr *(bool)> &LV) -> Stmt * {
            return B.assign(LV(true), B.intLit(Identity, ElemTy));
          });
      Function *MergeF = makeHelper(
          formatString("__gdse_comm_merge_l%u_o%u", LoopId, Obj),
          [&](const std::function<Expr *(bool)> &LV) -> Stmt * {
            switch (Op) {
            case CommutativeOp::Add:
              return B.assign(LV(false),
                              B.add(B.load(LV(false)), B.load(LV(true))));
            case CommutativeOp::Mul:
              return B.assign(LV(false),
                              B.mul(B.load(LV(false)), B.load(LV(true))));
            case CommutativeOp::Min:
              return B.ifStmt(
                  B.lt(B.load(LV(true)), B.load(LV(false))),
                  B.block({B.assign(LV(false), B.load(LV(true)))}));
            case CommutativeOp::Max:
              return B.ifStmt(
                  B.binary(BinaryOp::Gt, B.load(LV(true)), B.load(LV(false))),
                  B.block({B.assign(LV(false), B.load(LV(true)))}));
            case CommutativeOp::None:
              break;
            }
            gdse_unreachable("bad commutative op");
          });

      InitCalls.push_back(B.exprStmt(
          B.call(InitF, {B.castTo(B.loadVar(Backing), PtrElem)})));
      MergeCalls.push_back(B.exprStmt(
          B.call(MergeF, {B.castTo(B.loadVar(Backing), PtrElem)})));
    }

    // Splice the calls around the loop statement (verified to exist at
    // selection time; rewrites replace bodies, never the loop node itself).
    BlockStmt *Parent = nullptr;
    size_t Idx = 0;
    walkStmts(Cx.LoopFunction->getBody(), [&](Stmt *S) {
      if (auto *Blk = dyn_cast<BlockStmt>(S)) {
        auto &Sv = Blk->getStmts();
        for (size_t I = 0; I < Sv.size(); ++I)
          if (Sv[I] == Cx.TargetLoop) {
            Parent = Blk;
            Idx = I;
          }
      }
    });
    if (!Parent) {
      Cx.error("commutative synthesis lost the target loop's parent block");
      return Result;
    }
    std::vector<Stmt *> Wrapped = std::move(InitCalls);
    Wrapped.push_back(Cx.TargetLoop);
    Wrapped.insert(Wrapped.end(), MergeCalls.begin(), MergeCalls.end());
    Parent->getStmts()[Idx] = B.block(std::move(Wrapped));
  }

  std::vector<std::string> VerifyErrs = verifyModule(M);
  for (const std::string &Err : VerifyErrs)
    Cx.error("post-expansion verification: " + Err);
  if (Cx.failed())
    return Result;

  // NOTE: access ids are deliberately NOT renumbered: the surviving nodes
  // keep the ids of the profiled module, so the planner can match the
  // dependence graph's vertices against the transformed loop body.
  Result.Ok = true;

  // --- Guarded-execution metadata. ---------------------------------------
  // Record what this transformation claimed, so the runtime can validate it:
  // the class of every access redirected to a private copy, and the
  // allocation sites whose blocks hold the N per-thread copies.
  if (!Result.PrivateAccesses.empty() && !Cx.BackingSiteIds.empty()) {
    // Static privatization witness: a class whose every member the witness
    // proved private carries a compile-time proof of Definition 5's
    // conditions (1)+(2) — runtime validation of it is redundant, so its
    // accesses are elided from the plan. The per-access proofs are
    // independent of how the source graph partitioned accesses, so the
    // pruning is sound even against an external (possibly wrong) graph: a
    // class the graph mislabels private has an unprovable member and keeps
    // its guards.
    const PrivatizationWitness *W =
        Opts.GuardPruning ? Inputs.Witness : nullptr;
    if (W && W->unmodeled())
      W = nullptr;
    std::set<unsigned> PrunedClasses;
    if (W)
      for (unsigned CI = 0; CI != Classes.classes().size(); ++CI) {
        const AccessClassInfo &C = Classes.classes()[CI];
        if (!C.Private)
          continue;
        bool AllProven = true;
        for (AccessId Id : C.Members)
          AllProven &= W->provenPrivate(Id);
        if (AllProven)
          PrunedClasses.insert(CI);
      }

    auto GP = std::make_shared<GuardPlan>();
    GP->LoopId = LoopId;
    GP->NumClasses = static_cast<unsigned>(Classes.classes().size());
    // Only accesses actually REDIRECTED into a per-thread copy: a private
    // class can also contain accesses to per-iteration locals or unpromoted
    // slots that never touch an expanded block — those are private by
    // construction, not by this rewrite, and the guard must not expect them
    // inside a guarded region.
    for (AccessId Id : Result.PrivateAccesses) {
      auto It = Cx.Plans.find(Id);
      if (It == Cx.Plans.end() || !It->second.Redirect || !It->second.Private)
        continue;
      unsigned CI = Classes.classOf(Id);
      if (CommAccesses.count(Id)) {
        // Commutative members are validated in commit-time-merge mode (the
        // region is watched for foreign touches, not first writes) and are
        // never witness-pruned: the commutativity proof is exactly what the
        // guard is there to check.
        GP->CommClassOf[Id] = CI;
        continue;
      }
      if (PrunedClasses.count(CI)) {
        ++Result.Stats.GuardAccessesElided;
        continue;
      }
      GP->PrivateClassOf[Id] = CI;
    }
    // Backing sites of the commutative objects anchor the watched regions;
    // they carry no first-write shadow and must not look like ordinary
    // guarded regions.
    std::map<uint32_t, unsigned> CommSiteOf;
    for (uint32_t Site : Cx.BackingSiteIds)
      if (auto BIt = Cx.BackingVarOf.find(Site);
          BIt != Cx.BackingVarOf.end()) {
        auto CIt = CommObjs.find(PT.objectOfVar(BIt->second));
        if (CIt != CommObjs.end())
          CommSiteOf[Site] = CIt->second.ClassIdx;
      }
    GP->CommSiteClass = CommSiteOf;
    // A region only exists to validate the claimed accesses that may land
    // in it: a backing site whose pre-expansion object no surviving claimed
    // access may touch (per the same points-to roots the targeting used)
    // needs no first-write shadow. Objects are mapped through the ORIGINAL
    // module: expanded heap sites keep their site ids, converted variables
    // are recorded by the rewrite.
    if (PrunedClasses.empty()) {
      for (uint32_t Site : Cx.BackingSiteIds)
        if (!CommSiteOf.count(Site))
          GP->RegionSites.insert(Site);
    } else {
      std::set<uint32_t> GuardedObjs;
      for (const auto &[Id, CI] : GP->PrivateClassOf) {
        const auto &R = Roots[Id];
        GuardedObjs.insert(R.begin(), R.end());
      }
      for (uint32_t Site : Cx.BackingSiteIds) {
        if (CommSiteOf.count(Site))
          continue;
        uint32_t Obj = UINT32_MAX;
        if (auto BIt = Cx.BackingVarOf.find(Site);
            BIt != Cx.BackingVarOf.end())
          Obj = PT.objectOfVar(BIt->second);
        else if (PT.hasSite(Site))
          Obj = PT.objectOfSite(Site);
        if (Obj != UINT32_MAX && !GuardedObjs.count(Obj)) {
          ++Result.Stats.GuardRegionsElided;
          continue;
        }
        GP->RegionSites.insert(Site);
      }
    }
    if (!GP->empty())
      Result.Guard = GP;
  }
  return Result;
}
