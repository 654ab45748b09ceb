//===- ExpansionImpl.h - Shared state of the expansion pipeline -*- C++ -*-===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Internal header: the ExpansionContext carries every decision the driver
/// makes up front on the *original* module (expansion targets, fat-pointer
/// slots, per-access redirection plans, constant spans), so the rewriting
/// passes never consult stale analysis results on rewritten trees.
///
//===----------------------------------------------------------------------===//

#ifndef GDSE_EXPAND_EXPANSIONIMPL_H
#define GDSE_EXPAND_EXPANSIONIMPL_H

#include "expand/Expansion.h"
#include "ir/IRBuilder.h"

#include <map>
#include <optional>
#include <set>

namespace gdse {

/// A pointer-typed storage slot: either a variable or a struct field.
struct PointerSlot {
  VarDecl *Var = nullptr;      ///< non-null for variable slots
  StructType *Struct = nullptr; ///< non-null for field slots
  unsigned FieldIdx = 0;

  bool isField() const { return Struct != nullptr; }
  auto key() const { return std::make_tuple(Var, Struct, FieldIdx); }
  bool operator<(const PointerSlot &O) const { return key() < O.key(); }
};

/// Per-access redirection decision, made on the original module.
struct AccessPlan {
  bool Redirect = false;
  /// Thread-private (index tid) vs shared (index 0).
  bool Private = false;
  /// Statically known span (post-translation bytes) of every structure this
  /// access may touch; -1 when unknown.
  int64_t ConstSpan = -1;
};

struct ExpansionContext {
  Module &M;
  IRBuilder B;
  const LoopDepGraph &G;
  const ExpansionOptions &Opts;
  ExpansionResult &Result;

  /// The target loop and the function containing it.
  ForStmt *TargetLoop = nullptr;
  Function *LoopFunction = nullptr;

  /// Expanded memory objects (closure), as PointsTo object ids.
  std::set<uint32_t> ExpandedObjs;
  /// Expanded variables (locals/globals) and heap sites, resolved. Ordered by
  /// declaration/site id, not pointer value, so conversion order — and with it
  /// the names and statement order of the generated backings — is a function
  /// of the input program alone, never of heap allocation history. compileBatch
  /// promises bit-identical output across schedules; this is where it's earned.
  struct VarIdLess {
    bool operator()(const VarDecl *A, const VarDecl *B) const {
      return A->getId() < B->getId();
    }
  };
  struct SiteIdLess {
    bool operator()(const CallExpr *A, const CallExpr *B) const {
      return A->getSiteId() < B->getSiteId();
    }
  };
  std::set<VarDecl *, VarIdLess> ExpandedVars;
  std::set<CallExpr *, SiteIdLess> ExpandedSites;

  /// Pointer slots promoted to fat pointers.
  std::set<PointerSlot> FatSlots;

  /// Per-access plans, keyed by AccessId.
  std::map<AccessId, AccessPlan> Plans;
  /// Fallback constant spans (post-translation bytes) for pointer values
  /// whose span cannot be derived structurally: keyed by the defining
  /// statement / call argument on the original tree.
  std::map<const AssignStmt *, int64_t> AssignConstSpan;
  std::map<std::pair<const CallExpr *, unsigned>, int64_t> CallArgConstSpan;

  /// Table 3's integer span rule: integer variables that only ever receive
  /// pointer differences (i = p - q) and are later added back to a pointer.
  /// Each maps to a shadow span variable updated after every difference
  /// assignment with the MINUEND's span, so a reconstruction r = q + i gets
  /// p's structure span (q + (p - q) is p), not q's — the two may point
  /// into different structures with different spans.
  std::map<VarDecl *, VarDecl *> DiffSpanVars;
  /// Constant fallback span of the minuend per difference assignment.
  std::map<const AssignStmt *, int64_t> DiffSpanFallback;
  /// Same, for inline differences (r = q + (p - q)): keyed by the Sub node,
  /// since there is no tracked variable to hang the fallback on.
  std::map<const BinaryExpr *, int64_t> InlineDiffSpanFallback;

  /// Type translation memo (original type -> rewritten type).
  std::map<Type *, Type *> TranslateMemo;
  /// Struct types whose translated version differs.
  std::set<StructType *> ChangingStructs;
  /// Fat struct for a translated pointee pointer type.
  std::map<Type *, StructType *> FatStructs;

  /// Variables converted to heap backing (expanded locals/globals):
  /// original decl -> the new pointer variable holding the N-copy block.
  std::map<VarDecl *, VarDecl *> ConvertedBacking;

  /// Call-site ids of every N-copy allocation the rewrite produced or
  /// repurposed: the expanded heap sites plus the backing mallocs created
  /// for converted locals/globals. These become GuardPlan::RegionSites.
  std::set<uint32_t> BackingSiteIds;
  /// For backing mallocs of converted locals/globals: new site id -> the
  /// ORIGINAL variable whose storage the block replaces. Lets the driver
  /// map each backing site to its pre-expansion PointsTo object when
  /// pruning guard regions (expanded heap sites keep their original ids
  /// and need no entry).
  std::map<uint32_t, VarDecl *> BackingVarOf;

  /// Parameter indices (original positions) promoted per function.
  std::map<const Function *, std::set<unsigned>> FatParamsOf;

  /// Pointer locals that are assigned once at function entry and never
  /// change afterwards (converted backings and their aliases): safe roots
  /// for hoisting redirection addresses to the top of the loop body.
  std::set<VarDecl *> StableBases;

  /// Structured diagnostic sink. Attribution (pass name, loop id) comes
  /// from the DiagnosticScope expandLoop pushes.
  DiagnosticEngine &DE;
  bool Failed = false;

  ExpansionContext(Module &M, const LoopDepGraph &G,
                   const ExpansionOptions &Opts, ExpansionResult &Result,
                   DiagnosticEngine &DE)
      : M(M), B(M), G(G), Opts(Opts), Result(Result), DE(DE) {}

  void error(const std::string &Msg) {
    DE.error(Msg);
    Failed = true;
  }
  bool failed() const { return Failed; }

  TypeContext &types() { return M.getTypes(); }

  //===--------------------------------------------------------------------===//
  // Type translation and fat pointers (Figs. 5-6) — Promote.cpp
  //===--------------------------------------------------------------------===//

  /// Rewritten version of \p T (promoted struct bodies, translated pointees).
  Type *translateType(Type *T);
  /// The fat struct {pointer, span} for (translated) pointer type \p PtrTy.
  StructType *fatStructFor(Type *TranslatedPtrTy);
  /// True when \p T is one of the fat structs this pass created.
  bool isFatStruct(Type *T) const;
  /// Fixpoint over struct bodies; fills ChangingStructs.
  void computeChangingStructs();

  /// Runs declaration promotion, reference rewriting, and Table 3 span
  /// insertion over the whole module.
  void runPromotion();

  //===--------------------------------------------------------------------===//
  // Expansion and redirection (Tables 1-2) — Expand.cpp
  //===--------------------------------------------------------------------===//

  /// Multiplies heap sites by N, converts expanded locals/globals to
  /// heap-backed N-copy blocks, and redirects accesses per the plans.
  void runExpansionAndRedirection();

  /// LICM stand-in: hoists per-iteration-invariant redirection addresses to
  /// the top of the target loop body (see Expand.cpp).
  void hoistRedirectionBases();

  //===--------------------------------------------------------------------===//
  // Shared helpers
  //===--------------------------------------------------------------------===//

  /// Statically evaluates \p E as a byte size, interpreting sizeof under
  /// type translation. Returns std::nullopt when not constant.
  std::optional<int64_t> evalConstSize(const Expr *E);

  /// Builds the span (in bytes) of the structure the pointer value \p V
  /// points into, structurally (Table 3 source forms); \p Fallback is the
  /// precomputed constant span or -1. Null on failure.
  Expr *spanExprForValue(Expr *V, int64_t Fallback);

  /// The integer span rule's read side: when \p V (stripped of integer
  /// casts) is a tracked difference variable's load or an inline pointer
  /// difference, returns the span of the structure the difference points
  /// back into (the shadow variable / the minuend's span). Null otherwise.
  Expr *diffSpanForValue(Expr *V, int64_t Fallback);
};

} // namespace gdse

#endif // GDSE_EXPAND_EXPANSIONIMPL_H
