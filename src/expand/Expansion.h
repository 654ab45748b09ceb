//===- Expansion.h - General data structure expansion (the paper) *- C++ -*-===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's core contribution: given a target loop and its verified
/// loop-level data dependence graph, rewrite the program so that every
/// thread-private access class (Definition 5) operates on a per-thread copy
/// of the data structures it touches, leaving shared accesses on copy 0.
///
/// Pipeline (ExpansionDriver):
///   1. Access classes + Definition 5 classification (analysis/).
///   2. Expansion target selection: the closure of memory objects reachable
///      from private accesses (§3.4's alias-analysis-based selectivity).
///   3. Pointer promotion to fat pointers {pointer, span} (Figs. 5-6) and
///      span-computation statement insertion (Table 3).
///   4. Type expansion x N (Table 1): heap allocation sites multiply their
///      size; expanded locals and globals are converted to heap-backed
///      N-copy blocks (bonded or interleaved layout, Fig. 2).
///   5. Access redirection (Table 2): private accesses index copy `tid`,
///      shared accesses copy 0; pointer dereferences become
///      *(p + tid*span/sizeof(*p)).
///   6. Overhead optimizations (§3.4): dead span-store elimination, span
///      constant propagation (constant spans never materialize fat
///      pointers), selective promotion.
///
//===----------------------------------------------------------------------===//

#ifndef GDSE_EXPAND_EXPANSION_H
#define GDSE_EXPAND_EXPANSION_H

#include "analysis/AccessClasses.h"
#include "analysis/DepGraph.h"
#include "analysis/PointsTo.h"
#include "interp/Guard.h"
#include "ir/AccessInfo.h"
#include "support/Diagnostics.h"

#include <memory>
#include <set>
#include <string>
#include <vector>

namespace gdse {

class PrivatizationWitness;

/// Figure 2's two replication layouts.
enum class LayoutMode : uint8_t {
  /// Whole-structure copies adjacent in memory (the paper's default: works
  /// under type recasts, better locality for coarse-grain threads).
  Bonded,
  /// Per-primitive-member replication. Fails on recast structures (the
  /// paper's 256.bzip2 zptr example) and on dereferences of pointers into
  /// the middle of a structure; the pass reports those as errors.
  Interleaved,
};

struct ExpansionOptions {
  LayoutMode Layout = LayoutMode::Bonded;
  /// §3.4: only promote pointers that may reference expanded structures.
  /// When false, every pointer slot in the program is promoted (the
  /// "without optimizations" configuration of Figure 9a).
  bool SelectivePromotion = true;
  /// §3.4: pointers whose span is a compile-time constant are not promoted;
  /// redirection uses the constant directly.
  bool SpanConstantPropagation = true;
  /// §3.4: do not emit (and remove) span self-stores such as the
  /// p.span = p.span after p = p + 1.
  bool DeadSpanStoreElimination = true;
  /// Prune the guard plan with the static privatization witness (when one
  /// is supplied via ExpansionInputs::Witness): classes proven private at
  /// compile time are dropped from the plan, and regions only they touch
  /// emit no guarded shadow at all. Disable to keep the full plan — the
  /// fault-injection tests need guards on claims a witness could discharge.
  bool GuardPruning = true;
  /// Expand proven-commutative classes (reductions) onto per-thread copies:
  /// copies 1..N-1 are initialized to the op's identity at loop entry and
  /// folded into copy 0 in serial copy order at loop exit, by synthesized
  /// module-level init/merge helpers. Requires a privatization witness
  /// (ExpansionInputs::Witness); without one the option is inert.
  bool CommutativePrivatization = true;
};

struct ExpansionStats {
  /// Number of distinct data structures (memory objects) expanded — the
  /// per-benchmark count of Table 5.
  unsigned ExpandedObjects = 0;
  unsigned PromotedPointerSlots = 0;
  unsigned SpanStoresInserted = 0;
  unsigned SpanStoresEliminated = 0;
  unsigned PrivateAccessesRedirected = 0;
  unsigned SharedAccessesRedirected = 0;
  /// Guard-plan pruning (static privatization witness): accesses of proven
  /// classes dropped from GuardPlan::PrivateClassOf, and expanded
  /// allocation sites that consequently emit no guarded region.
  unsigned GuardAccessesElided = 0;
  unsigned GuardRegionsElided = 0;
  /// Commutative privatization: reduction classes expanded onto per-thread
  /// copies with a synthesized identity-init + serial-order merge.
  unsigned CommutativeClasses = 0;
  unsigned CommutativeObjects = 0;
};

struct ExpansionResult {
  /// False after any error, each reported to expandLoop's DiagnosticEngine.
  bool Ok = false;
  ExpansionStats Stats;
  /// Private access ids (Definition 5) the transformation honored.
  std::set<AccessId> PrivateAccesses;
  /// Guarded-execution metadata (see Guard.h): the byte ranges each
  /// privatized access class claimed private — every expanded allocation
  /// site (original heap sites multiplied by N plus the backing mallocs of
  /// converted locals/globals) and the class of every private access. Set
  /// only on success; consumed by InterpOptions::GuardPlans.
  std::shared_ptr<const GuardPlan> Guard;
};

/// Precomputed analysis results an analysis manager can hand to expandLoop
/// so nothing is recomputed. Every field is optional; whatever is missing is
/// computed locally. Provided results must describe the CURRENT
/// (pre-expansion) state of the module.
struct ExpansionInputs {
  const AccessNumbering *Num = nullptr;
  const PointsTo *PT = nullptr;
  const AccessClasses *Classes = nullptr;
  /// Static privatization witness for the target loop (same access ids as
  /// \p G). When set and ExpansionOptions::GuardPruning is on, classes the
  /// witness proves private are elided from the guard plan.
  const PrivatizationWitness *Witness = nullptr;
};

/// Applies general data structure expansion to the loop \p LoopId of \p M,
/// driven by the dependence graph \p G obtained for that loop. On success
/// the module is rewritten in place (and re-verified); on failure the module
/// must be discarded (it may be partially rewritten). Errors are reported to
/// \p DE, attributed to pass "expansion" and the target loop.
ExpansionResult expandLoop(Module &M, unsigned LoopId, const LoopDepGraph &G,
                           DiagnosticEngine &DE,
                           const ExpansionOptions &Opts = ExpansionOptions(),
                           const ExpansionInputs &Inputs = ExpansionInputs());

} // namespace gdse

#endif // GDSE_EXPAND_EXPANSION_H
