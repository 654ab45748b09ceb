//===- Pipeline.h - Pipeline options and per-loop results -------*- C++ -*-===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The whole tool of Figure 7 — profile the candidate loop (dependence
/// graph), classify accesses, privatize (by compile-time expansion or by the
/// runtime-privatization baseline), and plan the parallel execution — as
/// options plus a per-loop result record. Orchestration lives in
/// CompilationSession.h, the header clients include.
///
//===----------------------------------------------------------------------===//

#ifndef GDSE_DRIVER_PIPELINE_H
#define GDSE_DRIVER_PIPELINE_H

#include "driver/AnalysisManager.h"
#include "expand/Expansion.h"
#include "parallel/Planner.h"
#include "support/Diagnostics.h"

namespace gdse {

/// How to remove the private-class contention.
enum class PrivatizationMethod : uint8_t {
  Expansion, ///< the paper's compile-time general data structure expansion
  Runtime,   ///< the SpiceC-style runtime access-control baseline (§4.2.1)
  None,      ///< leave private classes alone (everything becomes residual)
};

struct PipelineOptions {
  PrivatizationMethod Method = PrivatizationMethod::Expansion;
  ExpansionOptions Expansion;
  std::string Entry = "main";
  GraphSource Source = GraphSource::Profile;
  /// Required when Source == External: the verified graph for this loop.
  const LoopDepGraph *ExternalGraph = nullptr;
  /// Run the dependence audit (minic --audit-deps): diff the source graph's
  /// privatization claims against the static witness before transforming,
  /// reporting refuted and unsupportable claims as structured warnings.
  bool AuditDeps = false;
};

struct PipelineResult {
  bool Ok = false;
  /// Every diagnostic (all severities) emitted while compiling this loop,
  /// each attributed with the emitting pass and the loop id.
  std::vector<Diagnostic> Diags;
  unsigned LoopId = 0;
  LoopDepGraph Graph;
  AccessBreakdown Breakdown;
  std::set<AccessId> PrivateAccesses;
  ExpansionStats Expansion;
  PlanResult Plan;
  unsigned RtPrivWrapped = 0;
  /// Guarded-execution metadata produced by the expansion stage (null when
  /// nothing was privatized or Method != Expansion). Hand to
  /// InterpOptions::GuardPlans to validate the privatization at run time.
  std::shared_ptr<const GuardPlan> Guard;
  /// Dependence-audit tallies (all zero unless PipelineOptions::AuditDeps):
  /// privatization claims of the source graph that were checked, refuted by
  /// the static witness (the trust report's failures), confirmed outright,
  /// and not statically supportable (guards stay, but nothing is wrong).
  unsigned AuditChecked = 0;
  unsigned AuditRefuted = 0;
  unsigned AuditConfirmed = 0;
  unsigned AuditUnsupported = 0;
};

} // namespace gdse

#endif // GDSE_DRIVER_PIPELINE_H
