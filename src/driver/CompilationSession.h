//===- CompilationSession.h - Multi-loop batch compilation ------*- C++ -*-===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One CompilationSession owns everything derived from one module while the
/// Figure 7 tool runs over it:
///
///  - an AnalysisManager caching per-module (numbering, points-to) and
///    per-(loop, graph-source) results (dependence graphs, Definition 4/5
///    classes), with invalidation driven by the transform stages;
///  - a DiagnosticEngine accumulating structured diagnostics (severity,
///    pass name, loop id) across every stage;
///  - a TimingRegistry giving every stage and cached analysis automatic
///    wall-clock + VM-cycle timing and named counters (`-time-passes` /
///    `-stats`-style reports).
///
/// The session supports multi-loop batch compilation: compileAll() expands
/// every candidate loop of the module in one pass over the IR, with the
/// profiler invoked at most once per (loop, graph source) — analyses are
/// reused from cache until a transform stage actually changes the IR.
///
/// compileBatch() scales this across MODULES: independent (module, loops)
/// units are distributed over a fixed-size worker pool. Units of the same
/// module share one session (and its caches) and run serially in submission
/// order on one worker — transform stages mutate the module — while units
/// of different modules compile fully in parallel. Each worker buffers
/// diagnostics and timing into its unit's own session; the buffers are
/// merged in deterministic unit order at the join point, so the batch
/// output is bit-identical to a serial run regardless of worker count or
/// scheduling.
///
/// A session has no locks: one thread owns it at a time. compileBatch hands
/// each session to exactly one worker and reads it back only after the
/// join.
///
//===----------------------------------------------------------------------===//

#ifndef GDSE_DRIVER_COMPILATIONSESSION_H
#define GDSE_DRIVER_COMPILATIONSESSION_H

#include "driver/Pipeline.h"

namespace gdse {

/// One independently compilable unit of a batch: some (or all) candidate
/// loops of one module under one option set.
struct BatchUnit {
  Module *M = nullptr;
  /// Loop ids to compile, in order; empty means every candidate loop.
  std::vector<unsigned> Loops;
  PipelineOptions Opts;
};

/// What one BatchUnit produced. All fields are deterministic functions of
/// the unit (not of scheduling), except the wall-clock column inside the
/// rendered reports.
struct BatchUnitResult {
  bool Ok = false;
  /// One pipeline result per compiled loop; compilation stops at the first
  /// failing loop, exactly like compileAll().
  std::vector<PipelineResult> Results;
  /// This unit's diagnostics, in emission order.
  std::vector<Diagnostic> Diags;
  /// Analysis-cache counters attributable to this unit alone (the delta
  /// over the unit's own session, which units of one module share).
  AnalysisStats Stats;
  /// The owning session's rendered reports; filled on the LAST unit of each
  /// module group so per-module totals appear exactly once per batch.
  std::string TimingReport;
  std::string StatsReport;
};

class CompilationSession {
public:
  explicit CompilationSession(Module &M);

  Module &module() { return M; }
  DiagnosticEngine &diags() { return DE; }
  TimingRegistry &timing() { return TR; }
  AnalysisManager &analyses() { return AM; }
  AnalysisStats analysisStats() const { return AM.stats(); }

  /// Loop ids of the "@candidate" for-loops, in program order (cached via
  /// the AnalysisManager's numbering).
  std::vector<unsigned> candidateLoops();

  /// Profile -> classify -> privatize -> plan for one loop, mutating the
  /// module, with structured diagnostics in PipelineResult::Diags. A
  /// one-shot caller holds a session for just this call:
  /// `CompilationSession(M).compileLoop(LoopId, Opts)`.
  PipelineResult compileLoop(unsigned LoopId,
                             const PipelineOptions &Opts = PipelineOptions());

  /// Batch compilation: compileLoop for every candidate loop, in program
  /// order. Stops at the first loop whose pipeline fails (the module must
  /// be discarded then, exactly like after a failed compileLoop).
  std::vector<PipelineResult>
  compileAll(const PipelineOptions &Opts = PipelineOptions());

  /// Compiles \p Units on a pool of \p Jobs workers (clamped to >= 1).
  /// Units are grouped by module; each group gets one session and runs its
  /// units serially in submission order on a single worker, while distinct
  /// modules compile concurrently. Results come back indexed like \p Units.
  ///
  /// Determinism guarantee: diagnostics, analysis stats, pipeline results,
  /// transformed modules, and the STRUCTURE of the timing reports (record
  /// order, invocation and VM-cycle counts) are bit-identical for any Jobs
  /// value; only wall-clock readings vary. When \p MergedDiags /
  /// \p MergedTiming are given, every unit's buffered diagnostics and every
  /// group's timing registry are flushed into them in unit order at the
  /// join point.
  static std::vector<BatchUnitResult>
  compileBatch(const std::vector<BatchUnit> &Units, unsigned Jobs,
               DiagnosticEngine *MergedDiags = nullptr,
               TimingRegistry *MergedTiming = nullptr);

  /// `-time-passes`-style report over everything this session ran.
  std::string timingReport() const { return TR.timingReport(); }
  /// `-stats`-style report of the session's named counters.
  std::string statsReport() const;

private:
  Module &M;
  DiagnosticEngine DE;
  TimingRegistry TR;
  AnalysisManager AM;
};

} // namespace gdse

#endif // GDSE_DRIVER_COMPILATIONSESSION_H
