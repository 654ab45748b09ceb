//===- BenchCommon.h - Shared experiment harness helpers --------*- C++ -*-===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers behind every table/figure reproduction in gdse_figures: build the
/// original and transformed programs for a workload, execute them under the
/// VM, and collect the simulated metrics the paper reports. All simulated
/// metrics are deterministic (cycle counts from the cost model), so runs are
/// exactly reproducible. Each figure prints its paper-style table and can
/// capture every run's metrics as a BENCH_<figure>.json file.
///
//===----------------------------------------------------------------------===//

#ifndef GDSE_BENCH_BENCHCOMMON_H
#define GDSE_BENCH_BENCHCOMMON_H

#include "driver/CompilationSession.h"
#include "frontend/Parser.h"
#include "interp/Interp.h"
#include "support/Timing.h"
#include "workloads/Workloads.h"

#include <memory>
#include <string>
#include <vector>

namespace gdse {

struct BytecodeModule;

namespace bench {

/// A workload prepared under one transformation configuration.
struct PreparedProgram {
  const WorkloadInfo *Info = nullptr;
  std::unique_ptr<Module> M;
  /// Lazily-built register bytecode for M, shared by every execute() of
  /// this program when the bytecode engine is selected (the default; set
  /// GDSE_ENGINE=tree to measure the reference tree-walker).
  std::shared_ptr<const BytecodeModule> Bytecode;
  /// One pipeline result per candidate loop, in program order.
  std::vector<PipelineResult> Pipelines;
  /// Candidate loop ids (valid for both original and transformed modules —
  /// numbering is deterministic).
  std::vector<unsigned> LoopIds;
  /// Per-pass/per-analysis compile-time accounting from the session that
  /// transformed the workload (empty for prepareOriginal).
  std::vector<PassTimingRecord> CompileTiming;
  /// The session's rendered `-time-passes` + `-stats` reports.
  std::string CompileReport;
  bool Ok = false;
  std::string Error;
};

/// Parses the workload without transforming it.
PreparedProgram prepareOriginal(const WorkloadInfo &W);

/// Parses and transforms every candidate loop of the workload.
PreparedProgram prepareTransformed(const WorkloadInfo &W,
                                   const PipelineOptions &Opts);

/// Batch-compiles all \p Ws under \p Opts through
/// CompilationSession::compileBatch with \p Jobs workers (0 = the GDSE_JOBS
/// environment variable, defaulting to one per hardware thread). Results
/// come back in workload order and are bit-identical to serial
/// prepareTransformed calls — diagnostics, reports, and transformed modules
/// alike. CompileTiming records are not populated for batch-prepared
/// programs; the rendered CompileReport is.
std::vector<PreparedProgram>
prepareTransformedBatch(const std::vector<const WorkloadInfo *> &Ws,
                        const PipelineOptions &Opts, unsigned Jobs = 0);

/// Options-keyed cache over prepareTransformedBatch for the workload set
/// that holds \p W (allWorkloads() or reductionWorkloads()): the first call
/// batch-compiles every workload of that set concurrently; later calls with
/// the same options and set are cache hits. Not thread-safe — the figures
/// driver is single-threaded. The returned reference stays valid for the
/// process lifetime.
PreparedProgram &preparedForAll(const WorkloadInfo &W,
                                const PipelineOptions &Opts);

/// Prints \p P's compile-time report (per-pass timing + counters) to stderr
/// when the GDSE_TIME_PASSES environment variable is set and non-empty, or
/// when \p Force is true. prepareTransformed calls this itself, so every
/// figure emits compile-time breakdowns with one env var and no per-figure
/// wiring.
void reportCompileTiming(const PreparedProgram &P, bool Force = false);

/// Starts capturing, for the figure whose JSON id is \p BenchId (e.g.
/// "fig11_speedup"), every execute() call's metrics (engine, threads, work
/// cycles, simulated time, host wall time, peak bytes) and every
/// addJsonRecord() record. Without a capture those calls record nothing.
void beginJsonCapture(const std::string &BenchId);

/// Writes the current capture, with the wall time since beginJsonCapture,
/// to \p Path and ends it. Returns false when the file cannot be written.
bool endJsonCapture(const std::string &Path);

/// Appends one bench-specific record — a complete JSON object literal — to
/// the --json output's "records" array (fig7's per-loop graph precision
/// counts, guard_overhead's elision tallies, ...). No-op without a capture.
void addJsonRecord(const std::string &JsonObject);

/// Executes a prepared program. \p Threads is the simulated core count;
/// \p SimulateParallel=false forces sequential execution of parallel-marked
/// loops (the Figure 9/10 single-core overhead methodology). Runs on
/// engineFromEnv() — the bytecode VM unless GDSE_ENGINE says otherwise —
/// lowering P once and reusing it across calls. Guard mode follows
/// GDSE_GUARD (off when unset); guard plans come from P's pipeline results.
RunResult execute(PreparedProgram &P, int Threads,
                  bool SimulateParallel = true);

/// execute() under an explicit guard mode (the guard figure runs the same
/// program under off and check back to back). Per-loop guard counters land
/// in the JSON capture either way.
RunResult executeGuarded(PreparedProgram &P, int Threads, GuardMode Guard,
                         bool SimulateParallel = true);

/// execute() on an explicit engine, ignoring GDSE_ENGINE — the host-measured
/// figures run the same program on the bytecode engine (serial reference)
/// and the threads engine (real dispatch) back to back. HostNanos in the
/// result is the wall-clock reading; all virtual metrics stay bit-identical
/// across engines by the threads engine's contract.
RunResult executeOnEngine(PreparedProgram &P, ExecEngine Engine, int Threads,
                          GuardMode Guard = GuardMode::Off,
                          bool SimulateParallel = true);

/// executeOnEngine() with an explicit resilience policy (budgets, watchdog,
/// fault injection) — the resilience figure arms unbreachable budgets and
/// measures the polling cost against the default-off run.
RunResult executeResilient(PreparedProgram &P, ExecEngine Engine, int Threads,
                           const ResilienceOptions &Resilience,
                           GuardMode Guard = GuardMode::Off,
                           bool SimulateParallel = true);

/// A workload's original program run once, sequentially on one thread —
/// the serial baseline a figure compares every core count or configuration
/// against. Each use() re-emits the run's JSON record, so a capture lists
/// the same records as running the original again for every cell would.
struct SerialRun {
  PreparedProgram Orig;
  RunResult R;
  ExecEngine Engine = ExecEngine::Bytecode;
  GuardMode Guard = GuardMode::Off;
  /// The run, after recording this use in the JSON capture.
  const RunResult &use();
};

/// Parses and runs \p W's original program (recording nothing until use()):
/// on engineFromEnv() under guardModeFromEnv(), as execute() would, or on an
/// explicit engine and guard mode.
SerialRun runOriginal(const WorkloadInfo &W);
SerialRun runOriginal(const WorkloadInfo &W, ExecEngine Engine,
                      GuardMode Guard);

/// Sum of SimTime over the program's candidate loops.
uint64_t loopSimTime(const RunResult &R, const std::vector<unsigned> &LoopIds);
/// Sum of WorkCycles over the program's candidate loops.
uint64_t loopWorkCycles(const RunResult &R,
                        const std::vector<unsigned> &LoopIds);

/// Harmonic mean of a series (the paper's preferred average).
double harmonicMean(const std::vector<double> &Xs);

/// Renders a ratio like "1.83x".
std::string ratioStr(double R);

} // namespace bench
} // namespace gdse

#endif // GDSE_BENCH_BENCHCOMMON_H
