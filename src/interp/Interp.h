//===- Interp.h - The GDSE VM and multicore simulator -----------*- C++ -*-===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The VM over the IR: the register-bytecode engine (the default), its
/// host-threaded variant, and the tree-walking reference engine, with:
///  - a deterministic cycle cost model (CostModel.h);
///  - a virtual-multicore scheduler for loops annotated DOALL/DOACROSS:
///    iterations execute in serial order (always semantically safe for code
///    produced by the expansion pipeline) while a timeline computes what an
///    N-core execution would cost — static chunking for DOALL, dynamic
///    chunk-1 self-scheduling with ordered-region stalls for DOACROSS,
///    exactly the policies of the paper's §4.3;
///  - observer hooks feeding the dependence profiler;
///  - the runtime-privatization (SpiceC-style) access-control runtime used
///    by the baseline of §4.2.1;
///  - memory bounds checking and peak-memory accounting (Figure 14).
///
//===----------------------------------------------------------------------===//

#ifndef GDSE_INTERP_INTERP_H
#define GDSE_INTERP_INTERP_H

#include "interp/CostModel.h"
#include "interp/Guard.h"
#include "interp/Memory.h"
#include "ir/IR.h"
#include "support/Resilience.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace gdse {

struct BytecodeModule;
class DiagnosticEngine;

/// Which engine executes the program. Both produce bit-identical results
/// (cycles, timeline, observer events, traps, peak memory — enforced by
/// EngineDiffTest); they differ only in speed.
enum class ExecEngine : uint8_t {
  /// The reference tree-walking interpreter: re-dispatches on node kinds for
  /// every operand of every iteration. Simple and obviously correct.
  TreeWalk,
  /// The register-bytecode VM: each function is lowered once to a flat
  /// instruction array (virtual registers, pre-resolved field offsets and
  /// type sizes, jump targets) and run by a dispatch loop. Several times
  /// faster on loop-heavy programs.
  Bytecode,
  /// The bytecode VM with *real* host threads under eligible parallel loops:
  /// DOALL chunks and DOACROSS iterations execute concurrently on a worker
  /// pool of NumThreads threads over the shared VMMemory, with ordered
  /// regions enforced by cross-iteration tickets. Virtual metrics (cycles,
  /// SimTime, peak bytes, per-loop stats, guard counters) are reconstructed
  /// at the join to stay bit-identical to the serial engines; wall-clock
  /// time actually drops on multi-core hosts. Loops a given invocation
  /// cannot thread safely fall back to the simulated serial-order path.
  Threads,
};

/// Engine selection from the GDSE_ENGINE environment variable:
/// "tree"/"treewalk", "bytecode"/"bc", or "threads"; anything else (or
/// unset) yields \p Default. Only tools and benchmarks read it (minic,
/// bench/, perfbench/); the library never does, so profiling always runs on
/// bytecode and InterpOptions::Engine is the only engine switch.
ExecEngine engineFromEnv(ExecEngine Default = ExecEngine::Bytecode);

/// Instrumentation callbacks. Addresses are VM (host) addresses; sizes in
/// bytes. Invoked only while a callback sink is installed.
class InterpObserver {
public:
  virtual ~InterpObserver();
  virtual void onLoad(AccessId Id, uint64_t Addr, uint64_t Size) {
    (void)Id;
    (void)Addr;
    (void)Size;
  }
  virtual void onStore(AccessId Id, uint64_t Addr, uint64_t Size) {
    (void)Id;
    (void)Addr;
    (void)Size;
  }
  /// memcpy/memset/calloc/realloc bulk effects. \p B tells which builtin
  /// produced the access; \p CallSiteId is the builtin call's site id.
  virtual void onBulkAccess(bool IsWrite, uint64_t Addr, uint64_t Size,
                            Builtin B, uint32_t CallSiteId) {
    (void)IsWrite;
    (void)Addr;
    (void)Size;
    (void)B;
    (void)CallSiteId;
  }
  virtual void onAlloc(const Allocation &A) { (void)A; }
  virtual void onFree(const Allocation &A) { (void)A; }
  virtual void onLoopEnter(unsigned LoopId) { (void)LoopId; }
  /// Fires before each iteration; Iter counts from 0 per invocation.
  virtual void onLoopIter(unsigned LoopId, uint64_t Iter) {
    (void)LoopId;
    (void)Iter;
  }
  virtual void onLoopExit(unsigned LoopId) { (void)LoopId; }
};

struct InterpOptions {
  /// Simulated core count (the paper's N); also the value of __nthreads.
  int NumThreads = 1;
  /// Honor ParallelKind loop annotations (otherwise run everything serially).
  bool SimulateParallel = true;
  /// Verify every access lies in a live allocation.
  bool BoundsCheck = true;
  CostModel Costs;
  /// Execution engine (see ExecEngine). The tree-walker runs only when
  /// asked for explicitly, as the reference engine.
  ExecEngine Engine = ExecEngine::Bytecode;
  /// Optional pre-lowered bytecode for the same module, e.g. the
  /// AnalysisManager's cached per-module analysis. Used only by the
  /// Bytecode engine; when its baked-in cost table differs from Costs the
  /// interpreter silently relowers instead.
  std::shared_ptr<const BytecodeModule> Precompiled;
  /// Runtime dependence validation for speculatively privatized loops (see
  /// Guard.h). Off charges nothing and hooks nothing; Check/Fallback consult
  /// GuardPlans but never perturb cycles, SimTime, or observer streams.
  GuardMode Guard = GuardMode::Off;
  /// The plans emitted by the expansion pass for this module's privatized
  /// loops (PipelineResult::Guard / AnalysisManager::guardPlans()). Loops
  /// without a plan run unguarded in every mode.
  std::vector<std::shared_ptr<const GuardPlan>> GuardPlans;
  /// When set, every distinct DependenceViolation is also reported here
  /// (pass "guard", severity Error in Check mode, Warning in Fallback where
  /// the run recovered). Violations are always recorded in RunResult.
  DiagnosticEngine *GuardDiags = nullptr;
  /// Execution resilience: budgets (deadline / cycle cap / byte budget), the
  /// DOACROSS watchdog with its in-loop recovery, and fault injection. The
  /// default (all zero, no injector) adds no observable behavior and near-zero
  /// overhead (see `gdse_figures resilience`).
  ResilienceOptions Resilience;
};

/// Which path one invocation of a parallel loop took, and for each that did
/// not run on host threads, why (ThreadState::threadedEligible). Every
/// parallel invocation under SimulateParallel records exactly one code.
enum class ThreadedPath : uint8_t {
  Threaded,          ///< ran on host worker threads
  NotThreadsEngine,  ///< not the threads engine (or one thread)
  SerialOrder,       ///< observer, cycle budget or fallback-mode watch
  RtPriv,            ///< the body calls rtpriv_ptr
  FallbackGuard,     ///< a fallback-mode guard plan
  UserTid,           ///< a DOACROSS body reads a user-written __tid
  CarriedFrameSlot,  ///< a DOACROSS body carries a frame slot
  GlobalIV,          ///< the induction variable is a global
  PoolUnavailable,   ///< eligible, but the worker pool could not start
  WatchdogRerun,     ///< ran threaded, wedged, re-run simulated (keep last)
};
constexpr unsigned NumThreadedPaths =
    static_cast<unsigned>(ThreadedPath::WatchdogRerun) + 1;

/// Stable lower-case name of \p P ("threaded", "user-tid", ...).
const char *threadedPathName(ThreadedPath P);

/// Per-loop accounting, keyed by loop id.
struct LoopStats {
  ParallelKind Kind = ParallelKind::None;
  uint64_t Invocations = 0;
  uint64_t Iterations = 0;
  /// Work cycles spent in loop bodies (excludes simulated overheads).
  uint64_t WorkCycles = 0;
  /// Simulated elapsed time of the loop (= WorkCycles when sequential).
  uint64_t SimTime = 0;
  /// Parallel-run categories, per thread (sized NumThreads when parallel).
  std::vector<uint64_t> WorkPerThread;
  std::vector<uint64_t> SyncStallPerThread;
  std::vector<uint64_t> IdlePerThread;
  std::vector<uint64_t> DispatchPerThread;
  /// Guarded-execution accounting (non-zero only under Check/Fallback).
  uint64_t GuardedInvocations = 0; ///< parallel invocations run with a plan
  uint64_t GuardChecks = 0;        ///< private-class accesses validated
  uint64_t GuardViolations = 0;    ///< violation occurrences (not deduped)
  uint64_t GuardFallbacks = 0;     ///< rollbacks + last-value recoveries
  /// Resilience accounting: invocations the threads engine gave back to the
  /// simulated serial-order path (pool unavailable, watchdog fire), and how
  /// many of those were DOACROSS watchdog fires specifically.
  uint64_t Degradations = 0;
  uint64_t WatchdogFires = 0;
  /// Parallel invocations per ThreadedPath code, indexed by the enum.
  uint64_t Paths[NumThreadedPaths] = {};
};

struct RunResult {
  bool Trapped = false;
  std::string TrapMessage;
  /// Execution context of the trap when it was raised inside a counted loop
  /// (runForLoop); -1 / -1 / -1 otherwise. LoopId and Iteration are the
  /// innermost loop's; Thread is the virtual thread (0 outside parallel
  /// loops).
  int64_t TrapLoopId = -1;
  int64_t TrapIteration = -1;
  int TrapThread = -1;
  int64_t ExitCode = 0;
  /// Pure work cycles executed (all code, one-core view).
  uint64_t WorkCycles = 0;
  /// Simulated elapsed time: work, with parallel loop spans replaced by
  /// their simulated N-core duration (plus runtime overheads).
  uint64_t SimTime = 0;
  /// Everything print_int/print_float produced, for output equivalence.
  std::string Output;
  uint64_t PeakMemoryBytes = 0;
  /// Host wall-clock nanoseconds the VM spent executing this run — the
  /// timer hook the session's `-time-passes` accounting attributes to
  /// VM-executing stages (dependence profiling, benchmark runs).
  uint64_t HostNanos = 0;
  std::map<unsigned, LoopStats> Loops;
  /// Runtime-privatization accounting (non-zero only when rtpriv_ptr ran).
  uint64_t RtPrivTranslations = 0;
  uint64_t RtPrivBytesCopied = 0;
  /// Guarded execution: every distinct (loop, class, kind) violation, first
  /// occurrence's attribution, with Count totalling repeats. Empty in Off
  /// mode and on clean guarded runs.
  std::vector<DependenceViolation> Violations;

  bool ok() const { return !Trapped; }
};

class Interp {
public:
  explicit Interp(Module &M, InterpOptions Opts = InterpOptions());
  ~Interp();
  Interp(const Interp &) = delete;
  Interp &operator=(const Interp &) = delete;

  void setObserver(InterpObserver *O);

  /// Executes \p Entry (default "main", no arguments). Globals are
  /// (re)initialized to zero on each call.
  RunResult run(const std::string &Entry = "main");

private:
  struct Impl;
  Impl *P;
};

} // namespace gdse

#endif // GDSE_INTERP_INTERP_H
