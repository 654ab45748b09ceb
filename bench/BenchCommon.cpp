//===- BenchCommon.cpp - Shared experiment harness helpers -----------------===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "interp/Bytecode.h"
#include "support/Support.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>

using namespace gdse;
using namespace gdse::bench;

namespace {

const char *engineName(ExecEngine E) {
  switch (E) {
  case ExecEngine::TreeWalk:
    return "tree";
  case ExecEngine::Bytecode:
    return "bytecode";
  case ExecEngine::Threads:
    return "threads";
  }
  return "?";
}

/// One figure's JSON capture, from beginJsonCapture to endJsonCapture.
struct JsonSink {
  bool Enabled = false;
  std::string BenchId;
  std::chrono::steady_clock::time_point Start;
  struct GuardLoopRec {
    unsigned LoopId;
    uint64_t Invocations, Checks, Violations, Fallbacks;
  };
  struct Rec {
    std::string Workload;
    const char *Engine;
    int Threads;
    bool SimulateParallel;
    bool Trapped;
    uint64_t WorkCycles, SimTime, HostNanos, PeakBytes;
    const char *GuardMode;
    /// Resilience ladder activity, summed over loops (0 on clean runs).
    uint64_t Degradations = 0, WatchdogFires = 0;
    /// Per-loop guard counters; empty when no loop was guarded.
    std::vector<GuardLoopRec> GuardLoops;
  };
  std::vector<Rec> Recs;
  /// Bench-specific records (complete JSON object literals) appended via
  /// addJsonRecord; emitted verbatim under "records".
  std::vector<std::string> Extra;
};

JsonSink &jsonSink() {
  static JsonSink S;
  return S;
}

} // namespace

void gdse::bench::addJsonRecord(const std::string &JsonObject) {
  JsonSink &S = jsonSink();
  if (S.Enabled)
    S.Extra.push_back(JsonObject);
}

void gdse::bench::beginJsonCapture(const std::string &BenchId) {
  JsonSink &S = jsonSink();
  S = JsonSink();
  S.Enabled = true;
  S.BenchId = BenchId;
  S.Start = std::chrono::steady_clock::now();
}

bool gdse::bench::endJsonCapture(const std::string &Path) {
  JsonSink &S = jsonSink();
  S.Enabled = false;
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  uint64_t WallNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - S.Start)
                        .count();
  std::fprintf(F, "{\n  \"bench\": \"%s\",\n", S.BenchId.c_str());
  std::fprintf(F, "  \"config\": {\"engine\": \"%s\", \"bounds_check\": "
                  "false},\n",
               engineName(engineFromEnv()));
  std::fprintf(F, "  \"wall_time_ns\": %llu,\n",
               static_cast<unsigned long long>(WallNs));
  std::fprintf(F, "  \"runs\": [");
  for (size_t I = 0; I != S.Recs.size(); ++I) {
    const JsonSink::Rec &R = S.Recs[I];
    std::fprintf(
        F,
        "%s\n    {\"workload\": \"%s\", \"engine\": \"%s\", \"threads\": %d, "
        "\"simulate_parallel\": %s, \"trapped\": %s, \"work_cycles\": %llu, "
        "\"sim_time\": %llu, \"host_ns\": %llu, \"peak_bytes\": %llu, "
        "\"guard_mode\": \"%s\", \"degradations\": %llu, "
        "\"watchdog_fires\": %llu, \"guard_loops\": [",
        I ? "," : "", R.Workload.c_str(), R.Engine, R.Threads,
        R.SimulateParallel ? "true" : "false", R.Trapped ? "true" : "false",
        static_cast<unsigned long long>(R.WorkCycles),
        static_cast<unsigned long long>(R.SimTime),
        static_cast<unsigned long long>(R.HostNanos),
        static_cast<unsigned long long>(R.PeakBytes), R.GuardMode,
        static_cast<unsigned long long>(R.Degradations),
        static_cast<unsigned long long>(R.WatchdogFires));
    for (size_t J = 0; J != R.GuardLoops.size(); ++J) {
      const JsonSink::GuardLoopRec &G = R.GuardLoops[J];
      std::fprintf(F,
                   "%s{\"loop\": %u, \"guarded_invocations\": %llu, "
                   "\"checks\": %llu, \"violations\": %llu, "
                   "\"fallbacks\": %llu}",
                   J ? ", " : "", G.LoopId,
                   static_cast<unsigned long long>(G.Invocations),
                   static_cast<unsigned long long>(G.Checks),
                   static_cast<unsigned long long>(G.Violations),
                   static_cast<unsigned long long>(G.Fallbacks));
    }
    std::fprintf(F, "]}");
  }
  std::fprintf(F, "\n  ]");
  if (!S.Extra.empty()) {
    std::fprintf(F, ",\n  \"records\": [");
    for (size_t I = 0; I != S.Extra.size(); ++I)
      std::fprintf(F, "%s\n    %s", I ? "," : "", S.Extra[I].c_str());
    std::fprintf(F, "\n  ]");
  }
  std::fprintf(F, "\n}\n");
  return std::fclose(F) == 0;
}

PreparedProgram gdse::bench::prepareOriginal(const WorkloadInfo &W) {
  PreparedProgram P;
  P.Info = &W;
  ParseResult R = parseMiniC(W.Source);
  if (!R.ok()) {
    P.Error = "parse failed: " + (R.Errors.empty() ? "?" : R.Errors.front());
    return P;
  }
  P.M = std::move(R.M);
  P.LoopIds = CompilationSession(*P.M).candidateLoops();
  P.Ok = true;
  return P;
}

PreparedProgram gdse::bench::prepareTransformed(const WorkloadInfo &W,
                                                const PipelineOptions &Opts) {
  PreparedProgram P = prepareOriginal(W);
  if (!P.Ok)
    return P;
  // One session per workload: cached analyses carry across the candidate
  // loops and the session's registry accounts every pass and analysis.
  CompilationSession Session(*P.M);
  for (unsigned LoopId : P.LoopIds) {
    PipelineResult PR = Session.compileLoop(LoopId, Opts);
    if (!PR.Ok) {
      P.Ok = false;
      P.Error = "transformation failed";
      for (const Diagnostic &D : PR.Diags)
        if (D.isError()) {
          P.Error = D.Message;
          break;
        }
      return P;
    }
    P.Pipelines.push_back(std::move(PR));
  }
  P.CompileTiming = Session.timing().records();
  P.CompileReport =
      "== " + std::string(W.Name) + " compile ==\n" + Session.timingReport() +
      Session.statsReport();
  reportCompileTiming(P);
  return P;
}

std::vector<PreparedProgram> gdse::bench::prepareTransformedBatch(
    const std::vector<const WorkloadInfo *> &Ws, const PipelineOptions &Opts,
    unsigned Jobs) {
  if (Jobs == 0)
    Jobs = static_cast<unsigned>(std::max<long>(
        1, envInt("GDSE_JOBS", ThreadPool::defaultThreadCount())));

  // Parse serially (cheap, and module construction is not synchronized);
  // compilation of the independent modules is what runs in parallel.
  std::vector<PreparedProgram> Out;
  Out.reserve(Ws.size());
  std::vector<BatchUnit> Units;
  for (const WorkloadInfo *W : Ws) {
    Out.push_back(prepareOriginal(*W));
    if (Out.back().Ok) {
      BatchUnit U;
      U.M = Out.back().M.get();
      U.Opts = Opts;
      Units.push_back(U);
    }
  }

  auto Start = std::chrono::steady_clock::now();
  std::vector<BatchUnitResult> Results =
      CompilationSession::compileBatch(Units, Jobs);
  double Ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - Start)
                  .count();

  size_t RI = 0;
  for (PreparedProgram &P : Out) {
    if (!P.Ok)
      continue;
    BatchUnitResult &R = Results[RI++];
    P.Pipelines = std::move(R.Results);
    P.Ok = R.Ok;
    if (!P.Ok) {
      P.Error = "transformation failed";
      for (const Diagnostic &D : R.Diags)
        if (D.isError()) {
          P.Error = D.Message;
          break;
        }
      continue;
    }
    P.CompileReport = "== " + std::string(P.Info->Name) + " compile ==\n" +
                      R.TimingReport + R.StatsReport;
    reportCompileTiming(P);
  }
  if (envFlag("GDSE_TIME_PASSES"))
    std::fprintf(stderr, "== batch compile: %zu workloads, %u jobs, %.1f ms ==\n",
                 Units.size(), Jobs, Ms);
  return Out;
}

PreparedProgram &gdse::bench::preparedForAll(const WorkloadInfo &W,
                                             const PipelineOptions &Opts) {
  const std::vector<WorkloadInfo> *Set = nullptr;
  size_t Index = 0;
  for (const std::vector<WorkloadInfo> *Each :
       {&allWorkloads(), &reductionWorkloads()})
    for (size_t I = 0; I != Each->size(); ++I)
      if ((*Each)[I].Name == std::string(W.Name)) {
        Set = Each;
        Index = I;
      }
  if (!Set) {
    static PreparedProgram Missing;
    Missing.Error = "workload not in a standard set";
    return Missing;
  }
  // Key on the set and on every PipelineOptions and ExpansionOptions field:
  // two option sets that differ anywhere must never share a compiled
  // program. ExternalGraph is a pointer identity for the same reason.
  const ExpansionOptions &E = Opts.Expansion;
  std::string Key = formatString(
      "%p|%d|%s|%d|%p|%d|%d%d%d%d%d%d", static_cast<const void *>(Set),
      static_cast<int>(Opts.Method), Opts.Entry.c_str(),
      static_cast<int>(Opts.Source),
      static_cast<const void *>(Opts.ExternalGraph), Opts.AuditDeps,
      static_cast<int>(E.Layout), E.SelectivePromotion,
      E.SpanConstantPropagation, E.DeadSpanStoreElimination, E.GuardPruning,
      E.CommutativePrivatization);
  static std::map<std::string, std::vector<PreparedProgram>> Cache;
  auto It = Cache.find(Key);
  if (It == Cache.end()) {
    std::vector<const WorkloadInfo *> Ws;
    for (const WorkloadInfo &Each : *Set)
      Ws.push_back(&Each);
    It = Cache.emplace(Key, prepareTransformedBatch(Ws, Opts)).first;
  }
  return It->second[Index]; // batch results come back in workload order
}

void gdse::bench::reportCompileTiming(const PreparedProgram &P, bool Force) {
  if (P.CompileReport.empty())
    return;
  if (!Force && !envFlag("GDSE_TIME_PASSES"))
    return;
  std::fputs(P.CompileReport.c_str(), stderr);
}

RunResult gdse::bench::execute(PreparedProgram &P, int Threads,
                               bool SimulateParallel) {
  return executeGuarded(P, Threads, guardModeFromEnv(), SimulateParallel);
}

RunResult gdse::bench::executeGuarded(PreparedProgram &P, int Threads,
                                      GuardMode Guard, bool SimulateParallel) {
  return executeOnEngine(P, engineFromEnv(), Threads, Guard, SimulateParallel);
}

RunResult gdse::bench::executeOnEngine(PreparedProgram &P, ExecEngine Engine,
                                       int Threads, GuardMode Guard,
                                       bool SimulateParallel) {
  return executeResilient(P, Engine, Threads, ResilienceOptions(), Guard,
                          SimulateParallel);
}

namespace {

/// Runs \p P without recording it in the JSON capture.
RunResult runProgram(PreparedProgram &P, ExecEngine Engine, int Threads,
                     const ResilienceOptions &Resilience, GuardMode Guard,
                     bool SimulateParallel) {
  InterpOptions IO;
  IO.NumThreads = Threads;
  IO.SimulateParallel = SimulateParallel;
  IO.Resilience = Resilience;
  // The transformed programs are test-verified; skip per-access bounds
  // checking for faster experiment turnaround.
  IO.BoundsCheck = false;
  IO.Engine = Engine;
  IO.Guard = Guard;
  if (Guard != GuardMode::Off)
    for (const PipelineResult &PR : P.Pipelines)
      if (PR.Guard)
        IO.GuardPlans.push_back(PR.Guard);
  if (IO.Engine != ExecEngine::TreeWalk) {
    // Lower once per prepared program; every thread count and both
    // register-VM engines (bytecode, threads) reuse it.
    if (!P.Bytecode)
      P.Bytecode = lowerToBytecode(*P.M, IO.Costs);
    IO.Precompiled = P.Bytecode;
  }
  Interp I(*P.M, IO);
  return I.run();
}

/// Appends \p R, a run of \p P, to the JSON capture's run list.
void recordRun(const PreparedProgram &P, ExecEngine Engine, int Threads,
               GuardMode Guard, bool SimulateParallel, const RunResult &R) {
  JsonSink &S = jsonSink();
  if (!S.Enabled)
    return;
  JsonSink::Rec Rec{P.Info ? P.Info->Name : "?", engineName(Engine),
                    Threads, SimulateParallel, R.Trapped, R.WorkCycles,
                    R.SimTime, R.HostNanos, R.PeakMemoryBytes,
                    guardModeName(Guard), /*Degradations=*/0,
                    /*WatchdogFires=*/0, /*GuardLoops=*/{}};
  for (const auto &[LoopId, L] : R.Loops) {
    Rec.Degradations += L.Degradations;
    Rec.WatchdogFires += L.WatchdogFires;
    if (L.GuardedInvocations || L.GuardViolations || L.GuardFallbacks)
      Rec.GuardLoops.push_back({LoopId, L.GuardedInvocations, L.GuardChecks,
                                L.GuardViolations, L.GuardFallbacks});
  }
  S.Recs.push_back(std::move(Rec));
}

} // namespace

RunResult gdse::bench::executeResilient(PreparedProgram &P, ExecEngine Engine,
                                        int Threads,
                                        const ResilienceOptions &Resilience,
                                        GuardMode Guard,
                                        bool SimulateParallel) {
  RunResult R =
      runProgram(P, Engine, Threads, Resilience, Guard, SimulateParallel);
  recordRun(P, Engine, Threads, Guard, SimulateParallel, R);
  return R;
}

SerialRun gdse::bench::runOriginal(const WorkloadInfo &W, ExecEngine Engine,
                                   GuardMode Guard) {
  SerialRun S;
  S.Orig = prepareOriginal(W);
  S.Engine = Engine;
  S.Guard = Guard;
  S.R = runProgram(S.Orig, Engine, 1, ResilienceOptions(), Guard,
                   /*SimulateParallel=*/false);
  return S;
}

SerialRun gdse::bench::runOriginal(const WorkloadInfo &W) {
  return runOriginal(W, engineFromEnv(), guardModeFromEnv());
}

const RunResult &SerialRun::use() {
  recordRun(Orig, Engine, 1, Guard, /*SimulateParallel=*/false, R);
  return R;
}

uint64_t gdse::bench::loopSimTime(const RunResult &R,
                                  const std::vector<unsigned> &LoopIds) {
  uint64_t Total = 0;
  for (unsigned Id : LoopIds) {
    auto It = R.Loops.find(Id);
    if (It != R.Loops.end())
      Total += It->second.SimTime;
  }
  return Total;
}

uint64_t gdse::bench::loopWorkCycles(const RunResult &R,
                                     const std::vector<unsigned> &LoopIds) {
  uint64_t Total = 0;
  for (unsigned Id : LoopIds) {
    auto It = R.Loops.find(Id);
    if (It != R.Loops.end())
      Total += It->second.WorkCycles;
  }
  return Total;
}

double gdse::bench::harmonicMean(const std::vector<double> &Xs) {
  if (Xs.empty())
    return 0.0;
  double Denom = 0.0;
  for (double X : Xs)
    Denom += 1.0 / X;
  return static_cast<double>(Xs.size()) / Denom;
}

std::string gdse::bench::ratioStr(double R) {
  return formatString("%.2fx", R);
}
