//===- resilience_overhead.cpp - Budget-polling overhead gate --------------===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// Measures what the resilience layer costs when nothing goes wrong: every
// Figure 11 workload runs transformed with resilience disabled and again
// with generous budgets armed — a 10-minute deadline, a 1 TiB byte budget,
// and a 60-second DOACROSS watchdog. None of these can fire on a clean run,
// so the delta is pure bookkeeping: the deadline poll at loop-iteration
// boundaries, the byte-budget comparison on each allocation, and the
// watchdog's frontier timestamping. The armed run must be bit-identical on
// every virtual metric (budgets charge no cycles) — the bench asserts that —
// so the reported overhead is HOST time only.
//
// The budget's cycle cap is deliberately NOT armed: any cycle cap forces the
// threads engine onto the simulated path (cycle counting requires the
// deterministic interleaving), so arming it would change what the threads
// rows measure. Its cost is the same per-iteration counter check the
// deadline poll already covers.
//
// --max-overhead X exits 1 when the harmonic-mean armed/off host-time ratio
// across all rows exceeds X; CI gates at 1.05.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "support/Support.h"

#include <algorithm>
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

using namespace gdse;
using namespace gdse::bench;

namespace {

constexpr int HostWorkers = 4;
/// Repetitions per configuration; the minimum host time of each is compared
/// so scheduler noise on shared CI runners does not masquerade as polling
/// overhead.
constexpr int Reps = 3;

/// Budgets no clean run can breach: the poll executes, the branch never
/// takes.
ResilienceOptions armedOptions() {
  ResilienceOptions RO;
  RO.Budget.DeadlineMs = 600000;           // 10 minutes
  RO.Budget.MaxBytes = 1ull << 40;         // 1 TiB
  RO.WatchdogMs = 60000;                   // 60 s frontier stall
  return RO;
}

struct Cell {
  double OffMs = 0, ArmedMs = 0;
  double ratio() const { return OffMs > 0 ? ArmedMs / OffMs : 0; }
};

struct Row {
  std::string Name;
  Cell Serial; // bytecode engine, 1 simulated core
  Cell Threads; // threads engine, HostWorkers real workers
};
std::map<std::string, Row> Rows;

/// Runs off/armed back to back on one engine, asserting the resilience
/// contract: bit-identical virtual metrics and output, zero degradations
/// and watchdog fires on a clean run.
bool measure(benchmark::State &State, PreparedProgram &Xf, ExecEngine Engine,
             int Threads, Cell &C) {
  uint64_t OffBest = 0, ArmedBest = 0;
  for (int Rep = 0; Rep != Reps; ++Rep) {
    RunResult Off = executeOnEngine(Xf, Engine, Threads);
    RunResult Armed = executeResilient(Xf, Engine, Threads, armedOptions());
    if (!Off.ok() || !Armed.ok()) {
      State.SkipWithError("run trapped");
      return false;
    }
    if (Armed.Output != Off.Output || Armed.WorkCycles != Off.WorkCycles ||
        Armed.SimTime != Off.SimTime ||
        Armed.PeakMemoryBytes != Off.PeakMemoryBytes) {
      State.SkipWithError("armed budgets perturbed the virtual metrics");
      return false;
    }
    for (const auto &[Id, L] : Armed.Loops) {
      (void)Id;
      if (L.Degradations || L.WatchdogFires) {
        State.SkipWithError("clean run degraded under armed budgets");
        return false;
      }
    }
    OffBest = Rep ? std::min(OffBest, Off.HostNanos) : Off.HostNanos;
    ArmedBest = Rep ? std::min(ArmedBest, Armed.HostNanos) : Armed.HostNanos;
  }
  C.OffMs = static_cast<double>(OffBest) / 1e6;
  C.ArmedMs = static_cast<double>(ArmedBest) / 1e6;
  return true;
}

void runResilienceOverhead(benchmark::State &State, const WorkloadInfo &W) {
  for (auto _ : State) {
    PreparedProgram &Xf = preparedForAll(W, PipelineOptions());
    if (!Xf.Ok) {
      State.SkipWithError(Xf.Error.c_str());
      return;
    }
    Row &R = Rows[W.Name];
    R.Name = W.Name;
    if (!measure(State, Xf, ExecEngine::Bytecode, 1, R.Serial) ||
        !measure(State, Xf, ExecEngine::Threads, HostWorkers, R.Threads))
      return;
    State.counters["overhead_serial"] = R.Serial.ratio();
    State.counters["overhead_threads"] = R.Threads.ratio();
    addJsonRecord(formatString(
        "{\"workload\": \"%s\", \"off_ms_serial\": %.3f, "
        "\"armed_ms_serial\": %.3f, \"overhead_serial\": %.4f, "
        "\"off_ms_threads\": %.3f, \"armed_ms_threads\": %.3f, "
        "\"overhead_threads\": %.4f}",
        W.Name, R.Serial.OffMs, R.Serial.ArmedMs, R.Serial.ratio(),
        R.Threads.OffMs, R.Threads.ArmedMs, R.Threads.ratio()));
  }
}

} // namespace

int main(int argc, char **argv) {
  // --max-overhead X: fail (exit 1) when the harmonic-mean armed/off host
  // time ratio across every row exceeds X. Strip it before
  // benchmark::Initialize, which rejects unknown flags.
  double MaxOverhead = 0.0;
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--max-overhead") == 0 && I + 1 < argc) {
      MaxOverhead = std::atof(argv[I + 1]);
      for (int J = I; J + 2 < argc; ++J)
        argv[J] = argv[J + 2];
      argc -= 2;
      break;
    }
  }

  for (const WorkloadInfo &W : allWorkloads())
    benchmark::RegisterBenchmark(
        ("resilience_overhead/" + std::string(W.Name)).c_str(),
        [&W](benchmark::State &S) { runResilienceOverhead(S, W); })
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  initBenchIO(argc, argv);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  std::printf("\nResilience polling overhead (armed budgets vs off, host "
              "time, best of %d)\n",
              Reps);
  std::printf("%-15s %10s %10s %9s %10s %10s %9s\n", "Benchmark", "off ser",
              "armed ser", "ovh ser", "off thr", "armed thr", "ovh thr");
  std::vector<double> Ratios;
  for (const WorkloadInfo &W : allWorkloads()) {
    const Row &R = Rows[W.Name];
    std::printf("%-15s %9.2fms %9.2fms %8.3fx %9.2fms %9.2fms %8.3fx\n",
                W.Name, R.Serial.OffMs, R.Serial.ArmedMs, R.Serial.ratio(),
                R.Threads.OffMs, R.Threads.ArmedMs, R.Threads.ratio());
    if (R.Serial.ratio() > 0)
      Ratios.push_back(R.Serial.ratio());
    if (R.Threads.ratio() > 0)
      Ratios.push_back(R.Threads.ratio());
  }
  double Mean = Ratios.empty() ? 0.0 : harmonicMean(Ratios);
  std::printf("%-15s %10s %10s %9s %10s %10s %8.3fx\n", "harmonic mean", "",
              "", "", "", "", Mean);
  std::printf("\nVirtual metrics are asserted bit-identical between modes: "
              "budgets charge no cycles, so the overhead is host-side "
              "polling only (deadline check every 64th iteration poll, byte "
              "compare per allocation, watchdog frontier timestamps).\n");

  if (MaxOverhead > 0.0 && (Ratios.empty() || Mean > MaxOverhead)) {
    std::fprintf(stderr,
                 "FAIL: harmonic-mean resilience overhead %.3fx exceeds the "
                 "allowed %.3fx\n",
                 Mean, MaxOverhead);
    return 1;
  }
  return 0;
}
