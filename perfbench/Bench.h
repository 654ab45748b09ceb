//===- Bench.h - The repository benchmark's in-process driver ---*- C++ -*-===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One in-process driver for the repository benchmark. It calls the
/// library's public entry points (parseMiniC, CompilationSession and its
/// AnalysisManager, lowerToBytecode, Interp::run), times each call from
/// outside, and checks every output against a reference computed by the
/// tree-walking interpreter on the untransformed program.
///
/// Each workload is a closed loop with one client, the calling thread: a
/// program starts only after the previous one finished. Threaded runs use
/// min(4, nproc) host threads. Everything before the first timed round is
/// set-up; it is repeated several times so its median can be reported.
/// README.md in this directory says why each workload exists.
///
//===----------------------------------------------------------------------===//

#ifndef GDSE_PERFBENCH_BENCH_H
#define GDSE_PERFBENCH_BENCH_H

#include "workloads/Workloads.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class Workload { Compile, RunDoall, RunDoacross, RunGuarded };

/// "compile", "run-doall", "run-doacross", "run-guarded".
const char *workloadName(Workload W);
bool parseWorkload(const std::string &Name, Workload &Out);

/// The programs \p W runs, in the order it runs them.
std::vector<const gdse::WorkloadInfo *> workloadPrograms(Workload W);

/// \p Source with every `int seed = N;` initializer's N replaced by a
/// positive value derived from (\p Seed, N). Seed 0 returns \p Source
/// unchanged.
std::string reseed(const std::string &Source, uint64_t Seed);

struct Config {
  Workload W = Workload::Compile;
  uint64_t Seed = 0;
  /// Length of the timed window; rounds start until it has passed.
  double Seconds = 10;
  /// The traced run: alternate rounds record spans and the result carries
  /// the per-layer metrics instead of the end-to-end ones.
  bool Trace = false;
  /// Where the traced run writes its spans; empty writes nothing.
  std::string TraceOut;
  /// Set-up repetitions, at least; more follow until about SetupSeconds
  /// of set-up have been measured.
  int SetupReps = 3;
  double SetupSeconds = 8;
  /// Timed rounds run even when the window has already passed.
  int MinRounds = 2;
  /// Negative control for the benchmark's own tests: the reference output
  /// of the program with this name is corrupted, so its every run fails.
  std::string CorruptReferenceOf;
};

struct Metric {
  std::string Name;
  std::string Unit;
  double Value = 0;
};

/// The per-program inputs of the deterministic end-to-end metrics.
struct ProgramFigures {
  std::string Name;
  /// Fig. 11b: original serial SimTime over transformed 4-core SimTime.
  double SimSpeedup = 0;
  /// Fig. 14: transformed 4-core peak bytes over original peak bytes.
  double MemMultiple = 0;
};

struct Result {
  bool Correct = false;
  /// Compiles and runs attempted, set-up included, and how many failed: a
  /// compile error, a trap, an output that differs from the reference, a
  /// guard violation, or virtual metrics that differ between engines.
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// With Config::Trace the per-layer metrics, otherwise the end-to-end.
  std::vector<Metric> Metrics;
  std::vector<ProgramFigures> Programs;
  /// Human-readable per-program breakdown (traced run only).
  std::string Report;

  double failRatio() const {
    return Attempted ? static_cast<double>(Failed) / Attempted : 1.0;
  }
  const Metric *find(const std::string &Name) const;
};

Result runWorkload(const Config &C);

/// The one-line result object: correct, attempted, failed, metrics.
std::string toJson(const Result &R);

} // namespace perfbench

#endif // GDSE_PERFBENCH_BENCH_H
