//===- Figures.h - The paper's tables and figures as functions --*- C++ -*-===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every table, figure and ablation the gdse_figures driver reproduces. A
/// figure runs its experiment over BenchCommon, prints its paper-style
/// table to stdout and returns the contract checks that failed.
///
//===----------------------------------------------------------------------===//

#ifndef GDSE_BENCH_FIGURES_H
#define GDSE_BENCH_FIGURES_H

#include <string>
#include <vector>

namespace gdse {
namespace bench {

/// One failed contract check (an output mismatch, a guard divergence, a
/// missed gate, ...). Workload is "all" for a gate over the whole figure.
struct Failure {
  std::string Workload;
  std::string Reason;
};
using Failures = std::vector<Failure>;

/// Gate thresholds from the command line; 0 leaves a gate off.
struct FigureFlags {
  /// fig11 and reduction: some workload's measured host speedup at the
  /// highest host thread count must reach this. Only multi-core hosts can.
  double MinHostSpeedup = 0;
  /// resilience: the harmonic-mean armed/off host-time ratio must not
  /// exceed this.
  double MaxOverhead = 0;
};

struct Figure {
  /// Command-line name, e.g. "fig11".
  const char *Name;
  /// JSON id: the "bench" field and the BENCH_<id>.json file stem.
  const char *BenchId;
  Failures (*Run)(const FigureFlags &);
};

/// Every figure, in the order `gdse_figures all` runs them.
const std::vector<Figure> &figures();

} // namespace bench
} // namespace gdse

#endif // GDSE_BENCH_FIGURES_H
