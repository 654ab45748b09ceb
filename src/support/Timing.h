//===- Timing.h - Pass timing and counter statistics ------------*- C++ -*-===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `-time-passes` / `-stats`-style accounting for the compilation session.
/// Every pass and cached analysis runs under a TimerScope; the registry
/// accumulates, per name: invocation count, host wall-clock nanoseconds, and
/// (for stages that execute the VM, such as dependence profiling) simulated
/// VM work cycles. Named counters record event statistics (cache hits,
/// accesses redirected, ...). Reports are deterministic in layout; only the
/// wall-clock column varies between runs.
///
/// A registry is not synchronized: it belongs to one session, used by one
/// thread at a time. The batch driver gives each worker its own session and
/// merges the registries in unit order at the join point (see
/// TimingRegistry::merge), which also makes the merged report deterministic.
///
//===----------------------------------------------------------------------===//

#ifndef GDSE_SUPPORT_TIMING_H
#define GDSE_SUPPORT_TIMING_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace gdse {

/// Accumulated accounting of one pass / analysis name.
struct PassTimingRecord {
  std::string Name;
  uint64_t Invocations = 0;
  uint64_t WallNanos = 0;
  /// Simulated VM work cycles attributed to this stage (profiling runs).
  uint64_t VmCycles = 0;
};

class TimingRegistry {
public:
  /// Accumulates one finished invocation of \p Name.
  void record(const std::string &Name, uint64_t WallNanos,
              uint64_t VmCycles = 0);
  /// Adds simulated VM cycles to \p Name without a new invocation.
  void addVmCycles(const std::string &Name, uint64_t Cycles);
  /// Bumps the named statistic counter by \p Delta.
  void bumpCounter(const std::string &Counter, uint64_t Delta = 1);

  /// Accumulates every record and counter of \p Other into this registry.
  /// Records keep their first-seen order: \p Other's names are appended in
  /// \p Other's order, so merging per-worker registries in deterministic
  /// unit order yields a deterministic combined report.
  void merge(const TimingRegistry &Other);

  /// Records in first-seen order.
  const std::vector<PassTimingRecord> &records() const { return Records; }
  uint64_t counter(const std::string &Counter) const;
  const std::map<std::string, uint64_t> &counters() const { return Counters; }

  /// `-time-passes`-style table: one row per record, columns for wall
  /// milliseconds, share of total, invocations, and VM cycles.
  std::string timingReport() const;
  /// `-stats`-style listing of every named counter.
  std::string statsReport() const;

private:
  std::vector<PassTimingRecord> Records;
  std::map<std::string, size_t> Index;
  std::map<std::string, uint64_t> Counters;

  PassTimingRecord &lookup(const std::string &Name);
};

/// RAII wall-clock scope; adds one invocation of \p Name on destruction.
/// A null registry makes the scope a no-op, so call sites need no branching.
class TimerScope {
public:
  TimerScope(TimingRegistry *TR, std::string Name)
      : TR(TR), Name(std::move(Name)),
        Start(std::chrono::steady_clock::now()) {}
  ~TimerScope() {
    if (!TR)
      return;
    auto End = std::chrono::steady_clock::now();
    TR->record(Name, static_cast<uint64_t>(
                         std::chrono::duration_cast<std::chrono::nanoseconds>(
                             End - Start)
                             .count()));
  }
  TimerScope(const TimerScope &) = delete;
  TimerScope &operator=(const TimerScope &) = delete;

private:
  TimingRegistry *TR;
  std::string Name;
  std::chrono::steady_clock::time_point Start;
};

} // namespace gdse

#endif // GDSE_SUPPORT_TIMING_H
