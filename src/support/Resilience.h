//===- Resilience.h - Budgets, fault injection, degradation -----*- C++ -*-===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The execution resilience substrate shared by every engine: the ExecBudget
/// (wall-clock deadline, cycle cap, byte budget) the VM polls at loop and
/// allocation boundaries, the seeded FaultInjector that lets tests and CI
/// drive every failure path deterministically, and the ResilienceOptions
/// bundle carried in InterpOptions. The enforcement points live in interp/
/// (ExecState, Memory, ThreadedLoop, ProgramContext); this header holds only
/// policy and parsing so the support layer stays free of interp types.
///
/// Failure handling follows one ladder, inside the run: a threads-engine
/// failure (worker pool unavailable, DOACROSS watchdog fire) degrades the
/// loop invocation to the simulated serial-order path of the same run, each
/// hop reported through ResilienceOptions::Diags. A wedge the watchdog cannot
/// roll back (the arena was already speculating) ends the run with one
/// attributed watchdog trap. Resource breaches (deadline, cycle cap, byte
/// budget, allocation failure) are not ladder rungs: re-running would breach
/// again, so they convert into one attributed trap with deterministic
/// teardown.
///
//===----------------------------------------------------------------------===//

#ifndef GDSE_SUPPORT_RESILIENCE_H
#define GDSE_SUPPORT_RESILIENCE_H

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

namespace gdse {

class DiagnosticEngine;

/// Monotonic wall clock in nanoseconds (std::chrono::steady_clock), the one
/// time base every deadline and watchdog comparison uses.
uint64_t monotonicNowNs();

/// Per-run execution budget; 0 disables each axis. Carried by value in
/// InterpOptions (via ResilienceOptions) and enforced inside the VM:
///  - DeadlineMs: wall-clock ceiling for one run(), polled at loop-iteration
///    and allocation boundaries on every engine (workers included) and
///    converted into an attributed trap on breach;
///  - MaxCycles: virtual work-cycle cap, checked at every loop-iteration
///    boundary (forces the simulated path under the threads engine);
///  - MaxBytes: ceiling on the VM arena's live tracked bytes; an allocation
///    that would cross it fails and traps as out-of-memory.
struct ExecBudget {
  uint64_t DeadlineMs = 0;
  uint64_t MaxCycles = 0;
  uint64_t MaxBytes = 0;

  bool any() const { return DeadlineMs || MaxCycles || MaxBytes; }
};

/// Deterministic, seeded fault injection for exercising every resilience
/// path. A spec is a comma-separated list of rules plus parameters:
///
///   alloc-fail@3            fire at exactly the 3rd opportunity (one-shot)
///   lane-delay~16,seed=7    fire with probability 1/16 per opportunity,
///                           from a seeded PRNG (deterministic per seed)
///   delay-ms=50             stall duration for lane-delay fires
///
/// Points:
///   alloc-fail         a heap allocation (malloc/calloc/realloc/rtpriv
///                      shadow) reports failure -> out-of-memory trap path
///   worker-start-fail  the lazy loop ThreadPool construction fails as if
///                      std::thread had thrown -> serial degradation path
///   lane-delay         a DOACROSS ordered-region entry stalls for
///                      delay-ms -> watchdog / recovery path
///   guard-violation    a spurious dependence violation is reported at an
///                      iteration boundary of a guarded invocation -> guard
///                      check/fallback path
///
/// The injector is shared (std::shared_ptr) and internally synchronized:
/// worker threads consult it concurrently, and a loop invocation re-run on
/// the simulated path sees the same counters, so a one-shot fault does not
/// re-fire on the retry.
class FaultInjector {
public:
  enum class Point : uint8_t {
    AllocFail,
    WorkerStartFail,
    LaneDelay,
    GuardViolation,
  };
  static constexpr unsigned NumPoints = 4;

  /// Spec-grammar name of \p P ("alloc-fail", ...).
  static const char *pointName(Point P);

  /// Parses \p Spec; returns null and fills \p Err on malformed input. An
  /// empty spec yields an injector with no armed rules (never fires).
  static std::shared_ptr<FaultInjector> parse(const std::string &Spec,
                                              std::string &Err);

  /// True when the next opportunity at \p P should fail. Thread-safe;
  /// advances the opportunity counter (and PRNG for probabilistic rules).
  bool shouldFire(Point P);

  /// True when any rule is armed for \p P (cheap pre-check for callers that
  /// want to skip work entirely when the point is cold).
  bool armed(Point P) const;

  /// How often \p P actually fired so far (test observability).
  uint64_t fireCount(Point P) const;

  /// Stall duration for lane-delay fires.
  uint64_t delayMillis() const { return DelayMs; }

private:
  struct Rule {
    uint64_t Nth = 0;  ///< fire at exactly this opportunity (1-based), once
    uint64_t Prob = 0; ///< else fire with probability 1/Prob
  };
  Rule Rules[NumPoints];
  uint64_t Opportunities[NumPoints] = {0, 0, 0, 0};
  uint64_t Fires[NumPoints] = {0, 0, 0, 0};
  uint64_t DelayMs = 25;
  uint64_t PrngState = 0x9e3779b97f4a7c15ull;
  mutable std::mutex Mu;

  uint64_t nextRand();
};

/// The resilience policy of one run, carried in InterpOptions.
struct ResilienceOptions {
  ExecBudget Budget;
  /// DOACROSS watchdog: declare the ticket frontier wedged when no lane
  /// makes progress for this many milliseconds (0 = watchdog off). A fire
  /// rolls the invocation back to its pre-invocation state and re-runs it
  /// on the simulated serial-order path.
  uint64_t WatchdogMs = 0;
  std::shared_ptr<FaultInjector> Faults;
  /// Sink for structured resilience events (degradation hops, watchdog
  /// fires, pool failures), pass "resilience". May be null.
  DiagnosticEngine *Diags = nullptr;

  bool anyActive() const {
    return Budget.any() || WatchdogMs || Faults != nullptr;
  }
};

/// Builds ResilienceOptions from the environment: GDSE_DEADLINE_MS,
/// GDSE_MEM_BUDGET (bytes), GDSE_WATCHDOG_MS, GDSE_FAULTS (spec). Malformed
/// values warn once through envDiags() and are ignored, like every other
/// GDSE_* variable.
ResilienceOptions resilienceFromEnv();

} // namespace gdse

#endif // GDSE_SUPPORT_RESILIENCE_H
