//===- ProgramContext.h - Shared, per-program execution context -*- C++ -*-===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shared half of the execution-state split: everything about a run that is
/// program-wide rather than per-thread. One ProgramContext is built per
/// Interp instance and is read (never written) by every ThreadState
/// executing over it, which is what lets the host-threaded loop runner
/// (ThreadedLoop.cpp) fan a loop's iterations out to N worker ThreadStates
/// without any synchronization on program metadata:
///
///  - the module, type context, and options (immutable for the Interp's
///    lifetime);
///  - the VM memory arena (one address space shared by all threads; its own
///    concurrent mode handles registry-level races);
///  - global variable addresses (written only by resetGlobals() between
///    runs, on the main thread);
///  - register-variable classification and precomputed frame layouts;
///  - the guard-plan lookup tables built from InterpOptions::GuardPlans;
///  - static per-loop traits (does the body observe a user __tid? does it
///    call rtpriv_ptr? does a DOACROSS body carry a frame slot? which
///    ordered regions can it execute?) that decide whether a parallel loop
///    is eligible for real host threading or must take the serial-order
///    simulated path;
///  - the lazily-created loop worker pool.
///
/// Mutable per-thread machine state (cycles, frames, traps, guard shadows,
/// output) lives in ThreadState (ExecState.h).
///
//===----------------------------------------------------------------------===//

#ifndef GDSE_INTERP_PROGRAMCONTEXT_H
#define GDSE_INTERP_PROGRAMCONTEXT_H

#include "interp/Interp.h"
#include "ir/IR.h"
#include "support/ThreadPool.h"

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <vector>

namespace gdse {

struct FrameLayout {
  uint64_t Size = 0;
  std::map<const VarDecl *, uint64_t> Offsets;
};

/// The canonical frame layout of \p F: parameters then locals at naturally
/// aligned offsets, frame size at least one byte. Both engines use this one
/// definition, so frame addresses and peak-memory accounting agree.
FrameLayout computeFrameLayout(TypeContext &Ctx, const Function *F);

struct ProgramContext {
  Module &M;
  TypeContext &Ctx;
  const InterpOptions Opts;
  VMMemory Mem;

  /// Global base addresses indexed by VarDecl::getId() (the module's dense
  /// numbering); 0 = not allocated. Written only by resetGlobals().
  std::vector<uint64_t> GlobalAddrById;
  std::vector<uint64_t> GlobalBlocks;

  /// Locals/params whose accesses are free in the cost model (see
  /// collectRegisterVars in ir/AccessInfo.h).
  std::set<const VarDecl *> RegisterVars;

  /// Merged lookup over Opts.GuardPlans: access id -> (loop, class) for
  /// every claimed-private access of every guarded loop, built (like the
  /// plan lookup behind guardPlanFor) only when guarding is on and the
  /// thread count fits the shadow's int8 thread ids. Commutative entries
  /// are members of proven-commutative (reduction) classes: their region is
  /// validated in commit-time-merge mode (span containment plus foreign-touch
  /// watching) instead of carrying a first-write shadow. Access ids are
  /// dense, so the table is indexed by id (every guarded access looks it
  /// up); an unclaimed id holds LoopId == NoLoop.
  struct GuardAccess {
    static constexpr unsigned NoLoop = ~0u;
    unsigned LoopId = NoLoop;
    unsigned Class = 0;
    bool Commutative = false;
  };
  std::vector<GuardAccess> GuardAccessById;

  /// Static facts about each counted loop's body (transitively through
  /// callees), computed once at construction. The host-threaded runner
  /// consults these to decide eligibility without evaluating anything.
  struct LoopTraits {
    /// Body (or a callee) evaluates a user-written __tid. Safe for DOALL
    /// real threading (the chunk index *is* the virtual thread id) but not
    /// for DOACROSS, whose virtual thread assignment is only known after the
    /// fact. Expansion's synthesized copy indices do not count: they only
    /// need an index exclusive to the running iteration, and a DOACROSS
    /// worker substitutes its own worker index.
    bool UsesTid = false;
    /// Body (or a callee) calls rtpriv_ptr: the runtime-privatization
    /// shadow map is inherently serial-order, so simulate.
    bool UsesRtPriv = false;
    /// DOACROSS only: the body may carry a value through the enclosing
    /// frame — it writes a local or parameter slot (other than the IV) that
    /// it reads before writing on some path through an iteration or that
    /// the function references outside the loop, or it takes the address
    /// of a local or writes an element of a frame-local aggregate. Workers
    /// run on private frame copies whose byte-wise merge is exact only for
    /// DOALL chunks, so such a loop keeps the simulated path.
    bool CarriesFrameSlot = false;
    /// Every ordered region the body (or a callee) can enter, for the
    /// DOACROSS cross-iteration ticket protocol.
    std::vector<unsigned> RegionIds;
    /// Every loop (counted or while) the body or a callee can run, so a
    /// host-threaded worker's per-loop stats can be set up before it
    /// starts.
    std::vector<unsigned> InnerLoopIds;
  };
  std::map<unsigned, LoopTraits> LoopTraitsOf;

  /// Absolute steady-clock expiry (monotonicNowNs() units) of the current
  /// run's wall-clock deadline; 0 = no deadline armed. Re-armed by
  /// armDeadline() at each run start, read concurrently by workers.
  std::atomic<uint64_t> DeadlineNs{0};

  /// Arms DeadlineNs from Opts.Resilience.Budget.DeadlineMs (run start).
  void armDeadline();

  ProgramContext(Module &M, InterpOptions Opts);
  ~ProgramContext();
  ProgramContext(const ProgramContext &) = delete;
  ProgramContext &operator=(const ProgramContext &) = delete;

  /// Frame layouts are precomputed for every defined function and referenced
  /// by address; the map is never mutated after construction, so concurrent
  /// readers are safe.
  const FrameLayout &layoutOf(const Function *F) const;

  const LoopTraits *loopTraits(unsigned LoopId) const {
    auto It = LoopTraitsOf.find(LoopId);
    return It == LoopTraitsOf.end() ? nullptr : &It->second;
  }

  /// The plan guarding loop \p LoopId's parallel invocations, or null when
  /// the loop is unguarded (no plan, GuardMode::Off, or more than 127
  /// threads).
  const GuardPlan *guardPlanFor(unsigned LoopId) const {
    auto It = GuardPlanOf.find(LoopId);
    return It == GuardPlanOf.end() ? nullptr : It->second;
  }

  /// Deallocates and re-allocates zeroed globals (run start).
  void resetGlobals();

  /// The worker pool for host-threaded loops: Opts.NumThreads workers,
  /// created on first use. Loop chunks run under a TaskGroup whose waiter
  /// helps, so the pool being narrower than the request degrades gracefully
  /// instead of deadlocking. Returns null when thread creation failed
  /// (std::system_error from std::thread, or an injected worker-start-fail
  /// fault) — the caller degrades the loop to the simulated serial-order
  /// path. The failure is sticky (no retry storm) and reported once as a
  /// warning through Opts.Resilience.Diags.
  ThreadPool *loopPoolOrNull();

private:
  /// Loop id -> plan (owned by Opts.GuardPlans).
  std::map<unsigned, const GuardPlan *> GuardPlanOf;
  std::map<const Function *, FrameLayout> Layouts;
  std::unique_ptr<ThreadPool> LoopPool;
  std::mutex LoopPoolMu;
  bool LoopPoolTried = false;
  bool LoopPoolFailed = false;
};

} // namespace gdse

#endif // GDSE_INTERP_PROGRAMCONTEXT_H
