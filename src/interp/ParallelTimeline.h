//===- ParallelTimeline.h - Virtual multicore timeline ----------*- C++ -*-===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The virtual N-core timeline of one parallel loop invocation, factored out
/// of the simulated runner so the host-threaded runner (ThreadedLoop.cpp) can
/// replay its recorded per-iteration work through the *same* arithmetic after
/// the join. Bit-identity of SimTime and the per-thread stall/idle/dispatch
/// stats between the simulated and threaded engines follows from sharing this
/// one implementation: both feed iterations in ascending iteration order with
/// identical work-cycle counts and ordered-event offsets.
///
//===----------------------------------------------------------------------===//

#ifndef GDSE_INTERP_PARALLELTIMELINE_H
#define GDSE_INTERP_PARALLELTIMELINE_H

#include "interp/ExecState.h"

#include <algorithm>
#include <map>
#include <vector>

namespace gdse {

struct ParallelTimeline {
  const CostModel &CM;
  unsigned N;
  bool DOALL;
  /// Iterations per static DOALL chunk (1 under DOACROSS).
  uint64_t Chunk;
  std::vector<uint64_t> Ready, Work, Stall, Dispatch;
  /// Ordered region id -> virtual time at which the region becomes free.
  std::map<unsigned, uint64_t> RegionFree;

  ParallelTimeline(const CostModel &CM, unsigned N, bool DOALL,
                   uint64_t Total)
      : CM(CM), N(N), DOALL(DOALL),
        Chunk(DOALL ? std::max<uint64_t>(1, (Total + N - 1) / N) : 1),
        Ready(N, 0), Work(N, 0), Stall(N, 0), Dispatch(N, 0) {
    if (DOALL)
      for (unsigned T = 0; T != N; ++T) {
        Ready[T] = CM.ChunkStartup;
        Dispatch[T] = CM.ChunkStartup;
      }
  }

  /// The virtual thread that runs iteration \p It; iterations are dispatched
  /// once each, in ascending order. DOALL: the owner of It's static chunk
  /// (thread T owns [T*Chunk, (T+1)*Chunk)). DOACROSS: the earliest-ready
  /// thread, which pays the dispatch overhead up front.
  unsigned dispatch(uint64_t It) {
    if (DOALL)
      return static_cast<unsigned>(std::min<uint64_t>(It / Chunk, N - 1));
    unsigned T = 0;
    for (unsigned I = 1; I != N; ++I)
      if (Ready[I] < Ready[T])
        T = I;
    Ready[T] += CM.IterDispatch;
    Dispatch[T] += CM.IterDispatch;
    return T;
  }

  /// Accounts one finished iteration of \p W work cycles on virtual thread
  /// \p T. Ordered-region entries later than the region's free time shift
  /// the rest of the iteration (a stall); each region's free time advances
  /// to the (shifted) exit.
  void completeIter(unsigned T, uint64_t W, const OrderedEvent *Events,
                    size_t NumEvents) {
    uint64_t StartT = Ready[T];
    uint64_t Shift = 0;
    for (size_t I = 0; I != NumEvents; ++I) {
      const OrderedEvent &Ev = Events[I];
      uint64_t Entry = StartT + Ev.EntryOff + Shift;
      uint64_t &Free = RegionFree[Ev.RegionId];
      if (Free > Entry) {
        uint64_t S = Free - Entry;
        Shift += S;
        Stall[T] += S;
      }
      Free = StartT + Ev.ExitOff + Shift;
    }
    Ready[T] = StartT + W + Shift;
    Work[T] += W;
  }

  uint64_t maxReady() const {
    uint64_t MR = 0;
    for (uint64_t R : Ready)
      MR = std::max(MR, R);
    return MR;
  }

  /// Folds this invocation's per-thread stats into \p LS (whose per-thread
  /// vectors must already be sized to N).
  void accumulate(LoopStats &LS) const {
    uint64_t MR = maxReady();
    for (unsigned T = 0; T != N; ++T) {
      LS.WorkPerThread[T] += Work[T];
      LS.SyncStallPerThread[T] += Stall[T];
      LS.DispatchPerThread[T] += Dispatch[T];
      LS.IdlePerThread[T] += MR - Ready[T];
    }
  }
};

} // namespace gdse

#endif // GDSE_INTERP_PARALLELTIMELINE_H
