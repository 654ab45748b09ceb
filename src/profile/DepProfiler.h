//===- DepProfiler.h - Shadow-memory dependence profiling -------*- C++ -*-===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builds the loop-level data dependence graph by executing the program
/// under the VM with byte-granular shadow memory — the stand-in for the
/// paper's off-line dependence profiling tools [38,39] (§2, §4.1).
///
/// For one target loop per run it classifies, per byte:
///  - flow dependences, split into loop-independent (read covered by a write
///    of the same iteration) and loop-carried (Definition 1's refinement:
///    a read is carried-dependent only when NOT covered by a prior write in
///    its own iteration);
///  - anti and output dependences, carried or independent;
///  - upwards-exposed loads (value produced outside the current loop
///    invocation, Definition 2);
///  - downwards-exposed stores (value consumed after the loop, Definition 3).
///
/// Freed or reallocated memory never induces false dependences: alloc/free
/// events wipe the affected shadow range, so address reuse by the allocator
/// (or by stack frames of repeated calls) starts from a clean slate.
///
//===----------------------------------------------------------------------===//

#ifndef GDSE_PROFILE_DEPPROFILER_H
#define GDSE_PROFILE_DEPPROFILER_H

#include "analysis/DepGraph.h"
#include "interp/Interp.h"

#include <memory>
#include <unordered_map>

namespace gdse {

/// Observer that accumulates the dependence graph for one loop id.
class DepProfiler : public InterpObserver {
public:
  explicit DepProfiler(unsigned TargetLoopId);
  ~DepProfiler() override;

  void onLoad(AccessId Id, uint64_t Addr, uint64_t Size) override;
  void onStore(AccessId Id, uint64_t Addr, uint64_t Size) override;
  void onBulkAccess(bool IsWrite, uint64_t Addr, uint64_t Size, Builtin B,
                    uint32_t CallSiteId) override;
  void onAlloc(const Allocation &A) override;
  void onFree(const Allocation &A) override;
  void onLoopEnter(unsigned LoopId) override;
  void onLoopIter(unsigned LoopId, uint64_t Iter) override;
  void onLoopExit(unsigned LoopId) override;

  /// The accumulated graph (valid after the instrumented run finishes).
  LoopDepGraph takeGraph();

private:
  struct CellReads {
    static constexpr unsigned Capacity = 4;
    AccessId Ids[Capacity];
    int64_t Iters[Capacity];
    uint32_t Invocations[Capacity];
    uint8_t Count = 0;
  };
  struct ShadowCell {
    AccessId LastWrite = InvalidAccessId;
    /// Iteration of the target loop at the last write; -1 = outside loop.
    int64_t WriteIter = -1;
    /// Target-loop invocation of the last write; 0 = before any invocation.
    uint32_t WriteInvocation = 0;
    bool HasWrite = false;
    CellReads Reads;
  };

  void recordLoadByte(AccessId Id, uint64_t Addr);
  void recordStoreByte(AccessId Id, uint64_t Addr);
  void wipeRange(uint64_t Addr, uint64_t Size);

  unsigned TargetLoopId;
  LoopDepGraph Graph;
  /// Current iteration of the target loop (-1 when not inside it).
  int64_t CurIter = -1;
  /// Invocation counter of the target loop (0 before the first entry).
  uint32_t CurInvocation = 0;
  /// Nesting depth inside the target loop (handles recursive re-entry).
  unsigned InsideDepth = 0;
  std::unordered_map<uint64_t, ShadowCell> Shadow;
};

/// Result of one profiling run.
struct ProfileResult {
  LoopDepGraph Graph;
  RunResult Run;
};

/// Executes \p Entry sequentially on the bytecode VM under a DepProfiler
/// targeting \p TargetLoopId and returns the graph plus the run result. The
/// run uses \p Precompiled when given (the AnalysisManager's cached
/// per-module lowering) and lowers the module itself otherwise. The
/// reference tree-walker produces the identical event stream when run with
/// a DepProfiler observer (EngineDiffTest, PassManagerTest).
ProfileResult
profileLoop(Module &M, unsigned TargetLoopId, const std::string &Entry = "main",
            std::shared_ptr<const BytecodeModule> Precompiled = nullptr);

} // namespace gdse

#endif // GDSE_PROFILE_DEPPROFILER_H
