//===- ReferenceDepProfiler.h - Oracle dependence profiler ------*- C++ -*-===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Test-only oracle for DepProfiler: the straightforward per-byte
/// algorithm, one std::unordered_map cell per shadowed byte, with the
/// target loop's iteration and invocation stored per write and per read.
/// It is slow and obviously faithful to Definitions 1-3; the differential
/// tests require the production profiler to produce the same graph (str()
/// and every DynCount entry) on every workload loop and on random programs.
///
//===----------------------------------------------------------------------===//

#ifndef GDSE_TESTS_REFERENCEDEPPROFILER_H
#define GDSE_TESTS_REFERENCEDEPPROFILER_H

#include "analysis/DepGraph.h"
#include "interp/Interp.h"
#include "profile/DepProfiler.h"

#include <memory>
#include <unordered_map>

namespace gdse {

class ReferenceDepProfiler : public InterpObserver {
public:
  explicit ReferenceDepProfiler(unsigned TargetLoopId)
      : TargetLoopId(TargetLoopId) {
    Graph.LoopId = TargetLoopId;
    Shadow.reserve(1 << 16);
  }

  void onLoopEnter(unsigned LoopId) override {
    if (LoopId != TargetLoopId)
      return;
    if (InsideDepth++ == 0) {
      ++CurInvocation;
      ++Graph.Invocations;
      CurIter = -1; // set by the first onLoopIter
    }
  }

  void onLoopIter(unsigned LoopId, uint64_t Iter) override {
    if (LoopId != TargetLoopId || InsideDepth != 1)
      return;
    CurIter = static_cast<int64_t>(Iter);
    ++Graph.Iterations;
  }

  void onLoopExit(unsigned LoopId) override {
    if (LoopId != TargetLoopId)
      return;
    if (InsideDepth > 0 && --InsideDepth == 0)
      CurIter = -1;
  }

  void onLoad(AccessId Id, uint64_t Addr, uint64_t Size) override {
    if (CurIter >= 0 && Id != InvalidAccessId)
      ++Graph.DynCount[Id];
    for (uint64_t K = 0; K != Size; ++K)
      recordLoadByte(Id, Addr + K);
  }

  void onStore(AccessId Id, uint64_t Addr, uint64_t Size) override {
    if (CurIter >= 0 && Id != InvalidAccessId)
      ++Graph.DynCount[Id];
    for (uint64_t K = 0; K != Size; ++K)
      recordStoreByte(Id, Addr + K);
  }

  void onBulkAccess(bool IsWrite, uint64_t Addr, uint64_t Size, Builtin B,
                    uint32_t CallSiteId) override {
    (void)CallSiteId;
    bool InLoop = CurIter >= 0;
    if (InLoop) {
      if (B != Builtin::CallocFn)
        Graph.HasUnmodeled = true;
    }
    if (IsWrite) {
      for (uint64_t K = 0; K != Size; ++K)
        recordStoreByte(InvalidAccessId, Addr + K);
    } else {
      for (uint64_t K = 0; K != Size; ++K)
        recordLoadByte(InvalidAccessId, Addr + K);
    }
  }

  void onAlloc(const Allocation &A) override { wipeRange(A.Base, A.Size); }
  void onFree(const Allocation &A) override { wipeRange(A.Base, A.Size); }

  LoopDepGraph takeGraph() { return std::move(Graph); }

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

  // The bodies below are the pre-paging DepProfiler's, unchanged.
  void recordLoadByte(AccessId Id, uint64_t Addr) {
    ShadowCell &Cell = Shadow[Addr];
    bool InLoop = CurIter >= 0;

    if (InLoop) {
      bool WrittenThisInvocation = Cell.HasWrite &&
                                   Cell.WriteInvocation == CurInvocation &&
                                   Cell.WriteIter >= 0;
      if (WrittenThisInvocation) {
        if (Cell.WriteIter == CurIter) {
          Graph.addEdge(Cell.LastWrite, Id, DepKind::Flow, /*Carried=*/false);
        } else {
          Graph.addEdge(Cell.LastWrite, Id, DepKind::Flow, /*Carried=*/true);
        }
      } else if (Id != InvalidAccessId) {
        Graph.UpwardsExposedLoads.insert(Id);
      }
      CellReads &R = Cell.Reads;
      for (unsigned I = 0; I != R.Count; ++I) {
        if (R.Ids[I] == Id) {
          R.Iters[I] = CurIter;
          R.Invocations[I] = CurInvocation;
          return;
        }
      }
      if (R.Count < CellReads::Capacity) {
        R.Ids[R.Count] = Id;
        R.Iters[R.Count] = CurIter;
        R.Invocations[R.Count] = CurInvocation;
        ++R.Count;
      }
      return;
    }

    if (Cell.HasWrite && Cell.WriteIter >= 0 &&
        Cell.LastWrite != InvalidAccessId)
      Graph.DownwardsExposedStores.insert(Cell.LastWrite);
  }

  void recordStoreByte(AccessId Id, uint64_t Addr) {
    ShadowCell &Cell = Shadow[Addr];
    bool InLoop = CurIter >= 0;

    if (InLoop) {
      if (Cell.HasWrite && Cell.WriteIter >= 0 &&
          Cell.WriteInvocation == CurInvocation)
        Graph.addEdge(Cell.LastWrite, Id, DepKind::Output,
                      /*Carried=*/Cell.WriteIter < CurIter);
      for (unsigned I = 0; I != Cell.Reads.Count; ++I)
        if (Cell.Reads.Invocations[I] == CurInvocation &&
            Cell.Reads.Iters[I] >= 0)
          Graph.addEdge(Cell.Reads.Ids[I], Id, DepKind::Anti,
                        /*Carried=*/Cell.Reads.Iters[I] < CurIter);
      Cell.LastWrite = Id;
      Cell.WriteIter = CurIter;
      Cell.WriteInvocation = CurInvocation;
      Cell.HasWrite = true;
      Cell.Reads.Count = 0;
      return;
    }

    Cell.LastWrite = Id;
    Cell.WriteIter = -1;
    Cell.WriteInvocation = CurInvocation;
    Cell.HasWrite = true;
    Cell.Reads.Count = 0;
  }

  void wipeRange(uint64_t Addr, uint64_t Size) {
    if (Size > Shadow.size() * 2) {
      for (auto It = Shadow.begin(); It != Shadow.end();) {
        if (It->first >= Addr && It->first < Addr + Size)
          It = Shadow.erase(It);
        else
          ++It;
      }
      return;
    }
    for (uint64_t K = 0; K != Size; ++K)
      Shadow.erase(Addr + K);
  }

  unsigned TargetLoopId;
  LoopDepGraph Graph;
  int64_t CurIter = -1;
  uint32_t CurInvocation = 0;
  unsigned InsideDepth = 0;
  std::unordered_map<uint64_t, ShadowCell> Shadow;
};

/// Profiles \p TargetLoopId of \p M with the oracle on the serial bytecode
/// VM, running \p Precompiled when given (the same lowering profileLoop
/// executes).
inline ProfileResult
referenceProfile(Module &M, unsigned TargetLoopId,
                 std::shared_ptr<const BytecodeModule> Precompiled = nullptr) {
  InterpOptions Opts;
  Opts.NumThreads = 1;
  Opts.SimulateParallel = false;
  Opts.Engine = ExecEngine::Bytecode;
  Opts.Precompiled = std::move(Precompiled);
  ReferenceDepProfiler Profiler(TargetLoopId);
  Interp I(M, Opts);
  I.setObserver(&Profiler);
  ProfileResult R;
  R.Run = I.run();
  R.Graph = Profiler.takeGraph();
  return R;
}

} // namespace gdse

#endif // GDSE_TESTS_REFERENCEDEPPROFILER_H
