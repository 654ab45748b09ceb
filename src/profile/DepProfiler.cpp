//===- DepProfiler.cpp - Shadow-memory dependence profiling ----------------===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "profile/DepProfiler.h"

using namespace gdse;

DepProfiler::DepProfiler(unsigned TargetLoopId) : TargetLoopId(TargetLoopId) {
  Graph.LoopId = TargetLoopId;
  Shadow.reserve(1 << 16);
}

DepProfiler::~DepProfiler() = default;

void DepProfiler::onLoopEnter(unsigned LoopId) {
  if (LoopId != TargetLoopId)
    return;
  if (InsideDepth++ == 0) {
    ++CurInvocation;
    ++Graph.Invocations;
    CurIter = -1; // set by the first onLoopIter
  }
}

void DepProfiler::onLoopIter(unsigned LoopId, uint64_t Iter) {
  if (LoopId != TargetLoopId || InsideDepth != 1)
    return;
  CurIter = static_cast<int64_t>(Iter);
  ++Graph.Iterations;
}

void DepProfiler::onLoopExit(unsigned LoopId) {
  if (LoopId != TargetLoopId)
    return;
  if (InsideDepth > 0 && --InsideDepth == 0)
    CurIter = -1;
}

void DepProfiler::recordLoadByte(AccessId Id, uint64_t Addr) {
  ShadowCell &Cell = Shadow[Addr];
  bool InLoop = CurIter >= 0;

  if (InLoop) {
    bool WrittenThisInvocation = Cell.HasWrite &&
                                 Cell.WriteInvocation == CurInvocation &&
                                 Cell.WriteIter >= 0;
    if (WrittenThisInvocation) {
      if (Cell.WriteIter == CurIter) {
        // Covered by a write of the same iteration: loop-independent flow.
        Graph.addEdge(Cell.LastWrite, Id, DepKind::Flow, /*Carried=*/false);
      } else {
        // Definition 1: carried flow only when not covered this iteration.
        Graph.addEdge(Cell.LastWrite, Id, DepKind::Flow, /*Carried=*/true);
      }
    } else if (Id != InvalidAccessId) {
      // Value comes from outside the current loop invocation (Definition 2).
      Graph.UpwardsExposedLoads.insert(Id);
    }
    // Record the read for later anti-dependence edges.
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

  // Read outside the loop: an in-loop store (of ANY invocation) whose value
  // is still visible here is downwards-exposed (Definition 3).
  if (Cell.HasWrite && Cell.WriteIter >= 0 &&
      Cell.LastWrite != InvalidAccessId)
    Graph.DownwardsExposedStores.insert(Cell.LastWrite);
}

void DepProfiler::recordStoreByte(AccessId Id, uint64_t Addr) {
  ShadowCell &Cell = Shadow[Addr];
  bool InLoop = CurIter >= 0;

  if (InLoop) {
    // Output dependence with the previous in-loop write of this invocation.
    if (Cell.HasWrite && Cell.WriteIter >= 0 &&
        Cell.WriteInvocation == CurInvocation)
      Graph.addEdge(Cell.LastWrite, Id, DepKind::Output,
                    /*Carried=*/Cell.WriteIter < CurIter);
    // Anti dependences with reads since the last write.
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

void DepProfiler::onLoad(AccessId Id, uint64_t Addr, uint64_t Size) {
  if (CurIter >= 0 && Id != InvalidAccessId)
    ++Graph.DynCount[Id];
  for (uint64_t K = 0; K != Size; ++K)
    recordLoadByte(Id, Addr + K);
}

void DepProfiler::onStore(AccessId Id, uint64_t Addr, uint64_t Size) {
  if (CurIter >= 0 && Id != InvalidAccessId)
    ++Graph.DynCount[Id];
  for (uint64_t K = 0; K != Size; ++K)
    recordStoreByte(Id, Addr + K);
}

void DepProfiler::onBulkAccess(bool IsWrite, uint64_t Addr, uint64_t Size,
                               Builtin B, uint32_t CallSiteId) {
  (void)CallSiteId;
  bool InLoop = CurIter >= 0;
  if (InLoop) {
    // calloc zero-fill defines fresh memory and cannot create dependences
    // with anything (the block is new). Other bulk accesses are not modeled
    // as graph vertices; flag the loop so the planner stays conservative.
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

void DepProfiler::wipeRange(uint64_t Addr, uint64_t Size) {
  // Cheap path: few shadowed bytes -> iterate the map instead of the range.
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

void DepProfiler::onAlloc(const Allocation &A) { wipeRange(A.Base, A.Size); }

void DepProfiler::onFree(const Allocation &A) { wipeRange(A.Base, A.Size); }

LoopDepGraph DepProfiler::takeGraph() { return std::move(Graph); }

ProfileResult
gdse::profileLoop(Module &M, unsigned TargetLoopId, const std::string &Entry,
                  std::shared_ptr<const BytecodeModule> Precompiled) {
  InterpOptions Opts;
  Opts.NumThreads = 1;
  Opts.SimulateParallel = false;
  Opts.Engine = ExecEngine::Bytecode;
  Opts.Precompiled = std::move(Precompiled);
  DepProfiler Profiler(TargetLoopId);
  Interp I(M, Opts);
  I.setObserver(&Profiler);
  ProfileResult R;
  R.Run = I.run(Entry);
  R.Graph = Profiler.takeGraph();
  return R;
}
