//===- DepProfiler.cpp - Shadow-memory dependence profiling ----------------===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "profile/DepProfiler.h"

#include "support/Support.h"

#include <algorithm>
#include <cstring>
#include <new>

#include <sys/mman.h>

using namespace gdse;

namespace {
/// Stamps are 32-bit; rebaseStamps() renumbers them before they wrap.
constexpr uint32_t MaxSeq = ~uint32_t(0);
} // namespace

DepProfiler::DepProfiler(unsigned TargetLoopId) : TargetLoopId(TargetLoopId) {
  Graph.LoopId = TargetLoopId;
}

DepProfiler::~DepProfiler() = default;

void DepProfiler::PageDeleter::operator()(Page *P) const {
  munmap(P, sizeof(Page));
}

size_t DepProfiler::EdgeHash::operator()(const DepEdge &E) const {
  uint64_t H = E.Src * 0x9E3779B97F4A7C15ull ^ E.Dst * 0xC2B2AE3D27D4EB4Full ^
               (static_cast<uint64_t>(E.Kind) << 1 | E.Carried) *
                   0x165667B19E3779F9ull;
  return static_cast<size_t>(H ^ H >> 32);
}

void DepProfiler::onLoopEnter(unsigned LoopId) {
  if (LoopId != TargetLoopId)
    return;
  if (InsideDepth++ == 0) {
    ++Graph.Invocations;
    if (Seq == MaxSeq)
      rebaseStamps();
    InvStart = Seq + 1;
    CurSeq = 0; // set by the first onLoopIter
  }
}

void DepProfiler::onLoopIter(unsigned LoopId, uint64_t Iter) {
  (void)Iter;
  if (LoopId != TargetLoopId || InsideDepth != 1)
    return;
  if (Seq == MaxSeq)
    rebaseStamps();
  CurSeq = ++Seq;
  ++Graph.Iterations;
}

void DepProfiler::onLoopExit(unsigned LoopId) {
  if (LoopId != TargetLoopId)
    return;
  if (InsideDepth > 0 && --InsideDepth == 0)
    CurSeq = 0;
}

void DepProfiler::rebaseStamps() {
  // Order-preserving renumbering: every stamp of an earlier invocation
  // becomes 1, the current invocation's start becomes 2.
  auto Rebase = [this](uint32_t S) -> uint32_t {
    if (S == 0)
      return 0;
    return S < InvStart ? 1 : S - InvStart + 2;
  };
  for (auto &[Key, P] : Pages) {
    (void)Key;
    for (Cell &C : P->Cells) {
      C.WriteSeq = Rebase(C.WriteSeq);
      for (uint32_t &S : C.ReaderSeqs)
        S = Rebase(S);
    }
  }
  Seq = Rebase(Seq);
  CurSeq = Rebase(CurSeq);
  InvStart = 2;
  if (Seq == MaxSeq)
    reportFatalError("dependence profiler: one invocation of the target "
                     "loop ran out of 32-bit iteration stamps");
}

DepProfiler::Page *DepProfiler::fillSlot(PageSlot &Slot, uint64_t Key,
                                         bool Create) {
  if (Slot.Key != Key) {
    auto It = Pages.find(Key);
    Slot.Key = Key;
    Slot.P = It == Pages.end() ? nullptr : It->second.get();
  }
  if (!Slot.P && Create) {
    // Anonymous mappings read as zero (a missing page reads as all-zero
    // cells too), keep host pages of never-touched cells unresident, and
    // go back to the kernel when the profiler ends. From the heap, 160 KiB
    // blocks recycled across profiling runs would be zeroed in full.
    void *Mem = mmap(nullptr, sizeof(Page), PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (Mem == MAP_FAILED)
      throw std::bad_alloc();
    auto *P = static_cast<Page *>(Mem);
    Pages.emplace(Key, std::unique_ptr<Page, PageDeleter>(P));
    Slot.P = P;
    ++Stats.ShadowPages;
  }
  return Slot.P;
}

inline DepProfiler::Cell *DepProfiler::cells(uint64_t Addr, bool Create) {
  uint64_t Key = Addr >> PageBits;
  PageSlot &Slot = PageCache[Key % PageCacheSize];
  Page *P = Slot.P;
  if (Slot.Key != Key || (!P && Create)) [[unlikely]]
    P = fillSlot(Slot, Key, Create);
  return P ? P->Cells + (Addr & (PageCells - 1)) : nullptr;
}

inline void DepProfiler::mark(std::vector<uint8_t> &Flags, AccessId Id) {
  if (Id == InvalidAccessId)
    return;
  if (Id >= Flags.size())
    Flags.resize(std::max<size_t>(Id + 1, Flags.size() * 2));
  Flags[Id] = 1;
}

inline void DepProfiler::addEdge(AccessId Src, AccessId Dst, DepKind K,
                                 bool Carried) {
  if (Src == InvalidAccessId || Dst == InvalidAccessId)
    return;
  DepEdge E{Src, Dst, K, Carried};
  DepEdge &Slot = EdgeCache[EdgeHash()(E) % EdgeCacheSize];
  if (Slot == E)
    return;
  Slot = E;
  Edges.insert(E);
}

inline void DepProfiler::loadByte(Cell &C, AccessId Id) {
  if (CurSeq == 0) {
    // Read outside the loop: an in-loop store (of ANY invocation) whose
    // value is still visible here is downwards-exposed (Definition 3).
    if (C.WriteSeq != 0)
      mark(DownwardsExposed, C.Writer);
    return;
  }
  if (C.WriteSeq >= InvStart) {
    // Definition 1: a read covered by a write of its own iteration is
    // loop-independent flow; otherwise the flow is carried.
    addEdge(C.Writer, Id, DepKind::Flow, /*Carried=*/C.WriteSeq != CurSeq);
  } else {
    // Value comes from outside the current loop invocation (Definition 2).
    mark(UpwardsExposed, Id);
  }
  // Record the read for later anti-dependence edges.
  for (unsigned I = 0; I != MaxReaders; ++I) {
    if (C.ReaderSeqs[I] == 0) {
      C.ReaderIds[I] = Id;
      C.ReaderSeqs[I] = CurSeq;
      return;
    }
    if (C.ReaderIds[I] == Id) {
      C.ReaderSeqs[I] = CurSeq;
      return;
    }
  }
  ++Stats.DroppedReads;
}

inline void DepProfiler::storeByte(Cell &C, AccessId Id) {
  // Output dependence with the previous in-loop write of this invocation.
  if (C.WriteSeq >= InvStart)
    addEdge(C.Writer, Id, DepKind::Output, /*Carried=*/C.WriteSeq < CurSeq);
  // Anti dependences with this invocation's reads since the last write.
  for (unsigned I = 0; I != MaxReaders && C.ReaderSeqs[I] != 0; ++I)
    if (C.ReaderSeqs[I] >= InvStart)
      addEdge(C.ReaderIds[I], Id, DepKind::Anti,
              /*Carried=*/C.ReaderSeqs[I] < CurSeq);
  C.Writer = Id;
  C.WriteSeq = CurSeq;
  // Clear the ids too, so cells with one logical state compare equal.
  std::memset(C.ReaderIds, 0, sizeof(C.ReaderIds));
  std::memset(C.ReaderSeqs, 0, sizeof(C.ReaderSeqs));
}

template <bool IsWrite> inline void DepProfiler::step(Cell &C, AccessId Id) {
  if constexpr (IsWrite)
    storeByte(C, Id);
  else
    loadByte(C, Id);
}

bool DepProfiler::uniform(const Cell *C, uint64_t N) {
  // Cells have no padding, and unused reader slots are always zero, so
  // two cells hold the same state exactly when their bytes are equal.
  for (uint64_t K = 1; K != N; ++K)
    if (std::memcmp(&C[K], &C[0], sizeof(Cell)) != 0)
      return false;
  return true;
}

void DepProfiler::wipeRange(uint64_t Addr, uint64_t Size) {
  while (Size != 0) {
    uint64_t N = std::min(Size, PageCells - (Addr & (PageCells - 1)));
    if (Cell *C = cells(Addr, /*Create=*/false))
      std::memset(C, 0, N * sizeof(Cell));
    Addr += N;
    Size -= N;
  }
}

template <bool IsWrite>
void DepProfiler::access(AccessId Id, uint64_t Addr, uint64_t Size) {
  ++Stats.Accesses;
  Stats.Bytes += Size;
  const bool InLoop = CurSeq != 0;
  if (IsWrite && !InLoop) {
    wipeRange(Addr, Size); // a write outside the loop resets the cells
    return;
  }
  if (InLoop && Id != InvalidAccessId) {
    if (Id >= DynCount.size())
      DynCount.resize(std::max<size_t>(Id + 1, DynCount.size() * 2));
    ++DynCount[Id];
  }
  while (Size != 0) {
    uint64_t N = std::min(Size, PageCells - (Addr & (PageCells - 1)));
    // Only in-loop accesses need a page: on a missing page every cell
    // reads as never written, so an outside load has nothing to see.
    if (Cell *C = cells(Addr, /*Create=*/InLoop)) {
      if (InLoop && uniform(C, N)) {
        // One shadow state for every byte: step it once and replicate.
        // Edges and exposure marks are sets, so only the dropped-read
        // count needs scaling by the byte count.
        uint64_t Dropped = Stats.DroppedReads;
        step<IsWrite>(C[0], Id);
        Stats.DroppedReads += (Stats.DroppedReads - Dropped) * (N - 1);
        for (uint64_t K = 1; K != N; ++K)
          C[K] = C[0];
      } else {
        for (uint64_t K = 0; K != N; ++K)
          step<IsWrite>(C[K], Id);
      }
    }
    Addr += N;
    Size -= N;
  }
}

void DepProfiler::onLoad(AccessId Id, uint64_t Addr, uint64_t Size) {
  access<false>(Id, Addr, Size);
}

void DepProfiler::onStore(AccessId Id, uint64_t Addr, uint64_t Size) {
  access<true>(Id, Addr, Size);
}

void DepProfiler::onBulkAccess(bool IsWrite, uint64_t Addr, uint64_t Size,
                               Builtin B, uint32_t CallSiteId) {
  (void)CallSiteId;
  // calloc zero-fill defines fresh memory and cannot create dependences
  // with anything (the block is new). Other bulk accesses are not modeled
  // as graph vertices; flag the loop so the planner stays conservative.
  if (CurSeq != 0 && B != Builtin::CallocFn)
    Graph.HasUnmodeled = true;
  if (IsWrite)
    access<true>(InvalidAccessId, Addr, Size);
  else
    access<false>(InvalidAccessId, Addr, Size);
}

void DepProfiler::onAlloc(const Allocation &A) { wipeRange(A.Base, A.Size); }

void DepProfiler::onFree(const Allocation &A) { wipeRange(A.Base, A.Size); }

LoopDepGraph DepProfiler::takeGraph() {
  std::vector<DepEdge> Sorted(Edges.begin(), Edges.end());
  std::sort(Sorted.begin(), Sorted.end());
  Graph.Edges.insert(Sorted.begin(), Sorted.end());
  for (AccessId Id = 0; Id < DynCount.size(); ++Id)
    if (DynCount[Id] != 0)
      Graph.DynCount.emplace_hint(Graph.DynCount.end(), Id, DynCount[Id]);
  for (AccessId Id = 0; Id < UpwardsExposed.size(); ++Id)
    if (UpwardsExposed[Id])
      Graph.UpwardsExposedLoads.insert(Graph.UpwardsExposedLoads.end(), Id);
  for (AccessId Id = 0; Id < DownwardsExposed.size(); ++Id)
    if (DownwardsExposed[Id])
      Graph.DownwardsExposedStores.insert(Graph.DownwardsExposedStores.end(),
                                          Id);
  Edges.clear();
  std::fill(std::begin(EdgeCache), std::end(EdgeCache), DepEdge{});
  DynCount.clear();
  UpwardsExposed.clear();
  DownwardsExposed.clear();
  return std::move(Graph);
}

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
  R.Stats = Profiler.stats();
  return R;
}
