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
/// Shadow layout. The shadow is paged by host address: `Addr >> 12` keys a
/// hash map of 4 KiB pages, each an array of 4096 cells, one per byte, with
/// a small direct-mapped cache of recent lookups in front of the map. Only
/// in-loop accesses create pages: a missing page reads as never written.
/// A cell is 40 bytes: the
/// last writer's AccessId and stamp, and up to four readers' AccessIds and
/// stamps (readers since that write, in first-read order; a fifth distinct
/// reader is dropped and counted in ProfileStats::DroppedReads). A touched
/// page therefore costs up to 160 KiB of shadow; pages are anonymous memory
/// mappings, so host pages of cells never touched are never resident.
///
/// Stamps. One sequence number counts up at each iteration of the target
/// loop, over all invocations; a cell's stamp is the sequence number of the
/// iteration that wrote (or read) it, and 0 means "no in-loop write" (never
/// written, wiped, or last written outside the loop). With InvStart the
/// sequence number at which the current invocation started and CurSeq the
/// current iteration's, a stamp S is from this invocation when
/// S >= InvStart, and from an earlier iteration of it (loop-carried) when
/// S < CurSeq. A write outside the loop resets the cell. Stamps are 32-bit;
/// before the sequence number would wrap, every stamp is renumbered in
/// order (earlier invocations to 1, the current one from 2).
///
/// An in-loop access whose bytes all share one cell state is stepped once
/// and the new state copied to its other bytes; an access whose bytes
/// differ (a char store into an int, say) is stepped byte by byte.
///
/// Results are batched: edges are deduplicated by a small direct-mapped
/// cache in front of a hash set, dynamic counts and exposure flags live in
/// dense vectors indexed by AccessId, and the graph's ordered containers
/// are built once, in takeGraph().
///
//===----------------------------------------------------------------------===//

#ifndef GDSE_PROFILE_DEPPROFILER_H
#define GDSE_PROFILE_DEPPROFILER_H

#include "analysis/DepGraph.h"
#include "interp/Interp.h"

#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace gdse {

/// Work counters of one profiling run.
struct ProfileStats {
  /// Load, store and bulk access events observed.
  uint64_t Accesses = 0;
  /// Bytes those events covered.
  uint64_t Bytes = 0;
  /// 4 KiB shadow pages allocated. Depends on the host addresses of the
  /// run's allocations, so unlike the other fields it can differ between
  /// two runs of one program.
  uint64_t ShadowPages = 0;
  /// In-loop byte reads not recorded because the cell already held the
  /// maximum number of distinct readers; anti dependences from them are
  /// missed.
  uint64_t DroppedReads = 0;
};

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

  const ProfileStats &stats() const { return Stats; }

private:
  static constexpr unsigned PageBits = 12;
  static constexpr uint64_t PageCells = uint64_t(1) << PageBits;
  static constexpr unsigned MaxReaders = 4;

  struct Cell {
    /// Valid only when WriteSeq != 0.
    AccessId Writer;
    /// Stamp of the last in-loop write; 0 = none since the last reset.
    uint32_t WriteSeq;
    AccessId ReaderIds[MaxReaders];
    /// 0 marks a free slot; used slots form a prefix.
    uint32_t ReaderSeqs[MaxReaders];
  };
  static_assert(sizeof(Cell) == 40, "uniform() compares cells bytewise");
  struct Page {
    Cell Cells[PageCells];
  };
  struct PageDeleter {
    void operator()(Page *P) const;
  };
  struct PageSlot {
    uint64_t Key = ~uint64_t(0);
    Page *P = nullptr;
  };
  struct EdgeHash {
    size_t operator()(const DepEdge &E) const;
  };

  Cell *cells(uint64_t Addr, bool Create);
  Page *fillSlot(PageSlot &Slot, uint64_t Key, bool Create);
  template <bool IsWrite>
  void access(AccessId Id, uint64_t Addr, uint64_t Size);
  void loadByte(Cell &C, AccessId Id);
  void storeByte(Cell &C, AccessId Id);
  template <bool IsWrite> void step(Cell &C, AccessId Id);
  static bool uniform(const Cell *C, uint64_t N);
  void addEdge(AccessId Src, AccessId Dst, DepKind K, bool Carried);
  void mark(std::vector<uint8_t> &Flags, AccessId Id);
  void wipeRange(uint64_t Addr, uint64_t Size);
  void rebaseStamps();

  unsigned TargetLoopId;
  /// Loop id, invocation and iteration totals and the unmodeled flag; the
  /// edge, exposure and count containers are filled by takeGraph().
  LoopDepGraph Graph;
  /// Last sequence number handed out.
  uint32_t Seq = 0;
  /// Sequence number of the current target-loop iteration; 0 when not
  /// inside one.
  uint32_t CurSeq = 0;
  /// First sequence number of the current (or last) invocation.
  uint32_t InvStart = 1;
  /// Nesting depth inside the target loop (handles recursive re-entry).
  unsigned InsideDepth = 0;

  std::unordered_map<uint64_t, std::unique_ptr<Page, PageDeleter>> Pages;
  /// Direct-mapped cache of recent page lookups, misses included (P null);
  /// accesses alternate between stack frames and heap blocks.
  static constexpr unsigned PageCacheSize = 64;
  PageSlot PageCache[PageCacheSize];

  static constexpr unsigned EdgeCacheSize = 256;
  DepEdge EdgeCache[EdgeCacheSize];
  std::unordered_set<DepEdge, EdgeHash> Edges;
  /// Indexed by AccessId.
  std::vector<uint64_t> DynCount;
  std::vector<uint8_t> UpwardsExposed, DownwardsExposed;

  ProfileStats Stats;
};

/// Result of one profiling run.
struct ProfileResult {
  LoopDepGraph Graph;
  RunResult Run;
  ProfileStats Stats;
};

/// Executes \p Entry sequentially on the bytecode VM under a DepProfiler
/// targeting \p TargetLoopId and returns the graph plus the run result. The
/// run uses \p Precompiled when given (the AnalysisManager's cached
/// per-module lowering) and lowers the module itself otherwise. The
/// reference tree-walker produces the identical event stream when run with
/// a DepProfiler observer (EngineDiffTest, CompilationSessionTest).
ProfileResult
profileLoop(Module &M, unsigned TargetLoopId, const std::string &Entry = "main",
            std::shared_ptr<const BytecodeModule> Precompiled = nullptr);

} // namespace gdse

#endif // GDSE_PROFILE_DEPPROFILER_H
