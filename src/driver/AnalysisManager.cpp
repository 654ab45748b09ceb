//===- AnalysisManager.cpp - Cached per-module/per-loop analyses -----------===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "driver/AnalysisManager.h"

#include "analysis/StaticDeps.h"
#include "interp/Bytecode.h"
#include "interp/Guard.h"
#include "profile/DepProfiler.h"
#include "support/Support.h"

#include <mutex>

using namespace gdse;

const char *gdse::graphSourceName(GraphSource S) {
  switch (S) {
  case GraphSource::Profile:
    return "profile";
  case GraphSource::Static:
    return "static-deps";
  case GraphSource::External:
    return "external";
  case GraphSource::Witness:
    return "witness";
  }
  gdse_unreachable("bad graph source");
}

AnalysisManager::AnalysisManager(Module &M, DiagnosticEngine &DE,
                                 TimingRegistry *TR)
    : M(M), DE(DE), TR(TR) {}

AnalysisManager::~AnalysisManager() = default;

void AnalysisManager::setEntry(std::string NewEntry) {
  if (NewEntry == Entry)
    return;
  Entry = std::move(NewEntry);
  // Profiled graphs describe one entry point's execution; a different entry
  // is a different program as far as the profiler is concerned. Negative
  // entries go too — the old entry's trap may not exist under the new one.
  std::shared_lock<std::shared_mutex> MapLock(ShardsMu);
  for (auto &[Id, Shard] : Shards) {
    (void)Id;
    std::unique_lock<std::shared_mutex> Lock(Shard->Mu);
    Shard->Graphs.erase(GraphSource::Profile);
    Shard->Classes.erase(GraphSource::Profile);
  }
}

void AnalysisManager::setExternalGraph(const LoopDepGraph *G) {
  if (G == External)
    return;
  External = G;
  std::shared_lock<std::shared_mutex> MapLock(ShardsMu);
  for (auto &[Id, Shard] : Shards) {
    (void)Id;
    std::unique_lock<std::shared_mutex> Lock(Shard->Mu);
    Shard->Graphs.erase(GraphSource::External);
    Shard->Classes.erase(GraphSource::External);
  }
}

void AnalysisManager::hit() {
  Stats.CacheHits.fetch_add(1, std::memory_order_relaxed);
  if (TR)
    TR->bumpCounter("analysis.cache.hits");
}

void AnalysisManager::miss() {
  Stats.CacheMisses.fetch_add(1, std::memory_order_relaxed);
  if (TR)
    TR->bumpCounter("analysis.cache.misses");
}

AnalysisManager::LoopShard &AnalysisManager::shardFor(unsigned LoopId) {
  {
    std::shared_lock<std::shared_mutex> Lock(ShardsMu);
    auto It = Shards.find(LoopId);
    if (It != Shards.end())
      return *It->second;
  }
  std::unique_lock<std::shared_mutex> Lock(ShardsMu);
  auto &Slot = Shards[LoopId];
  if (!Slot)
    Slot = std::make_unique<LoopShard>();
  return *Slot;
}

const LoopDepGraph *AnalysisManager::served(const CachedGraph &Entry) {
  hit();
  if (Entry.Failed) {
    DE.report(Entry.FailDiag);
    return nullptr;
  }
  return &Entry.G;
}

const AccessNumbering &AnalysisManager::numbering() {
  {
    std::shared_lock<std::shared_mutex> Lock(ModuleMu);
    if (Num) {
      hit();
      return *Num;
    }
  }
  std::unique_lock<std::shared_mutex> Lock(ModuleMu);
  if (Num) {
    hit();
    return *Num;
  }
  miss();
  Stats.NumberingRuns.fetch_add(1, std::memory_order_relaxed);
  TimerScope T(TR, "analysis.numbering");
  // Numbering WRITES access ids into the IR; the exclusive ModuleMu hold
  // means at most one thread runs it, and the batch driver guarantees no
  // other thread reads this module's IR before its first numbering (every
  // query path enters through here).
  Num = AccessNumbering::compute(M);
  return *Num;
}

const PointsTo &AnalysisManager::pointsTo() {
  {
    std::shared_lock<std::shared_mutex> Lock(ModuleMu);
    if (PT) {
      hit();
      return *PT;
    }
  }
  std::unique_lock<std::shared_mutex> Lock(ModuleMu);
  if (PT) {
    hit();
    return *PT;
  }
  miss();
  Stats.PointsToRuns.fetch_add(1, std::memory_order_relaxed);
  TimerScope T(TR, "analysis.points-to");
  PT = PointsTo::compute(M);
  return *PT;
}

std::shared_ptr<const BytecodeModule> AnalysisManager::bytecode() {
  // The lowering bakes access and loop ids into the instructions; number
  // first, outside ModuleMu (numbering locks it itself).
  numbering();
  {
    std::shared_lock<std::shared_mutex> Lock(ModuleMu);
    if (BC) {
      hit();
      return BC;
    }
  }
  std::unique_lock<std::shared_mutex> Lock(ModuleMu);
  if (BC) {
    hit();
    return BC;
  }
  miss();
  Stats.BytecodeLowerings.fetch_add(1, std::memory_order_relaxed);
  TimerScope T(TR, "analysis.bytecode");
  BC = lowerToBytecode(M, CostModel::defaults());
  return BC;
}

const LoopDepGraph *AnalysisManager::depGraph(unsigned LoopId,
                                              GraphSource Source) {
  LoopShard &Shard = shardFor(LoopId);
  {
    std::shared_lock<std::shared_mutex> Lock(Shard.Mu);
    auto It = Shard.Graphs.find(Source);
    if (It != Shard.Graphs.end())
      return served(It->second);
  }

  // Number the module first so every source sees consistent ids (and so the
  // expensive sub-analyses below are attributed to their own timers). Done
  // before taking the shard lock: ModuleMu nests INSIDE shard locks only on
  // the short points-to read below, never the other way around.
  const AccessNumbering &Numbering = numbering();

  std::unique_lock<std::shared_mutex> Lock(Shard.Mu);
  // Double-checked: another worker may have filled this entry while we were
  // numbering. The loser of the race records a hit, exactly like a serial
  // second query.
  auto It = Shard.Graphs.find(Source);
  if (It != Shard.Graphs.end())
    return served(It->second);
  miss();

  CachedGraph Entry;
  DiagnosticScope Scope(DE, graphSourceName(Source), LoopId);
  switch (Source) {
  case GraphSource::Profile: {
    Stats.ProfileRuns.fetch_add(1, std::memory_order_relaxed);
    // The profiling run executes on the session's shared bytecode (lowered
    // once per IR version). bytecode() takes ModuleMu inside this shard
    // lock, the one permitted nesting order.
    std::shared_ptr<const BytecodeModule> Precompiled = bytecode();
    TimerScope T(TR, "analysis.profile");
    ProfileResult Prof = profileLoop(M, LoopId, this->Entry, Precompiled);
    if (TR) {
      TR->addVmCycles("analysis.profile", Prof.Run.WorkCycles);
      // ProfileStats::ShadowPages is not a counter: it depends on where the
      // host allocator places blocks, and counters must be deterministic.
      TR->bumpCounter("profile.accesses", Prof.Stats.Accesses);
      TR->bumpCounter("profile.bytes", Prof.Stats.Bytes);
      TR->bumpCounter("profile.dropped_reads", Prof.Stats.DroppedReads);
    }
    if (!Prof.Run.ok()) {
      Entry.FailDiag = DE.error("profiling run failed: " + Prof.Run.TrapMessage);
      Entry.Failed = true;
    } else {
      Entry.G = std::move(Prof.Graph);
    }
    break;
  }
  case GraphSource::Static: {
    Stats.StaticGraphRuns.fetch_add(1, std::memory_order_relaxed);
    const PointsTo &P = pointsTo();
    TimerScope T(TR, "analysis.static-deps");
    Entry.G = buildStaticDepGraph(M, LoopId, P, Numbering);
    break;
  }
  case GraphSource::Witness: {
    // Refine the conservative static graph with the witness's proofs. Both
    // ingredients live in THIS shard and are computed inline under the lock
    // we already hold — calling depGraph() here would self-deadlock.
    const LoopDepGraph &SG = staticGraphLocked(Shard, LoopId, Numbering);
    const PrivatizationWitness &W = witnessLocked(Shard, LoopId, Numbering);
    TimerScope T(TR, "analysis.witness-refine");
    Entry.G = W.refineGraph(SG);
    break;
  }
  case GraphSource::External:
    if (!External) {
      Entry.FailDiag = DE.error("GraphSource::External requires ExternalGraph");
      Entry.Failed = true;
    } else if (External->LoopId != LoopId) {
      Entry.FailDiag =
          DE.error("external graph was produced for a different loop");
      Entry.Failed = true;
    } else {
      Entry.G = *External;
    }
    break;
  }

  auto [Pos, Inserted] = Shard.Graphs.emplace(Source, std::move(Entry));
  (void)Inserted;
  return Pos->second.Failed ? nullptr : &Pos->second.G;
}

const LoopDepGraph &
AnalysisManager::staticGraphLocked(LoopShard &Shard, unsigned LoopId,
                                   const AccessNumbering &Numbering) {
  auto It = Shard.Graphs.find(GraphSource::Static);
  if (It != Shard.Graphs.end())
    return It->second.G; // static graphs never negatively cache
  Stats.StaticGraphRuns.fetch_add(1, std::memory_order_relaxed);
  const PointsTo &P = pointsTo(); // ModuleMu inside the shard lock: allowed
  TimerScope T(TR, "analysis.static-deps");
  CachedGraph Entry;
  Entry.G = buildStaticDepGraph(M, LoopId, P, Numbering);
  auto [Pos, Inserted] =
      Shard.Graphs.emplace(GraphSource::Static, std::move(Entry));
  (void)Inserted;
  return Pos->second.G;
}

const PrivatizationWitness &
AnalysisManager::witnessLocked(LoopShard &Shard, unsigned LoopId,
                               const AccessNumbering &Numbering) {
  if (Shard.Witness)
    return *Shard.Witness;
  const LoopDepGraph &SG = staticGraphLocked(Shard, LoopId, Numbering);
  Stats.WitnessRuns.fetch_add(1, std::memory_order_relaxed);
  const PointsTo &P = pointsTo();
  TimerScope T(TR, "analysis.witness");
  Shard.Witness = std::make_shared<const PrivatizationWitness>(
      PrivatizationWitness::compute(M, LoopId, P, Numbering, SG));
  return *Shard.Witness;
}

std::shared_ptr<const PrivatizationWitness>
AnalysisManager::staticWitness(unsigned LoopId) {
  LoopShard &Shard = shardFor(LoopId);
  {
    std::shared_lock<std::shared_mutex> Lock(Shard.Mu);
    if (Shard.Witness) {
      hit();
      return Shard.Witness;
    }
  }
  const AccessNumbering &Numbering = numbering(); // before the shard lock
  std::unique_lock<std::shared_mutex> Lock(Shard.Mu);
  if (Shard.Witness) {
    hit();
    return Shard.Witness;
  }
  miss();
  DiagnosticScope Scope(DE, "witness", LoopId);
  (void)witnessLocked(Shard, LoopId, Numbering);
  return Shard.Witness;
}

const AccessClasses *AnalysisManager::accessClasses(unsigned LoopId,
                                                    GraphSource Source) {
  LoopShard &Shard = shardFor(LoopId);
  {
    std::shared_lock<std::shared_mutex> Lock(Shard.Mu);
    auto It = Shard.Classes.find(Source);
    if (It != Shard.Classes.end()) {
      hit();
      return &It->second;
    }
  }
  // Acquire the graph without holding the shard lock — depGraph takes it.
  const LoopDepGraph *G = depGraph(LoopId, Source);
  if (!G)
    return nullptr;
  std::unique_lock<std::shared_mutex> Lock(Shard.Mu);
  auto It = Shard.Classes.find(Source);
  if (It != Shard.Classes.end()) {
    hit();
    return &It->second;
  }
  miss();
  Stats.ClassifyRuns.fetch_add(1, std::memory_order_relaxed);
  TimerScope T(TR, "analysis.access-classes");
  auto [Pos, Inserted] = Shard.Classes.emplace(Source, AccessClasses::build(*G));
  (void)Inserted;
  return &Pos->second;
}

void AnalysisManager::setGuardPlan(unsigned LoopId,
                                   std::shared_ptr<const GuardPlan> GP) {
  std::unique_lock<std::shared_mutex> Lock(GuardMu);
  if (GP)
    GuardPlansById[LoopId] = std::move(GP);
  else
    GuardPlansById.erase(LoopId);
}

std::shared_ptr<const GuardPlan>
AnalysisManager::guardPlan(unsigned LoopId) const {
  std::shared_lock<std::shared_mutex> Lock(GuardMu);
  auto It = GuardPlansById.find(LoopId);
  return It != GuardPlansById.end() ? It->second : nullptr;
}

std::vector<std::shared_ptr<const GuardPlan>>
AnalysisManager::guardPlans() const {
  std::shared_lock<std::shared_mutex> Lock(GuardMu);
  std::vector<std::shared_ptr<const GuardPlan>> Out;
  Out.reserve(GuardPlansById.size());
  for (const auto &[Id, GP] : GuardPlansById) {
    (void)Id;
    Out.push_back(GP);
  }
  return Out;
}

void AnalysisManager::invalidateLoop(unsigned LoopId) {
  // Invalidation only ever touches this loop's own shard — other loops'
  // cached graphs survive, which is the whole point of AllExceptLoop.
  // Clearing the maps drops negative entries along with positive ones.
  {
    std::shared_lock<std::shared_mutex> MapLock(ShardsMu);
    auto It = Shards.find(LoopId);
    if (It != Shards.end()) {
      std::unique_lock<std::shared_mutex> Lock(It->second->Mu);
      It->second->Graphs.clear();
      It->second->Classes.clear();
      It->second->Witness.reset();
    }
  }
  // The loop's body changed in place, and the module bytecode embeds it:
  // drop the lowering (numbering and points-to survive — per-loop rewrites
  // preserve them, that is the invalidateLoop contract). Shard locks are
  // released above; ModuleMu is never taken inside one here.
  std::unique_lock<std::shared_mutex> Lock(ModuleMu);
  BC.reset();
}

void AnalysisManager::invalidateModule() {
  // Shards first, then module-level results; ModuleMu is never held while
  // a shard lock is taken (the nesting is shard -> module elsewhere).
  {
    std::shared_lock<std::shared_mutex> MapLock(ShardsMu);
    for (auto &[Id, Shard] : Shards) {
      (void)Id;
      std::unique_lock<std::shared_mutex> Lock(Shard->Mu);
      Shard->Graphs.clear();
      Shard->Classes.clear();
      Shard->Witness.reset();
    }
  }
  std::unique_lock<std::shared_mutex> Lock(ModuleMu);
  Num.reset();
  PT.reset();
  BC.reset();
}

AnalysisStats AnalysisManager::stats() const {
  AnalysisStats S;
  S.CacheHits = Stats.CacheHits.load(std::memory_order_relaxed);
  S.CacheMisses = Stats.CacheMisses.load(std::memory_order_relaxed);
  S.ProfileRuns = Stats.ProfileRuns.load(std::memory_order_relaxed);
  S.PointsToRuns = Stats.PointsToRuns.load(std::memory_order_relaxed);
  S.NumberingRuns = Stats.NumberingRuns.load(std::memory_order_relaxed);
  S.StaticGraphRuns = Stats.StaticGraphRuns.load(std::memory_order_relaxed);
  S.WitnessRuns = Stats.WitnessRuns.load(std::memory_order_relaxed);
  S.ClassifyRuns = Stats.ClassifyRuns.load(std::memory_order_relaxed);
  S.BytecodeLowerings =
      Stats.BytecodeLowerings.load(std::memory_order_relaxed);
  return S;
}
