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
  for (auto &[Id, L] : Loops) {
    (void)Id;
    L.Graphs.erase(GraphSource::Profile);
    L.Classes.erase(GraphSource::Profile);
  }
}

void AnalysisManager::setExternalGraph(const LoopDepGraph *G) {
  if (G == External)
    return;
  External = G;
  for (auto &[Id, L] : Loops) {
    (void)Id;
    L.Graphs.erase(GraphSource::External);
    L.Classes.erase(GraphSource::External);
  }
}

void AnalysisManager::hit() {
  ++Stats.CacheHits;
  if (TR)
    TR->bumpCounter("analysis.cache.hits");
}

void AnalysisManager::miss() {
  ++Stats.CacheMisses;
  if (TR)
    TR->bumpCounter("analysis.cache.misses");
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
  if (Num) {
    hit();
    return *Num;
  }
  miss();
  ++Stats.NumberingRuns;
  TimerScope T(TR, "analysis.numbering");
  // Numbering WRITES access ids into the IR; every query path enters
  // through here, so no analysis reads the IR before its first numbering.
  Num = AccessNumbering::compute(M);
  return *Num;
}

const PointsTo &AnalysisManager::pointsTo() {
  if (PT) {
    hit();
    return *PT;
  }
  miss();
  ++Stats.PointsToRuns;
  TimerScope T(TR, "analysis.points-to");
  PT = PointsTo::compute(M);
  return *PT;
}

std::shared_ptr<const BytecodeModule> AnalysisManager::bytecode() {
  // The lowering bakes access and loop ids into the instructions.
  numbering();
  if (BC) {
    hit();
    return BC;
  }
  miss();
  ++Stats.BytecodeLowerings;
  TimerScope T(TR, "analysis.bytecode");
  BC = lowerToBytecode(M, CostModel::defaults());
  return BC;
}

const LoopDepGraph *AnalysisManager::depGraph(unsigned LoopId,
                                              GraphSource Source) {
  LoopCache &L = Loops[LoopId];
  auto It = L.Graphs.find(Source);
  if (It != L.Graphs.end())
    return served(It->second);

  // Number the module first so every source sees consistent ids (and so the
  // expensive sub-analyses below are attributed to their own timers).
  const AccessNumbering &Numbering = numbering();
  miss();
  DiagnosticScope Scope(DE, graphSourceName(Source), LoopId);
  CachedGraph Entry;
  switch (Source) {
  case GraphSource::Profile: {
    ++Stats.ProfileRuns;
    // The profiling run executes on the session's shared bytecode (lowered
    // once per IR version).
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
      // The shadow runs on a helper thread: its busy time overlaps the VM
      // run, and the VM thread's wait on it is part of analysis.profile.
      TR->recordOverlapping("analysis.profile.shadow", Prof.Stats.ShadowNs);
      TR->recordOverlapping("analysis.profile.wait", Prof.Stats.WaitNs);
    }
    if (!Prof.Run.ok()) {
      Entry.FailDiag = DE.error("profiling run failed: " + Prof.Run.TrapMessage);
      Entry.Failed = true;
    } else {
      Entry.G = std::move(Prof.Graph);
    }
    break;
  }
  case GraphSource::Static:
    return &staticGraph(L, LoopId, Numbering);
  case GraphSource::Witness: {
    // Refine the conservative static graph with the witness's proofs.
    const LoopDepGraph &SG = staticGraph(L, LoopId, Numbering);
    const PrivatizationWitness &W = witness(L, LoopId, Numbering);
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

  CachedGraph &Pos = L.Graphs[Source] = std::move(Entry);
  return Pos.Failed ? nullptr : &Pos.G;
}

const LoopDepGraph &
AnalysisManager::staticGraph(LoopCache &L, unsigned LoopId,
                             const AccessNumbering &Numbering) {
  auto [It, Inserted] = L.Graphs.try_emplace(GraphSource::Static);
  if (Inserted) { // static graphs never negatively cache
    ++Stats.StaticGraphRuns;
    const PointsTo &P = pointsTo();
    TimerScope T(TR, "analysis.static-deps");
    It->second.G = buildStaticDepGraph(M, LoopId, P, Numbering);
  }
  return It->second.G;
}

const PrivatizationWitness &
AnalysisManager::witness(LoopCache &L, unsigned LoopId,
                         const AccessNumbering &Numbering) {
  if (!L.Witness) {
    const LoopDepGraph &SG = staticGraph(L, LoopId, Numbering);
    ++Stats.WitnessRuns;
    const PointsTo &P = pointsTo();
    TimerScope T(TR, "analysis.witness");
    L.Witness = std::make_shared<const PrivatizationWitness>(
        PrivatizationWitness::compute(M, LoopId, P, Numbering, SG));
  }
  return *L.Witness;
}

std::shared_ptr<const PrivatizationWitness>
AnalysisManager::staticWitness(unsigned LoopId) {
  LoopCache &L = Loops[LoopId];
  if (L.Witness) {
    hit();
    return L.Witness;
  }
  const AccessNumbering &Numbering = numbering();
  miss();
  DiagnosticScope Scope(DE, "witness", LoopId);
  witness(L, LoopId, Numbering);
  return L.Witness;
}

const AccessClasses *AnalysisManager::accessClasses(unsigned LoopId,
                                                    GraphSource Source) {
  LoopCache &L = Loops[LoopId];
  auto It = L.Classes.find(Source);
  if (It != L.Classes.end()) {
    hit();
    return &It->second;
  }
  const LoopDepGraph *G = depGraph(LoopId, Source);
  if (!G)
    return nullptr;
  miss();
  ++Stats.ClassifyRuns;
  TimerScope T(TR, "analysis.access-classes");
  return &L.Classes.emplace(Source, AccessClasses::build(*G)).first->second;
}

void AnalysisManager::setGuardPlan(unsigned LoopId,
                                   std::shared_ptr<const GuardPlan> GP) {
  if (GP)
    GuardPlansById[LoopId] = std::move(GP);
  else
    GuardPlansById.erase(LoopId);
}

std::shared_ptr<const GuardPlan>
AnalysisManager::guardPlan(unsigned LoopId) const {
  auto It = GuardPlansById.find(LoopId);
  return It != GuardPlansById.end() ? It->second : nullptr;
}

std::vector<std::shared_ptr<const GuardPlan>>
AnalysisManager::guardPlans() const {
  std::vector<std::shared_ptr<const GuardPlan>> Out;
  Out.reserve(GuardPlansById.size());
  for (const auto &[Id, GP] : GuardPlansById) {
    (void)Id;
    Out.push_back(GP);
  }
  return Out;
}

void AnalysisManager::invalidateLoop(unsigned LoopId) {
  // Only this loop's entries go — other loops' cached graphs survive, which
  // is the whole point of AllExceptLoop. Erasing drops negative entries
  // along with positive ones.
  Loops.erase(LoopId);
  // The loop's body changed in place, and the module bytecode embeds it:
  // drop the lowering (numbering and points-to survive — per-loop rewrites
  // preserve them, that is the invalidateLoop contract).
  BC.reset();
}

void AnalysisManager::invalidateModule() {
  Loops.clear();
  Num.reset();
  PT.reset();
  BC.reset();
}
