//===- SelfTest.cpp - The benchmark's own tests ----------------------------===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// Checks the benchmark rather than the library: that its seeds change only
// the inputs, that its output check can fail, that its deterministic
// figures repeat, and that sim_speedup and mem_multiple are the Figure 11b
// and Figure 14 numbers. Each driver run here uses one set-up repetition
// and a zero-second window, so it stops after its minimum rounds.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "BenchCommon.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

using namespace perfbench;

namespace {

int Failures = 0;

#define EXPECT(Cond, ...)                                                      \
  do {                                                                         \
    if (!(Cond)) {                                                             \
      ++Failures;                                                              \
      std::fprintf(stderr, "%s:%d: expected %s: ", __FILE__, __LINE__, #Cond); \
      std::fprintf(stderr, __VA_ARGS__);                                       \
      std::fprintf(stderr, "\n");                                              \
    }                                                                          \
  } while (0)

Config quick(Workload W, uint64_t Seed = 0) {
  Config C;
  C.W = W;
  C.Seed = Seed;
  C.Seconds = 0;
  C.SetupReps = 1;
  C.SetupSeconds = 0;
  C.MinRounds = 1;
  return C;
}

std::vector<const gdse::WorkloadInfo *> allPrograms() {
  return workloadPrograms(Workload::Compile);
}

size_t countSeeds(const std::string &S) {
  size_t N = 0;
  for (size_t P = S.find("int seed = "); P != std::string::npos;
       P = S.find("int seed = ", P + 1))
    ++N;
  return N;
}

void reseedKeepsShippedTextAtSeedZero() {
  for (const gdse::WorkloadInfo *W : allPrograms()) {
    std::string Src = W->Source;
    EXPECT(reseed(Src, 0) == Src, "%s changed at seed 0", W->Name);
    std::string Other = reseed(Src, 7);
    EXPECT(Other != Src, "%s unchanged at seed 7", W->Name);
    EXPECT(countSeeds(Other) == countSeeds(Src) && countSeeds(Src) > 0,
           "%s: seed initializers lost", W->Name);
    EXPECT(reseed(Src, 7) == Other, "%s: seed 7 not repeatable", W->Name);
  }
}

void everyProgramCompilesAndChecksUnderOtherSeeds() {
  for (uint64_t Seed : {1, 2, 3}) {
    Result R = runWorkload(quick(Workload::Compile, Seed));
    EXPECT(R.Correct && R.Failed == 0 && R.Attempted > 0,
           "seed %llu: %llu of %llu operations failed",
           static_cast<unsigned long long>(Seed),
           static_cast<unsigned long long>(R.Failed),
           static_cast<unsigned long long>(R.Attempted));
    EXPECT(R.Programs.size() == allPrograms().size(),
           "seed %llu: %zu programs measured",
           static_cast<unsigned long long>(Seed), R.Programs.size());
  }
}

void corruptedReferenceRaisesFailRatio() {
  Config C = quick(Workload::RunDoacross);
  C.CorruptReferenceOf = "dijkstra";
  Result R = runWorkload(C);
  EXPECT(!R.Correct && R.Failed > 0 && R.failRatio() > 0,
         "corrupted reference went unnoticed (fail_ratio %g)", R.failRatio());
  Result Clean = runWorkload(quick(Workload::RunDoacross));
  EXPECT(Clean.Correct && Clean.failRatio() == 0, "clean fail_ratio %g",
         Clean.failRatio());
}

/// Per-layer metrics that count work or divide virtual cycle counts: they
/// must repeat exactly.
bool deterministic(const Metric &M) {
  static const char *const Ratios[] = {
      "interp.expansion_overhead", "interp.sim_sync_share",
      "driver.cache_hit_ratio"};
  return M.Unit == "count" ||
         std::find(std::begin(Ratios), std::end(Ratios), M.Name) !=
             std::end(Ratios);
}

void deterministicFiguresRepeat() {
  for (bool Trace : {false, true}) {
    Config C = quick(Workload::RunDoacross, 5);
    C.Trace = Trace;
    C.MinRounds = 2;
    Result A = runWorkload(C), B = runWorkload(C);
    EXPECT(A.Programs.size() == B.Programs.size() && !A.Programs.empty(),
           "program counts differ");
    for (size_t I = 0; I != std::min(A.Programs.size(), B.Programs.size());
         ++I) {
      EXPECT(A.Programs[I].SimSpeedup == B.Programs[I].SimSpeedup &&
                 A.Programs[I].MemMultiple == B.Programs[I].MemMultiple,
             "%s: figures differ", A.Programs[I].Name.c_str());
    }
    size_t Compared = 0;
    for (const Metric &M : A.Metrics) {
      if (!Trace && M.Name != "sim_speedup" && M.Name != "mem_multiple")
        continue;
      if (Trace && !deterministic(M))
        continue;
      const Metric *Other = B.find(M.Name);
      EXPECT(Other && Other->Value == M.Value, "%s: %.17g vs %.17g",
             M.Name.c_str(), M.Value, Other ? Other->Value : -1.0);
      ++Compared;
    }
    EXPECT(Compared >= (Trace ? 13u : 2u), "only %zu metrics compared",
           Compared);
  }
}

/// The inputs of sim_speedup and mem_multiple against what the Figure 11
/// and Figure 14 binaries compute for the same programs, through their own
/// helpers.
void figuresMatchFig11AndFig14() {
  Result R = runWorkload(quick(Workload::RunGuarded));
  EXPECT(R.Correct, "run-guarded failed");
  int Threads = static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
  for (const ProgramFigures &F : R.Programs) {
    const gdse::WorkloadInfo *W = gdse::findWorkload(F.Name);
    gdse::bench::PreparedProgram Orig = gdse::bench::prepareOriginal(*W);
    gdse::RunResult RO =
        gdse::bench::execute(Orig, 1, /*SimulateParallel=*/false);
    gdse::bench::PreparedProgram &Xf =
        gdse::bench::preparedForAll(*W, gdse::PipelineOptions());
    gdse::RunResult RT = gdse::bench::execute(Xf, Threads);
    double Total = static_cast<double>(RO.SimTime) /
                   static_cast<double>(RT.SimTime);
    double Mem = static_cast<double>(RT.PeakMemoryBytes) /
                 static_cast<double>(RO.PeakMemoryBytes);
    EXPECT(Total == F.SimSpeedup, "%s: sim speedup %.17g, fig11 %.17g",
           F.Name.c_str(), F.SimSpeedup, Total);
    EXPECT(Mem == F.MemMultiple, "%s: memory multiple %.17g, fig14 %.17g",
           F.Name.c_str(), F.MemMultiple, Mem);
  }
  EXPECT(R.Programs.size() == gdse::allWorkloads().size(),
         "%zu programs measured", R.Programs.size());
}

} // namespace

int main() {
  const std::pair<const char *, std::function<void()>> Tests[] = {
      {"ReseedKeepsShippedTextAtSeedZero", reseedKeepsShippedTextAtSeedZero},
      {"EveryProgramCompilesAndChecksUnderOtherSeeds",
       everyProgramCompilesAndChecksUnderOtherSeeds},
      {"CorruptedReferenceRaisesFailRatio", corruptedReferenceRaisesFailRatio},
      {"DeterministicFiguresRepeat", deterministicFiguresRepeat},
      {"FiguresMatchFig11AndFig14", figuresMatchFig11AndFig14},
  };
  for (const auto &[Name, Fn] : Tests) {
    int Before = Failures;
    std::fprintf(stderr, "[ RUN  ] %s\n", Name);
    Fn();
    std::fprintf(stderr, "[ %s ] %s\n", Failures == Before ? " OK " : "FAIL",
                 Name);
  }
  return Failures ? 1 : 0;
}
