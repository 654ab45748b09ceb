//===- explore.cpp - Benchmark explorer CLI ---------------------*- C++ -*-===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// Inspects what the pipeline does to one of the eight Table 4 benchmark
// kernels:
//
//   explore <benchmark> [--threads N] [--method expansion|rtpriv|none]
//           [--layout bonded|interleaved] [--no-opts] [--dump-ir]
//           [--dump-graph] [--source profile|static] [--save-graph FILE]
//           [--load-graph FILE] [--time-passes] [--stats]
//
// --save-graph / --load-graph implement the paper's programmer-verification
// workflow: profile once, dump the dependence graph, inspect/edit it, and
// feed the verified graph back in later runs (GraphIO.h).
//
// Prints the access breakdown (Fig. 8 view), expansion statistics (Table 5
// view), the parallel plan, and original-vs-transformed execution metrics.
//
//===----------------------------------------------------------------------===//

#include "analysis/GraphIO.h"
#include "driver/CompilationSession.h"
#include "frontend/Parser.h"
#include "interp/Interp.h"
#include "ir/IRPrinter.h"
#include "workloads/Workloads.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

using namespace gdse;

static void usage() {
  std::fprintf(stderr,
               "usage: explore <benchmark> [--threads N] "
               "[--method expansion|rtpriv|none] "
               "[--layout bonded|interleaved] [--no-opts] [--dump-ir] "
               "[--dump-graph] [--source profile|static] "
               "[--save-graph FILE] [--load-graph FILE] "
               "[--time-passes] [--stats]\nbenchmarks:");
  for (const WorkloadInfo &W : allWorkloads())
    std::fprintf(stderr, " %s", W.Name);
  std::fprintf(stderr, "\n");
}

int main(int argc, char **argv) {
  if (argc < 2) {
    usage();
    return 1;
  }
  const WorkloadInfo *W = findWorkload(argv[1]);
  if (!W) {
    std::fprintf(stderr, "unknown benchmark '%s'\n", argv[1]);
    usage();
    return 1;
  }

  int Threads = 4;
  bool DumpIR = false, DumpGraph = false, TimePasses = false, Stats = false;
  std::string SaveGraphFile, LoadGraphFile;
  PipelineOptions Opts;
  for (int I = 2; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg == "--threads" && I + 1 < argc) {
      Threads = std::atoi(argv[++I]);
    } else if (Arg == "--method" && I + 1 < argc) {
      std::string V = argv[++I];
      Opts.Method = V == "rtpriv" ? PrivatizationMethod::Runtime
                    : V == "none" ? PrivatizationMethod::None
                                  : PrivatizationMethod::Expansion;
    } else if (Arg == "--layout" && I + 1 < argc) {
      Opts.Expansion.Layout = std::string(argv[++I]) == "interleaved"
                                  ? LayoutMode::Interleaved
                                  : LayoutMode::Bonded;
    } else if (Arg == "--no-opts") {
      Opts.Expansion.SelectivePromotion = false;
      Opts.Expansion.SpanConstantPropagation = false;
      Opts.Expansion.DeadSpanStoreElimination = false;
    } else if (Arg == "--dump-ir") {
      DumpIR = true;
    } else if (Arg == "--dump-graph") {
      DumpGraph = true;
    } else if (Arg == "--source" && I + 1 < argc) {
      Opts.Source = std::string(argv[++I]) == "static" ? GraphSource::Static
                                                       : GraphSource::Profile;
    } else if (Arg == "--save-graph" && I + 1 < argc) {
      SaveGraphFile = argv[++I];
    } else if (Arg == "--load-graph" && I + 1 < argc) {
      LoadGraphFile = argv[++I];
    } else if (Arg == "--time-passes") {
      TimePasses = true;
    } else if (Arg == "--stats") {
      Stats = true;
    } else {
      usage();
      return 1;
    }
  }

  // Original run.
  std::unique_ptr<Module> Orig = parseMiniCOrDie(W->Source, W->Name);
  Interp SeqI(*Orig);
  RunResult Seq = SeqI.run();
  if (!Seq.ok()) {
    std::fprintf(stderr, "original run trapped: %s\n",
                 Seq.TrapMessage.c_str());
    return 1;
  }

  // Transform every candidate, sharing one compilation session so cached
  // analyses carry across loops (the profiler runs at most once per loop).
  std::unique_ptr<Module> M = parseMiniCOrDie(W->Source, W->Name);
  CompilationSession Session(*M);
  std::vector<unsigned> Loops = Session.candidateLoops();
  std::printf("%s (%s): %zu candidate loop(s)\n", W->Name, W->Suite,
              Loops.size());
  LoopDepGraph Loaded;
  if (!LoadGraphFile.empty()) {
    std::ifstream GIn(LoadGraphFile);
    if (!GIn) {
      std::fprintf(stderr, "cannot open '%s'\n", LoadGraphFile.c_str());
      return 1;
    }
    std::ostringstream GS;
    GS << GIn.rdbuf();
    std::string GErr;
    if (!parseDepGraph(GS.str(), Loaded, GErr)) {
      std::fprintf(stderr, "%s: %s\n", LoadGraphFile.c_str(), GErr.c_str());
      return 1;
    }
    Opts.Source = GraphSource::External;
    Opts.ExternalGraph = &Loaded;
    std::printf("using programmer-verified graph from %s (loop %u)\n",
                LoadGraphFile.c_str(), Loaded.LoopId);
  }
  for (unsigned LoopId : Loops) {
    PipelineResult PR = Session.compileLoop(LoopId, Opts);
    if (!PR.Ok) {
      for (const Diagnostic &D : PR.Diags)
        if (D.Severity == DiagSeverity::Error)
          std::fprintf(stderr, "%s\n", D.str().c_str());
      return 1;
    }
    uint64_t Total = PR.Breakdown.total();
    std::printf("\nloop %u:\n", LoopId);
    std::printf("  dynamic accesses: %llu  (free %.1f%%, expandable %.1f%%, "
                "carried %.1f%%)\n",
                static_cast<unsigned long long>(Total),
                100.0 * PR.Breakdown.FreeOfCarried / Total,
                100.0 * PR.Breakdown.Expandable / Total,
                100.0 * PR.Breakdown.WithCarried / Total);
    std::printf("  expanded structures: %u, promoted pointer slots: %u, "
                "span stores: +%u/-%u\n",
                PR.Expansion.ExpandedObjects,
                PR.Expansion.PromotedPointerSlots,
                PR.Expansion.SpanStoresInserted,
                PR.Expansion.SpanStoresEliminated);
    std::printf("  redirected accesses: %u private, %u shared\n",
                PR.Expansion.PrivateAccessesRedirected,
                PR.Expansion.SharedAccessesRedirected);
    std::printf("  plan: %s, %u ordered region(s)\n",
                PR.Plan.Kind == ParallelKind::DOALL      ? "DOALL"
                : PR.Plan.Kind == ParallelKind::DOACROSS ? "DOACROSS"
                                                         : "sequential",
                PR.Plan.OrderedRegions);
    if (DumpGraph)
      std::printf("  graph:\n%s", PR.Graph.str().c_str());
    if (!SaveGraphFile.empty()) {
      std::string Name = SaveGraphFile;
      if (Loops.size() > 1)
        Name += "." + std::to_string(LoopId);
      std::ofstream GOut(Name);
      GOut << serializeDepGraph(PR.Graph);
      std::printf("  graph written to %s (re-run with --load-graph after "
                  "verifying)\n",
                  Name.c_str());
    }
  }

  if (TimePasses)
    std::fprintf(stderr, "%s", Session.timingReport().c_str());
  if (Stats)
    std::fprintf(stderr, "%s", Session.statsReport().c_str());

  if (DumpIR)
    std::printf("\n--- transformed program ---\n%s\n",
                printModule(*M).c_str());

  InterpOptions IO;
  IO.NumThreads = Threads;
  Interp ParI(*M, IO);
  RunResult Par = ParI.run();
  if (!Par.ok()) {
    std::fprintf(stderr, "transformed run trapped: %s\n",
                 Par.TrapMessage.c_str());
    return 1;
  }

  std::printf("\nexecution (N=%d):\n", Threads);
  std::printf("  output:        %s\n",
              Par.Output == Seq.Output ? "identical to original" : "MISMATCH");
  std::printf("  sim time:      %llu -> %llu cycles (%.2fx total speedup)\n",
              static_cast<unsigned long long>(Seq.SimTime),
              static_cast<unsigned long long>(Par.SimTime),
              static_cast<double>(Seq.SimTime) /
                  static_cast<double>(Par.SimTime));
  std::printf("  peak memory:   %llu -> %llu bytes (%.2fx)\n",
              static_cast<unsigned long long>(Seq.PeakMemoryBytes),
              static_cast<unsigned long long>(Par.PeakMemoryBytes),
              static_cast<double>(Par.PeakMemoryBytes) /
                  static_cast<double>(Seq.PeakMemoryBytes));
  for (const auto &[LoopId, LS] : Par.Loops) {
    if (LS.Kind == ParallelKind::None || LS.WorkPerThread.empty())
      continue;
    uint64_t Work = 0, Stall = 0, Idle = 0;
    for (unsigned T = 0; T < LS.WorkPerThread.size(); ++T) {
      Work += LS.WorkPerThread[T];
      Stall += LS.SyncStallPerThread[T];
      Idle += LS.IdlePerThread[T];
    }
    std::printf("  loop %u (%s): %llu iterations, work %llu, sync stalls "
                "%llu, idle %llu\n",
                LoopId, LS.Kind == ParallelKind::DOALL ? "DOALL" : "DOACROSS",
                static_cast<unsigned long long>(LS.Iterations),
                static_cast<unsigned long long>(Work),
                static_cast<unsigned long long>(Stall),
                static_cast<unsigned long long>(Idle));
  }
  if (Par.RtPrivTranslations)
    std::printf("  rtpriv: %llu translations, %llu bytes copied\n",
                static_cast<unsigned long long>(Par.RtPrivTranslations),
                static_cast<unsigned long long>(Par.RtPrivBytesCopied));
  return 0;
}
