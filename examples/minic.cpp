//===- minic.cpp - MiniC runner CLI -----------------------------*- C++ -*-===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// Runs MiniC source files under the VM:
//
//   minic <file.mc>... [--threads N] [--jobs N] [--transform] [--dump-ir]
//         [--engine tree|bytecode|threads] [--guard off|check|fallback]
//         [--deadline-ms N] [--mem-budget N] [--watchdog-ms N] [--faults SPEC]
//         [--time-passes] [--stats]
//
// --engine threads executes eligible transformed parallel loops on real host
// threads (--threads N workers) while reproducing the serial engines'
// virtual metrics bit-for-bit; see ARCHITECTURE.md "Host-threaded
// execution".
//
// With --transform, every @candidate loop of every file is run through the
// expansion pipeline. Files are independent modules, so they compile through
// CompilationSession::compileBatch on --jobs worker threads (default 1);
// diagnostics, reports, and exit codes are emitted in file order regardless
// of scheduling, so any --jobs value prints byte-identical output (modulo
// wall-clock readings inside --time-passes). Programs then execute
// sequentially in file order. --time-passes / --stats print each file's
// per-pass timing and counter reports to stderr after compilation; --stats
// also prints, after each run, the path every parallel loop's invocations
// took ("loop 4 paths: threaded 1"), naming why a loop did not run on host
// threads (ThreadedPath in Interp.h).
//
//===----------------------------------------------------------------------===//

#include "driver/CompilationSession.h"
#include "frontend/Parser.h"
#include "interp/Interp.h"
#include "ir/IRPrinter.h"
#include "support/Support.h"

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

using namespace gdse;

namespace {

struct InputProgram {
  std::string Path;
  std::unique_ptr<Module> M;
  /// Guard plans produced by --transform, one per privatized loop.
  std::vector<std::shared_ptr<const GuardPlan>> Guards;
};

} // namespace

int main(int argc, char **argv) {
  std::vector<std::string> Paths;
  int Threads = 1;
  unsigned Jobs = 1;
  bool Transform = false, DumpIR = false, TimePasses = false, Stats = false;
  bool AuditDeps = false;
  std::string Dump;
  // Engine default follows GDSE_ENGINE (bytecode when unset); --engine wins.
  ExecEngine Engine = engineFromEnv();
  // Guard default follows GDSE_GUARD (off when unset); --guard wins.
  GuardMode Guard = guardModeFromEnv();
  // Resilience defaults follow GDSE_DEADLINE_MS / GDSE_MEM_BUDGET /
  // GDSE_WATCHDOG_MS / GDSE_FAULTS; the flags below win.
  ResilienceOptions Resilience = resilienceFromEnv();
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg == "--threads" && I + 1 < argc)
      Threads = std::atoi(argv[++I]);
    else if (Arg == "--engine" && I + 1 < argc) {
      std::string E = argv[++I];
      if (E == "tree" || E == "treewalk")
        Engine = ExecEngine::TreeWalk;
      else if (E == "bytecode" || E == "bc")
        Engine = ExecEngine::Bytecode;
      else if (E == "threads")
        Engine = ExecEngine::Threads;
      else {
        std::fprintf(stderr, "unknown engine '%s' (tree|bytecode|threads)\n",
                     E.c_str());
        return 1;
      }
    }
    else if (Arg == "--guard" && I + 1 < argc) {
      std::string G = argv[++I];
      if (!parseGuardMode(G, Guard)) {
        std::fprintf(stderr, "unknown guard mode '%s' (off|check|fallback)\n",
                     G.c_str());
        return 1;
      }
    }
    else if (Arg == "--jobs" && I + 1 < argc)
      Jobs = static_cast<unsigned>(std::atoi(argv[++I]));
    else if (Arg == "--deadline-ms" && I + 1 < argc)
      Resilience.Budget.DeadlineMs =
          static_cast<uint64_t>(std::atoll(argv[++I]));
    else if (Arg == "--mem-budget" && I + 1 < argc)
      Resilience.Budget.MaxBytes = static_cast<uint64_t>(std::atoll(argv[++I]));
    else if (Arg == "--watchdog-ms" && I + 1 < argc)
      Resilience.WatchdogMs = static_cast<uint64_t>(std::atoll(argv[++I]));
    else if (Arg == "--faults" && I + 1 < argc) {
      std::string Err;
      Resilience.Faults = FaultInjector::parse(argv[++I], Err);
      if (!Resilience.Faults) {
        std::fprintf(stderr, "bad --faults spec: %s\n", Err.c_str());
        return 1;
      }
    }
    else if (Arg == "--transform")
      Transform = true;
    else if (Arg == "--audit-deps")
      AuditDeps = true;
    else if (Arg.rfind("--dump=", 0) == 0) {
      Dump = Arg.substr(7);
      if (Dump != "points-to" && Dump != "deps" && Dump != "static-deps" &&
          Dump != "classes" && Dump != "witness") {
        std::fprintf(stderr,
                     "unknown dump '%s' "
                     "(points-to|deps|static-deps|classes|witness)\n",
                     Dump.c_str());
        return 1;
      }
    }
    else if (Arg == "--dump-ir")
      DumpIR = true;
    else if (Arg == "--time-passes")
      TimePasses = true;
    else if (Arg == "--stats")
      Stats = true;
    else
      Paths.push_back(Arg);
  }
  if (Paths.empty()) {
    std::fprintf(stderr,
                 "usage: minic <file.mc>... [--threads N] [--jobs N] "
                 "[--engine tree|bytecode|threads] "
                 "[--guard off|check|fallback] "
                 "[--deadline-ms N] [--mem-budget N] [--watchdog-ms N] "
                 "[--faults SPEC] "
                 "[--transform] [--audit-deps] "
                 "[--dump=points-to|deps|static-deps|classes|witness] "
                 "[--dump-ir] [--time-passes] [--stats]\n");
    return 1;
  }
  const bool Multi = Paths.size() > 1;
  if (AuditDeps && !Transform) {
    std::fprintf(stderr, "--audit-deps requires --transform\n");
    return 1;
  }

  std::vector<InputProgram> Programs;
  for (const std::string &Path : Paths) {
    std::ifstream In(Path);
    if (!In) {
      std::fprintf(stderr, "cannot open '%s'\n", Path.c_str());
      return 1;
    }
    std::ostringstream SS;
    SS << In.rdbuf();
    ParseResult PR = parseMiniC(SS.str());
    if (!PR.ok()) {
      for (const Diagnostic &D : PR.Diags)
        std::fprintf(stderr, "%s: %s\n", Path.c_str(), D.str().c_str());
      return 1;
    }
    Programs.push_back({Path, std::move(PR.M), {}});
  }

  if (!Dump.empty()) {
    // Analysis dumps are a compilation mode of their own: print one
    // deterministic, diffable report per file on the UNTRANSFORMED module
    // and exit without executing anything. --dump=deps runs the profiler,
    // so a profiling run that traps makes the exit status 1.
    bool DumpFailed = false;
    for (InputProgram &P : Programs) {
      if (Multi)
        std::printf("== %s ==\n", P.Path.c_str());
      CompilationSession S(*P.M);
      AnalysisManager &AM = S.analyses();
      if (Dump == "points-to") {
        std::printf("%s", AM.pointsTo().str().c_str());
        continue;
      }
      for (unsigned LoopId : S.candidateLoops()) {
        if (Dump == "deps" || Dump == "static-deps") {
          const LoopDepGraph *G = AM.depGraph(
              LoopId, Dump == "deps" ? GraphSource::Profile
                                     : GraphSource::Static);
          if (G)
            std::printf("%s", G->str().c_str());
        } else if (Dump == "classes") {
          std::printf("loop %u\n", LoopId);
          const AccessClasses *C =
              AM.accessClasses(LoopId, GraphSource::Static);
          if (C)
            std::printf("%s", C->str().c_str());
        } else { // witness
          std::printf("%s", AM.staticWitness(LoopId)->str().c_str());
        }
      }
      for (const Diagnostic &D : S.diags().diagnostics()) {
        std::fprintf(stderr, "%s%s%s\n", Multi ? P.Path.c_str() : "",
                     Multi ? ": " : "", D.str().c_str());
        DumpFailed |= D.Severity == DiagSeverity::Error;
      }
    }
    return DumpFailed ? 1 : 0;
  }

  if (Transform) {
    std::vector<BatchUnit> Units;
    for (InputProgram &P : Programs) {
      BatchUnit U;
      U.M = P.M.get();
      U.Opts.AuditDeps = AuditDeps;
      Units.push_back(U);
    }
    unsigned AuditRefutedTotal = 0;
    std::vector<BatchUnitResult> Results =
        CompilationSession::compileBatch(Units, Jobs);
    for (size_t I = 0; I < Programs.size(); ++I) {
      const BatchUnitResult &B = Results[I];
      const char *Prefix = Multi ? Programs[I].Path.c_str() : "";
      const char *Sep = Multi ? ": " : "";
      for (const PipelineResult &R : B.Results) {
        if (!R.Ok) {
          for (const Diagnostic &D : R.Diags)
            if (D.Severity == DiagSeverity::Error)
              std::fprintf(stderr, "%s%s%s\n", Prefix, Sep, D.str().c_str());
          return 1;
        }
        if (AuditDeps) {
          // The audit is a report: show its findings (refuted and
          // unsupported claims are warnings) plus a one-line tally.
          for (const Diagnostic &D : R.Diags)
            if (D.Pass == "audit-deps" &&
                D.Severity == DiagSeverity::Warning)
              std::fprintf(stderr, "%s%s%s\n", Prefix, Sep, D.str().c_str());
          std::fprintf(stderr,
                       "%s%sloop %u: audit %u private class claim(s): "
                       "%u confirmed, %u unsupported, %u refuted\n",
                       Prefix, Sep, R.LoopId, R.AuditChecked,
                       R.AuditConfirmed, R.AuditUnsupported, R.AuditRefuted);
          AuditRefutedTotal += R.AuditRefuted;
        }
        std::fprintf(stderr, "%s%sloop %u: %s, %u structure(s) expanded\n",
                     Prefix, Sep, R.LoopId,
                     R.Plan.Kind == ParallelKind::DOALL      ? "DOALL"
                     : R.Plan.Kind == ParallelKind::DOACROSS ? "DOACROSS"
                                                             : "sequential",
                     R.Expansion.ExpandedObjects);
        if (R.Guard)
          Programs[I].Guards.push_back(R.Guard);
      }
      if (!B.Ok)
        return 1;
      if (TimePasses) {
        if (Multi)
          std::fprintf(stderr, "== %s ==\n", Programs[I].Path.c_str());
        std::fprintf(stderr, "%s", B.TimingReport.c_str());
      }
      if (Stats) {
        if (Multi)
          std::fprintf(stderr, "== %s ==\n", Programs[I].Path.c_str());
        std::fprintf(stderr, "%s", B.StatsReport.c_str());
      }
    }
    // A refuted claim means the dependence graph the transform just ran on
    // contradicts a static proof — fail before executing anything.
    if (AuditRefutedTotal)
      return 1;
  }

  int Exit = 0;
  for (InputProgram &P : Programs) {
    if (DumpIR)
      std::fprintf(stderr, "%s\n", printModule(*P.M).c_str());

    InterpOptions IO;
    IO.NumThreads = Threads;
    IO.Engine = Engine;
    IO.Guard = Guard;
    IO.GuardPlans = P.Guards;
    IO.Resilience = Resilience;
    DiagnosticEngine RunDiags;
    IO.GuardDiags = &RunDiags;
    IO.Resilience.Diags = &RunDiags;
    // Loop-level degradations (pool loss, watchdog fire) recover inside the
    // run; resource breaches and unrecoverable wedges stay attributed traps.
    RunResult R = Interp(*P.M, IO).run();
    std::fputs(R.Output.c_str(), stdout);
    // Guard diagnostics (violations in check mode, fallback warnings) and
    // resilience warnings (degradations, watchdog fires).
    for (const Diagnostic &D : RunDiags.diagnostics())
      std::fprintf(stderr, "%s%s%s\n", Multi ? P.Path.c_str() : "",
                   Multi ? ": " : "", D.str().c_str());
    if (R.Trapped) {
      // Structured, attributed diagnostic instead of a bare string: the
      // message already carries [loop, iteration, thread] context when the
      // trap fired inside a loop.
      Diagnostic D;
      D.Severity = DiagSeverity::Error;
      D.Pass = "interp";
      D.LoopId = R.TrapLoopId >= 0 ? static_cast<unsigned>(R.TrapLoopId) : 0;
      D.Message = R.TrapMessage;
      std::fprintf(stderr, "%s%s%s\n", Multi ? P.Path.c_str() : "",
                   Multi ? ": " : "", D.str().c_str());
      return 1;
    }
    // In check mode a detected violation means the transformed program ran
    // on an unsound dependence graph: fail loudly. (Fallback mode already
    // recovered — the serial rerun's output is the correct one.)
    if (Guard == GuardMode::Check && !R.Violations.empty())
      return 1;
    if (Stats)
      for (const auto &[Id, L] : R.Loops) {
        std::string Line;
        for (unsigned C = 0; C != NumThreadedPaths; ++C)
          if (L.Paths[C])
            Line += formatString(" %s %llu",
                                 threadedPathName(static_cast<ThreadedPath>(C)),
                                 static_cast<unsigned long long>(L.Paths[C]));
        if (!Line.empty())
          std::fprintf(stderr, "%s%sloop %u paths:%s\n",
                       Multi ? P.Path.c_str() : "", Multi ? ": " : "", Id,
                       Line.c_str());
      }
    std::fprintf(stderr,
                 "[%llu work cycles, %llu simulated, peak %llu bytes]\n",
                 (unsigned long long)R.WorkCycles,
                 (unsigned long long)R.SimTime,
                 (unsigned long long)R.PeakMemoryBytes);
    if (Exit == 0)
      Exit = (int)R.ExitCode;
  }
  return Exit;
}
