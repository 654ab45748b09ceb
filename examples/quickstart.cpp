//===- quickstart.cpp - GDSE in five minutes --------------------*- C++ -*-===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// The smallest useful tour of the public API:
//   1. parse a MiniC program containing an @candidate loop,
//   2. run the whole pipeline (dependence profiling -> Definition 4/5
//      classification -> data structure expansion -> DOALL/DOACROSS
//      planning),
//   3. show the transformed program,
//   4. execute original and transformed versions and compare outputs and
//      simulated times.
//
//===----------------------------------------------------------------------===//

#include "driver/CompilationSession.h"
#include "frontend/Parser.h"
#include "interp/Interp.h"
#include "ir/IRPrinter.h"

#include <cstdio>

using namespace gdse;

// The paper's Figure 1 pattern: a heap buffer fully rewritten by every
// iteration. Without expansion the buffer's reuse creates loop-carried anti
// and output dependences that block parallelization.
static const char *Program = R"(
int main() {
  int m = 64;
  int* zptr = malloc(m * sizeof(int));
  long checksum = 0;
  @candidate for (int it = 0; it < 32; it++) {
    for (int k = 0; k < m; k++) { zptr[k] = it * 3 + k; }
    int b = 0;
    for (int k = 0; k < m; k++) { b += zptr[k]; }
    checksum += b * (it + 1);
  }
  print_int(checksum);
  free(zptr);
  return 0;
}
)";

int main() {
  // --- Original sequential execution. --------------------------------------
  std::unique_ptr<Module> Original = parseMiniCOrDie(Program, "quickstart");
  Interp SeqInterp(*Original);
  RunResult Seq = SeqInterp.run();
  std::printf("original output:     %s", Seq.Output.c_str());
  std::printf("original sim time:   %llu cycles\n\n",
              static_cast<unsigned long long>(Seq.SimTime));

  // --- Transform. -----------------------------------------------------------
  std::unique_ptr<Module> M = parseMiniCOrDie(Program, "quickstart");
  CompilationSession Session(*M);
  std::vector<unsigned> Candidates = Session.candidateLoops();
  PipelineResult PR = Session.compileLoop(Candidates.front());
  if (!PR.Ok) {
    for (const Diagnostic &D : PR.Diags)
      if (D.Severity == DiagSeverity::Error)
        std::fprintf(stderr, "%s\n", D.str().c_str());
    return 1;
  }
  std::printf("dependence graph:\n%s\n", PR.Graph.str().c_str());
  std::printf("expanded structures: %u\n", PR.Expansion.ExpandedObjects);
  std::printf("plan: %s with %u ordered region(s)\n\n",
              PR.Plan.Kind == ParallelKind::DOALL ? "DOALL" : "DOACROSS",
              PR.Plan.OrderedRegions);
  std::printf("--- transformed program ---\n%s\n", printModule(*M).c_str());

  // --- Parallel simulation at several core counts. --------------------------
  for (int N : {1, 2, 4, 8}) {
    InterpOptions IO;
    IO.NumThreads = N;
    Interp I(*M, IO);
    RunResult Par = I.run();
    bool Same = Par.Output == Seq.Output;
    std::printf("N=%d: sim time %10llu cycles  speedup %5.2fx  output %s\n",
                N, static_cast<unsigned long long>(Par.SimTime),
                static_cast<double>(Seq.SimTime) /
                    static_cast<double>(Par.SimTime),
                Same ? "identical" : "MISMATCH");
  }
  return 0;
}
