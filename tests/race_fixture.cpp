//===- race_fixture.cpp - Negative fixture: an un-expanded loop races ------===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// The control experiment for the host-threaded engine's safety story. The
// paper's claim is that data-structure expansion is what MAKES a loop safe
// to run on real threads; this program deliberately skips the expansion,
// force-marks a loop with unprivatized global accumulators as DOALL, and
// runs it on four host threads. Every iteration performs unsynchronized
// read-modify-writes of the same globals — a textbook data race.
//
// CI builds this fixture under -fsanitize=thread and runs it EXPECTING
// failure: tsan must report the race (the step passes only when the fixture
// dies). If the fixture ever exits cleanly under tsan, the threads engine
// has stopped genuinely racing — meaning it silently serialized, and the
// whole measured-speedup story would be fiction. Without tsan it exits 0
// (the lost updates are tolerated; the printed count is simply wrong).
//
// The race must be reportable in every build type. Bounds checks are off:
// with them on, every VM access looks its address up under VMMemory's
// registry lock, and those lock handoffs order most of the racing accesses
// for tsan. The loop races on an int and on a double; the VM reads and
// writes each scalar kind with a fixed-size copy, which tsan instruments at
// -O0 and -O2 alike (a variable-size integer copy used to be expanded
// inline after g++'s tsan pass, which hid the int race at -O2).
//
//===----------------------------------------------------------------------===//

#include "driver/CompilationSession.h"
#include "frontend/Parser.h"
#include "interp/Interp.h"
#include "ir/IR.h"
#include "ir/IRVisitor.h"

#include <cstdio>

using namespace gdse;

namespace {

const char *RacySrc = R"(
int counter;
double total;
int main() {
  int n = 400000;
  @candidate for (int i = 0; i < n; i++) {
    counter = counter + 1;
    total = total + 1.0;
  }
  print_int(counter);
  print_float(total);
  return 0;
}
)";

} // namespace

int main() {
  std::unique_ptr<Module> M = parseMiniCOrDie(RacySrc, "race fixture");

  // Number the loops, then lie: mark the candidate DOALL with no expansion,
  // no guard plan, nothing. A transformed module would have privatized
  // `counter` and `total`; this one shares them across all four workers.
  std::vector<unsigned> Loops = CompilationSession(*M).candidateLoops();
  if (Loops.size() != 1) {
    std::fprintf(stderr, "race fixture: expected 1 candidate loop, got %zu\n",
                 Loops.size());
    return 2;
  }
  bool Marked = false;
  for (Function *F : M->getFunctions()) {
    if (!F->isDefinition())
      continue;
    walkStmts(F->getBody(), [&](Stmt *S) {
      if (auto *FS = dyn_cast<ForStmt>(S))
        if (FS->getLoopId() == Loops.front()) {
          FS->setParallelKind(ParallelKind::DOALL);
          Marked = true;
        }
    });
  }
  if (!Marked) {
    std::fprintf(stderr, "race fixture: candidate loop not found in IR\n");
    return 2;
  }

  InterpOptions IO;
  IO.Engine = ExecEngine::Threads;
  IO.NumThreads = 4;
  IO.BoundsCheck = false;
  Interp I(*M, IO);
  RunResult R = I.run();
  if (R.Trapped) {
    std::fprintf(stderr, "race fixture: trapped: %s\n", R.TrapMessage.c_str());
    return 2;
  }

  // Under the races, the final count is anywhere in [n/4, n]; all that
  // matters here is that the run finished and actually went multi-threaded.
  std::fprintf(stderr, "race fixture: ran to completion; output: %s",
               R.Output.c_str());
  return 0;
}
