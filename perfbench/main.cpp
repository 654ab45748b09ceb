//===- main.cpp - Command line of the repository benchmark -----------------===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
//   perfbench --workload compile|run-doall|run-doacross|run-guarded
//             [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE]
//
// Prints each metric with its unit on stderr and, as the last line of
// stdout, one JSON object: correct, attempted, failed, metrics. --trace 1
// reports the per-layer metrics instead of the end-to-end ones and writes
// the spans to --trace-out.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace perfbench;

static int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload compile|run-doall|run-doacross|"
               "run-guarded [--seed N] [--seconds S] [--trace 0|1] "
               "[--trace-out FILE]\n");
  return 2;
}

int main(int argc, char **argv) {
  Config C;
  bool HaveWorkload = false;
  for (int I = 1; I < argc; ++I) {
    if (I + 1 >= argc)
      return usage();
    const char *Flag = argv[I];
    std::string Val = argv[++I];
    char *End = nullptr;
    if (std::strcmp(Flag, "--workload") == 0) {
      if (!parseWorkload(Val, C.W))
        return usage();
      HaveWorkload = true;
    } else if (std::strcmp(Flag, "--seed") == 0) {
      C.Seed = std::strtoull(Val.c_str(), &End, 10);
    } else if (std::strcmp(Flag, "--seconds") == 0) {
      C.Seconds = std::strtod(Val.c_str(), &End);
    } else if (std::strcmp(Flag, "--trace") == 0) {
      C.Trace = Val == "1";
      if (Val != "0" && Val != "1")
        return usage();
    } else if (std::strcmp(Flag, "--trace-out") == 0) {
      C.TraceOut = Val;
    } else {
      return usage();
    }
    if (End && *End)
      return usage();
  }
  if (!HaveWorkload || !(C.Seconds >= 0))
    return usage();

  Result R = runWorkload(C);
  for (const Metric &M : R.Metrics)
    std::fprintf(stderr, "  %-34s %16.6f %s\n", M.Name.c_str(), M.Value,
                 M.Unit.c_str());
  std::fputs(R.Report.c_str(), stderr);
  std::printf("%s\n", toJson(R).c_str());
  return 0;
}
