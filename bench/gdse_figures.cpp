//===- gdse_figures.cpp - Reproduces the paper's tables and figures --------===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// gdse_figures <name...|all> [--json PATH] [--min-host-speedup X]
//              [--max-overhead X]
//
// Runs the named figures in their canonical order, each printing its
// paper-style table. --json PATH writes BENCH_<id>.json for each figure
// into directory PATH, or to PATH itself when it ends in ".json" and one
// figure is selected. A failed contract check prints
// `FAIL <figure>/<workload>: <reason>` to stderr; the remaining figures
// still run and the exit status is 1. Usage errors exit 2.
//
// GDSE_ENGINE, GDSE_GUARD, GDSE_JOBS and GDSE_TIME_PASSES apply as in
// BenchCommon.h.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "Figures.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <sys/stat.h>
#include <vector>

using namespace gdse::bench;

namespace {

int usage(const std::string &Why) {
  std::fprintf(stderr,
               "gdse_figures: %s\n"
               "usage: gdse_figures <name...|all> [--json PATH] "
               "[--min-host-speedup X] [--max-overhead X]\nnames:",
               Why.c_str());
  for (const Figure &F : figures())
    std::fprintf(stderr, " %s", F.Name);
  std::fprintf(stderr, " all\n");
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  const std::vector<Figure> &All = figures();
  std::vector<bool> Want(All.size());
  FigureFlags Flags;
  std::string Json;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg.rfind("--", 0) != 0) {
      bool Known = false;
      for (size_t F = 0; F != All.size(); ++F)
        if (Arg == "all" || Arg == All[F].Name)
          Want[F] = Known = true;
      if (!Known)
        return usage("unknown figure '" + Arg + "'");
      continue;
    }
    // Every flag takes a value: `--flag VALUE` or `--flag=VALUE`.
    std::string Value;
    if (size_t Eq = Arg.find('='); Eq != std::string::npos) {
      Value = Arg.substr(Eq + 1);
      Arg.resize(Eq);
    } else if (I + 1 < argc) {
      Value = argv[++I];
    }
    if (Value.empty())
      return usage("missing value for " + Arg);
    if (Arg == "--json") {
      Json = Value;
      continue;
    }
    double *Gate = Arg == "--min-host-speedup" ? &Flags.MinHostSpeedup
                   : Arg == "--max-overhead"   ? &Flags.MaxOverhead
                                               : nullptr;
    if (!Gate)
      return usage("unknown flag " + Arg);
    char *End = nullptr;
    *Gate = std::strtod(Value.c_str(), &End);
    if (*End || !std::isfinite(*Gate) || *Gate < 0)
      return usage("malformed value '" + Value + "' for " + Arg);
  }
  size_t Selected = std::count(Want.begin(), Want.end(), true);
  if (!Selected)
    return usage("no figure named");
  bool JsonFile =
      Json.size() > 5 && Json.compare(Json.size() - 5, 5, ".json") == 0;
  if (JsonFile && Selected != 1)
    return usage("--json " + Json + " names one file but " +
                 std::to_string(Selected) + " figures are selected");
  if (!Json.empty() && !JsonFile)
    ::mkdir(Json.c_str(), 0755); // may already exist; a failure shows below

  int Status = 0;
  for (size_t F = 0; F != All.size(); ++F) {
    if (!Want[F])
      continue;
    if (!Json.empty())
      beginJsonCapture(All[F].BenchId);
    Failures Fs = All[F].Run(Flags);
    if (!Json.empty()) {
      std::string Path = JsonFile ? Json
                                  : Json + "/BENCH_" + All[F].BenchId + ".json";
      if (!endJsonCapture(Path))
        Fs.push_back({"all", "cannot write " + Path});
    }
    std::fflush(stdout);
    for (const Failure &X : Fs)
      std::fprintf(stderr, "FAIL %s/%s: %s\n", All[F].Name,
                   X.Workload.c_str(), X.Reason.c_str());
    Status = Fs.empty() ? Status : 1;
  }
  return Status;
}
