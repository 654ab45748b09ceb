//===- Bench.cpp - The repository benchmark's in-process driver ------------===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "Trace.h"

#include "driver/CompilationSession.h"
#include "frontend/Parser.h"
#include "interp/Bytecode.h"
#include "interp/Interp.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <malloc.h>
#include <map>
#include <memory>
#include <optional>
#include <regex>
#include <thread>

using namespace gdse;

namespace perfbench {

namespace {

/// Host threads of every threaded run; also the simulated core count, so
/// sim_speedup is the Fig. 11b 4-core figure on any host with 4 threads.
int hostThreads() {
  return static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
}

double quantile(std::vector<double> Xs, double Q) {
  if (Xs.empty())
    return 0;
  std::sort(Xs.begin(), Xs.end());
  double Pos = Q * static_cast<double>(Xs.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = static_cast<size_t>(std::ceil(Pos));
  return Xs[Lo] + (Xs[Hi] - Xs[Lo]) * (Pos - static_cast<double>(Lo));
}

double median(const std::vector<double> &Xs) { return quantile(Xs, 0.5); }

double harmonicMean(const std::vector<double> &Xs) {
  double Denom = 0;
  for (double X : Xs)
    Denom += 1.0 / X;
  return Xs.empty() ? 0 : static_cast<double>(Xs.size()) / Denom;
}

double geometricMean(const std::vector<double> &Xs) {
  double LogSum = 0;
  for (double X : Xs)
    LogSum += std::log(X);
  return Xs.empty() ? 0 : std::exp(LogSum / static_cast<double>(Xs.size()));
}

uint64_t splitmix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

/// Returns freed heap memory to the kernel, then resets its peak-RSS mark
/// to the current RSS (Linux 4.0+). Without the trim the mark would start
/// from however much freed memory the allocator happened to keep.
void resetPeakRss() {
  malloc_trim(0);
  std::ofstream F("/proc/self/clear_refs");
  F << "5";
  F.flush();
  if (!F)
    std::fprintf(stderr, "perfbench: cannot reset the peak RSS mark; "
                         "peak_rss_mb includes set-up\n");
}

double peakRssMb() {
  std::ifstream F("/proc/self/status");
  std::string Line;
  while (std::getline(F, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::stod(Line.substr(6)) / 1024.0; // kB
  return 0;
}

/// Keeps \p N threads busy until a round of parallel slices runs about as
/// fast as one serial slice, for at most three seconds. On a virtual machine
/// whose idle virtual CPUs the host has descheduled, a threaded run can
/// otherwise find one CPU for the first seconds of sustained parallel load;
/// the bursts of a threaded run alone may not bring the others back.
void wakeCpus(int N) {
  auto slice = [](int Threads) {
    auto Spin = [] {
      volatile uint64_t X = 1;
      for (int I = 0; I != 20000000; ++I)
        X = X * 6364136223846793005ULL + 1442695040888963407ULL;
    };
    int64_t Start = nowNs();
    std::vector<std::thread> Ts;
    for (int I = 0; I != Threads; ++I)
      Ts.emplace_back(Spin);
    for (std::thread &Th : Ts)
      Th.join();
    return nowNs() - Start;
  };
  int64_t Serial = slice(1), Deadline = nowNs() + 3000000000LL;
  for (int Fast = 0; Fast != 3 && nowNs() < Deadline;)
    Fast = slice(N) * 4 < Serial * 5 ? Fast + 1 : 0;
}

/// The read-only table of the speed kernel below, 8 MiB: larger than a
/// core's L2 cache, so the kernel feels other tenants' last-level cache and
/// memory traffic as the profiler does. It stays resident once built.
const std::vector<uint64_t> &kernelTable() {
  static const std::vector<uint64_t> Table = [] {
    std::vector<uint64_t> V(1 << 20);
    uint64_t X = 7;
    for (uint64_t &W : V)
      W = X = splitmix64(X);
    return V;
  }();
  return Table;
}

/// Wall time of a fixed, interpreter-like kernel: a switch over a random
/// instruction stream that loads from the shared table and loads from and
/// stores to a private 64 KiB stack array. Safe on several threads at once.
double kernelNs() {
  static const std::vector<uint32_t> Code = [] {
    std::vector<uint32_t> V(1 << 16);
    uint64_t X = 42;
    for (uint32_t &I : V)
      I = static_cast<uint32_t>((X = splitmix64(X)) >> 32);
    return V;
  }();
  const std::vector<uint64_t> &Table = kernelTable();
  const size_t TableMask = Table.size() - 1;
  uint64_t Mem[1 << 13];
  std::fill(std::begin(Mem), std::end(Mem), 1);
  const size_t Mask = std::size(Mem) - 1;
  uint64_t R[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  int64_t Start = nowNs();
  for (int Pass = 0; Pass != 40; ++Pass)
    for (uint32_t I : Code) {
      uint64_t &A = R[(I >> 3) & 7], &B = R[(I >> 6) & 7];
      switch (I & 7) {
      case 0: A += B; break;
      case 1: A = Table[(B * 0x9e3779b97f4a7c15ULL + (I >> 9)) & TableMask]; break;
      case 2: Mem[(A + (I >> 9)) & Mask] = B; break;
      case 3: A ^= B >> 3; break;
      case 4: B += A & 1; break;
      case 5: A = A * 31 + Mem[(B + (I >> 9)) & Mask]; break;
      case 6: A -= B | 1; break;
      default: B = std::min(A, B); break;
      }
    }
  int64_t End = nowNs();
  static std::atomic<uint64_t> Sink;
  Sink += R[0] + R[1] + R[2] + R[3] + R[4] + R[5] + R[6] + R[7];
  return static_cast<double>(End - Start);
}

/// The kernel's wall time on 1 and on 4 threads at once on an idle host of
/// the kind the benchmark was written on (4-vCPU KVM guest, Xeon, 2.1 GHz).
constexpr double KernelRefNs1 = 28e6, KernelRefNs4 = 31e6;

/// How much faster the host runs right now than that idle reference, from
/// one run of the kernel on \p Threads threads at once (the wall time of
/// all of them). Other tenants of a shared host slow whole runs of the
/// same code by up to 70% for minutes at a time; times scaled by this
/// factor are seconds at the reference speed and spread half as much or
/// less.
double hostSpeed(int Threads) {
  if (Threads == 1)
    return KernelRefNs1 / kernelNs();
  int64_t Start = nowNs();
  std::vector<std::thread> Ts;
  for (int I = 0; I != Threads; ++I)
    Ts.emplace_back(kernelNs);
  for (std::thread &Th : Ts)
    Th.join();
  return KernelRefNs4 / static_cast<double>(nowNs() - Start);
}

/// Set-up repetitions before the timed window, at most; as many less one
/// follow it.
constexpr int MaxSetupRepsBefore = 6;

/// Threaded runs of each transformed program in one round. On the run
/// workloads a round's threaded time, about a quarter of a second, is then
/// long against its kernel run and against single slow thread wake-ups; on
/// compile, each program's median has twice the samples.
int threadedPasses(Workload W) {
  switch (W) {
  case Workload::Compile:
  case Workload::RunDoall:
    return 2;
  case Workload::RunDoacross:
    return 3;
  default:
    return 1;
  }
}

/// Wall-clock samples (ns) of one kind of call on one program, from set-up
/// and from timed rounds. Layers a workload exercises only in set-up are
/// summarised from the set-up samples.
struct Samples {
  std::vector<double> Setup, Timed;
  const std::vector<double> &preferred() const {
    return Timed.empty() ? Setup : Timed;
  }
};

/// A transformed program: MiniC text -> expanded, planned, lowered.
struct Compiled {
  std::unique_ptr<Module> M;
  std::shared_ptr<const BytecodeModule> BC;
  std::vector<std::shared_ptr<const GuardPlan>> Plans;
  uint64_t ExpandedObjects = 0, PromotedPointerSlots = 0,
           SpanStoresInserted = 0, OrderedRegions = 0, GraphEdges = 0,
           ProfileRuns = 0, CacheHits = 0, CacheMisses = 0;
  bool ok() const { return BC != nullptr; }
};

struct Program {
  const WorkloadInfo *Info = nullptr;
  std::string Source;
  /// The untransformed program on the tree-walker: the output every timed
  /// run is compared to, and the serial side of sim_speedup / mem_multiple.
  RunResult Reference;
  std::unique_ptr<Module> Orig;
  std::shared_ptr<const BytecodeModule> OrigBC;
  Compiled Xf;
  /// The transformed program on the threads engine (guard off / check).
  RunResult XfRun, GuardRun;
  bool Broken = false;
  /// Compiling the transformed program; the original on serial bytecode,
  /// the transformed program on threads with the guard off and with it
  /// checking.
  Samples CompileNs, OrigSerialNs, ThreadsNs, GuardNs;
  /// The compile workload's threaded runs, host-speed scaled.
  std::vector<double> ScaledRunNs;
};

struct RoundRec {
  int Round;
  bool Traced;
  /// Set-up, compile and threads-engine time, host-speed scaled.
  double SetupNs = 0, CompileNs = 0, RunNs = 0;
  int64_t StartNs = 0, EndNs = 0;
  double wallNs() const { return static_cast<double>(EndNs - StartNs); }
};

/// Layer spans, in the order the per-layer metrics list them.
const char *const LayerSpans[] = {
    "frontend.parse",      "ir.numbering",         "interp.lower",
    "profile.dep_profile", "analysis.classify",    "analysis.points_to",
    "analysis.witness",    "expand.compile_loop",  "interp.treewalk",
    "interp.setup",        "interp.bytecode_serial", "interp.threads_run",
    "interp.guard_run",
};

class Driver {
public:
  explicit Driver(const Config &C) : C(C), Threads(hostThreads()) {
    for (const WorkloadInfo *W : workloadPrograms(C.W)) {
      Progs.emplace_back();
      Progs.back().Info = W;
      Progs.back().Source = reseed(W->Source, C.Seed);
    }
  }

  Result run();

private:
  bool check(bool Ok, Program &P, const char *What) {
    ++Attempted;
    if (!Ok && ++Failed <= 10)
      std::fprintf(stderr, "perfbench: %s: %s failed\n", P.Info->Name, What);
    return Ok;
  }

  static bool outputOk(const RunResult &R, const Program &P) {
    return R.ok() && R.Output == P.Reference.Output;
  }

  Compiled compile(const std::string &Source);
  RunResult execute(Module &M, std::shared_ptr<const BytecodeModule> BC,
                    ExecEngine E, int NumThreads, GuardMode G,
                    const std::vector<std::shared_ptr<const GuardPlan>> &Plans,
                    const char *Layer, double &WallNs);
  RunResult runThreads(const Compiled &X, GuardMode G, double &WallNs) {
    return execute(*X.M, X.BC, ExecEngine::Threads, Threads, G, X.Plans,
                   G == GuardMode::Off ? "interp.threads_run"
                                       : "interp.guard_run",
                   WallNs);
  }
  /// The factor end-to-end times are scaled by (see hostSpeed); 1 in the
  /// traced run, whose per-layer times are as measured.
  double speed(int NumThreads) {
    if (C.Trace)
      return 1;
    double S = hostSpeed(NumThreads);
    (NumThreads == 1 ? SerialSpeeds : ThreadedSpeeds).push_back(S);
    return S;
  }
  double prepare(Program &P, double &CompileNs);
  void verify(Program &P);
  RoundRec setupRep(int Rep, bool Keep);
  void round(RoundRec &R);
  void addLayerMetrics(Result &Out, const std::vector<RoundRec> &Rounds,
                       const std::vector<RoundRec> &SetupReps);
  std::string programReport() const;

  Config C;
  int Threads;
  Tracer T;
  std::vector<Program> Progs;
  uint64_t Attempted = 0, Failed = 0;
  uint64_t Degradations = 0, WatchdogFires = 0;
  std::vector<double> SerialSpeeds, ThreadedSpeeds;
};

Compiled Driver::compile(const std::string &Source) {
  Compiled Out;
  ParseResult PR;
  {
    SpanScope S(T, "frontend.parse");
    PR = parseMiniC(Source);
  }
  if (!PR.ok())
    return Out;
  std::unique_ptr<Module> M = std::move(PR.M);
  CompilationSession Session(*M);
  AnalysisManager &AM = Session.analyses();
  std::vector<unsigned> Loops;
  {
    SpanScope S(T, "ir.numbering");
    Loops = Session.candidateLoops();
  }
  // Each analysis is prewarmed in the order compileLoop reaches it, so the
  // spans below split its work by layer and compileLoop itself is left with
  // expansion, promotion, planning and any re-analysis.
  for (unsigned Loop : Loops) {
    if (engineFromEnv() == ExecEngine::Bytecode) {
      SpanScope S(T, "interp.lower");
      AM.bytecode();
    }
    {
      SpanScope S(T, "profile.dep_profile");
      AM.depGraph(Loop, GraphSource::Profile);
    }
    {
      SpanScope S(T, "analysis.classify");
      AM.accessClasses(Loop, GraphSource::Profile);
    }
    {
      SpanScope S(T, "analysis.points_to");
      AM.pointsTo();
    }
    {
      SpanScope S(T, "analysis.witness");
      AM.staticWitness(Loop);
    }
    PipelineResult R;
    {
      SpanScope S(T, "expand.compile_loop");
      R = Session.compileLoop(Loop);
    }
    if (!R.Ok)
      return Out;
    Out.ExpandedObjects += R.Expansion.ExpandedObjects;
    Out.PromotedPointerSlots += R.Expansion.PromotedPointerSlots;
    Out.SpanStoresInserted += R.Expansion.SpanStoresInserted;
    Out.OrderedRegions += R.Plan.OrderedRegions;
    Out.GraphEdges += R.Graph.Edges.size();
    if (R.Guard)
      Out.Plans.push_back(R.Guard);
  }
  AnalysisStats Stats = Session.analysisStats();
  Out.ProfileRuns = Stats.ProfileRuns;
  Out.CacheHits = Stats.CacheHits;
  Out.CacheMisses = Stats.CacheMisses;
  {
    SpanScope S(T, "interp.lower");
    Out.BC = lowerToBytecode(*M, InterpOptions().Costs);
  }
  Out.M = std::move(M);
  return Out;
}

RunResult
Driver::execute(Module &M, std::shared_ptr<const BytecodeModule> BC,
                ExecEngine E, int NumThreads, GuardMode G,
                const std::vector<std::shared_ptr<const GuardPlan>> &Plans,
                const char *Layer, double &WallNs) {
  InterpOptions IO;
  IO.Engine = E;
  IO.NumThreads = NumThreads;
  // A one-thread run is the original program's serial reference (the
  // Figure 9/11 methodology); a wider one simulates N cores.
  IO.SimulateParallel = NumThreads > 1;
  // The reference run checks every access; timed runs skip the check like
  // the figure binaries do.
  IO.BoundsCheck = E == ExecEngine::TreeWalk;
  IO.Guard = G;
  if (G != GuardMode::Off)
    IO.GuardPlans = Plans;
  IO.Precompiled = std::move(BC);

  int64_t Start = nowNs();
  RunResult R;
  {
    SpanScope Run(T, Layer);
    std::optional<Interp> I;
    {
      SpanScope Setup(T, "interp.setup");
      I.emplace(M, std::move(IO));
    }
    R = I->run();
  }
  WallNs = static_cast<double>(nowNs() - Start);
  if (E == ExecEngine::Threads)
    for (const auto &[Id, L] : R.Loops) {
      (void)Id;
      Degradations += L.Degradations;
      WatchdogFires += L.WatchdogFires;
    }
  return R;
}

/// One set-up pass over one program: what a user does before running it.
/// The original is parsed and lowered, the transformed program compiled.
/// Returns the pass's time and sets \p CompileNs to the compile's, both
/// host-speed scaled.
double Driver::prepare(Program &P, double &CompileNs) {
  CompileNs = 0;
  double Speed = speed(1);
  int64_t Start = nowNs();
  ParseResult PR;
  {
    SpanScope S(T, "frontend.parse");
    PR = parseMiniC(P.Source);
  }
  if (!check(PR.ok(), P, "parse")) {
    P.Broken = true;
    return static_cast<double>(nowNs() - Start) * Speed;
  }
  P.Orig = std::move(PR.M);
  {
    SpanScope S(T, "interp.lower");
    P.OrigBC = lowerToBytecode(*P.Orig, InterpOptions().Costs);
  }
  int64_t CompileStart = nowNs();
  P.Xf = compile(P.Source);
  int64_t End = nowNs();
  CompileNs = static_cast<double>(End - CompileStart) * Speed;
  if (!check(P.Xf.ok(), P, "compile"))
    P.Broken = true;
  return static_cast<double>(End - Start) * Speed;
}

/// The checks every later round relies on, once per program after set-up:
/// the tree-walker reference, the original on serial bytecode, the engine
/// contract and a guarded run.
void Driver::verify(Program &P) {
  if (P.Broken)
    return;
  double Ns = 0;
  P.Reference = execute(*P.Orig, nullptr, ExecEngine::TreeWalk, 1,
                        GuardMode::Off, {}, "interp.treewalk", Ns);
  if (!check(P.Reference.ok(), P, "reference run")) {
    P.Broken = true;
    return;
  }
  if (P.Info->Name == C.CorruptReferenceOf)
    P.Reference.Output += "corrupted\n";
  RunResult RO = execute(*P.Orig, P.OrigBC, ExecEngine::Bytecode, 1,
                         GuardMode::Off, {}, "interp.bytecode_serial", Ns);
  P.OrigSerialNs.Setup.push_back(Ns);
  check(outputOk(RO, P), P, "original bytecode run");

  // The engine contract: a threaded run reproduces the serial bytecode
  // run's virtual metrics bit for bit.
  RunResult Serial =
      execute(*P.Xf.M, P.Xf.BC, ExecEngine::Bytecode, Threads, GuardMode::Off,
              {}, "interp.bytecode_serial", Ns);
  P.XfRun = runThreads(P.Xf, GuardMode::Off, Ns);
  P.ThreadsNs.Setup.push_back(Ns);
  check(outputOk(Serial, P) && outputOk(P.XfRun, P), P, "transformed run");
  check(Serial.WorkCycles == P.XfRun.WorkCycles &&
            Serial.SimTime == P.XfRun.SimTime &&
            Serial.PeakMemoryBytes == P.XfRun.PeakMemoryBytes,
        P, "threads-engine virtual metrics");

  P.GuardRun = runThreads(P.Xf, GuardMode::Check, Ns);
  P.GuardNs.Setup.push_back(Ns);
  check(outputOk(P.GuardRun, P) && P.GuardRun.Violations.empty(), P,
        "guarded run");
}

/// One set-up repetition over every program. The programs of the last kept
/// repetition are the ones run afterwards.
RoundRec Driver::setupRep(int Rep, bool Keep) {
  RoundRec R{-1 - Rep, C.Trace && Rep % 2 == 0};
  T.setEnabled(R.Traced);
  for (size_t I = 0; I != Progs.size(); ++I) {
    T.setContext(static_cast<int>(I), R.Round);
    Program Scratch;
    Program &P = Keep ? Progs[I] : Scratch;
    P.Info = Progs[I].Info;
    P.Source = Progs[I].Source;
    P.Broken = false;
    double CompileNs = 0;
    R.SetupNs += prepare(P, CompileNs);
    R.CompileNs += CompileNs;
    if (!P.Broken)
      Progs[I].CompileNs.Setup.push_back(CompileNs);
  }
  return R;
}

void Driver::round(RoundRec &R) {
  bool Timed = R.Round > 0;
  auto sample = [&](Samples &S, double Ns) {
    if (Timed)
      S.Timed.push_back(Ns);
  };
  double Ns = 0;
  auto brokenRun = [&](Program &P) {
    if (P.Broken)
      check(false, P, "run (broken in set-up)");
    return P.Broken;
  };

  // Threaded runs are scaled by a threaded kernel run right before them;
  // on the compile workload, before each, as they are seconds apart.
  double RunSpeed = 1;
  switch (C.W) {
  case Workload::Compile:
    for (size_t I = 0; I != Progs.size(); ++I) {
      Program &P = Progs[I];
      T.setContext(static_cast<int>(I), R.Round);
      double Speed = speed(1);
      int64_t Start = nowNs();
      Compiled X = compile(P.Source);
      Ns = static_cast<double>(nowNs() - Start) * Speed;
      R.CompileNs += Ns;
      if (!check(X.ok(), P, "compile"))
        continue;
      sample(P.CompileNs, Ns);
      RunSpeed = speed(Threads);
      for (int Pass = 0; Pass != threadedPasses(C.W); ++Pass) {
        RunResult RT = runThreads(X, GuardMode::Off, Ns);
        R.RunNs += Ns * RunSpeed;
        if (Timed)
          P.ScaledRunNs.push_back(Ns * RunSpeed);
        sample(P.ThreadsNs, Ns);
        check(!P.Broken && outputOk(RT, P), P, "threaded run");
      }
    }
    break;
  case Workload::RunDoall:
  case Workload::RunDoacross:
    for (size_t I = 0; I != Progs.size(); ++I) {
      Program &P = Progs[I];
      T.setContext(static_cast<int>(I), R.Round);
      if (brokenRun(P))
        continue;
      RunResult RO =
          execute(*P.Orig, P.OrigBC, ExecEngine::Bytecode, 1, GuardMode::Off,
                  {}, "interp.bytecode_serial", Ns);
      sample(P.OrigSerialNs, Ns);
      check(outputOk(RO, P), P, "original bytecode run");
    }
    RunSpeed = speed(Threads);
    for (int Pass = 0; Pass != threadedPasses(C.W); ++Pass)
      for (size_t I = 0; I != Progs.size(); ++I) {
        Program &P = Progs[I];
        T.setContext(static_cast<int>(I), R.Round);
        if (brokenRun(P))
          continue;
        RunResult RT = runThreads(P.Xf, GuardMode::Off, Ns);
        R.RunNs += Ns * RunSpeed;
        sample(P.ThreadsNs, Ns);
        check(outputOk(RT, P), P, "threaded run");
      }
    break;
  case Workload::RunGuarded:
    RunSpeed = speed(Threads);
    for (size_t I = 0; I != Progs.size(); ++I) {
      Program &P = Progs[I];
      T.setContext(static_cast<int>(I), R.Round);
      if (brokenRun(P))
        continue;
      RunResult Off = runThreads(P.Xf, GuardMode::Off, Ns);
      R.RunNs += Ns * RunSpeed;
      sample(P.ThreadsNs, Ns);
      check(outputOk(Off, P), P, "threaded run");
      RunResult Chk = runThreads(P.Xf, GuardMode::Check, Ns);
      R.RunNs += Ns * RunSpeed;
      sample(P.GuardNs, Ns);
      check(outputOk(Chk, P) && Chk.Violations.empty(), P, "guarded run");
    }
    break;
  }
}

Result Driver::run() {
  Result Out;
  // Set-up, repeated so its median can be reported. The other tenants of a
  // shared host slow single repetitions by a third at random, and host
  // speed drifts over tens of seconds, so the repetitions go on for about
  // SetupSeconds and are split around the timed window: the programs of the
  // last one before it are kept, the ones after it only time the same work.
  // Verification follows the first part, once and untimed, under that
  // repetition's round id.
  std::vector<RoundRec> SetupReps;
  int Before = 0;
  for (int64_t Start = nowNs();
       Before < (C.SetupReps + 1) / 2 ||
       (Before < MaxSetupRepsBefore &&
        static_cast<double>(nowNs() - Start) < C.SetupSeconds / 2 * 1e9);
       ++Before)
    SetupReps.push_back(setupRep(Before, /*Keep=*/true));
  T.setEnabled(C.Trace);
  for (size_t I = 0; I != Progs.size(); ++I) {
    T.setContext(static_cast<int>(I), SetupReps.back().Round);
    verify(Progs[I]);
  }

  // The run workloads' peak memory excludes the profiler's set-up
  // footprint; the compile workload's rounds repeat that footprint anyway.
  resetPeakRss();
  T.setEnabled(false);
  wakeCpus(Threads);
  RoundRec Warmup{0, false};
  round(Warmup);

  std::vector<RoundRec> Rounds;
  int64_t WindowStart = nowNs();
  for (int Round = 1;; ++Round) {
    if (static_cast<int>(Rounds.size()) >= C.MinRounds &&
        static_cast<double>(nowNs() - WindowStart) >= C.Seconds * 1e9)
      break;
    RoundRec R{Round, C.Trace && Round % 2 == 1};
    T.setEnabled(R.Traced);
    R.StartNs = nowNs();
    round(R);
    R.EndNs = nowNs();
    Rounds.push_back(R);
  }
  T.setEnabled(false);
  // The speed kernel's table is resident from the first set-up on and is
  // not the workload's memory.
  double PeakMb = peakRssMb();
  if (!C.Trace)
    PeakMb -= static_cast<double>(kernelTable().size() * sizeof(uint64_t)) /
              (1 << 20);
  for (int Rep = Before; Rep < 2 * Before - 1; ++Rep)
    SetupReps.push_back(setupRep(Rep, /*Keep=*/false));
  T.setEnabled(false);

  Out.Attempted = Attempted;
  Out.Failed = Failed;
  Out.Correct = Failed == 0;

  std::vector<double> SimSpeedups, MemMultiples;
  for (const Program &P : Progs) {
    if (P.Broken || P.XfRun.SimTime == 0 || P.Reference.PeakMemoryBytes == 0)
      continue;
    ProgramFigures F;
    F.Name = P.Info->Name;
    F.SimSpeedup = static_cast<double>(P.Reference.SimTime) /
                   static_cast<double>(P.XfRun.SimTime);
    F.MemMultiple = static_cast<double>(P.XfRun.PeakMemoryBytes) /
                    static_cast<double>(P.Reference.PeakMemoryBytes);
    SimSpeedups.push_back(F.SimSpeedup);
    MemMultiples.push_back(F.MemMultiple);
    Out.Programs.push_back(F);
  }

  if (C.Trace) {
    addLayerMetrics(Out, Rounds, SetupReps);
    Out.Report = programReport();
    if (!C.TraceOut.empty()) {
      std::vector<std::string> Names;
      for (const Program &P : Progs)
        Names.push_back(P.Info->Name);
      if (!T.write(C.TraceOut, Names))
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     C.TraceOut.c_str());
    }
    return Out;
  }

  std::vector<double> SetupS, RunS;
  for (const RoundRec &R : SetupReps)
    SetupS.push_back(R.SetupNs / 1e9);
  for (const RoundRec &R : Rounds)
    RunS.push_back(R.RunNs / 1e9);
  // Only three to five compile rounds fit in a window, so there the round
  // is summed from per-program medians instead.
  double RunMedianS = median(RunS);
  if (C.W == Workload::Compile) {
    RunMedianS = 0;
    for (const Program &P : Progs)
      RunMedianS += median(P.ScaledRunNs) * threadedPasses(C.W) / 1e9;
  }
  // Per program, so that a slow spell spoils one sample, not a whole round;
  // set-up compiles the same text the compile workload's rounds do.
  double CompileS = 0;
  for (const Program &P : Progs) {
    std::vector<double> Ns = P.CompileNs.Setup;
    Ns.insert(Ns.end(), P.CompileNs.Timed.begin(), P.CompileNs.Timed.end());
    CompileS += median(Ns) / 1e9;
  }

  Out.Metrics = {
      {"setup_s", "s", median(SetupS)},
      {"compile_s", "s", CompileS},
      {"run_s", "s", RunMedianS},
      {"sim_speedup", "ratio", harmonicMean(SimSpeedups)},
      {"mem_multiple", "ratio", harmonicMean(MemMultiples)},
      {"peak_rss_mb", "MiB", PeakMb},
  };
  std::fprintf(stderr,
               "perfbench: %s seed %llu: %zu set-up reps, %zu timed rounds "
               "(+1 warm-up), %d host threads, host speed %.3f serial, %.3f "
               "threaded, fail_ratio %.6f\n",
               workloadName(C.W), static_cast<unsigned long long>(C.Seed),
               SetupReps.size(), Rounds.size(), Threads, median(SerialSpeeds),
               median(ThreadedSpeeds), Out.failRatio());
  return Out;
}

void Driver::addLayerMetrics(Result &Out, const std::vector<RoundRec> &Rounds,
                             const std::vector<RoundRec> &SetupReps) {
  // Per-round self time of each layer, from the traced rounds and set-up
  // repetitions.
  std::vector<int64_t> Self = T.selfTimes();
  std::map<std::string, std::map<int, double>> LayerByRound;
  std::map<int, double> SpanSumByRound;
  const std::vector<Span> &Spans = T.spans();
  for (size_t I = 0; I != Spans.size(); ++I) {
    LayerByRound[Spans[I].Name][Spans[I].Round] +=
        static_cast<double>(Self[I]);
    SpanSumByRound[Spans[I].Round] += static_cast<double>(Self[I]);
  }
  // A layer's metric is its median per-round self time over the traced
  // timed rounds, or over the traced set-up repetitions for layers that run
  // only in set-up.
  for (const char *Layer : LayerSpans) {
    std::vector<double> Timed, Setup;
    for (const auto &[Round, Ns] : LayerByRound[Layer])
      (Round > 0 ? Timed : Setup).push_back(Ns / 1e6);
    Out.Metrics.push_back({std::string(Layer) + "_ms", "ms",
                           median(Timed.empty() ? Setup : Timed)});
  }

  // What no layer span covers: the driver's own work between calls.
  std::vector<double> Other, TracedCompile, PlainCompile, TracedRun, PlainRun;
  for (const RoundRec &R : Rounds) {
    (R.Traced ? TracedRun : PlainRun).push_back(R.RunNs / 1e6);
    (R.Traced ? TracedCompile : PlainCompile).push_back(R.CompileNs / 1e6);
    if (R.Traced)
      Other.push_back(
          (R.wallNs() - SpanSumByRound[R.Round]) / 1e6);
  }
  if (C.W != Workload::Compile) {
    TracedCompile.clear();
    PlainCompile.clear();
    for (const RoundRec &R : SetupReps)
      (R.Traced ? TracedCompile : PlainCompile).push_back(R.CompileNs / 1e6);
  }
  Out.Metrics.push_back({"bench.other_ms", "ms", median(Other)});
  Out.Metrics.push_back({"trace.overhead_compile_ms", "ms",
                         median(TracedCompile) - median(PlainCompile)});
  Out.Metrics.push_back(
      {"trace.overhead_run_ms", "ms", median(TracedRun) - median(PlainRun)});
  Out.Metrics.push_back({"run_s_p90", "s", quantile(PlainRun, 0.9) / 1e3});

  std::vector<double> HostSpeedups, GuardOverheads, ExpansionOverheads;
  uint64_t Sync = 0, ThreadTime = 0, GuardChecks = 0, GuardViolations = 0;
  uint64_t Expanded = 0, Promoted = 0, SpanStores = 0, Ordered = 0, Edges = 0,
           ProfileRuns = 0, Hits = 0, Misses = 0;
  for (const Program &P : Progs) {
    if (P.Broken)
      continue;
    HostSpeedups.push_back(median(P.OrigSerialNs.preferred()) /
                           median(P.ThreadsNs.preferred()));
    GuardOverheads.push_back(median(P.GuardNs.preferred()) /
                             median(P.ThreadsNs.preferred()));
    ExpansionOverheads.push_back(static_cast<double>(P.XfRun.WorkCycles) /
                                 static_cast<double>(P.Reference.WorkCycles));
    for (const auto &[Id, L] : P.XfRun.Loops) {
      (void)Id;
      for (size_t K = 0; K != L.SyncStallPerThread.size(); ++K) {
        Sync += L.SyncStallPerThread[K];
        ThreadTime += L.WorkPerThread[K] + L.SyncStallPerThread[K] +
                      L.IdlePerThread[K] + L.DispatchPerThread[K];
      }
    }
    for (const auto &[Id, L] : P.GuardRun.Loops) {
      (void)Id;
      GuardChecks += L.GuardChecks;
      GuardViolations += L.GuardViolations;
    }
    Expanded += P.Xf.ExpandedObjects;
    Promoted += P.Xf.PromotedPointerSlots;
    SpanStores += P.Xf.SpanStoresInserted;
    Ordered += P.Xf.OrderedRegions;
    Edges += P.Xf.GraphEdges;
    ProfileRuns += P.Xf.ProfileRuns;
    Hits += P.Xf.CacheHits;
    Misses += P.Xf.CacheMisses;
  }
  auto count = [](uint64_t N) { return static_cast<double>(N); };
  std::vector<Metric> More = {
      {"interp.threads_speedup", "ratio", harmonicMean(HostSpeedups)},
      {"interp.guard_overhead", "ratio", geometricMean(GuardOverheads)},
      {"interp.expansion_overhead", "ratio",
       geometricMean(ExpansionOverheads)},
      {"interp.sim_sync_share", "ratio",
       ThreadTime ? count(Sync) / count(ThreadTime) : 0},
      {"driver.cache_hit_ratio", "ratio",
       Hits + Misses ? count(Hits) / count(Hits + Misses) : 0},
      {"expand.expanded_objects", "count", count(Expanded)},
      {"expand.promoted_pointer_slots", "count", count(Promoted)},
      {"expand.span_stores_inserted", "count", count(SpanStores)},
      {"parallel.ordered_regions", "count", count(Ordered)},
      {"profile.graph_edges", "count", count(Edges)},
      {"driver.profile_runs", "count", count(ProfileRuns)},
      {"interp.guard_checks", "count", count(GuardChecks)},
      {"interp.guard_violations", "count", count(GuardViolations)},
      {"interp.degradations", "count", count(Degradations)},
      {"interp.watchdog_fires", "count", count(WatchdogFires)},
  };
  Out.Metrics.insert(Out.Metrics.end(), More.begin(), More.end());
}

std::string Driver::programReport() const {
  // Per-program rows of the layers that differ most between programs.
  std::map<int, std::map<std::string, std::vector<double>>> ByProgram;
  std::vector<int64_t> Self = T.selfTimes();
  std::map<std::pair<int, int>, std::map<std::string, double>> PerRound;
  const std::vector<Span> &Spans = T.spans();
  for (size_t I = 0; I != Spans.size(); ++I)
    if (Spans[I].Program >= 0)
      PerRound[{Spans[I].Program, Spans[I].Round}][Spans[I].Name] +=
          static_cast<double>(Self[I]) / 1e6;
  for (const auto &[Key, Layers] : PerRound)
    for (const auto &[Name, Ms] : Layers)
      ByProgram[Key.first][Name].push_back(Ms);

  std::string Out;
  char Line[256];
  std::snprintf(Line, sizeof(Line), "%-15s %12s %12s %12s %12s %8s %8s\n",
                "program", "profile_ms", "serial_ms", "threads_ms",
                "guard_ms", "host_x", "guard_x");
  Out += Line;
  for (size_t I = 0; I != Progs.size(); ++I) {
    const Program &P = Progs[I];
    auto &L = ByProgram[static_cast<int>(I)];
    double Serial = median(P.OrigSerialNs.preferred()) / 1e6;
    double Thr = median(P.ThreadsNs.preferred()) / 1e6;
    double Guard = median(P.GuardNs.preferred()) / 1e6;
    std::snprintf(Line, sizeof(Line),
                  "%-15s %12.3f %12.3f %12.3f %12.3f %8.3f %8.3f\n",
                  P.Info->Name, median(L["profile.dep_profile"]), Serial, Thr,
                  Guard, Thr > 0 ? Serial / Thr : 0, Thr > 0 ? Guard / Thr : 0);
    Out += Line;
  }
  return Out;
}

} // namespace

const char *workloadName(Workload W) {
  switch (W) {
  case Workload::Compile:
    return "compile";
  case Workload::RunDoall:
    return "run-doall";
  case Workload::RunDoacross:
    return "run-doacross";
  case Workload::RunGuarded:
    return "run-guarded";
  }
  return "?";
}

bool parseWorkload(const std::string &Name, Workload &Out) {
  for (Workload W : {Workload::Compile, Workload::RunDoall,
                     Workload::RunDoacross, Workload::RunGuarded})
    if (Name == workloadName(W)) {
      Out = W;
      return true;
    }
  return false;
}

std::vector<const WorkloadInfo *> workloadPrograms(Workload W) {
  std::vector<const char *> Names;
  switch (W) {
  case Workload::Compile:
    for (const WorkloadInfo &Info : allWorkloads())
      Names.push_back(Info.Name);
    for (const WorkloadInfo &Info : reductionWorkloads())
      Names.push_back(Info.Name);
    break;
  case Workload::RunDoall:
    Names = {"md5",          "mpeg2-encoder", "mpeg2-decoder",
             "h263-encoder", "470.lbm",       "histogram",
             "minmax-scan",  "dotprod",       "fat-histogram"};
    break;
  case Workload::RunDoacross:
    Names = {"dijkstra", "256.bzip2", "456.hmmer"};
    break;
  case Workload::RunGuarded:
    for (const WorkloadInfo &Info : allWorkloads())
      Names.push_back(Info.Name);
    break;
  }
  std::vector<const WorkloadInfo *> Out;
  for (const char *Name : Names)
    Out.push_back(findWorkload(Name));
  return Out;
}

std::string reseed(const std::string &Source, uint64_t Seed) {
  if (Seed == 0)
    return Source;
  static const std::regex Init(R"(int seed = ([0-9]+);)");
  std::string Out;
  auto Last = Source.cbegin();
  for (std::sregex_iterator It(Source.begin(), Source.end(), Init), End;
       It != End; ++It) {
    const std::smatch &M = *It;
    uint64_t Old = std::stoull(M[1].str());
    uint64_t New = splitmix64(Seed ^ splitmix64(Old)) % 2147483646ULL + 1;
    Out.append(Last, M[0].first);
    Out += "int seed = " + std::to_string(New) + ";";
    Last = M[0].second;
  }
  Out.append(Last, Source.cend());
  return Out;
}

const Metric *Result::find(const std::string &Name) const {
  for (const Metric &M : Metrics)
    if (M.Name == Name)
      return &M;
  return nullptr;
}

Result runWorkload(const Config &C) { return Driver(C).run(); }

std::string toJson(const Result &R) {
  std::string Out = "{\"correct\": ";
  Out += R.Correct ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(R.Attempted);
  Out += ", \"failed\": " + std::to_string(R.Failed);
  Out += ", \"metrics\": {";
  char Buf[64];
  for (size_t I = 0; I != R.Metrics.size(); ++I) {
    const Metric &M = R.Metrics[I];
    double V = std::isfinite(M.Value) ? M.Value : 0;
    std::snprintf(Buf, sizeof(Buf), "%.17g", V);
    Out += (I ? ", \"" : "\"") + M.Name + "\": {\"value\": " + Buf +
           ", \"unit\": \"" + M.Unit + "\"}";
  }
  Out += "}}";
  return Out;
}

} // namespace perfbench
