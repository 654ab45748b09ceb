//===- PropertyTest.cpp - randomized end-to-end equivalence ----*- C++ -*-===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// Property-based sweep: a seeded generator assembles candidate loops from a
// pool of dependence-pattern snippets (private scratch structures, heap
// buffers behind aliased pointers, recasts, linked lists, reductions,
// ordered logs, read-only tables, helper calls), then the whole pipeline
// must (a) transform without errors and (b) produce output bit-identical to
// the original sequential program for several thread counts — under both
// privatization methods and both layouts when applicable.
//
//===----------------------------------------------------------------------===//

#include "ReferenceDepProfiler.h"

#include "analysis/StaticPrivatizer.h"
#include "driver/CompilationSession.h"
#include "frontend/Parser.h"
#include "interp/Interp.h"
#include "ir/IRPrinter.h"
#include "support/Support.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <set>

using namespace gdse;

namespace {

/// Deterministic xorshift RNG so every seed reproduces exactly.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed * 2654435761u + 1) {}
  uint64_t next() {
    State ^= State << 13;
    State ^= State >> 7;
    State ^= State << 17;
    return State;
  }
  /// Uniform value in [Lo, Hi].
  int range(int Lo, int Hi) {
    return Lo + static_cast<int>(next() % static_cast<uint64_t>(Hi - Lo + 1));
  }
  bool chance(int Percent) { return range(1, 100) <= Percent; }

private:
  uint64_t State;
};

/// One generated fragment: global declarations, setup statements (before
/// the loop), loop-body statements, and wrap-up statements (after).
struct Fragment {
  std::string Globals;
  std::string Setup;
  std::string Body;
  std::string Final;
  /// True when the fragment introduces a pointer recast (interleaved layout
  /// must then reject the program).
  bool HasRecast = false;
};

Fragment scratchArrayFragment(Rng &R, int Id) {
  int Size = R.range(8, 48);
  std::string A = formatString("scr%d", Id);
  Fragment F;
  F.Globals = formatString("int %s[%d];\n", A.c_str(), Size);
  F.Body = formatString(
      "    for (int k%d = 0; k%d < %d; k%d++) { %s[k%d] = it * %d + k%d; }\n"
      "    int red%d = 0;\n"
      "    for (int k%d = 0; k%d < %d; k%d++) { red%d ^= %s[k%d]; }\n"
      "    sink = sink * 31 + red%d;\n",
      Id, Id, Size, Id, A.c_str(), Id, R.range(2, 9), Id, Id, Id, Id, Size,
      Id, Id, A.c_str(), Id, Id);
  return F;
}

Fragment scratchStructFragment(Rng &R, int Id) {
  Fragment F;
  F.Globals = formatString(
      "struct Acc%d { int lo; int hi; double w; };\nstruct Acc%d acc%d;\n",
      Id, Id, Id);
  F.Body = formatString(
      "    acc%d.lo = it * %d;\n"
      "    acc%d.hi = it + %d;\n"
      "    acc%d.w = (double)(acc%d.lo - acc%d.hi);\n"
      "    sink = sink * 7 + acc%d.lo + acc%d.hi + (int)(acc%d.w);\n",
      Id, R.range(2, 5), Id, R.range(10, 90), Id, Id, Id, Id, Id, Id);
  return F;
}

Fragment heapBufferFragment(Rng &R, int Id) {
  int Size = R.range(8, 32);
  bool Recast = R.chance(35);
  std::string P = formatString("hb%d", Id);
  Fragment F;
  F.Globals = formatString("int* %s;\n", P.c_str());
  F.Setup = formatString("  %s = malloc(%d * sizeof(int));\n", P.c_str(), Size);
  if (Recast) {
    F.HasRecast = true;
    F.Body = formatString(
        "    short* sv%d = (short*)%s;\n"
        "    for (int k%d = 0; k%d < %d; k%d++) { sv%d[k%d] = (short)(it + "
        "k%d * 3); }\n"
        "    int rb%d = 0;\n"
        "    for (int k%d = 0; k%d < %d; k%d++) { rb%d += %s[k%d]; }\n"
        "    sink = sink * 5 + rb%d;\n",
        Id, P.c_str(), Id, Id, 2 * Size, Id, Id, Id, Id, Id, Id, Id, Size, Id,
        Id, P.c_str(), Id, Id);
  } else {
    F.Body = formatString(
        "    for (int k%d = 0; k%d < %d; k%d++) { %s[k%d] = it ^ (k%d * %d); "
        "}\n"
        "    int rb%d = 0;\n"
        "    for (int k%d = 0; k%d < %d; k%d++) { rb%d += %s[k%d]; }\n"
        "    sink = sink * 5 + rb%d;\n",
        Id, Id, Size, Id, P.c_str(), Id, Id, R.range(2, 7), Id, Id, Id, Size,
        Id, Id, P.c_str(), Id, Id);
  }
  F.Final = formatString("  free(%s);\n", P.c_str());
  return F;
}

Fragment aliasedBuffersFragment(Rng &R, int Id) {
  int S1 = R.range(8, 20), S2 = R.range(24, 48);
  Fragment F;
  F.Globals = formatString("int* mxa%d;\nint* mxb%d;\nint* mxp%d;\n", Id, Id,
                           Id);
  F.Setup = formatString(
      "  mxa%d = malloc(%d * sizeof(int));\n"
      "  mxb%d = malloc(%d * sizeof(int));\n",
      Id, S1, Id, S2);
  F.Body = formatString(
      "    int n%d = 0;\n"
      "    if (it %% 2 == 0) { mxp%d = mxa%d; n%d = %d; }\n"
      "    else { mxp%d = mxb%d; n%d = %d; }\n"
      "    for (int k%d = 0; k%d < n%d; k%d++) { mxp%d[k%d] = it + k%d; }\n"
      "    int ra%d = 0;\n"
      "    for (int k%d = 0; k%d < n%d; k%d++) { ra%d ^= mxp%d[k%d]; }\n"
      "    sink = sink * 3 + ra%d;\n",
      Id, Id, Id, Id, S1, Id, Id, Id, S2, Id, Id, Id, Id, Id, Id, Id, Id, Id,
      Id, Id, Id, Id, Id, Id, Id);
  F.Final = formatString("  free(mxa%d);\n  free(mxb%d);\n", Id, Id);
  return F;
}

Fragment linkedListFragment(Rng &R, int Id) {
  int Len = R.range(3, 9);
  Fragment F;
  F.Globals = formatString(
      "struct LN%d { int v; struct LN%d* next; };\nstruct LN%d* head%d;\n",
      Id, Id, Id, Id);
  F.Body = formatString(
      "    head%d = 0;\n"
      "    for (int k%d = 0; k%d < %d; k%d++) {\n"
      "      struct LN%d* n%d = malloc(sizeof(struct LN%d));\n"
      "      n%d->v = it * k%d;\n"
      "      n%d->next = head%d;\n"
      "      head%d = n%d;\n"
      "    }\n"
      "    int lsum%d = 0;\n"
      "    while (head%d != 0) {\n"
      "      struct LN%d* n%d = head%d;\n"
      "      lsum%d = lsum%d * 2 + n%d->v;\n"
      "      head%d = n%d->next;\n"
      "      free(n%d);\n"
      "    }\n"
      "    sink = sink * 11 + lsum%d;\n",
      Id, Id, Id, Len, Id, Id, Id, Id, Id, Id, Id, Id, Id, Id, Id, Id, Id,
      Id, Id, Id, Id, Id, Id, Id, Id, Id);
  return F;
}

Fragment readOnlyTableFragment(Rng &R, int Id) {
  int Size = R.range(16, 64);
  Fragment F;
  F.Globals = formatString("int tab%d[%d];\n", Id, Size);
  F.Setup = formatString(
      "  for (int i = 0; i < %d; i++) { tab%d[i] = i * %d + %d; }\n", Size,
      Id, R.range(3, 11), R.range(0, 5));
  F.Body = formatString("    sink = sink + tab%d[it %% %d];\n", Id, Size);
  return F;
}

Fragment orderedLogFragment(Rng &R, int Id) {
  (void)R;
  Fragment F;
  F.Globals =
      formatString("int log%d[512];\nint logpos%d;\n", Id, Id);
  F.Setup = formatString("  logpos%d = 0;\n", Id);
  F.Body = formatString(
      "    log%d[logpos%d] = (int)(sink & 1023);\n"
      "    logpos%d = logpos%d + 1;\n",
      Id, Id, Id, Id);
  F.Final = formatString(
      "  for (int i = 0; i < logpos%d; i++) { sink = sink * 13 + "
      "log%d[i]; }\n",
      Id, Id);
  return F;
}

Fragment helperCallFragment(Rng &R, int Id) {
  int Size = R.range(8, 24);
  Fragment F;
  F.Globals = formatString(
      "int hwork%d[%d];\n"
      "void hfill%d(int* buf, int n, int seed) {\n"
      "  for (int k = 0; k < n; k++) { buf[k] = seed * 2 + k; }\n"
      "}\n"
      "int hfold%d(int* buf, int n) {\n"
      "  int s = 0;\n"
      "  for (int k = 0; k < n; k++) { s ^= buf[k] + k; }\n"
      "  return s;\n"
      "}\n",
      Id, Size, Id, Id);
  F.Body = formatString(
      "    hfill%d(hwork%d, %d, it);\n"
      "    sink = sink * 17 + hfold%d(hwork%d, %d);\n",
      Id, Id, Size, Id, Id, Size);
  return F;
}

struct GeneratedProgram {
  std::string Source;
  bool HasRecast = false;
};

GeneratedProgram generate(uint64_t Seed) {
  Rng R(Seed);
  using FragFn = Fragment (*)(Rng &, int);
  static const FragFn Pool[] = {
      scratchArrayFragment, scratchStructFragment, heapBufferFragment,
      aliasedBuffersFragment, linkedListFragment, readOnlyTableFragment,
      orderedLogFragment, helperCallFragment,
  };
  int NumFrags = R.range(2, 5);
  std::vector<Fragment> Frags;
  for (int I = 0; I < NumFrags; ++I)
    Frags.push_back(Pool[R.range(0, 7)](R, I));

  int Iters = R.range(6, 24);
  GeneratedProgram G;
  std::string &S = G.Source;
  for (const Fragment &F : Frags) {
    S += F.Globals;
    G.HasRecast = G.HasRecast || F.HasRecast;
  }
  S += "long sink;\n";
  S += "int main() {\n  sink = 1;\n";
  for (const Fragment &F : Frags)
    S += F.Setup;
  S += formatString("  @candidate for (int it = 0; it < %d; it++) {\n", Iters);
  for (const Fragment &F : Frags)
    S += F.Body;
  S += "  }\n";
  for (const Fragment &F : Frags)
    S += F.Final;
  S += "  print_int(sink);\n  return 0;\n}\n";
  return G;
}

class PipelineProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PipelineProperty, TransformedEquivalentForAllConfigs) {
  GeneratedProgram G = generate(GetParam());
  SCOPED_TRACE("--- generated program ---\n" + G.Source);

  ParseResult PR = parseMiniC(G.Source);
  ASSERT_TRUE(PR.ok()) << (PR.Errors.empty() ? "?" : PR.Errors.front());
  RunResult Seq;
  {
    Interp I(*PR.M);
    Seq = I.run();
    ASSERT_TRUE(Seq.ok()) << Seq.TrapMessage;
  }

  struct Config {
    PrivatizationMethod Method;
    bool Opts;
    const char *Name;
  };
  const Config Configs[] = {
      {PrivatizationMethod::Expansion, true, "expansion+opts"},
      {PrivatizationMethod::Expansion, false, "expansion-noopts"},
      {PrivatizationMethod::Runtime, true, "rtpriv"},
  };

  for (const Config &C : Configs) {
    ParseResult P2 = parseMiniC(G.Source);
    ASSERT_TRUE(P2.ok());
    std::vector<unsigned> Cands = CompilationSession(*P2.M).candidateLoops();
    ASSERT_EQ(Cands.size(), 1u);
    PipelineOptions Opts;
    Opts.Method = C.Method;
    if (!C.Opts) {
      Opts.Expansion.SelectivePromotion = false;
      Opts.Expansion.SpanConstantPropagation = false;
      Opts.Expansion.DeadSpanStoreElimination = false;
    }
    PipelineResult R =
        CompilationSession(*P2.M).compileLoop(Cands.front(), Opts);
    ASSERT_TRUE(R.Ok) << C.Name << ": "
                      << firstError(R);
    for (int N : {1, 3, 8}) {
      InterpOptions IO;
      IO.NumThreads = N;
      Interp I(*P2.M, IO);
      RunResult Par = I.run();
      ASSERT_TRUE(Par.ok())
          << C.Name << " N=" << N << ": " << Par.TrapMessage;
      EXPECT_EQ(Par.Output, Seq.Output) << C.Name << " N=" << N;
    }
  }

  // Interleaved layout: must either transform AND stay correct, or be
  // rejected -- and a recast program must always be rejected.
  {
    ParseResult P3 = parseMiniC(G.Source);
    ASSERT_TRUE(P3.ok());
    std::vector<unsigned> Cands = CompilationSession(*P3.M).candidateLoops();
    PipelineOptions Opts;
    Opts.Expansion.Layout = LayoutMode::Interleaved;
    PipelineResult R =
        CompilationSession(*P3.M).compileLoop(Cands.front(), Opts);
    if (G.HasRecast) {
      EXPECT_FALSE(R.Ok) << "recast program must be rejected by interleaved";
    } else if (R.Ok) {
      InterpOptions IO;
      IO.NumThreads = 4;
      Interp I(*P3.M, IO);
      RunResult Par = I.run();
      ASSERT_TRUE(Par.ok()) << "interleaved: " << Par.TrapMessage;
      EXPECT_EQ(Par.Output, Seq.Output) << "interleaved";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineProperty,
                         ::testing::Range<uint64_t>(1, 61));

//===----------------------------------------------------------------------===//
// Static privatization witness soundness
//===----------------------------------------------------------------------===//

class WitnessProperty : public ::testing::TestWithParam<uint64_t> {};

// Cross-checks the compile-time proof against the runtime validator on the
// same random programs: transform with the FULL guard plan (pruning off) and
// run under GuardMode::Check — an access the witness proved private must
// never be attributed a violation. Then the default (pruned) configuration
// must also run violation-free with identical virtual metrics, i.e. eliding
// the proven claims loses no checking power on clean programs.
TEST_P(WitnessProperty, ProvenPrivateNeverViolates) {
  GeneratedProgram G = generate(GetParam());
  SCOPED_TRACE("--- generated program ---\n" + G.Source);

  auto transformAndCheck = [&](bool Pruning, RunResult &Out,
                               std::set<uint32_t> *Proven) {
    ParseResult PR = parseMiniC(G.Source);
    ASSERT_TRUE(PR.ok());
    CompilationSession S(*PR.M);
    std::vector<unsigned> Cands = S.candidateLoops();
    ASSERT_EQ(Cands.size(), 1u);
    PipelineOptions Opts;
    Opts.Expansion.GuardPruning = Pruning;
    if (Proven) {
      auto W = S.analyses().staticWitness(Cands.front());
      ASSERT_NE(W, nullptr);
      for (const ClassWitness &C : W->classes())
        if (C.Verdict == PrivatizationVerdict::ProvenPrivate)
          Proven->insert(C.Members.begin(), C.Members.end());
    }
    PipelineResult R = S.compileLoop(Cands.front(), Opts);
    ASSERT_TRUE(R.Ok) << firstError(R);
    InterpOptions IO;
    IO.NumThreads = 4;
    IO.Guard = GuardMode::Check;
    if (R.Guard)
      IO.GuardPlans = {R.Guard};
    Interp I(*PR.M, IO);
    Out = I.run();
    ASSERT_TRUE(Out.ok()) << Out.TrapMessage;
  };

  std::set<uint32_t> Proven;
  RunResult Full, Pruned;
  transformAndCheck(false, Full, &Proven);
  transformAndCheck(true, Pruned, nullptr);

  // Clean generated programs must not violate at all; but even if the
  // generator ever produced a misclassified loop, a violation blamed on a
  // witness-proven access would be a soundness bug in the analysis itself.
  for (const DependenceViolation &V : Full.Violations)
    EXPECT_EQ(Proven.count(V.Access), 0u)
        << "witness-proven access " << V.Access
        << " violated at runtime: " << V.str();
  EXPECT_TRUE(Full.Violations.empty());
  EXPECT_TRUE(Pruned.Violations.empty());
  EXPECT_EQ(Pruned.Output, Full.Output);
  EXPECT_EQ(Pruned.WorkCycles, Full.WorkCycles);
  EXPECT_EQ(Pruned.SimTime, Full.SimTime);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WitnessProperty,
                         ::testing::Range<uint64_t>(1, 31));

//===----------------------------------------------------------------------===//
// Commutative merge-order determinism
//===----------------------------------------------------------------------===//

/// One generated reduction: a commutative accumulator the tier must claim.
/// Bodies touch ONLY their own accumulator (never sink), so the loop's every
/// carried dependence is commutative and the plan must be DOALL.
Fragment reductionAddFragment(Rng &R, int Id) {
  Fragment F;
  F.Globals = formatString("long radd%d;\n", Id);
  F.Setup = formatString("  radd%d = %d;\n", Id, R.range(0, 9));
  F.Body = formatString("    radd%d = radd%d + (long)(it * %d + %d);\n", Id,
                        Id, R.range(2, 13), R.range(0, 7));
  F.Final = formatString("  sink = sink * 31 + radd%d;\n", Id);
  return F;
}

Fragment reductionMulFragment(Rng &R, int Id) {
  Fragment F;
  F.Globals = formatString("long rmul%d;\n", Id);
  F.Setup = formatString("  rmul%d = 1;\n", Id);
  // Factors forced odd and small: wrapping products stay deterministic.
  F.Body = formatString("    rmul%d = rmul%d * (long)(((it + %d) & 7) | 1);\n",
                        Id, Id, R.range(0, 5));
  F.Final = formatString("  sink = sink * 13 + rmul%d;\n", Id);
  return F;
}

Fragment reductionMinMaxFragment(Rng &R, int Id) {
  bool Min = R.chance(50);
  Fragment F;
  F.Globals = formatString("int rmm%d;\n", Id);
  F.Setup = formatString("  rmm%d = %s;\n", Id,
                         Min ? "1000000000" : "0 - 1000000000");
  F.Body = formatString(
      "    int c%d = (int)(((it * %d) ^ %d) %% 997);\n"
      "    if (c%d %s rmm%d) { rmm%d = c%d; }\n",
      Id, R.range(3, 17), R.range(0, 255), Id, Min ? "<" : ">", Id, Id, Id);
  F.Final = formatString("  sink = sink * 7 + rmm%d;\n", Id);
  return F;
}

Fragment reductionHistFragment(Rng &R, int Id) {
  int Size = R.range(8, 32);
  Fragment F;
  F.Globals = formatString("int rh%d[%d];\n", Id, Size);
  F.Body = formatString(
      "    int ix%d = (it * %d + %d) %% %d;\n"
      "    rh%d[ix%d] = rh%d[ix%d] + 1;\n",
      Id, R.range(3, 11), R.range(0, 5), Size, Id, Id, Id, Id);
  F.Final = formatString(
      "  for (int i = 0; i < %d; i++) { sink = sink * 3 + rh%d[i]; }\n",
      Size, Id);
  return F;
}

GeneratedProgram generateReduction(uint64_t Seed) {
  Rng R(Seed);
  using FragFn = Fragment (*)(Rng &, int);
  static const FragFn Pool[] = {
      reductionAddFragment, reductionMulFragment, reductionMinMaxFragment,
      reductionHistFragment,
  };
  int NumFrags = R.range(1, 3);
  std::vector<Fragment> Frags;
  for (int I = 0; I < NumFrags; ++I)
    Frags.push_back(Pool[R.range(0, 3)](R, I));
  // A read-only table keeps some non-reduction traffic in the mix.
  if (R.chance(50))
    Frags.push_back(readOnlyTableFragment(R, NumFrags));

  int Iters = R.range(16, 64);
  GeneratedProgram G;
  std::string &S = G.Source;
  for (const Fragment &F : Frags)
    S += F.Globals;
  S += "long sink;\n";
  S += "int main() {\n  sink = 1;\n";
  for (const Fragment &F : Frags)
    S += F.Setup;
  S += formatString("  @candidate for (int it = 0; it < %d; it++) {\n", Iters);
  for (const Fragment &F : Frags)
    S += F.Body;
  S += "  }\n";
  for (const Fragment &F : Frags)
    S += F.Final;
  S += "  print_int(sink);\n  return 0;\n}\n";
  return G;
}

class ReductionProperty : public ::testing::TestWithParam<uint64_t> {};

// The merge folds per-thread copies in serial copy order, so the result must
// be bit-identical to the sequential run — for every seed, thread count,
// engine, and across repeated runs (determinism, not mere plausibility).
TEST_P(ReductionProperty, MergeOrderDeterministic) {
  GeneratedProgram G = generateReduction(GetParam());
  SCOPED_TRACE("--- generated program ---\n" + G.Source);

  ParseResult PR = parseMiniC(G.Source);
  ASSERT_TRUE(PR.ok()) << (PR.Errors.empty() ? "?" : PR.Errors.front());
  RunResult Seq;
  {
    Interp I(*PR.M);
    Seq = I.run();
    ASSERT_TRUE(Seq.ok()) << Seq.TrapMessage;
  }

  ParseResult P2 = parseMiniC(G.Source);
  ASSERT_TRUE(P2.ok());
  std::vector<unsigned> Cands = CompilationSession(*P2.M).candidateLoops();
  ASSERT_EQ(Cands.size(), 1u);
  PipelineResult R = CompilationSession(*P2.M).compileLoop(Cands.front());
  ASSERT_TRUE(R.Ok) << firstError(R);
  ASSERT_GE(R.Expansion.CommutativeClasses, 1u);
  EXPECT_EQ(R.Plan.Kind, ParallelKind::DOALL);

  for (int N : {1, 3, 8}) {
    InterpOptions IO;
    IO.NumThreads = N;
    Interp I(*P2.M, IO);
    RunResult Par = I.run();
    ASSERT_TRUE(Par.ok()) << "N=" << N << ": " << Par.TrapMessage;
    EXPECT_EQ(Par.Output, Seq.Output) << "N=" << N;
  }

  // Host threads: two runs, both bit-identical to the sequential output and
  // to each other on the virtual clock — real scheduling variance must never
  // leak through the merge.
  uint64_t FirstSimTime = 0;
  for (int Rep = 0; Rep < 2; ++Rep) {
    InterpOptions IO;
    IO.Engine = ExecEngine::Threads;
    IO.NumThreads = 4;
    Interp I(*P2.M, IO);
    RunResult Par = I.run();
    ASSERT_TRUE(Par.ok()) << "threads rep " << Rep << ": " << Par.TrapMessage;
    EXPECT_EQ(Par.Output, Seq.Output) << "threads rep " << Rep;
    if (Rep == 0)
      FirstSimTime = Par.SimTime;
    else
      EXPECT_EQ(Par.SimTime, FirstSimTime) << "threaded SimTime wobbled";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReductionProperty,
                         ::testing::Range<uint64_t>(1, 41));

//===----------------------------------------------------------------------===//
// Dependence profiler against the per-byte reference
//===----------------------------------------------------------------------===//

class ProfilerOracleProperty : public ::testing::TestWithParam<uint64_t> {};

// The candidate loop of a random program (and of a random reduction) must
// get the same graph from DepProfiler as from ReferenceDepProfiler.
TEST_P(ProfilerOracleProperty, MatchesReferenceProfiler) {
  for (const GeneratedProgram &G :
       {generate(GetParam()), generateReduction(GetParam())}) {
    SCOPED_TRACE("--- generated program ---\n" + G.Source);
    ParseResult PR = parseMiniC(G.Source);
    ASSERT_TRUE(PR.ok()) << (PR.Errors.empty() ? "?" : PR.Errors.front());
    unsigned Loop = CompilationSession(*PR.M).candidateLoops().front();
    ProfileResult Fast = profileLoop(*PR.M, Loop);
    ProfileResult Ref = referenceProfile(*PR.M, Loop);
    ASSERT_TRUE(Fast.Run.ok()) << Fast.Run.TrapMessage;
    ASSERT_TRUE(Ref.Run.ok()) << Ref.Run.TrapMessage;
    EXPECT_EQ(Fast.Graph.str(), Ref.Graph.str());
    EXPECT_EQ(Fast.Graph.DynCount, Ref.Graph.DynCount);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProfilerOracleProperty,
                         ::testing::Range<uint64_t>(1, 41));

//===----------------------------------------------------------------------===//
// Resilience under random faults
//===----------------------------------------------------------------------===//

class ResilienceProperty : public ::testing::TestWithParam<uint64_t> {};

// For every seed, a random generated program runs on all three engines with
// generous (unbreachable) budgets armed and a seed-derived fault spec
// injected. The property: each run terminates (the ctest timeout is the
// backstop) and either succeeds with output and virtual metrics bit-identical
// to the clean sequential run, or ends in a single attributed trap — never a
// hang, crash, or silent metric drift.
TEST_P(ResilienceProperty, RandomFaultsNeverCorruptOrHang) {
  const uint64_t Seed = GetParam();
  GeneratedProgram G = generate(Seed);
  SCOPED_TRACE("--- generated program ---\n" + G.Source);

  ParseResult PR = parseMiniC(G.Source);
  ASSERT_TRUE(PR.ok()) << (PR.Errors.empty() ? "?" : PR.Errors.front());
  RunResult Seq;
  {
    Interp I(*PR.M);
    Seq = I.run();
    ASSERT_TRUE(Seq.ok()) << Seq.TrapMessage;
  }

  ParseResult P2 = parseMiniC(G.Source);
  ASSERT_TRUE(P2.ok());
  std::vector<unsigned> Cands = CompilationSession(*P2.M).candidateLoops();
  ASSERT_EQ(Cands.size(), 1u);
  PipelineResult R = CompilationSession(*P2.M).compileLoop(Cands.front());
  ASSERT_TRUE(R.Ok) << firstError(R);

  // One injection point per seed, cycling through all four; probabilistic
  // rules get the seed so every run of this test reproduces exactly.
  static const char *const Specs[] = {
      "alloc-fail~9",
      "worker-start-fail@1",
      "lane-delay~3,delay-ms=1",
      "guard-violation~2",
  };
  std::string Spec =
      std::string(Specs[Seed % 4]) + ",seed=" + std::to_string(Seed);

  for (ExecEngine E :
       {ExecEngine::TreeWalk, ExecEngine::Bytecode, ExecEngine::Threads}) {
    // Clean reference on the same (transformed) module and engine: a faulted
    // run that succeeds must match it on every virtual axis, not just output.
    RunResult Clean;
    {
      InterpOptions IO;
      IO.Engine = E;
      IO.NumThreads = 4;
      Interp I(*P2.M, IO);
      Clean = I.run();
      ASSERT_TRUE(Clean.ok()) << Clean.TrapMessage;
      EXPECT_EQ(Clean.Output, Seq.Output) << "engine " << int(E);
    }
    std::string Err;
    InterpOptions IO;
    IO.Engine = E;
    IO.NumThreads = 4;
    IO.Resilience.Budget.DeadlineMs = 240000;
    IO.Resilience.Budget.MaxBytes = 1ull << 40;
    IO.Resilience.WatchdogMs = 4000;
    IO.Resilience.Faults = FaultInjector::parse(Spec, Err);
    ASSERT_NE(IO.Resilience.Faults, nullptr) << Spec << ": " << Err;
    RunResult Par = Interp(*P2.M, IO).run();
    if (Par.ok()) {
      EXPECT_EQ(Par.Output, Clean.Output) << "engine " << int(E);
      EXPECT_EQ(Par.ExitCode, Clean.ExitCode) << "engine " << int(E);
      EXPECT_EQ(Par.SimTime, Clean.SimTime) << "engine " << int(E);
      EXPECT_EQ(Par.WorkCycles, Clean.WorkCycles) << "engine " << int(E);
    } else {
      // A clean attributed error: exactly one trap, message intact, nonzero
      // exit contract (ExitCode forced to -1 on trap).
      EXPECT_TRUE(Par.Trapped);
      EXPECT_FALSE(Par.TrapMessage.empty());
      EXPECT_EQ(Par.ExitCode, -1);
      EXPECT_NE(Par.TrapMessage.find("out of memory"), std::string::npos)
          << "only the injected allocation failure may trap here: "
          << Par.TrapMessage;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ResilienceProperty,
                         ::testing::Range<uint64_t>(1, 31));

} // namespace
