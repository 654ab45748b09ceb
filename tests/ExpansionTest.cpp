//===- ExpansionTest.cpp - end-to-end expansion correctness ----------------===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// The central soundness property: for every program, the output of the
// transformed parallel execution is bit-identical to the original
// sequential execution, for any thread count. Exercised on the dependence
// patterns the paper builds its case on (Fig. 1 zptr, the hmmer mx
// aliasing, the bzip2 recast, linked structures, globals).
//
//===----------------------------------------------------------------------===//

#include "driver/CompilationSession.h"
#include "frontend/Parser.h"
#include "interp/Interp.h"
#include "ir/IRPrinter.h"

#include <gtest/gtest.h>

using namespace gdse;

namespace {

struct E2EResult {
  RunResult Original;
  RunResult Transformed;
  PipelineResult Pipeline;
  std::string TransformedIR;
};

E2EResult runEndToEnd(const std::string &Src, int Threads,
                      PipelineOptions Opts = {}) {
  E2EResult R;
  // Original sequential run.
  {
    std::unique_ptr<Module> M = parseMiniCOrDie(Src, "e2e original");
    Interp I(*M);
    R.Original = I.run();
  }
  // Transform + parallel run.
  {
    std::unique_ptr<Module> M = parseMiniCOrDie(Src, "e2e transformed");
    std::vector<unsigned> Candidates = CompilationSession(*M).candidateLoops();
    EXPECT_FALSE(Candidates.empty()) << "no @candidate loop";
    if (Candidates.empty())
      return R;
    R.Pipeline = CompilationSession(*M).compileLoop(Candidates.front(), Opts);
    for (const Diagnostic &D : R.Pipeline.Diags)
      if (D.isError())
        ADD_FAILURE() << "pipeline error: " << D.Message;
    if (!R.Pipeline.Ok)
      return R;
    R.TransformedIR = printModule(*M);
    InterpOptions IO;
    IO.NumThreads = Threads;
    Interp I(*M, IO);
    R.Transformed = I.run();
  }
  return R;
}

void expectEquivalent(const E2EResult &R) {
  ASSERT_TRUE(R.Original.ok()) << R.Original.TrapMessage;
  ASSERT_TRUE(R.Transformed.ok())
      << R.Transformed.TrapMessage << "\n--- transformed IR ---\n"
      << R.TransformedIR;
  EXPECT_EQ(R.Original.Output, R.Transformed.Output)
      << "--- transformed IR ---\n"
      << R.TransformedIR;
  EXPECT_EQ(R.Original.ExitCode, R.Transformed.ExitCode);
}

//===----------------------------------------------------------------------===//
// Figure 1: the bzip2 zptr scratch buffer.
//===----------------------------------------------------------------------===//

const char *ZptrProgram = R"(
  int main() {
    int m = 32;
    int* zptr = malloc(m * sizeof(int));
    long check = 0;
    @candidate for (int it = 0; it < 16; it++) {
      for (int k = 0; k < m; k++) { zptr[k] = it * 3 + k; }
      int b = 0;
      for (int k = 0; k < m; k++) { b += zptr[k]; }
      check += b * (it + 1);
    }
    print_int(check);
    free(zptr);
    return 0;
  }
)";

TEST(Expansion, ZptrScratchBuffer) {
  E2EResult R = runEndToEnd(ZptrProgram, 4);
  expectEquivalent(R);
  EXPECT_GE(R.Pipeline.Expansion.ExpandedObjects, 1u);
  EXPECT_GT(R.Pipeline.Expansion.PrivateAccessesRedirected, 0u);
  // 'check' carries a flow dependence, but it is a pure `+=` reduction: the
  // commutative tier proves it, expands it onto per-thread copies, and the
  // loop goes DOALL instead of DOACROSS.
  EXPECT_GE(R.Pipeline.Expansion.CommutativeClasses, 1u);
  EXPECT_EQ(R.Pipeline.Plan.Kind, ParallelKind::DOALL);
}

TEST(Expansion, ZptrBecomesDoallWithoutReduction) {
  // Without the cross-iteration reduction the loop is DOALL.
  const char *Src = R"(
    int main() {
      int m = 32;
      int* zptr = malloc(m * sizeof(int));
      int* out = malloc(16 * sizeof(int));
      @candidate for (int it = 0; it < 16; it++) {
        for (int k = 0; k < m; k++) { zptr[k] = it * 3 + k; }
        int b = 0;
        for (int k = 0; k < m; k++) { b += zptr[k]; }
        out[it] = b;
      }
      long check = 0;
      for (int it = 0; it < 16; it++) { check += out[it] * (it + 1); }
      print_int(check);
      free(zptr); free(out);
      return 0;
    }
  )";
  E2EResult R = runEndToEnd(Src, 4);
  expectEquivalent(R);
  EXPECT_EQ(R.Pipeline.Plan.Kind, ParallelKind::DOALL);
  EXPECT_GE(R.Pipeline.Expansion.ExpandedObjects, 1u);
}

//===----------------------------------------------------------------------===//
// The hmmer pattern (Fig. 3): runtime-aliased allocations of different sizes
// force real fat pointers with runtime spans.
//===----------------------------------------------------------------------===//

TEST(Expansion, HmmerRuntimeAliasedSpans) {
  const char *Src = R"(
    int main() {
      int m1 = 24;
      int m2 = 48;
      long check = 0;
      int* mx = 0;
      int* small = malloc(m1 * sizeof(int));
      int* big = malloc(m2 * sizeof(int));
      @candidate for (int it = 0; it < 12; it++) {
        int n = 0;
        if (it % 2 == 0) { mx = small; n = m1; }
        else             { mx = big; n = m2; }
        for (int k = 0; k < n; k++) { mx[k] = it + k; }
        int b = 0;
        for (int k = 0; k < n; k++) { b += mx[k]; }
        check += b;
      }
      print_int(check);
      free(small); free(big);
      return 0;
    }
  )";
  E2EResult R = runEndToEnd(Src, 4);
  expectEquivalent(R);
  // Two different-sized structures: span cannot be constant, so the mx/
  // small/big pointers must have been promoted.
  EXPECT_GT(R.Pipeline.Expansion.PromotedPointerSlots, 0u);
  EXPECT_GT(R.Pipeline.Expansion.SpanStoresInserted, 0u);
}

//===----------------------------------------------------------------------===//
// The bzip2 recast: a buffer viewed as both short* and int* (bonded mode
// must survive this; Table 3's span is type-agnostic).
//===----------------------------------------------------------------------===//

TEST(Expansion, BondedModeSurvivesRecast) {
  const char *Src = R"(
    int main() {
      int m = 16;
      int* zptr = malloc(m * sizeof(int));
      long check = 0;
      @candidate for (int it = 0; it < 8; it++) {
        short* sp = (short*)zptr;
        for (int k = 0; k < 2 * m; k++) { sp[k] = it + k; }
        int b = 0;
        for (int k = 0; k < m; k++) { b ^= zptr[k]; }
        check += b;
      }
      print_int(check);
      free(zptr);
      return 0;
    }
  )";
  E2EResult R = runEndToEnd(Src, 4);
  expectEquivalent(R);
}

//===----------------------------------------------------------------------===//
// Linked structure: a per-iteration rebuilt list through promoted next
// pointers (the dijkstra priority queue shape).
//===----------------------------------------------------------------------===//

TEST(Expansion, LinkedListQueue) {
  const char *Src = R"(
    struct Node { int value; struct Node* next; };
    struct Queue { struct Node* head; int size; };
    int main() {
      struct Queue q;
      long check = 0;
      @candidate for (int it = 0; it < 10; it++) {
        q.head = 0;
        q.size = 0;
        for (int k = 0; k < 6; k++) {
          struct Node* n = malloc(sizeof(struct Node));
          n->value = it + k * k;
          n->next = q.head;
          q.head = n;
          q.size += 1;
        }
        int acc = 0;
        while (q.head != 0) {
          struct Node* n = q.head;
          acc = acc * 7 + n->value;
          q.head = n->next;
          free(n);
        }
        check += acc + q.size;
      }
      print_int(check);
      return 0;
    }
  )";
  E2EResult R = runEndToEnd(Src, 4);
  expectEquivalent(R);
  // The queue header is rebuilt every iteration: it must be expanded.
  EXPECT_GE(R.Pipeline.Expansion.ExpandedObjects, 1u);
}

//===----------------------------------------------------------------------===//
// Global structures are converted to heap then expanded (Table 1 rows 4-6).
//===----------------------------------------------------------------------===//

TEST(Expansion, GlobalArrayConversion) {
  const char *Src = R"(
    int scratch[64];
    int gsum;
    int main() {
      long check = 0;
      @candidate for (int it = 0; it < 12; it++) {
        for (int k = 0; k < 64; k++) { scratch[k] = it ^ k; }
        gsum = 0;
        for (int k = 0; k < 64; k++) { gsum += scratch[k]; }
        check += gsum * (it + 1);
      }
      print_int(check);
      return 0;
    }
  )";
  E2EResult R = runEndToEnd(Src, 4);
  expectEquivalent(R);
  EXPECT_GE(R.Pipeline.Expansion.ExpandedObjects, 2u);
}

TEST(Expansion, GlobalScalarAndStruct) {
  const char *Src = R"(
    struct Acc { int lo; int hi; };
    struct Acc acc;
    int tmp;
    int main() {
      long check = 0;
      @candidate for (int it = 0; it < 9; it++) {
        acc.lo = it;
        acc.hi = it * it;
        tmp = acc.lo + acc.hi;
        check += tmp;
      }
      print_int(check);
      return 0;
    }
  )";
  E2EResult R = runEndToEnd(Src, 4);
  expectEquivalent(R);
}

//===----------------------------------------------------------------------===//
// Accesses inside called functions are redirected too.
//===----------------------------------------------------------------------===//

TEST(Expansion, PrivatizationAcrossCalls) {
  const char *Src = R"(
    void fill(int* buf, int n, int seed) {
      for (int k = 0; k < n; k++) { buf[k] = seed + k * 3; }
    }
    int reduce(int* buf, int n) {
      int b = 0;
      for (int k = 0; k < n; k++) { b ^= buf[k]; }
      return b;
    }
    int main() {
      int* work = malloc(40 * sizeof(int));
      long check = 0;
      @candidate for (int it = 0; it < 10; it++) {
        fill(work, 40, it);
        check += reduce(work, 40);
      }
      print_int(check);
      free(work);
      return 0;
    }
  )";
  E2EResult R = runEndToEnd(Src, 4);
  expectEquivalent(R);
}

//===----------------------------------------------------------------------===//
// Runtime privatization baseline produces the same results.
//===----------------------------------------------------------------------===//

TEST(Expansion, RuntimePrivatizationEquivalent) {
  PipelineOptions Opts;
  Opts.Method = PrivatizationMethod::Runtime;
  E2EResult R = runEndToEnd(ZptrProgram, 4, Opts);
  expectEquivalent(R);
  EXPECT_GT(R.Pipeline.RtPrivWrapped, 0u);
  EXPECT_GT(R.Transformed.RtPrivTranslations, 0u);
}

//===----------------------------------------------------------------------===//
// Unoptimized mode (Figure 9a configuration) stays correct, just slower.
//===----------------------------------------------------------------------===//

TEST(Expansion, UnoptimizedModeCorrectAndSlower) {
  PipelineOptions Unopt;
  Unopt.Expansion.SelectivePromotion = false;
  Unopt.Expansion.SpanConstantPropagation = false;
  Unopt.Expansion.DeadSpanStoreElimination = false;

  E2EResult Opt = runEndToEnd(ZptrProgram, 1);
  E2EResult Raw = runEndToEnd(ZptrProgram, 1, Unopt);
  expectEquivalent(Opt);
  expectEquivalent(Raw);
  // §3.4: the optimizations reduce the single-core overhead.
  EXPECT_GE(Raw.Transformed.WorkCycles, Opt.Transformed.WorkCycles);
  EXPECT_GE(Raw.Pipeline.Expansion.PromotedPointerSlots,
            Opt.Pipeline.Expansion.PromotedPointerSlots);
}

//===----------------------------------------------------------------------===//
// Interleaved layout: works on primitive arrays, rejects recasts.
//===----------------------------------------------------------------------===//

TEST(Expansion, InterleavedLayoutOnPrimitiveArray) {
  PipelineOptions Opts;
  Opts.Expansion.Layout = LayoutMode::Interleaved;
  const char *Src = R"(
    int main() {
      int* buf = malloc(16 * sizeof(int));
      long check = 0;
      @candidate for (int it = 0; it < 8; it++) {
        for (int k = 0; k < 16; k++) { buf[k] = it * 5 + k; }
        int b = 0;
        for (int k = 0; k < 16; k++) { b += buf[k]; }
        check += b;
      }
      print_int(check);
      free(buf);
      return 0;
    }
  )";
  E2EResult R = runEndToEnd(Src, 4, Opts);
  expectEquivalent(R);
}

TEST(Expansion, InterleavedLayoutRejectsRecast) {
  PipelineOptions Opts;
  Opts.Expansion.Layout = LayoutMode::Interleaved;
  const char *Src = R"(
    int main() {
      int* zptr = malloc(16 * sizeof(int));
      long check = 0;
      @candidate for (int it = 0; it < 4; it++) {
        short* sp = (short*)zptr;
        for (int k = 0; k < 32; k++) { sp[k] = it + k; }
        int b = 0;
        for (int k = 0; k < 16; k++) { b ^= zptr[k]; }
        check += b;
      }
      print_int(check);
      free(zptr);
      return 0;
    }
  )";
  std::unique_ptr<Module> M = parseMiniCOrDie(Src, "interleaved recast");
  std::vector<unsigned> Candidates = CompilationSession(*M).candidateLoops();
  ASSERT_FALSE(Candidates.empty());
  PipelineResult PR =
      CompilationSession(*M).compileLoop(Candidates.front(), Opts);
  EXPECT_FALSE(PR.Ok);
  bool FoundRecastError = false;
  for (const Diagnostic &D : PR.Diags)
    if (D.isError() && D.Message.find("recast") != std::string::npos)
      FoundRecastError = true;
  EXPECT_TRUE(FoundRecastError);
}

//===----------------------------------------------------------------------===//
// Thread counts: equivalence for N in {1, 2, 3, 4, 8}.
//===----------------------------------------------------------------------===//

class ExpansionThreadCount : public ::testing::TestWithParam<int> {};

TEST_P(ExpansionThreadCount, ZptrEquivalentForAnyN) {
  E2EResult R = runEndToEnd(ZptrProgram, GetParam());
  expectEquivalent(R);
}

INSTANTIATE_TEST_SUITE_P(NThreads, ExpansionThreadCount,
                         ::testing::Values(1, 2, 3, 4, 8));

} // namespace
