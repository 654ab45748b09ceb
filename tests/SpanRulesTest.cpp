//===- SpanRulesTest.cpp - Table 1/2/3 rule-level golden tests --*- C++ -*-===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// Inspects the *shape* of the transformed IR: each rule of the paper's
// Table 1 (type expansion), Table 2 (redirection) and Table 3 (span
// computation) must leave its fingerprint in the printed program.
//
//===----------------------------------------------------------------------===//

#include "driver/CompilationSession.h"
#include "frontend/Parser.h"
#include "interp/Interp.h"
#include "ir/IRPrinter.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace gdse;

namespace {

/// Transforms the single candidate loop and returns the printed module.
std::string transformed(const std::string &Src,
                        PipelineOptions Opts = PipelineOptions()) {
  std::unique_ptr<Module> M = parseMiniCOrDie(Src, "span rules");
  std::vector<unsigned> Cands = CompilationSession(*M).candidateLoops();
  EXPECT_EQ(Cands.size(), 1u);
  PipelineResult PR = CompilationSession(*M).compileLoop(Cands.front(), Opts);
  EXPECT_TRUE(PR.Ok) << firstError(PR);
  if (!PR.Ok)
    return "";
  return printModule(*M);
}

void expectContains(const std::string &IR, const std::string &Needle) {
  EXPECT_NE(IR.find(Needle), std::string::npos)
      << "missing '" << Needle << "' in:\n"
      << IR;
}

void expectNotContains(const std::string &IR, const std::string &Needle) {
  EXPECT_EQ(IR.find(Needle), std::string::npos)
      << "unexpected '" << Needle << "' in:\n"
      << IR;
}

//===----------------------------------------------------------------------===//
// Table 1: type expansion rules
//===----------------------------------------------------------------------===//

TEST(Table1, HeapAllocationMultipliedByN) {
  std::string IR = transformed(R"(
    int main() {
      int* buf = malloc(100);
      long acc = 0;
      @candidate for (int i = 0; i < 8; i++) {
        for (int k = 0; k < 25; k++) { buf[k] = i + k; }
        for (int k = 0; k < 25; k++) { acc += buf[k]; }
      }
      print_int(acc);
      free(buf);
      return 0;
    }
  )");
  // malloc(100) -> malloc(100 * N)
  expectContains(IR, "malloc(((long)(100) * (long)(nthreads)))");
}

TEST(Table1, GlobalArrayBecomesHeapBlock) {
  std::string IR = transformed(R"(
    int scratch[10];
    int main() {
      long acc = 0;
      @candidate for (int i = 0; i < 8; i++) {
        for (int k = 0; k < 10; k++) { scratch[k] = i + k; }
        acc += scratch[i % 10];
      }
      print_int(acc);
      return 0;
    }
  )");
  // Global replaced by a pointer-to-copies global, allocated in main.
  expectContains(IR, "int[10]* scratch$x;");
  expectContains(IR, "scratch$x = malloc((sizeof(int[10]) * (long)(nthreads)))");
  // The bare global declaration must be gone.
  expectNotContains(IR, "\nint scratch[10];");
}

TEST(Table1, GlobalScalarAndStructRules) {
  std::string IR = transformed(R"(
    struct P { int x; int y; };
    struct P gp;
    int gs;
    int main() {
      long acc = 0;
      @candidate for (int i = 0; i < 6; i++) {
        gs = i;
        gp.x = i; gp.y = i * 2;
        acc += gs + gp.x + gp.y;
      }
      print_int(acc);
      return 0;
    }
  )");
  expectContains(IR, "struct P* gp$x;");
  expectContains(IR, "int* gs$x;");
  // Private accesses index copy tid; the per-iteration copy address is
  // hoisted into a pointer local (the LICM stand-in).
  expectContains(IR, "[tid]");
  expectContains(IR, "hoist$");
}

//===----------------------------------------------------------------------===//
// Table 2: redirection rules
//===----------------------------------------------------------------------===//

TEST(Table2, PointerDerefGetsSpanOffset) {
  // Two different-sized buffers through one pointer: the deref must become
  // *(p + tid*span/sizeof(*p)) with a runtime span.
  std::string IR = transformed(R"(
    int* a;
    int* b;
    int* p;
    int main() {
      a = malloc(40);
      b = malloc(80);
      long acc = 0;
      @candidate for (int i = 0; i < 8; i++) {
        if (i % 2 == 0) { p = a; } else { p = b; }
        *p = i;
        acc += *p;
      }
      print_int(acc);
      free(a); free(b);
      return 0;
    }
  )");
  // Runtime span read from the fat pointer, divided by the element size.
  expectContains(IR, ".span / 4");
  expectContains(IR, "(long)(tid) *");
}

TEST(Table2, SharedAccessesUseCopyZero) {
  std::string IR = transformed(R"(
    int scratch[8];
    int out[16];
    int main() {
      @candidate for (int i = 0; i < 16; i++) {
        for (int k = 0; k < 8; k++) { scratch[k] = i ^ k; }
        int v = 0;
        for (int k = 0; k < 8; k++) { v += scratch[k]; }
        out[i] = v;   // shared (downwards-exposed), no redirection needed
      }
      long c = 0;
      for (int i = 0; i < 16; i++) { c += out[i]; }
      print_int(c);
      return 0;
    }
  )");
  // out is not expanded at all (no private access touches it).
  expectNotContains(IR, "out$x");
}

TEST(Table2, InterleavedRescalesSubscript) {
  PipelineOptions Opts;
  Opts.Expansion.Layout = LayoutMode::Interleaved;
  std::string IR = transformed(R"(
    int main() {
      int* buf = malloc(16 * sizeof(int));
      long acc = 0;
      @candidate for (int i = 0; i < 8; i++) {
        for (int k = 0; k < 16; k++) { buf[k] = i + k; }
        for (int k = 0; k < 16; k++) { acc += buf[k]; }
      }
      print_int(acc);
      free(buf);
      return 0;
    }
  )",
                               Opts);
  // a[i] -> a[i*N + tid]
  expectContains(IR, "* (long)(nthreads))");
  expectContains(IR, "+ (long)(tid))");
}

//===----------------------------------------------------------------------===//
// Table 3: span computation rules
//===----------------------------------------------------------------------===//

/// Program template with runtime-aliased buffers forcing promotion of 'p';
/// the snippet is placed where the span rules fire.
std::string spanProgram(const std::string &Snippet) {
  return R"(
    int* a;
    int* b;
    int* p;
    int* q;
    int main() {
      a = malloc(40);
      b = malloc(80);
      long acc = 0;
      @candidate for (int i = 0; i < 8; i++) {
        if (i % 2 == 0) { q = a; } else { q = b; }
)" + Snippet +
         R"(
        *p = i;
        acc += *p;
      }
      print_int(acc);
      free(a); free(b);
      return 0;
    }
  )";
}

TEST(Table3, MallocRule) {
  // p = malloc(n)  =>  p.span = n. Span constant propagation would fold the
  // constant away entirely, so measure with it disabled.
  PipelineOptions Opts;
  Opts.Expansion.SpanConstantPropagation = false;
  std::string IR = transformed(R"(
    int* p;
    int* q;
    int main() {
      long acc = 0;
      q = malloc(44);
      @candidate for (int i = 0; i < 8; i++) {
        if (i % 2 == 0) { p = q; } else { p = q + 1; }
        *p = i;
        acc += *p;
      }
      print_int(acc);
      free(q);
      return 0;
    }
  )",
                               Opts);
  expectContains(IR, ".span = (long)(44)");
}

TEST(Table3, PointerAssignmentCopiesSpan) {
  std::string IR = transformed(spanProgram("        p = q;\n"));
  // p.span = q.span (through the expanded backings).
  expectContains(IR, ".span = ");
  expectContains(IR, ".span;");
}

TEST(Table3, PointerArithmeticKeepsSpan) {
  std::string IR = transformed(spanProgram("        p = q + 3;\n"));
  expectContains(IR, ".span;"); // span copied from q, not recomputed
}

TEST(Table3, DeadSpanSelfStoreEliminated) {
  // p = p + 1 inside the loop: with the optimization on, no p.span = p.span
  // self-store survives.
  std::string Src = spanProgram(
      "        p = q;\n        p = p + 1;\n        p = p - 1;\n");
  std::string IROpt = transformed(Src);
  PipelineOptions Raw;
  Raw.Expansion.DeadSpanStoreElimination = false;
  std::string IRRaw = transformed(Src, Raw);
  // Count span stores: the unoptimized version has strictly more.
  auto count = [](const std::string &S, const std::string &Needle) {
    size_t N = 0, Pos = 0;
    while ((Pos = S.find(Needle, Pos)) != std::string::npos) {
      ++N;
      Pos += Needle.size();
    }
    return N;
  };
  EXPECT_GT(count(IRRaw, ".span ="), count(IROpt, ".span ="));
}

TEST(Table3, AddressTakenUsesSizeof) {
  // Two different structure sizes force real fat pointers; the
  // address-taken rule records sizeof(the whole structure): 52 and 84.
  std::string IR = transformed(R"(
    struct Big { int data[12]; int tag; };
    struct Huge { int data[20]; int tag; };
    struct Big g1;
    struct Huge g2;
    int* p;
    int main() {
      long acc = 0;
      @candidate for (int i = 0; i < 8; i++) {
        if (i % 2 == 0) { p = &g1.data[0]; } else { p = &g2.data[0]; }
        for (int k = 0; k < 12; k++) { p[k] = i + k; }
        for (int k = 0; k < 12; k++) { acc += p[k]; }
        g1.tag = i; g2.tag = i;
      }
      print_int(acc);
      return 0;
    }
  )");
  expectContains(IR, ".span = 52;");
  expectContains(IR, ".span = 84;");
}

TEST(Table3, SpanConstantPropagationAvoidsFatPointers) {
  // All targets share one constant size: with const-prop the pointer stays
  // plain and redirection folds tid*span/elem into tid*K.
  const char *Src = R"(
    int* a;
    int* b;
    int* p;
    int main() {
      a = malloc(64);
      b = malloc(64);
      long acc = 0;
      @candidate for (int i = 0; i < 8; i++) {
        if (i % 2 == 0) { p = a; } else { p = b; }
        for (int k = 0; k < 16; k++) { p[k] = i + k; }
        for (int k = 0; k < 16; k++) { acc += p[k]; }
      }
      print_int(acc);
      free(a); free(b);
      return 0;
    }
  )";
  std::string IROpt = transformed(Src);
  expectNotContains(IROpt, "struct fat");

  PipelineOptions Raw;
  Raw.Expansion.SpanConstantPropagation = false;
  std::string IRRaw = transformed(Src, Raw);
  expectContains(IRRaw, "struct fat");
}

//===----------------------------------------------------------------------===//
// Table 3: the integer span rule (pointer differences)
//===----------------------------------------------------------------------===//

/// Runs \p Src sequentially and transformed at \p Threads; both outputs must
/// be identical.
void expectParallelEquivalent(const char *Src, unsigned Threads) {
  std::unique_ptr<Module> MO = parseMiniCOrDie(Src, "orig");
  Interp IO(*MO);
  RunResult Seq = IO.run();
  ASSERT_TRUE(Seq.ok()) << Seq.TrapMessage;
  std::unique_ptr<Module> MT = parseMiniCOrDie(Src, "xform");
  unsigned Loop = CompilationSession(*MT).candidateLoops().front();
  PipelineResult PR = CompilationSession(*MT).compileLoop(Loop);
  ASSERT_TRUE(PR.Ok) << firstError(PR);
  InterpOptions Opt;
  Opt.NumThreads = Threads;
  Interp IT(*MT, Opt);
  RunResult Par = IT.run();
  ASSERT_TRUE(Par.ok()) << Par.TrapMessage;
  EXPECT_EQ(Par.Output, Seq.Output) << "at " << Threads << " threads";
}

TEST(Table3, SameStructureDifferencePreservesValue) {
  // p - q within one expanded structure: offsets inside a copy are
  // unchanged by expansion, so the raw difference survives.
  const char *Src = R"(
    int* base;
    int main() {
      base = malloc(64);
      int* p;
      int* q;
      long acc = 0;
      @candidate for (int i = 0; i < 8; i++) {
        if (i % 2 == 0) { q = base; } else { q = base + 2; }
        p = base + 4;
        long d = p - q;
        acc += d;
        *q = i;
        *p = i * 2;
        acc += *q + *p;
      }
      print_int(acc);
      free(base);
      return 0;
    }
  )";
  for (unsigned T : {2u, 4u, 8u})
    expectParallelEquivalent(Src, T);
}

TEST(Table3, PointerDifferenceSubtractsPointerPayloads) {
  // Both operands promoted to fat pointers: the difference must be computed
  // on the .pointer payloads, and a tracked difference variable gets a
  // shadow span carrying the MINUEND's span (q + (p - q) is p, so the
  // reconstruction must inherit p's structure span, not q's).
  const char *Src = R"(
    int* a;
    int* b;
    int* c;
    int* p;
    int* q;
    int main() {
      a = malloc(40);
      b = malloc(80);
      c = malloc(120);
      long acc = 0;
      @candidate for (int i = 0; i < 8; i++) {
        if (i % 2 == 0) { q = a; } else { q = b; }
        if (i % 3 == 0) { p = b; } else { p = c; }
        long d = p - q;
        int* r = q + d;
        *r = i * 3;
        *q = i;
        *p = i + 7;
        acc += *r + *q + *p;
      }
      print_int(acc);
      free(a); free(b); free(c);
      return 0;
    }
  )";
  std::string IR = transformed(Src);
  // The subtraction reads payloads, never whole fat structs.
  expectContains(IR, ".pointer - ");
  // d's shadow is stored from the minuend's span and read back at the
  // reconstruction.
  expectContains(IR, "d$span = ");
  expectContains(IR, ".span = d$span;");
  for (unsigned T : {2u, 4u, 8u})
    expectParallelEquivalent(Src, T);
}

TEST(Table3, CrossStructureReconstructionGetsMinuendSpan) {
  // Regression: r = q + (p - q) across structures of different sizes used
  // to inherit q's span through pointer-arithmetic rule 1, redirecting *r
  // with the wrong stride (reads through p then saw stale data). Both the
  // tracked-variable and the inline form must resolve to p's span.
  const char *Variable = R"(
    int* a;
    int* b;
    int* p;
    int* q;
    int* r;
    int main() {
      a = malloc(40);
      b = malloc(80);
      long acc = 0;
      @candidate for (int i = 0; i < 8; i++) {
        if (i % 2 == 0) { q = a; } else { q = b; }
        p = b;
        long d = p - q;
        r = q + d;
        *r = i * 3;
        *q = i;
        acc += *r + *q;
        acc += *p;
      }
      print_int(acc);
      free(a); free(b);
      return 0;
    }
  )";
  const char *Inline = R"(
    int* a;
    int* b;
    int* p;
    int* q;
    int* r;
    int main() {
      a = malloc(40);
      b = malloc(80);
      long acc = 0;
      @candidate for (int i = 0; i < 8; i++) {
        if (i % 2 == 0) { q = a; } else { q = b; }
        p = b;
        r = q + (p - q);
        *r = i * 3;
        *q = i;
        acc += *r + *q;
        acc += *p;
      }
      print_int(acc);
      free(a); free(b);
      return 0;
    }
  )";
  for (unsigned T : {2u, 4u, 8u}) {
    expectParallelEquivalent(Variable, T);
    expectParallelEquivalent(Inline, T);
  }
}

//===----------------------------------------------------------------------===//
// Figures 5-6: recursive promotion of struct pointer fields
//===----------------------------------------------------------------------===//

TEST(Promotion, RecursiveStructPromotion) {
  // A linked node type whose 'next' may point at two different-sized
  // expanded pools: the field must become fat, recursively.
  const char *Src = R"(
    struct Node { int v; struct Node* next; };
    struct Node poolA[4];
    struct Node poolB[8];
    struct Node* head;
    int main() {
      long acc = 0;
      @candidate for (int i = 0; i < 8; i++) {
        head = 0;
        for (int k = 0; k < 4; k++) {
          struct Node* n = 0;
          if ((i + k) % 2 == 0) { n = &poolA[k]; } else { n = &poolB[k]; }
          n->v = i + k;
          n->next = head;
          head = n;
        }
        int s = 0;
        struct Node* cur = head;
        while (cur != 0) { s = s * 3 + cur->v; cur = cur->next; }
        acc += s;
      }
      print_int(acc);
      return 0;
    }
  )";
  std::string IR = transformed(Src);
  // The promoted node type carries a fat next field...
  expectContains(IR, "struct Node$p {");
  expectContains(IR, "struct fat");
  // ...and span fields are maintained when links are stored.
  expectContains(IR, ".next.span =");

  // And of course it still runs correctly in parallel.
  std::unique_ptr<Module> MO = parseMiniCOrDie(Src, "orig");
  Interp IO(*MO);
  RunResult Seq = IO.run();
  std::unique_ptr<Module> MT = parseMiniCOrDie(Src, "xform");
  unsigned Loop = CompilationSession(*MT).candidateLoops().front();
  PipelineResult PR = CompilationSession(*MT).compileLoop(Loop);
  ASSERT_TRUE(PR.Ok) << firstError(PR);
  InterpOptions Opt;
  Opt.NumThreads = 4;
  Interp IT(*MT, Opt);
  RunResult Par = IT.run();
  ASSERT_TRUE(Par.ok()) << Par.TrapMessage;
  EXPECT_EQ(Par.Output, Seq.Output);
}

} // namespace
