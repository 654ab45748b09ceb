//===- DiagnosticsTest.cpp - expansion error paths & accounting -*- C++ -*-===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// The documented limitations must fail loudly with actionable diagnostics,
// never silently miscompile; plus accounting checks for the rtpriv runtime.
//
//===----------------------------------------------------------------------===//

#include "driver/CompilationSession.h"
#include "frontend/Parser.h"
#include "interp/Interp.h"
#include "support/Support.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <thread>

using namespace gdse;

namespace {

PipelineResult tryTransform(const std::string &Src,
                            PipelineOptions Opts = PipelineOptions()) {
  std::unique_ptr<Module> M = parseMiniCOrDie(Src, "diagnostics");
  std::vector<unsigned> Cands = CompilationSession(*M).candidateLoops();
  EXPECT_FALSE(Cands.empty());
  return CompilationSession(*M).compileLoop(Cands.front(), Opts);
}

void expectError(const PipelineResult &R, const std::string &Substr) {
  EXPECT_FALSE(R.Ok);
  bool Found = false;
  for (const Diagnostic &D : R.Diags)
    if (D.isError() && D.Message.find(Substr) != std::string::npos)
      Found = true;
  EXPECT_TRUE(Found) << "missing diagnostic containing '" << Substr
                     << "'; got: " << firstError(R);
}

TEST(Diagnostics, ReallocOfExpandedStructureRejected) {
  PipelineResult R = tryTransform(R"(
    int* buf;
    int main() {
      buf = malloc(16 * sizeof(int));
      long acc = 0;
      @candidate for (int i = 0; i < 8; i++) {
        if (i == 4) { buf = realloc(buf, 32 * sizeof(int)); }
        for (int k = 0; k < 16; k++) { buf[k] = i + k; }
        for (int k = 0; k < 16; k++) { acc += buf[k]; }
      }
      print_int(acc);
      free(buf);
      return 0;
    }
  )");
  expectError(R, "realloc");
}

TEST(Diagnostics, PromotedReturnRejected) {
  // A function returning a pointer into the expanded structures would need a
  // promoted (aggregate) return type.
  PipelineResult R = tryTransform(R"(
    int* smallbuf;
    int* bigbuf;
    int* pick(int which) {
      if (which == 0) { return smallbuf; }
      return bigbuf;
    }
    int main() {
      smallbuf = malloc(16 * sizeof(int));
      bigbuf = malloc(48 * sizeof(int));
      long acc = 0;
      @candidate for (int i = 0; i < 8; i++) {
        int n = 16;
        if (i % 2 == 1) { n = 48; }
        int* p = pick(i % 2);
        for (int k = 0; k < n; k++) { p[k] = i + k; }
        for (int k = 0; k < n; k++) { acc += p[k]; }
      }
      print_int(acc);
      free(smallbuf); free(bigbuf);
      return 0;
    }
  )");
  expectError(R, "cannot compute span");
}

TEST(Diagnostics, InterleavedDerefRejected) {
  PipelineOptions Opts;
  Opts.Expansion.Layout = LayoutMode::Interleaved;
  PipelineResult R = tryTransform(R"(
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
  )",
                                  Opts);
  expectError(R, "interleaved");
}

TEST(Diagnostics, ExpansionIsNoopWhenNothingIsPrivate) {
  // A loop with only free accesses: the pipeline succeeds, expands nothing,
  // and plans DOALL.
  PipelineResult R = tryTransform(R"(
    int out[32];
    int main() {
      @candidate for (int i = 0; i < 32; i++) { out[i] = i * i; }
      long c = 0;
      for (int i = 0; i < 32; i++) { c += out[i]; }
      print_int(c);
      return 0;
    }
  )");
  EXPECT_TRUE(R.Ok);
  EXPECT_EQ(R.Expansion.ExpandedObjects, 0u);
  EXPECT_EQ(R.Plan.Kind, ParallelKind::DOALL);
}

//===----------------------------------------------------------------------===//
// Structured diagnostics: pass + loop attribution
//===----------------------------------------------------------------------===//

const Diagnostic *findDiag(const PipelineResult &R, const std::string &Pass,
                           const std::string &Substr) {
  for (const Diagnostic &D : R.Diags)
    if (D.Pass == Pass && D.Message.find(Substr) != std::string::npos)
      return &D;
  return nullptr;
}

TEST(Diagnostics, PlannerRejectionIsAttributedRemark) {
  // A body that may break out of the candidate loop: the pipeline succeeds
  // (nothing to expand) but the planner declines, as a remark carrying the
  // planner's name and the rejected loop's id.
  PipelineResult R = tryTransform(R"(
    int out[32];
    int main() {
      @candidate for (int i = 0; i < 32; i++) {
        if (i == 20) { break; }
        out[i] = i * i;
      }
      long c = 0;
      for (int i = 0; i < 32; i++) { c += out[i]; }
      print_int(c);
      return 0;
    }
  )");
  EXPECT_TRUE(R.Ok);
  EXPECT_EQ(R.Plan.Kind, ParallelKind::None);
  const Diagnostic *D = findDiag(R, "planner", "break out of");
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->Severity, DiagSeverity::Remark);
  EXPECT_EQ(D->LoopId, R.LoopId);
  EXPECT_NE(D->str().find("remark[planner]"), std::string::npos);
}

TEST(Diagnostics, BulkAccessGraphRejectionIsAttributed) {
  // memcpy in the loop body leaves unmodeled bulk effects in the dependence
  // graph; the planner must refuse with an attributed remark.
  PipelineResult R = tryTransform(R"(
    int src[32];
    int dst[32];
    int main() {
      for (int i = 0; i < 32; i++) { src[i] = i; }
      @candidate for (int it = 0; it < 8; it++) {
        memcpy(dst, src, 32 * sizeof(int));
      }
      print_int(dst[31]);
      return 0;
    }
  )");
  EXPECT_TRUE(R.Ok);
  EXPECT_EQ(R.Plan.Kind, ParallelKind::None);
  const Diagnostic *D = findDiag(R, "planner", "bulk memory operations");
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->Severity, DiagSeverity::Remark);
  EXPECT_EQ(D->LoopId, R.LoopId);
}

TEST(Diagnostics, ExpansionErrorsCarryPassAndLoop) {
  PipelineResult R = tryTransform(R"(
    int* buf;
    int main() {
      buf = malloc(16 * sizeof(int));
      long acc = 0;
      @candidate for (int i = 0; i < 8; i++) {
        if (i == 4) { buf = realloc(buf, 32 * sizeof(int)); }
        for (int k = 0; k < 16; k++) { buf[k] = i + k; }
        for (int k = 0; k < 16; k++) { acc += buf[k]; }
      }
      print_int(acc);
      free(buf);
      return 0;
    }
  )");
  EXPECT_FALSE(R.Ok);
  const Diagnostic *D = findDiag(R, "expansion", "realloc");
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->Severity, DiagSeverity::Error);
  EXPECT_EQ(D->LoopId, R.LoopId);
}

TEST(Diagnostics, EnvWarnOnceConcurrentIsRaceFreeAndExactlyOnce) {
  // envFlag/envInt may be called from any thread: many threads hammering
  // them with malformed values must (a) be tsan-clean (this suite runs in
  // the tsan CI matrix) and (b) emit exactly one warning per variable name.
  static const char *Names[] = {
      "GDSE_TEST_WARNONCE_A", "GDSE_TEST_WARNONCE_B", "GDSE_TEST_WARNONCE_C",
      "GDSE_TEST_WARNONCE_D"};
  // setenv before any thread starts: getenv itself is only safe against a
  // quiescent environment.
  setenv(Names[0], "maybe", 1);
  setenv(Names[1], "12abc", 1);
  setenv(Names[2], "yes-ish", 1);
  setenv(Names[3], "0x10", 1);

  size_t Before = envDiags().size();
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < 8; ++T) {
    Threads.emplace_back([T] {
      for (unsigned I = 0; I < 200; ++I) {
        envFlag(Names[(T + I) % 2], false);
        envInt(Names[2 + ((T + I) % 2)], 7);
      }
    });
  }
  for (std::thread &Th : Threads)
    Th.join();

  for (const char *Name : Names) {
    unsigned Count = 0;
    for (const Diagnostic &D : envDiags().diagnosticsSince(Before)) {
      if (D.Message.find(Name) == std::string::npos)
        continue;
      ++Count;
      EXPECT_EQ(D.Pass, "env");
      EXPECT_EQ(D.Severity, DiagSeverity::Warning);
    }
    EXPECT_EQ(Count, 1u) << Name;
  }
  for (const char *Name : Names)
    unsetenv(Name);
}

//===----------------------------------------------------------------------===//
// Runtime privatization accounting
//===----------------------------------------------------------------------===//

TEST(RtPrivAccounting, TranslationAndCopyCountsAreSane) {
  const char *Src = R"(
    int scratch[32];
    int main() {
      long acc = 0;
      @candidate for (int i = 0; i < 10; i++) {
        for (int k = 0; k < 32; k++) { scratch[k] = i + k; }
        for (int k = 0; k < 32; k++) { acc += scratch[k]; }
      }
      print_int(acc);
      return 0;
    }
  )";
  std::unique_ptr<Module> M = parseMiniCOrDie(Src, "rtacct");
  PipelineOptions Opts;
  Opts.Method = PrivatizationMethod::Runtime;
  unsigned Loop = CompilationSession(*M).candidateLoops().front();
  PipelineResult PR = CompilationSession(*M).compileLoop(Loop, Opts);
  ASSERT_TRUE(PR.Ok);
  InterpOptions IO;
  IO.NumThreads = 4;
  Interp I(*M, IO);
  RunResult R = I.run();
  ASSERT_TRUE(R.ok()) << R.TrapMessage;
  // 10 iterations x 64 private accesses: one translation per access.
  EXPECT_EQ(R.RtPrivTranslations, 10u * 64u);
  // Copy-in happens once per (thread, structure) per parallel loop: the
  // DOALL assigns contiguous chunks, so at most 4 copy-ins of 128 bytes,
  // plus the commit accounting at loop end.
  EXPECT_GE(R.RtPrivBytesCopied, 128u);
  EXPECT_LE(R.RtPrivBytesCopied, 4u * 2u * 128u);
}

TEST(RtPrivAccounting, ShadowsReleasedAtLoopEnd) {
  // Peak memory must not accumulate shadows across loop invocations.
  const char *Src = R"(
    int scratch[64];
    int main() {
      long acc = 0;
      for (int rep = 0; rep < 4; rep++) {
        @candidate for (int i = 0; i < 8; i++) {
          for (int k = 0; k < 64; k++) { scratch[k] = i + k + rep; }
          for (int k = 0; k < 64; k++) { acc += scratch[k]; }
        }
      }
      print_int(acc);
      return 0;
    }
  )";
  std::unique_ptr<Module> M = parseMiniCOrDie(Src, "rtshadow");
  PipelineOptions Opts;
  Opts.Method = PrivatizationMethod::Runtime;
  unsigned Loop = CompilationSession(*M).candidateLoops().front();
  PipelineResult PR = CompilationSession(*M).compileLoop(Loop, Opts);
  ASSERT_TRUE(PR.Ok);
  InterpOptions IO;
  IO.NumThreads = 8;
  Interp I(*M, IO);
  RunResult R = I.run();
  ASSERT_TRUE(R.ok()) << R.TrapMessage;
  // 8 shadows of 256 bytes live at once, not 4 invocations x 8.
  EXPECT_LT(R.PeakMemoryBytes, 8u * 256u + 4096u);
}

} // namespace
