//===- InterpTest.cpp - VM execution semantics tests ------------*- C++ -*-===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "frontend/Parser.h"
#include "interp/Interp.h"

#include <gtest/gtest.h>

using namespace gdse;

namespace {

RunResult runSource(const std::string &Src, InterpOptions Opts = {}) {
  std::unique_ptr<Module> M = parseMiniCOrDie(Src, "test program");
  Interp I(*M, Opts);
  return I.run();
}

TEST(Interp, ReturnsExitCode) {
  RunResult R = runSource("int main() { return 42; }");
  ASSERT_TRUE(R.ok()) << R.TrapMessage;
  EXPECT_EQ(R.ExitCode, 42);
}

TEST(Interp, ArithmeticAndPrint) {
  RunResult R = runSource(R"(
    int main() {
      int a = 6;
      int b = 7;
      print_int(a * b);
      print_int(a - b);
      print_int(a % 4);
      return 0;
    }
  )");
  ASSERT_TRUE(R.ok()) << R.TrapMessage;
  EXPECT_EQ(R.Output, "42\n-1\n2\n");
}

TEST(Interp, IntegerWidthsWrapAndExtend) {
  RunResult R = runSource(R"(
    int main() {
      char c = 200;       // wraps to -56
      unsigned char u = 200;
      short s = 70000;    // wraps
      print_int(c);
      print_int(u);
      print_int(s);
      return 0;
    }
  )");
  ASSERT_TRUE(R.ok()) << R.TrapMessage;
  EXPECT_EQ(R.Output, "-56\n200\n4464\n");
}

TEST(Interp, UnsignedComparisonAndShift) {
  RunResult R = runSource(R"(
    int main() {
      unsigned int x = 0;
      x = x - 1;              // 0xffffffff
      if (x > 100) { print_int(1); } else { print_int(0); }
      print_int(x >> 28);
      int y = -16;
      print_int(y >> 2);      // arithmetic
      return 0;
    }
  )");
  ASSERT_TRUE(R.ok()) << R.TrapMessage;
  EXPECT_EQ(R.Output, "1\n15\n-4\n");
}

TEST(Interp, FloatArithmetic) {
  RunResult R = runSource(R"(
    int main() {
      double d = 1.5;
      float f = 0.25;
      print_float(d + f);
      print_float(sqrt(16.0));
      print_float(fabs(-2.5));
      return 0;
    }
  )");
  ASSERT_TRUE(R.ok()) << R.TrapMessage;
  EXPECT_EQ(R.Output, "1.75\n4\n2.5\n");
}

TEST(Interp, WhileAndForLoops) {
  RunResult R = runSource(R"(
    int main() {
      int sum = 0;
      int i;
      for (i = 0; i < 10; i++) { sum += i; }
      print_int(sum);
      int n = 5;
      int fact = 1;
      while (n > 1) { fact *= n; n--; }
      print_int(fact);
      return 0;
    }
  )");
  ASSERT_TRUE(R.ok()) << R.TrapMessage;
  EXPECT_EQ(R.Output, "45\n120\n");
}

TEST(Interp, BreakAndContinue) {
  RunResult R = runSource(R"(
    int main() {
      int sum = 0;
      for (int i = 0; i < 100; i++) {
        if (i % 2 == 0) { continue; }
        if (i > 10) { break; }
        sum += i;   // 1+3+5+7+9
      }
      print_int(sum);
      return 0;
    }
  )");
  ASSERT_TRUE(R.ok()) << R.TrapMessage;
  EXPECT_EQ(R.Output, "25\n");
}

TEST(Interp, PointersAndHeap) {
  RunResult R = runSource(R"(
    int main() {
      int* p = malloc(10 * sizeof(int));
      for (int i = 0; i < 10; i++) { p[i] = i * i; }
      int sum = 0;
      for (int i = 0; i < 10; i++) { sum += p[i]; }
      print_int(sum);
      free(p);
      return 0;
    }
  )");
  ASSERT_TRUE(R.ok()) << R.TrapMessage;
  EXPECT_EQ(R.Output, "285\n");
}

TEST(Interp, PointerArithmeticAndDeref) {
  RunResult R = runSource(R"(
    int main() {
      int a[8];
      for (int i = 0; i < 8; i++) { a[i] = i + 1; }
      int* p = a;
      int* q = p + 5;
      print_int(*q);
      print_int(q - p);
      *(q - 2) = 99;
      print_int(a[3]);
      return 0;
    }
  )");
  ASSERT_TRUE(R.ok()) << R.TrapMessage;
  EXPECT_EQ(R.Output, "6\n5\n99\n");
}

TEST(Interp, StructsAndFields) {
  RunResult R = runSource(R"(
    struct Point { int x; int y; double w; };
    int main() {
      struct Point p;
      p.x = 3; p.y = 4; p.w = 2.5;
      struct Point q;
      q = p;               // aggregate copy
      q.x = 10;
      print_int(p.x + q.x);
      print_int(q.y);
      print_float(q.w);
      return 0;
    }
  )");
  ASSERT_TRUE(R.ok()) << R.TrapMessage;
  EXPECT_EQ(R.Output, "13\n4\n2.5\n");
}

TEST(Interp, LinkedListTraversal) {
  RunResult R = runSource(R"(
    struct Node { int value; struct Node* next; };
    int main() {
      struct Node* head = 0;
      for (int i = 0; i < 5; i++) {
        struct Node* n = malloc(sizeof(struct Node));
        n->value = i;
        n->next = head;
        head = n;
      }
      int sum = 0;
      struct Node* cur = head;
      while (cur != 0) {
        sum = sum * 10 + cur->value;
        cur = cur->next;
      }
      print_int(sum);
      return 0;
    }
  )");
  ASSERT_TRUE(R.ok()) << R.TrapMessage;
  EXPECT_EQ(R.Output, "43210\n");
}

TEST(Interp, FunctionsAndRecursion) {
  RunResult R = runSource(R"(
    int fib(int n) {
      if (n < 2) { return n; }
      return fib(n - 1) + fib(n - 2);
    }
    void fill(int* buf, int n, int seed) {
      for (int i = 0; i < n; i++) { buf[i] = seed + i; }
    }
    int main() {
      print_int(fib(12));
      int a[4];
      fill(a, 4, 100);
      print_int(a[3]);
      return 0;
    }
  )");
  ASSERT_TRUE(R.ok()) << R.TrapMessage;
  EXPECT_EQ(R.Output, "144\n103\n");
}

TEST(Interp, GlobalsZeroInitialized) {
  RunResult R = runSource(R"(
    int counter;
    int table[4];
    int bump() { counter += 1; return counter; }
    int main() {
      bump(); bump(); bump();
      print_int(counter);
      print_int(table[2]);
      return 0;
    }
  )");
  ASSERT_TRUE(R.ok()) << R.TrapMessage;
  EXPECT_EQ(R.Output, "3\n0\n");
}

TEST(Interp, AddressOfLocal) {
  RunResult R = runSource(R"(
    void add_to(int* x, int d) { *x = *x + d; }
    int main() {
      int v = 5;
      int* p = &v;
      add_to(p, 10);
      print_int(v);
      return 0;
    }
  )");
  ASSERT_TRUE(R.ok()) << R.TrapMessage;
  EXPECT_EQ(R.Output, "15\n");
}

TEST(Interp, MemcpyMemset) {
  RunResult R = runSource(R"(
    int main() {
      int a[4];
      int b[4];
      for (int i = 0; i < 4; i++) { a[i] = i + 1; }
      memcpy(b, a, 4 * sizeof(int));
      print_int(b[0] + b[3]);
      memset(a, 0, 4 * sizeof(int));
      print_int(a[0] + a[1] + a[2] + a[3]);
      return 0;
    }
  )");
  ASSERT_TRUE(R.ok()) << R.TrapMessage;
  EXPECT_EQ(R.Output, "5\n0\n");
}

TEST(Interp, CallocReallocSemantics) {
  RunResult R = runSource(R"(
    int main() {
      int* p = calloc(4, sizeof(int));
      print_int(p[3]);
      p[0] = 7; p[3] = 9;
      p = realloc(p, 8 * sizeof(int));
      print_int(p[0] + p[3]);
      print_int(p[7]);
      free(p);
      return 0;
    }
  )");
  ASSERT_TRUE(R.ok()) << R.TrapMessage;
  EXPECT_EQ(R.Output, "0\n16\n0\n");
}

TEST(Interp, CastsBetweenTypes) {
  RunResult R = runSource(R"(
    int main() {
      double d = 3.9;
      int i = (int)d;
      print_int(i);
      long big = 4294967296 + 5;   // 2^32 + 5
      int truncated = (int)big;
      print_int(truncated);
      short* sp = malloc(4 * sizeof(short));
      int* ip = (int*)sp;           // bzip2-style recast
      *ip = 0x00010002;
      print_int(sp[0]);
      print_int(sp[1]);
      free(sp);
      return 0;
    }
  )");
  ASSERT_TRUE(R.ok()) << R.TrapMessage;
  EXPECT_EQ(R.Output, "3\n5\n2\n1\n");
}

TEST(Interp, CondExprAndLogicalOps) {
  RunResult R = runSource(R"(
    int check(int x) { return x > 10 ? 1 : 0; }
    int main() {
      print_int(check(11));
      print_int(check(10));
      int a = 5;
      if (a > 0 && a < 10) { print_int(100); }
      if (a < 0 || a == 5) { print_int(200); }
      return 0;
    }
  )");
  ASSERT_TRUE(R.ok()) << R.TrapMessage;
  EXPECT_EQ(R.Output, "1\n0\n100\n200\n");
}

TEST(Interp, TidAndNthreadsSequential) {
  RunResult R = runSource("int main() { print_int(__tid); print_int(__nthreads); return 0; }");
  ASSERT_TRUE(R.ok()) << R.TrapMessage;
  EXPECT_EQ(R.Output, "0\n1\n");

  InterpOptions O;
  O.NumThreads = 8;
  RunResult R8 = runSource("int main() { print_int(__nthreads); return 0; }", O);
  EXPECT_EQ(R8.Output, "8\n");
}

TEST(Interp, ExitBuiltinStopsProgram) {
  RunResult R = runSource(R"(
    int main() {
      print_int(1);
      exit(7);
      print_int(2);
      return 0;
    }
  )");
  ASSERT_TRUE(R.ok()) << R.TrapMessage;
  EXPECT_EQ(R.ExitCode, 7);
  EXPECT_EQ(R.Output, "1\n");
}

//===----------------------------------------------------------------------===//
// Trap detection
//===----------------------------------------------------------------------===//

TEST(InterpTraps, OutOfBoundsStore) {
  RunResult R = runSource(R"(
    int main() {
      int* p = malloc(4 * sizeof(int));
      p[4] = 1;   // one past the end
      return 0;
    }
  )");
  EXPECT_TRUE(R.Trapped);
  EXPECT_NE(R.TrapMessage.find("out-of-bounds"), std::string::npos);
}

TEST(InterpTraps, UseAfterFree) {
  RunResult R = runSource(R"(
    int main() {
      int* p = malloc(4 * sizeof(int));
      free(p);
      p[0] = 1;
      return 0;
    }
  )");
  EXPECT_TRUE(R.Trapped);
}

TEST(InterpTraps, DoubleFree) {
  RunResult R = runSource(R"(
    int main() {
      int* p = malloc(16);
      free(p);
      free(p);
      return 0;
    }
  )");
  EXPECT_TRUE(R.Trapped);
}

TEST(InterpTraps, DivisionByZero) {
  RunResult R = runSource(R"(
    int main() {
      int z = 0;
      print_int(10 / z);
      return 0;
    }
  )");
  EXPECT_TRUE(R.Trapped);
  EXPECT_NE(R.TrapMessage.find("division by zero"), std::string::npos);
}

TEST(InterpTraps, NullDeref) {
  RunResult R = runSource(R"(
    int main() {
      int* p = 0;
      print_int(*p);
      return 0;
    }
  )");
  EXPECT_TRUE(R.Trapped);
}

TEST(InterpTraps, CycleBudget) {
  InterpOptions O;
  O.Resilience.Budget.MaxCycles = 10000;
  RunResult R = runSource(R"(
    int main() {
      int x = 1;
      while (x > 0) { x = 1; }
      return 0;
    }
  )",
                          O);
  EXPECT_TRUE(R.Trapped);
  EXPECT_NE(R.TrapMessage.find("budget"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Cycle accounting / memory accounting
//===----------------------------------------------------------------------===//

TEST(InterpAccounting, CyclesGrowWithWork) {
  RunResult Small = runSource(
      "int main() { int s = 0; for (int i = 0; i < 10; i++) { s += i; } return s; }");
  RunResult Large = runSource(
      "int main() { int s = 0; for (int i = 0; i < 1000; i++) { s += i; } return s; }");
  ASSERT_TRUE(Small.ok());
  ASSERT_TRUE(Large.ok());
  EXPECT_GT(Large.WorkCycles, Small.WorkCycles * 20);
  EXPECT_EQ(Small.SimTime, Small.WorkCycles); // no parallel loops
}

TEST(InterpAccounting, PeakMemoryTracksHeap) {
  RunResult R = runSource(R"(
    int main() {
      int* p = malloc(1000000);
      p[0] = 1;
      free(p);
      return 0;
    }
  )");
  ASSERT_TRUE(R.ok()) << R.TrapMessage;
  EXPECT_GE(R.PeakMemoryBytes, 1000000u);
}

} // namespace
