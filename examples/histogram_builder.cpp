//===- histogram_builder.cpp - Programmatic IR construction -----*- C++ -*-===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// Builds a program directly with the IRBuilder API — no MiniC source —
// demonstrating the library's second entry point (the one a compiler
// frontend embedding GDSE would use):
//
//   A histogram-merge kernel: each iteration fills a shared scratch
//   histogram from one tile of the input, then merges it into a global
//   result in order. The scratch is the expansion target; the merge is the
//   residual DOACROSS dependence.
//
//===----------------------------------------------------------------------===//

#include "driver/CompilationSession.h"
#include "interp/Interp.h"
#include "ir/IRBuilder.h"
#include "ir/IRClone.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"

#include <cstdio>

using namespace gdse;

namespace {

/// Builds the histogram program into \p M and returns it for inspection.
void buildProgram(Module &M) {
  TypeContext &Ctx = M.getTypes();
  IRBuilder B(M);
  IntType *I32 = Ctx.getInt32();
  IntType *I64 = Ctx.getInt64();

  constexpr int64_t Bins = 32;
  constexpr int64_t Tiles = 24;
  constexpr int64_t TileSize = 256;

  // Globals: input data, per-tile scratch histogram, merged result.
  VarDecl *Input = M.addGlobal("input", Ctx.getArrayType(I32, Tiles * TileSize));
  VarDecl *Scratch = M.addGlobal("scratch", Ctx.getArrayType(I32, Bins));
  VarDecl *Merged = M.addGlobal("merged", Ctx.getArrayType(I64, Bins));

  FunctionType *MainTy = Ctx.getFunctionType(I32, {});
  Function *Main = M.createFunction("main", MainTy);

  auto local = [&](const char *Name, Type *Ty) {
    VarDecl *D = M.createVar(Name, Ty, VarDecl::Storage::Local);
    Main->addLocal(D);
    return D;
  };
  VarDecl *Seed = local("seed", I32);
  VarDecl *I = local("i", I32);
  VarDecl *Tile = local("tile", I32);
  VarDecl *K = local("k", I32);
  VarDecl *K2 = local("k2", I32);
  VarDecl *B2 = local("b2", I32);
  VarDecl *Check = local("check", I64);

  std::vector<Stmt *> Body;

  // seed = 99; for (i = 0; i < Tiles*TileSize; i++) { seed = seed*1103515245
  // + 12345; input[i] = (seed >> 16) & (Bins - 1); }
  Body.push_back(B.assign(B.varRef(Seed), B.intLit(99)));
  Body.push_back(B.forStmt(
      I, B.intLit(0), B.intLit(Tiles * TileSize), B.intLit(1),
      B.block({B.assign(B.varRef(Seed),
                        B.add(B.mul(B.loadVar(Seed), B.intLit(1103515245)),
                              B.intLit(12345))),
               B.assign(B.index(B.decay(B.varRef(Input)), B.loadVar(I)),
                        B.binary(BinaryOp::BitAnd,
                                 B.binary(BinaryOp::Shr, B.loadVar(Seed),
                                          B.intLit(16)),
                                 B.intLit(Bins - 1)))})));

  // merged[] = 0.
  Body.push_back(B.forStmt(
      I, B.intLit(0), B.intLit(Bins), B.intLit(1),
      B.block({B.assign(B.index(B.decay(B.varRef(Merged)), B.loadVar(I)),
                        B.convert(B.intLit(0), I64))})));

  // The candidate loop over tiles.
  // scratch[] = 0; count the tile; then merged[b] += scratch[b] (ordered).
  Stmt *ZeroScratch = B.forStmt(
      K, B.intLit(0), B.intLit(Bins), B.intLit(1),
      B.block({B.assign(B.index(B.decay(B.varRef(Scratch)), B.loadVar(K)),
                        B.intLit(0))}));
  Expr *InElem = B.load(B.index(
      B.decay(B.varRef(Input)),
      B.add(B.mul(B.loadVar(Tile), B.intLit(TileSize)), B.loadVar(K2))));
  Stmt *CountTile = B.forStmt(
      K2, B.intLit(0), B.intLit(TileSize), B.intLit(1),
      B.block({B.assign(
          B.index(B.decay(B.varRef(Scratch)), InElem),
          B.add(B.load(B.index(B.decay(B.varRef(Scratch)),
                               cloneExpr(M, InElem))),
                B.intLit(1)))}));
  Stmt *Merge = B.forStmt(
      B2, B.intLit(0), B.intLit(Bins), B.intLit(1),
      B.block({B.assign(
          B.index(B.decay(B.varRef(Merged)), B.loadVar(B2)),
          B.add(B.load(B.index(B.decay(B.varRef(Merged)), B.loadVar(B2))),
                B.convert(B.load(B.index(B.decay(B.varRef(Scratch)),
                                         B.loadVar(B2))),
                          I64)))}));
  ForStmt *Candidate =
      B.forStmt(Tile, B.intLit(0), B.intLit(Tiles), B.intLit(1),
                B.block({ZeroScratch, CountTile, Merge}));
  Candidate->setCandidate(true);
  Body.push_back(Candidate);

  // check = fold(merged); print_int(check); return 0.
  Body.push_back(B.assign(B.varRef(Check), B.convert(B.intLit(0), I64)));
  Body.push_back(B.forStmt(
      I, B.intLit(0), B.intLit(Bins), B.intLit(1),
      B.block({B.assign(
          B.varRef(Check),
          B.add(B.mul(B.loadVar(Check), B.convert(B.intLit(33), I64)),
                B.load(B.index(B.decay(B.varRef(Merged)), B.loadVar(I)))))})));
  Body.push_back(B.exprStmt(B.callBuiltin(
      Builtin::PrintInt, {B.loadVar(Check)}, Ctx.getVoidType())));
  Body.push_back(B.ret(B.intLit(0)));

  Main->setBody(B.block(std::move(Body)));
  verifyModuleOrDie(M, "after building the histogram program");
}

} // namespace

int main() {
  Module Orig;
  buildProgram(Orig);
  Interp SeqI(Orig);
  RunResult Seq = SeqI.run();
  std::printf("original output: %s", Seq.Output.c_str());

  Module M;
  buildProgram(M);
  CompilationSession Session(M);
  std::vector<unsigned> Candidates = Session.candidateLoops();
  PipelineResult PR = Session.compileLoop(Candidates.front());
  if (!PR.Ok) {
    for (const Diagnostic &D : PR.Diags)
      if (D.Severity == DiagSeverity::Error)
        std::fprintf(stderr, "%s\n", D.str().c_str());
    return 1;
  }
  std::printf("plan: %s, expanded %u structure(s)\n",
              PR.Plan.Kind == ParallelKind::DOALL ? "DOALL" : "DOACROSS",
              PR.Expansion.ExpandedObjects);

  for (int N : {1, 4, 8}) {
    InterpOptions IO;
    IO.NumThreads = N;
    Interp I(M, IO);
    RunResult Par = I.run();
    std::printf("N=%d: output %s, loop speedup %.2fx\n", N,
                Par.Output == Seq.Output ? "identical" : "MISMATCH",
                static_cast<double>(Seq.SimTime) /
                    static_cast<double>(Par.SimTime));
  }
  return 0;
}
