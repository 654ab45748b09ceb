//===- StaticDeps.h - Conservative static dependence analysis ---*- C++ -*-===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A compile-time loop-level dependence graph builder in the style of a
/// conventional parallelizing compiler: two accesses depend whenever their
/// may-point-to root objects intersect, and with no value-based coverage
/// information every such pair is reported both loop-carried and
/// loop-independent. Loads of structures allocated outside the loop are
/// conservatively upwards-exposed; stores to them downwards-exposed.
///
/// This is deliberately the paper's §4.1 foil: "current compile-time data
/// dependence analysis algorithms are still too conservative and they
/// report false positives that prevent loop parallelization". The
/// `gdse_figures fig7` figure shows what happens when the expansion
/// pipeline is fed this graph instead of the profiled one.
///
//===----------------------------------------------------------------------===//

#ifndef GDSE_ANALYSIS_STATICDEPS_H
#define GDSE_ANALYSIS_STATICDEPS_H

#include "analysis/DepGraph.h"
#include "analysis/PointsTo.h"
#include "ir/AccessInfo.h"

namespace gdse {

/// Builds the conservative static graph for loop \p LoopId. Includes the
/// accesses of functions transitively callable from the loop body.
LoopDepGraph buildStaticDepGraph(Module &M, unsigned LoopId,
                                 const PointsTo &PT,
                                 const AccessNumbering &Num);

} // namespace gdse

#endif // GDSE_ANALYSIS_STATICDEPS_H
