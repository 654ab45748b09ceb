//===- RtPrivPass.h - SpiceC-style runtime privatization --------*- C++ -*-===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The baseline the paper compares against in §4.2.1: instead of compile-time
/// expansion, every thread-private access calls into a runtime access-control
/// library that locates (and on first touch populates) the current thread's
/// private copy of the containing structure. The library lives in the VM
/// (Builtin::RtPrivPtr): per-thread translation tables keyed by structure
/// base — the safe generalization of SpiceC's heap-prefix fast path that
/// accepts pointers into the middle of a structure — with copy-in on first
/// access and a commit charge at parallel-loop end.
///
/// The transformation is intentionally simple: a private l-value LV becomes
/// *(rtpriv_ptr(&LV, 0)). All cost is paid at run time, which is the point
/// of the comparison (Figures 10, 13, 14).
///
//===----------------------------------------------------------------------===//

#ifndef GDSE_RTPRIV_RTPRIVPASS_H
#define GDSE_RTPRIV_RTPRIVPASS_H

#include "ir/IR.h"
#include "support/Diagnostics.h"

#include <set>

namespace gdse {

struct RtPrivResult {
  /// False after any error, each reported to the DiagnosticEngine.
  bool Ok = false;
  unsigned AccessesWrapped = 0;
};

/// Routes every access in \p Private through the runtime access-control
/// library. Errors are reported to \p DE, attributed to pass "rtpriv" and
/// loop \p LoopId.
RtPrivResult applyRuntimePrivatization(Module &M,
                                       const std::set<AccessId> &Private,
                                       DiagnosticEngine &DE, unsigned LoopId);

} // namespace gdse

#endif // GDSE_RTPRIV_RTPRIVPASS_H
