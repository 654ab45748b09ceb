//===- TestUtil.h - Helpers shared by the unit tests ------------*- C++ -*-===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#ifndef GDSE_TESTS_TESTUTIL_H
#define GDSE_TESTS_TESTUTIL_H

#include "driver/Pipeline.h"

#include <string>

namespace gdse {

/// The message of \p R's first error diagnostic, or "?" when it has none —
/// what a test prints next to a failed compileLoop.
inline std::string firstError(const PipelineResult &R) {
  for (const Diagnostic &D : R.Diags)
    if (D.isError())
      return D.Message;
  return "?";
}

} // namespace gdse

#endif // GDSE_TESTS_TESTUTIL_H
