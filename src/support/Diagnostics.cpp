//===- Diagnostics.cpp - Structured pipeline diagnostics -------------------===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "support/Diagnostics.h"

#include "support/Support.h"

using namespace gdse;

const char *gdse::diagSeverityName(DiagSeverity S) {
  switch (S) {
  case DiagSeverity::Note:
    return "note";
  case DiagSeverity::Remark:
    return "remark";
  case DiagSeverity::Warning:
    return "warning";
  case DiagSeverity::Error:
    return "error";
  }
  gdse_unreachable("bad severity");
}

std::string Diagnostic::str() const {
  std::string Out = diagSeverityName(Severity);
  if (!Pass.empty())
    Out += "[" + Pass + "]";
  if (LoopId)
    Out += formatString(" loop %u", LoopId);
  if (Line)
    Out += formatString(" line %u", Line);
  Out += ": " + Message;
  return Out;
}

Diagnostic &DiagnosticEngine::report(DiagSeverity S, std::string Msg) {
  Diagnostic D;
  D.Severity = S;
  D.Message = std::move(Msg);
  if (!Scopes.empty()) {
    D.Pass = Scopes.back().Pass;
    D.LoopId = Scopes.back().LoopId;
  }
  return report(std::move(D));
}

Diagnostic &DiagnosticEngine::report(Diagnostic D) {
  if (D.Severity == DiagSeverity::Error)
    ++NumErrors;
  Diags.push_back(std::move(D));
  return Diags.back();
}
