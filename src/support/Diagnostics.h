//===- Diagnostics.h - Structured pipeline diagnostics ----------*- C++ -*-===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The structured diagnostic model shared by every pipeline layer. A
/// Diagnostic carries a severity, the name of the pass or component that
/// emitted it, the loop it concerns (0 = module-level), an optional source
/// line, and the message. The DiagnosticEngine accumulates them for one
/// compilation session.
///
/// Deeply nested code does not thread (pass, loop) attribution by hand:
/// DiagnosticScope pushes a context onto the engine, and report() fills
/// unattributed fields from the innermost scope.
///
/// An engine is not synchronized: it belongs to one session (or one run),
/// used by one thread at a time. The batch driver gives each worker its own
/// session and flushes the engines in unit order at the join point.
///
//===----------------------------------------------------------------------===//

#ifndef GDSE_SUPPORT_DIAGNOSTICS_H
#define GDSE_SUPPORT_DIAGNOSTICS_H

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

namespace gdse {

enum class DiagSeverity : uint8_t {
  Note,    ///< attached detail for a preceding diagnostic
  Remark,  ///< normal-operation report (e.g. "planner rejected loop")
  Warning, ///< suspicious but compilation continues
  Error,   ///< the current pipeline stage failed
};

const char *diagSeverityName(DiagSeverity S);

/// One structured diagnostic.
struct Diagnostic {
  DiagSeverity Severity = DiagSeverity::Error;
  /// Pass or component that emitted it ("frontend", "profile", "expansion",
  /// "rtpriv", "planner", "session", ...).
  std::string Pass;
  /// Loop the diagnostic concerns; 0 when module-level.
  unsigned LoopId = 0;
  /// 1-based source line when known (frontend diagnostics), else 0.
  unsigned Line = 0;
  std::string Message;

  bool isError() const { return Severity == DiagSeverity::Error; }

  /// Renders like "error[expansion] loop 2: cannot expand parameter ...".
  std::string str() const;
};

/// Accumulates diagnostics for one module / compilation session.
class DiagnosticEngine {
public:
  Diagnostic &report(DiagSeverity S, std::string Msg);
  /// Appends a fully-formed diagnostic verbatim (no scope attribution) —
  /// used to replay cached failures on repeated analysis queries.
  Diagnostic &report(Diagnostic D);
  Diagnostic &error(std::string Msg) {
    return report(DiagSeverity::Error, std::move(Msg));
  }
  Diagnostic &warning(std::string Msg) {
    return report(DiagSeverity::Warning, std::move(Msg));
  }
  Diagnostic &remark(std::string Msg) {
    return report(DiagSeverity::Remark, std::move(Msg));
  }
  Diagnostic &note(std::string Msg) {
    return report(DiagSeverity::Note, std::move(Msg));
  }

  /// Appends \p Ds verbatim, preserving order — the flush half of the
  /// batch driver's buffered-sink protocol.
  void append(const std::vector<Diagnostic> &Ds) {
    for (const Diagnostic &D : Ds)
      report(D);
  }

  /// Snapshot of everything reported so far, in emission order.
  std::vector<Diagnostic> diagnostics() const { return diagnosticsSince(0); }
  size_t size() const { return Diags.size(); }
  const Diagnostic &operator[](size_t I) const { return Diags[I]; }

  bool hasErrors() const { return NumErrors != 0; }
  unsigned errorCount() const { return NumErrors; }

  /// Structured slice of everything emitted at index >= \p Since.
  std::vector<Diagnostic> diagnosticsSince(size_t Since) const {
    return std::vector<Diagnostic>(Diags.begin() + Since, Diags.end());
  }

  void clear() {
    Diags.clear();
    NumErrors = 0;
  }

private:
  friend class DiagnosticScope;
  struct Context {
    std::string Pass;
    unsigned LoopId = 0;
  };

  /// deque, not vector: report() hands out a reference to the appended
  /// diagnostic, which must survive later appends.
  std::deque<Diagnostic> Diags;
  /// Innermost attribution context last (DiagnosticScope is stack-bound).
  std::vector<Context> Scopes;
  unsigned NumErrors = 0;
};

/// RAII (pass, loop) attribution context. While alive, every diagnostic
/// reported to the engine inherits this pass name and loop id unless the
/// reporter overrides them explicitly.
class DiagnosticScope {
public:
  DiagnosticScope(DiagnosticEngine &DE, std::string Pass, unsigned LoopId = 0)
      : DE(DE) {
    DE.Scopes.push_back({std::move(Pass), LoopId});
  }
  ~DiagnosticScope() { DE.Scopes.pop_back(); }
  DiagnosticScope(const DiagnosticScope &) = delete;
  DiagnosticScope &operator=(const DiagnosticScope &) = delete;

private:
  DiagnosticEngine &DE;
};

} // namespace gdse

#endif // GDSE_SUPPORT_DIAGNOSTICS_H
