//===- Support.h - Common utilities and diagnostics -------------*- C++ -*-===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Project-wide small utilities: fatal error reporting, unreachable marker,
/// and string formatting helpers shared by every library layer.
///
//===----------------------------------------------------------------------===//

#ifndef GDSE_SUPPORT_SUPPORT_H
#define GDSE_SUPPORT_SUPPORT_H

#include <cstdarg>
#include <cstdint>
#include <string>

namespace gdse {

class DiagnosticEngine;

/// Prints \p Msg to stderr and aborts. Used for violated internal invariants
/// that must be diagnosed even in release builds.
[[noreturn]] void reportFatalError(const std::string &Msg);

/// Marks a point in the code that must never be executed.
[[noreturn]] void unreachableInternal(const char *Msg, const char *File,
                                      unsigned Line);

#define gdse_unreachable(MSG)                                                  \
  ::gdse::unreachableInternal(MSG, __FILE__, __LINE__)

/// printf-style formatting into a std::string.
std::string formatString(const char *Fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Returns \p Bytes rendered as a human-friendly quantity ("12.3 MiB").
std::string formatByteSize(uint64_t Bytes);

/// Process-wide sink for environment-variable parsing warnings (pass
/// "env"). envFlag/envInt report malformed values here — once per variable
/// name — and mirror the rendered warning to stderr, instead of silently
/// falling back. Mostly consumed by tests. envWarnOnce serializes its
/// writes, so the env readers are safe from any thread; read the engine
/// only while no other thread may be reporting into it.
DiagnosticEngine &envDiags();

/// Reads the boolean environment flag \p Name. Unset, empty, "0", "false",
/// "off", and "no" (case-insensitive) are off; any other value is on. The
/// shared parser for GDSE_TIME_PASSES-style switches, so "=0" actually
/// disables them. Values outside the recognized vocabulary ("1", "true",
/// "on", "yes" / "0", "false", "off", "no") still count as on, but warn
/// once through envDiags().
bool envFlag(const char *Name, bool Default = false);

/// Reads the integer environment variable \p Name; \p Default when unset or
/// empty. A set-but-unparsable value (e.g. GDSE_JOBS=abc) also yields
/// \p Default, but warns once through envDiags() instead of silently
/// behaving as if the variable were unset.
long envInt(const char *Name, long Default);

/// Reports a malformed value of the environment variable \p Name into
/// envDiags() and mirrors it to stderr — once per variable name for the
/// process lifetime. The shared sink behind envFlag/envInt, exposed for
/// enum-valued variables (GDSE_ENGINE, GDSE_GUARD) whose parsers live
/// elsewhere.
void envWarnOnce(const char *Name, const std::string &Msg);

} // namespace gdse

#endif // GDSE_SUPPORT_SUPPORT_H
