//===- Support.cpp - Common utilities and diagnostics ---------------------===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "support/Support.h"

#include "support/Diagnostics.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <set>
#include <vector>

using namespace gdse;

void gdse::reportFatalError(const std::string &Msg) {
  std::fprintf(stderr, "gdse fatal error: %s\n", Msg.c_str());
  std::abort();
}

void gdse::unreachableInternal(const char *Msg, const char *File,
                               unsigned Line) {
  std::fprintf(stderr, "UNREACHABLE executed at %s:%u: %s\n", File, Line, Msg);
  std::abort();
}

std::string gdse::formatString(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  va_list ArgsCopy;
  va_copy(ArgsCopy, Args);
  int Len = std::vsnprintf(nullptr, 0, Fmt, Args);
  va_end(Args);
  if (Len < 0) {
    va_end(ArgsCopy);
    return std::string();
  }
  std::vector<char> Buf(static_cast<size_t>(Len) + 1);
  std::vsnprintf(Buf.data(), Buf.size(), Fmt, ArgsCopy);
  va_end(ArgsCopy);
  return std::string(Buf.data(), static_cast<size_t>(Len));
}

DiagnosticEngine &gdse::envDiags() {
  static DiagnosticEngine DE;
  return DE;
}

// Warns once per variable name for the process lifetime, so a hot path
// calling envInt per run does not spam. envFlag/envInt may be called from
// any thread, while the DiagnosticEngine is not synchronized: the latch
// mutex is held across the report, so envDiags() only ever sees one
// writer at a time.
void gdse::envWarnOnce(const char *Name, const std::string &Msg) {
  static std::mutex Mu;
  static std::set<std::string> Warned;
  std::lock_guard<std::mutex> Lock(Mu);
  if (!Warned.insert(Name).second)
    return;
  DiagnosticScope Scope(envDiags(), "env");
  std::fprintf(stderr, "%s\n", envDiags().warning(Msg).str().c_str());
}

bool gdse::envFlag(const char *Name, bool Default) {
  const char *Env = std::getenv(Name);
  if (!Env || !*Env)
    return Default;
  std::string V(Env);
  for (char &C : V)
    C = static_cast<char>(std::tolower(static_cast<unsigned char>(C)));
  if (V == "0" || V == "false" || V == "off" || V == "no")
    return false;
  if (V != "1" && V != "true" && V != "on" && V != "yes")
    envWarnOnce(Name, formatString("unrecognized value '%s' for %s; treating as "
                               "enabled (use 1/true/on/yes or 0/false/off/no)",
                               Env, Name));
  return true;
}

long gdse::envInt(const char *Name, long Default) {
  const char *Env = std::getenv(Name);
  if (!Env || !*Env)
    return Default;
  char *End = nullptr;
  long V = std::strtol(Env, &End, 10);
  if (!End || *End != '\0') {
    envWarnOnce(Name, formatString("malformed integer '%s' for %s; using %ld",
                               Env, Name, Default));
    return Default;
  }
  return V;
}

std::string gdse::formatByteSize(uint64_t Bytes) {
  static const char *Units[] = {"B", "KiB", "MiB", "GiB"};
  double Value = static_cast<double>(Bytes);
  unsigned Unit = 0;
  while (Value >= 1024.0 && Unit < 3) {
    Value /= 1024.0;
    ++Unit;
  }
  if (Unit == 0)
    return formatString("%llu B", static_cast<unsigned long long>(Bytes));
  return formatString("%.1f %s", Value, Units[Unit]);
}
