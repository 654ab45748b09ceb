//===- Trace.h - In-memory spans for the benchmark's traced run -*- C++ -*-===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's span recorder. The driver opens a span around each call
/// it makes into a library layer; a span carries its name, start, end, the
/// span that was open when it began (its parent), and the (program, round)
/// it belongs to. Spans stay in memory and are written out when the run
/// ends, as Chrome trace-event JSON (chrome://tracing, Perfetto).
///
/// A disabled tracer records nothing: begin() returns -1 and end(-1) is a
/// no-op, so the untraced run pays one branch per call site.
///
/// Single-threaded: only the driver's main thread opens spans.
///
//===----------------------------------------------------------------------===//

#ifndef GDSE_PERFBENCH_TRACE_H
#define GDSE_PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char *Name;
  /// Index of the enclosing span in Tracer::spans(), -1 for a root.
  int Parent;
  /// Index of the program in the workload's program list, -1 for none.
  int Program;
  /// Set-up repetitions are rounds -K..-1, the warm-up is round 0, timed
  /// rounds count from 1.
  int Round;
  int64_t StartNs;
  int64_t EndNs;
};

class Tracer {
public:
  void setEnabled(bool On) { Enabled = On; }
  bool enabled() const { return Enabled; }
  void setContext(int Program, int Round) {
    CurProgram = Program;
    CurRound = Round;
  }

  int begin(const char *Name) {
    if (!Enabled)
      return -1;
    int Id = static_cast<int>(Spans.size());
    Spans.push_back({Name, Open.empty() ? -1 : Open.back(), CurProgram,
                     CurRound, nowNs(), 0});
    Open.push_back(Id);
    return Id;
  }

  void end(int Id) {
    if (Id < 0)
      return;
    Spans[Id].EndNs = nowNs();
    Open.pop_back();
  }

  const std::vector<Span> &spans() const { return Spans; }

  /// Each span's duration minus the part of it its children cover. Children
  /// run one after another inside their parent, so that part is the sum of
  /// their durations.
  std::vector<int64_t> selfTimes() const {
    std::vector<int64_t> Self(Spans.size());
    for (size_t I = 0; I != Spans.size(); ++I)
      Self[I] += Spans[I].EndNs - Spans[I].StartNs;
    for (const Span &S : Spans)
      if (S.Parent >= 0)
        Self[S.Parent] -= S.EndNs - S.StartNs;
    return Self;
  }

  /// Writes every span as a Chrome "complete" event (microseconds). The
  /// (program, round) id and the parent index go into args.
  bool write(const std::string &Path,
             const std::vector<std::string> &ProgramNames) const {
    FILE *F = std::fopen(Path.c_str(), "w");
    if (!F)
      return false;
    int64_t Origin = Spans.empty() ? 0 : Spans.front().StartNs;
    std::fprintf(F, "{\"traceEvents\":[");
    for (size_t I = 0; I != Spans.size(); ++I) {
      const Span &S = Spans[I];
      const char *Prog =
          S.Program >= 0 && static_cast<size_t>(S.Program) < ProgramNames.size()
              ? ProgramNames[S.Program].c_str()
              : "";
      std::fprintf(F,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d,\"program\":\"%s\",\"round\":%d}}",
                   I ? "," : "", S.Name, (S.StartNs - Origin) / 1e3,
                   (S.EndNs - S.StartNs) / 1e3, I, S.Parent, Prog, S.Round);
    }
    std::fprintf(F, "\n]}\n");
    return std::fclose(F) == 0;
  }

private:
  bool Enabled = false;
  int CurProgram = -1;
  int CurRound = 0;
  std::vector<Span> Spans;
  std::vector<int> Open;
};

/// Opens a span for the lifetime of the scope.
class SpanScope {
public:
  SpanScope(Tracer &T, const char *Name) : T(T), Id(T.begin(Name)) {}
  ~SpanScope() { T.end(Id); }
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;

private:
  Tracer &T;
  int Id;
};

} // namespace perfbench

#endif // GDSE_PERFBENCH_TRACE_H
