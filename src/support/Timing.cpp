//===- Timing.cpp - Pass timing and counter statistics ---------------------===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "support/Timing.h"

#include "support/Support.h"

using namespace gdse;

PassTimingRecord &TimingRegistry::lookup(const std::string &Name) {
  auto It = Index.find(Name);
  if (It != Index.end())
    return Records[It->second];
  Index.emplace(Name, Records.size());
  Records.push_back(PassTimingRecord{Name, 0, 0, 0, false});
  return Records.back();
}

void TimingRegistry::record(const std::string &Name, uint64_t WallNanos,
                            uint64_t VmCycles) {
  PassTimingRecord &R = lookup(Name);
  ++R.Invocations;
  R.WallNanos += WallNanos;
  R.VmCycles += VmCycles;
}

void TimingRegistry::recordOverlapping(const std::string &Name,
                                       uint64_t WallNanos) {
  record(Name, WallNanos);
  lookup(Name).Overlapping = true;
}

void TimingRegistry::addVmCycles(const std::string &Name, uint64_t Cycles) {
  lookup(Name).VmCycles += Cycles;
}

void TimingRegistry::bumpCounter(const std::string &Counter, uint64_t Delta) {
  Counters[Counter] += Delta;
}

void TimingRegistry::merge(const TimingRegistry &Other) {
  for (const PassTimingRecord &R : Other.Records) {
    PassTimingRecord &Mine = lookup(R.Name);
    Mine.Invocations += R.Invocations;
    Mine.WallNanos += R.WallNanos;
    Mine.VmCycles += R.VmCycles;
    Mine.Overlapping |= R.Overlapping;
  }
  for (const auto &[Name, Value] : Other.Counters)
    Counters[Name] += Value;
}

uint64_t TimingRegistry::counter(const std::string &Counter) const {
  auto It = Counters.find(Counter);
  return It == Counters.end() ? 0 : It->second;
}

std::string TimingRegistry::timingReport() const {
  uint64_t TotalNanos = 0;
  for (const PassTimingRecord &R : Records)
    if (!R.Overlapping)
      TotalNanos += R.WallNanos;
  std::string Out;
  Out += "===---------------------------------------------------------===\n";
  Out += "                      ... Pass execution timing ...\n";
  Out += "===---------------------------------------------------------===\n";
  Out += formatString("  Total wall time: %.3f ms\n",
                      static_cast<double>(TotalNanos) / 1e6);
  Out += formatString("  %10s  %6s  %5s  %12s  Name\n", "Wall (ms)", "%", "#",
                      "VM cycles");
  for (const PassTimingRecord &R : Records) {
    double Ms = static_cast<double>(R.WallNanos) / 1e6;
    double Pct = TotalNanos
                     ? 100.0 * static_cast<double>(R.WallNanos) /
                           static_cast<double>(TotalNanos)
                     : 0.0;
    Out += formatString("  %10.3f  %5.1f%%  %5llu  %12llu  %s\n", Ms, Pct,
                        static_cast<unsigned long long>(R.Invocations),
                        static_cast<unsigned long long>(R.VmCycles),
                        R.Name.c_str());
  }
  return Out;
}

std::string TimingRegistry::statsReport() const {
  std::string Out;
  Out += "===---------------------------------------------------------===\n";
  Out += "                        ... Statistics ...\n";
  Out += "===---------------------------------------------------------===\n";
  for (const auto &[Name, Value] : Counters)
    Out += formatString("  %12llu  %s\n",
                        static_cast<unsigned long long>(Value), Name.c_str());
  return Out;
}
