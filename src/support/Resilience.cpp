//===- Resilience.cpp - Budgets, fault injection, degradation --------------===//
//
// Part of the GDSE project, a reproduction of "General Data Structure
// Expansion for Multi-threading" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "support/Resilience.h"

#include "support/Support.h"

#include <chrono>
#include <cstdlib>

using namespace gdse;

uint64_t gdse::monotonicNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

const char *FaultInjector::pointName(Point P) {
  switch (P) {
  case Point::AllocFail:
    return "alloc-fail";
  case Point::WorkerStartFail:
    return "worker-start-fail";
  case Point::LaneDelay:
    return "lane-delay";
  case Point::GuardViolation:
    return "guard-violation";
  }
  return "?";
}

namespace {

/// Parses the decimal integer after a one-character separator at \p Pos.
bool parseCount(const std::string &S, size_t Pos, uint64_t &Out) {
  if (Pos >= S.size())
    return false;
  uint64_t V = 0;
  for (size_t I = Pos; I != S.size(); ++I) {
    if (S[I] < '0' || S[I] > '9')
      return false;
    V = V * 10 + static_cast<uint64_t>(S[I] - '0');
  }
  Out = V;
  return true;
}

int pointIndexOf(const std::string &Name) {
  for (unsigned I = 0; I != FaultInjector::NumPoints; ++I)
    if (Name == FaultInjector::pointName(
                    static_cast<FaultInjector::Point>(I)))
      return static_cast<int>(I);
  return -1;
}

} // namespace

std::shared_ptr<FaultInjector> FaultInjector::parse(const std::string &Spec,
                                                    std::string &Err) {
  auto FI = std::make_shared<FaultInjector>();
  size_t Pos = 0;
  while (Pos <= Spec.size()) {
    size_t Comma = Spec.find(',', Pos);
    if (Comma == std::string::npos)
      Comma = Spec.size();
    std::string Tok = Spec.substr(Pos, Comma - Pos);
    Pos = Comma + 1;
    if (Tok.empty()) {
      if (Comma == Spec.size())
        break;
      continue;
    }
    size_t Eq = Tok.find('=');
    if (Eq != std::string::npos) {
      std::string Key = Tok.substr(0, Eq);
      uint64_t V = 0;
      if (!parseCount(Tok, Eq + 1, V)) {
        Err = "malformed value in '" + Tok + "'";
        return nullptr;
      }
      if (Key == "seed") {
        // splitmix64-style scramble so nearby seeds diverge immediately.
        FI->PrngState = (V + 0x9e3779b97f4a7c15ull) * 0xbf58476d1ce4e5b9ull;
        if (!FI->PrngState)
          FI->PrngState = 0x9e3779b97f4a7c15ull;
      } else if (Key == "delay-ms") {
        FI->DelayMs = V;
      } else {
        Err = "unknown parameter '" + Key + "'";
        return nullptr;
      }
      continue;
    }
    size_t Sep = Tok.find_first_of("@~");
    if (Sep == std::string::npos) {
      Err = "rule '" + Tok + "' needs @N (one-shot) or ~N (probability)";
      return nullptr;
    }
    int PI = pointIndexOf(Tok.substr(0, Sep));
    if (PI < 0) {
      Err = "unknown injection point '" + Tok.substr(0, Sep) + "'";
      return nullptr;
    }
    uint64_t N = 0;
    if (!parseCount(Tok, Sep + 1, N) || N == 0) {
      Err = "malformed count in '" + Tok + "'";
      return nullptr;
    }
    if (Tok[Sep] == '@')
      FI->Rules[PI].Nth = N;
    else
      FI->Rules[PI].Prob = N;
  }
  return FI;
}

uint64_t FaultInjector::nextRand() {
  // xorshift64*: deterministic, cheap, good enough to scatter fires.
  uint64_t X = PrngState;
  X ^= X >> 12;
  X ^= X << 25;
  X ^= X >> 27;
  PrngState = X;
  return X * 0x2545f4914f6cdd1dull;
}

bool FaultInjector::shouldFire(Point P) {
  unsigned I = static_cast<unsigned>(P);
  std::lock_guard<std::mutex> Lock(Mu);
  const Rule &R = Rules[I];
  if (!R.Nth && !R.Prob)
    return false;
  uint64_t Opp = ++Opportunities[I];
  bool Fire = false;
  if (R.Nth && Opp == R.Nth)
    Fire = true;
  if (!Fire && R.Prob)
    Fire = nextRand() % R.Prob == 0;
  if (Fire)
    ++Fires[I];
  return Fire;
}

bool FaultInjector::armed(Point P) const {
  unsigned I = static_cast<unsigned>(P);
  std::lock_guard<std::mutex> Lock(Mu);
  return Rules[I].Nth != 0 || Rules[I].Prob != 0;
}

uint64_t FaultInjector::fireCount(Point P) const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Fires[static_cast<unsigned>(P)];
}

ResilienceOptions gdse::resilienceFromEnv() {
  ResilienceOptions R;
  long V = envInt("GDSE_DEADLINE_MS", 0);
  if (V > 0)
    R.Budget.DeadlineMs = static_cast<uint64_t>(V);
  V = envInt("GDSE_MEM_BUDGET", 0);
  if (V > 0)
    R.Budget.MaxBytes = static_cast<uint64_t>(V);
  V = envInt("GDSE_WATCHDOG_MS", 0);
  if (V > 0)
    R.WatchdogMs = static_cast<uint64_t>(V);
  const char *F = std::getenv("GDSE_FAULTS");
  if (F && *F) {
    std::string Err;
    std::shared_ptr<FaultInjector> FI = FaultInjector::parse(F, Err);
    if (FI)
      R.Faults = std::move(FI);
    else
      envWarnOnce("GDSE_FAULTS", "ignoring GDSE_FAULTS: " + Err);
  }
  return R;
}
