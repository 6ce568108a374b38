//===- PhaseTimer.cpp - Per-phase compile-time observability -----------------===//

#include "support/PhaseTimer.h"

#include <iomanip>

using namespace liberty;

PhaseTimer::Phase &PhaseTimer::getOrCreatePhase(const std::string &Name) {
  for (Phase &P : Phases)
    if (P.Name == Name)
      return P;
  Phases.push_back(Phase{Name, 0.0, {}});
  return Phases.back();
}

void PhaseTimer::addWallTime(const std::string &Name, double Ms) {
  getOrCreatePhase(Name).WallMs += Ms;
}

void PhaseTimer::setCounter(const std::string &Name,
                            const std::string &Counter, uint64_t Value) {
  Phase &P = getOrCreatePhase(Name);
  for (PhaseTimer::Counter &C : P.Counters)
    if (C.Name == Counter) {
      C.Value = Value;
      return;
    }
  P.Counters.push_back(PhaseTimer::Counter{Counter, Value});
}

const PhaseTimer::Phase *PhaseTimer::findPhase(const std::string &Name) const {
  for (const Phase &P : Phases)
    if (P.Name == Name)
      return &P;
  return nullptr;
}

double PhaseTimer::totalWallMs() const {
  double Total = 0.0;
  for (const Phase &P : Phases)
    Total += P.WallMs;
  return Total;
}

void PhaseTimer::print(std::ostream &OS) const {
  OS << "== compile phases ==\n";
  for (const Phase &P : Phases) {
    OS << "  " << std::left << std::setw(16) << P.Name << std::right
       << std::fixed << std::setprecision(3) << std::setw(12) << P.WallMs
       << " ms";
    for (const Counter &C : P.Counters)
      OS << "  " << C.Name << "=" << C.Value;
    OS << "\n";
  }
  OS << "  " << std::left << std::setw(16) << "total" << std::right
     << std::fixed << std::setprecision(3) << std::setw(12) << totalWallMs()
     << " ms\n";
}
