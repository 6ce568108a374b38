//===- PhaseTimer.h - Per-phase compile-time observability ------*- C++ -*-===//
///
/// \file
/// Records wall time and named counters for each compiler phase (parse,
/// elaborate, constraint-gen, solve, sim-build, ...). Phases with the same
/// name accumulate, so calling a phase repeatedly (e.g. parsing several
/// buffers) yields one row. The recorded data is what `lssc --stats-json`
/// serializes (driver::phasesJson).
///
//===----------------------------------------------------------------------===//

#ifndef LIBERTY_SUPPORT_PHASETIMER_H
#define LIBERTY_SUPPORT_PHASETIMER_H

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace liberty {

class PhaseTimer {
public:
  struct Counter {
    std::string Name;
    uint64_t Value = 0;
  };

  struct Phase {
    std::string Name;
    double WallMs = 0.0;
    std::vector<Counter> Counters;
  };

  /// RAII scope that accumulates its lifetime into the named phase. A null
  /// timer makes the scope a no-op, so callers can thread an optional
  /// timer without branching.
  class Scope {
  public:
    Scope(PhaseTimer *Timer, const std::string &Name)
        : Timer(Timer), Name(Name),
          Start(std::chrono::steady_clock::now()) {}
    ~Scope() {
      if (Timer)
        Timer->addWallTime(Name, elapsedMs());
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    double elapsedMs() const {
      return std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - Start)
          .count();
    }

  private:
    PhaseTimer *Timer;
    std::string Name;
    std::chrono::steady_clock::time_point Start;
  };

  /// Returns the phase named \p Name, creating it (at the end of the
  /// phase list) on first use.
  Phase &getOrCreatePhase(const std::string &Name);

  /// Accumulates \p Ms of wall time into phase \p Name.
  void addWallTime(const std::string &Name, double Ms);

  /// Sets (or overwrites) counter \p Counter on phase \p Name.
  void setCounter(const std::string &Name, const std::string &Counter,
                  uint64_t Value);

  const std::vector<Phase> &getPhases() const { return Phases; }
  const Phase *findPhase(const std::string &Name) const;

  /// Total wall time across all recorded phases.
  double totalWallMs() const;

  /// Human-readable table, one phase per line.
  void print(std::ostream &OS) const;

  void clear() { Phases.clear(); }

private:
  std::vector<Phase> Phases;
};

} // namespace liberty

#endif // LIBERTY_SUPPORT_PHASETIMER_H
