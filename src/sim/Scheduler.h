//===- Scheduler.h - Static concurrency scheduling --------------*- C++ -*-===//
///
/// \file
/// Static evaluation-order scheduling for the generated simulator (the
/// paper cites this analysis as [12], Penry & August DAC'03). Leaf
/// instances form a dependency graph — an edge u→v when v combinationally
/// reads a net driven by u. The schedule is the condensation's topological
/// order; singleton groups evaluate exactly once per cycle, multi-node
/// groups (combinational cycles) iterate to a fixpoint.
///
//===----------------------------------------------------------------------===//

#ifndef LIBERTY_SIM_SCHEDULER_H
#define LIBERTY_SIM_SCHEDULER_H

#include <vector>

namespace liberty {
namespace sim {

struct Schedule {
  /// Strongly connected components in topological order; each inner vector
  /// lists node ids (in deterministic ascending order within a group).
  std::vector<std::vector<int>> Groups;

  /// Cached structural counts, computed once by computeSchedule rather
  /// than rescanned on every accessor call.
  unsigned NumCyclic = 0;
  unsigned MaxGroup = 0;

  unsigned numCyclicGroups() const { return NumCyclic; }
  unsigned maxGroupSize() const { return MaxGroup; }
};

/// Computes the schedule for a graph of \p NumNodes nodes given forward
/// adjacency \p Successors (duplicates allowed). Iterative Tarjan SCC, so
/// large graphs cannot overflow the C++ stack.
Schedule computeSchedule(int NumNodes,
                         const std::vector<std::vector<int>> &Successors);

} // namespace sim
} // namespace liberty

#endif // LIBERTY_SIM_SCHEDULER_H
