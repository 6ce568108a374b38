//===- InferenceEngine.h - LSS type inference -------------------*- C++ -*-===//
///
/// \file
/// The LSS type-inference solver (paper Section 5). The problem — assign a
/// basic type to every type variable under equality constraints where
/// schemes may be *disjunctive* — is NP-complete; the solver is a modified
/// unification algorithm that recurses over disjuncts, made practical by
/// three heuristics the paper describes:
///
///   H1  Reorder so non-disjunctive constraints are solved first (they never
///       branch and their bindings prune later disjuncts).
///   H2  Forced-disjunct elimination: trial-unify each alternative; prune
///       alternatives that fail in isolation; commit when exactly one
///       survives — all without recursion.
///   H3  Divide and conquer: partition the residual disjunctive constraints
///       into variable-disjoint groups and search each group independently,
///       replacing one exponential in the total by a sum of exponentials in
///       the (small) group sizes.
///
/// Each heuristic can be toggled, which is how bench_inference reproduces
/// the paper's "several seconds vs more than 12 hours" comparison as a
/// work-count curve.
///
//===----------------------------------------------------------------------===//

#ifndef LIBERTY_INFER_INFERENCEENGINE_H
#define LIBERTY_INFER_INFERENCEENGINE_H

#include "infer/Unifier.h"
#include "support/Diagnostics.h"

#include <chrono>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace liberty {

class PhaseTimer;

namespace netlist {
class Netlist;
class InstanceNode;
}

namespace infer {

/// Where a netlist constraint came from. Rendered into diagnostic text
/// lazily (renderContext), so the hot constraint-generation path never
/// builds strings for the overwhelmingly common case of constraints that
/// unify cleanly.
enum class ConstraintOriginKind : uint8_t {
  None,           ///< Synthetic/test constraint; Context carries the text.
  PortAnnotation, ///< Port scheme vs the port's inference variable.
  ConstrainStmt,  ///< `constrain` statement of an instance.
  Connection,     ///< Two connected ports share a type.
  ConnAnnotation, ///< Connection's explicit type annotation.
};

/// One equality constraint with provenance for diagnostics.
struct Constraint {
  const types::Type *A = nullptr;
  const types::Type *B = nullptr;
  SourceLoc Loc;
  /// Pre-rendered context for synthetic producers (tests, benches). Empty
  /// for netlist constraints, whose context is rendered on demand from
  /// the dense origin fields below.
  std::string Context;
  /// Hierarchical path of the instance this constraint came from (empty for
  /// synthetic systems). Budget-exhaustion diagnostics name the instances
  /// of the group that could not be solved. Netlist constraints leave this
  /// empty and carry Inst instead.
  std::string InstancePath;
  /// Dense origin: kind + the instance (and port index, for
  /// PortAnnotation) it came from. Only read on failure paths.
  ConstraintOriginKind Origin = ConstraintOriginKind::None;
  const netlist::InstanceNode *Inst = nullptr;
  int PortIdx = -1;

  /// Diagnostic context text: Context if pre-rendered, else built from the
  /// dense origin. Cold path only.
  std::string renderContext() const;
  /// Hierarchical path of the originating instance ("" if unknown).
  const std::string &instancePath() const;
};

struct SolveOptions {
  bool ReorderSimpleFirst = true;      ///< Heuristic 1.
  bool ForcedDisjunctElimination = true; ///< Heuristic 2.
  bool Partition = true;               ///< Heuristic 3.
  uint64_t MaxSteps = 500000000;       ///< Work cap (unify steps).
  /// Wall-clock deadline for the whole solve in milliseconds; 0 disables.
  /// Unlike MaxSteps this is inherently nondeterministic — use it as an
  /// operational backstop (lssc --infer-deadline-ms), not in differential
  /// tests.
  uint64_t DeadlineMs = 0;
  /// Worker threads for the H3 group search: 1 solves the groups serially
  /// (the `--jobs 1` path), N > 1 dispatches them to a thread pool, and 0
  /// picks one worker per hardware thread. Because the groups are
  /// variable-disjoint they never contend on bindings, and results are
  /// merged in deterministic group order, so every setting produces
  /// bit-identical bindings and statistics.
  unsigned NumThreads = 1;

  static SolveOptions naive() {
    SolveOptions O;
    O.ReorderSimpleFirst = false;
    O.ForcedDisjunctElimination = false;
    O.Partition = false;
    return O;
  }

  static SolveOptions parallel(unsigned Threads = 0) {
    SolveOptions O;
    O.NumThreads = Threads;
    return O;
  }
};

/// Per-group observability for one H3 component search. Groups are indexed
/// in deterministic order (by their first residual constraint), which is
/// also the order their results are merged, so these records are identical
/// whether the groups ran serially or in parallel.
struct GroupStats {
  unsigned NumConstraints = 0;
  uint64_t UnifySteps = 0;
  uint64_t BranchPoints = 0;
  /// Wall time of this group's search in isolation; 0 for a memoized
  /// group, which did not search.
  double WallMs = 0.0;
  bool Success = false;
  bool HitLimit = false;    ///< Failed by exhausting the step budget.
  bool HitDeadline = false; ///< Failed by exceeding the wall-clock deadline.
  /// Filled for unsolved groups only: the distinct instance paths the
  /// group's constraints mention (capped at 8), the total number of
  /// alternatives across its disjunctive constraints, and the location of
  /// its first constraint — the payload of the structured
  /// budget-exhaustion diagnostic.
  std::vector<std::string> InstancePaths;
  unsigned NumDisjunctAlternatives = 0;
  SourceLoc FirstLoc;
  /// The index of the group whose search this one reused (its key was
  /// equal: the same work up to a renaming of variables), or -1 when the
  /// group ran its own search. Not persisted in LSSSOL.
  int MemoOf = -1;
};

struct SolveStats {
  bool Success = false;
  bool HitLimit = false;
  bool HitDeadline = false; ///< The wall-clock deadline expired.
  /// Unify steps of the whole solve, each memoized group counted as the
  /// search it stands for.
  uint64_t UnifySteps = 0;
  /// The part of UnifySteps this solve executed: memoized groups
  /// contribute nothing. Not persisted in LSSSOL.
  uint64_t UnifyStepsSearched = 0;
  uint64_t BranchPoints = 0;
  unsigned NumConstraints = 0;
  unsigned NumDisjunctive = 0;
  unsigned NumComponents = 0; ///< H3 groups found.
  /// Groups that reused an earlier group's search (GroupStats::MemoOf).
  unsigned NumMemoized = 0;
  /// Threads that ran at least one group search: 0 when no group
  /// searched (none found, all memoized, or the solution came from the
  /// cache), 1 for a serial solve. Not persisted in LSSSOL.
  unsigned ThreadsUsed = 0;
  /// Groups left unsolved by budget/deadline exhaustion. Unlike a genuine
  /// unsatisfiability (which stops the merge at the first failed group),
  /// running out of budget degrades gracefully: every other group is still
  /// solved and committed, and only these groups' variables stay free.
  unsigned NumUnsolved = 0;
  std::vector<GroupStats> Groups; ///< One entry per searched H3 group.
  std::string FailMessage;
  SourceLoc FailLoc;
};

class InferenceEngine {
public:
  explicit InferenceEngine(types::TypeContext &TC) : TC(TC), U(TC) {}

  /// Solves \p Constraints. On success the engine's unifier holds the
  /// satisfying bindings; query them with resolve().
  SolveStats solve(const std::vector<Constraint> &Constraints,
                   const SolveOptions &Opts);

  /// Deep-resolves \p T through the current bindings.
  const types::Type *resolve(const types::Type *T) { return U.resolveDeep(T); }

private:
  struct WorkList;

  /// Depth-first search over disjunct alternatives on \p WU, which is the
  /// engine's own unifier for the serial phases and a per-group scratch
  /// unifier during the (possibly parallel) H3 group search. \p Head is
  /// the first node of the pending work in \p WL (WorkList::End when none).
  bool solveList(Unifier &WU, WorkList &WL, uint32_t Head,
                 const SolveOptions &Opts, SolveStats &Stats);
  /// True when \p WU exhausted the step budget or the solve deadline
  /// passed; flags the condition on \p Stats. Safe to call concurrently
  /// from group workers (the deadline is set once before they start).
  bool overBudget(const Unifier &WU, const SolveOptions &Opts,
                  SolveStats &Stats) const;

  types::TypeContext &TC;
  /// Serializes the types group workers allocate in TC when they branch on
  /// a choice pair (Unifier::substitute).
  std::mutex TypeAllocMutex;
  Unifier U;
  /// Absolute deadline for the current solve() (steady clock); only valid
  /// while HasDeadline.
  std::chrono::steady_clock::time_point Deadline;
  bool HasDeadline = false;
};

/// Result of running inference over a whole netlist.
struct NetlistInferenceStats {
  SolveStats Solve;
  unsigned NumPorts = 0;
  unsigned NumPolymorphicPorts = 0; ///< Ports whose scheme had variables.
  unsigned NumDefaulted = 0; ///< Unconstrained variables defaulted to int.
};

/// Generates constraints from \p NL (port schemes, connections, connection
/// annotations, `constrain` statements), solves them, and writes each
/// port's resolved ground type back into the netlist. Errors (unsolvable
/// constraints) are reported through \p Diags. When \p Timer is non-null
/// the constraint-gen and solve phases are recorded on it, with unify-step
/// and group counters.
NetlistInferenceStats inferNetlistTypes(netlist::Netlist &NL,
                                        types::TypeContext &TC,
                                        DiagnosticEngine &Diags,
                                        const SolveOptions &Opts,
                                        PhaseTimer *Timer = nullptr);

/// Builds (without solving) the constraint system for \p NL. Exposed so
/// benches can measure the solver on real model constraint systems.
std::vector<Constraint> buildNetlistConstraints(netlist::Netlist &NL,
                                                types::TypeContext &TC);

} // namespace infer
} // namespace liberty

#endif // LIBERTY_INFER_INFERENCEENGINE_H
