//===- CompiledKernel.h - Flat cycle kernel for the compiled engine -*- C++ -*-===//
///
/// \file
/// The compiled simulation engine's execution plan: the constructed
/// simulator's schedule, lowered once into a flat op list that one tight
/// loop replays every cycle. Every op runs the leaf behaviors' own code —
/// there is no second definition of any behavior here:
///
///  - a singleton schedule group becomes a direct op: prepare its output
///    nets (a [Begin, Count) range of the shared NetPool), then call the
///    runtime's LeafBehavior::evaluate();
///  - a multi-member group (a combinational cycle) becomes a generic op
///    that delegates to Simulator::evaluateGroup, which iterates it to a
///    fixpoint and reports non-convergence exactly as the interp engine
///    does;
///  - the sequential phase is Simulator::runSequentialPhase().
///
/// Semantics contract: running the kernel is bit-identical (events, final
/// net values, runtime state, activity counters) to the interp engine.
///
//===----------------------------------------------------------------------===//

#ifndef LIBERTY_SIM_COMPILEDKERNEL_H
#define LIBERTY_SIM_COMPILEDKERNEL_H

#include <cstdint>
#include <memory>
#include <vector>

namespace liberty {

namespace bsl {
class BehaviorContext;
class LeafBehavior;
} // namespace bsl

namespace sim {

class Simulator;

/// The shape and build time of a compiled-engine kernel, reported through
/// --stats-json.
struct KernelStats {
  double BuildMs = 0.0;       ///< Wall time spent lowering.
  unsigned NumOps = 0;        ///< Combinational ops (== schedule groups).
  unsigned NumGenericOps = 0; ///< evaluateGroup ops (multi-member groups).
};

class CompiledKernel {
public:
  /// Lowers \p Sim (constructed and reset) into a fresh kernel. Never
  /// fails.
  static std::unique_ptr<CompiledKernel> build(Simulator &Sim);

  struct Op {
    int32_t Group = -1; ///< Schedule group index (== position in Ops).
    /// Output nets to prepare (PrevHas <- Has; Has <- false) before the
    /// behavior runs: NetPool[PrepBegin, PrepBegin + PrepCount).
    int32_t PrepBegin = 0;
    int32_t PrepCount = 0;
    /// The singleton group's behavior and its context; null for a
    /// generic op (evaluateGroup prepares its own members).
    bsl::LeafBehavior *Behavior = nullptr;
    bsl::BehaviorContext *Ctx = nullptr;
  };

  /// Runs \p N cycles of \p Sim through the kernel. \p Sim must be the
  /// simulator this kernel was built against.
  void run(Simulator &Sim, uint64_t N);

  std::vector<Op> Ops;
  std::vector<int32_t> NetPool; ///< Backing store for every Prep range.
  KernelStats Stats;
};

} // namespace sim
} // namespace liberty

#endif // LIBERTY_SIM_COMPILEDKERNEL_H
