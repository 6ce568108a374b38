//===- CompiledKernel.h - Flat cycle kernel for the compiled engine -*- C++ -*-===//
///
/// \file
/// The compiled simulation engine's execution plan: the elaborated netlist,
/// lowered by sim/KernelBuilder into a flat structure-of-arrays program that
/// one tight loop replays every cycle. Where the interp engine walks
/// schedule groups and dispatch through LeafBehavior virtual calls, the
/// kernel holds:
///
///  - one Op per schedule group, in ascending group index (the interp
///    engine's order);
///  - devirtualized op kinds for the hot corelib behaviors (const/counter
///    sources, adder, fanout, delay, sink), whose evaluate() bodies are
///    replayed directly over dense net ids with no virtual call, no
///    port-slot indirection, and no string hashing;
///  - a Generic kind that falls back to Simulator::evaluateGroup for
///    everything else (multi-member fixpoint groups, unspecialized
///    behaviors), so diagnostics and fixpoint semantics stay bit-identical;
///  - a sequential-phase op list with the no-op endOfTimestep calls of
///    eot-free behaviors elided and the delay latch devirtualized.
///
/// All net/runtime id lists live in one shared operand pool (NetPool) and
/// ops reference it by [Begin, Count) ranges — the structure-of-arrays
/// layout keeps the per-cycle walk cache-linear.
///
/// Semantics contract: running the kernel is bit-identical (events, final
/// net values, runtime state) to the interp engine. The kernel does not
/// maintain the per-evaluate activity counters, which are not observable
/// in traces; ActivityStats under the compiled engine reports cycles and
/// the generic-op counters only.
///
//===----------------------------------------------------------------------===//

#ifndef LIBERTY_SIM_COMPILEDKERNEL_H
#define LIBERTY_SIM_COMPILEDKERNEL_H

#include "interp/Value.h"

#include <cstdint>
#include <string>
#include <vector>

namespace liberty {
namespace sim {

class Simulator;

/// The shape and build time of a compiled-engine kernel, reported through
/// --stats-json.
struct KernelStats {
  double BuildMs = 0.0;           ///< Wall time spent lowering.
  unsigned NumOps = 0;            ///< Combinational ops (== schedule groups).
  unsigned NumSpecializedOps = 0; ///< Devirtualized singleton groups.
  unsigned NumGenericOps = 0;     ///< evaluateGroup fallbacks.
  unsigned NumSeqOps = 0;         ///< Sequential-phase ops kept.
  unsigned NumSeqElided = 0;      ///< No-op endOfTimestep calls removed.
};

class CompiledKernel {
public:
  /// Combinational op kinds. Every kind except Generic replays one
  /// specific corelib behavior's evaluate() body; Generic delegates the
  /// whole group to Simulator::evaluateGroup.
  enum class OpKind : uint8_t {
    Generic = 0,
    ConstSource,   ///< corelib/const_source
    CounterSource, ///< corelib/counter_source
    Adder,         ///< corelib/adder
    Fanout,        ///< corelib/fanout
    DelayEval,     ///< corelib/delay.tar (combinational half)
    Sink,          ///< corelib/sink
  };

  /// Sequential-phase op kinds.
  enum class SeqKind : uint8_t {
    GenericEot = 0, ///< Behavior->endOfTimestep(*Runtime)
    DelayLatch,     ///< corelib/delay.tar: held <- in[0]
  };

  /// [Begin, Begin+Count) slice of NetPool.
  struct Range {
    int32_t Begin = 0;
    int32_t Count = 0;
  };

  struct Op {
    OpKind Kind = OpKind::Generic;
    int32_t Group = -1;      ///< Schedule group index (== position in Ops).
    int32_t RuntimeIdx = -1; ///< Dense runtime index (-1 for Generic).
    /// Output nets to prepare (PrevHas <- Has; Has <- false) before the
    /// body runs; empty for Generic (evaluateGroup prepares internally).
    Range Prep;
    /// Connected output nets in port-index order (writes + port events).
    Range Out;
    /// Input nets the body reads, kind-specific layout (see the runner).
    Range In;
    int64_t ImmA = 0; ///< CounterSource: start.
    int64_t ImmB = 0; ///< CounterSource: stride.
    /// DelayEval: the "held" slot; Sink: the "received" slot. Stable
    /// across reset() (bsl::StateTable pointers survive resetValues).
    interp::Value *State = nullptr;
    /// "port:<name>" of the written output slot (automatic port events);
    /// Sink: the declared "received" event name.
    const std::string *EventName = nullptr;
    const std::string *Path = nullptr; ///< Instance path for events.
  };

  struct SeqOp {
    SeqKind Kind = SeqKind::GenericEot;
    int32_t RuntimeIdx = -1;
    int32_t InNet = -1; ///< DelayLatch: in[0] net id, or -1.
    interp::Value *State = nullptr; ///< DelayLatch: the "held" slot.
  };

  /// Runs \p N cycles of \p Sim through the kernel. \p Sim must be the
  /// simulator this kernel was built against.
  void run(Simulator &Sim, uint64_t N);

  /// The declared event name Sink emits; kernel-owned so the emitted
  /// Event's name pointer has a stable address.
  static const std::string &sinkEventName();

  std::vector<Op> Ops;
  std::vector<SeqOp> SeqOps;
  std::vector<int32_t> NetPool; ///< Backing store for every Range.
  KernelStats Stats;
};

} // namespace sim
} // namespace liberty

#endif // LIBERTY_SIM_COMPILEDKERNEL_H
