//===- CompiledKernel.cpp - Flat cycle kernel ---------------------------------===//
///
/// \file
/// Lowering and the per-cycle loop of the compiled engine. Lowering is a
/// pure function of the constructed simulator; the loop replays the
/// interp engine's step() over the lowered ops.
///
//===----------------------------------------------------------------------===//

#include "sim/CompiledKernel.h"

#include "sim/SimRuntime.h"

using namespace liberty;
using namespace liberty::sim;

std::unique_ptr<CompiledKernel> CompiledKernel::build(Simulator &Sim) {
  auto K = std::make_unique<CompiledKernel>();
  K->Ops.reserve(Sim.Sched.Groups.size());
  for (size_t G = 0; G != Sim.Sched.Groups.size(); ++G) {
    const std::vector<int> &Group = Sim.Sched.Groups[G];
    Op O;
    O.Group = int32_t(G);
    if (Group.size() == 1) {
      Simulator::Runtime *RT = Sim.Runtimes[size_t(Group.front())].get();
      O.Behavior = RT->Behavior.get();
      O.Ctx = RT;
      O.PrepBegin = int32_t(K->NetPool.size());
      O.PrepCount = int32_t(RT->OutputNets.size());
      K->NetPool.insert(K->NetPool.end(), RT->OutputNets.begin(),
                        RT->OutputNets.end());
    } else {
      ++K->Stats.NumGenericOps;
    }
    K->Ops.push_back(O);
  }
  K->Stats.NumOps = unsigned(K->Ops.size());
  return K;
}

void CompiledKernel::run(Simulator &Sim, uint64_t N) {
  const int32_t *Pool = NetPool.data();
  bsl::Wire *Wires = Sim.Board.Wires.data();
  const uint64_t DirectOps = Stats.NumOps - Stats.NumGenericOps;

  for (uint64_t Step = 0; Step != N; ++Step) {
    for (const Op &O : Ops) {
      if (!O.Behavior) {
        Sim.evaluateGroup(size_t(O.Group));
        continue;
      }
      // Snapshot last cycle's presence on the op's output nets and blank
      // it, exactly as evaluateGroup does for a singleton group.
      for (int32_t K = O.PrepBegin, E = O.PrepBegin + O.PrepCount; K != E;
           ++K) {
        bsl::Wire &W = Wires[Pool[K]];
        W.PrevHas = W.Has;
        W.Has = false;
      }
      O.Behavior->evaluate(*O.Ctx);
    }
    // evaluateGroup counts its own work; the direct ops are one group and
    // one leaf evaluation each.
    Sim.Activity.GroupsEvaluated += DirectOps;
    Sim.Activity.LeafEvals += DirectOps;

    Sim.runSequentialPhase();
    ++Sim.Board.Cycle;
    ++Sim.Activity.Cycles;
  }
}
