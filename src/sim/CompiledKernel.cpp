//===- CompiledKernel.cpp - Flat cycle kernel interpreter ---------------------===//
///
/// \file
/// The compiled engine's per-cycle loop. Each specialized op replays the
/// corresponding corelib behavior's evaluate() body over dense net ids;
/// the write helper mirrors Runtime::setOutput exactly, minus the fixpoint
/// dirty flag and activity counters that singleton groups never observe. Event emission — one automatic port event per write call,
/// payload read back from the net after the write — is kept call-for-call
/// identical so traces match the interp engine bit for bit.
///
//===----------------------------------------------------------------------===//

#include "sim/CompiledKernel.h"

#include "sim/SimRuntime.h"

using namespace liberty;
using namespace liberty::sim;
using interp::Value;

const std::string &CompiledKernel::sinkEventName() {
  static const std::string Name = "received";
  return Name;
}

namespace {

/// Runtime::setOutput's net-update rule for a connected net, without the
/// stats bookkeeping: presence appears, and the stored value is
/// only reassigned when it observably changed (same equals() guard, so
/// Value identity churn matches the interpreter). Templated so the
/// private Simulator::Net type is named only inside the friended caller.
template <class NetT> inline void writeNet(NetT &N, const Value &V) {
  if (!N.Has) {
    if (!N.PrevHas || !N.V.equals(V))
      N.V = V;
    N.Has = true;
  } else if (!N.V.equals(V)) {
    N.V = V;
  }
}

/// writeNet for the all-integer fast path: same change-detection rule
/// (equals() on an Int value is a kind + payload compare), but the store
/// is an in-place setInt with no Value temporary.
template <class NetT> inline void writeNetInt(NetT &N, int64_t V) {
  if (!N.Has) {
    if (!N.PrevHas || !N.V.isInt() || N.V.getInt() != V)
      N.V.setInt(V);
    N.Has = true;
  } else if (!N.V.isInt() || N.V.getInt() != V) {
    N.V.setInt(V);
  }
}

} // namespace

void CompiledKernel::run(Simulator &Sim, uint64_t N) {
  // Collectors only attach between step() calls, so the emptiness test
  // hoists out of the cycle loop.
  const bool Emit = !Sim.Instr.empty();
  const int32_t *Pool = NetPool.data();
  Simulator::Net *Nets = Sim.Nets.data();

  for (uint64_t Step = 0; Step != N; ++Step) {
    const uint64_t Cycle = Sim.Cycle;
    for (const Op &O : Ops) {
      // Prepare: snapshot last cycle's presence on the op's output nets
      // and blank it (Generic ops carry an empty range — evaluateGroup
      // prepares its own members).
      for (int32_t K = 0; K != O.Prep.Count; ++K) {
        Simulator::Net &Nt = Nets[Pool[O.Prep.Begin + K]];
        Nt.PrevHas = Nt.Has;
        Nt.Has = false;
      }
      switch (O.Kind) {
      case OpKind::Generic:
        Sim.evaluateGroup(size_t(O.Group));
        break;

      case OpKind::ConstSource:
        // ConstSource::init reads the same integer parameter into its
        // constant, so the value written is always makeInt(ImmA).
        for (int32_t K = 0; K != O.Out.Count; ++K) {
          Simulator::Net &Nt = Nets[Pool[O.Out.Begin + K]];
          writeNetInt(Nt, O.ImmA);
          if (Emit)
            Sim.Instr.emit(Event{O.Path, O.EventName, Cycle, &Nt.V});
        }
        break;

      case OpKind::CounterSource: {
        const int64_t CV = O.ImmA + O.ImmB * int64_t(Cycle);
        for (int32_t K = 0; K != O.Out.Count; ++K) {
          Simulator::Net &Nt = Nets[Pool[O.Out.Begin + K]];
          writeNetInt(Nt, CV);
          if (Emit)
            Sim.Instr.emit(Event{O.Path, O.EventName, Cycle, &Nt.V});
        }
        break;
      }

      case OpKind::Adder: {
        // In = {in1[0], in2[0]} (either may be -1: never fires, exactly
        // like getInput on an unconnected port). Out holds at most the
        // one connected out[0] net.
        int32_t A = Pool[O.In.Begin], B = Pool[O.In.Begin + 1];
        if (A < 0 || B < 0)
          break;
        const Simulator::Net &NA = Nets[A], &NB = Nets[B];
        if (!NA.Has || !NB.Has)
          break;
        if (NA.V.isInt() && NB.V.isInt()) {
          const int64_t Sum = NA.V.getInt() + NB.V.getInt();
          for (int32_t K = 0; K != O.Out.Count; ++K) {
            Simulator::Net &Nt = Nets[Pool[O.Out.Begin + K]];
            writeNetInt(Nt, Sum);
            if (Emit)
              Sim.Instr.emit(Event{O.Path, O.EventName, Cycle, &Nt.V});
          }
          break;
        }
        const Value Sum =
            Value::makeFloat(NA.V.getNumeric() + NB.V.getNumeric());
        for (int32_t K = 0; K != O.Out.Count; ++K) {
          Simulator::Net &Nt = Nets[Pool[O.Out.Begin + K]];
          writeNet(Nt, Sum);
          if (Emit)
            Sim.Instr.emit(Event{O.Path, O.EventName, Cycle, &Nt.V});
        }
        break;
      }

      case OpKind::Fanout: {
        int32_t InNet = Pool[O.In.Begin];
        if (InNet < 0 || !Nets[InNet].Has)
          break;
        const Value &V = Nets[InNet].V;
        if (V.isInt()) {
          const int64_t IV = V.getInt();
          for (int32_t K = 0; K != O.Out.Count; ++K) {
            Simulator::Net &Nt = Nets[Pool[O.Out.Begin + K]];
            writeNetInt(Nt, IV);
            if (Emit)
              Sim.Instr.emit(Event{O.Path, O.EventName, Cycle, &Nt.V});
          }
          break;
        }
        for (int32_t K = 0; K != O.Out.Count; ++K) {
          Simulator::Net &Nt = Nets[Pool[O.Out.Begin + K]];
          writeNet(Nt, V);
          if (Emit)
            Sim.Instr.emit(Event{O.Path, O.EventName, Cycle, &Nt.V});
        }
        break;
      }

      case OpKind::DelayEval:
        if (O.State->isInt()) {
          const int64_t SV = O.State->getInt();
          for (int32_t K = 0; K != O.Out.Count; ++K) {
            Simulator::Net &Nt = Nets[Pool[O.Out.Begin + K]];
            writeNetInt(Nt, SV);
            if (Emit)
              Sim.Instr.emit(Event{O.Path, O.EventName, Cycle, &Nt.V});
          }
          break;
        }
        for (int32_t K = 0; K != O.Out.Count; ++K) {
          Simulator::Net &Nt = Nets[Pool[O.Out.Begin + K]];
          writeNet(Nt, *O.State);
          if (Emit)
            Sim.Instr.emit(Event{O.Path, O.EventName, Cycle, &Nt.V});
        }
        break;

      case OpKind::Sink:
        // In lists the connected input nets in port-index order; the
        // declared "received" event fires per present value, after the
        // count update, exactly as Sink::evaluate does.
        for (int32_t K = 0; K != O.In.Count; ++K) {
          const Simulator::Net &Nt = Nets[Pool[O.In.Begin + K]];
          if (!Nt.Has)
            continue;
          Value &Count = *O.State;
          Count.setInt(Count.isInt() ? Count.getInt() + 1 : 1);
          if (Emit)
            Sim.Instr.emit(Event{O.Path, O.EventName, Cycle, &Nt.V});
        }
        break;
      }
    }

    // Sequential phase, in runtime index order (== runSequentialPhase),
    // then the end_of_timestep userpoints.
    for (const SeqOp &S : SeqOps) {
      if (S.Kind == SeqKind::DelayLatch) {
        if (S.InNet >= 0 && Nets[S.InNet].Has) {
          const Value &V = Nets[S.InNet].V;
          if (V.isInt())
            S.State->setInt(V.getInt());
          else
            *S.State = V;
        }
      } else {
        Simulator::Runtime *RT = Sim.Runtimes[size_t(S.RuntimeIdx)].get();
        RT->Behavior->endOfTimestep(*RT);
      }
    }
    Sim.runEndOfTimestepUserpoints();

    ++Sim.Cycle;
    ++Sim.Activity.Cycles;
  }
}
