//===- KernelBuilder.cpp - Netlist-to-kernel lowering -------------------------===//
///
/// \file
/// Classification and packing for the compiled engine. Lowering is a pure
/// function of the constructed simulator.
///
/// Devirtualization trusts behavior ids: "corelib/adder" is assumed to be
/// the in-tree Adder, etc. That holds for this repo's global registry
/// (later re-registration under a corelib id would break the contract and
/// is pinned against by the cross-engine differential tests).
///
//===----------------------------------------------------------------------===//

#include "sim/KernelBuilder.h"

#include "sim/SimRuntime.h"

using namespace liberty;
using namespace liberty::sim;

using OpKind = CompiledKernel::OpKind;
using SeqKind = CompiledKernel::SeqKind;

namespace {

int64_t nodeParamInt(const netlist::InstanceNode *Node, const char *Name,
                     int64_t Default) {
  auto It = Node->Params.find(Name);
  return It != Node->Params.end() && It->second.isInt() ? It->second.getInt()
                                                        : Default;
}

/// Behavior ids whose endOfTimestep is the LeafBehavior no-op, verified
/// against src/corelib/CoreBehaviors.cpp — their sequential-phase calls
/// are elided from the kernel.
bool isEotFree(const std::string &Id) {
  static const char *const Free[] = {
      "corelib/const_source", "corelib/counter_source", "corelib/source",
      "corelib/bool_source",  "corelib/sink",           "corelib/adder",
      "corelib/alu",          "corelib/mux",            "corelib/demux",
      "corelib/fanout",
  };
  for (const char *F : Free)
    if (Id == F)
      return true;
  return false;
}

/// Appends \p Ids to the kernel's shared operand pool.
CompiledKernel::Range pack(CompiledKernel &K, const std::vector<int> &Ids) {
  CompiledKernel::Range R;
  R.Begin = int32_t(K.NetPool.size());
  R.Count = int32_t(Ids.size());
  K.NetPool.insert(K.NetPool.end(), Ids.begin(), Ids.end());
  return R;
}

} // namespace

namespace liberty {
namespace sim {

/// Hosts every lowering step that reads the simulator's private runtime
/// tables. A named class (unlike the file-local helpers above) so
/// Simulator can befriend it; it exists only in this translation unit.
class KernelBuilderImpl {
public:
  /// Connected net ids of \p Port in port-index order (unconnected indices
  /// dropped — their writes vanish in setOutput, preserving event order).
  static std::vector<int> connectedNets(const Simulator::Runtime *RT,
                                        const char *Port) {
    std::vector<int> Out;
    int Pid = RT->findPortId(Port);
    if (Pid < 0)
      return Out;
    for (int NetId : RT->PortSlots[size_t(Pid)].Nets)
      if (NetId >= 0)
        Out.push_back(NetId);
    return Out;
  }

  /// Net id of (\p Port, index 0), or -1 (absent port / zero width /
  /// unconnected — all read as "no value" and swallow writes).
  static int portNet0(const Simulator::Runtime *RT, const char *Port) {
    int Pid = RT->findPortId(Port);
    if (Pid < 0)
      return -1;
    const auto &Nets = RT->PortSlots[size_t(Pid)].Nets;
    return Nets.empty() ? -1 : Nets[0];
  }

  static CompiledKernel::Op lowerGroup(Simulator &Sim, CompiledKernel &K,
                                       size_t G);
  static std::unique_ptr<CompiledKernel> build(Simulator &Sim);
};

/// Lowers schedule group \p G to its op. Only singleton groups with a
/// recognized corelib behavior (and resolvable state slots — init() has
/// run, so bound slots exist) specialize; everything else stays Generic
/// and keeps the interpreter's exact fixpoint/diagnostic path.
CompiledKernel::Op KernelBuilderImpl::lowerGroup(Simulator &Sim,
                                                 CompiledKernel &K, size_t G) {
  CompiledKernel::Op O;
  O.Group = int32_t(G);
  const std::vector<int> &Group = Sim.Sched.Groups[G];
  if (Group.size() != 1)
    return O;
  int RTIdx = Group.front();
  Simulator::Runtime *RT = Sim.Runtimes[size_t(RTIdx)].get();
  if (!RT->Behavior)
    return O;
  const std::string &Id = RT->Node->BehaviorId;

  std::vector<int> Out, In;
  if (Id == "corelib/const_source") {
    O.Kind = OpKind::ConstSource;
    O.ImmA = nodeParamInt(RT->Node, "value", 0);
    Out = connectedNets(RT, "out");
  } else if (Id == "corelib/counter_source") {
    O.Kind = OpKind::CounterSource;
    O.ImmA = nodeParamInt(RT->Node, "start", 0);
    O.ImmB = nodeParamInt(RT->Node, "stride", 1);
    Out = connectedNets(RT, "out");
  } else if (Id == "corelib/adder") {
    O.Kind = OpKind::Adder;
    In = {portNet0(RT, "in1"), portNet0(RT, "in2")};
    // Adder::evaluate writes out[0] only.
    if (int OutNet = portNet0(RT, "out"); OutNet >= 0)
      Out = {OutNet};
  } else if (Id == "corelib/fanout") {
    O.Kind = OpKind::Fanout;
    In = {portNet0(RT, "in")};
    Out = connectedNets(RT, "out");
  } else if (Id == "corelib/delay.tar" && RT->StateVars.lookup("held")) {
    O.Kind = OpKind::DelayEval;
    O.State = RT->StateVars.lookup("held");
    Out = connectedNets(RT, "out");
  } else if (Id == "corelib/sink" && RT->StateVars.lookup("received")) {
    O.Kind = OpKind::Sink;
    O.State = RT->StateVars.lookup("received");
    O.EventName = &CompiledKernel::sinkEventName();
    In = connectedNets(RT, "in");
  } else {
    return O;
  }
  O.RuntimeIdx = int32_t(RTIdx);
  O.Path = &RT->Node->Path;
  if (O.Kind != OpKind::Sink)
    if (int Pid = RT->findPortId("out"); Pid >= 0)
      O.EventName = &RT->PortSlots[size_t(Pid)].EventName;
  // Generic ops prepare inside evaluateGroup; only specialized ops carry a
  // Prep range (preparing twice would corrupt PrevHas).
  O.Prep = pack(K, RT->OutputNets);
  O.Out = pack(K, Out);
  O.In = pack(K, In);
  return O;
}

std::unique_ptr<CompiledKernel> KernelBuilderImpl::build(Simulator &Sim) {
  auto K = std::make_unique<CompiledKernel>();
  K->Ops.reserve(Sim.Sched.Groups.size());
  for (size_t G = 0; G != Sim.Sched.Groups.size(); ++G) {
    K->Ops.push_back(lowerGroup(Sim, *K, G));
    if (K->Ops.back().Kind == OpKind::Generic)
      ++K->Stats.NumGenericOps;
    else
      ++K->Stats.NumSpecializedOps;
  }

  // Sequential phase, in runtime index order (== runSequentialPhase).
  for (size_t RTIdx = 0; RTIdx != Sim.Runtimes.size(); ++RTIdx) {
    Simulator::Runtime *RT = Sim.Runtimes[RTIdx].get();
    if (!RT->Behavior)
      continue;
    const std::string &Id = RT->Node->BehaviorId;
    if (isEotFree(Id)) {
      ++K->Stats.NumSeqElided;
      continue;
    }
    CompiledKernel::SeqOp S;
    S.RuntimeIdx = int32_t(RTIdx);
    if (Id == "corelib/delay.tar" && RT->StateVars.lookup("held")) {
      S.Kind = SeqKind::DelayLatch;
      S.InNet = portNet0(RT, "in");
      S.State = RT->StateVars.lookup("held");
    }
    K->SeqOps.push_back(S);
  }
  K->Stats.NumOps = unsigned(K->Ops.size());
  K->Stats.NumSeqOps = unsigned(K->SeqOps.size());
  return K;
}

} // namespace sim
} // namespace liberty

std::unique_ptr<CompiledKernel> KernelBuilder::build(Simulator &Sim) {
  return KernelBuilderImpl::build(Sim);
}
