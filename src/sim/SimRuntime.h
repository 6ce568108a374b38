//===- SimRuntime.h - Per-instance simulation record ------------*- C++ -*-===//
///
/// \file
/// The definition of Simulator::Runtime, the per-instance record through
/// which leaf behaviors see the simulation (it implements
/// bsl::BehaviorContext over the simulator's dense net array and the
/// instance's slot tables). It lives in this internal header so the
/// compiled-kernel lowering (sim/KernelBuilder) and the kernel runner
/// (sim/CompiledKernel) can read the same slot tables the interp engine
/// uses. Not part of the public sim/ API — include Simulator.h instead.
///
//===----------------------------------------------------------------------===//

#ifndef LIBERTY_SIM_SIMRUNTIME_H
#define LIBERTY_SIM_SIMRUNTIME_H

#include "sim/Simulator.h"

#include <map>

namespace liberty {
namespace sim {

class Simulator::Runtime : public bsl::BehaviorContext {
public:
  Runtime(Simulator &Sim, netlist::InstanceNode *Node)
      : Sim(Sim), Node(Node) {}

  Simulator &Sim;
  netlist::InstanceNode *Node;
  /// Null for hierarchical instances (which may still carry userpoints and
  /// runtime variables).
  std::unique_ptr<bsl::LeafBehavior> Behavior;

  /// One entry per declared port, addressed by the dense port id that
  /// bindPort() hands out. Components have a handful of ports, so the
  /// name-based accessors scan this linearly; the id-based accessors index
  /// it directly. The table never changes after construct(), so pointers
  /// into it (EventName) are stable.
  struct PortSlot {
    std::string Name;
    std::vector<int> Nets;   ///< Net id per port instance (-1 unconnected).
    std::string EventName;   ///< "port:<name>" for outputs, "" for inputs.
    bool IsOutput = false;
  };
  std::vector<PortSlot> PortSlots;

  /// Behavior state and BSL runtime variables, lowered from a string map
  /// to dense slots resolved at bind time.
  bsl::StateTable StateVars;

  int findPortId(const std::string &Port) const {
    for (size_t I = 0; I != PortSlots.size(); ++I)
      if (PortSlots[I].Name == Port)
        return int(I);
    return -1;
  }
  PortSlot &addSlot(const std::string &Port) {
    PortSlots.emplace_back();
    PortSlots.back().Name = Port;
    return PortSlots.back();
  }

  struct CompiledUserpoint {
    const lss::UserpointSig *Sig = nullptr;
    std::unique_ptr<bsl::BslProgram> Prog;
  };
  std::map<std::string, CompiledUserpoint> Userpoints;
  int ScheduleNode = -1;

  /// Net ids this leaf drives (deduplicated): the nets evaluateGroup
  /// prepares before the group runs.
  std::vector<int> OutputNets;

  void resetState() {
    // Blank values but keep slot identities: state ids bound in init() and
    // Value pointers handed out by findState() survive the reset.
    StateVars.resetValues();
    for (const netlist::RuntimeVar &RV : Node->RuntimeVars)
      StateVars[RV.Name] = RV.Init;
  }

  // BehaviorContext implementation.
  int getWidth(const std::string &Port) const override {
    // For leaves the slot table is authoritative (its length is the
    // inferred width); hierarchical runtimes fall back to the netlist.
    if (int Id = findPortId(Port); Id >= 0)
      return int(PortSlots[size_t(Id)].Nets.size());
    const netlist::Port *P = Node->findPort(Port);
    return P ? P->Width : 0;
  }

  const types::Type *getPortType(const std::string &Port) const override {
    const netlist::Port *P = Node->findPort(Port);
    return P ? P->Resolved : nullptr;
  }

  const interp::Value *getInput(const std::string &Port,
                                int Index) const override {
    return getInput(findPortId(Port), Index);
  }

  void setOutput(const std::string &Port, int Index,
                 interp::Value V) override {
    setOutput(findPortId(Port), Index, std::move(V));
  }

  int bindPort(const std::string &Port) const override {
    return findPortId(Port);
  }

  int getWidth(int PortId) const override {
    if (PortId < 0 || PortId >= int(PortSlots.size()))
      return 0;
    return int(PortSlots[size_t(PortId)].Nets.size());
  }

  const interp::Value *getInput(int PortId, int Index) const override {
    if (PortId < 0 || PortId >= int(PortSlots.size()))
      return nullptr;
    const PortSlot &PS = PortSlots[size_t(PortId)];
    if (Index < 0 || Index >= int(PS.Nets.size()))
      return nullptr;
    int NetId = PS.Nets[size_t(Index)];
    if (NetId < 0)
      return nullptr;
    const Net &N = Sim.Nets[NetId];
    return N.Has ? &N.V : nullptr;
  }

  void setOutput(int PortId, int Index, interp::Value V) override {
    if (PortId < 0 || PortId >= int(PortSlots.size()))
      return; // Unconnected port: the value vanishes.
    PortSlot &PS = PortSlots[size_t(PortId)];
    if (Index < 0 || Index >= int(PS.Nets.size()))
      return;
    int NetId = PS.Nets[size_t(Index)];
    if (NetId < 0)
      return;
    Net &N = Sim.Nets[NetId];
    ++Sim.Activity.NetWrites;
    if (!N.Has) {
      // First send this evaluation round. The fixpoint dirty flag fires on
      // presence appearing even if the value matches last cycle's, so a
      // cyclic group always re-runs after its members' first sends; the
      // stored value is only reassigned when it observably changed (value
      // differs, or the net was absent last cycle).
      Sim.FixpointDirty = true;
      if (!N.PrevHas || !N.V.equals(V)) {
        N.V = std::move(V);
        ++Sim.Activity.NetChanges;
      }
      N.Has = true;
    } else if (!N.V.equals(V)) {
      // Re-send with a different value (fixpoint iteration).
      N.V = std::move(V);
      Sim.FixpointDirty = true;
      ++Sim.Activity.NetChanges;
    }
    if (!Sim.Instr.empty() && PS.IsOutput) {
      Event E;
      E.InstancePath = &Node->Path;
      E.Name = &PS.EventName;
      E.Cycle = Sim.Cycle;
      E.Payload = &N.V;
      Sim.Instr.emit(E);
    }
  }

  const interp::Value *getParam(const std::string &Name) const override {
    auto It = Node->Params.find(Name);
    return It == Node->Params.end() ? nullptr : &It->second;
  }

  bool hasUserpoint(const std::string &Name) const override {
    return Userpoints.count(Name) != 0;
  }

  interp::Value callUserpoint(const std::string &Name,
                              std::vector<interp::Value> Args) override {
    auto It = Userpoints.find(Name);
    if (It == Userpoints.end() || !It->second.Prog)
      return interp::Value();
    bsl::BslEnv Env;
    if (const lss::UserpointSig *Sig = It->second.Sig) {
      unsigned N = std::min(Args.size(), Sig->Args.size());
      for (unsigned I = 0; I != N; ++I)
        Env.Args[Sig->Args[I].first] = std::move(Args[I]);
    }
    Env.RuntimeVars = &StateVars;
    Env.Params = &Node->Params;
    unsigned ErrorsBefore = Sim.Diags.getNumErrors();
    interp::Value Result = It->second.Prog->run(Env, Sim.Diags);
    if (Sim.Diags.getNumErrors() != ErrorsBefore)
      Sim.RuntimeErrors = true;
    return Result;
  }

  interp::Value &state(const std::string &Name) override {
    return StateVars[Name];
  }

  int bindState(const std::string &Name) override {
    return StateVars.bind(Name);
  }

  interp::Value &state(int StateId) override { return StateVars.slot(StateId); }

  void emitEvent(const std::string &EventName, interp::Value Payload) override {
    if (Sim.Instr.empty())
      return;
    Event E;
    E.InstancePath = &Node->Path;
    E.Name = &EventName;
    E.Cycle = Sim.Cycle;
    E.Payload = &Payload;
    Sim.Instr.emit(E);
  }

  uint64_t getCycle() const override { return Sim.Cycle; }

  const std::string &getInstancePath() const override { return Node->Path; }
};

} // namespace sim
} // namespace liberty

#endif // LIBERTY_SIM_SIMRUNTIME_H
