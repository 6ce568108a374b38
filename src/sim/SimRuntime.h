//===- SimRuntime.h - Per-instance simulation record ------------*- C++ -*-===//
///
/// \file
/// The definition of Simulator::Runtime, the per-instance record through
/// which leaf behaviors see the simulation. It is the only
/// bsl::BehaviorContext implementation: the base class holds the port
/// slots and state over the simulator's WireBoard, and this record adds
/// the netlist node, the behavior, the userpoints and the cold virtual
/// accessors. It lives in this internal header so the compiled kernel
/// (sim/CompiledKernel) can read the same records the interp engine uses.
/// Not part of the public sim/ API — include Simulator.h instead.
///
//===----------------------------------------------------------------------===//

#ifndef LIBERTY_SIM_SIMRUNTIME_H
#define LIBERTY_SIM_SIMRUNTIME_H

#include "sim/Simulator.h"

namespace liberty {
namespace sim {

class Simulator::Runtime : public bsl::BehaviorContext {
public:
  Runtime(Simulator &Sim, netlist::InstanceNode *Node)
      : BehaviorContext(Sim.Board), Sim(Sim), Node(Node) {}

  Simulator &Sim;
  netlist::InstanceNode *Node;
  /// Null for hierarchical instances (which may still carry userpoints and
  /// runtime variables).
  std::unique_ptr<bsl::LeafBehavior> Behavior;

  using BehaviorContext::PortSlot;
  using BehaviorContext::Ports;
  using BehaviorContext::StateVars;

  PortSlot &addSlot(const std::string &Port) {
    Ports.emplace_back();
    Ports.back().Name = Port;
    return Ports.back();
  }

  /// The userpoints with code to run; bindUserpoint() ids index this.
  struct CompiledUserpoint {
    std::string Name;
    const lss::UserpointSig *Sig = nullptr;
    std::unique_ptr<bsl::BslProgram> Prog;
  };
  std::vector<CompiledUserpoint> Userpoints;
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

  // BehaviorContext cold path.
  const types::Type *getPortType(const std::string &Port) const override {
    const netlist::Port *P = Node->findPort(Port);
    return P ? P->Resolved : nullptr;
  }

  const interp::Value *getParam(const std::string &Name) const override {
    auto It = Node->Params.find(Name);
    return It == Node->Params.end() ? nullptr : &It->second;
  }

  int bindUserpoint(const std::string &Name) const override {
    for (size_t I = 0; I != Userpoints.size(); ++I)
      if (Userpoints[I].Name == Name)
        return int(I);
    return -1;
  }

  interp::Value callUserpoint(int UserpointId,
                              std::vector<interp::Value> Args) override {
    if (UserpointId < 0 || UserpointId >= int(Userpoints.size()))
      return interp::Value();
    const CompiledUserpoint &UP = Userpoints[size_t(UserpointId)];
    unsigned ErrorsBefore = Sim.Diags.getNumErrors();
    interp::Value Result =
        UP.Prog->run(UP.Sig, Args, StateVars, Node->Params, Sim.Diags);
    if (Sim.Diags.getNumErrors() != ErrorsBefore)
      Sim.RuntimeErrors = true;
    return Result;
  }

  const std::string &getInstancePath() const override { return Node->Path; }

protected:
  void deliverEvent(const std::string &EventName,
                    const interp::Value &Payload) override {
    Event E;
    E.InstancePath = &Node->Path;
    E.Name = &EventName;
    E.Cycle = Sim.Board.Cycle;
    E.Payload = &Payload;
    Sim.Instr.emit(E);
  }
};

} // namespace sim
} // namespace liberty

#endif // LIBERTY_SIM_SIMRUNTIME_H
