//===- Simulator.cpp - Generated executable simulator ------------------------===//

#include "sim/Simulator.h"

#include "sim/CompiledKernel.h"
#include "sim/SimRuntime.h"
#include "types/Type.h"

#include <algorithm>
#include <chrono>
#include <map>

using namespace liberty;
using namespace liberty::sim;
using interp::Value;

//===----------------------------------------------------------------------===//
// Engine selection
//===----------------------------------------------------------------------===//

const char *liberty::sim::engineName(EngineKind K) {
  return K == EngineKind::Interp ? "interp" : "compiled";
}

bool liberty::sim::parseEngineName(const std::string &Name, EngineKind &Out) {
  for (EngineKind K : {EngineKind::Interp, EngineKind::Compiled})
    if (Name == engineName(K)) {
      Out = K;
      return true;
    }
  return false;
}

//===----------------------------------------------------------------------===//
// Construction
//===----------------------------------------------------------------------===//

Simulator::Simulator(netlist::Netlist &NL, SourceMgr &SM,
                     DiagnosticEngine &Diags, Options Opts)
    : NL(NL), SM(SM), Diags(Diags), Opts(Opts) {}

Simulator::~Simulator() = default;

std::unique_ptr<Simulator> Simulator::build(netlist::Netlist &NL,
                                            SourceMgr &SM,
                                            DiagnosticEngine &Diags) {
  return build(NL, SM, Diags, Options());
}

std::unique_ptr<Simulator> Simulator::build(netlist::Netlist &NL,
                                            SourceMgr &SM,
                                            DiagnosticEngine &Diags,
                                            Options Opts) {
  std::unique_ptr<Simulator> Sim(new Simulator(NL, SM, Diags, Opts));
  if (!Sim->construct())
    return nullptr;
  Sim->reset();
  if (Opts.Engine == EngineKind::Compiled) {
    // Lowering reads only the schedule and the runtime records, which
    // never change after construct().
    auto T0 = std::chrono::steady_clock::now();
    Sim->Kernel = CompiledKernel::build(*Sim);
    Sim->Kernel->Stats.BuildMs =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - T0)
            .count();
  }
  return Sim;
}

const KernelStats *Simulator::getKernelStats() const {
  return Kernel ? &Kernel->Stats : nullptr;
}

ActivityStats Simulator::getActivityStats() const {
  ActivityStats A = Activity;
  A.NetWrites = Board.NetWrites;
  A.NetChanges = Board.NetChanges;
  return A;
}

bool Simulator::construct() {
  unsigned ErrorsBefore = Diags.getNumErrors();

  // 1. Freeze the netlist's dense numbering: every port instance ("node")
  //    gets a design-wide id (NodeBase + NodeOffset + index), so the
  //    union-find runs over a flat array — no string keys, no hashing.
  const uint32_t NumNodes = NL.freezeIds();
  std::vector<int> Parent(NumNodes); // Union-find over dense node ids.
  for (uint32_t I = 0; I != NumNodes; ++I)
    Parent[I] = int(I);
  auto FindRoot = [&](int X) {
    while (Parent[X] != X)
      X = Parent[X] = Parent[Parent[X]];
    return X;
  };

  for (const auto &Conn : NL.getConnections()) {
    if (!Conn->isFullyResolved())
      continue;
    const netlist::PortRef &F = Conn->From, &T = Conn->To;
    // Endpoints whose port vanished or whose index exceeds the counted
    // width were already diagnosed by elaboration; they have no node.
    if (F.PortIdx < 0 || T.PortIdx < 0 ||
        F.Index >= F.Inst->Ports[size_t(F.PortIdx)].Width ||
        T.Index >= T.Inst->Ports[size_t(T.PortIdx)].Width)
      continue;
    int A = int(netlist::Netlist::nodeIdOf(F));
    int B = int(netlist::Netlist::nodeIdOf(T));
    Parent[FindRoot(A)] = FindRoot(B);
  }

  // 2. Compress to dense net ids, numbered by first appearance in node-id
  //    order (instance creation order, then port declaration order).
  NodeNet.assign(NumNodes, -1);
  std::vector<int> RootNet(NumNodes, -1);
  int NumNets = 0;
  for (uint32_t I = 0; I != NumNodes; ++I) {
    int &RN = RootNet[size_t(FindRoot(int(I)))];
    if (RN < 0)
      RN = NumNets++;
    NodeNet[I] = RN;
  }
  Board.Wires.assign(size_t(NumNets), bsl::Wire());
  Info.NumNets = NumNets;

  // 3. Create runtimes: every leaf, plus any instance carrying userpoints
  //    or runtime variables (they participate in the userpoint phases).
  RuntimeOfInstance.assign(NL.getInstances().size(), nullptr);
  std::vector<int> LeafRuntimes;
  for (const auto &Inst : NL.getInstances()) {
    bool NeedsRuntime = Inst->isLeaf() || !Inst->Userpoints.empty() ||
                        !Inst->RuntimeVars.empty();
    if (!NeedsRuntime)
      continue;
    auto RT = std::make_unique<Runtime>(*this, Inst.get());
    if (Inst->isLeaf()) {
      RT->Behavior = bsl::BehaviorRegistry::global().create(Inst->BehaviorId);
      if (!RT->Behavior) {
        Diags.error(Inst->Loc, "no behavior registered for tar_file '" +
                                   Inst->BehaviorId + "' (instance '" +
                                   Inst->Path + "')");
        continue;
      }
      for (const netlist::Port &P : Inst->Ports) {
        Runtime::PortSlot &PS = RT->addSlot(P.Name);
        PS.Nets.resize(P.Width, -1);
        for (int I = 0; I != P.Width; ++I)
          PS.Nets[I] = NodeNet[Inst->NodeBase + P.NodeOffset + uint32_t(I)];
        if (!P.isInput()) {
          PS.IsOutput = true;
          PS.EventName = "port:" + P.Name;
        }
      }
      LeafRuntimes.push_back(Runtimes.size());
    }
    // Compile userpoints; only those with code to run get an id.
    for (const auto &[Name, UV] : Inst->Userpoints) {
      Runtime::CompiledUserpoint CU;
      CU.Name = Name;
      CU.Sig = UV.Sig;
      CU.Prog = bsl::BslProgram::compile(
          UV.Code, "userpoint:" + Inst->Path + "." + Name, SM, Diags);
      if (!CU.Prog)
        Diags.note(UV.Loc, "while compiling userpoint '" + Name +
                               "' of instance '" + Inst->Path + "'");
      ++Info.NumUserpoints;
      if (CU.Prog && !CU.Prog->getBody().empty())
        RT->Userpoints.push_back(std::move(CU));
    }
    if (int Id = RT->bindUserpoint("init"); Id >= 0)
      InitUserpoints.emplace_back(RT.get(), Id);
    if (int Id = RT->bindUserpoint("end_of_timestep"); Id >= 0)
      EotUserpoints.emplace_back(RT.get(), Id);
    RuntimeOfInstance[Inst->Id] = RT.get();
    Runtimes.push_back(std::move(RT));
  }
  Info.NumLeaves = LeafRuntimes.size();

  // 4. Determine net drivers (the unique leaf outport on each net) and
  //    collect combinational readers.
  struct Reader {
    int ScheduleNode;
    const std::string *Port;
  };
  std::vector<std::vector<Reader>> NetReaders(NumNets);
  std::vector<int> DriverRuntime(NumNets, -1);
  for (unsigned SN = 0; SN != LeafRuntimes.size(); ++SN) {
    Runtime *RT = Runtimes[LeafRuntimes[SN]].get();
    RT->ScheduleNode = SN;
    for (const netlist::Port &P : RT->Node->Ports) {
      int PortId = RT->bindPort(P.Name);
      if (PortId < 0)
        continue;
      for (int NetId : RT->Ports[size_t(PortId)].Nets) {
        if (NetId < 0)
          continue;
        if (P.isInput()) {
          NetReaders[NetId].push_back(Reader{(int)SN, &P.Name});
          continue;
        }
        RT->OutputNets.push_back(NetId);
        int &Driver = DriverRuntime[size_t(NetId)];
        if (Driver >= 0 && Driver != (int)LeafRuntimes[SN]) {
          Diags.error(P.Loc, "net has multiple drivers: port '" + P.Name +
                                 "' of instance '" + RT->Node->Path + "'");
          continue;
        }
        Driver = LeafRuntimes[SN];
      }
    }
    std::sort(RT->OutputNets.begin(), RT->OutputNets.end());
    RT->OutputNets.erase(
        std::unique(RT->OutputNets.begin(), RT->OutputNets.end()),
        RT->OutputNets.end());
  }

  // 5. Build the combinational dependency graph and the static schedule.
  std::vector<std::vector<int>> Successors(LeafRuntimes.size());
  for (int NetId = 0; NetId != NumNets; ++NetId) {
    int Driver = DriverRuntime[size_t(NetId)];
    if (Driver < 0)
      continue;
    int DriverSN = Runtimes[Driver]->ScheduleNode;
    for (const Reader &R : NetReaders[NetId]) {
      Runtime *RT = Runtimes[LeafRuntimes[R.ScheduleNode]].get();
      if (RT->Behavior && RT->Behavior->readsCombinationally(*R.Port))
        Successors[DriverSN].push_back(R.ScheduleNode);
    }
  }
  Sched = computeSchedule(LeafRuntimes.size(), Successors);
  // Re-express schedule nodes as runtime indices.
  for (auto &Group : Sched.Groups)
    for (int &N : Group)
      N = LeafRuntimes[N];

  Info.NumGroups = Sched.Groups.size();
  Info.NumCyclicGroups = Sched.numCyclicGroups();
  Info.MaxGroupSize = Sched.maxGroupSize();

  return Diags.getNumErrors() == ErrorsBefore;
}

//===----------------------------------------------------------------------===//
// Execution
//===----------------------------------------------------------------------===//

void Simulator::reset() {
  Board.Cycle = 0;
  Board.NetWrites = Board.NetChanges = 0;
  Board.Instrumented = !Instr.empty();
  RuntimeErrors = false;
  for (bsl::Wire &W : Board.Wires) {
    W.Has = false;
    W.PrevHas = false;
  }
  Activity = ActivityStats();
  for (auto &RT : Runtimes)
    RT->resetState();
  for (auto &RT : Runtimes)
    if (RT->Behavior)
      RT->Behavior->init(*RT);
  for (auto &[RT, Id] : InitUserpoints)
    RT->callUserpoint(Id, {});
}

void Simulator::evaluateGroup(size_t GroupIdx) {
  const std::vector<int> &Group = Sched.Groups[GroupIdx];
  // Prepare the group's output nets: snapshot last cycle's presence, then
  // clear it so this evaluation starts from a blank slate.
  for (int RTIdx : Group)
    for (int NetId : Runtimes[RTIdx]->OutputNets) {
      bsl::Wire &W = Board.Wires[size_t(NetId)];
      W.PrevHas = W.Has;
      W.Has = false;
    }

  if (Group.size() == 1) {
    Runtime *RT = Runtimes[Group.front()].get();
    if (RT->Behavior) {
      RT->Behavior->evaluate(*RT);
      ++Activity.LeafEvals;
    }
  } else {
    // Combinational cycle: iterate until a pass changes no net.
    bool Converged = false;
    // Watchdog snapshot of the group's output nets, taken before the final
    // allowed iteration: nets that still differ afterwards are the ones
    // oscillating, and the failure report names them with their values.
    std::vector<std::pair<int, interp::Value>> Watch;
    std::vector<char> WatchHas;
    for (unsigned Iter = 0; Iter != Opts.MaxFixpointIters; ++Iter) {
      Board.Dirty = false;
      ++Activity.FixpointIters;
      if (Iter + 1 == Opts.MaxFixpointIters) {
        for (int RTIdx : Group)
          for (int NetId : Runtimes[RTIdx]->OutputNets) {
            const bsl::Wire &W = Board.Wires[size_t(NetId)];
            Watch.emplace_back(NetId, W.V);
            WatchHas.push_back(W.Has);
          }
      }
      for (int RTIdx : Group) {
        Runtime *RT = Runtimes[RTIdx].get();
        if (RT->Behavior) {
          RT->Behavior->evaluate(*RT);
          ++Activity.LeafEvals;
        }
      }
      if (!Board.Dirty) {
        Converged = true;
        break;
      }
    }
    if (!Converged && !RuntimeErrors) {
      std::vector<int> Osc;
      for (size_t W = 0; W != Watch.size() && Osc.size() < 8; ++W) {
        const bsl::Wire &N = Board.Wires[size_t(Watch[W].first)];
        if (char(N.Has) != WatchHas[W] || !N.V.equals(Watch[W].second))
          Osc.push_back(Watch[W].first);
      }
      reportFixpointFailure(GroupIdx, Osc);
      RuntimeErrors = true;
    }
  }
  ++Activity.GroupsEvaluated;
}

void Simulator::reportFixpointFailure(size_t GroupIdx,
                                      const std::vector<int> &Osc) {
  const std::vector<int> &Group = Sched.Groups[GroupIdx];
  std::string Members;
  unsigned Listed = 0;
  for (int RTIdx : Group) {
    if (Listed == 8) {
      Members += ", ...";
      break;
    }
    if (Listed++)
      Members += ", ";
    Members += "'" + Runtimes[RTIdx]->Node->Path + "'";
  }
  Diags.error(SourceLoc(),
              "combinational cycle did not converge within " +
                  std::to_string(Opts.MaxFixpointIters) +
                  " iterations; group members: " + Members);
  // Name the nets the watchdog saw still changing in the final iteration,
  // with the values they oscillated to — the concrete evidence for
  // debugging the cycle. Each net is named after its first port instance
  // in creation order ("path.port[index]"); cold path, so the full scan
  // over the netlist is fine.
  if (Osc.empty())
    return;
  std::map<int, std::string> NetName;
  for (const auto &Inst : NL.getInstances())
    for (const netlist::Port &P : Inst->Ports)
      for (int I = 0; I != P.Width; ++I) {
        int NetId = NodeNet[Inst->NodeBase + P.NodeOffset + uint32_t(I)];
        if (std::find(Osc.begin(), Osc.end(), NetId) == Osc.end() ||
            NetName.count(NetId))
          continue;
        NetName[NetId] =
            Inst->Path + "." + P.Name + "[" + std::to_string(I) + "]";
      }
  for (int NetId : Osc) {
    const bsl::Wire &N = Board.Wires[size_t(NetId)];
    auto It = NetName.find(NetId);
    std::string Name = It != NetName.end() ? It->second
                                           : "net #" + std::to_string(NetId);
    Diags.note(SourceLoc(), "net '" + Name + "' was still changing; last "
                            "value: " +
                                (N.Has ? N.V.str() : "<absent>"));
  }
}

void Simulator::runSequentialPhase() {
  for (auto &RT : Runtimes)
    if (RT->Behavior)
      RT->Behavior->endOfTimestep(*RT);
  for (auto &[RT, Id] : EotUserpoints)
    RT->callUserpoint(Id, {});
}

void Simulator::step(uint64_t N) {
  // Collectors only attach between step() calls.
  Board.Instrumented = !Instr.empty();
  if (Kernel) {
    Kernel->run(*this, N);
    return;
  }
  for (uint64_t I = 0; I != N; ++I) {
    for (size_t G = 0; G != Sched.Groups.size(); ++G)
      evaluateGroup(G);
    runSequentialPhase();
    ++Board.Cycle;
    ++Activity.Cycles;
  }
}

//===----------------------------------------------------------------------===//
// Probing
//===----------------------------------------------------------------------===//

int Simulator::resolvePortNet(const std::string &InstPath,
                              const std::string &Port, int Index) const {
  const netlist::InstanceNode *Inst = NL.findByPath(InstPath);
  if (!Inst)
    return -1;
  int PI = Inst->findPortIdx(Port);
  if (PI < 0)
    return -1;
  const netlist::Port &P = Inst->Ports[size_t(PI)];
  if (Index < 0 || Index >= P.Width)
    return -1;
  return NodeNet[Inst->NodeBase + P.NodeOffset + uint32_t(Index)];
}

const Value *Simulator::peekPort(int NetId) const {
  if (NetId < 0 || NetId >= int(Board.Wires.size()))
    return nullptr;
  const bsl::Wire &W = Board.Wires[size_t(NetId)];
  return W.Has ? &W.V : nullptr;
}

const Value *Simulator::peekPort(const std::string &InstPath,
                                 const std::string &Port, int Index) const {
  return peekPort(resolvePortNet(InstPath, Port, Index));
}

interp::Value *Simulator::findState(const std::string &InstPath,
                                    const std::string &Name) {
  const netlist::InstanceNode *Inst = NL.findByPath(InstPath);
  if (!Inst || Inst->Id >= RuntimeOfInstance.size())
    return nullptr;
  Runtime *RT = RuntimeOfInstance[Inst->Id];
  return RT ? RT->StateVars.lookup(Name) : nullptr;
}
