//===- Netlist.cpp - Elaborated static structure ---------------------------===//

#include "netlist/Netlist.h"

#include "lss/AST.h"
#include "types/Type.h"

#include <ostream>

using namespace liberty;
using namespace liberty::netlist;

Port *InstanceNode::findPort(const std::string &PortName) {
  for (Port &P : Ports)
    if (P.Name == PortName)
      return &P;
  return nullptr;
}

const Port *InstanceNode::findPort(const std::string &PortName) const {
  for (const Port &P : Ports)
    if (P.Name == PortName)
      return &P;
  return nullptr;
}

int InstanceNode::findPortIdx(const std::string &PortName) const {
  for (size_t I = 0; I != Ports.size(); ++I)
    if (Ports[I].Name == PortName)
      return static_cast<int>(I);
  return -1;
}

unsigned InstanceNode::subtreeSize() const {
  unsigned N = 1;
  for (const InstanceNode *Child : Children)
    N += Child->subtreeSize();
  return N;
}

Netlist::Netlist() {
  auto RootNode = std::make_unique<InstanceNode>();
  RootNode->Name = "<top>";
  RootNode->Path = "";
  RootNode->Id = 0;
  Root = RootNode.get();
  Instances.push_back(std::move(RootNode));
}

Netlist::~Netlist() = default;

const lss::UserpointSig *
Netlist::createUserpointSig(std::vector<std::string> ArgNames) {
  auto Sig = std::make_unique<lss::UserpointSig>();
  for (std::string &Name : ArgNames)
    Sig->Args.emplace_back(std::move(Name), nullptr);
  OwnedSigs.push_back(std::move(Sig));
  return OwnedSigs.back().get();
}

InstanceNode *Netlist::createInstance(InstanceNode *Parent, std::string Name,
                                      const lss::ModuleDecl *Module,
                                      SourceLoc Loc) {
  auto Node = std::make_unique<InstanceNode>();
  Node->Name = std::move(Name);
  Node->Path = (Parent == Root || Parent->Path.empty())
                   ? Node->Name
                   : Parent->Path + "." + Node->Name;
  Node->Module = Module;
  if (Module)
    Node->ModuleName = Module->getName();
  Node->Parent = Parent;
  Node->Loc = Loc;
  Node->Id = static_cast<uint32_t>(Instances.size());
  InstanceNode *Ptr = Node.get();
  Parent->Children.push_back(Ptr);
  Instances.push_back(std::move(Node));
  IdsFrozen = false;
  return Ptr;
}

Connection *Netlist::createConnection(SourceLoc Loc) {
  auto Conn = std::make_unique<Connection>();
  Conn->Loc = Loc;
  Connection *Ptr = Conn.get();
  Connections.push_back(std::move(Conn));
  return Ptr;
}

InstanceNode *Netlist::findByPath(const std::string &Path) {
  // Index the instances created since the last lookup, in creation order,
  // so the first creation wins on (malformed) duplicate paths.
  for (; NumPathsIndexed != Instances.size(); ++NumPathsIndexed) {
    InstanceNode *N = Instances[NumPathsIndexed].get();
    PathIndex.emplace(N->Path, N);
  }
  auto It = PathIndex.find(Path);
  return It == PathIndex.end() ? nullptr : It->second;
}

uint32_t Netlist::freezeIds() {
  if (IdsFrozen)
    return NumPortNodes;
  uint32_t Next = 0;
  for (auto &InstPtr : Instances) {
    InstanceNode &N = *InstPtr;
    N.NodeBase = Next;
    uint32_t Off = 0;
    for (Port &P : N.Ports) {
      P.NodeOffset = Off;
      if (P.Width > 0)
        Off += static_cast<uint32_t>(P.Width);
    }
    Next += Off;
  }
  NumPortNodes = Next;
  for (auto &C : Connections) {
    for (PortRef *R : {&C->From, &C->To}) {
      if (!R->Inst)
        continue;
      R->PortIdx = R->Inst->findPortIdx(R->Port);
    }
  }
  IdsFrozen = true;
  return NumPortNodes;
}

static void printInstance(std::ostream &OS, const InstanceNode *Node,
                          unsigned Indent) {
  for (unsigned I = 0; I != Indent; ++I)
    OS << "  ";
  OS << (Node->Name.empty() ? "<top>" : Node->Name);
  if (Node->isLeaf())
    OS << " [leaf:" << Node->BehaviorId << "]";
  OS << "\n";
  for (const Port &P : Node->Ports) {
    for (unsigned I = 0; I != Indent + 1; ++I)
      OS << "  ";
    OS << (P.isInput() ? "inport " : "outport ") << P.Name
       << " width=" << P.Width;
    if (P.Resolved)
      OS << " : " << P.Resolved->str();
    else if (P.Scheme)
      OS << " :~ " << P.Scheme->str();
    OS << "\n";
  }
  for (const InstanceNode *Child : Node->Children)
    printInstance(OS, Child, Indent + 1);
}

void Netlist::print(std::ostream &OS) const {
  printInstance(OS, Root, 0);
  OS << Connections.size() << " connections\n";
}

NetlistCounts liberty::netlist::countInstancesAndConnections(const Netlist &NL) {
  NetlistCounts N;
  for (const auto &Inst : NL.getInstances())
    if (!Inst->ModuleName.empty())
      ++N.Instances;
  for (const auto &Conn : NL.getConnections())
    if (Conn->isFullyResolved())
      ++N.Connections;
  return N;
}
