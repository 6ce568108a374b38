//===- Netlist.h - Elaborated static structure ------------------*- C++ -*-===//
///
/// \file
/// The netlist `M` of the paper's evaluation semantics: the static structure
/// produced by compile-time execution of an LSS specification. It records
/// the instance hierarchy, per-port widths and type schemes, connections
/// between port instances, resolved parameter/userpoint values, declared
/// events, and runtime variables — everything downstream analyses (type
/// inference, scheduling, code generation) consume.
///
//===----------------------------------------------------------------------===//

#ifndef LIBERTY_NETLIST_NETLIST_H
#define LIBERTY_NETLIST_NETLIST_H

#include "interp/Value.h"
#include "support/SourceMgr.h"

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace liberty {

namespace lss {
class ModuleDecl;
class TypeExpr;
struct UserpointSig;
class Expr;
}

namespace types {
class Type;
}

namespace netlist {

class InstanceNode;
class Connection;

enum class PortDirection { In, Out };

/// A resolved connection endpoint: one port instance.
struct PortRef {
  InstanceNode *Inst = nullptr;
  std::string Port;
  int Index = -1;
  /// Dense index of Port within Inst->Ports; filled by Netlist::freezeIds()
  /// (-1 until then). Lets hot paths skip the by-name port scan.
  int PortIdx = -1;

  bool isResolved() const { return Index >= 0; }
};

/// A port on an instance. Per the paper (Section 4.2), every port is a
/// variable-length array of port instances; Width is the number of
/// connections made to it, counted by use-based specialization.
class Port {
public:
  std::string Name;
  /// Offset of this port's first port instance within the owning
  /// instance's node block (see InstanceNode::NodeBase); filled by
  /// Netlist::freezeIds(). Node id of instance I of this port is
  /// `Inst->NodeBase + NodeOffset + I`.
  uint32_t NodeOffset = 0;
  PortDirection Dir = PortDirection::In;
  SourceLoc Loc;

  /// The syntactic annotation from the module body (for reuse statistics).
  const lss::TypeExpr *AnnotationTE = nullptr;
  /// The per-instance semantic scheme; contains this instance's fresh type
  /// variables if the annotation was polymorphic.
  const types::Type *Scheme = nullptr;
  /// Filled by inference: the resolved ground type, one for all instances
  /// of the port.
  const types::Type *Resolved = nullptr;
  /// The inference engine's variable standing for this port's type.
  const types::Type *InferVar = nullptr;

  /// Number of port instances in use (external connections).
  int Width = 0;
  /// True if Width was inferred by counting connections (always, in LSS —
  /// kept explicit so Table 2 can count inferred widths faithfully).
  bool WidthInferred = false;

  bool isInput() const { return Dir == PortDirection::In; }
};

/// A userpoint value attached to an instance: the signature from the module
/// declaration plus the BSL code string chosen by the user (or default).
struct UserpointValue {
  const lss::UserpointSig *Sig = nullptr;
  std::string Code;
  SourceLoc Loc;
  bool IsDefault = false;
};

/// A runtime variable declared by the module (Section 4.3): simulation
/// state readable/writable from userpoints.
struct RuntimeVar {
  std::string Name;
  interp::Value Init;
  SourceLoc Loc;
};

/// Pending (use-site) records for an instance whose body has not yet run —
/// the per-child slice of the semantics' B context, turned into the child's
/// A context when the child is popped from the instantiation stack.
struct PendingAssign {
  std::string Field;
  interp::Value V;
  SourceLoc Loc;
  bool Consumed = false;
};

struct PendingConn {
  Connection *Conn = nullptr;
  bool IsFrom = false; ///< Which endpoint of Conn refers to this instance.
  std::string Port;
  int ExplicitIndex = -1;
  SourceLoc Loc;
  bool Consumed = false;
};

/// One module instance in the elaborated hierarchy.
class InstanceNode {
public:
  /// Dense creation-order id: index of this node in Netlist::getInstances()
  /// (root is 0). Assigned by Netlist::createInstance and stable for the
  /// netlist's lifetime — serializers and per-instance side tables index
  /// flat arrays with it instead of rebuilding pointer maps.
  uint32_t Id = 0;
  /// Base node id for this instance's port-instance block; filled by
  /// Netlist::freezeIds(). Port instance I of port P has the design-wide
  /// dense node id `NodeBase + P.NodeOffset + I`.
  uint32_t NodeBase = 0;
  std::string Name; ///< Local name, e.g. "delays[2]".
  /// Hierarchical path, e.g. "delay3.delays[2]"; "" for the root. Set
  /// once by Netlist::createInstance and never changed: the netlist's path
  /// index keys views of it.
  std::string Path;
  const lss::ModuleDecl *Module = nullptr; ///< Null for the synthetic root.
  /// Name of the instantiated module; empty for the synthetic root. Kept
  /// separately from Module so consumers that only need the name (stats,
  /// emitters, serialization) work on reloaded netlists, where the AST —
  /// and therefore Module — does not exist.
  std::string ModuleName;
  InstanceNode *Parent = nullptr;
  std::vector<InstanceNode *> Children;
  SourceLoc Loc;

  /// Set when the body assigns tar_file; identifies the leaf behavior.
  std::string BehaviorId;
  bool isLeaf() const { return !BehaviorId.empty(); }

  /// Parameter values after defaulting and use-based assignment.
  std::map<std::string, interp::Value> Params;
  /// Userpoint parameter values.
  std::map<std::string, UserpointValue> Userpoints;
  /// Declared instrumentation events.
  std::vector<std::string> Events;
  /// Runtime variables with evaluated initial values.
  std::vector<RuntimeVar> RuntimeVars;

  std::vector<Port> Ports;
  /// Extra type constraints from `constrain` statements (lhs = rhs).
  std::vector<std::pair<const types::Type *, const types::Type *>>
      ExtraConstraints;
  /// Number of distinct type variables minted for this instance's ports —
  /// the count of explicit type instantiations a user would need without
  /// inference (Table 2).
  unsigned NumTypeVars = 0;

  /// Pending use-site records (consumed by the instance's own body).
  std::vector<PendingAssign> APendingAssigns;
  std::vector<PendingConn> APendingConns;

  Port *findPort(const std::string &Name);
  const Port *findPort(const std::string &Name) const;
  /// Index of the named port within Ports, or -1.
  int findPortIdx(const std::string &Name) const;

  /// Total number of instances in this subtree, including this node.
  unsigned subtreeSize() const;
};

/// A connection between two port instances. Endpoints referring to
/// sub-instances are resolved (index assigned, existence checked) when the
/// sub-instance's own body declares the port.
class Connection {
public:
  PortRef From;
  PortRef To;
  SourceLoc Loc;
  /// Optional user type annotation (Section 5), already converted.
  const types::Type *Annotation = nullptr;

  bool isFullyResolved() const {
    return From.isResolved() && To.isResolved();
  }
};

/// The whole elaborated design.
class Netlist {
public:
  Netlist();
  ~Netlist(); ///< Out of line: OwnedSigs needs the complete UserpointSig.

  InstanceNode *getRoot() { return Root; }
  const InstanceNode *getRoot() const { return Root; }

  /// Creates a child of \p Parent named \p Name instantiating \p Module.
  InstanceNode *createInstance(InstanceNode *Parent, std::string Name,
                               const lss::ModuleDecl *Module, SourceLoc Loc);

  Connection *createConnection(SourceLoc Loc);

  /// All instances in creation order (root first).
  const std::vector<std::unique_ptr<InstanceNode>> &getInstances() const {
    return Instances;
  }
  const std::vector<std::unique_ptr<Connection>> &getConnections() const {
    return Connections;
  }

  /// Finds an instance by hierarchical path (e.g. "cpu.fetch"); returns
  /// null if absent. O(1) amortized: backed by a path index that the
  /// first lookup builds and later lookups extend with the instances
  /// created since, so elaboration itself never pays for it.
  InstanceNode *findByPath(const std::string &Path);

  /// Freezes the dense numbering layer: assigns every port a NodeOffset
  /// and every instance a NodeBase so each port instance ("node") has a
  /// design-wide dense id, and resolves PortIdx on every connection
  /// endpoint. Idempotent; call after elaboration or
  /// deserialization, before building schedulers/kernels. Returns the
  /// total node count.
  uint32_t freezeIds();
  /// Total port-instance (node) count; valid after freezeIds().
  uint32_t getNumPortNodes() const { return NumPortNodes; }
  /// Dense node id of a resolved endpoint; valid after freezeIds().
  static uint32_t nodeIdOf(const PortRef &R) {
    return R.Inst->NodeBase +
           R.Inst->Ports[static_cast<size_t>(R.PortIdx)].NodeOffset +
           static_cast<uint32_t>(R.Index);
  }

  /// Pretty-prints the hierarchy with widths and resolved types.
  void print(std::ostream &OS) const;

  /// Allocates a userpoint signature owned by this netlist, carrying only
  /// the argument names (type expressions stay null). Deserialized
  /// netlists have no AST to point into, so UserpointValue::Sig points at
  /// these reconstructed signatures instead; the simulator only reads the
  /// argument names, which is exactly what survives serialization.
  const lss::UserpointSig *
  createUserpointSig(std::vector<std::string> ArgNames);

private:
  InstanceNode *Root;
  std::vector<std::unique_ptr<InstanceNode>> Instances;
  std::vector<std::unique_ptr<Connection>> Connections;
  /// Owned signatures for reloaded userpoints (see createUserpointSig).
  std::vector<std::unique_ptr<lss::UserpointSig>> OwnedSigs;
  /// InstanceNode::Path -> instance for the first NumPathsIndexed
  /// instances, first creation wins on (malformed) duplicate paths. Keys
  /// view the nodes' own Path strings, which stay put: nodes are
  /// heap-allocated, never moved, and Path never changes.
  std::unordered_map<std::string_view, InstanceNode *> PathIndex;
  size_t NumPathsIndexed = 0;
  bool IdsFrozen = false;
  uint32_t NumPortNodes = 0;
};

/// The two counts a compile verdict reports: instances other than the
/// synthetic root (every instance with an empty module name is skipped),
/// and connections whose two endpoints resolved. computeModelStats and the
/// LSSNL summary record both count through this function, so a warm
/// compile reads the same numbers a cold one computes.
struct NetlistCounts {
  uint32_t Instances = 0;
  uint32_t Connections = 0;
};
NetlistCounts countInstancesAndConnections(const Netlist &NL);

} // namespace netlist
} // namespace liberty

#endif // LIBERTY_NETLIST_NETLIST_H
