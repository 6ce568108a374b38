//===- BehaviorRegistry.h - Leaf behavior substrate -------------*- C++ -*-===//
///
/// \file
/// The leaf-component behavior substrate. LSE resolved a leaf module's
/// tar_file to externally-supplied behavior code; here the tar_file id is
/// resolved against a registry of C++ LeafBehavior factories (the
/// substitution is documented in DESIGN.md). Behaviors interact with the
/// generated simulator exclusively through BehaviorContext, which exposes
/// ports, parameters, userpoints, runtime state, and event emission.
///
//===----------------------------------------------------------------------===//

#ifndef LIBERTY_BSL_BEHAVIORREGISTRY_H
#define LIBERTY_BSL_BEHAVIORREGISTRY_H

#include "bsl/StateTable.h"
#include "interp/Value.h"

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace liberty {

namespace types {
class Type;
}

namespace bsl {

/// One simulation net as behaviors see it.
struct Wire {
  interp::Value V;
  bool Has = false;     ///< Sent this cycle (or, mid-group, this round).
  bool PrevHas = false; ///< Sent last cycle (snapshotted pre-evaluation).
};

/// What every context of one simulator shares: the dense wire array the
/// port accessors index, the current cycle, and the bookkeeping that
/// the BehaviorContext::setOutput* calls keep. The simulator owns it.
struct WireBoard {
  std::vector<Wire> Wires;
  uint64_t Cycle = 0;
  uint64_t NetWrites = 0;  ///< setOutput* calls reaching a wire.
  uint64_t NetChanges = 0; ///< Writes that changed the value or presence.
  /// Set by any write that changes a value or makes it present; a
  /// fixpoint iteration that leaves it clear has converged.
  bool Dirty = false;
  /// A collector is attached: events are built and delivered. While it
  /// is clear, emitEvent and the automatic port events cost one test.
  bool Instrumented = false;
};

/// The window through which a leaf behavior sees the simulation. One
/// context exists per leaf instance; the simulator's per-instance record
/// derives from it. The port, state and cycle accessors are concrete and
/// inline (ports read and write the shared WireBoard) — both engines call
/// behaviors through them on the per-cycle path. Parameters, port types,
/// userpoints and event delivery reach the simulator through the virtual
/// cold path.
class BehaviorContext {
public:
  explicit BehaviorContext(WireBoard &Board) : Board(&Board) {}
  virtual ~BehaviorContext();

  /// Resolves \p Port to a dense port id for the accessors below, or -1
  /// if the instance has no such port. Behaviors bind their ports once in
  /// init() and then read/write through the id on the per-cycle path.
  /// Ids are stable for the lifetime of the context (across reset()).
  int bindPort(const std::string &Port) const {
    for (size_t I = 0; I != Ports.size(); ++I)
      if (Ports[I].Name == Port)
        return int(I);
    return -1;
  }

  /// Width (number of port instances) of a bound port. A PortId of -1
  /// behaves like an unconnected port: width 0, no input value, sends
  /// vanish. Unconnected-port semantics (Section 4.2) let behaviors adapt
  /// to missing connections.
  int getWidth(int PortId) const {
    return validPort(PortId) ? int(Ports[size_t(PortId)].Nets.size()) : 0;
  }

  /// The value present on input port instance (\p PortId, \p Index) this
  /// cycle, or null if none was sent.
  const interp::Value *getInput(int PortId, int Index) const {
    int NetId = netOf(PortId, Index);
    if (NetId < 0)
      return nullptr;
    const Wire &W = Board->Wires[size_t(NetId)];
    return W.Has ? &W.V : nullptr;
  }

  /// Sends \p V on output port instance (\p PortId, \p Index) and fires
  /// the automatic port event. The first send of a round marks the board
  /// dirty even if the value matches last cycle's, so a cyclic group
  /// always re-runs after its members' first sends; the stored value is
  /// only reassigned when it observably changed.
  void setOutput(int PortId, int Index, const interp::Value &V) {
    send(PortId, Index, V);
  }
  void setOutput(int PortId, int Index, interp::Value &&V) {
    send(PortId, Index, std::move(V));
  }
  /// setOutput(PortId, Index, Value::makeInt(V)) without building the
  /// Value: the same counts, dirty marking and port event, with the
  /// comparison and the store made in place on the wire.
  void setOutputInt(int PortId, int Index, int64_t V) {
    send(PortId, Index, V);
  }
  /// The Bool counterpart of setOutputInt.
  void setOutputBool(int PortId, int Index, bool V) {
    send(PortId, Index, V);
  }

  /// Resolves a state name to a dense slot id (creating the slot if new);
  /// state(int) then reads it without a name scan. Ids, and references
  /// returned by state(), are stable across reset().
  int bindState(const std::string &Name) { return StateVars.bind(Name); }
  interp::Value &state(int StateId) { return StateVars.slot(StateId); }

  /// Mutable per-instance state; creates an Unset slot on first use.
  /// Runtime variables declared in LSS appear here with their initial
  /// values.
  interp::Value &state(const std::string &Name) { return StateVars[Name]; }

  /// Emits a declared instrumentation event. Costs one test when no
  /// collector is attached.
  void emitEvent(std::string_view Event, const interp::Value &Payload) {
    if (Board->Instrumented)
      deliverEvent(std::string(Event), Payload);
  }

  uint64_t getCycle() const { return Board->Cycle; }

  /// The inferred ground type of a port, or null if the port is absent.
  virtual const types::Type *getPortType(const std::string &Port) const = 0;

  /// Structural parameter lookup; null if absent.
  virtual const interp::Value *getParam(const std::string &Name) const = 0;

  /// Resolves userpoint \p Name to an id for callUserpoint(), or -1 if
  /// the instance has no such userpoint or its code is empty. Behaviors
  /// bind userpoints once in init() and skip the call for -1, which
  /// would do nothing and return Unset.
  virtual int bindUserpoint(const std::string &Name) const = 0;

  /// Invokes a bound userpoint with positional arguments (named by its
  /// signature) and returns its return value; Unset for id -1.
  virtual interp::Value callUserpoint(int UserpointId,
                                      std::vector<interp::Value> Args) = 0;

  virtual const std::string &getInstancePath() const = 0;

protected:
  /// One declared port, addressed by the id bindPort() hands out. The
  /// table is filled at construction and never changes afterwards, so
  /// references into it (EventName) are stable.
  struct PortSlot {
    std::string Name;
    std::vector<int> Nets; ///< Wire index per port instance (-1 unconnected).
    std::string EventName; ///< "port:<name>" for outputs, "" for inputs.
    bool IsOutput = false;
  };

  /// Hands an event to the attached collectors; only called while
  /// WireBoard::Instrumented is set. \p Payload is valid for the call.
  virtual void deliverEvent(const std::string &Event,
                            const interp::Value &Payload) = 0;

  WireBoard *Board;
  std::vector<PortSlot> Ports;
  /// Behavior state and BSL runtime variables.
  StateTable StateVars;

private:
  bool validPort(int PortId) const {
    return PortId >= 0 && PortId < int(Ports.size());
  }
  /// The wire index of (\p PortId, \p Index), or -1 if the port is
  /// absent, the index out of range, or the instance unconnected.
  int netOf(int PortId, int Index) const {
    if (!validPort(PortId))
      return -1;
    const std::vector<int> &Nets = Ports[size_t(PortId)].Nets;
    return Index >= 0 && Index < int(Nets.size()) ? Nets[size_t(Index)] : -1;
  }
  /// \p V is a Value, an int64_t or a bool; sameValue and store have one
  /// overload for each.
  template <class ValueT> void send(int PortId, int Index, ValueT &&V) {
    int NetId = netOf(PortId, Index);
    if (NetId < 0)
      return; // Unconnected: the value vanishes.
    Wire &W = Board->Wires[size_t(NetId)];
    ++Board->NetWrites;
    if (!W.Has) {
      Board->Dirty = true;
      W.Has = true;
      if (!W.PrevHas || !sameValue(W.V, V)) {
        store(W.V, std::forward<ValueT>(V));
        ++Board->NetChanges;
      }
    } else if (!sameValue(W.V, V)) {
      // Re-send with a different value (fixpoint iteration).
      store(W.V, std::forward<ValueT>(V));
      Board->Dirty = true;
      ++Board->NetChanges;
    }
    if (Board->Instrumented && Ports[size_t(PortId)].IsOutput)
      deliverEvent(Ports[size_t(PortId)].EventName, W.V);
  }
  /// Value::equals with the integer and boolean cases inline.
  static bool sameValue(const interp::Value &A, const interp::Value &B) {
    if (A.isInt() && B.isInt())
      return A.getInt() == B.getInt();
    if (A.isBool() && B.isBool())
      return A.getBool() == B.getBool();
    return A.equals(B);
  }
  static bool sameValue(const interp::Value &A, int64_t B) {
    return A.isInt() && A.getInt() == B;
  }
  static bool sameValue(const interp::Value &A, bool B) {
    return A.isBool() && A.getBool() == B;
  }
  /// Assignment with the in-place integer and boolean stores
  /// (observationally the same as copying the value).
  template <class ValueT>
  static void store(interp::Value &Dst, ValueT &&Src) {
    if (Src.isInt())
      Dst.setInt(Src.getInt());
    else if (Src.isBool())
      Dst.setBool(Src.getBool());
    else
      Dst = std::forward<ValueT>(Src);
  }
  static void store(interp::Value &Dst, int64_t Src) { Dst.setInt(Src); }
  static void store(interp::Value &Dst, bool Src) { Dst.setBool(Src); }
};

/// Base class for leaf-component behaviors.
class LeafBehavior {
public:
  virtual ~LeafBehavior();

  /// Called once before the first cycle.
  virtual void init(BehaviorContext &Ctx);

  /// Combinational phase: read inputs, write outputs. May run more than
  /// once per cycle when the instance sits inside a combinational cycle.
  virtual void evaluate(BehaviorContext &Ctx) = 0;

  /// Sequential phase: runs after every evaluate() has settled; state
  /// updates belong here.
  virtual void endOfTimestep(BehaviorContext &Ctx);

  /// True if evaluate() reads \p Port this cycle (creates a scheduling
  /// edge). Sequential elements return false so they can break cycles.
  virtual bool readsCombinationally(const std::string &Port) const;
};

/// Maps tar_file-style behavior ids to factories.
class BehaviorRegistry {
public:
  using Factory = std::function<std::unique_ptr<LeafBehavior>()>;

  /// The process-wide registry (function-local static; no global ctor).
  static BehaviorRegistry &global();

  /// Registers \p F under \p Id; later registrations replace earlier ones.
  void registerBehavior(const std::string &Id, Factory F);

  bool contains(const std::string &Id) const;
  std::unique_ptr<LeafBehavior> create(const std::string &Id) const;

  /// Ids in sorted order (for listings and stats).
  std::vector<std::string> ids() const;

private:
  std::map<std::string, Factory> Factories;
};

} // namespace bsl
} // namespace liberty

#endif // LIBERTY_BSL_BEHAVIORREGISTRY_H
