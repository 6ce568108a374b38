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

#include "interp/Value.h"

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace liberty {

namespace types {
class Type;
}

namespace bsl {

/// The window through which a leaf behavior sees the simulation. One
/// context exists per leaf instance; the simulator implements it.
class BehaviorContext {
public:
  virtual ~BehaviorContext();

  /// Width (number of port instances) of a port; 0 if unconnected or
  /// undeclared. Unconnected-port semantics (Section 4.2) let behaviors
  /// adapt to missing connections.
  virtual int getWidth(const std::string &Port) const = 0;

  /// The inferred ground type of a port, or null if the port is absent.
  virtual const types::Type *getPortType(const std::string &Port) const = 0;

  /// The value present on input port instance (\p Port, \p Index) this
  /// cycle, or null if none was sent.
  virtual const interp::Value *getInput(const std::string &Port,
                                        int Index) const = 0;

  /// Sends \p V on output port instance (\p Port, \p Index). Also fires the
  /// automatic port event for instrumentation.
  virtual void setOutput(const std::string &Port, int Index,
                         interp::Value V) = 0;

  /// Pre-resolves \p Port to a dense port id for the indexed accessors
  /// below, or -1 if the instance has no such (connected or declared)
  /// port. Behaviors bind their ports once in init() and then read/write
  /// through the id on the per-cycle hot path, skipping the name scan.
  /// Ids are stable for the lifetime of the context (across reset()).
  virtual int bindPort(const std::string &Port) const = 0;

  /// Indexed twins of the string accessors above. A PortId of -1 behaves
  /// like an unconnected port: width 0, no input value, sends vanish.
  virtual int getWidth(int PortId) const = 0;
  virtual const interp::Value *getInput(int PortId, int Index) const = 0;
  virtual void setOutput(int PortId, int Index, interp::Value V) = 0;

  /// Structural parameter lookup; null if absent.
  virtual const interp::Value *getParam(const std::string &Name) const = 0;

  /// True if the instance carries a userpoint named \p Name.
  virtual bool hasUserpoint(const std::string &Name) const = 0;

  /// Invokes a userpoint with positional arguments (bound to the
  /// signature's argument names) and returns its return value.
  virtual interp::Value callUserpoint(const std::string &Name,
                                      std::vector<interp::Value> Args) = 0;

  /// Mutable per-instance state; creates an Unset slot on first use.
  /// Runtime variables declared in LSS appear here with their initial
  /// values.
  virtual interp::Value &state(const std::string &Name) = 0;

  /// Pre-resolves a state name to a dense slot id (creating the slot if
  /// new); state(int) then reads it without a name scan. Ids are stable
  /// across reset().
  virtual int bindState(const std::string &Name) = 0;
  virtual interp::Value &state(int StateId) = 0;

  /// Emits a declared instrumentation event.
  virtual void emitEvent(const std::string &Event, interp::Value Payload) = 0;

  virtual uint64_t getCycle() const = 0;
  virtual const std::string &getInstancePath() const = 0;
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
