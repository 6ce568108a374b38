//===- Simulator.h - Generated executable simulator -------------*- C++ -*-===//
///
/// \file
/// The back end of the LSS pipeline (paper Figure 4): combines the analyzed
/// netlist with leaf behavior implementations and userpoint code into an
/// executable simulator. LSE emitted a compiled binary; this implementation
/// builds an in-process simulator object over the same inputs (see the
/// substitution table in DESIGN.md).
///
/// Execution model: synchronous digital hardware. Each cycle has a
/// combinational phase — leaf instances evaluated in the statically
/// computed schedule, cyclic groups iterated to a fixpoint — followed by a
/// sequential phase (endOfTimestep + end_of_timestep userpoints).
///
/// Two engines step the simulator, and both run every leaf's own
/// evaluate() and endOfTimestep(). The interp engine walks the schedule
/// group by group; it defines the semantics and is the oracle the other
/// engine is tested against. The compiled engine (the default) replays a
/// flat op list lowered once from the same schedule (sim/CompiledKernel).
/// Both produce bit-identical event streams, final net values, runtime
/// state and activity counters.
///
//===----------------------------------------------------------------------===//

#ifndef LIBERTY_SIM_SIMULATOR_H
#define LIBERTY_SIM_SIMULATOR_H

#include "bsl/BehaviorRegistry.h"
#include "bsl/BslProgram.h"
#include "netlist/Netlist.h"
#include "sim/Instrumentation.h"
#include "sim/Scheduler.h"
#include "support/Diagnostics.h"

#include <memory>
#include <string>
#include <vector>

namespace liberty {
namespace sim {

class CompiledKernel;
struct KernelStats;

/// Which engine steps the simulator (lssc --sim-engine).
enum class EngineKind {
  Interp,   ///< Exhaustive serial interpreter: the reference oracle.
  Compiled, ///< Flat cycle kernel (sim/CompiledKernel).
};

/// Stable lowercase name ("interp", "compiled") for CLI/stats.
const char *engineName(EngineKind K);
/// Parses an engineName() string; returns false and leaves \p Out
/// untouched on an unknown name.
bool parseEngineName(const std::string &Name, EngineKind &Out);

/// Per-run activity counters, reported through --stats-json and
/// cumulative since the last reset(). Both engines count the same work.
struct ActivityStats {
  uint64_t Cycles = 0;        ///< Cycles stepped.
  uint64_t GroupsEvaluated = 0;
  uint64_t LeafEvals = 0;     ///< Behavior evaluate() calls.
  uint64_t FixpointIters = 0; ///< Iterations spent in cyclic groups.
  uint64_t NetWrites = 0;     ///< setOutput calls reaching a net.
  uint64_t NetChanges = 0;    ///< Writes that changed value or presence.
};

class Simulator {
public:
  struct Options {
    /// Iteration cap for combinational cycles before declaring
    /// non-convergence.
    unsigned MaxFixpointIters = 64;
    /// Engine selection (lssc --sim-engine).
    EngineKind Engine = EngineKind::Compiled;
  };

  /// Structural facts about the generated simulator.
  struct BuildInfo {
    unsigned NumNets = 0;
    unsigned NumLeaves = 0;
    unsigned NumGroups = 0;
    unsigned NumCyclicGroups = 0;
    unsigned MaxGroupSize = 0;
    unsigned NumUserpoints = 0;
  };

  /// Builds a simulator from an elaborated, type-inferred netlist. Returns
  /// null (with diagnostics) if a leaf behavior is missing, a userpoint
  /// fails to compile, or a net has multiple drivers. \p NL must outlive
  /// the simulator.
  static std::unique_ptr<Simulator> build(netlist::Netlist &NL, SourceMgr &SM,
                                          DiagnosticEngine &Diags);
  static std::unique_ptr<Simulator> build(netlist::Netlist &NL, SourceMgr &SM,
                                          DiagnosticEngine &Diags,
                                          Options Opts);

  ~Simulator();

  /// (Re)initializes all state and invokes init behaviors and userpoints.
  void reset();

  /// Advances \p N clock cycles.
  void step(uint64_t N = 1);

  uint64_t getCycle() const { return Board.Cycle; }

  /// Collectors attached here take effect at the next step() or reset().
  Instrumentation &getInstrumentation() { return Instr; }
  const Options &getOptions() const { return Opts; }
  const BuildInfo &getBuildInfo() const { return Info; }
  ActivityStats getActivityStats() const;

  const char *getEngineName() const { return engineName(Opts.Engine); }
  /// Kernel op counts and build time; null unless the compiled engine is
  /// active.
  const KernelStats *getKernelStats() const;

  /// The value most recently driven on (instance path, output port, index),
  /// or null if none was sent this cycle / the node does not exist.
  const interp::Value *peekPort(const std::string &InstPath,
                                const std::string &Port, int Index) const;

  /// Resolved-handle probing: resolve the (path, port, index) key once,
  /// then peek by net id each cycle without rebuilding the string key.
  /// Returns -1 if the port instance does not exist.
  int resolvePortNet(const std::string &InstPath, const std::string &Port,
                     int Index) const;
  const interp::Value *peekPort(int NetId) const;

  /// Mutable per-instance state (runtime variables and behavior state);
  /// null if the instance has no runtime record or slot. The returned
  /// pointer is stable for the simulator's lifetime (including across
  /// reset()), so per-cycle probe loops may resolve it once and hold it.
  interp::Value *findState(const std::string &InstPath,
                           const std::string &Name);

  /// True if any diagnostics-reported runtime error occurred while
  /// stepping (the simulator keeps running best-effort).
  bool hadRuntimeErrors() const { return RuntimeErrors; }

private:
  Simulator(netlist::Netlist &NL, SourceMgr &SM, DiagnosticEngine &Diags,
            Options Opts);

  bool construct();

  class Runtime; // One per instance with behavior/userpoints/state.

  void evaluateGroup(size_t GroupIdx);
  void runSequentialPhase();
  void reportFixpointFailure(size_t GroupIdx, const std::vector<int> &Osc);

  netlist::Netlist &NL;
  SourceMgr &SM;
  DiagnosticEngine &Diags;
  Options Opts;
  Instrumentation Instr;
  BuildInfo Info;

  /// The dense net array (indexed by net id), the cycle, and the write
  /// counters and fixpoint flag every Runtime's setOutput maintains.
  bsl::WireBoard Board;
  std::vector<std::unique_ptr<Runtime>> Runtimes;
  /// Runtime indices of leaves, in schedule order groups.
  Schedule Sched;
  /// Dense node id (netlist::Netlist::nodeIdOf over the frozen numbering)
  /// -> net id. Flat array: probe resolution and slot wiring never build
  /// or hash string keys.
  std::vector<int> NodeNet;
  /// InstanceNode::Id -> runtime record (null for instances without one);
  /// findState resolves the path once through the netlist's path index,
  /// then indexes this directly.
  std::vector<Runtime *> RuntimeOfInstance;

  /// The compiled engine's flat cycle program (sim/CompiledKernel),
  /// lowered after construct()+reset(); null on the interp engine. step()
  /// routes through it when set.
  std::unique_ptr<CompiledKernel> Kernel;

  bool RuntimeErrors = false; ///< Sticky; see hadRuntimeErrors().
  /// Every counter except NetWrites/NetChanges, which live in Board.
  ActivityStats Activity;
  /// (runtime, userpoint id) of each init and end_of_timestep userpoint
  /// with code to run, in runtime order; bound at build time.
  std::vector<std::pair<Runtime *, int>> InitUserpoints, EotUserpoints;

  /// The compiled engine lowers over the schedule and runtime records and
  /// drives the wire board directly.
  friend class CompiledKernel;
};

} // namespace sim
} // namespace liberty

#endif // LIBERTY_SIM_SIMULATOR_H
