//===- CompilerInvocation.h - One compile, as a value -----------*- C++ -*-===//
///
/// \file
/// A CompilerInvocation is the complete, self-contained description of one
/// LSS compilation: the source texts plus every option of every phase
/// (elaboration, type inference, simulator construction). It is a plain
/// value — copyable, hashable into cache keys, buildable without touching
/// the filesystem — and is the single currency of the driver API: every
/// Compiler phase entry point and the CompileService batch/cache layer
/// take one.
///
/// ## Fingerprints (the cache key contract)
///
/// Each phase key hashes exactly the inputs that can change that phase's
/// *successful* output, so a cache hit is behaviorally indistinguishable
/// from a cold compile:
///
///  - elabKey(): artifact-format version, UseCoreLibrary (and the core
///    library text itself), every user source text in order, and the
///    elaboration caps (Elab.MaxSteps, Elab.MaxInstances). Source *names*
///    are excluded — the cache is content-addressed, and names only affect
///    how diagnostics render, which the warm compile reproduces from its
///    own buffer table.
///  - solveKey(): elabKey() plus the solver heuristics
///    (Solve.ReorderSimpleFirst, ForcedDisjunctElimination, Partition).
///    Solve.NumThreads is deliberately EXCLUDED: serial and parallel
///    solves are bit-identical by contract, and a test pins this.
///    Solve.MaxSteps and Solve.DeadlineMs are also excluded — budgets only
///    decide *whether* a solve succeeds, never what the solution is, and
///    failed compiles are never cached.
///
//===----------------------------------------------------------------------===//

#ifndef LIBERTY_DRIVER_COMPILERINVOCATION_H
#define LIBERTY_DRIVER_COMPILERINVOCATION_H

#include "infer/InferenceEngine.h"
#include "interp/Interpreter.h"
#include "sim/Simulator.h"

#include <cstdint>
#include <string>
#include <vector>

namespace liberty {

class SourceMgr;

namespace driver {

class CompilerInvocation {
public:
  /// One named source text. The text is read eagerly (addFile) so an
  /// invocation never does I/O after construction — its keys are pure.
  struct Source {
    std::string Name;
    std::string Text;
  };

  std::vector<Source> Sources;

  /// Parse and register the standard component library first.
  bool UseCoreLibrary = true;
  /// Pipeline-wide error cap (DiagnosticEngine::setMaxErrors); 0 = unlimited.
  unsigned MaxErrors = 50;

  interp::Interpreter::Options Elab;
  infer::SolveOptions Solve;
  sim::Simulator::Options Sim;
  /// Whether the compile runs simulator construction at all. Excluded from
  /// every key: it selects how much of the pipeline runs, not what any
  /// phase produces.
  bool BuildSim = true;

  void addSource(std::string Name, std::string Text) {
    Sources.push_back({std::move(Name), std::move(Text)});
  }
  /// Reads \p Path into a new source. On failure returns false and, when
  /// \p Error is non-null, stores a one-line description.
  bool addFile(const std::string &Path, std::string *Error = nullptr);

  /// Registers, without parsing, the buffers a compile of this invocation
  /// registers and in its order: "<corelib>" when UseCoreLibrary, then
  /// every source. Diagnostics replayed from cache artifacts carry
  /// locations into exactly these buffers.
  void registerBuffers(SourceMgr &SM) const;

  /// Key of the elaborated-netlist artifact. See the contract above.
  uint64_t elabKey() const;
  /// Key of the inference-solution artifact. See the contract above.
  uint64_t solveKey() const;
  /// solveKey() from this invocation's elabKey(), already computed, so a
  /// compile scans and hashes the sources once.
  uint64_t solveKey(uint64_t ElabKey) const;

  /// Renders a key as the 16-hex-digit form used in cache file names.
  static std::string keyString(uint64_t Key);
};

} // namespace driver
} // namespace liberty

#endif // LIBERTY_DRIVER_COMPILERINVOCATION_H
