//===- CompileService.h - Cached, batched LSS compilation -------*- C++ -*-===//
///
/// \file
/// The high-level entry point of the driver API: takes CompilerInvocations
/// and produces finished Compilers, memoizing phase artifacts in a
/// content-addressed ArtifactCache and dispatching batches across a
/// thread pool.
///
/// A compile consults the cache per phase:
///  - "elab" hit: the serialized elaborated netlist is reloaded, the
///    invocation's sources are registered (but never parsed), and the
///    recorded warnings replay — parse + elaboration are skipped.
///  - "solve" hit: the recorded type solution is written onto the netlist
///    and the solver is skipped.
///  - Only error-free compiles are stored, so a hit can never hide a
///    failure; corrupted entries are diagnosed (note), counted, and
///    recompiled over.
///
/// compileVerdict answers a caller that needs only the verdict (lssd):
/// when both entries hit, it reads the verdict from the artifacts' summary
/// records and builds no netlist.
///
/// Batch compiles run on a support::ThreadPool; results are returned in
/// input order regardless of completion order, and the shared cache means
/// identical invocations in one batch cost one cold compile plus N-1 warm
/// loads (modulo racing misses, which are benign: both compiles store the
/// same bytes).
///
//===----------------------------------------------------------------------===//

#ifndef LIBERTY_DRIVER_COMPILESERVICE_H
#define LIBERTY_DRIVER_COMPILESERVICE_H

#include "driver/ArtifactCache.h"
#include "driver/Compiler.h"
#include "driver/CompilerInvocation.h"

#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace liberty {
namespace driver {

struct CompileVerdict;

/// What an incremental compile actually did (docs/INCREMENTAL.md). Filled
/// by CompileService::compileIncremental; compile() leaves it default.
struct IncrementalStats {
  /// compileIncremental was called (even if it fell back).
  bool Attempted = false;
  /// The result came from the dependency-tracked replay path. When false
  /// with Attempted set, FallbackReason says why the full pipeline ran.
  bool Used = false;
  std::string FallbackReason;
  /// A dependency artifact for this project was found in the cache.
  bool DepCacheHit = false;

  unsigned ModulesTotal = 0;
  unsigned ModulesDirty = 0;
  /// Distinct modules whose bodies were re-elaborated live (the dirty
  /// modules plus any module first instantiated by a dirty body).
  unsigned ModulesReelaborated = 0;
  unsigned InstancesTotal = 0;
  unsigned InstancesReelaborated = 0;
  unsigned InstancesSpliced = 0;
  unsigned GroupsTotal = 0;
  /// H3 groups the solver actually searched.
  unsigned GroupsResolved = 0;
  /// H3 groups whose solutions were spliced from the previous compile.
  unsigned GroupsSpliced = 0;
};

/// The outcome of one service compile. The Compiler is always present
/// (even on failure — its diagnostics say what went wrong).
struct CompileResult {
  std::unique_ptr<Compiler> C;
  bool Success = false;

  /// First pipeline phase that failed (None on success).
  enum class Phase { None, Parse, Elaborate, Infer, SimBuild };
  Phase Failed = Phase::None;

  /// Which phases were satisfied from the artifact cache.
  bool ElabFromCache = false;
  bool SolutionFromCache = false;

  /// Incremental-recompilation outcome (compileIncremental only).
  IncrementalStats Incremental;
};

class CompileService {
public:
  struct Options {
    /// Master switch; when false every compile is cold and the cache is
    /// never consulted or written (lssc --no-cache).
    bool CacheEnabled = true;
    ArtifactCache::Options Cache;
  };

  CompileService();
  explicit CompileService(Options Opts);

  /// Compiles one invocation, consulting and feeding the cache.
  CompileResult compile(const CompilerInvocation &Inv);

  /// CompileVerdict::of(compile(Inv)), for a caller that needs nothing but
  /// the verdict (lssd's `compile` request). When the "elab" and "solve"
  /// entries both hit, the verdict comes from the LSSNL and LSSSOL
  /// summaries (netlist::readNetlistSummary,
  /// infer::readSolutionSummary): no Netlist, port or Type is built. On
  /// any miss, and whenever \p Inv builds a simulator or the cache is off,
  /// compile() runs, after exactly the lookups it would have made itself;
  /// its result is then moved to \p Full when that is non-null (lssd keeps
  /// it to read the solver statistics and to free it after replying).
  CompileVerdict compileVerdict(const CompilerInvocation &Inv,
                                CompileResult *Full = nullptr);

  /// Incremental recompilation (docs/INCREMENTAL.md): diffs \p Inv's
  /// per-module content hashes against the project's cached dependency
  /// graph (LSSDEP, keyed by Inv.depKey()), re-elaborates only the dirty
  /// modules' subtrees while replaying the unchanged bodies from the
  /// previous netlist artifact, re-solves only the H3 constraint groups
  /// touching re-elaborated instances, and splices the previous per-group
  /// solutions for the rest. The produced artifacts (netlist, solution)
  /// are byte-identical to a cold compile of the same invocation;
  /// whenever any precondition is not met, this transparently falls back
  /// to compile() and records the reason in the result's IncrementalStats.
  CompileResult compileIncremental(const CompilerInvocation &Inv);

  /// Compiles a batch concurrently on \p Jobs worker threads (0 = one per
  /// hardware thread, 1 = serial). Results[i] always corresponds to
  /// Invs[i].
  std::vector<CompileResult>
  compileBatch(const std::vector<CompilerInvocation> &Invs, unsigned Jobs = 0);

  /// Service-lifetime totals over every compileIncremental call (the
  /// daemon's stats endpoint aggregates these across clients).
  struct IncrementalCounters {
    uint64_t Requests = 0;
    uint64_t Used = 0;
    uint64_t Fallbacks = 0;
    uint64_t DepCacheHits = 0;
    uint64_t ModulesReelaborated = 0;
    uint64_t GroupsResolved = 0;
    uint64_t GroupsSpliced = 0;
  };
  IncrementalCounters getIncrementalCounters() const {
    std::lock_guard<std::mutex> Lock(IncMutex);
    return IncCounters;
  }

  ArtifactCache &getCache() { return Cache; }
  const Options &getOptions() const { return Opts; }

private:
  /// The cache keys of one compile, each hashed once.
  struct PhaseKeys {
    uint64_t Elab = 0, Solve = 0;
  };
  static PhaseKeys phaseKeys(const CompilerInvocation &Inv) {
    uint64_t Elab = Inv.elabKey();
    return {Elab, Inv.solveKey(Elab)};
  }
  /// A cache lookup compileVerdict made before handing the compile over:
  /// whether it hit, the payload of a hit, the note of a miss.
  struct Lookup {
    bool Hit = false;
    std::string Payload, Note;
  };
  /// compile() with \p Keys, except that the "elab" and "solve" lookups
  /// already made are passed in as \p Elab and \p Solve (null: look up
  /// here). Keys are unused when the cache is off.
  CompileResult runPipeline(const CompilerInvocation &Inv,
                            const PhaseKeys &Keys, Lookup *Elab,
                            Lookup *Solve);

  /// Serializes and stores the dependency-graph artifact for a compile
  /// whose elaboration ran live (compile() cold path and every successful
  /// incremental compile). \p DiagBase is the diagnostic count just before
  /// parsing started; body diagnostic windows are stored relative to it so
  /// the artifact's bytes are invariant to notes emitted before the
  /// pipeline ran (e.g. cache-corruption notes) and its indices line up
  /// with the diagnostics list of the LSSNL artifact stored alongside.
  /// Defined in Incremental.cpp.
  void storeDepGraph(const CompilerInvocation &Inv, const PhaseKeys &Keys,
                     Compiler &C, size_t DiagBase);
  /// Accumulates one compileIncremental outcome into the counters.
  void recordIncremental(const IncrementalStats &S);

  Options Opts;
  ArtifactCache Cache;
  mutable std::mutex IncMutex;
  IncrementalCounters IncCounters;
};

} // namespace driver
} // namespace liberty

#endif // LIBERTY_DRIVER_COMPILESERVICE_H
