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
#include <string>
#include <vector>

namespace liberty {
namespace driver {

struct CompileVerdict;

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

  /// Compiles a batch concurrently on \p Jobs worker threads (0 = one per
  /// hardware thread, 1 = serial). Results[i] always corresponds to
  /// Invs[i].
  std::vector<CompileResult>
  compileBatch(const std::vector<CompilerInvocation> &Invs, unsigned Jobs = 0);

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

  Options Opts;
  ArtifactCache Cache;
};

} // namespace driver
} // namespace liberty

#endif // LIBERTY_DRIVER_COMPILESERVICE_H
