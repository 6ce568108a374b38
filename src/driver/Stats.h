//===- Stats.h - Reuse statistics (Table 2) ---------------------*- C++ -*-===//
///
/// \file
/// Computes the component-reuse metrics the paper reports in Table 2 from
/// an elaborated netlist: instance counts by kind, module counts, fraction
/// of instances drawn from the component library, the number of explicit
/// type instantiations needed with and without inference, inferred port
/// widths, and connection counts.
///
//===----------------------------------------------------------------------===//

#ifndef LIBERTY_DRIVER_STATS_H
#define LIBERTY_DRIVER_STATS_H

#include "driver/ArtifactCache.h"
#include "driver/Json.h"
#include "infer/InferenceEngine.h"

#include <ostream>
#include <set>
#include <string>
#include <vector>

namespace liberty {

class PhaseTimer;

namespace netlist {
class Netlist;
}

namespace sim {
class Simulator;
}

namespace driver {

/// Version of the `lssc --stats-json` document and the daemon's
/// `stats_result` message. Bumped whenever a field is added, removed, or
/// changes meaning; both emitters stamp it as "schema_version" so
/// dashboards can gate on the shape they understand. check_docs.sh lints
/// the emitted field names against docs/API.md.
constexpr uint32_t StatsSchemaVersion = 8;

struct ModelStats {
  std::string Name;

  unsigned TotalInstances = 0; ///< Excluding the synthetic root.
  unsigned HierarchicalInstances = 0;
  unsigned LeafInstances = 0;
  /// Hierarchical instances whose module contains exactly one kind of
  /// sub-module and no structural parameters — the "trivial wrappers" the
  /// paper discounts in parentheses.
  unsigned TrivialHierarchicalInstances = 0;

  unsigned DistinctModules = 0;
  unsigned DistinctLeafModules = 0;
  unsigned DistinctHierarchicalModules = 0;

  unsigned InstancesFromLibrary = 0;
  unsigned ModulesFromLibrary = 0;

  /// Sum over instances of the number of type variables in their port
  /// schemes: each is an explicit instantiation a user would have to write
  /// without inference.
  unsigned ExplicitTypesWithoutInference = 0;
  /// Explicit annotations actually present in the user specification.
  unsigned ExplicitTypesWithInference = 0;

  /// Ports whose (non-zero) width was inferred from connectivity.
  unsigned InferredPortWidths = 0;
  unsigned Connections = 0;

  double pctFromLibrary() const {
    return TotalInstances
               ? 100.0 * InstancesFromLibrary / TotalInstances
               : 0.0;
  }
  double instancesPerModule() const {
    return DistinctModules ? double(TotalInstances) / DistinctModules : 0.0;
  }
};

/// Computes Table 2 metrics for one elaborated model.
ModelStats computeModelStats(const netlist::Netlist &NL,
                             const std::set<std::string> &LibraryModules,
                             unsigned NumUserAnnotations,
                             std::string Name = "");

/// Column-wise sum of several models' stats (the paper's "Total" row).
ModelStats totalStats(const std::vector<ModelStats> &All);

/// Prints one Table 2 row (or the header with Header=true).
void printTable2Row(std::ostream &OS, const ModelStats &S);
void printTable2Header(std::ostream &OS);

/// One compile's view of the artifact cache, for the "cache" section of
/// `lssc --stats-json`: the shared counters plus which of this compile's
/// phases were satisfied from the cache.
struct CacheReport {
  CacheStats Stats;
  bool ElabFromCache = false;
  bool SolutionFromCache = false;
};

/// The section builders of the stats documents. Every stats field name is
/// spelled in Stats.cpp only (check_docs.sh lints them against
/// docs/API.md); the documents are written with Json::writeIndented.

/// The `phases` array: one object per PhaseTimer phase, in phase order,
/// with its `name`, `wall_ms` and counters.
Json phasesJson(const PhaseTimer &Timer);

/// The ArtifactCache counters: the `cache` section of `lssc --stats-json`
/// (which adds this compile's provenance) and of the daemon's
/// `stats_result`.
Json cacheCountersJson(const CacheStats &CS);

/// One compilation's observability record, the payload of `lssc
/// --stats-json`: the phases from \p Timer, `unaccounted_ms` (\p
/// ProcessWallMs minus the phases' sum), the inference solve record
/// including per-H3-group unify-step counts, and the Table 2 reuse
/// metrics. When \p Sim is non-null (a simulation ran), a `simulation`
/// section reports the engine name, the activity counters, the compiled
/// engine's kernel shape and build time when one exists, and — when the
/// timer has a `simulate` phase — the achieved rate in cycles per second.
/// When \p Cache is non-null (the artifact cache was enabled), a `cache`
/// section reports hit/miss counters and which phases were reloaded.
Json statsJson(const ModelStats &S, const infer::NetlistInferenceStats &IS,
               const PhaseTimer &Timer, double ProcessWallMs,
               const sim::Simulator *Sim = nullptr,
               const CacheReport *Cache = nullptr);

} // namespace driver
} // namespace liberty

#endif // LIBERTY_DRIVER_STATS_H
