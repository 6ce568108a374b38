//===- DepGraph.h - Compile dependency graph artifact -----------*- C++ -*-===//
///
/// \file
/// The dependency side-table of incremental recompilation
/// (docs/INCREMENTAL.md): everything a later compile of the *same project*
/// (same source names and phase options, different text) needs to decide
/// which modules changed and to replay the unchanged parts of elaboration
/// from the previous compile's cached artifacts.
///
/// A DepGraph records, per compile:
///  - per source: the top-level module spans with per-module content
///    hashes (hash folds the span's start offset, because serialized
///    SourceLocs must match a cold compile byte-for-byte) and a residual
///    hash over everything outside module bodies — the diff that names the
///    dirty modules;
///  - per instance (dense InstanceNode::Id order): the half-open
///    connection/diagnostic creation windows of its body evaluation
///    (interp::Interpreter::BodyWindow) and the pending parameter
///    assignments / connection endpoints its parent pushed on it — the
///    A-context a live re-evaluation of a dirty body consumes;
///  - the elab/solve cache keys of the compile that wrote it, so the next
///    compile can find the previous netlist and solution artifacts.
///
/// Nothing else: the subtree to re-elaborate falls out of the replay
/// itself, and the H3 groups to splice are matched by member-instance set
/// against the previous solution artifact.
///
/// Serialized as the "LSSDEP 2" artifact kind ("dep") in the
/// ArtifactCache, keyed by CompilerInvocation::depKey() — a
/// content-INDEPENDENT key (source names + options, not texts), so an
/// edited project overwrites its own dependency entry in place. The
/// reader accepts only that header; an older entry reads as unreadable
/// and is overwritten by the full compile it falls back to.
///
/// Like every artifact, the reader trusts nothing: malformed records make
/// deserializeDepGraph return false (a miss), and the serialize/deserialize
/// edges carry fault-injection sites ("serialize.dep"/"deserialize.dep").
///
//===----------------------------------------------------------------------===//

#ifndef LIBERTY_DRIVER_DEPGRAPH_H
#define LIBERTY_DRIVER_DEPGRAPH_H

#include "support/Hash.h"
#include "support/SourceMgr.h"

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace liberty {
namespace driver {

/// One top-level `module NAME { ... }` span in a source text.
/// [Begin, End) covers the `module` keyword through the matching '}'.
struct ModuleSpan {
  std::string Name;
  size_t Begin = 0;
  size_t End = 0;
};

/// Scans \p Text for top-level module declarations, skipping comments and
/// string literals (an apostrophe is a type-variable marker in LSS, not a
/// quote). Returns false — leaving \p Out unspecified — when the text
/// cannot be segmented (unterminated comment/string, unbalanced braces);
/// callers then hash the whole text and incremental diffing is declined.
bool scanModuleSpans(const std::string &Text, std::vector<ModuleSpan> &Out);

/// Content hash of one module span. Folds the span's START OFFSET as well
/// as its bytes: serialized netlists and diagnostics carry exact
/// SourceLocs, so a module whose text merely shifted must still read as
/// changed for the byte-identity contract to hold.
uint64_t hashModuleSpan(const std::string &Text, const ModuleSpan &S);

/// Hash of everything outside the module spans (top-level statements,
/// comments, whitespace), folded with each slice's offset.
uint64_t hashResidual(const std::string &Text,
                      const std::vector<ModuleSpan> &Spans);

struct DepGraph {
  struct ModuleDep {
    std::string Name;
    uint64_t Hash = 0;
  };
  struct SourceDeps {
    std::string Name;
    /// False when the text could not be segmented; Modules is then empty
    /// and ResidualHash covers the whole text.
    bool Scanned = true;
    uint64_t ResidualHash = 0;
    std::vector<ModuleDep> Modules;
  };

  /// One pending parameter assignment recorded by a parent body on a
  /// child (netlist::PendingAssign), with the value in
  /// netlist::artifactEncodeValue form.
  struct PendingAssignDep {
    std::string Field;
    std::string Value;
    SourceLoc Loc;
  };
  /// One pending connection endpoint (netlist::PendingConn); the
  /// connection is referenced by its dense creation index.
  struct PendingConnDep {
    uint32_t ConnIdx = 0;
    bool IsFrom = false;
    std::string Port;
    int64_t ExplicitIndex = -1;
    SourceLoc Loc;
  };
  /// Per-instance body record, indexed by InstanceNode::Id.
  struct InstDep {
    uint32_t ConnBegin = 0, ConnEnd = 0;
    uint32_t DiagBegin = 0, DiagEnd = 0;
    std::vector<PendingAssignDep> Assigns;
    std::vector<PendingConnDep> Conns;
  };

  /// Cache keys of the compile that wrote this graph (the "previous"
  /// compile from the next edit's point of view).
  uint64_t PrevElabKey = 0;
  uint64_t PrevSolveKey = 0;
  /// False when some pending value could not be encoded (elaboration-only
  /// InstanceRef/Port values); such compiles cannot be replayed and a
  /// reader declines incremental recompilation.
  bool Capable = true;

  std::vector<SourceDeps> Sources;
  std::vector<InstDep> Instances;
};

/// Renders \p G as an LSSDEP 2 artifact. Returns false only under fault
/// injection ("serialize.dep").
bool serializeDepGraph(const DepGraph &G, std::string &Out);

/// Parses an LSSDEP 2 artifact. Returns false on any malformed or truncated
/// input, on any other header (and under the "deserialize.dep" fault site).
bool deserializeDepGraph(const std::string &Text, DepGraph &Out);

} // namespace driver
} // namespace liberty

#endif // LIBERTY_DRIVER_DEPGRAPH_H
