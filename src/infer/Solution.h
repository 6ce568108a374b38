//===- Solution.h - Stable inference-solution round-trip --------*- C++ -*-===//
///
/// \file
/// Byte-stable text serialization of a solved type assignment: every
/// resolved port type, the solver statistics, and the inference-phase
/// warnings (defaulting notes). This is the "solution" artifact of the
/// content-addressed compile cache (docs/API.md): a warm compile that
/// reloaded the elaborated netlist imports the solution and skips the
/// solver entirely, while still reporting the cold run's statistics and
/// diagnostics verbatim.
///
/// Format contract ("LSSSOL 5", the only version written or read): line
/// oriented; every string (diagnostic messages, resolved type texts) is
/// interned into a header string table ("strtab N" + "s <%XX-escaped>"
/// lines, first-use order) and referenced by decimal id, so a type shared
/// by thousands of ports is stored once; ports are referenced by dense
/// (instance, port) index into the creation-order netlist traversal, in
/// increasing order. The body opens with the "stats" record; every "diag"
/// record precedes the first "p" record, after which come only "p"
/// records and the closing "end" line — so readSolutionSummary stops at
/// the first "p". Nothing that depends on the thread count or the clock is
/// recorded (the solve key does not include them): every per-group wall
/// time is written as zero. Because serial and parallel solves
/// produce bit-identical bindings (SolveOptions::NumThreads contract), the
/// exported artifact is byte-identical across --jobs settings — a
/// regression test diffs the two. Any other header is rejected (a cache
/// miss).
///
//===----------------------------------------------------------------------===//

#ifndef LIBERTY_INFER_SOLUTION_H
#define LIBERTY_INFER_SOLUTION_H

#include "infer/InferenceEngine.h"
#include "support/Diagnostics.h"

#include <string>
#include <string_view>
#include <vector>

namespace liberty {

namespace netlist {
class Netlist;
}

namespace infer {

/// Renders the resolved port types of \p NL plus \p Stats and the
/// inference-phase diagnostics \p Diags as an LSSSOL 5 artifact. Returns
/// false if \p Diags contains an error (failed solves are never cached).
bool exportSolution(const netlist::Netlist &NL,
                    const NetlistInferenceStats &Stats,
                    const std::vector<Diagnostic> &Diags, std::string &Out);

/// Parses an LSSSOL 5 artifact and writes each recorded resolved type back
/// into \p NL's ports. Types are rebuilt in \p TC; statistics and replayed
/// diagnostics land in \p StatsOut / \p DiagsOut. Returns false — leaving
/// the netlist's resolved types unspecified — on any malformed input or
/// index out of range; \p Error, when non-null, then receives the reason
/// (see netlist::ArtifactReader::readHeader).
bool importSolution(const std::string &Text, netlist::Netlist &NL,
                    types::TypeContext &TC, NetlistInferenceStats &StatsOut,
                    std::vector<Diagnostic> &DiagsOut,
                    std::string *Error = nullptr);

/// What a compile verdict needs from an LSSSOL artifact: the "stats"
/// record (Groups stays empty) and the replayed diagnostics.
struct SolutionSummary {
  SolveStats Solve;
  std::vector<Diagnostic> Diags;
};

/// Reads an LSSSOL 5 artifact up to its first "p" record and checks that
/// the text ends with the "end" line, needing no netlist and building no
/// type. Every artifact importSolution accepts is accepted here with the
/// same statistics and diagnostics; like it, this honours the
/// "deserialize.solution" fault site and reports the reason for a
/// rejection in \p Error.
bool readSolutionSummary(std::string_view Text, SolutionSummary &Out,
                         std::string *Error = nullptr);

} // namespace infer
} // namespace liberty

#endif // LIBERTY_INFER_SOLUTION_H
