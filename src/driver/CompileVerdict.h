//===- CompileVerdict.h - The outcome of one compile ------------*- C++ -*-===//
///
/// \file
/// The single definition of what a compile's outcome is, shared by lssc,
/// lssd and CompileClient:
///  - ExitCode, the documented exit codes of the LSS tools;
///  - the phase table: for each CompileResult::Phase, its wire name (the
///    `failed_phase` of a daemon `result` message), the phrase lssc prints
///    ("type inference failed") and the exit code a failure there maps to;
///  - CompileVerdict, the tool-facing summary of one compile. It is built
///    once from a CompileResult (in lssc's process or in lssd's) and
///    crosses the socket as the `result` message through verdictToWire /
///    verdictFromWire, so an in-process and a daemon compile of the same
///    input are reported from the same value.
///
//===----------------------------------------------------------------------===//

#ifndef LIBERTY_DRIVER_COMPILEVERDICT_H
#define LIBERTY_DRIVER_COMPILEVERDICT_H

#include "driver/CompileService.h"
#include "driver/Json.h"

#include <cstdint>
#include <string>
#include <string_view>

namespace liberty {

namespace netlist {
struct NetlistSummary;
}
namespace infer {
struct SolutionSummary;
}

namespace driver {

/// Documented exit codes. Scripts and the test suite key on these, so the
/// values are part of the tools' contract and must not be renumbered:
///   0  success
///   1  operational failure (unreadable input file, unwritable output
///      path, unreachable daemon without fallback)
///   2  usage error (unknown flag, missing argument, no inputs)
///   3  parse or semantic error in the input specification
///   4  type inference failure (unsatisfiable constraints, or the work
///      budget / --infer-deadline-ms deadline was exhausted)
///   5  simulation fault (construction failure, runtime error, or a
///      combinational cycle that did not converge)
enum ExitCode : int {
  ExitSuccess = 0,
  ExitOperational = 1,
  ExitUsage = 2,
  ExitParseSema = 3,
  ExitInference = 4,
  ExitSimFault = 5,
};

/// One row of the phase table.
struct PhaseInfo {
  CompileResult::Phase Phase;
  const char *WireName; ///< `failed_phase` on the wire.
  const char *Phrase;   ///< "<Phrase> failed" in lssc's report.
  ExitCode Exit;        ///< The exit code of a failure in this phase.
};

/// The row of \p P.
const PhaseInfo &phaseInfo(CompileResult::Phase P);
/// The row whose wire name is \p WireName; the `None` row when no row
/// matches.
const PhaseInfo &phaseInfo(std::string_view WireName);

/// What a tool reports about one compile. Every field is carried by the
/// wire `result` message (docs/DAEMON.md).
struct CompileVerdict {
  bool Success = false;
  std::string FailedPhase; ///< Wire name: "none"/"parse"/"elaborate"/...
  int ExitCode = 0;        ///< The documented code (0/3/4/5).
  bool ElabFromCache = false;
  bool SolutionFromCache = false;
  bool Degraded = false; ///< Inference budget/deadline degradation.
  uint64_t GroupsUnsolved = 0;
  std::string Diagnostics; ///< Rendered diagnostic text (may be empty).
  uint64_t Instances = 0, Connections = 0; ///< On success.
  double QueueMs = 0, ServiceMs = 0;       ///< Daemon-side timings.

  /// The verdict of \p R (whose Compiler must be present).
  static CompileVerdict of(const CompileResult &R);
  /// What of() reports for a compile of \p Inv whose netlist and solution
  /// both came from the cache, read from the two artifacts' summaries:
  /// the counts, the unsolved-group count and the replayed diagnostics,
  /// rendered against \p Inv's sources as the warm Compiler renders them.
  static CompileVerdict ofCached(const CompilerInvocation &Inv,
                                 const netlist::NetlistSummary &Elab,
                                 const infer::SolutionSummary &Solve);

  /// The phrase of FailedPhase ("type inference").
  const char *phrase() const { return phaseInfo(FailedPhase).Phrase; }
};

/// The wire `result` message for \p V (without the request `id`).
Json verdictToWire(const CompileVerdict &V);
/// Reads a wire `result` message; absent fields take their defaults.
CompileVerdict verdictFromWire(const Json &Msg);

} // namespace driver
} // namespace liberty

#endif // LIBERTY_DRIVER_COMPILEVERDICT_H
