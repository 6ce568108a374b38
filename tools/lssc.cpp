//===- lssc.cpp - The LSS compiler driver ---------------------------------------===//
///
/// Command-line front end for the LSS pipeline, in the spirit of the
/// original Liberty Simulation Environment's lss compiler:
///
///   lssc [options] file.lss [more.lss ...]
///
///   --print-netlist     dump the elaborated hierarchy with widths/types
///   --stats             print Table 2-style reuse statistics
///   --stats-json FILE   write per-phase/per-group compile stats as JSON
///   --time-phases       print per-phase wall times to stderr
///   --jobs N            solve H3 inference groups on N threads
///   --emit-static       print the flattened static structural spec
///   --run N             build the simulator and run N cycles
///   --sim-engine E      with --run: interp (the reference interpreter) or
///                       compiled (the default cycle kernel)
///   --watch PATTERN     with --run: count events matching "path event"
///   --no-infer-heuristics  solve types with the naive algorithm (slow!)
///   --trace-order       print the instantiation-stack processing order
///   --max-errors N      stop after N errors (0 = unlimited; default 50)
///   --infer-deadline-ms N  wall-clock deadline for inference groups
///   --cache-dir DIR     reuse parse/elaborate/solve artifacts across runs
///   --no-cache          ignore --cache-dir (always compile cold)
///   --batch FILE        compile every .lss listed in FILE concurrently
///                       (with --daemon: one request per file, in order)
///   --daemon ADDR       compile via a running lssd daemon (shared warm
///                       cache); falls back to an in-process compile when
///                       the daemon is unreachable
///   --no-daemon-fallback  with --daemon: exit 1 instead of falling back
///   --deadline-ms N     with --daemon: per-request service budget (queue
///                       wait + compile); expiry degrades inference
///   --fault-inject SPEC arm deterministic fault injection (testing)
///
/// Flag parsing is the shared driver::FlagParser table (tools/lssd.cpp
/// uses the same helper), so flags both tools expose — the cache flags
/// and --fault-inject — are declared exactly once.
///
/// The tool is a thin shell over driver::CompileService (in-process) or
/// driver::CompileClient (--daemon): it builds one CompilerInvocation per
/// model, and reports every compile, local or remote, from its
/// driver::CompileVerdict through one function.
///
/// Exit codes are documented on the driver::ExitCode enum in
/// driver/CompileVerdict.h (0 ok, 1 operational, 2 usage, 3
/// parse/semantic, 4 inference, 5 simulation).
///
/// Multiple .lss inputs are concatenated into one compilation (library
/// modules first), matching the Compiler API.
///
//===----------------------------------------------------------------------===//

#include "baseline/StaticNet.h"
#include "driver/CompileClient.h"
#include "driver/CompileService.h"
#include "driver/CompileVerdict.h"
#include "driver/Compiler.h"
#include "driver/FlagParser.h"
#include "driver/Stats.h"
#include "netlist/DotEmitter.h"
#include "sim/CompiledKernel.h"
#include "support/FaultInjection.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

using namespace liberty;

namespace {

using driver::ExitOperational;
using driver::ExitSimFault;
using driver::ExitSuccess;
using driver::ExitUsage;

struct CliOptions {
  std::vector<std::string> Inputs;
  bool PrintNetlist = false;
  bool Stats = false;
  bool EmitStatic = false;
  bool EmitDot = false;
  bool TraceOrder = false;
  bool NaiveInference = false;
  bool TimePhases = false;
  unsigned Jobs = 0; ///< H3 solver threads; 0 = one per hardware thread.
  std::string StatsJsonPath;
  uint64_t RunCycles = 0;
  sim::EngineKind SimEngine = sim::EngineKind::Compiled;
  std::vector<std::pair<std::string, std::string>> Watches;
  /// Error cap shared by the parser, elaboration, and inference through
  /// the DiagnosticEngine; 0 = unlimited.
  unsigned MaxErrors = 50;
  /// Wall-clock deadline for type inference in milliseconds; 0 = none.
  uint64_t InferDeadlineMs = 0;
  /// Artifact cache directory; empty = caching off.
  std::string CacheDir;
  /// Overrides --cache-dir (scripts/presets pass both).
  bool NoCache = false;
  /// File listing one .lss model per line; batch compile mode.
  std::string BatchFile;
  /// lssd address (a Unix-domain socket path); empty = compile
  /// in-process.
  std::string DaemonAddress;
  /// With --daemon: fail instead of falling back when unreachable.
  bool NoDaemonFallback = false;
  /// With --daemon: per-request service budget in ms (0 = none).
  uint64_t DeadlineMs = 0;
  /// Fault-injection schedule (see support/FaultInjection.h); also
  /// settable via the LSS_FAULT environment variable.
  std::string FaultSpec;
};

const char *const UsageSynopsis = "lssc [options] file.lss [more.lss ...]";
const char *const UsageEpilog =
    "exit codes: 0 ok, 1 operational, 2 usage, 3 parse/semantic,\n"
    "            4 inference failure, 5 simulation fault\n";

/// Registers every lssc flag on the shared table. Flags that lssd also
/// exposes (cache, fault injection) come from the FlagParser add*
/// helpers so both tools stay in lockstep.
void registerFlags(driver::FlagParser &P, CliOptions &Opts) {
  P.boolean("--print-netlist", &Opts.PrintNetlist,
            "dump the elaborated hierarchy");
  P.boolean("--stats", &Opts.Stats, "print reuse statistics");
  P.string("--stats-json", "FILE", &Opts.StatsJsonPath,
           "write per-phase/per-group stats as JSON\n"
           "('-' writes to stdout; status output\n"
           "then moves to stderr)");
  P.boolean("--time-phases", &Opts.TimePhases,
            "print per-phase wall times to stderr");
  P.unsignedNum("--jobs", "N", &Opts.Jobs,
                "solve H3 inference groups on N threads\n"
                "(default: one per hardware thread);\n"
                "with --batch, also the number of\n"
                "concurrent model compiles",
                "thread count", /*RequirePositive=*/true);
  P.boolean("--emit-static", &Opts.EmitStatic,
            "print the flattened static spec");
  P.boolean("--emit-dot", &Opts.EmitDot,
            "print a Graphviz digraph of the model");
  P.unsignedNum("--run", "N", &Opts.RunCycles, "simulate N cycles",
                "cycle count");
  P.custom("--sim-engine", "E",
           "select the simulation engine: compiled\n"
           "(default) or interp, the reference\n"
           "interpreter; both produce identical traces",
           [&Opts](const std::string &Name) {
             if (!sim::parseEngineName(Name, Opts.SimEngine)) {
               std::cerr << "lssc: unknown engine '" << Name
                         << "' (expected interp or compiled)\n";
               return false;
             }
             return true;
           });
  P.custom("--watch", "'PATH EVENT'",
           "count matching events while running",
           [&Opts](const std::string &Spec) {
             size_t Space = Spec.find(' ');
             if (Space == std::string::npos)
               Opts.Watches.emplace_back(Spec, "*");
             else
               Opts.Watches.emplace_back(Spec.substr(0, Space),
                                         Spec.substr(Space + 1));
             return true;
           });
  P.boolean("--no-infer-heuristics", &Opts.NaiveInference,
            "use the naive exponential solver");
  P.boolean("--trace-order", &Opts.TraceOrder,
            "print instance processing order\n"
            "(disables the artifact cache: the order\n"
            "only exists in a live elaboration)");
  P.unsignedNum("--max-errors", "N", &Opts.MaxErrors,
                "stop after N errors (0 = unlimited;\n"
                "default 50); shared by parsing,\n"
                "elaboration, and inference",
                "count");
  P.unsignedNum("--infer-deadline-ms", "N", &Opts.InferDeadlineMs,
                "abandon inference groups still unsolved\n"
                "after N ms of wall-clock time (other\n"
                "groups are still solved and reported)",
                "duration", /*RequirePositive=*/true);
  P.addCacheFlags(&Opts.CacheDir, &Opts.NoCache);
  P.string("--batch", "FILE", &Opts.BatchFile,
           "compile every .lss path listed in FILE\n"
           "(one per line, '#' comments) concurrently\n"
           "and report per-model status in list\n"
           "order; exits with the worst model's code");
  P.string("--daemon", "ADDR", &Opts.DaemonAddress,
           "compile via the lssd daemon at ADDR (a\n"
           "Unix-domain socket path) and share its\n"
           "warm artifact cache; falls back to an\n"
           "in-process compile (with a note) when\n"
           "the daemon is unreachable");
  P.boolean("--no-daemon-fallback", &Opts.NoDaemonFallback,
            "with --daemon: exit 1 when the daemon is\n"
            "unreachable instead of falling back");
  P.unsignedNum("--deadline-ms", "N", &Opts.DeadlineMs,
                "with --daemon: total service budget per\n"
                "request (queue wait + compile); on expiry\n"
                "inference degrades rather than hangs",
                "duration", /*RequirePositive=*/true);
  P.addFaultInjectFlag(&Opts.FaultSpec);
}

/// Parses the command line and validates flag combinations.
/// Returns -1 to proceed, or the exit code to return at once (--help
/// exits 0 after printing the usage text; errors exit 2).
int parseArgs(int Argc, char **Argv, CliOptions &Opts) {
  driver::FlagParser P("lssc");
  registerFlags(P, Opts);
  auto usage = [&] { P.printUsage(std::cerr, UsageSynopsis, UsageEpilog); };
  if (!P.parse(Argc, Argv, &Opts.Inputs)) {
    usage();
    return ExitUsage;
  }
  if (P.helpRequested()) {
    usage();
    return ExitSuccess;
  }
  auto reject = [&](const std::string &Why) {
    std::cerr << "lssc: " << Why << "\n";
    usage();
    return ExitUsage;
  };
  if (!Opts.BatchFile.empty() && !Opts.Inputs.empty())
    return reject("--batch cannot be combined with input files");
  if (Opts.Inputs.empty() && Opts.BatchFile.empty())
    return reject("no input files");
  if (Opts.DaemonAddress.empty()) {
    if (Opts.NoDaemonFallback)
      return reject("--no-daemon-fallback requires --daemon");
    if (Opts.DeadlineMs)
      return reject("--deadline-ms requires --daemon");
  } else {
    // The daemon returns a compile verdict, not artifacts: flags that need
    // the netlist/simulator in this process cannot be served remotely.
    const char *Bad = nullptr;
    if (Opts.RunCycles || !Opts.Watches.empty())
      Bad = "--run";
    else if (Opts.PrintNetlist)
      Bad = "--print-netlist";
    else if (Opts.Stats)
      Bad = "--stats";
    else if (Opts.EmitStatic)
      Bad = "--emit-static";
    else if (Opts.EmitDot)
      Bad = "--emit-dot";
    else if (Opts.TraceOrder)
      Bad = "--trace-order";
    else if (Opts.TimePhases)
      Bad = "--time-phases";
    if (Bad) {
      std::cerr << "lssc: " << Bad
                << " cannot be combined with --daemon (the daemon keeps "
                   "artifacts server-side)\n";
      usage();
      return ExitUsage;
    }
  }
  return -1;
}

/// Everything of the invocation except the sources: the per-phase options
/// the flags select. Shared by the single-model and batch paths.
driver::CompilerInvocation makeInvocation(const CliOptions &Opts) {
  driver::CompilerInvocation Inv;
  Inv.MaxErrors = Opts.MaxErrors;
  Inv.Solve = Opts.NaiveInference ? infer::SolveOptions::naive()
                                  : infer::SolveOptions();
  Inv.Solve.NumThreads = Opts.Jobs; // 0 = one per hardware thread.
  Inv.Solve.DeadlineMs = Opts.InferDeadlineMs;
  Inv.Sim.Engine = Opts.SimEngine;
  Inv.BuildSim = Opts.RunCycles > 0;
  return Inv;
}

/// Adds \p Paths to \p Inv. An unreadable file is an operational failure
/// (exit 1), distinct from a parse error in a file that exists (exit 3):
/// returns false after saying which file.
bool addInputs(driver::CompilerInvocation &Inv,
               const std::vector<std::string> &Paths) {
  for (const std::string &Path : Paths) {
    std::string Err;
    if (!Inv.addFile(Path, &Err)) {
      std::cerr << "lssc: cannot open file '" << Path << "'\n";
      return false;
    }
  }
  return true;
}

/// --batch FILE: the listed paths (one per line, '#' comments) and one
/// compile-only invocation per path. Returns -1 to proceed, or the exit
/// code to return at once.
int readBatch(const CliOptions &Opts, std::vector<std::string> &Paths,
              std::vector<driver::CompilerInvocation> &Invs) {
  std::ifstream List(Opts.BatchFile);
  if (!List) {
    std::cerr << "lssc: cannot open file '" << Opts.BatchFile << "'\n";
    return ExitOperational;
  }
  std::string Line;
  while (std::getline(List, Line)) {
    size_t B = Line.find_first_not_of(" \t\r");
    if (B == std::string::npos || Line[B] == '#')
      continue;
    size_t E = Line.find_last_not_of(" \t\r");
    Paths.push_back(Line.substr(B, E - B + 1));
  }
  if (Paths.empty()) {
    std::cerr << "lssc: batch list '" << Opts.BatchFile
              << "' names no inputs\n";
    return ExitUsage;
  }
  for (const std::string &Path : Paths) {
    Invs.push_back(makeInvocation(Opts));
    Invs.back().BuildSim = false; // Batch mode compiles; it never simulates.
    if (!addInputs(Invs.back(), {Path}))
      return ExitOperational;
  }
  return -1;
}

/// Reports one compile's verdict, local or remote, and returns its exit
/// code. With a \p Name (--batch) a status line
/// "NAME: ok (...)" or "NAME: <phase> failed" goes to \p Human; a single
/// compile reports only a failure, as "lssc: <phase> failed" on stderr.
/// Diagnostics go to stderr, so stdout stays byte-identical to a plain
/// compile (check_cache_stability.sh observes that contract).
int report(const std::string &Name, const driver::CompileVerdict &V,
           std::ostream &Human) {
  if (!Name.empty()) {
    Human << Name << ": ";
    if (V.Success) {
      Human << "ok (" << V.Instances << " instances, " << V.Connections
            << " connections)";
      if (V.ElabFromCache && V.SolutionFromCache)
        Human << " [cached]";
      else if (V.ElabFromCache || V.SolutionFromCache)
        Human << " [partially cached]";
    } else {
      Human << V.phrase() << " failed";
      if (V.Degraded)
        Human << " (deadline/budget degraded, " << V.GroupsUnsolved
              << " groups unsolved)";
    }
    Human << "\n";
  } else if (!V.Success) {
    std::cerr << "lssc: " << V.phrase() << " failed\n";
  }
  // Warnings and the cache's recovery notes matter on success too.
  std::cerr << V.Diagnostics;
  return V.ExitCode;
}

/// report() for a daemon reply, which may carry an error instead of a
/// verdict (exit 1).
int reportReply(const std::string &Name,
                const driver::CompileClient::Result &R, std::ostream &Human) {
  if (R.Error.empty())
    return report(Name, R, Human);
  std::cerr << "lssc: daemon error"
            << (Name.empty() ? "" : " for '" + Name + "'") << ": " << R.Error
            << "\n";
  return ExitOperational;
}

/// Writes \p Doc to the --stats-json destination \p Path ('-' = stdout).
/// Returns false after saying so when the file cannot be written.
bool writeStatsJson(const std::string &Path, const driver::Json &Doc) {
  if (Path == "-") {
    Doc.writeIndented(std::cout);
    return true;
  }
  std::ofstream Out(Path);
  if (Out) {
    Doc.writeIndented(Out);
    Out.close();
  }
  if (!Out) {
    std::cerr << "lssc: cannot write '" << Path << "'\n";
    return false;
  }
  return true;
}

/// --batch FILE in-process: the listed models compiled concurrently
/// through the service, reported in list order.
int runLocalBatch(driver::CompileService &Svc, const CliOptions &Opts,
                  std::ostream &Human) {
  std::vector<std::string> Paths;
  std::vector<driver::CompilerInvocation> Invs;
  if (int Exit = readBatch(Opts, Paths, Invs); Exit >= 0)
    return Exit;
  std::vector<driver::CompileResult> Results =
      Svc.compileBatch(Invs, Opts.Jobs);
  int Worst = ExitSuccess;
  for (size_t I = 0; I != Results.size(); ++I)
    Worst = std::max(
        Worst, report(Paths[I], driver::CompileVerdict::of(Results[I]), Human));
  if (Svc.getOptions().CacheEnabled) {
    driver::CacheStats CS = Svc.getCache().getStats();
    Human << "cache: " << CS.Hits << " hits, " << CS.Misses << " misses, "
          << CS.Stores << " stores\n";
  }
  return Worst;
}

/// --daemon: ship the compile(s) to a running lssd. Returns the exit code,
/// or -1 when the daemon is unreachable (or its transport kept failing and
/// the circuit breaker opened) and falling back in-process is allowed (the
/// caller then compiles locally).
int runDaemon(const CliOptions &Opts, std::ostream &Human) {
  driver::CompileClient Client(Opts.DaemonAddress);
  std::string Err;
  if (!Client.connect(&Err)) {
    if (Opts.NoDaemonFallback) {
      std::cerr << "lssc: error: daemon at '" << Opts.DaemonAddress
                << "' unreachable: " << Err << "\n";
      return ExitOperational;
    }
    // An explicit note, not silence: the user asked for the shared warm
    // cache and is getting a cold in-process compile instead.
    std::cerr << "lssc: note: daemon at '" << Opts.DaemonAddress
              << "' unreachable (" << Err << "); compiling in-process\n";
    return -1;
  }

  // With --stats-json, every exit writes the client-side robustness
  // counters (retry/backoff/breaker activity); the full compile stats
  // stay server-side, on lssd's stats endpoint.
  auto writeClientStats = [&] {
    return Opts.StatsJsonPath.empty() ||
           writeStatsJson(Opts.StatsJsonPath,
                          driver::Json::object().set(
                              "daemon_client", Client.clientStatsJson()));
  };
  // A failed write turns a success into exit 1, as it does in-process.
  auto finish = [&](int Exit) {
    return !writeClientStats() && Exit == ExitSuccess ? int(ExitOperational)
                                                      : Exit;
  };

  // A transport-level failure that survived the retry loop (connection
  // kept dying, breaker opened) gets the same treatment as an unreachable
  // daemon: diagnosed fallback, or exit 1 under --no-daemon-fallback.
  auto transportFailed = [&](const std::string &Why) -> int {
    writeClientStats();
    if (Opts.NoDaemonFallback) {
      std::cerr << "lssc: daemon error: " << Why << "\n";
      return ExitOperational;
    }
    std::cerr << "lssc: note: daemon at '" << Opts.DaemonAddress
              << "' failing (" << Why << "); compiling in-process\n";
    return -1;
  };

  if (!Opts.BatchFile.empty()) {
    std::vector<std::string> Paths;
    std::vector<driver::CompilerInvocation> Invs;
    if (int Exit = readBatch(Opts, Paths, Invs); Exit >= 0)
      return Exit;
    // One request per listed model over this connection. Every reply is in
    // hand before anything is printed, so a transport failure part-way
    // through falls back in-process with no partial report.
    std::vector<driver::CompileClient::Result> Results;
    for (const driver::CompilerInvocation &Inv : Invs) {
      Results.push_back(Client.compileWithRetry(Inv, Opts.DeadlineMs));
      const driver::CompileClient::Result &R = Results.back();
      if (!R.Error.empty() && R.ErrorCode.empty())
        return transportFailed(R.Error);
    }
    int Worst = ExitSuccess;
    for (size_t I = 0; I != Results.size(); ++I)
      Worst = std::max(Worst, reportReply(Paths[I], Results[I], Human));
    return finish(Worst);
  }

  driver::CompilerInvocation Inv = makeInvocation(Opts);
  if (!addInputs(Inv, Opts.Inputs))
    return ExitOperational;
  driver::CompileClient::Result R =
      Client.compileWithRetry(Inv, Opts.DeadlineMs);
  if (R.ErrorCode == "queue_full") {
    std::cerr << "lssc: daemon at '" << Opts.DaemonAddress
              << "' is overloaded (queue full after retries)\n";
    return finish(ExitOperational);
  }
  if (!R.Error.empty() && R.ErrorCode.empty())
    return transportFailed(R.Error);
  return finish(reportReply("", R, Human));
}

} // namespace

int main(int Argc, char **Argv) {
  const auto ProcessStart = std::chrono::steady_clock::now();
  CliOptions Opts;
  if (int Code = parseArgs(Argc, Argv, Opts); Code >= 0)
    return Code;

  // Fault injection arms before any I/O so every disk/socket edge is
  // covered; LSS_FAULT first, --fault-inject overrides it.
  FaultInjection::configureFromEnv();
  if (!Opts.FaultSpec.empty()) {
    std::string FErr;
    if (!FaultInjection::configure(Opts.FaultSpec, &FErr)) {
      std::cerr << "lssc: error: bad --fault-inject spec: " << FErr << "\n";
      return ExitUsage;
    }
  }

  // With --stats-json writing to stdout, keep stdout valid JSON: route
  // the human-readable status output (--stats table, --run summary) to
  // stderr instead.
  bool JsonToStdout = Opts.StatsJsonPath == "-";
  std::ostream &Human = JsonToStdout ? std::cerr : std::cout;
  FILE *HumanFile = JsonToStdout ? stderr : stdout;

  if (!Opts.DaemonAddress.empty()) {
    int Code = runDaemon(Opts, Human);
    if (Code >= 0)
      return Code;
    // Unreachable daemon with fallback allowed: compile in-process below.
  }

  bool CacheRequested = !Opts.CacheDir.empty() && !Opts.NoCache;
  if (CacheRequested && Opts.TraceOrder)
    std::cerr << "lssc: note: --trace-order disables the artifact cache\n";
  bool CacheOn = CacheRequested && !Opts.TraceOrder;

  driver::CompileService::Options SvcOpts;
  SvcOpts.CacheEnabled = CacheOn;
  SvcOpts.Cache.DiskDir = Opts.CacheDir;
  driver::CompileService Svc(SvcOpts);

  if (!Opts.BatchFile.empty())
    return runLocalBatch(Svc, Opts, Human);

  driver::CompilerInvocation Inv = makeInvocation(Opts);
  if (!addInputs(Inv, Opts.Inputs))
    return ExitOperational;
  driver::CompileResult R = Svc.compile(Inv);
  int Exit = report("", driver::CompileVerdict::of(R), Human);
  driver::Compiler &C = *R.C;
  using Phase = driver::CompileResult::Phase;
  if (R.Failed == Phase::Parse || R.Failed == Phase::Elaborate)
    return Exit;

  // Elaboration succeeded, so the processing order exists (the cache was
  // forced off above, making the elaboration live).
  if (Opts.TraceOrder && C.getInterpreter()) {
    std::cout << "== instance processing order ==\n";
    for (const netlist::InstanceNode *N :
         C.getInterpreter()->getProcessingOrder())
      std::cout << "  " << (N->Path.empty() ? "<top>" : N->Path) << "\n";
  }

  auto modelStats = [&] {
    return driver::computeModelStats(*C.getNetlist(), C.getLibraryModules(),
                                     C.getNumUserTypeAnnotations(),
                                     Opts.Inputs.front());
  };
  // Observability output goes last so every phase that ran is included.
  auto writeStats = [&] {
    if (Opts.StatsJsonPath.empty())
      return true;
    driver::CacheReport Cache;
    Cache.Stats = Svc.getCache().getStats();
    Cache.ElabFromCache = R.ElabFromCache;
    Cache.SolutionFromCache = R.SolutionFromCache;
    double WallMs = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - ProcessStart)
                        .count();
    return writeStatsJson(
        Opts.StatsJsonPath,
        driver::statsJson(modelStats(), C.getInferenceStats(),
                          C.getPhaseTimer(), WallMs, C.getSimulator(),
                          CacheOn ? &Cache : nullptr));
  };

  if (R.Failed == Phase::Infer) {
    // Budget/deadline exhaustion still produced per-group results for
    // every other group, so honor --stats-json before exiting: it is how
    // callers observe groups_unsolved and which group failed.
    writeStats();
    return Exit;
  }
  if (!R.Success)
    return Exit; // The simulator could not be built.

  if (Opts.PrintNetlist)
    C.getNetlist()->print(std::cout);

  if (Opts.Stats) {
    driver::ModelStats S = modelStats();
    driver::printTable2Header(Human);
    driver::printTable2Row(Human, S);
    const auto &IS = C.getInferenceStats();
    std::fprintf(HumanFile,
                 "inference: %u constraints, %llu unify steps, "
                 "%llu branch points, %u ports (%u polymorphic, "
                 "%u defaulted)\n",
                 IS.Solve.NumConstraints,
                 (unsigned long long)IS.Solve.UnifySteps,
                 (unsigned long long)IS.Solve.BranchPoints, IS.NumPorts,
                 IS.NumPolymorphicPorts, IS.NumDefaulted);
  }

  if (Opts.EmitStatic)
    std::cout << baseline::emitFlatStaticSpec(*C.getNetlist());

  if (Opts.EmitDot)
    netlist::emitDot(*C.getNetlist(), std::cout);

  if (Opts.RunCycles) {
    sim::Simulator *Sim = C.getSimulator();
    std::vector<uint64_t *> Counters;
    for (const auto &[Path, Event] : Opts.Watches)
      Counters.push_back(&Sim->getInstrumentation().attachCounter(Path, Event));
    {
      PhaseTimer::Scope Run(&C.getPhaseTimer(), "simulate");
      Sim->step(Opts.RunCycles);
    }
    C.getPhaseTimer().setCounter("simulate", "cycles", Opts.RunCycles);
    std::fprintf(HumanFile,
                 "ran %llu cycles on the %s engine (%u leaves, %u nets, "
                 "%u schedule groups)\n",
                 (unsigned long long)Sim->getCycle(), Sim->getEngineName(),
                 Sim->getBuildInfo().NumLeaves, Sim->getBuildInfo().NumNets,
                 Sim->getBuildInfo().NumGroups);
    // Build time stays out of the human line so stdout is byte-identical
    // cold vs. warm (see tools/check_cache_stability.sh); --stats-json
    // reports it.
    if (const sim::KernelStats *KS = Sim->getKernelStats())
      std::fprintf(HumanFile, "kernel: %u ops (%u generic)\n", KS->NumOps,
                   KS->NumGenericOps);
    for (unsigned I = 0; I != Opts.Watches.size(); ++I)
      std::fprintf(HumanFile, "watch '%s %s': %llu events\n",
                   Opts.Watches[I].first.c_str(),
                   Opts.Watches[I].second.c_str(),
                   (unsigned long long)*Counters[I]);
    if (Sim->hadRuntimeErrors()) {
      std::cerr << C.diagnosticsText();
      return ExitSimFault;
    }
  }

  if (!writeStats())
    return ExitOperational;
  if (Opts.TimePhases)
    C.getPhaseTimer().print(std::cerr);
  return ExitSuccess;
}
