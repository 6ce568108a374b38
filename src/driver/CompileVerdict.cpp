//===- CompileVerdict.cpp - The outcome of one compile ------------------------===//

#include "driver/CompileVerdict.h"

#include "driver/DaemonProtocol.h"
#include "infer/Solution.h"
#include "netlist/Serializer.h"

#include <sstream>

using namespace liberty;
using namespace liberty::driver;

namespace {

using Phase = CompileResult::Phase;

constexpr PhaseInfo PhaseTable[] = {
    {Phase::None, "none", "compilation", ExitSuccess},
    {Phase::Parse, "parse", "parsing", ExitParseSema},
    {Phase::Elaborate, "elaborate", "elaboration", ExitParseSema},
    {Phase::Infer, "infer", "type inference", ExitInference},
    {Phase::SimBuild, "simbuild", "simulator construction", ExitSimFault},
};

} // namespace

const PhaseInfo &liberty::driver::phaseInfo(Phase P) {
  for (const PhaseInfo &I : PhaseTable)
    if (I.Phase == P)
      return I;
  return PhaseTable[0];
}

const PhaseInfo &liberty::driver::phaseInfo(std::string_view WireName) {
  for (const PhaseInfo &I : PhaseTable)
    if (WireName == I.WireName)
      return I;
  return PhaseTable[0];
}

CompileVerdict CompileVerdict::of(const CompileResult &R) {
  Compiler &C = *R.C;
  const infer::SolveStats &Solve = C.getInferenceStats().Solve;
  const PhaseInfo &Failed = phaseInfo(R.Failed);
  CompileVerdict V;
  V.Success = R.Success;
  V.FailedPhase = Failed.WireName;
  V.ExitCode = Failed.Exit;
  V.ElabFromCache = R.ElabFromCache;
  V.SolutionFromCache = R.SolutionFromCache;
  V.Degraded =
      R.Failed == Phase::Infer && (Solve.HitLimit || Solve.HitDeadline);
  V.GroupsUnsolved = Solve.NumUnsolved;
  V.Diagnostics = C.diagnosticsText();
  if (R.Success && C.getNetlist()) {
    netlist::NetlistCounts N =
        netlist::countInstancesAndConnections(*C.getNetlist());
    V.Instances = N.Instances;
    V.Connections = N.Connections;
  }
  return V;
}

CompileVerdict CompileVerdict::ofCached(const CompilerInvocation &Inv,
                                        const netlist::NetlistSummary &Elab,
                                        const infer::SolutionSummary &Solve) {
  CompileVerdict V;
  V.Success = true;
  V.FailedPhase = phaseInfo(Phase::None).WireName;
  V.ExitCode = ExitSuccess;
  V.ElabFromCache = V.SolutionFromCache = true;
  V.GroupsUnsolved = Solve.Solve.NumUnsolved;
  V.Instances = Elab.Counts.Instances;
  V.Connections = Elab.Counts.Connections;
  if (Elab.Diags.empty() && Solve.Diags.empty())
    return V;
  SourceMgr SM;
  Inv.registerBuffers(SM);
  DiagnosticEngine Diags(SM);
  Diags.replay(Elab.Diags);
  Diags.replay(Solve.Diags);
  std::ostringstream OS;
  Diags.printAll(OS);
  V.Diagnostics = OS.str();
  return V;
}

Json liberty::driver::verdictToWire(const CompileVerdict &V) {
  Json Res = Json::object();
  Res.set("type", msg::Result)
      .set("success", V.Success)
      .set("failed_phase", V.FailedPhase)
      .set("exit_code", V.ExitCode)
      .set("elab_from_cache", V.ElabFromCache)
      .set("solution_from_cache", V.SolutionFromCache)
      .set("degraded", V.Degraded)
      .set("groups_unsolved", V.GroupsUnsolved)
      .set("diagnostics", V.Diagnostics)
      .set("queue_ms", V.QueueMs)
      .set("service_ms", V.ServiceMs);
  if (V.Success)
    Res.set("instances", V.Instances).set("connections", V.Connections);
  return Res;
}

CompileVerdict liberty::driver::verdictFromWire(const Json &Msg) {
  CompileVerdict V;
  V.Success = Msg.getBool("success");
  V.FailedPhase = Msg.getString("failed_phase", "none");
  V.ExitCode = int(Msg.getU64("exit_code"));
  V.ElabFromCache = Msg.getBool("elab_from_cache");
  V.SolutionFromCache = Msg.getBool("solution_from_cache");
  V.Degraded = Msg.getBool("degraded");
  V.GroupsUnsolved = Msg.getU64("groups_unsolved");
  V.Diagnostics = Msg.getString("diagnostics");
  V.Instances = Msg.getU64("instances");
  V.Connections = Msg.getU64("connections");
  V.QueueMs = Msg.getNumber("queue_ms");
  V.ServiceMs = Msg.getNumber("service_ms");
  return V;
}
