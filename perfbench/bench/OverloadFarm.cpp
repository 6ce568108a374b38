//===- OverloadFarm.cpp - Workload overload_farm --------------------------===//
///
/// Seeded one-module-per-file overload projects of about 10k instances
/// (bench_incremental's shape): the seed draws each project's lane count,
/// stage count and per-lane overload depth. Each operation compiles one
/// project cold in-process, without a simulator and without the cache, so
/// the H1/H2/H3 solve dominates, elaboration and parsing do the rest, and
/// the sim and driver layers are bypassed — the opposite of paper_models.
///
/// Oracle: the answer the generator builds in. Every connected port in
/// every lane must resolve to int, and no constraint group may be left
/// unsolved.
///
//===----------------------------------------------------------------------===//

#include "Inputs.h"
#include "Pipeline.h"
#include "Workloads.h"

#include "types/Type.h"

#include <algorithm>
#include <thread>

using namespace liberty;

namespace perfbench {

namespace {

constexpr unsigned NumProjects = 3;
constexpr unsigned TargetInstances = 10000;

/// Checks the generator's built-in answer; returns "" when it holds.
std::string checkAllInt(driver::Compiler &C, const OverloadShape &Shape) {
  const infer::SolveStats &SS = C.getInferenceStats().Solve;
  if (SS.NumUnsolved != 0)
    return std::to_string(SS.NumUnsolved) + " unsolved groups";
  uint64_t Checked = 0;
  for (const auto &Inst : C.getNetlist()->getInstances()) {
    if (!Inst->Parent || Inst->Path.empty() || Inst->Path[0] != 'm')
      continue;
    for (const netlist::Port &P : Inst->Ports) {
      if (P.Width == 0)
        continue;
      if (!P.Resolved || P.Resolved->str() != "int")
        return Inst->Path + "." + P.Name + " resolved to " +
               (P.Resolved ? P.Resolved->str() : std::string("nothing"));
      ++Checked;
    }
  }
  // Per lane: Stages adders (in1 except the first, out) and one sink.
  const uint64_t Expected = uint64_t(Shape.lanes()) * (2 * Shape.Stages);
  if (Checked != Expected)
    return "checked " + std::to_string(Checked) + " lane ports, expected " +
           std::to_string(Expected);
  return "";
}

} // namespace

RunResult runOverloadFarm(const Settings &S) {
  RunResult Res;
  Rng R(S.Seed, /*Salt=*/2);
  // Never more solver threads than the host has, and at most 4, so hosts
  // with more cores still run the same configuration.
  const unsigned Threads =
      std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  std::vector<OverloadShape> Shapes;
  std::vector<driver::CompilerInvocation> Invs;
  for (unsigned P = 0; P != NumProjects; ++P) {
    Shapes.push_back(drawOverloadShape(R, "p" + std::to_string(P) + "_",
                                       TargetInstances, 90, 110, 13, 16,
                                       /*LanesPerDepth=*/22));
    Invs.push_back(overloadProject(Shapes.back(), {}));
    Invs.back().Solve.NumThreads = Threads;
    driver::Json Depths = driver::Json::array();
    for (unsigned D : Shapes.back().Depths)
      Depths.push(uint64_t(D));
    Res.Params.set("project" + std::to_string(P),
                   driver::Json::object()
                       .set("lanes", uint64_t(Shapes.back().lanes()))
                       .set("stages", uint64_t(Shapes.back().Stages))
                       .set("instances", uint64_t(Shapes.back().instances()))
                       .set("depths", std::move(Depths)));
  }
  Res.Params.set("solver_threads", uint64_t(Threads));

  // One-time process costs (core-library parse, behavior registration,
  // the solver pool, first-touch allocation of a 10k-instance netlist)
  // belong to setup: one warm-up compile of the first project.
  {
    Tracer Off(false, Clock::now());
    TimedCompile TC = compileTimed(Invs[0], false, Off, 0, 0, -1);
    if (!TC.Ok) {
      Res.Attempted = 1;
      Res.fail("warm-up compile failed\n" + TC.C->diagnosticsText());
      return Res;
    }
  }
  markSetupDone();
  if (S.SetupOnly)
    return Res;

  Tracer T(S.Trace, Clock::now());
  Tracer Off(false, Clock::now());
  std::vector<std::vector<double>> CompileMs(NumProjects), TracedMs(NumProjects);
  double ParseMs = 0, ElabMs = 0, InferMs = 0;
  uint64_t TracedOps = 0, TracedBytes = 0, TracedInstances = 0;
  uint64_t Constraints = 0, UnifySteps = 0, BranchPoints = 0, Groups = 0,
           Unsolved = 0, ThreadsUsed = 0, Instances = 0, Bytes = 0;
  uint64_t InstancesCompiled = 0;
  double UntracedMsTotal = 0;

  const auto Deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(S.Seconds));
  for (uint64_t Round = 0; Round == 0 || Clock::now() < Deadline; ++Round) {
    const bool Traced = S.Trace && Round % 2 == 1;
    Tracer &Use = Traced ? T : Off;
    for (unsigned P = 0; P != NumProjects; ++P) {
      const uint64_t Op = Round * 16 + P;
      ++Res.Attempted;
      Span Root(Use, "compile project", "bench", Op, 0);
      TimedCompile TC = compileTimed(Invs[P], false, Use, Op, 0, Root.id());
      Root.close();
      if (!TC.Ok) {
        Res.fail("project " + std::to_string(P) + ": compile failed in " +
                 TC.FailedPhase + "\n" + TC.C->diagnosticsText());
        continue;
      }
      // Untimed: the oracle.
      std::string Why = checkAllInt(*TC.C, Shapes[P]);
      if (!Why.empty())
        Res.fail("project " + std::to_string(P) + ": " + Why);
      const uint64_t Inst = TC.C->getNetlist()->getInstances().size() - 1;
      if (Round == 0) {
        const infer::SolveStats &SS = TC.C->getInferenceStats().Solve;
        Constraints += SS.NumConstraints;
        UnifySteps += SS.UnifySteps;
        BranchPoints += SS.BranchPoints;
        Groups += SS.NumComponents;
        Unsolved += SS.NumUnsolved;
        ThreadsUsed = std::max<uint64_t>(ThreadsUsed, SS.ThreadsUsed);
        Instances += Inst;
        Bytes += sourceBytes(Invs[P]);
      }
      if (Traced) {
        TracedMs[P].push_back(TC.CompileMs);
        ++TracedOps;
        ParseMs += TC.ParseMs;
        ElabMs += TC.ElabMs;
        InferMs += TC.InferMs;
        TracedBytes += sourceBytes(Invs[P]);
        TracedInstances += Inst;
      } else {
        CompileMs[P].push_back(TC.CompileMs);
        UntracedMsTotal += TC.CompileMs;
        InstancesCompiled += Inst;
      }
    }
  }
  const double PeakRss = selfPeakRssMb();

  std::vector<double> All, BestRates;
  for (unsigned P = 0; P != NumProjects; ++P) {
    All.insert(All.end(), CompileMs[P].begin(), CompileMs[P].end());
    if (!CompileMs[P].empty())
      BestRates.push_back(double(Shapes[P].instances()) /
                          (quantile(CompileMs[P], 0.0) / 1000.0));
  }
  const double InstancesPerS =
      UntracedMsTotal > 0 ? double(InstancesCompiled) / (UntracedMsTotal / 1000)
                          : 0;
  Res.EndToEnd["compile_ms_min"] = geomeanOfQuantiles(CompileMs, 0.0);
  Res.EndToEnd["latency_ms_min"] = geomeanOfQuantiles(CompileMs, 0.0);
  Res.EndToEnd["throughput_per_s"] = geomean(BestRates);
  Res.EndToEnd["peak_rss_mb"] = PeakRss;
  Res.Report["compile_ms_p50"] = geomeanOfQuantiles(CompileMs, 0.5);
  Res.Report["compile_ms_p90"] = quantile(All, 0.9);
  Res.Report["instances_per_s"] = InstancesPerS;
  Res.Report["compiles_timed"] = double(All.size());

  auto &L = Res.Layers;
  const double PerOp = TracedOps ? 1.0 / double(TracedOps) : 0.0;
  L["lss.parse_ms"] = ParseMs * PerOp;
  L["lss.source_kb"] = double(Bytes) / 1024.0;
  L["lss.kb_per_ms"] = ParseMs > 0 ? double(TracedBytes) / 1024.0 / ParseMs : 0;
  L["interp.elaborate_ms"] = ElabMs * PerOp;
  L["interp.instances"] = double(Instances);
  L["interp.us_per_instance"] =
      TracedInstances ? ElabMs * 1000.0 / double(TracedInstances) : 0;
  L["infer.ms"] = InferMs * PerOp;
  L["infer.constraints"] = double(Constraints);
  L["infer.unify_steps"] = double(UnifySteps);
  L["infer.branch_points"] = double(BranchPoints);
  L["infer.groups"] = double(Groups);
  L["infer.groups_unsolved"] = double(Unsolved);
  L["infer.threads_used"] = double(ThreadsUsed);
  finishTrace(S, T, TracedOps, geomeanOfQuantiles(TracedMs, 0.5),
              geomeanOfQuantiles(CompileMs, 0.5), Res);
  return Res;
}

} // namespace perfbench
