//===- PaperModels.cpp - Workload paper_models ----------------------------===//
///
/// The paper's models A-F (Table 3), each `core*.seed` line redrawn from
/// the workload seed. One operation ("job") is what `lssc --run N` does:
/// a cold in-process compile through buildSimulator on the compiled
/// engine, then N simulated cycles. The simulator does almost all the
/// work here, so this is where the sim layer shows.
///
/// Oracle: after the timed window each model is rebuilt on the interp
/// engine (the exhaustive reference) and run for the same N cycles; the
/// digest of every leaf port's final value must equal the digest of each
/// compiled-engine job.
///
//===----------------------------------------------------------------------===//

#include "Inputs.h"
#include "Pipeline.h"
#include "Workloads.h"

#include "sim/CompiledKernel.h"

using namespace liberty;

namespace perfbench {

namespace {

constexpr uint64_t CyclesPerJob = 1000;
constexpr uint64_t CyclesPerStep = 250;

/// Digest of the simulator's observable final state: every leaf port
/// instance's last driven value (or absence), the cycle, and the number
/// of instrumentation events emitted.
uint64_t finalStateDigest(driver::Compiler &C) {
  sim::Simulator *Sim = C.getSimulator();
  uint64_t H = fnv1a("cycle " + std::to_string(Sim->getCycle()));
  H = fnv1a("emitted " +
                std::to_string(Sim->getInstrumentation().totalEmitted()),
            H);
  for (const auto &Inst : C.getNetlist()->getInstances()) {
    if (!Inst->isLeaf())
      continue;
    for (const netlist::Port &P : Inst->Ports)
      for (int I = 0; I != P.Width; ++I) {
        const interp::Value *V = Sim->peekPort(Inst->Path, P.Name, I);
        H = fnv1a(Inst->Path + "." + P.Name + "[" + std::to_string(I) +
                      "]=" + (V ? V->str() : "-"),
                  H);
      }
  }
  return H;
}

struct ModelRun {
  std::vector<double> CompileMs, JobMs, CyclesPerS;
  std::vector<double> TracedJobMs;
  std::vector<uint64_t> Digests;
  uint64_t RuntimeErrorJobs = 0;
  // Round-0 counts (deterministic for a seed).
  uint64_t Constraints = 0, UnifySteps = 0, BranchPoints = 0, Groups = 0,
           Unsolved = 0, ThreadsUsed = 0, Instances = 0, KernelOps = 0,
           GenericOps = 0, SourceBytes = 0;
};

} // namespace

RunResult runPaperModels(const Settings &S) {
  RunResult Res;
  Rng R(S.Seed, /*Salt=*/1);
  std::vector<PaperModel> Models;
  std::string Err;
  if (!paperModels(S.ModelsDir, R, Models, Err)) {
    Res.Attempted = 1;
    Res.fail(Err);
    return Res;
  }
  for (PaperModel &M : Models) {
    M.Inv.Sim.Engine = sim::EngineKind::Compiled;
    M.Inv.Solve.NumThreads = 1;
    Res.Params.set("model_" + M.Id, coreSeedsJson(M));
  }
  Res.Params.set("cycles_per_job", CyclesPerJob).set("engine", "compiled");

  // One-time process costs (core-library parse, behavior registration,
  // first-touch allocation) belong to setup, not to the first timed job:
  // one short warm-up job per model.
  {
    Tracer Off(false, Clock::now());
    for (const PaperModel &M : Models) {
      TimedCompile TC = compileTimed(M.Inv, true, Off, 0, 0, -1);
      if (!TC.Ok) {
        Res.Attempted = 1;
        Res.fail("model " + M.Id + ": warm-up compile failed\n" +
                 TC.C->diagnosticsText());
        return Res;
      }
      TC.C->getSimulator()->step(CyclesPerStep);
    }
  }
  markSetupDone();
  if (S.SetupOnly)
    return Res;

  Tracer T(S.Trace, Clock::now());
  Tracer Off(false, Clock::now());
  std::vector<ModelRun> Runs(Models.size());
  double ParseMs = 0, ElabMs = 0, InferMs = 0, BuildMs = 0, StepMs = 0;
  uint64_t TracedJobs = 0, TracedBytes = 0, TracedInstances = 0;
  std::vector<uint64_t> TracedJobsPerModel(Models.size(), 0);

  const auto Deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(S.Seconds));
  for (uint64_t Round = 0; Round == 0 || Clock::now() < Deadline; ++Round) {
    // Traced runs alternate traced and untraced rounds, so the tracing
    // overhead is measured on the same inputs in the same process.
    const bool Traced = S.Trace && Round % 2 == 1;
    Tracer &Use = Traced ? T : Off;
    for (size_t MI = 0; MI != Models.size(); ++MI) {
      const PaperModel &M = Models[MI];
      ModelRun &MR = Runs[MI];
      const uint64_t Op = Round * 16 + MI;
      ++Res.Attempted;
      Span Job(Use, ("job " + M.Id).c_str(), "bench", Op, 0);
      TimedCompile TC = compileTimed(M.Inv, true, Use, Op, 0, Job.id());
      if (!TC.Ok) {
        Job.close();
        Res.fail("model " + M.Id + ": compile failed in " + TC.FailedPhase +
                 "\n" + TC.C->diagnosticsText());
        continue;
      }
      sim::Simulator *Sim = TC.C->getSimulator();
      double JobStepMs = 0;
      for (uint64_t Done = 0; Done < CyclesPerJob; Done += CyclesPerStep) {
        Span St(Use, "Simulator::step", "sim", Op, 0, Job.id());
        Sim->step(CyclesPerStep);
        JobStepMs += St.close();
      }
      double JobMs = Job.close();

      // Untimed: output digest and counters.
      MR.Digests.push_back(finalStateDigest(*TC.C));
      if (Sim->hadRuntimeErrors())
        ++MR.RuntimeErrorJobs;
      if (Round == 0) {
        const infer::SolveStats &SS = TC.C->getInferenceStats().Solve;
        MR.Constraints = SS.NumConstraints;
        MR.UnifySteps = SS.UnifySteps;
        MR.BranchPoints = SS.BranchPoints;
        MR.Groups = SS.NumComponents;
        MR.Unsolved = SS.NumUnsolved;
        MR.ThreadsUsed = SS.ThreadsUsed;
        MR.Instances = TC.C->getNetlist()->getInstances().size() - 1;
        if (const sim::KernelStats *KS = Sim->getKernelStats()) {
          MR.KernelOps = KS->NumOps;
          MR.GenericOps = KS->NumGenericOps;
        }
        MR.SourceBytes = sourceBytes(M.Inv);
      }
      if (Traced) {
        MR.TracedJobMs.push_back(JobMs);
        ++TracedJobs;
        ++TracedJobsPerModel[MI];
        ParseMs += TC.ParseMs;
        ElabMs += TC.ElabMs;
        InferMs += TC.InferMs;
        BuildMs += TC.BuildMs;
        StepMs += JobStepMs;
        TracedBytes += MR.SourceBytes;
        TracedInstances += MR.Instances;
      } else {
        MR.CompileMs.push_back(TC.CompileMs);
        MR.JobMs.push_back(JobMs);
        MR.CyclesPerS.push_back(double(CyclesPerJob) / (JobStepMs / 1000.0));
      }
    }
  }
  const double PeakRss = selfPeakRssMb();

  // --- Oracle: the interp engine on the same inputs (untimed). ----------
  uint64_t LeafEvals = 0, NetWrites = 0, NetChanges = 0, TracedLeafEvals = 0;
  for (size_t MI = 0; MI != Models.size(); ++MI) {
    driver::CompilerInvocation Inv = Models[MI].Inv;
    Inv.Sim.Engine = sim::EngineKind::Interp;
    TimedCompile Ref = compileTimed(Inv, true, Off, 0, 0, -1);
    if (!Ref.Ok) {
      Res.fail("model " + Models[MI].Id + ": interp oracle compile failed");
      continue;
    }
    sim::Simulator *Sim = Ref.C->getSimulator();
    Sim->step(CyclesPerJob);
    const uint64_t Want = finalStateDigest(*Ref.C);
    for (uint64_t Got : Runs[MI].Digests)
      if (Got != Want)
        Res.fail("model " + Models[MI].Id +
                 ": compiled-engine final state differs from interp");
    for (uint64_t I = 0; I != Runs[MI].RuntimeErrorJobs; ++I)
      Res.fail("model " + Models[MI].Id + ": runtime error while stepping");
    const sim::ActivityStats &A = Sim->getActivityStats();
    LeafEvals += A.LeafEvals;
    NetWrites += A.NetWrites;
    NetChanges += A.NetChanges;
    TracedLeafEvals += A.LeafEvals * TracedJobsPerModel[MI];
  }

  // --- End-to-end metrics. ----------------------------------------------
  std::vector<std::vector<double>> Compile, Jobs, Rates, Traced;
  std::vector<double> AllJobs;
  for (const ModelRun &MR : Runs) {
    Compile.push_back(MR.CompileMs);
    Jobs.push_back(MR.JobMs);
    Rates.push_back(MR.CyclesPerS);
    Traced.push_back(MR.TracedJobMs);
    AllJobs.insert(AllJobs.end(), MR.JobMs.begin(), MR.JobMs.end());
  }
  Res.EndToEnd["compile_ms_min"] = geomeanOfQuantiles(Compile, 0.0);
  Res.EndToEnd["latency_ms_min"] = geomeanOfQuantiles(Jobs, 0.0);
  Res.EndToEnd["throughput_per_s"] = geomeanOfQuantiles(Rates, 1.0);
  Res.EndToEnd["peak_rss_mb"] = PeakRss;
  Res.Report["compile_ms_p50"] = geomeanOfQuantiles(Compile, 0.5);
  Res.Report["job_ms_p50"] = geomeanOfQuantiles(Jobs, 0.5);
  Res.Report["job_ms_p90"] = quantile(AllJobs, 0.9);
  Res.Report["sim_cycles_per_s"] = geomeanOfQuantiles(Rates, 0.5);
  Res.Report["jobs_timed"] = double(AllJobs.size());

  // --- Per-layer metrics. -----------------------------------------------
  uint64_t Constraints = 0, UnifySteps = 0, BranchPoints = 0, Groups = 0,
           Unsolved = 0, ThreadsUsed = 0, Instances = 0, KernelOps = 0,
           GenericOps = 0, Bytes = 0, RuntimeErrors = 0;
  for (const ModelRun &MR : Runs) {
    Constraints += MR.Constraints;
    UnifySteps += MR.UnifySteps;
    BranchPoints += MR.BranchPoints;
    Groups += MR.Groups;
    Unsolved += MR.Unsolved;
    ThreadsUsed = std::max(ThreadsUsed, MR.ThreadsUsed);
    Instances += MR.Instances;
    KernelOps += MR.KernelOps;
    GenericOps += MR.GenericOps;
    Bytes += MR.SourceBytes;
    RuntimeErrors += MR.RuntimeErrorJobs;
  }
  auto &L = Res.Layers;
  const double PerJob = TracedJobs ? 1.0 / double(TracedJobs) : 0.0;
  L["lss.parse_ms"] = ParseMs * PerJob;
  L["lss.source_kb"] = double(Bytes) / 1024.0;
  L["lss.kb_per_ms"] = ParseMs > 0 ? double(TracedBytes) / 1024.0 / ParseMs : 0;
  L["interp.elaborate_ms"] = ElabMs * PerJob;
  L["interp.instances"] = double(Instances);
  L["interp.us_per_instance"] =
      TracedInstances ? ElabMs * 1000.0 / double(TracedInstances) : 0;
  L["infer.ms"] = InferMs * PerJob;
  L["infer.constraints"] = double(Constraints);
  L["infer.unify_steps"] = double(UnifySteps);
  L["infer.branch_points"] = double(BranchPoints);
  L["infer.groups"] = double(Groups);
  L["infer.groups_unsolved"] = double(Unsolved);
  L["infer.threads_used"] = double(ThreadsUsed);
  L["sim.build_ms"] = BuildMs * PerJob;
  L["sim.step_ms"] = StepMs * PerJob;
  L["sim.kernel_ops"] = double(KernelOps);
  L["sim.generic_op_share"] =
      KernelOps ? double(GenericOps) / double(KernelOps) : 0;
  L["sim.leaf_evals"] = double(LeafEvals);
  L["sim.ns_per_leaf_eval"] =
      TracedLeafEvals ? StepMs * 1e6 / double(TracedLeafEvals) : 0;
  L["sim.net_writes"] = double(NetWrites);
  L["sim.net_change_ratio"] =
      NetWrites ? double(NetChanges) / double(NetWrites) : 0;
  L["sim.runtime_errors"] = double(RuntimeErrors);
  finishTrace(S, T, TracedJobs, geomeanOfQuantiles(Traced, 0.5),
              geomeanOfQuantiles(Jobs, 0.5), Res);
  return Res;
}

} // namespace perfbench
