//===- Stats.cpp - Reuse statistics (Table 2) --------------------------------===//

#include "driver/Stats.h"

#include "lss/AST.h"
#include "netlist/Netlist.h"
#include "sim/CompiledKernel.h"
#include "sim/Simulator.h"
#include "support/PhaseTimer.h"

#include <algorithm>
#include <cmath>
#include <iomanip>

using namespace liberty;
using namespace liberty::driver;

/// A "trivial" hierarchical instance wraps a collection of identical
/// sub-components without parameterization (the paper discounts these in
/// the parenthesized Table 2 figures).
static bool isTrivialWrapper(const netlist::InstanceNode &Inst) {
  if (Inst.isLeaf() || Inst.Children.empty())
    return false;
  if (!Inst.Params.empty())
    return false;
  // Module names are unique per compilation (duplicates are diagnosed), so
  // name equality matches the declaration-identity test — and, unlike the
  // AST pointer, survives netlist serialization.
  const std::string &First = Inst.Children.front()->ModuleName;
  for (const netlist::InstanceNode *Child : Inst.Children)
    if (Child->ModuleName != First)
      return false;
  return true;
}

ModelStats
liberty::driver::computeModelStats(const netlist::Netlist &NL,
                                   const std::set<std::string> &LibraryModules,
                                   unsigned NumUserAnnotations,
                                   std::string Name) {
  ModelStats S;
  S.Name = std::move(Name);
  S.ExplicitTypesWithInference = NumUserAnnotations;
  netlist::NetlistCounts Counts = netlist::countInstancesAndConnections(NL);
  S.TotalInstances = Counts.Instances;
  S.Connections = Counts.Connections;

  std::set<std::string> Modules, LeafModules, HierModules, LibUsed;
  for (const auto &Inst : NL.getInstances()) {
    if (Inst->ModuleName.empty())
      continue; // Synthetic root.
    const std::string &ModName = Inst->ModuleName;
    Modules.insert(ModName);
    if (Inst->isLeaf()) {
      ++S.LeafInstances;
      LeafModules.insert(ModName);
    } else {
      ++S.HierarchicalInstances;
      HierModules.insert(ModName);
      if (isTrivialWrapper(*Inst))
        ++S.TrivialHierarchicalInstances;
    }
    if (LibraryModules.count(ModName)) {
      ++S.InstancesFromLibrary;
      LibUsed.insert(ModName);
    }
    S.ExplicitTypesWithoutInference += Inst->NumTypeVars;
    for (const netlist::Port &P : Inst->Ports)
      if (P.WidthInferred && P.Width > 0)
        ++S.InferredPortWidths;
  }
  S.DistinctModules = Modules.size();
  S.DistinctLeafModules = LeafModules.size();
  S.DistinctHierarchicalModules = HierModules.size();
  S.ModulesFromLibrary = LibUsed.size();
  return S;
}

ModelStats liberty::driver::totalStats(const std::vector<ModelStats> &All) {
  ModelStats T;
  T.Name = "Total";
  for (const ModelStats &S : All) {
    T.TotalInstances += S.TotalInstances;
    T.HierarchicalInstances += S.HierarchicalInstances;
    T.LeafInstances += S.LeafInstances;
    T.TrivialHierarchicalInstances += S.TrivialHierarchicalInstances;
    // Distinct-module totals are upper bounds (models share the library).
    T.DistinctModules = std::max(T.DistinctModules, S.DistinctModules);
    T.DistinctLeafModules =
        std::max(T.DistinctLeafModules, S.DistinctLeafModules);
    T.DistinctHierarchicalModules =
        std::max(T.DistinctHierarchicalModules, S.DistinctHierarchicalModules);
    T.InstancesFromLibrary += S.InstancesFromLibrary;
    T.ModulesFromLibrary = std::max(T.ModulesFromLibrary, S.ModulesFromLibrary);
    T.ExplicitTypesWithoutInference += S.ExplicitTypesWithoutInference;
    T.ExplicitTypesWithInference += S.ExplicitTypesWithInference;
    T.InferredPortWidths += S.InferredPortWidths;
    T.Connections += S.Connections;
  }
  return T;
}

void liberty::driver::printTable2Header(std::ostream &OS) {
  OS << std::left << std::setw(8) << "Model" << std::right << std::setw(10)
     << "Instances" << std::setw(8) << "Hier" << std::setw(7) << "Leaf"
     << std::setw(9) << "Modules" << std::setw(10) << "Inst/Mod"
     << std::setw(8) << "FromLib" << std::setw(12) << "TypesW/O-TI"
     << std::setw(11) << "TypesW-TI" << std::setw(10) << "InfWidth"
     << std::setw(8) << "Conns" << "\n";
}

/// \p X rounded to \p Digits decimals, so the documents show times and
/// rates at the precision they are measured to.
static double rounded(double X, int Digits) {
  double Scale = std::pow(10.0, Digits);
  return std::round(X * Scale) / Scale;
}

Json liberty::driver::phasesJson(const PhaseTimer &Timer) {
  Json Phases = Json::array();
  for (const PhaseTimer::Phase &P : Timer.getPhases()) {
    Json Row = Json::object();
    Row.set("name", P.Name).set("wall_ms", rounded(P.WallMs, 3));
    for (const PhaseTimer::Counter &C : P.Counters)
      Row.set(C.Name, C.Value);
    Phases.push(std::move(Row));
  }
  return Phases;
}

Json liberty::driver::cacheCountersJson(const CacheStats &CS) {
  return Json::object()
      .set("hits", CS.Hits)
      .set("misses", CS.Misses)
      .set("memory_hits", CS.MemoryHits)
      .set("disk_hits", CS.DiskHits)
      .set("stores", CS.Stores)
      .set("evictions", CS.Evictions)
      .set("evictions_unused", CS.EvictionsUnused)
      .set("bytes_in_memory", CS.BytesInMemory)
      .set("bytes_in_probation", CS.BytesInProbation)
      .set("corrupt", CS.Corrupt)
      .set("tmp_swept", CS.TmpSwept)
      .set("quarantined", CS.Quarantined)
      .set("disk_write_failures", CS.DiskWriteFailures)
      .set("cache_degraded", CS.Degraded);
}

static Json inferenceJson(const infer::NetlistInferenceStats &IS) {
  const infer::SolveStats &Solve = IS.Solve;
  Json Groups = Json::array();
  for (size_t I = 0; I != Solve.Groups.size(); ++I) {
    const infer::GroupStats &G = Solve.Groups[I];
    Groups.push(Json::object()
                    .set("index", uint64_t(I))
                    .set("constraints", G.NumConstraints)
                    .set("unify_steps", G.UnifySteps)
                    .set("branch_points", G.BranchPoints)
                    .set("wall_ms", rounded(G.WallMs, 3))
                    .set("success", G.Success)
                    .set("hit_limit", G.HitLimit)
                    .set("hit_deadline", G.HitDeadline)
                    .set("memo_of", G.MemoOf));
  }
  return Json::object()
      .set("success", Solve.Success)
      .set("constraints", Solve.NumConstraints)
      .set("disjunctive_constraints", Solve.NumDisjunctive)
      .set("unify_steps", Solve.UnifySteps)
      .set("unify_steps_searched", Solve.UnifyStepsSearched)
      .set("branch_points", Solve.BranchPoints)
      .set("components", Solve.NumComponents)
      .set("groups_memoized", Solve.NumMemoized)
      .set("groups_unsolved", Solve.NumUnsolved)
      .set("threads_used", Solve.ThreadsUsed)
      .set("ports", IS.NumPorts)
      .set("polymorphic_ports", IS.NumPolymorphicPorts)
      .set("defaulted", IS.NumDefaulted)
      .set("groups", std::move(Groups));
}

static Json simulationJson(const sim::Simulator &Sim,
                           const PhaseTimer &Timer) {
  const sim::ActivityStats A = Sim.getActivityStats();
  Json J = Json::object();
  J.set("engine", Sim.getEngineName())
      .set("cycles", A.Cycles)
      .set("groups_evaluated", A.GroupsEvaluated)
      .set("leaf_evals", A.LeafEvals)
      .set("fixpoint_iters", A.FixpointIters)
      .set("net_writes", A.NetWrites)
      .set("net_changes", A.NetChanges);
  if (const sim::KernelStats *KS = Sim.getKernelStats())
    J.set("kernel_build_ms", rounded(KS->BuildMs, 3))
        .set("kernel_ops", KS->NumOps)
        .set("kernel_generic_ops", KS->NumGenericOps);
  const PhaseTimer::Phase *Run = Timer.findPhase("simulate");
  if (Run && Run->WallMs > 0.0)
    J.set("cycles_per_s", rounded(double(A.Cycles) * 1000.0 / Run->WallMs, 1));
  return J;
}

static Json reuseJson(const ModelStats &S) {
  return Json::object()
      .set("instances", S.TotalInstances)
      .set("hierarchical_instances", S.HierarchicalInstances)
      .set("leaf_instances", S.LeafInstances)
      .set("distinct_modules", S.DistinctModules)
      .set("instances_from_library", S.InstancesFromLibrary)
      .set("pct_from_library", rounded(S.pctFromLibrary(), 1))
      .set("explicit_types_without_inference",
           S.ExplicitTypesWithoutInference)
      .set("explicit_types_with_inference", S.ExplicitTypesWithInference)
      .set("inferred_port_widths", S.InferredPortWidths)
      .set("connections", S.Connections);
}

Json liberty::driver::statsJson(const ModelStats &S,
                                const infer::NetlistInferenceStats &IS,
                                const PhaseTimer &Timer, double ProcessWallMs,
                                const sim::Simulator *Sim,
                                const CacheReport *Cache) {
  Json Doc = Json::object();
  Doc.set("schema_version", StatsSchemaVersion)
      .set("model", S.Name)
      .set("phases", phasesJson(Timer))
      .set("unaccounted_ms",
           rounded(std::max(0.0, ProcessWallMs - Timer.totalWallMs()), 3))
      .set("inference", inferenceJson(IS))
      .set("reuse", reuseJson(S));
  if (Sim)
    Doc.set("simulation", simulationJson(*Sim, Timer));
  if (Cache)
    Doc.set("cache", cacheCountersJson(Cache->Stats)
                         .set("elab_from_cache", Cache->ElabFromCache)
                         .set("solution_from_cache", Cache->SolutionFromCache));
  return Doc;
}

void liberty::driver::printTable2Row(std::ostream &OS, const ModelStats &S) {
  OS << std::left << std::setw(8) << S.Name << std::right << std::setw(10)
     << S.TotalInstances << std::setw(8) << S.HierarchicalInstances
     << std::setw(7) << S.LeafInstances << std::setw(9) << S.DistinctModules
     << std::setw(10) << std::fixed << std::setprecision(2)
     << S.instancesPerModule() << std::setw(7) << std::setprecision(0)
     << S.pctFromLibrary() << "%" << std::setw(12)
     << S.ExplicitTypesWithoutInference << std::setw(11)
     << S.ExplicitTypesWithInference << std::setw(10) << S.InferredPortWidths
     << std::setw(8) << S.Connections << "\n";
}
