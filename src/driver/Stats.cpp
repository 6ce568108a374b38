//===- Stats.cpp - Reuse statistics (Table 2) --------------------------------===//

#include "driver/Stats.h"

#include "driver/CompileService.h"
#include "lss/AST.h"
#include "netlist/Netlist.h"
#include "sim/CompiledKernel.h"
#include "sim/Simulator.h"
#include "support/PhaseTimer.h"

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

  std::set<std::string> Modules, LeafModules, HierModules, LibUsed;
  for (const auto &Inst : NL.getInstances()) {
    if (Inst->ModuleName.empty())
      continue; // Synthetic root.
    ++S.TotalInstances;
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

  for (const auto &Conn : NL.getConnections())
    if (Conn->isFullyResolved())
      ++S.Connections;
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

void liberty::driver::printStatsJson(std::ostream &OS, const ModelStats &S,
                                     const infer::NetlistInferenceStats &IS,
                                     const PhaseTimer &Timer,
                                     const sim::Simulator *Sim,
                                     const CacheReport *Cache,
                                     double CyclesPerSec,
                                     const IncrementalStats *Incremental) {
  OS << "{\n";
  OS << "  \"schema_version\": " << StatsSchemaVersion << ",\n";
  OS << "  \"model\": \"" << jsonEscape(S.Name) << "\",\n";
  OS << "  \"phases\": ";
  Timer.printJson(OS);
  OS << ",\n";

  const infer::SolveStats &Solve = IS.Solve;
  OS << "  \"inference\": {\n"
     << "    \"success\": " << (Solve.Success ? "true" : "false") << ",\n"
     << "    \"constraints\": " << Solve.NumConstraints << ",\n"
     << "    \"disjunctive_constraints\": " << Solve.NumDisjunctive << ",\n"
     << "    \"unify_steps\": " << Solve.UnifySteps << ",\n"
     << "    \"branch_points\": " << Solve.BranchPoints << ",\n"
     << "    \"components\": " << Solve.NumComponents << ",\n"
     << "    \"groups_unsolved\": " << Solve.NumUnsolved << ",\n"
     << "    \"threads_used\": " << Solve.ThreadsUsed << ",\n"
     << "    \"ports\": " << IS.NumPorts << ",\n"
     << "    \"polymorphic_ports\": " << IS.NumPolymorphicPorts << ",\n"
     << "    \"defaulted\": " << IS.NumDefaulted << ",\n"
     << "    \"groups\": [";
  for (size_t I = 0; I != Solve.Groups.size(); ++I) {
    const infer::GroupStats &G = Solve.Groups[I];
    if (I)
      OS << ",";
    OS << "\n      {\"index\": " << I << ", \"constraints\": "
       << G.NumConstraints << ", \"unify_steps\": " << G.UnifySteps
       << ", \"branch_points\": " << G.BranchPoints << ", \"wall_ms\": "
       << std::fixed << std::setprecision(3) << G.WallMs << ", \"success\": "
       << (G.Success ? "true" : "false") << ", \"hit_limit\": "
       << (G.HitLimit ? "true" : "false") << ", \"hit_deadline\": "
       << (G.HitDeadline ? "true" : "false") << "}";
  }
  OS << "\n    ]\n  },\n";

  if (Sim) {
    const sim::ActivityStats A = Sim->getActivityStats();
    OS << "  \"simulation\": {\n"
       << "    \"engine\": \"" << jsonEscape(Sim->getEngineName()) << "\",\n"
       << "    \"cycles\": " << A.Cycles << ",\n"
       << "    \"groups_evaluated\": " << A.GroupsEvaluated << ",\n"
       << "    \"leaf_evals\": " << A.LeafEvals << ",\n"
       << "    \"fixpoint_iters\": " << A.FixpointIters << ",\n"
       << "    \"net_writes\": " << A.NetWrites << ",\n"
       << "    \"net_changes\": " << A.NetChanges;
    if (const sim::KernelStats *KS = Sim->getKernelStats()) {
      OS << ",\n"
         << "    \"kernel_build_ms\": " << std::fixed << std::setprecision(3)
         << KS->BuildMs << ",\n"
         << "    \"kernel_ops\": " << KS->NumOps << ",\n"
         << "    \"kernel_generic_ops\": " << KS->NumGenericOps;
    }
    if (CyclesPerSec > 0.0)
      OS << ",\n    \"cycles_per_s\": " << std::fixed << std::setprecision(1)
         << CyclesPerSec;
    OS << "\n  },\n";
  }

  if (Cache) {
    const CacheStats &CS = Cache->Stats;
    OS << "  \"cache\": {\n"
       << "    \"hits\": " << CS.Hits << ",\n"
       << "    \"misses\": " << CS.Misses << ",\n"
       << "    \"memory_hits\": " << CS.MemoryHits << ",\n"
       << "    \"disk_hits\": " << CS.DiskHits << ",\n"
       << "    \"stores\": " << CS.Stores << ",\n"
       << "    \"evictions\": " << CS.Evictions << ",\n"
       << "    \"bytes_in_memory\": " << CS.BytesInMemory << ",\n"
       << "    \"corrupt\": " << CS.Corrupt << ",\n"
       << "    \"tmp_swept\": " << CS.TmpSwept << ",\n"
       << "    \"quarantined\": " << CS.Quarantined << ",\n"
       << "    \"disk_write_failures\": " << CS.DiskWriteFailures << ",\n"
       << "    \"cache_degraded\": " << (CS.Degraded ? "true" : "false")
       << ",\n"
       << "    \"elab_from_cache\": "
       << (Cache->ElabFromCache ? "true" : "false") << ",\n"
       << "    \"solution_from_cache\": "
       << (Cache->SolutionFromCache ? "true" : "false") << "\n"
       << "  },\n";
  }

  if (Incremental) {
    const IncrementalStats &I = *Incremental;
    OS << "  \"incremental\": {\n"
       << "    \"used\": " << (I.Used ? "true" : "false") << ",\n"
       << "    \"fallback_reason\": \"" << jsonEscape(I.FallbackReason)
       << "\",\n"
       << "    \"dep_cache_hit\": " << (I.DepCacheHit ? "true" : "false")
       << ",\n"
       << "    \"modules_total\": " << I.ModulesTotal << ",\n"
       << "    \"modules_dirty\": " << I.ModulesDirty << ",\n"
       << "    \"modules_reelaborated\": " << I.ModulesReelaborated << ",\n"
       << "    \"instances_total\": " << I.InstancesTotal << ",\n"
       << "    \"instances_spliced\": " << I.InstancesSpliced << ",\n"
       << "    \"groups_total\": " << I.GroupsTotal << ",\n"
       << "    \"groups_resolved\": " << I.GroupsResolved << ",\n"
       << "    \"groups_spliced\": " << I.GroupsSpliced << "\n"
       << "  },\n";
  }

  OS << "  \"reuse\": {\n"
     << "    \"instances\": " << S.TotalInstances << ",\n"
     << "    \"hierarchical_instances\": " << S.HierarchicalInstances << ",\n"
     << "    \"leaf_instances\": " << S.LeafInstances << ",\n"
     << "    \"distinct_modules\": " << S.DistinctModules << ",\n"
     << "    \"instances_from_library\": " << S.InstancesFromLibrary << ",\n"
     << "    \"pct_from_library\": " << std::fixed << std::setprecision(1)
     << S.pctFromLibrary() << ",\n"
     << "    \"explicit_types_without_inference\": "
     << S.ExplicitTypesWithoutInference << ",\n"
     << "    \"explicit_types_with_inference\": "
     << S.ExplicitTypesWithInference << ",\n"
     << "    \"inferred_port_widths\": " << S.InferredPortWidths << ",\n"
     << "    \"connections\": " << S.Connections << "\n"
     << "  }\n";
  OS << "}\n";
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
