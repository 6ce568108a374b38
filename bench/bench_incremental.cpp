//===- bench_incremental.cpp - Single-leaf edit recompile A/B/C ---------------===//
///
/// Measures what dependency-tracked incremental recompilation
/// (docs/INCREMENTAL.md) buys on the workload it is designed for: a large
/// model split one-module-per-file, where an edit touches one leaf module
/// out of hundreds. A ~10k-instance synthetic — N independent lanes, each
/// its own module in its own source, each leaving its own disjunctive H3
/// group — is compiled three ways after a single-leaf edit:
///
///   cold        — empty cache, the full pipeline from nothing;
///   full warm   — warm cache, plain compile() of the edited sources (the
///                 edit invalidates the elab/solve keys, so the whole
///                 pipeline re-runs; this is the pre-incremental best
///                 case and the baseline the speedup gate is against);
///   incremental — warm cache, compileIncremental(): re-elaborate the
///                 dirty lane, splice the rest, re-solve one group.
///
/// Acceptance gates (skipped with --smoke): the incremental compile must
/// re-solve <= 10% of the H3 groups, beat the full-warm recompile by
/// >= 3x, and store artifacts byte-identical to a never-warmed cold
/// compile of the edited project. Results go to BENCH_incremental.json
/// (override with --out FILE) through bench::writeRecord; --smoke shrinks
/// the model and, like bench_ir --smoke, only checks that the run works
/// and the record carries every key.
///
//===----------------------------------------------------------------------===//

#include "BenchRecord.h"

#include "driver/CompileService.h"
#include "driver/Compiler.h"
#include "driver/CompilerInvocation.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>
#include <unistd.h>
#include <vector>

using namespace liberty;

namespace {

/// One lane: a chain of adders feeding a sink, all corelib leaves, plus an
/// overload puzzle in constrain statements. Each lane shares no type
/// variables with any other, so every lane leaves its own H3 constraint
/// groups. The puzzle is what makes a lane's group worth splicing: Depth
/// free (float|int) variables — float first, the deliberately wrong guess,
/// exactly like corelib's source — coupled only by a trailing struct
/// disjunct that every variable must satisfy as int. H1 can't pre-solve it
/// (every constraint is disjunctive) and H2 can't prune it (each
/// alternative is viable in isolation), so the solver's chronological
/// search walks ~2^Depth assignments before landing on all-int: the
/// realistic per-group inference cost an edit to any OTHER lane never pays
/// again under incremental recompilation. \p Edited perturbs the lane body
/// without changing its meaning — the single-leaf edit under measurement.
std::string laneSpec(unsigned K, unsigned Stages, unsigned Depth,
                     bool Edited) {
  std::ostringstream OS;
  OS << "module lane" << K << " {\n";
  for (unsigned I = 0; I != Stages; ++I)
    OS << "  instance a" << I << ":adder;\n";
  OS << "  instance k:sink;\n";
  for (unsigned I = 1; I != Stages; ++I)
    OS << "  a" << I - 1 << ".out -> a" << I << ".in1;\n";
  OS << "  a" << Stages - 1 << ".out -> k.in;\n";
  for (unsigned J = 0; J != Depth; ++J)
    OS << "  constrain 'u" << J << " : (float | int);\n";
  OS << "  constrain 'w : struct{";
  for (unsigned J = 0; J != Depth; ++J)
    OS << "f" << J << ":'u" << J << "; ";
  OS << "g:'gv};\n";
  // Two alternatives that differ only in the free field g, so the disjunct
  // survives type canonicalization and H1 never touches it.
  OS << "  constrain 'w : (";
  for (int Alt = 0; Alt != 2; ++Alt) {
    if (Alt)
      OS << " | ";
    OS << "struct{";
    for (unsigned J = 0; J != Depth; ++J)
      OS << "f" << J << ":int; ";
    OS << "g:" << (Alt ? "float" : "int") << "}";
  }
  OS << ");\n";
  if (Edited)
    OS << "  // edited: one leaf body changed\n";
  OS << "}\n";
  return OS.str();
}

/// The project: one source per lane module plus a top that instantiates
/// every lane — the one-module-per-file layout incremental recompilation
/// is designed around.
driver::CompilerInvocation projectInvocation(unsigned Lanes, unsigned Stages,
                                             unsigned Depth,
                                             bool EditLane0) {
  driver::CompilerInvocation Inv;
  std::ostringstream Top;
  for (unsigned K = 0; K != Lanes; ++K)
    Top << "instance m" << K << ":lane" << K << ";\n";
  Inv.addSource("top.lss", Top.str());
  for (unsigned K = 0; K != Lanes; ++K)
    Inv.addSource("lane" + std::to_string(K) + ".lss",
                  laneSpec(K, Stages, Depth, EditLane0 && K == 0));
  Inv.BuildSim = false;
  return Inv;
}

struct ScratchDir {
  std::string Path;
  explicit ScratchDir(const char *Tag) {
    Path = (std::filesystem::temp_directory_path() /
            (std::string("lss_bench_inc_") + Tag + "_" +
             std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(Path);
  }
  ~ScratchDir() {
    std::error_code EC;
    std::filesystem::remove_all(Path, EC);
  }
};

driver::CompileService::Options diskOpts(const ScratchDir &Dir) {
  driver::CompileService::Options O;
  O.Cache.DiskDir = Dir.Path;
  return O;
}

bool artifactsFor(driver::CompileService &Svc,
                  const driver::CompilerInvocation &Inv, std::string &Elab,
                  std::string &Solve) {
  return Svc.getCache().get(
             driver::CompilerInvocation::keyString(Inv.elabKey()), "elab",
             Elab) &&
         Svc.getCache().get(
             driver::CompilerInvocation::keyString(Inv.solveKey()), "solve",
             Solve);
}

struct Results {
  unsigned Lanes = 0, Stages = 0, Instances = 0;
  double ColdMs = 0, FullWarmMs = 0, IncrementalMs = 0;
  unsigned ModulesTotal = 0, ModulesReelaborated = 0;
  unsigned InstancesTotal = 0, InstancesSpliced = 0;
  unsigned GroupsTotal = 0, GroupsResolved = 0, GroupsSpliced = 0;
  bool Used = false, ByteIdentical = false, Ok = false;

  double speedup() const {
    return IncrementalMs > 0 ? FullWarmMs / IncrementalMs : 0.0;
  }
  double pctGroupsResolved() const {
    return GroupsTotal ? 100.0 * GroupsResolved / GroupsTotal : 0.0;
  }
};

driver::Json record(const Results &R, bool Smoke) {
  driver::Json J = driver::Json::object();
  J.set("bench", "incremental")
      .set("smoke", Smoke)
      .set("lanes", R.Lanes)
      .set("stages", R.Stages)
      .set("instances", R.Instances)
      .set("cold_ms", R.ColdMs)
      .set("full_warm_ms", R.FullWarmMs)
      .set("incremental_ms", R.IncrementalMs)
      .set("speedup_vs_full_warm", R.speedup())
      .set("modules_total", R.ModulesTotal)
      .set("modules_reelaborated", R.ModulesReelaborated)
      .set("instances_total", R.InstancesTotal)
      .set("instances_spliced", R.InstancesSpliced)
      .set("groups_total", R.GroupsTotal)
      .set("groups_resolved", R.GroupsResolved)
      .set("groups_spliced", R.GroupsSpliced)
      .set("pct_groups_resolved", R.pctGroupsResolved())
      .set("byte_identical", R.ByteIdentical)
      .set("ok", R.Ok);
  return J;
}

} // namespace

int main(int argc, char **argv) {
  bool Smoke = false;
  std::string OutPath = "BENCH_incremental.json";
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--smoke") == 0)
      Smoke = true;
    else if (std::strcmp(argv[I], "--out") == 0 && I + 1 < argc)
      OutPath = argv[++I];
    else {
      std::fprintf(stderr, "usage: %s [--smoke] [--out FILE]\n", argv[0]);
      return 2;
    }
  }

  Results R;
  // 100 lanes x (98 adders + sink) + 100 lane instances = 10000 instances;
  // the smoke point keeps the same shape two orders smaller. Depth sets the
  // per-lane overload-search cost (~2^Depth branches, ~10ms at 15): big
  // enough that inference dominates the full-size compile, trivial in
  // smoke.
  R.Lanes = Smoke ? 10 : 100;
  R.Stages = Smoke ? 4 : 98;
  const unsigned Depth = Smoke ? 4 : 15;
  R.Instances = R.Lanes * (R.Stages + 2);

  driver::CompilerInvocation Base =
      projectInvocation(R.Lanes, R.Stages, Depth, /*EditLane0=*/false);
  driver::CompilerInvocation Edited =
      projectInvocation(R.Lanes, R.Stages, Depth, /*EditLane0=*/true);

  std::printf("=== Incremental recompilation: single-leaf edit on %u "
              "instances (%u lanes) ===\n\n",
              R.Instances, R.Lanes);

  // Pay one-time process costs (behavior registration, the shared parsed
  // core library) outside the timings.
  {
    driver::CompileService Warmup;
    driver::CompilerInvocation Tiny = projectInvocation(1, 2, 2, false);
    if (!Warmup.compile(Tiny).Success) {
      std::fprintf(stderr, "bench_incremental: warmup compile failed\n");
      return 1;
    }
  }

  bool AllOk = true;

  // Cold, and the warm base the incremental compile will diff against.
  ScratchDir IncDir("inc");
  driver::CompileService IncSvc(diskOpts(IncDir));
  {
    auto T0 = std::chrono::steady_clock::now();
    AllOk = IncSvc.compile(Base).Success && AllOk;
    R.ColdMs = bench::msSince(T0);
  }

  // Full warm: a second cache primed with the same base compile, then a
  // plain compile() of the edit — the edit misses every key, so this is
  // the full pipeline with a warm-but-useless cache.
  {
    ScratchDir FullDir("full");
    driver::CompileService FullSvc(diskOpts(FullDir));
    AllOk = FullSvc.compile(Base).Success && AllOk;
    auto T0 = std::chrono::steady_clock::now();
    AllOk = FullSvc.compile(Edited).Success && AllOk;
    R.FullWarmMs = bench::msSince(T0);
  }

  // Incremental: diff against IncDir's dependency graph and splice.
  std::string IncNetlist, IncDiags;
  {
    auto T0 = std::chrono::steady_clock::now();
    driver::CompileResult CR = IncSvc.compileIncremental(Edited);
    R.IncrementalMs = bench::msSince(T0);
    AllOk = CR.Success && AllOk;
    R.Used = CR.Incremental.Used;
    if (!CR.Incremental.Used)
      std::fprintf(stderr, "bench_incremental: fell back to a full compile "
                           "(%s)\n",
                   CR.Incremental.FallbackReason.c_str());
    R.ModulesTotal = CR.Incremental.ModulesTotal;
    R.ModulesReelaborated = CR.Incremental.ModulesReelaborated;
    R.InstancesTotal = CR.Incremental.InstancesTotal;
    R.InstancesSpliced = CR.Incremental.InstancesSpliced;
    R.GroupsTotal = CR.Incremental.GroupsTotal;
    R.GroupsResolved = CR.Incremental.GroupsResolved;
    R.GroupsSpliced = CR.Incremental.GroupsSpliced;
    if (CR.Success) {
      std::ostringstream OS;
      CR.C->getNetlist()->print(OS);
      IncNetlist = OS.str();
      IncDiags = CR.C->diagnosticsText();
    }
  }

  // Byte-identity: an independent never-warmed cold compile of the edited
  // project must store exactly the artifacts the incremental compile did.
  {
    ScratchDir ColdDir("coldctl");
    driver::CompileService ColdSvc(diskOpts(ColdDir));
    driver::CompileResult CC = ColdSvc.compile(Edited);
    AllOk = CC.Success && AllOk;
    std::string IncElab, IncSolve, ColdElab, ColdSolve;
    if (CC.Success && artifactsFor(IncSvc, Edited, IncElab, IncSolve) &&
        artifactsFor(ColdSvc, Edited, ColdElab, ColdSolve)) {
      std::ostringstream OS;
      CC.C->getNetlist()->print(OS);
      R.ByteIdentical = IncElab == ColdElab && IncSolve == ColdSolve &&
                        IncNetlist == OS.str() &&
                        IncDiags == CC.C->diagnosticsText();
    }
  }

  std::printf("%-12s %12s\n", "compile", "wall(ms)");
  std::printf("%-12s %12.3f\n", "cold", R.ColdMs);
  std::printf("%-12s %12.3f\n", "full-warm", R.FullWarmMs);
  std::printf("%-12s %12.3f   (%.1fx vs full-warm)\n", "incremental",
              R.IncrementalMs, R.speedup());
  std::printf("\nre-elaborated %u/%u modules, spliced %u/%u instances\n",
              R.ModulesReelaborated, R.ModulesTotal, R.InstancesSpliced,
              R.InstancesTotal);
  std::printf("re-solved %u/%u groups (%.1f%%), spliced %u\n",
              R.GroupsResolved, R.GroupsTotal, R.pctGroupsResolved(),
              R.GroupsSpliced);
  std::printf("artifacts byte-identical to cold: %s\n",
              R.ByteIdentical ? "yes" : "NO");

  R.Ok = AllOk && R.Used && R.ByteIdentical;
  if (!Smoke) {
    // The acceptance gates of docs/INCREMENTAL.md.
    bool GroupGate = R.GroupsTotal > 0 && R.pctGroupsResolved() <= 10.0;
    bool SpeedGate = R.speedup() >= 3.0;
    std::printf("\ngates: <=10%% groups re-solved -> %s; >=3x vs full-warm "
                "-> %s\n",
                GroupGate ? "ok" : "MISSED", SpeedGate ? "ok" : "MISSED");
    R.Ok = R.Ok && GroupGate && SpeedGate;
  }

  // The bench_incremental_smoke ctest gate: a renamed or dropped field
  // fails the run.
  if (!bench::writeRecord(
          OutPath, record(R, Smoke),
          {{"bench", "smoke", "lanes", "stages", "instances", "cold_ms",
            "full_warm_ms", "incremental_ms", "speedup_vs_full_warm",
            "modules_total", "modules_reelaborated", "instances_total",
            "instances_spliced", "groups_total", "groups_resolved",
            "groups_spliced", "pct_groups_resolved", "byte_identical",
            "ok"}}))
    return 1;
  std::printf("\nwrote %s\n", OutPath.c_str());
  return R.Ok ? 0 : 1;
}
