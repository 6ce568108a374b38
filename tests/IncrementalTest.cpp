//===- IncrementalTest.cpp - Dependency-tracked incremental recompiles -----===//
///
/// The edit matrix for CompileService::compileIncremental
/// (docs/INCREMENTAL.md). Every case compiles a small multi-file project
/// cold, applies one edit, recompiles incrementally, and asserts:
///
///  - the BYTE-IDENTITY contract: the elab/solve artifacts the
///    incremental compile stores are exactly the bytes a never-warmed
///    cold compile of the edited project stores;
///  - the WORK contract: how many modules were re-elaborated live and how
///    many H3 constraint groups were actually searched versus spliced
///    from the previous solution.
///
/// The project keeps one module per file — the layout incremental
/// recompilation is designed around, since a module edit then cannot
/// shift the source offsets (and so the per-module content hashes) of
/// unrelated modules.
///
//===----------------------------------------------------------------------===//

#include "driver/CompileService.h"
#include "driver/Compiler.h"
#include "driver/CompilerInvocation.h"
#include "driver/DepGraph.h"
#include "models/Models.h"
#include "sim/CompiledKernel.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

using namespace liberty;

namespace {

//===----------------------------------------------------------------------===//
// The project: sys -> {grpA, grpB} -> lanes, one module per file
//===----------------------------------------------------------------------===//

// Each adder lane leaves one residual disjunctive (int|float) group for
// H3; the reg lane resolves in H1/H2 and emits a defaulting warning, so
// diagnostic replay is covered too.
const char *kTop = "instance root:sys;\n";
const char *kSys = R"(module sys {
  instance a:grpA;
  instance b:grpB;
}
)";
const char *kGrpA = R"(module grpA {
  instance m0:lane0;
  instance m1:lane1;
  instance m4:lane4;
}
)";
const char *kGrpB = R"(module grpB {
  instance m0:lane2;
  instance m1:lane3;
}
)";
std::string laneSpec(int K) {
  std::ostringstream OS;
  OS << "module lane" << K << " {\n"
     << "  instance a:adder;\n"
     << "  instance k:sink;\n"
     << "  a.out -> k.in;\n"
     << "}\n";
  return OS.str();
}
const char *kLane4 = R"(module lane4 {
  instance r1:reg;
  instance r2:reg;
  r1.out -> r2.in;
}
)";

driver::CompilerInvocation baseInvocation() {
  driver::CompilerInvocation Inv;
  Inv.addSource("top.lss", kTop);
  Inv.addSource("sys.lss", kSys);
  Inv.addSource("grpA.lss", kGrpA);
  Inv.addSource("grpB.lss", kGrpB);
  for (int K = 0; K != 4; ++K)
    Inv.addSource("lane" + std::to_string(K) + ".lss", laneSpec(K));
  Inv.addSource("lane4.lss", kLane4);
  Inv.BuildSim = false;
  return Inv;
}

/// Replaces the text of the named source in place.
void editSource(driver::CompilerInvocation &Inv, const std::string &Name,
                std::string Text) {
  for (auto &S : Inv.Sources)
    if (S.Name == Name) {
      S.Text = std::move(Text);
      return;
    }
  FAIL() << "no source named " << Name;
}

struct TempDir {
  std::string Path;
  TempDir() {
    char Buf[] = "/tmp/lss_inctest_XXXXXX";
    Path = mkdtemp(Buf);
  }
  ~TempDir() {
    std::error_code EC;
    std::filesystem::remove_all(Path, EC);
  }
};

driver::CompileService::Options diskOpts(const TempDir &Dir) {
  driver::CompileService::Options O;
  O.Cache.DiskDir = Dir.Path;
  return O;
}

std::string netlistText(driver::Compiler &C) {
  std::ostringstream OS;
  C.getNetlist()->print(OS);
  return OS.str();
}

/// The artifacts a service stored for \p Inv's keys.
struct Artifacts {
  std::string Elab, Solve;
};
Artifacts artifactsFor(driver::CompileService &Svc,
                       const driver::CompilerInvocation &Inv) {
  Artifacts A;
  const std::string ElabKey = driver::CompilerInvocation::keyString(Inv.elabKey());
  const std::string SolveKey =
      driver::CompilerInvocation::keyString(Inv.solveKey());
  EXPECT_TRUE(Svc.getCache().get(ElabKey, "elab", A.Elab));
  EXPECT_TRUE(Svc.getCache().get(SolveKey, "solve", A.Solve));
  return A;
}

/// One matrix case: cold-compile the base project, apply \p Edit, compile
/// incrementally, and check work counts plus byte-identity against a
/// never-warmed cold compile of the edited project.
struct Expected {
  unsigned ModulesReelaborated;
  unsigned InstancesSpliced;
  unsigned GroupsTotal;
  unsigned GroupsResolved;
  unsigned GroupsSpliced;
};
void runCase(const char *CaseName,
             const std::function<void(driver::CompilerInvocation &)> &Edit,
             const Expected &E, bool BuildCompiledSim = false) {
  SCOPED_TRACE(CaseName);
  driver::CompilerInvocation Base = baseInvocation();
  driver::CompilerInvocation Edited = baseInvocation();
  Edit(Edited);
  if (BuildCompiledSim) {
    Base.BuildSim = Edited.BuildSim = true;
    Base.Sim.Engine = Edited.Sim.Engine = sim::EngineKind::Compiled;
  }

  TempDir IncDir;
  driver::CompileService IncSvc(diskOpts(IncDir));
  ASSERT_TRUE(IncSvc.compile(Base).Success);

  driver::CompileResult R = IncSvc.compileIncremental(Edited);
  ASSERT_TRUE(R.Success) << R.C->diagnosticsText();
  ASSERT_TRUE(R.Incremental.Used)
      << "fell back: " << R.Incremental.FallbackReason;
  EXPECT_TRUE(R.Incremental.DepCacheHit);
  EXPECT_EQ(R.Incremental.ModulesReelaborated, E.ModulesReelaborated);
  EXPECT_EQ(R.Incremental.InstancesSpliced, E.InstancesSpliced);
  EXPECT_EQ(R.Incremental.InstancesReelaborated,
            R.Incremental.InstancesTotal - E.InstancesSpliced);
  EXPECT_EQ(R.Incremental.GroupsTotal, E.GroupsTotal);
  EXPECT_EQ(R.Incremental.GroupsResolved, E.GroupsResolved);
  EXPECT_EQ(R.Incremental.GroupsSpliced, E.GroupsSpliced);

  // The independent cold control.
  TempDir ColdDir;
  driver::CompileService ColdSvc(diskOpts(ColdDir));
  driver::CompileResult RC = ColdSvc.compile(Edited);
  ASSERT_TRUE(RC.Success) << RC.C->diagnosticsText();

  // Observable results match...
  EXPECT_EQ(netlistText(*R.C), netlistText(*RC.C));
  EXPECT_EQ(R.C->diagnosticsText(), RC.C->diagnosticsText());
  // ...and the stored artifacts are byte-identical.
  Artifacts Inc = artifactsFor(IncSvc, Edited);
  Artifacts Cold = artifactsFor(ColdSvc, Edited);
  EXPECT_EQ(Inc.Elab, Cold.Elab);
  EXPECT_EQ(Inc.Solve, Cold.Solve);
  if (BuildCompiledSim) {
    // The kernel lowered from the spliced netlist has the cold shape.
    const sim::KernelStats *KI = R.C->getSimulator()->getKernelStats();
    const sim::KernelStats *KC = RC.C->getSimulator()->getKernelStats();
    ASSERT_NE(KI, nullptr);
    ASSERT_NE(KC, nullptr);
    EXPECT_EQ(KI->NumOps, KC->NumOps);
    EXPECT_EQ(KI->NumGenericOps, KC->NumGenericOps);
  }
}

//===----------------------------------------------------------------------===//
// The edit matrix
//===----------------------------------------------------------------------===//

// Base project: 19 instances (root, sys, grpA, grpB, 5 lanes, 10 leaves),
// 4 H3 groups (one per adder lane; the reg lane resolves in H1/H2).

TEST(IncrementalMatrix, LeafEditReelaboratesOneLaneAndItsLeaves) {
  // lane3 gains a second sink: only lane3's subtree runs live; its group
  // is searched, the other three splice.
  runCase(
      "leaf-edit",
      [](driver::CompilerInvocation &Inv) {
        editSource(Inv, "lane3.lss", "module lane3 {\n"
                                     "  instance a:adder;\n"
                                     "  instance k:sink;\n"
                                     "  instance k2:sink;\n"
                                     "  a.out -> k.in;\n"
                                     "  a.out -> k2.in;\n"
                                     "}\n");
      },
      // Live: lane3, adder, sink. Instances: 20 total, live = lane3
      // body + 3 leaves.
      {3u, 16u, 4u, 1u, 3u});
}

TEST(IncrementalMatrix, MidHierarchyEditReelaboratesTheSubtree) {
  // grpB gains a third lane (reusing the unchanged lane2 module): grpB's
  // whole subtree runs live, the grpA subtree splices.
  runCase(
      "mid-edit",
      [](driver::CompilerInvocation &Inv) {
        editSource(Inv, "grpB.lss", "module grpB {\n"
                                    "  instance m0:lane2;\n"
                                    "  instance m1:lane3;\n"
                                    "  instance m2:lane2;\n"
                                    "}\n");
      },
      // Live: grpB, lane2, lane3, adder, sink. Instances: 22 total,
      // live = grpB + 3 lane bodies + 6 leaves = 10.
      {5u, 12u, 5u, 3u, 2u});
}

TEST(IncrementalMatrix, RootEditReelaboratesEverything) {
  // Reordering sys's children dirties the root of the module DAG: only
  // the synthetic top level replays, and no group can splice.
  runCase(
      "root-edit",
      [](driver::CompilerInvocation &Inv) {
        editSource(Inv, "sys.lss", "module sys {\n"
                                   "  instance b:grpB;\n"
                                   "  instance a:grpA;\n"
                                   "}\n");
      },
      // Live: sys, grpA, grpB, lane0..4, adder, sink, reg = 11 modules.
      {11u, 1u, 4u, 4u, 0u});
}

TEST(IncrementalMatrix, CommentOnlyEditStillReelaboratesThatModule) {
  // A comment changes the module's bytes, so its hash — deliberately: the
  // dependency layer never parses, it diffs content. The body re-runs
  // live (and produces identical artifacts); everything else splices.
  runCase(
      "comment-edit",
      [](driver::CompilerInvocation &Inv) {
        editSource(Inv, "lane2.lss", "module lane2 {\n"
                                     "  instance a:adder;\n"
                                     "  instance k:sink;\n"
                                     "  a.out -> k.in;\n"
                                     "  // tuning note\n"
                                     "}\n");
      },
      {3u, 16u, 4u, 1u, 3u});
}

TEST(IncrementalMatrix, GroupPartitionChangeResolvesAffectedGroupsOnly) {
  // Annotating lane1's connection grounds its (int|float) adder, so its
  // residual group disappears: the partition changes from 4 groups to 3,
  // and all three survivors splice (their member sets are untouched).
  runCase(
      "partition-change",
      [](driver::CompilerInvocation &Inv) {
        editSource(Inv, "lane1.lss", "module lane1 {\n"
                                     "  instance a:adder;\n"
                                     "  instance k:sink;\n"
                                     "  a.out -> k.in : int;\n"
                                     "}\n");
      },
      {3u, 16u, 3u, 0u, 3u});
}

TEST(IncrementalMatrix, LeafEditCompiledKernelMatchesColdBuild) {
  // Same leaf edit, now building the compiled simulation engine: the
  // kernel lowered after splicing must match a cold build's.
  runCase(
      "leaf-edit-kernel",
      [](driver::CompilerInvocation &Inv) {
        editSource(Inv, "lane3.lss", "module lane3 {\n"
                                     "  instance a:adder;\n"
                                     "  instance k:sink;\n"
                                     "  instance k2:sink;\n"
                                     "  a.out -> k.in;\n"
                                     "  a.out -> k2.in;\n"
                                     "}\n");
      },
      {3u, 16u, 4u, 1u, 3u}, /*BuildCompiledSim=*/true);
}

//===----------------------------------------------------------------------===//
// Fallback contract
//===----------------------------------------------------------------------===//

TEST(IncrementalMatrix, SemicolonTerminatedModulesSpliceToo) {
  // Same leaf-edit shape as above but with `module m { ... };` decls (the
  // terminator is optional; both styles are common). Regression: the ';'
  // must live inside the module span, or the residual contains a token
  // whose offset shifts on every in-body edit and the incremental path
  // permanently falls back as "top-level-changed".
  auto inv = [](const char *LaneB) {
    driver::CompilerInvocation Inv;
    Inv.addSource("laneA.lss", "module laneA {\n"
                               "  instance a:adder;\n"
                               "  instance k:sink;\n"
                               "  a.out -> k.in;\n"
                               "};\n");
    Inv.addSource("laneB.lss", LaneB);
    Inv.addSource("top.lss", "instance x:laneA;\ninstance y:laneB;\n");
    Inv.BuildSim = false;
    return Inv;
  };
  const char *Base = "module laneB {\n"
                     "  instance a:adder;\n"
                     "  instance k:sink;\n"
                     "  a.out -> k.in;\n"
                     "};\n";
  const char *Edited = "module laneB {\n"
                       "  instance a:adder;\n"
                       "  instance k:sink;\n"
                       "  a.out -> k.in;\n"
                       "  // tweaked\n"
                       "};\n";

  TempDir Dir;
  driver::CompileService Svc(diskOpts(Dir));
  ASSERT_TRUE(Svc.compile(inv(Base)).Success);
  driver::CompileResult R = Svc.compileIncremental(inv(Edited));
  ASSERT_TRUE(R.Success) << R.C->diagnosticsText();
  ASSERT_TRUE(R.Incremental.Used)
      << "fell back: " << R.Incremental.FallbackReason;
  // laneB plus the corelib modules its subtree instantiates (adder, sink).
  EXPECT_EQ(R.Incremental.ModulesReelaborated, 3u);
  EXPECT_EQ(R.Incremental.GroupsResolved, 1u);
  EXPECT_EQ(R.Incremental.GroupsSpliced, 1u);

  TempDir ColdDir;
  driver::CompileService ColdSvc(diskOpts(ColdDir));
  driver::CompileResult RC = ColdSvc.compile(inv(Edited));
  ASSERT_TRUE(RC.Success);
  EXPECT_EQ(netlistText(*R.C), netlistText(*RC.C));
  Artifacts Inc = artifactsFor(Svc, inv(Edited));
  Artifacts Cold = artifactsFor(ColdSvc, inv(Edited));
  EXPECT_EQ(Inc.Elab, Cold.Elab);
  EXPECT_EQ(Inc.Solve, Cold.Solve);
}

TEST(IncrementalMatrix, CleanModuleReplaysUserpointsAndParentAssignments) {
  // holder is clean, so its body replays: the `w.k`/`w.pick` assignments
  // it pushes on its worker child come back from the dependency graph,
  // and the clean worker replays the non-default userpoint it was given.
  // Only laneB is edited.
  auto inv = [](const char *LaneB) {
    driver::CompilerInvocation Inv;
    Inv.addSource("worker.lss", "module worker {\n"
                                "  parameter k:int;\n"
                                "  parameter pick : userpoint(x:int => int);\n"
                                "  instance c:const_source;\n"
                                "  instance s:sink;\n"
                                "  c.value = k;\n"
                                "  c.out -> s.in;\n"
                                "}\n");
    Inv.addSource("holder.lss", "module holder {\n"
                                "  instance w:worker;\n"
                                "  w.k = 3;\n"
                                "  w.pick = \"return x + 1;\";\n"
                                "}\n");
    Inv.addSource("laneB.lss", LaneB);
    Inv.addSource("top.lss", "instance x:holder;\ninstance y:laneB;\n");
    Inv.BuildSim = false;
    return Inv;
  };
  const char *Base = "module laneB {\n"
                     "  instance a:adder;\n"
                     "  instance k:sink;\n"
                     "  a.out -> k.in;\n"
                     "}\n";
  const char *Edited = "module laneB {\n"
                       "  instance a:adder;\n"
                       "  instance k:sink;\n"
                       "  instance k2:sink;\n"
                       "  a.out -> k.in;\n"
                       "  a.out -> k2.in;\n"
                       "}\n";

  TempDir Dir;
  driver::CompileService Svc(diskOpts(Dir));
  ASSERT_TRUE(Svc.compile(inv(Base)).Success);
  driver::CompileResult R = Svc.compileIncremental(inv(Edited));
  ASSERT_TRUE(R.Success) << R.C->diagnosticsText();
  ASSERT_TRUE(R.Incremental.Used)
      << "fell back: " << R.Incremental.FallbackReason;
  const netlist::InstanceNode *W = R.C->getNetlist()->findByPath("x.w");
  ASSERT_NE(W, nullptr);
  ASSERT_EQ(W->Userpoints.count("pick"), 1u);
  EXPECT_FALSE(W->Userpoints.at("pick").IsDefault);
  EXPECT_EQ(W->Userpoints.at("pick").Code, "return x + 1;");

  TempDir ColdDir;
  driver::CompileService ColdSvc(diskOpts(ColdDir));
  driver::CompileResult RC = ColdSvc.compile(inv(Edited));
  ASSERT_TRUE(RC.Success);
  EXPECT_EQ(netlistText(*R.C), netlistText(*RC.C));
  Artifacts Inc = artifactsFor(Svc, inv(Edited));
  Artifacts Cold = artifactsFor(ColdSvc, inv(Edited));
  EXPECT_EQ(Inc.Elab, Cold.Elab);
  EXPECT_EQ(Inc.Solve, Cold.Solve);
}

TEST(IncrementalFallback, FirstCompileHasNoDependencyGraph) {
  TempDir Dir;
  driver::CompileService Svc(diskOpts(Dir));
  driver::CompileResult R = Svc.compileIncremental(baseInvocation());
  ASSERT_TRUE(R.Success);
  EXPECT_TRUE(R.Incremental.Attempted);
  EXPECT_FALSE(R.Incremental.Used);
  EXPECT_FALSE(R.Incremental.DepCacheHit);
  EXPECT_EQ(R.Incremental.FallbackReason, "no-dependency-graph");

  // The fallback ran the full pipeline, which stored a graph: recompiling
  // the unchanged project now rides the plain warm path.
  driver::CompileResult R2 = Svc.compileIncremental(baseInvocation());
  ASSERT_TRUE(R2.Success);
  EXPECT_TRUE(R2.Incremental.DepCacheHit);
  EXPECT_FALSE(R2.Incremental.Used);
  EXPECT_EQ(R2.Incremental.FallbackReason, "already-cached");
  EXPECT_TRUE(R2.ElabFromCache);
  EXPECT_TRUE(R2.SolutionFromCache);

  driver::CompileService::IncrementalCounters IC = Svc.getIncrementalCounters();
  EXPECT_EQ(IC.Requests, 2u);
  EXPECT_EQ(IC.Used, 0u);
  EXPECT_EQ(IC.Fallbacks, 2u);
  EXPECT_EQ(IC.DepCacheHits, 1u);
}

TEST(IncrementalFallback, TopLevelEditFallsBackToFullCompile) {
  TempDir Dir;
  driver::CompileService Svc(diskOpts(Dir));
  ASSERT_TRUE(Svc.compile(baseInvocation()).Success);
  driver::CompilerInvocation Edited = baseInvocation();
  editSource(Edited, "top.lss", "instance root:sys;\n// a residual note\n");
  driver::CompileResult R = Svc.compileIncremental(Edited);
  ASSERT_TRUE(R.Success);
  EXPECT_FALSE(R.Incremental.Used);
  EXPECT_EQ(R.Incremental.FallbackReason, "top-level-changed");

  // The fallback is a real compile: byte-identity against a cold control.
  TempDir ColdDir;
  driver::CompileService ColdSvc(diskOpts(ColdDir));
  ASSERT_TRUE(ColdSvc.compile(Edited).Success);
  Artifacts A = artifactsFor(Svc, Edited), B = artifactsFor(ColdSvc, Edited);
  EXPECT_EQ(A.Elab, B.Elab);
  EXPECT_EQ(A.Solve, B.Solve);
}

TEST(IncrementalFallback, SourceSetChangeFallsBack) {
  // depKey() hashes the source NAMES, so adding/removing a file maps the
  // project to a different dependency entry: the miss itself is the
  // fallback (the in-path source-set check is only a collision backstop).
  TempDir Dir;
  driver::CompileService Svc(diskOpts(Dir));
  ASSERT_TRUE(Svc.compile(baseInvocation()).Success);
  driver::CompilerInvocation Edited = baseInvocation();
  Edited.Sources.pop_back();
  editSource(Edited, "grpA.lss", "module grpA {\n"
                                 "  instance m0:lane0;\n"
                                 "  instance m1:lane1;\n"
                                 "}\n");
  driver::CompileResult R = Svc.compileIncremental(Edited);
  ASSERT_TRUE(R.Success);
  EXPECT_FALSE(R.Incremental.Used);
  EXPECT_EQ(R.Incremental.FallbackReason, "no-dependency-graph");
}

TEST(IncrementalFallback, CacheDisabledFallsBack) {
  driver::CompileService::Options O;
  O.CacheEnabled = false;
  driver::CompileService Svc(O);
  driver::CompileResult R = Svc.compileIncremental(baseInvocation());
  ASSERT_TRUE(R.Success);
  EXPECT_FALSE(R.Incremental.Used);
  EXPECT_EQ(R.Incremental.FallbackReason, "cache-disabled");
}

TEST(IncrementalFallback, ErrorIntroducingEditReportsColdDiagnostics) {
  // An edit that breaks elaboration must fall back and report exactly what
  // a cold compile reports — errors are never served through replay.
  TempDir Dir;
  driver::CompileService Svc(diskOpts(Dir));
  ASSERT_TRUE(Svc.compile(baseInvocation()).Success);
  driver::CompilerInvocation Edited = baseInvocation();
  editSource(Edited, "lane0.lss", "module lane0 {\n"
                                  "  instance a:no_such_module;\n"
                                  "}\n");
  driver::CompileResult R = Svc.compileIncremental(Edited);
  EXPECT_FALSE(R.Success);
  EXPECT_FALSE(R.Incremental.Used);
  EXPECT_NE(R.C->diagnosticsText().find("no_such_module"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// The memory tier under a recompile chain
//===----------------------------------------------------------------------===//

/// A small single-file model, compiled between the edits as the hot set.
driver::CompilerInvocation hotInvocation() {
  driver::CompilerInvocation Inv;
  Inv.addSource("hot.lss", "instance g:counter_source;\n"
                           "instance one:const_source;\n"
                           "one.value = 1;\n"
                           "instance a:adder;\n"
                           "instance s:sink;\n"
                           "g.out -> a.in1;\n"
                           "one.out -> a.in2;\n"
                           "a.out -> s.in;\n");
  Inv.BuildSim = false;
  return Inv;
}

TEST(IncrementalMemoryTier, RecompileChainLeavesSupersededStatesOnProbation) {
  // A recompile reads the previous state's elab and solve artifacts once
  // more, with peek. Were those reads promoting, every superseded state
  // would fill the protected segment in turn.
  uint64_t StateBytes = 0; // One project state: its elab, solve and dep.
  {
    driver::CompileService Probe;
    ASSERT_TRUE(Probe.compile(baseInvocation()).Success);
    StateBytes = Probe.getCache().getStats().BytesInMemory;
  }
  // Probation, a fifth of the budget, must hold the newest state whole
  // for the next recompile to find it: six states make it 1.2.
  driver::CompileService::Options O;
  O.Cache.MemoryBudgetBytes = 6 * StateBytes;
  driver::CompileService Svc(O);
  ASSERT_TRUE(Svc.compile(hotInvocation()).Success);
  ASSERT_TRUE(Svc.compile(hotInvocation()).ElabFromCache);
  ASSERT_TRUE(Svc.compile(baseInvocation()).Success);

  driver::CompilerInvocation Inv = baseInvocation();
  for (int I = 0; I != 20; ++I) {
    SCOPED_TRACE("edit " + std::to_string(I));
    int Lane = I % 4;
    std::string Text = laneSpec(Lane);
    Text.insert(Text.rfind('}'), "  // edit " + std::to_string(I) + "\n");
    editSource(Inv, "lane" + std::to_string(Lane) + ".lss", Text);
    driver::CompileResult R = Svc.compileIncremental(Inv);
    ASSERT_TRUE(R.Success);
    EXPECT_TRUE(R.Incremental.Used)
        << "fell back: " << R.Incremental.FallbackReason;
    EXPECT_EQ(R.Incremental.GroupsSpliced, 3u); // The old solution was read.
    EXPECT_TRUE(Svc.compile(hotInvocation()).ElabFromCache);
  }

  // What stays beyond probation's fifth is the hot model alone.
  driver::CompilerInvocation Hot = hotInvocation();
  std::string Elab, Solve;
  ASSERT_TRUE(Svc.getCache().peek(
      driver::CompilerInvocation::keyString(Hot.elabKey()), "elab", Elab));
  ASSERT_TRUE(Svc.getCache().peek(
      driver::CompilerInvocation::keyString(Hot.solveKey()), "solve", Solve));
  EXPECT_LE(Svc.getCache().getStats().BytesInMemory,
            O.Cache.MemoryBudgetBytes / 5 + Elab.size() + Solve.size());
}

//===----------------------------------------------------------------------===//
// The LSSDEP artifact format
//===----------------------------------------------------------------------===//

/// The dependency artifact a cold compile of \p Inv stores.
std::string depArtifactOf(const driver::CompilerInvocation &Inv) {
  driver::CompileService Svc;
  EXPECT_TRUE(Svc.compile(Inv).Success);
  std::string Payload;
  EXPECT_TRUE(Svc.getCache().get(
      driver::CompilerInvocation::keyString(Inv.depKey()), "dep", Payload));
  return Payload;
}

/// \p V2 rewritten in the version-1 layout: the old header plus the empty
/// module-edge and module-group sections that layout required.
std::string asVersion1(std::string V2) {
  V2.replace(0, V2.find('\n'), "LSSDEP 1");
  V2.insert(V2.find("\nninst ") + 1, "nedge 0\n");
  V2.insert(V2.rfind("end\n"), "nmg 0\n");
  return V2;
}

/// Checks that \p Inv's stored graph has the current layout and that
/// reading and rewriting it reproduces its bytes; returns them.
std::string expectDepRoundTrip(const driver::CompilerInvocation &Inv) {
  std::string Bytes = depArtifactOf(Inv);
  EXPECT_EQ(Bytes.rfind("LSSDEP 2\n", 0), 0u);
  for (const char *Gone : {"\nnedge ", "\ne ", "\nnmg ", "\nmg "})
    EXPECT_EQ(Bytes.find(Gone), std::string::npos) << Gone;
  driver::DepGraph G;
  EXPECT_TRUE(driver::deserializeDepGraph(Bytes, G));
  EXPECT_EQ(G.Sources.size(), Inv.Sources.size());
  EXPECT_FALSE(G.Instances.empty());
  std::string Again;
  EXPECT_TRUE(driver::serializeDepGraph(G, Again));
  EXPECT_EQ(Again, Bytes);
  return Bytes;
}

TEST(DepGraphFormat, RealCompilesRoundTripByteForByte) {
  expectDepRoundTrip(baseInvocation());
  // Model A's graph also carries pending assignments and connections.
  driver::CompilerInvocation ModelA;
  ASSERT_TRUE(ModelA.addFile(models::uarchLssPath()));
  ASSERT_TRUE(ModelA.addFile(models::modelLssPath("a")));
  ModelA.BuildSim = false;
  std::string Bytes = expectDepRoundTrip(ModelA);
  EXPECT_NE(Bytes.find("\na "), std::string::npos);
  EXPECT_NE(Bytes.find("\nc "), std::string::npos);
}

TEST(DepGraphFormat, RejectsVersion1AndEveryTruncation) {
  const std::string Bytes = depArtifactOf(baseInvocation());
  driver::DepGraph G;
  ASSERT_TRUE(driver::deserializeDepGraph(Bytes, G));
  EXPECT_FALSE(driver::deserializeDepGraph(asVersion1(Bytes), G));
  for (size_t N = 0; N != Bytes.size(); ++N)
    EXPECT_FALSE(driver::deserializeDepGraph(Bytes.substr(0, N), G))
        << "accepted the first " << N << " of " << Bytes.size() << " bytes";
}

TEST(DepGraphFormat, CachedVersion1GraphIsUnreadableOnceThenReplaced) {
  TempDir Dir;
  driver::CompileService Svc(diskOpts(Dir));
  driver::CompilerInvocation Inv = baseInvocation();
  ASSERT_TRUE(Svc.compile(Inv).Success);
  const std::string DepKey =
      driver::CompilerInvocation::keyString(Inv.depKey());
  std::string Bytes;
  ASSERT_TRUE(Svc.getCache().get(DepKey, "dep", Bytes));
  Svc.getCache().put(DepKey, "dep", asVersion1(Bytes));

  std::string Lane3 = laneSpec(3);
  Lane3.insert(Lane3.rfind('}'), "  // edit\n");
  editSource(Inv, "lane3.lss", Lane3);
  driver::CompileResult R = Svc.compileIncremental(Inv);
  ASSERT_TRUE(R.Success);
  EXPECT_FALSE(R.Incremental.Used);
  EXPECT_EQ(R.Incremental.FallbackReason, "dependency-graph-unreadable");

  // The full compile it fell back to stored a current graph in its place.
  ASSERT_TRUE(Svc.getCache().get(DepKey, "dep", Bytes));
  EXPECT_EQ(Bytes.rfind("LSSDEP 2\n", 0), 0u);
  Lane3.insert(Lane3.rfind('}'), "  // edit 2\n");
  editSource(Inv, "lane3.lss", Lane3);
  driver::CompileResult R2 = Svc.compileIncremental(Inv);
  ASSERT_TRUE(R2.Success);
  EXPECT_TRUE(R2.Incremental.Used)
      << "fell back: " << R2.Incremental.FallbackReason;
}

//===----------------------------------------------------------------------===//
// Module-span scanning (the diff layer under the matrix)
//===----------------------------------------------------------------------===//

TEST(ModuleSpans, ScanSkipsCommentsAndStrings) {
  std::vector<driver::ModuleSpan> Spans;
  const std::string Text = "// module not_a_module {\n"
                           "module real { /* module also_not { */ }\n"
                           "instance r:real;\n";
  ASSERT_TRUE(driver::scanModuleSpans(Text, Spans));
  ASSERT_EQ(Spans.size(), 1u);
  EXPECT_EQ(Spans[0].Name, "real");
}

TEST(ModuleSpans, UnterminatedCommentDeclinesScanning) {
  std::vector<driver::ModuleSpan> Spans;
  EXPECT_FALSE(driver::scanModuleSpans("module m { } /* open", Spans));
}

TEST(ModuleSpans, DeclTerminatorStaysInsideTheSpan) {
  // `module m { ... };` — the optional ';' terminator must be part of the
  // span. Left in the residual it would be a token whose offset shifts on
  // every in-body edit, making the common `};` style permanently fall
  // back as "top-level-changed".
  const std::string A = "module m {\n  instance a:adder;\n};\n";
  std::vector<driver::ModuleSpan> SA;
  ASSERT_TRUE(driver::scanModuleSpans(A, SA));
  ASSERT_EQ(SA.size(), 1u);
  EXPECT_EQ(A[SA[0].End - 1], ';');
  // Growing the body leaves only trailing whitespace in the residual, so
  // the residual hash is stable and the edit is incrementally replayable.
  const std::string B =
      "module m {\n  instance a:adder;\n  instance k:sink;\n};\n";
  std::vector<driver::ModuleSpan> SB;
  ASSERT_TRUE(driver::scanModuleSpans(B, SB));
  EXPECT_EQ(driver::hashResidual(A, SA), driver::hashResidual(B, SB));
}

TEST(ModuleSpans, ShiftedModuleReadsAsChanged) {
  // The hash folds the span's start offset: byte-identical module text at
  // a different offset must hash differently (serialized SourceLocs are
  // exact).
  const std::string A = "module m { instance s:sink; }\n";
  const std::string B = "\n" + A;
  std::vector<driver::ModuleSpan> SA, SB;
  ASSERT_TRUE(driver::scanModuleSpans(A, SA));
  ASSERT_TRUE(driver::scanModuleSpans(B, SB));
  ASSERT_EQ(SA.size(), 1u);
  ASSERT_EQ(SB.size(), 1u);
  EXPECT_NE(driver::hashModuleSpan(A, SA[0]), driver::hashModuleSpan(B, SB[0]));
}

} // namespace
