//===- CacheTest.cpp - CompilerInvocation keys and the artifact cache ------===//
///
/// Covers the driver API redesign end to end:
///  - CompilerInvocation key sensitivity, including the
///    contract that Solve.NumThreads and the solver budgets never
///    invalidate the solve artifact;
///  - CompileService cold/warm compiles against a disk cache directory,
///    with identical observable results (netlist print, simulation run);
///  - per-field invalidation, corrupted/truncated-entry recovery, payloads
///    the decoder rejects counting as misses, and the rule that failing
///    compiles are never cached;
///  - batch compiles: input-order results and determinism under threads;
///  - the LSSNL/LSSSOL serializers: reload fixpoint, the byte-stability
///    of the solution artifact across serial and parallel inference, the
///    summary readers agreeing with the full ones, and every truncation
///    rejected by both.
///
//===----------------------------------------------------------------------===//

#include "driver/CompileService.h"
#include "driver/Compiler.h"
#include "driver/CompilerInvocation.h"
#include "infer/Solution.h"
#include "netlist/Serializer.h"
#include "support/FaultInjection.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

using namespace liberty;

namespace {

const char *kChainSpec = R"(
instance g:counter_source;
instance one:const_source;
one.value = 1;
instance a:adder;
instance s:sink;
g.out -> a.in1;
one.out -> a.in2;
a.out -> s.in;
)";

const char *kMuxSpec = R"(
instance sel:counter_source;
instance i0:const_source;
i0.value = 10;
instance i1:const_source;
i1.value = 11;
instance m:mux;
instance s:sink;
sel.out -> m.sel;
i0.out -> m.in[0];
i1.out -> m.in[1];
m.out -> s.in;
)";

driver::CompilerInvocation chainInvocation(const char *Spec = kChainSpec) {
  driver::CompilerInvocation Inv;
  Inv.addSource("chain.lss", Spec);
  Inv.BuildSim = false;
  return Inv;
}

/// A scratch directory for one test's disk cache, removed on destruction.
struct TempDir {
  std::string Path;
  TempDir() {
    char Buf[] = "/tmp/lss_cachetest_XXXXXX";
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

//===----------------------------------------------------------------------===//
// Key contract
//===----------------------------------------------------------------------===//

TEST(InvocationKeys, SourceTextChangesEveryKey) {
  // Equal texts key equal; any byte change reaches both keys, whether it
  // adds a top-level statement, touches only whitespace outside a module,
  // or edits a module body.
  const std::string Modular = "module m { instance s:sink; }\ninstance i:m;\n";
  std::string SpanEdit = Modular;
  SpanEdit[SpanEdit.find("sink")] = 'z'; // "zink": nonsense, but hashed
  const std::pair<std::string, std::string> Edits[] = {
      {kChainSpec, std::string(kChainSpec) + "\ninstance extra:sink;\n"},
      {Modular, Modular + " "}, // residual edit
      {Modular, SpanEdit},      // module-span edit
  };
  for (const auto &[Before, After] : Edits) {
    driver::CompilerInvocation A = chainInvocation(Before.c_str());
    driver::CompilerInvocation B = chainInvocation(After.c_str());
    EXPECT_EQ(A.elabKey(), chainInvocation(Before.c_str()).elabKey());
    EXPECT_NE(A.elabKey(), B.elabKey()) << After;
    EXPECT_NE(A.solveKey(), B.solveKey()) << After;
    EXPECT_EQ(B.solveKey(B.elabKey()), B.solveKey());
  }
}

TEST(InvocationKeys, SourceNameIsExcluded) {
  // Content-addressed: renaming a file must hit the same artifacts.
  driver::CompilerInvocation A = chainInvocation();
  driver::CompilerInvocation B;
  B.addSource("renamed.lss", kChainSpec);
  B.BuildSim = false;
  EXPECT_EQ(A.elabKey(), B.elabKey());
  EXPECT_EQ(A.solveKey(), B.solveKey());
}

TEST(InvocationKeys, ElaborationOptionsInvalidateElabKey) {
  driver::CompilerInvocation A = chainInvocation();
  driver::CompilerInvocation B = chainInvocation();
  B.Elab.MaxSteps = A.Elab.MaxSteps / 2;
  EXPECT_NE(A.elabKey(), B.elabKey());

  driver::CompilerInvocation C = chainInvocation();
  C.Elab.MaxInstances = A.Elab.MaxInstances / 2;
  EXPECT_NE(A.elabKey(), C.elabKey());

  driver::CompilerInvocation D = chainInvocation();
  D.UseCoreLibrary = false;
  EXPECT_NE(A.elabKey(), D.elabKey());
}

TEST(InvocationKeys, SolverHeuristicsInvalidateSolveKeyOnly) {
  driver::CompilerInvocation A = chainInvocation();
  for (int Field = 0; Field != 3; ++Field) {
    driver::CompilerInvocation B = chainInvocation();
    if (Field == 0)
      B.Solve.ReorderSimpleFirst = false;
    else if (Field == 1)
      B.Solve.ForcedDisjunctElimination = false;
    else
      B.Solve.Partition = false;
    EXPECT_EQ(A.elabKey(), B.elabKey()) << "field " << Field;
    EXPECT_NE(A.solveKey(), B.solveKey()) << "field " << Field;
  }
}

TEST(InvocationKeys, ThreadCountsAndBudgetsNeverInvalidate) {
  // The serial/parallel bit-identical contract: NumThreads must not be
  // part of any key, and budgets only decide whether a solve finishes.
  driver::CompilerInvocation A = chainInvocation();
  driver::CompilerInvocation B = chainInvocation();
  B.Solve.NumThreads = 8;
  B.Solve.MaxSteps = 1234;
  B.Solve.DeadlineMs = 99;
  EXPECT_EQ(A.elabKey(), B.elabKey());
  EXPECT_EQ(A.solveKey(), B.solveKey());
}

//===----------------------------------------------------------------------===//
// Cold/warm service compiles
//===----------------------------------------------------------------------===//

TEST(CacheService, ColdThenWarmHitsAndMatches) {
  TempDir Dir;
  std::string ColdPrint, WarmPrint;
  {
    driver::CompileService Svc(diskOpts(Dir));
    driver::CompileResult R = Svc.compile(chainInvocation());
    ASSERT_TRUE(R.Success);
    EXPECT_FALSE(R.ElabFromCache);
    EXPECT_FALSE(R.SolutionFromCache);
    driver::CacheStats S = Svc.getCache().getStats();
    EXPECT_EQ(S.Hits, 0u);
    EXPECT_EQ(S.Misses, 2u);
    EXPECT_EQ(S.Stores, 2u); // elab, solve
    ColdPrint = netlistText(*R.C);
  }
  {
    // A fresh service: nothing in memory, both artifacts come from disk.
    driver::CompileService Svc(diskOpts(Dir));
    driver::CompileResult R = Svc.compile(chainInvocation());
    ASSERT_TRUE(R.Success);
    EXPECT_TRUE(R.ElabFromCache);
    EXPECT_TRUE(R.SolutionFromCache);
    driver::CacheStats S = Svc.getCache().getStats();
    EXPECT_EQ(S.Hits, 2u);
    EXPECT_EQ(S.DiskHits, 2u);
    EXPECT_EQ(S.Misses, 0u);
    WarmPrint = netlistText(*R.C);
  }
  EXPECT_EQ(ColdPrint, WarmPrint);
}

TEST(CacheService, MemoryCacheHitsWithoutDisk) {
  driver::CompileService Svc; // Default: enabled, in-memory only.
  driver::CompileResult Cold = Svc.compile(chainInvocation());
  ASSERT_TRUE(Cold.Success);
  driver::CompileResult Warm = Svc.compile(chainInvocation());
  ASSERT_TRUE(Warm.Success);
  EXPECT_TRUE(Warm.ElabFromCache);
  EXPECT_TRUE(Warm.SolutionFromCache);
  EXPECT_EQ(Svc.getCache().getStats().MemoryHits, 2u);
  EXPECT_EQ(netlistText(*Cold.C), netlistText(*Warm.C));
}

TEST(CacheService, WarmSimulationMatchesCold) {
  TempDir Dir;
  auto RunOnce = [&](uint64_t &Cycle, std::string &Nets) {
    driver::CompileService Svc(diskOpts(Dir));
    driver::CompilerInvocation Inv = chainInvocation();
    Inv.BuildSim = true;
    driver::CompileResult R = Svc.compile(Inv);
    ASSERT_TRUE(R.Success);
    sim::Simulator *Sim = R.C->getSimulator();
    ASSERT_NE(Sim, nullptr);
    Sim->step(25);
    Cycle = Sim->getCycle();
    std::ostringstream OS;
    const interp::Value *V = Sim->peekPort("s", "in", 0);
    OS << (V ? V->str() : "(absent)");
    Nets = OS.str();
  };
  uint64_t ColdCycle = 0, WarmCycle = 0;
  std::string ColdNets, WarmNets;
  RunOnce(ColdCycle, ColdNets);
  RunOnce(WarmCycle, WarmNets);
  EXPECT_EQ(ColdCycle, WarmCycle);
  EXPECT_EQ(ColdNets, WarmNets);
}

TEST(CacheService, EditedSourceMisses) {
  TempDir Dir;
  driver::CompileService Svc(diskOpts(Dir));
  ASSERT_TRUE(Svc.compile(chainInvocation()).Success);
  driver::CompilerInvocation Edited = chainInvocation();
  Edited.Sources[0].Text += "\ninstance extra:sink;\n";
  driver::CompileResult R = Svc.compile(Edited);
  ASSERT_TRUE(R.Success);
  EXPECT_FALSE(R.ElabFromCache);
  EXPECT_FALSE(R.SolutionFromCache);
  EXPECT_EQ(Svc.getCache().getStats().Stores, 4u); // 2 x (elab, solve)
}

TEST(CacheService, DifferentThreadCountStillHits) {
  TempDir Dir;
  {
    driver::CompileService Svc(diskOpts(Dir));
    driver::CompilerInvocation Inv = chainInvocation();
    Inv.Solve.NumThreads = 1;
    ASSERT_TRUE(Svc.compile(Inv).Success);
  }
  driver::CompileService Svc(diskOpts(Dir));
  driver::CompilerInvocation Inv = chainInvocation();
  Inv.Solve.NumThreads = 8;
  driver::CompileResult R = Svc.compile(Inv);
  ASSERT_TRUE(R.Success);
  EXPECT_TRUE(R.ElabFromCache);
  EXPECT_TRUE(R.SolutionFromCache);
}

/// Three overload puzzles of different depths: three distinct H3 groups,
/// so a parallel solve spreads its searches over a pool.
std::string overloadPuzzles() {
  std::ostringstream OS;
  for (unsigned Depth : {2u, 3u, 4u}) {
    OS << "module puzzle" << Depth << " {\n";
    for (unsigned J = 0; J != Depth; ++J)
      OS << "  constrain 'u" << J << " : (float | int);\n";
    OS << "  constrain 'w : struct{";
    for (unsigned J = 0; J != Depth; ++J)
      OS << "f" << J << ":'u" << J << "; ";
    OS << "g:'gv};\n  constrain 'w : (";
    for (const char *G : {"int", "float"}) {
      OS << "struct{";
      for (unsigned J = 0; J != Depth; ++J)
        OS << "f" << J << ":int; ";
      OS << "g:" << G << "}" << (G[0] == 'i' ? " | " : "");
    }
    OS << ");\n}\ninstance p" << Depth << ":puzzle" << Depth << ";\n";
  }
  return OS.str();
}

TEST(CacheService, SolveArtifactBytesIgnoreTheThreadCount) {
  // The solve key ignores the thread count, so the artifact stored under
  // it must not depend on it either: --jobs 1 and --jobs 4 write the same
  // bytes under the same file name.
  const std::string Spec = overloadPuzzles();
  auto StoredFiles = [&](unsigned Threads) {
    TempDir Dir;
    driver::CompileService Svc(diskOpts(Dir));
    driver::CompilerInvocation Inv = chainInvocation(Spec.c_str());
    Inv.Solve.NumThreads = Threads;
    driver::CompileResult R = Svc.compile(Inv);
    EXPECT_TRUE(R.Success);
    EXPECT_EQ(R.C->getInferenceStats().Solve.NumComponents, 3u);
    EXPECT_GE(R.C->getInferenceStats().Solve.ThreadsUsed, 1u);
    std::map<std::string, std::string> Files;
    for (const auto &E :
         std::filesystem::recursive_directory_iterator(Dir.Path)) {
      if (!E.is_regular_file())
        continue;
      std::ifstream In(E.path(), std::ios::binary);
      std::ostringstream Bytes;
      Bytes << In.rdbuf();
      Files[E.path().filename().string()] = Bytes.str();
    }
    return Files;
  };
  std::map<std::string, std::string> Serial = StoredFiles(1);
  std::map<std::string, std::string> Parallel = StoredFiles(4);
  ASSERT_EQ(Serial.size(), Parallel.size());
  unsigned SolveFiles = 0;
  for (const auto &[Name, Bytes] : Serial) {
    ASSERT_TRUE(Parallel.count(Name)) << Name;
    EXPECT_EQ(Bytes, Parallel[Name]) << Name;
    SolveFiles += Name.find(".solve.") != std::string::npos;
  }
  EXPECT_EQ(SolveFiles, 1u);
}

TEST(CacheService, FailingCompileIsNeverCached) {
  TempDir Dir;
  driver::CompilerInvocation Bad;
  Bad.addSource("bad.lss", "instance g:counter_source;\ng.out -> g.nosuch;\n");
  Bad.BuildSim = false;
  for (int Round = 0; Round != 2; ++Round) {
    driver::CompileService Svc(diskOpts(Dir));
    driver::CompileResult R = Svc.compile(Bad);
    EXPECT_FALSE(R.Success) << "round " << Round;
    EXPECT_FALSE(R.ElabFromCache);
    EXPECT_FALSE(R.SolutionFromCache);
    EXPECT_EQ(Svc.getCache().getStats().Stores, 0u) << "round " << Round;
  }
}

//===----------------------------------------------------------------------===//
// Corruption recovery
//===----------------------------------------------------------------------===//

TEST(CacheService, CorruptedEntriesAreDiagnosedAndRecompiled) {
  TempDir Dir;
  std::string CleanPrint;
  {
    driver::CompileService Svc(diskOpts(Dir));
    driver::CompileResult R = Svc.compile(chainInvocation());
    ASSERT_TRUE(R.Success);
    CleanPrint = netlistText(*R.C);
  }
  // Stomp every stored entry with garbage.
  unsigned Stomped = 0;
  for (const auto &E : std::filesystem::directory_iterator(Dir.Path)) {
    std::ofstream(E.path()) << "garbage, definitely not an artifact\n";
    ++Stomped;
  }
  ASSERT_EQ(Stomped, 2u); // elab, solve
  {
    driver::CompileService Svc(diskOpts(Dir));
    driver::CompileResult R = Svc.compile(chainInvocation());
    ASSERT_TRUE(R.Success); // Never a crash, never a failure.
    EXPECT_FALSE(R.ElabFromCache);
    EXPECT_FALSE(R.SolutionFromCache);
    EXPECT_EQ(Svc.getCache().getStats().Corrupt, 2u);
    EXPECT_NE(R.C->diagnosticsText().find("ignoring corrupted cache entry"),
              std::string::npos);
    EXPECT_EQ(netlistText(*R.C), CleanPrint);
  }
  // The recompile overwrote the stomped entries with valid ones.
  driver::CompileService Svc(diskOpts(Dir));
  driver::CompileResult R = Svc.compile(chainInvocation());
  ASSERT_TRUE(R.Success);
  EXPECT_TRUE(R.ElabFromCache);
  EXPECT_TRUE(R.SolutionFromCache);
}

TEST(CacheService, TruncatedEntryIsAMiss) {
  TempDir Dir;
  {
    driver::CompileService Svc(diskOpts(Dir));
    ASSERT_TRUE(Svc.compile(chainInvocation()).Success);
  }
  for (const auto &E : std::filesystem::directory_iterator(Dir.Path)) {
    std::error_code EC;
    std::filesystem::resize_file(E.path(),
                                 std::filesystem::file_size(E.path()) / 2, EC);
    ASSERT_FALSE(EC);
  }
  driver::CompileService Svc(diskOpts(Dir));
  driver::CompileResult R = Svc.compile(chainInvocation());
  ASSERT_TRUE(R.Success);
  EXPECT_FALSE(R.ElabFromCache);
  EXPECT_EQ(Svc.getCache().getStats().Corrupt, 2u);
}

/// A payload with a valid envelope but a format this build does not read
/// (here an entry written by an older LSSNL writer): the decoder rejects
/// it, so the lookup is a miss, not a hit, the note names the version, and
/// nothing is quarantined.
TEST(CacheService, UndecodablePayloadIsAMissWithAReason) {
  std::string ColdBytes;
  {
    driver::CompileService Cold;
    driver::CompileResult R = Cold.compile(chainInvocation());
    ASSERT_TRUE(R.Success);
    ASSERT_TRUE(netlist::serializeNetlist(
        *R.C->getNetlist(), R.C->getLibraryModules(),
        R.C->getNumUserTypeAnnotations(), {}, ColdBytes));
  }
  TempDir Dir;
  driver::CompileService Svc(diskOpts(Dir));
  driver::CompilerInvocation Inv = chainInvocation();
  std::string OldFormat = "LSSNL 1" + ColdBytes.substr(ColdBytes.find('\n'));
  Svc.getCache().put(driver::CompilerInvocation::keyString(Inv.elabKey()),
                     "elab", OldFormat);

  driver::CompileResult R = Svc.compile(Inv);
  ASSERT_TRUE(R.Success);
  EXPECT_FALSE(R.ElabFromCache);
  std::string Bytes;
  ASSERT_TRUE(netlist::serializeNetlist(
      *R.C->getNetlist(), R.C->getLibraryModules(),
      R.C->getNumUserTypeAnnotations(), {}, Bytes));
  EXPECT_EQ(Bytes, ColdBytes);
  EXPECT_NE(R.C->diagnosticsText().find(
                "unsupported format 'LSSNL 1' (expected 'LSSNL 3')"),
            std::string::npos)
      << R.C->diagnosticsText();
  driver::CacheStats S = Svc.getCache().getStats();
  EXPECT_EQ(S.Hits, 0u);
  EXPECT_EQ(S.Misses, 2u); // The rejected elab entry, then the solve.
  EXPECT_EQ(S.Quarantined, 0u);
  EXPECT_EQ(S.Corrupt, 0u);
}

//===----------------------------------------------------------------------===//
// The memory tier: byte accounting and the segmented LRU's policy
//===----------------------------------------------------------------------===//

TEST(CacheBudget, BytesInMemoryTracksResidentPayloads) {
  driver::ArtifactCache Cache; // In-memory only, default budget.
  EXPECT_EQ(Cache.getStats().BytesInMemory, 0u);

  Cache.put("k1", "elab", std::string(100, 'a'));
  Cache.put("k2", "elab", std::string(40, 'b'));
  driver::CacheStats S = Cache.getStats();
  EXPECT_EQ(S.BytesInMemory, 140u);
  EXPECT_EQ(S.Evictions, 0u);

  // Re-storing a key replaces its payload: the gauge must not double-count.
  Cache.put("k1", "elab", std::string(10, 'c'));
  EXPECT_EQ(Cache.getStats().BytesInMemory, 50u);

  std::string Payload;
  ASSERT_TRUE(Cache.get("k1", "elab", Payload));
  EXPECT_EQ(Payload, std::string(10, 'c'));
  EXPECT_EQ(Cache.getStats().BytesInMemory, 50u); // Reads move no bytes.
}

TEST(CacheBudget, LruBudgetEvictsOldestAndCounts) {
  driver::ArtifactCache::Options O;
  O.MemoryBudgetBytes = 100;
  driver::ArtifactCache Cache(O);

  Cache.put("k1", "elab", std::string(60, 'a'));
  Cache.put("k2", "elab", std::string(60, 'b'));
  driver::CacheStats S = Cache.getStats();
  EXPECT_EQ(S.Evictions, 1u); // k1 dropped to fit k2.
  EXPECT_EQ(S.BytesInMemory, 60u);
  EXPECT_LE(S.BytesInMemory, O.MemoryBudgetBytes);

  // The evicted entry is gone (no disk tier to fall back to); the
  // survivor still hits.
  std::string Payload;
  EXPECT_FALSE(Cache.get("k1", "elab", Payload));
  EXPECT_TRUE(Cache.get("k2", "elab", Payload));

  // That hit promoted k2 (60 bytes) to the protected segment. New entries
  // wait on probation, capped at a fifth of the budget (20 bytes): k4
  // pushes k3 out although the total (75) is under the budget, and the
  // reused k2 stays.
  Cache.put("k3", "elab", std::string(15, 'c'));
  Cache.put("k4", "elab", std::string(15, 'd'));
  S = Cache.getStats();
  EXPECT_EQ(S.Evictions, 2u);
  EXPECT_EQ(S.EvictionsUnused, 2u); // k1 and k3 were never hit.
  EXPECT_EQ(S.BytesInMemory, 75u);
  EXPECT_EQ(S.BytesInProbation, 15u);
  EXPECT_LE(S.BytesInMemory, O.MemoryBudgetBytes);
  EXPECT_TRUE(Cache.get("k2", "elab", Payload));
  EXPECT_FALSE(Cache.get("k3", "elab", Payload));
  EXPECT_TRUE(Cache.get("k4", "elab", Payload));

  // An oversized payload still caches (the newest entry is never its own
  // victim) and the gauge reflects the overshoot honestly: everything
  // else goes, the protected entries last.
  Cache.put("big", "elab", std::string(500, 'e'));
  S = Cache.getStats();
  EXPECT_TRUE(Cache.get("big", "elab", Payload));
  EXPECT_EQ(S.BytesInMemory, 500u);
  EXPECT_EQ(S.Evictions, 4u);
  EXPECT_EQ(S.EvictionsUnused, 2u);
}

/// Stores \p N never-read payloads of \p Size bytes under fresh keys.
void putOneUseStream(driver::ArtifactCache &Cache, int N, size_t Size) {
  for (int I = 0; I != N; ++I)
    Cache.put("stream" + std::to_string(I), "elab", std::string(Size, 's'));
}

TEST(CacheBudget, OneUseStreamDoesNotEvictAReusedEntry) {
  driver::ArtifactCache::Options O;
  O.MemoryBudgetBytes = 1000;
  driver::ArtifactCache Cache(O);
  std::string Payload;
  Cache.put("hot", "elab", std::string(300, 'h'));
  ASSERT_TRUE(Cache.get("hot", "elab", Payload));

  putOneUseStream(Cache, 100, 100); // 10x the budget.
  driver::CacheStats S = Cache.getStats();
  EXPECT_TRUE(Cache.get("hot", "elab", Payload));
  EXPECT_EQ(Payload, std::string(300, 'h'));
  // The stream cycled through probation: two entries fit its 200 bytes.
  EXPECT_EQ(S.BytesInMemory, 300u + 200u);
  EXPECT_EQ(S.BytesInProbation, 200u);
  EXPECT_EQ(S.Evictions, 98u);
  EXPECT_EQ(S.EvictionsUnused, 98u);
}

TEST(CacheBudget, DiskHitEntersProbation) {
  TempDir Dir;
  driver::ArtifactCache::Options O;
  O.DiskDir = Dir.Path;
  O.MemoryBudgetBytes = 1000;
  driver::ArtifactCache{O}.put("warm", "elab", std::string(150, 'w'));

  // A fresh process: the entry is on disk only.
  driver::ArtifactCache Cache(O);
  std::string Payload;
  ASSERT_TRUE(Cache.get("warm", "elab", Payload));
  driver::CacheStats S = Cache.getStats();
  EXPECT_EQ(S.DiskHits, 1u);
  EXPECT_EQ(S.BytesInMemory, 150u);
  EXPECT_EQ(S.BytesInProbation, 150u); // Loaded, but not yet reused.

  // Unless a memory hit promotes it, a one-use stream pushes it out.
  putOneUseStream(Cache, 10, 100);
  ASSERT_TRUE(Cache.get("warm", "elab", Payload));
  S = Cache.getStats();
  EXPECT_EQ(S.DiskHits, 2u);
  EXPECT_EQ(S.MemoryHits, 0u);
  EXPECT_GE(S.EvictionsUnused, 1u);

  // This time a memory hit promotes it, and the stream leaves it be.
  ASSERT_TRUE(Cache.get("warm", "elab", Payload));
  putOneUseStream(Cache, 10, 100);
  ASSERT_TRUE(Cache.get("warm", "elab", Payload));
  S = Cache.getStats();
  EXPECT_EQ(S.DiskHits, 2u);
  EXPECT_EQ(S.MemoryHits, 2u);
}

/// The memory tier's policy restated over plain vectors with linear scans,
/// as the oracle for RandomOpsMatchReferenceModel. Each segment is
/// MRU-first.
class ReferenceTier {
public:
  explicit ReferenceTier(uint64_t Budget) : Budget(Budget) {}

  void put(const std::string &Key, uint64_t Size) {
    for (std::vector<Item> *Seg : {&Probation, &Protected})
      for (size_t I = 0; I != Seg->size(); ++I)
        if ((*Seg)[I].Key == Key) {
          Seg->erase(Seg->begin() + I);
          break;
        }
    Probation.insert(Probation.begin(), Item{Key, Size, false});
    evict(Key);
  }

  bool get(const std::string &Key) {
    for (size_t I = 0; I != Protected.size(); ++I)
      if (Protected[I].Key == Key) {
        Item It = Protected[I];
        Protected.erase(Protected.begin() + I);
        It.Used = true;
        Protected.insert(Protected.begin(), It);
        return true;
      }
    for (size_t I = 0; I != Probation.size(); ++I)
      if (Probation[I].Key == Key) {
        Item It = Probation[I];
        Probation.erase(Probation.begin() + I);
        It.Used = true;
        Protected.insert(Protected.begin(), It);
        while (bytes(Protected) > Budget - probationCap() &&
               Protected.size() > 1) {
          Probation.insert(Probation.begin(), Protected.back());
          Protected.pop_back();
        }
        evict(Key);
        return true;
      }
    return false;
  }

  uint64_t probationCap() const { return Budget / 5; }
  uint64_t probationBytes() const { return bytes(Probation); }
  uint64_t totalBytes() const { return bytes(Probation) + bytes(Protected); }
  size_t probationSize() const { return Probation.size(); }
  uint64_t Evictions = 0, EvictionsUnused = 0;

private:
  struct Item {
    std::string Key;
    uint64_t Size;
    bool Used;
  };

  static uint64_t bytes(const std::vector<Item> &Seg) {
    uint64_t N = 0;
    for (const Item &It : Seg)
      N += It.Size;
    return N;
  }

  /// Probation's oldest first, protected's oldest once probation has
  /// nothing else to give; never \p Keep.
  void evict(const std::string &Keep) {
    while (probationBytes() > probationCap() || totalBytes() > Budget) {
      std::vector<Item> *From = nullptr;
      if (!Probation.empty() && Probation.back().Key != Keep)
        From = &Probation;
      else if (totalBytes() > Budget && !Protected.empty() &&
               Protected.back().Key != Keep)
        From = &Protected;
      if (!From)
        return;
      ++Evictions;
      if (!From->back().Used)
        ++EvictionsUnused;
      From->pop_back();
    }
  }

  uint64_t Budget;
  std::vector<Item> Probation, Protected;
};

/// Runs \p Ops random put/get operations against both the cache and the
/// reference, comparing them after each one, then looks up every key in
/// both. Returns false at the first disagreement.
bool matchesReference(uint64_t Seed, int Ops) {
  constexpr uint64_t Budget = 1000;
  constexpr int NumKeys = 24;
  std::mt19937_64 Rng(Seed);
  driver::ArtifactCache::Options O;
  O.MemoryBudgetBytes = Budget;
  driver::ArtifactCache Cache(O);
  ReferenceTier Ref(Budget);
  std::string Payload;
  for (int Op = 0; Op != Ops; ++Op) {
    SCOPED_TRACE("seed " + std::to_string(Seed) + ", op " +
                 std::to_string(Op));
    std::string Key = std::to_string(Rng() % NumKeys);
    if (Rng() % 2 == 0) {
      uint64_t Size = 1 + Rng() % (Budget / 2);
      Cache.put(Key, "elab", std::string(Size, 'x'));
      Ref.put(Key, Size);
    } else {
      EXPECT_EQ(Cache.get(Key, "elab", Payload), Ref.get(Key));
    }
    driver::CacheStats S = Cache.getStats();
    EXPECT_EQ(S.BytesInMemory, Ref.totalBytes());
    EXPECT_EQ(S.BytesInProbation, Ref.probationBytes());
    EXPECT_EQ(S.Evictions, Ref.Evictions);
    EXPECT_EQ(S.EvictionsUnused, Ref.EvictionsUnused);
    EXPECT_TRUE(S.BytesInProbation <= Ref.probationCap() ||
                Ref.probationSize() == 1);
    if (::testing::Test::HasFailure())
      return false;
  }
  for (int K = 0; K != NumKeys; ++K) {
    std::string Probe = std::to_string(K);
    EXPECT_EQ(Cache.get(Probe, "elab", Payload), Ref.get(Probe)) << Probe;
  }
  return !::testing::Test::HasFailure();
}

TEST(CacheBudget, RandomOpsMatchReferenceModel) {
  for (uint64_t Seed = 1; Seed <= 50; ++Seed)
    ASSERT_TRUE(matchesReference(Seed, 10000));
}

TEST(CacheBudget, ConcurrentGetPutKeepsAccounting) {
  constexpr int NumKeys = 16;
  driver::ArtifactCache::Options O;
  O.MemoryBudgetBytes = 4096;
  driver::ArtifactCache Cache(O);
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != 4; ++T)
    Threads.emplace_back([&Cache, T] {
      std::mt19937 Rng(T + 1);
      std::string Payload;
      for (int Op = 0; Op != 5000; ++Op) {
        std::string Key = std::to_string(Rng() % NumKeys);
        if (Rng() % 2 == 0)
          Cache.put(Key, "elab", std::string(1 + Rng() % 1024, 'x'));
        else
          Cache.get(Key, "elab", Payload);
      }
    });
  for (std::thread &T : Threads)
    T.join();

  driver::CacheStats S = Cache.getStats();
  EXPECT_LE(S.BytesInMemory, O.MemoryBudgetBytes);
  EXPECT_LE(S.BytesInProbation, S.BytesInMemory);
  EXPECT_LE(S.EvictionsUnused, S.Evictions);
  // Overwriting every key with one byte leaves exactly those bytes
  // resident, all on probation, only if the byte accounting stayed exact.
  for (int K = 0; K != NumKeys; ++K)
    Cache.put(std::to_string(K), "elab", "x");
  S = Cache.getStats();
  EXPECT_EQ(S.BytesInMemory, uint64_t(NumKeys));
  EXPECT_EQ(S.BytesInProbation, uint64_t(NumKeys));
}

//===----------------------------------------------------------------------===//
// Cache self-healing: tmp sweep, quarantine, degraded mode
//===----------------------------------------------------------------------===//

/// Clears the fault schedule around each test: these tests inject disk
/// faults and must never leak them into later suites.
class CacheSelfHeal : public ::testing::Test {
protected:
  void SetUp() override { FaultInjection::reset(); }
  void TearDown() override { FaultInjection::reset(); }
};

driver::ArtifactCache::Options cacheOpts(const TempDir &Dir,
                                         uint64_t SweepAge = 0) {
  driver::ArtifactCache::Options O;
  O.DiskDir = Dir.Path;
  O.TmpSweepAgeSeconds = SweepAge;
  return O;
}

TEST_F(CacheSelfHeal, StartupSweepDeletesOnlyOldOrphanedTmpFiles) {
  TempDir Dir;
  std::string Orphan = Dir.Path + "/k.elab.lssart.tmp.999.0.deadbeef";
  std::string Bystander = Dir.Path + "/README.txt";
  std::ofstream(Orphan) << "half an envelope";
  std::ofstream(Bystander) << "not cache state";

  // A fresh tmp file survives the default sweep age (it could belong to a
  // live writer in another process)...
  {
    driver::ArtifactCache Cache(cacheOpts(Dir, /*SweepAge=*/3600));
    EXPECT_EQ(Cache.getStats().TmpSwept, 0u);
    EXPECT_TRUE(std::filesystem::exists(Orphan));
  }
  // ...and is collected once the age threshold admits it (tests use 0).
  {
    driver::ArtifactCache Cache(cacheOpts(Dir));
    EXPECT_EQ(Cache.getStats().TmpSwept, 1u);
    EXPECT_FALSE(std::filesystem::exists(Orphan));
    EXPECT_TRUE(std::filesystem::exists(Bystander));
  }
}

TEST_F(CacheSelfHeal, CrashMidWriteLeavesTmpThenSweepCollectsIt) {
  TempDir Dir;
  {
    driver::ArtifactCache Cache(cacheOpts(Dir));
    ASSERT_TRUE(FaultInjection::configure("cache.disk.write@1"));
    Cache.put("k1", "elab", "payload bytes");
    FaultInjection::reset();
    EXPECT_EQ(Cache.getStats().DiskWriteFailures, 1u);
  }
  // The simulated crash left a truncated temp file and no final entry.
  unsigned Tmps = 0, Finals = 0;
  for (const auto &E : std::filesystem::directory_iterator(Dir.Path)) {
    std::string Name = E.path().filename().string();
    if (Name.find(".lssart.tmp") != std::string::npos)
      ++Tmps;
    else if (Name.find(".lssart") != std::string::npos)
      ++Finals;
  }
  EXPECT_EQ(Tmps, 1u);
  EXPECT_EQ(Finals, 0u);

  // The next startup sweeps the orphan; a clean put then publishes.
  driver::ArtifactCache Cache(cacheOpts(Dir));
  EXPECT_EQ(Cache.getStats().TmpSwept, 1u);
  Cache.put("k1", "elab", "payload bytes");
  driver::ArtifactCache Reader(cacheOpts(Dir));
  std::string Back;
  EXPECT_TRUE(Reader.get("k1", "elab", Back));
  EXPECT_EQ(Back, "payload bytes");
}

TEST_F(CacheSelfHeal, TornRenameIsQuarantinedAndRecompiledIdentically) {
  TempDir Dir;
  const std::string Payload = "the artifact bytes, cold == warm";
  {
    driver::ArtifactCache Cache(cacheOpts(Dir));
    ASSERT_TRUE(FaultInjection::configure("cache.disk.rename@1"));
    Cache.put("k2", "solve", Payload); // Torn bytes land at the final name.
    FaultInjection::reset();
  }
  driver::ArtifactCache Cache(cacheOpts(Dir));
  std::string Back, Note;
  // The torn entry fails its checksum: a diagnosed miss, moved aside.
  EXPECT_FALSE(Cache.get("k2", "solve", Back, &Note));
  EXPECT_EQ(Cache.getStats().Corrupt, 1u);
  EXPECT_EQ(Cache.getStats().Quarantined, 1u);
  EXPECT_NE(Note.find("ignoring corrupted cache entry"), std::string::npos);

  // The quarantined file is out of the read path: the next miss is clean.
  Note.clear();
  EXPECT_FALSE(Cache.get("k2", "solve", Back, &Note));
  EXPECT_EQ(Cache.getStats().Corrupt, 1u);
  EXPECT_TRUE(Note.empty());

  // The "recompile" republished under the original name with the same
  // bytes a never-faulted write would have produced.
  Cache.put("k2", "solve", Payload);
  driver::ArtifactCache Reader(cacheOpts(Dir));
  EXPECT_TRUE(Reader.get("k2", "solve", Back));
  EXPECT_EQ(Back, Payload);
}

TEST_F(CacheSelfHeal, ConsecutiveWriteFailuresDegradeToMemoryOnly) {
  TempDir Dir;
  driver::ArtifactCache::Options O = cacheOpts(Dir);
  O.DegradeAfterFailures = 3;
  driver::ArtifactCache Cache(O);

  ASSERT_TRUE(FaultInjection::configure("cache.disk.open_write"));
  Cache.put("a", "elab", "pa");
  Cache.put("b", "elab", "pb");
  EXPECT_FALSE(Cache.isDegraded()); // Two failures: still trying.
  Cache.put("c", "elab", "pc");
  FaultInjection::reset();

  EXPECT_TRUE(Cache.isDegraded());
  EXPECT_TRUE(Cache.getStats().Degraded);
  EXPECT_EQ(Cache.getStats().DiskWriteFailures, 3u);

  // Degraded mode is sticky: even with the disk healthy again, no new
  // disk entries appear — but the memory tier still serves everything.
  Cache.put("d", "elab", "pd");
  EXPECT_EQ(Cache.getStats().DiskWriteFailures, 3u);
  for (const auto &E : std::filesystem::directory_iterator(Dir.Path))
    FAIL() << "unexpected disk entry " << E.path();
  std::string Back;
  EXPECT_TRUE(Cache.get("d", "elab", Back));
  EXPECT_EQ(Back, "pd");
}

TEST_F(CacheSelfHeal, ASuccessfulWriteResetsTheFailureStreak) {
  TempDir Dir;
  driver::ArtifactCache::Options O = cacheOpts(Dir);
  O.DegradeAfterFailures = 3;
  driver::ArtifactCache Cache(O);

  // Fail, fail, succeed, fail, fail: never three in a row.
  ASSERT_TRUE(FaultInjection::configure("cache.disk.open_write@1,"
                                        "cache.disk.open_write@2,"
                                        "cache.disk.open_write@4,"
                                        "cache.disk.open_write@5"));
  for (int I = 0; I != 5; ++I)
    Cache.put("k" + std::to_string(I), "elab", "p");
  FaultInjection::reset();

  EXPECT_FALSE(Cache.isDegraded());
  EXPECT_EQ(Cache.getStats().DiskWriteFailures, 4u);
  // The one successful write really published.
  driver::ArtifactCache Reader(cacheOpts(Dir));
  std::string Back;
  EXPECT_TRUE(Reader.get("k2", "elab", Back));
}

TEST_F(CacheSelfHeal, ServiceStaysCorrectWhileCacheDegrades) {
  TempDir Dir;
  std::string CleanPrint;
  {
    driver::CompileService Ref;
    CleanPrint = netlistText(*Ref.compile(chainInvocation()).C);
  }
  driver::CompileService::Options O = diskOpts(Dir);
  O.Cache.DegradeAfterFailures = 1;
  driver::CompileService Svc(O);
  ASSERT_TRUE(FaultInjection::configure("cache.disk.open_write"));
  driver::CompileResult R = Svc.compile(chainInvocation());
  FaultInjection::reset();
  ASSERT_TRUE(R.Success); // The cache is an accelerator, never a gate.
  EXPECT_EQ(netlistText(*R.C), CleanPrint);
  EXPECT_TRUE(Svc.getCache().isDegraded());

  // Warm compiles still ride the in-memory level.
  driver::CompileResult R2 = Svc.compile(chainInvocation());
  ASSERT_TRUE(R2.Success);
  EXPECT_TRUE(R2.ElabFromCache);
  EXPECT_TRUE(R2.SolutionFromCache);
  EXPECT_EQ(netlistText(*R2.C), CleanPrint);
}

//===----------------------------------------------------------------------===//
// Batch compiles
//===----------------------------------------------------------------------===//

TEST(CacheService, BatchResultsAreInInputOrderAndDeterministic) {
  // Reference prints from isolated compiles.
  driver::CompileService Ref;
  std::string ChainPrint =
      netlistText(*Ref.compile(chainInvocation()).C);
  driver::CompilerInvocation MuxInv;
  MuxInv.addSource("mux.lss", kMuxSpec);
  MuxInv.BuildSim = false;
  std::string MuxPrint = netlistText(*Ref.compile(MuxInv).C);
  ASSERT_NE(ChainPrint, MuxPrint);

  std::vector<driver::CompilerInvocation> Invs;
  for (int I = 0; I != 4; ++I) {
    Invs.push_back(chainInvocation());
    Invs.push_back(MuxInv);
  }
  for (int Round = 0; Round != 2; ++Round) {
    driver::CompileService Svc;
    std::vector<driver::CompileResult> Rs = Svc.compileBatch(Invs, 4);
    ASSERT_EQ(Rs.size(), Invs.size());
    for (size_t I = 0; I != Rs.size(); ++I) {
      ASSERT_TRUE(Rs[I].Success) << "round " << Round << " input " << I;
      EXPECT_EQ(netlistText(*Rs[I].C), I % 2 ? MuxPrint : ChainPrint)
          << "round " << Round << " input " << I;
    }
  }
}

//===----------------------------------------------------------------------===//
// Serializer stability
//===----------------------------------------------------------------------===//

/// Compiles the chain spec and returns the serialized netlist bytes.
static bool serializeOnce(driver::Compiler &C, std::string &Out) {
  return netlist::serializeNetlist(*C.getNetlist(), C.getLibraryModules(),
                                   C.getNumUserTypeAnnotations(), {}, Out);
}

/// Parameters of every data kind LSSNL encodes beyond int and bool: a
/// negative zero and a non-integral float, a string with '%', a space and
/// a newline, an empty array, an array of arrays and a struct holding an
/// array.
const char *kParamKindsSpec = R"(
module holder {
  parameter f:float;
  parameter nz:float;
  parameter s:string;
  parameter e:int[0];
  parameter aa:int[3][2];
  parameter st:struct{xs:int[2]; w:float;};
};
var st:struct{xs:int[2]; w:float;};
st.xs = array(2, 7);
st.w = 2.5;
instance h:holder;
h.f = -0.0;
h.nz = 0.1;
h.s = "50% off\nnow";
h.e = array(0, 0);
h.aa = array(2, array(3, 1));
h.st = st;
)";

TEST(Serializer, NetlistReloadReachesFixpoint) {
  for (const char *Spec : {kChainSpec, kParamKindsSpec}) {
    SCOPED_TRACE(Spec == kChainSpec ? "chain" : "parameter kinds");
    driver::CompileService Svc;
    driver::CompileResult R = Svc.compile(chainInvocation(Spec));
    ASSERT_TRUE(R.Success) << R.C->diagnosticsText();
    std::string S1;
    ASSERT_TRUE(serializeOnce(*R.C, S1));

    // One reload may rename type variables (fresh ids); the second must be
    // byte-stable.
    types::TypeContext TC2;
    auto SC2 = netlist::deserializeNetlist(S1, TC2);
    ASSERT_NE(SC2.NL, nullptr);
    std::string S2;
    ASSERT_TRUE(netlist::serializeNetlist(*SC2.NL, SC2.LibraryModules,
                                          SC2.NumUserAnnotations, SC2.Diags,
                                          S2));
    types::TypeContext TC3;
    auto SC3 = netlist::deserializeNetlist(S2, TC3);
    ASSERT_NE(SC3.NL, nullptr);
    std::string S3;
    ASSERT_TRUE(netlist::serializeNetlist(*SC3.NL, SC3.LibraryModules,
                                          SC3.NumUserAnnotations, SC3.Diags,
                                          S3));
    EXPECT_EQ(S2, S3);

    if (Spec != kParamKindsSpec)
      continue;
    // The reloaded values are the elaborated ones, to the float bit.
    const netlist::InstanceNode *Want = R.C->getNetlist()->findByPath("h");
    const netlist::InstanceNode *Got = SC2.NL->findByPath("h");
    ASSERT_NE(Want, nullptr);
    ASSERT_NE(Got, nullptr);
    ASSERT_EQ(Got->Params.size(), 6u);
    for (const auto &[Name, V] : Want->Params) {
      ASSERT_EQ(Got->Params.count(Name), 1u) << Name;
      EXPECT_TRUE(Got->Params.at(Name).equals(V))
          << Name << ": " << Got->Params.at(Name).str() << " vs " << V.str();
    }
    EXPECT_TRUE(std::signbit(Got->Params.at("f").getFloat()));
    EXPECT_EQ(Got->Params.at("nz").getFloat(), 0.1);
    EXPECT_EQ(Got->Params.at("s").getString(), "50% off\nnow");
    EXPECT_TRUE(Got->Params.at("e").getElems().empty());
    ASSERT_EQ(Got->Params.at("aa").getElems().size(), 2u);
    EXPECT_EQ(Got->Params.at("aa").getElems()[1].getElems().size(), 3u);
    EXPECT_EQ(Got->Params.at("st").str(), Want->Params.at("st").str());
  }
}

TEST(Serializer, InstanceIdsAgreeWithSerializationOrder) {
  // The serializer writes parent references as dense InstanceNode::Ids
  // instead of rebuilding a pointer->index map per serialize, which is
  // only sound if Id always equals the instance's position in creation
  // order — on a freshly elaborated netlist and on a reloaded one.
  driver::CompileService Svc;
  driver::CompileResult R = Svc.compile(chainInvocation());
  ASSERT_TRUE(R.Success);
  auto CheckIds = [](const netlist::Netlist &NL) {
    const auto &Instances = NL.getInstances();
    ASSERT_FALSE(Instances.empty());
    EXPECT_EQ(Instances.front()->Id, 0u); // Root.
    for (size_t I = 0; I != Instances.size(); ++I) {
      EXPECT_EQ(Instances[I]->Id, I);
      if (I) {
        EXPECT_LT(Instances[I]->Parent->Id, Instances[I]->Id)
            << "parents must precede children";
      }
    }
  };
  CheckIds(*R.C->getNetlist());

  std::string S1;
  ASSERT_TRUE(serializeOnce(*R.C, S1));
  types::TypeContext TC;
  auto SC = netlist::deserializeNetlist(S1, TC);
  ASSERT_NE(SC.NL, nullptr);
  CheckIds(*SC.NL);
}

TEST(Serializer, EmptyStringTokensRoundTrip) {
  std::string Out;
  ASSERT_TRUE(netlist::artifactUnescape(netlist::artifactEscape(""), Out));
  EXPECT_EQ(Out, "");
  ASSERT_TRUE(netlist::artifactUnescape(netlist::artifactEscape("%_"), Out));
  EXPECT_EQ(Out, "%_");
}

/// Warnings from both phases, located in the core library and in the
/// user source.
const char *kWarningSpec = R"(
instance f:fanout;
instance s:sink;
f.out -> s.in;
instance k:const_source;
instance t:sink;
k.out -> t.in;
k.value = 1;
k.value = 2;
)";

/// The "elab" and "solve" payloads a service compile of \p Spec stores.
static void storedArtifacts(const char *Spec, std::string &Lssnl,
                            std::string &Lsssol) {
  driver::CompileService Svc;
  driver::CompilerInvocation Inv = chainInvocation(Spec);
  ASSERT_TRUE(Svc.compile(Inv).Success);
  ASSERT_TRUE(Svc.getCache().get(
      driver::CompilerInvocation::keyString(Inv.elabKey()), "elab", Lssnl));
  ASSERT_TRUE(Svc.getCache().get(
      driver::CompilerInvocation::keyString(Inv.solveKey()), "solve",
      Lsssol));
}

static void expectSameDiags(const std::vector<Diagnostic> &A,
                            const std::vector<Diagnostic> &B) {
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I != A.size(); ++I) {
    EXPECT_EQ(A[I].Level, B[I].Level);
    EXPECT_TRUE(A[I].Loc == B[I].Loc);
    EXPECT_EQ(A[I].Message, B[I].Message);
  }
}

TEST(Serializer, SummariesMatchTheFullReaders) {
  std::string Lssnl, Lsssol;
  storedArtifacts(kWarningSpec, Lssnl, Lsssol);

  types::TypeContext TC;
  netlist::SerializedCompile SC = netlist::deserializeNetlist(Lssnl, TC);
  ASSERT_NE(SC.NL, nullptr);
  netlist::NetlistSummary NS;
  ASSERT_TRUE(netlist::readNetlistSummary(Lssnl, NS));
  netlist::NetlistCounts Built = netlist::countInstancesAndConnections(*SC.NL);
  EXPECT_EQ(NS.Counts.Instances, Built.Instances);
  EXPECT_EQ(NS.Counts.Connections, Built.Connections);
  EXPECT_EQ(NS.Counts.Instances, 4u);
  EXPECT_EQ(NS.Diags.size(), 1u);
  expectSameDiags(NS.Diags, SC.Diags);

  infer::NetlistInferenceStats Stats;
  std::vector<Diagnostic> Diags;
  ASSERT_TRUE(infer::importSolution(Lsssol, *SC.NL, TC, Stats, Diags));
  infer::SolutionSummary SS;
  ASSERT_TRUE(infer::readSolutionSummary(Lsssol, SS));
  EXPECT_EQ(SS.Solve.Success, Stats.Solve.Success);
  EXPECT_EQ(SS.Solve.NumUnsolved, Stats.Solve.NumUnsolved);
  EXPECT_EQ(SS.Solve.UnifySteps, Stats.Solve.UnifySteps);
  EXPECT_EQ(SS.Diags.size(), 2u);
  expectSameDiags(SS.Diags, Diags);

  // A summary record that disagrees with the netlist is not an artifact.
  std::string Lying = Lssnl;
  size_t At = Lying.find("\nsummary 4 ");
  ASSERT_NE(At, std::string::npos);
  Lying[At + 9] = '5';
  types::TypeContext TC2;
  EXPECT_EQ(netlist::deserializeNetlist(Lying, TC2).NL, nullptr);
}

TEST(Serializer, NetlistArtifactRejectsEveryTruncation) {
  std::string Lssnl, Lsssol;
  storedArtifacts(kWarningSpec, Lssnl, Lsssol);
  netlist::NetlistSummary NS;
  for (size_t N = 0; N != Lssnl.size(); ++N) {
    std::string Cut = Lssnl.substr(0, N);
    types::TypeContext TC;
    EXPECT_EQ(netlist::deserializeNetlist(Cut, TC).NL, nullptr)
        << "accepted the first " << N << " of " << Lssnl.size() << " bytes";
    EXPECT_FALSE(netlist::readNetlistSummary(Cut, NS))
        << "summary accepted the first " << N << " of " << Lssnl.size()
        << " bytes";
  }
}

TEST(Serializer, SolutionArtifactRejectsEveryTruncation) {
  std::string Lssnl, Lsssol;
  storedArtifacts(kWarningSpec, Lssnl, Lsssol);
  types::TypeContext TC;
  netlist::SerializedCompile SC = netlist::deserializeNetlist(Lssnl, TC);
  ASSERT_NE(SC.NL, nullptr);
  infer::NetlistInferenceStats Stats;
  std::vector<Diagnostic> Diags;
  infer::SolutionSummary SS;
  for (size_t N = 0; N != Lsssol.size(); ++N) {
    std::string Cut = Lsssol.substr(0, N);
    EXPECT_FALSE(infer::importSolution(Cut, *SC.NL, TC, Stats, Diags))
        << "accepted the first " << N << " of " << Lsssol.size() << " bytes";
    EXPECT_FALSE(infer::readSolutionSummary(Cut, SS))
        << "summary accepted the first " << N << " of " << Lsssol.size()
        << " bytes";
  }
}

TEST(Serializer, SolutionBytesAreThreadCountInvariant) {
  // The bugfix regression: serial and parallel inference must export the
  // exact same solution artifact, byte for byte.
  auto SolveWith = [&](unsigned Threads, std::string &Bytes) {
    driver::Compiler C;
    driver::CompilerInvocation Inv;
    Inv.addSource("mux.lss", kMuxSpec);
    Inv.Solve.NumThreads = Threads;
    ASSERT_TRUE(C.addSources(Inv));
    ASSERT_TRUE(C.elaborate(Inv));
    ASSERT_TRUE(C.inferTypes(Inv));
    ASSERT_TRUE(
        infer::exportSolution(*C.getNetlist(), C.getInferenceStats(), {},
                              Bytes));
  };
  std::string Serial, Parallel;
  SolveWith(1, Serial);
  SolveWith(4, Parallel);
  EXPECT_FALSE(Serial.empty());
  EXPECT_EQ(Serial, Parallel);
}

} // namespace
