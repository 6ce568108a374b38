//===- ChaosTest.cpp - Randomized fault schedules over the compile plane ---===//
///
/// The chaos gate for the self-healing compile-service plane: seeded,
/// replayable fault schedules (support/FaultInjection) are swept over the
/// batch path (CompileService + ArtifactCache + serializers) and the
/// daemon path (DaemonServer + CompileClient with retry/backoff and the
/// circuit breaker), asserting the plane's three invariants:
///
///  1. zero crashes — every injected fault is caught at its I/O edge;
///  2. every request ends in a correct result (batch compiles always
///     succeed: the cache is an accelerator, never a correctness gate) or
///     a cleanly diagnosed error (daemon transport failures surface as a
///     non-empty Result::Error after bounded retries);
///  3. the on-disk cache self-heals — after a run full of torn writes and
///     short reads, a clean recompile republishes artifacts byte-identical
///     to a never-faulted cold compile (cold == warm).
///
/// Every schedule is derived from a fixed seed, so a failure reproduces
/// with the printed spec (also directly via
/// `lssc --fault-inject '<spec>'` / `LSS_FAULT='<spec>'`).
///
/// The FaultReplay suite pins one fixed spec per fault family (disk-full,
/// torn-rename, truncated-frame); each runs as its own ctest entry.
///
//===----------------------------------------------------------------------===//

#include "driver/CompileClient.h"
#include "driver/CompileService.h"
#include "driver/Compiler.h"
#include "driver/DaemonServer.h"
#include "support/FaultInjection.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

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

driver::CompilerInvocation invocationFor(const char *Name, const char *Spec) {
  driver::CompilerInvocation Inv;
  Inv.addSource(Name, Spec);
  Inv.BuildSim = false;
  return Inv;
}

/// A scratch directory removed on destruction.
struct TempDir {
  std::string Path;
  TempDir() {
    char Buf[] = "/tmp/lss_chaos_XXXXXX";
    Path = mkdtemp(Buf);
  }
  ~TempDir() {
    std::error_code EC;
    std::filesystem::remove_all(Path, EC);
  }
  std::string sock() const { return Path + "/d.sock"; }
};

std::string netlistText(driver::Compiler &C) {
  std::ostringstream OS;
  C.getNetlist()->print(OS);
  return OS.str();
}

/// Filename -> bytes for every *published* artifact in \p Dir (temp and
/// quarantined files excluded: they are recovery residue, not results).
std::map<std::string, std::string> artifactBytes(const std::string &Dir) {
  std::map<std::string, std::string> Out;
  for (const auto &E : std::filesystem::directory_iterator(Dir)) {
    std::string Name = E.path().filename().string();
    if (Name.find(".lssart") == std::string::npos ||
        Name.find(".lssart.tmp") != std::string::npos ||
        Name.find(".quarantined") != std::string::npos)
      continue;
    std::ifstream In(E.path(), std::ios::binary);
    std::ostringstream SS;
    SS << In.rdbuf();
    Out[Name] = SS.str();
  }
  return Out;
}

uint64_t splitmix64(uint64_t &State) {
  uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

/// Builds a seeded probability schedule over \p Sites: 1-3 sites, each
/// firing 10-40% of its hits, all streams keyed off \p Seed so the whole
/// run replays bit-identically.
std::string makeSchedule(uint64_t Seed, const std::vector<const char *> &Sites) {
  uint64_t Rng = Seed * 0x9e3779b97f4a7c15ull + 0xdeadbeef;
  unsigned Count = 1 + unsigned(splitmix64(Rng) % 3);
  std::string Spec = "seed=" + std::to_string(Seed);
  for (unsigned I = 0; I != Count; ++I) {
    const char *Site = Sites[splitmix64(Rng) % Sites.size()];
    unsigned Pct = 10 + unsigned(splitmix64(Rng) % 31);
    Spec += std::string(",") + Site + "%" + std::to_string(Pct);
  }
  return Spec;
}

const std::vector<const char *> &batchSites() {
  static const std::vector<const char *> S = {
      "cache.disk.open_read", "cache.disk.read",     "cache.disk.open_write",
      "cache.disk.write",     "cache.disk.rename",   "serialize.netlist",
      "deserialize.netlist",  "serialize.solution",  "deserialize.solution",
  };
  return S;
}

const std::vector<const char *> &daemonSites() {
  static const std::vector<const char *> S = {
      "daemon.accept", "daemon.recv", "daemon.send",
      "client.connect", "client.send", "client.recv",
      // The daemon's cache and serializers sit under the same chaos.
      "cache.disk.write", "cache.disk.rename", "deserialize.netlist",
  };
  return S;
}

/// Per-suite fault hygiene: a leaked schedule would silently poison every
/// later test in the process.
class Chaos : public ::testing::Test {
protected:
  void SetUp() override { FaultInjection::reset(); }
  void TearDown() override { FaultInjection::reset(); }
};
using ChaosBatch = Chaos;
using ChaosDaemon = Chaos;
using ChaosRecovery = Chaos;
using FaultReplay = Chaos;

/// The expected clean netlist prints, compiled once without any faults.
struct CleanPrints {
  std::string Chain, Mux;
  CleanPrints() {
    driver::CompileService Ref;
    Chain = netlistText(*Ref.compile(invocationFor("chain.lss", kChainSpec)).C);
    Mux = netlistText(*Ref.compile(invocationFor("mux.lss", kMuxSpec)).C);
  }
};

const CleanPrints &cleanPrints() {
  static CleanPrints P;
  return P;
}

} // namespace

//===--------------------------------------------------------------------===//
// Batch path: 32 seeded schedules over cache + serializer faults
//===--------------------------------------------------------------------===//

TEST_F(ChaosBatch, SeededFaultSchedulesNeverBreakCompiles) {
  const CleanPrints &Clean = cleanPrints();
  for (uint64_t Seed = 1; Seed <= 32; ++Seed) {
    TempDir Dir;
    std::string Spec = makeSchedule(Seed, batchSites());
    SCOPED_TRACE("seed " + std::to_string(Seed) + " spec '" + Spec + "'");
    ASSERT_TRUE(FaultInjection::configure(Spec));

    // Two rounds over one cache dir: the second round mixes warm hits,
    // short reads of just-written entries, and recompiles of torn ones.
    for (int Round = 0; Round != 2; ++Round) {
      driver::CompileService::Options O;
      O.Cache.DiskDir = Dir.Path;
      O.Cache.TmpSweepAgeSeconds = 0;
      driver::CompileService Svc(O);
      std::vector<driver::CompilerInvocation> Invs;
      for (int I = 0; I != 3; ++I) {
        Invs.push_back(invocationFor("chain.lss", kChainSpec));
        Invs.push_back(invocationFor("mux.lss", kMuxSpec));
      }
      std::vector<driver::CompileResult> Rs = Svc.compileBatch(Invs, 2);
      ASSERT_EQ(Rs.size(), Invs.size());
      for (size_t I = 0; I != Rs.size(); ++I) {
        // Invariant: a cache/serializer fault may cost time (recompile)
        // but never correctness and never the compile itself.
        ASSERT_TRUE(Rs[I].Success) << "round " << Round << " input " << I;
        EXPECT_EQ(netlistText(*Rs[I].C), I % 2 ? Clean.Mux : Clean.Chain)
            << "round " << Round << " input " << I;
      }
    }

    // Self-heal check: with the faults gone, one clean service over the
    // survivor dir recompiles whatever was torn and ends with artifacts
    // byte-identical to a never-faulted cold compile.
    FaultInjection::reset();
    {
      driver::CompileService::Options O;
      O.Cache.DiskDir = Dir.Path;
      O.Cache.TmpSweepAgeSeconds = 0;
      driver::CompileService Svc(O);
      driver::CompileResult RC = Svc.compile(invocationFor("chain.lss", kChainSpec));
      driver::CompileResult RM = Svc.compile(invocationFor("mux.lss", kMuxSpec));
      ASSERT_TRUE(RC.Success && RM.Success);
      EXPECT_EQ(netlistText(*RC.C), Clean.Chain);
      EXPECT_EQ(netlistText(*RM.C), Clean.Mux);
    }
    TempDir Control;
    {
      driver::CompileService::Options O;
      O.Cache.DiskDir = Control.Path;
      driver::CompileService Svc(O);
      ASSERT_TRUE(Svc.compile(invocationFor("chain.lss", kChainSpec)).Success);
      ASSERT_TRUE(Svc.compile(invocationFor("mux.lss", kMuxSpec)).Success);
    }
    std::map<std::string, std::string> Got = artifactBytes(Dir.Path);
    std::map<std::string, std::string> Want = artifactBytes(Control.Path);
    EXPECT_EQ(Got, Want);
  }
}

//===--------------------------------------------------------------------===//
// Daemon path: 24 seeded schedules over socket + cache faults
//===--------------------------------------------------------------------===//

TEST_F(ChaosDaemon, SeededFaultSchedulesEndInResultOrDiagnosedError) {
  const CleanPrints &Clean = cleanPrints();
  (void)Clean;
  for (uint64_t Seed = 101; Seed <= 124; ++Seed) {
    TempDir Dir;
    driver::DaemonServer::Options O;
    O.Address = Dir.sock();
    O.Service.Cache.DiskDir = Dir.Path + "/cache";
    O.Workers = 2;
    O.ReadDeadlineMs = 2000;
    driver::DaemonServer Server(std::move(O));
    std::string Err;
    ASSERT_TRUE(Server.start(&Err)) << Err;

    std::string Spec = makeSchedule(Seed, daemonSites());
    SCOPED_TRACE("seed " + std::to_string(Seed) + " spec '" + Spec + "'");
    ASSERT_TRUE(FaultInjection::configure(Spec));

    driver::CompileClient Client(Dir.sock());
    driver::CompileClient::RetryPolicy P;
    P.MaxAttempts = 6;
    P.BaseBackoffMs = 1;
    P.MaxBackoffMs = 5;
    P.BreakerThreshold = 4;
    P.ReadTimeoutMs = 2000;
    P.Seed = Seed;
    Client.setRetryPolicy(P);

    for (int Req = 0; Req != 3; ++Req) {
      driver::CompileClient::Result R = Client.compileWithRetry(
          invocationFor("chain.lss", kChainSpec));
      if (R.Error.empty()) {
        // Invariant: an answered request is a *correct* answer.
        EXPECT_TRUE(R.Success) << R.Diagnostics;
        EXPECT_GT(R.Instances, 0u);
      } else {
        // Invariant: an unanswered request is a diagnosed transport error
        // (retries exhausted or breaker open), never silence or garbage.
        EXPECT_FALSE(R.Error.empty());
      }
    }

    // The server must have survived whatever the schedule did: with the
    // faults cleared, a fresh client gets a correct compile (no lost
    // workers, live accept loop).
    FaultInjection::reset();
    driver::CompileClient Fresh(Dir.sock());
    ASSERT_TRUE(Fresh.connect(&Err)) << Err;
    driver::CompileClient::Result R =
        Fresh.compile(invocationFor("chain.lss", kChainSpec));
    ASSERT_TRUE(R.Error.empty()) << R.Error;
    EXPECT_TRUE(R.Success) << R.Diagnostics;
  }
}

//===--------------------------------------------------------------------===//
// Torn-write recovery: cold == warm bytes (the acceptance criterion)
//===--------------------------------------------------------------------===//

TEST_F(ChaosRecovery, TornWritesRecoverToColdIdenticalArtifacts) {
  const CleanPrints &Clean = cleanPrints();

  // Control: a never-faulted cold compile's artifact bytes.
  TempDir Control;
  {
    driver::CompileService::Options O;
    O.Cache.DiskDir = Control.Path;
    driver::CompileService Svc(O);
    ASSERT_TRUE(Svc.compile(invocationFor("chain.lss", kChainSpec)).Success);
  }
  std::map<std::string, std::string> Want = artifactBytes(Control.Path);
  ASSERT_EQ(Want.size(), 2u); // One elab + one solve artifact.

  // Chaos: every publish of this first compile is torn at the final name.
  TempDir Dir;
  {
    driver::CompileService::Options O;
    O.Cache.DiskDir = Dir.Path;
    driver::CompileService Svc(O);
    ASSERT_TRUE(FaultInjection::configure("cache.disk.rename@1,"
                                          "cache.disk.rename@2"));
    driver::CompileResult R = Svc.compile(invocationFor("chain.lss", kChainSpec));
    FaultInjection::reset();
    ASSERT_TRUE(R.Success); // The torn publishes cost nothing but time.
    EXPECT_EQ(netlistText(*R.C), Clean.Chain);
  }

  // Recovery: the next service quarantines the torn entries, recompiles,
  // and republishes. Bytes must now equal the control's cold compile.
  {
    driver::CompileService::Options O;
    O.Cache.DiskDir = Dir.Path;
    driver::CompileService Svc(O);
    driver::CompileResult R = Svc.compile(invocationFor("chain.lss", kChainSpec));
    ASSERT_TRUE(R.Success);
    EXPECT_EQ(netlistText(*R.C), Clean.Chain);
    EXPECT_GE(Svc.getCache().getStats().Corrupt, 1u);
  }
  EXPECT_EQ(artifactBytes(Dir.Path), Want);

  // And the healed cache really serves warm now, identically.
  driver::CompileService::Options O;
  O.Cache.DiskDir = Dir.Path;
  driver::CompileService Svc(O);
  driver::CompileResult R = Svc.compile(invocationFor("chain.lss", kChainSpec));
  ASSERT_TRUE(R.Success);
  EXPECT_TRUE(R.ElabFromCache);
  EXPECT_TRUE(R.SolutionFromCache);
  EXPECT_EQ(netlistText(*R.C), Clean.Chain);
}

//===--------------------------------------------------------------------===//
// FaultReplay: one fixed spec per fault family, each its own ctest entry
//===--------------------------------------------------------------------===//

/// Disk-full family: every disk write fails (ENOSPC behaves like an
/// open/write failure). The service must keep compiling correctly and
/// degrade to memory-only instead of hammering a full disk.
TEST_F(FaultReplay, DiskFull) {
  const CleanPrints &Clean = cleanPrints();
  TempDir Dir;
  driver::CompileService::Options O;
  O.Cache.DiskDir = Dir.Path;
  O.Cache.DegradeAfterFailures = 2;
  driver::CompileService Svc(O);

  ASSERT_TRUE(FaultInjection::configure("cache.disk.open_write"));
  driver::CompileResult R1 = Svc.compile(invocationFor("chain.lss", kChainSpec));
  driver::CompileResult R2 = Svc.compile(invocationFor("mux.lss", kMuxSpec));
  FaultInjection::reset();

  ASSERT_TRUE(R1.Success && R2.Success);
  EXPECT_EQ(netlistText(*R1.C), Clean.Chain);
  EXPECT_EQ(netlistText(*R2.C), Clean.Mux);
  EXPECT_TRUE(Svc.getCache().isDegraded());
  EXPECT_GE(Svc.getCache().getStats().DiskWriteFailures, 2u);

  // Memory-only mode still serves warm compiles.
  driver::CompileResult R3 = Svc.compile(invocationFor("chain.lss", kChainSpec));
  ASSERT_TRUE(R3.Success);
  EXPECT_TRUE(R3.ElabFromCache && R3.SolutionFromCache);
}

/// Torn-rename family: a crash between temp write and publish leaves
/// truncated bytes at the final name. Detection is the envelope checksum;
/// recovery is quarantine + recompile (see ChaosRecovery for the full
/// byte-identity gate).
TEST_F(FaultReplay, TornRename) {
  TempDir Dir;
  {
    driver::CompileService::Options O;
    O.Cache.DiskDir = Dir.Path;
    driver::CompileService Svc(O);
    ASSERT_TRUE(FaultInjection::configure("cache.disk.rename@1"));
    ASSERT_TRUE(Svc.compile(invocationFor("chain.lss", kChainSpec)).Success);
    FaultInjection::reset();
  }
  driver::CompileService::Options O;
  O.Cache.DiskDir = Dir.Path;
  driver::CompileService Svc(O);
  driver::CompileResult R = Svc.compile(invocationFor("chain.lss", kChainSpec));
  ASSERT_TRUE(R.Success);
  EXPECT_EQ(Svc.getCache().getStats().Corrupt, 1u);
  EXPECT_EQ(Svc.getCache().getStats().Quarantined, 1u);
  EXPECT_NE(R.C->diagnosticsText().find("ignoring corrupted cache entry"),
            std::string::npos);
}

/// Truncated-frame family: the daemon's reply never arrives (the frame
/// dies mid-send). The client's retry loop reconnects and the request
/// still succeeds; the worker pool loses nothing.
TEST_F(FaultReplay, TruncatedFrame) {
  TempDir Dir;
  driver::DaemonServer::Options O;
  O.Address = Dir.sock();
  O.Service.Cache.DiskDir = Dir.Path + "/cache";
  O.Workers = 1;
  O.ReadDeadlineMs = 2000;
  driver::DaemonServer Server(std::move(O));
  std::string Err;
  ASSERT_TRUE(Server.start(&Err)) << Err;

  driver::CompileClient Client(Dir.sock());
  driver::CompileClient::RetryPolicy P;
  P.MaxAttempts = 5;
  P.BaseBackoffMs = 1;
  P.MaxBackoffMs = 5;
  Client.setRetryPolicy(P);
  ASSERT_TRUE(Client.connect(&Err)) << Err;

  // The first compile reply is dropped on the floor mid-frame (the next
  // daemon.send hits — the retry's handshake and compile replies — pass).
  ASSERT_TRUE(FaultInjection::configure("daemon.send@1"));
  driver::CompileClient::Result R =
      Client.compileWithRetry(invocationFor("chain.lss", kChainSpec));
  FaultInjection::reset();
  ASSERT_TRUE(R.Error.empty()) << R.Error;
  EXPECT_TRUE(R.Success) << R.Diagnostics;
  EXPECT_GE(Client.getClientStats().Retries, 1u);
  EXPECT_GE(Client.getClientStats().TransportFailures, 1u);

  // The single worker survived the teardown: a second request on a fresh
  // connection compiles (warm, even).
  driver::CompileClient Fresh(Dir.sock());
  ASSERT_TRUE(Fresh.connect(&Err)) << Err;
  driver::CompileClient::Result R2 =
      Fresh.compile(invocationFor("chain.lss", kChainSpec));
  ASSERT_TRUE(R2.Error.empty()) << R2.Error;
  EXPECT_TRUE(R2.Success);
}
