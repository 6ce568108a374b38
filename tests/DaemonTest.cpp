//===- DaemonTest.cpp - lssd protocol, admission, and lifecycle ------------===//
///
/// End-to-end coverage of the compile daemon:
///  - version handshake (hello/hello_ok, version_mismatch closes, other
///    messages before hello are refused), and CompileClient::recompile as
///    a plain `compile`;
///  - compile round trips through CompileClient, with the second compile of
///    the same key served from the daemon's warm cache, and a hot round
///    trip at least 2x faster than a cold compile of a 400-stage chain;
///  - N concurrent clients on the same key: exactly one cold compile, the
///    rest warm (the tentpole property of the shared cache);
///  - admission control: queue_full rejection with retry_after_ms while the
///    single worker is busy, and eventual success on retry;
///  - per-request deadlines returning the structured budget-degradation
///    result (failed_phase=infer, degraded, groups_unsolved);
///  - malformed frames: bad JSON answered without dropping the connection,
///    oversized frames answered and closed, the server stays accepting;
///  - drain-on-shutdown: shutdown_ok, the in-flight compile still answers,
///    post-drain requests refused with shutting_down;
///  - the `lssc --daemon` CLI: remote compile, fallback-with-note when the
///    daemon is unreachable, --no-daemon-fallback, flag incompatibilities,
///    `--batch` reports identical to in-process ones, and the
///    `--stats-json` documents (parsed, and a failed write exits 1).
///
//===----------------------------------------------------------------------===//

#include "driver/CompileClient.h"
#include "driver/DaemonServer.h"
#include "driver/Stats.h"
#include "models/Models.h"
#include "support/FaultInjection.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

using namespace liberty;
using namespace liberty::driver;

namespace {

#ifndef LSSC_PATH
#define LSSC_PATH "./lssc"
#endif
#ifndef LIBERTY_MODELS_DIR
#define LIBERTY_MODELS_DIR "models"
#endif

const char *kSmallSpec = R"(
instance g:counter_source;
instance one:const_source;
one.value = 1;
instance a:adder;
instance s:sink;
g.out -> a.in1;
one.out -> a.in2;
a.out -> s.in;
)";

/// The paper's parametric delay chain: elaboration unrolls n instances, so
/// n tunes how long a cold compile holds a worker (the slow-compile knob
/// for the admission and drain tests).
std::string delayChainSpec(int N) {
  return R"(
module delayn {
  parameter n:int;
  inport in: 'a;
  outport out: 'a;
  var delays:instance ref[];
  delays = new instance[n](delay, "delays");
  in -> delays[0].in;
  var i:int;
  for (i = 1; i < n; i = i + 1) {
    delays[i-1].out -> delays[i].in;
  }
  delays[n-1].out -> out;
};
instance gen:counter_source;
instance hole:sink;
instance chain:delayn;
chain.n = )" + std::to_string(N) + R"(;
gen.out -> chain.in;
chain.out -> hole.in;
)";
}

/// DiagnosticsTest's worst-case inference module: one H3 group with an
/// exponential disjunct search, which the naive solver cannot finish
/// before any realistic deadline.
std::string hardInferSpec(int K) {
  std::string Src = "module hard {\n";
  for (int I = 0; I != K; ++I)
    Src += "  outport p" + std::to_string(I) + ": 'v" + std::to_string(I) +
           ";\n";
  for (int I = 0; I != K; ++I)
    Src += "  constrain 'v" + std::to_string(I) + " : (int | float);\n";
  for (int I = 0; I + 1 != K; ++I) {
    std::string L = "'l" + std::to_string(I);
    Src += "  constrain " + L + " : struct{a:'v" + std::to_string(I) +
           "; b:'v" + std::to_string(I + 1) + ";};\n";
    Src += "  constrain " + L +
           " : (struct{a:int;b:int;} | struct{a:float;b:float;});\n";
  }
  Src += "  constrain 'v" + std::to_string(K - 1) + " : (float | string);\n";
  Src += "};\ninstance h:hard;\n";
  return Src;
}

/// A fresh temp area (socket + cache dir) per fixture instance.
struct TempArea {
  std::string Dir;
  TempArea(const char *Tag) {
    Dir = (std::filesystem::temp_directory_path() /
           (std::string("lss_daemon_test_") + Tag + "_" +
            std::to_string(::getpid())))
              .string();
    std::filesystem::remove_all(Dir);
    std::filesystem::create_directories(Dir);
  }
  ~TempArea() { std::filesystem::remove_all(Dir); }
  std::string sock() const { return Dir + "/d.sock"; }
};

DaemonServer::Options serverOptions(const TempArea &T) {
  DaemonServer::Options O;
  O.Address = T.sock();
  O.Service.Cache.DiskDir = T.Dir + "/cache";
  return O;
}

CompilerInvocation sourceInvocation(const std::string &Name,
                                    const std::string &Text) {
  CompilerInvocation Inv;
  Inv.BuildSim = false;
  Inv.addSource(Name, Text);
  return Inv;
}

/// Length of a delay chain whose cold compile holds a compile slot for
/// about 1.5 s on this build. A fixed length cannot do that: on a 4-vCPU host
/// 2500 stages take 0.2 s in an optimized build and 17 s under
/// ThreadSanitizer, longer than the admission tests' retry budget. Compile time grows with the square of
/// the chain length, so one timed cold compile of a short chain calibrates
/// it.
int slowChainLength() {
  static const int Length = [] {
    constexpr int Probe = 500;
    CompileService::Options SO;
    SO.CacheEnabled = false;
    CompileService Svc(SO);
    auto T0 = std::chrono::steady_clock::now();
    CompileResult R = Svc.compile(
        sourceInvocation("probe.lss", delayChainSpec(Probe)));
    double Ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - T0)
                    .count();
    EXPECT_TRUE(R.Success);
    double Scale = std::sqrt(1500.0 / std::max(Ms, 0.01));
    return std::clamp(int(Probe * Scale), Probe, 20000);
  }();
  return Length;
}

/// Raw-socket handshake for the protocol-level tests (CompileClient would
/// paper over exactly the behaviors under test).
int rawConnect(const std::string &Address) {
  std::string Err;
  int Fd = netConnect(Address, &Err);
  EXPECT_GE(Fd, 0) << Err;
  return Fd;
}

bool rawRoundTrip(int Fd, const Json &Msg, Json &Reply,
                  uint64_t MaxBytes = DaemonDefaultMaxFrameBytes) {
  if (!writeMessage(Fd, Msg))
    return false;
  std::string Payload;
  if (readFrame(Fd, Payload, MaxBytes) != FrameStatus::Ok)
    return false;
  return Json::parse(Payload, Reply, nullptr);
}

Json helloMsg(uint64_t Version = DaemonProtocolVersion) {
  Json H = Json::object();
  H.set("type", "hello").set("version", Version);
  return H;
}

} // namespace

//===--------------------------------------------------------------------===//
// Handshake and version negotiation
//===--------------------------------------------------------------------===//

TEST(Daemon, HandshakeAndVersioning) {
  TempArea T("handshake");
  DaemonServer Server(serverOptions(T));
  std::string Err;
  ASSERT_TRUE(Server.start(&Err)) << Err;

  // A well-formed hello gets hello_ok carrying the server's version.
  {
    int Fd = rawConnect(T.sock());
    Json Reply;
    ASSERT_TRUE(rawRoundTrip(Fd, helloMsg(), Reply));
    EXPECT_EQ(Reply.getString("type"), "hello_ok");
    EXPECT_EQ(Reply.getU64("version"), DaemonProtocolVersion);
    ::close(Fd);
  }

  // A version mismatch is refused loudly and the connection closes, for a
  // version-1 client (from before `recompile`), a version-2 client (which
  // may send `batch`) and a newer one.
  for (uint64_t V : {uint64_t(1), uint64_t(2),
                     uint64_t(DaemonProtocolVersion + 7)}) {
    int Fd = rawConnect(T.sock());
    Json Reply;
    ASSERT_TRUE(rawRoundTrip(Fd, helloMsg(V), Reply));
    EXPECT_EQ(Reply.getString("type"), "error");
    EXPECT_EQ(Reply.getString("code"), "version_mismatch");
    std::string Payload;
    EXPECT_EQ(readFrame(Fd, Payload, DaemonDefaultMaxFrameBytes),
              FrameStatus::Eof);
    ::close(Fd);
  }

  // Anything before hello is refused, but the connection survives and a
  // handshake afterwards still works.
  {
    int Fd = rawConnect(T.sock());
    Json Stats = Json::object();
    Stats.set("type", "stats");
    Json Reply;
    ASSERT_TRUE(rawRoundTrip(Fd, Stats, Reply));
    EXPECT_EQ(Reply.getString("type"), "error");
    EXPECT_EQ(Reply.getString("code"), "bad_message");
    ASSERT_TRUE(rawRoundTrip(Fd, helloMsg(), Reply));
    EXPECT_EQ(Reply.getString("type"), "hello_ok");
    ::close(Fd);
  }
}

//===--------------------------------------------------------------------===//
// Compile round trips and the warm cache
//===--------------------------------------------------------------------===//

TEST(Daemon, CompileRoundTripWarmsCache) {
  TempArea T("roundtrip");
  DaemonServer Server(serverOptions(T));
  std::string Err;
  ASSERT_TRUE(Server.start(&Err)) << Err;

  CompileClient Client(T.sock());
  ASSERT_TRUE(Client.connect(&Err)) << Err;

  CompilerInvocation Inv = sourceInvocation("small.lss", kSmallSpec);
  CompileClient::Result R1 = Client.compile(Inv);
  ASSERT_TRUE(R1.Error.empty()) << R1.Error;
  EXPECT_TRUE(R1.Success) << R1.Diagnostics;
  EXPECT_FALSE(R1.ElabFromCache);
  EXPECT_FALSE(R1.SolutionFromCache);
  EXPECT_GT(R1.Instances, 0u);
  EXPECT_GT(R1.Connections, 0u);

  CompileClient::Result R2 = Client.compile(Inv);
  ASSERT_TRUE(R2.Error.empty()) << R2.Error;
  EXPECT_TRUE(R2.Success);
  EXPECT_TRUE(R2.ElabFromCache);
  EXPECT_TRUE(R2.SolutionFromCache);
  EXPECT_EQ(R2.Instances, R1.Instances);

  // A failing compile reports the phase and the lssc-compatible exit code.
  CompileClient::Result Bad =
      Client.compile(sourceInvocation("bad.lss", "instance %%% nope"));
  ASSERT_TRUE(Bad.Error.empty()) << Bad.Error;
  EXPECT_FALSE(Bad.Success);
  EXPECT_EQ(Bad.FailedPhase, "parse");
  EXPECT_EQ(Bad.ExitCode, 3);
  EXPECT_NE(Bad.Diagnostics.find("error"), std::string::npos);

  // The stats endpoint saw all of it.
  Json S;
  ASSERT_TRUE(Client.stats(S, &Err)) << Err;
  EXPECT_EQ(S.getString("type"), "stats_result");
  EXPECT_EQ(S.getU64("compile_requests"), 3u);
  EXPECT_EQ(S.getU64("elab_cache_hits"), 1u);
  EXPECT_GE(S.getU64("requests_served"), 4u);
  ASSERT_NE(S.get("latency_ms"), nullptr);
  EXPECT_EQ(S.get("latency_ms")->getU64("samples"), 3u);
  EXPECT_GT(S.get("latency_ms")->getNumber("max_ms"), 0.0);

  // The warm-cache gate: on a chain long enough that its cold compile
  // dwarfs a round trip, the fastest of 3 hot round trips (each served
  // from both cache levels) takes at most half the cold one.
  CompilerInvocation Chain =
      sourceInvocation("chain.lss", delayChainSpec(400));
  auto timedCompile = [&](CompileClient::Result &R) {
    auto T0 = std::chrono::steady_clock::now();
    R = Client.compile(Chain);
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - T0)
        .count();
  };
  CompileClient::Result Cold;
  double ColdMs = timedCompile(Cold);
  ASSERT_TRUE(Cold.Error.empty()) << Cold.Error;
  ASSERT_TRUE(Cold.Success) << Cold.Diagnostics;
  EXPECT_FALSE(Cold.ElabFromCache);
  double HotMs = std::numeric_limits<double>::infinity();
  for (int I = 0; I != 3; ++I) {
    CompileClient::Result Hot;
    HotMs = std::min(HotMs, timedCompile(Hot));
    ASSERT_TRUE(Hot.Error.empty()) << Hot.Error;
    EXPECT_TRUE(Hot.Success);
    EXPECT_TRUE(Hot.ElabFromCache);
    EXPECT_TRUE(Hot.SolutionFromCache);
  }
  EXPECT_LE(HotMs, ColdMs / 2) << "hot " << HotMs << " ms, cold " << ColdMs
                               << " ms";
}

TEST(Daemon, RecompileIsACompileAndProtocol3IsRefused) {
  // Protocol 4 has no `recompile` message: CompileClient::recompile sends
  // a plain `compile`, so its reply is the verdict a compile gets in the
  // same cache state, and a protocol-3 client, which may send
  // `recompile`, is refused at the handshake.
  TempArea T("recompile");
  DaemonServer Server(serverOptions(T));
  std::string Err;
  ASSERT_TRUE(Server.start(&Err)) << Err;

  {
    int Fd = rawConnect(T.sock());
    Json Reply;
    ASSERT_TRUE(rawRoundTrip(Fd, helloMsg(3), Reply));
    EXPECT_EQ(Reply.getString("type"), "error");
    EXPECT_EQ(Reply.getString("code"), "version_mismatch");
    ::close(Fd);
  }

  CompileClient Client(T.sock());
  ASSERT_TRUE(Client.connect(&Err)) << Err;
  for (const CompilerInvocation &Inv :
       {sourceInvocation("small.lss", kSmallSpec),
        sourceInvocation("bad.lss", "instance %%% nope")}) {
    SCOPED_TRACE(Inv.Sources.front().Name);
    CompileClient::Result Cold = Client.compile(Inv);
    CompileClient::Result Got = Client.recompile(Inv);
    CompileClient::Result Want = Client.compile(Inv);
    ASSERT_TRUE(Cold.Error.empty() && Got.Error.empty() && Want.Error.empty())
        << Cold.Error << Got.Error << Want.Error;
    EXPECT_EQ(Got.Success, Want.Success);
    EXPECT_EQ(Got.FailedPhase, Want.FailedPhase);
    EXPECT_EQ(Got.ExitCode, Want.ExitCode);
    EXPECT_EQ(Got.ElabFromCache, Want.ElabFromCache);
    EXPECT_EQ(Got.SolutionFromCache, Want.SolutionFromCache);
    EXPECT_EQ(Got.Diagnostics, Want.Diagnostics);
    EXPECT_EQ(Got.Instances, Want.Instances);
    EXPECT_EQ(Got.Connections, Want.Connections);
    EXPECT_FALSE(Got.IncrementalUsed);
    EXPECT_EQ(Got.ModulesReelaborated + Got.GroupsResolved + Got.GroupsSpliced,
              0u);
  }

  Json S;
  ASSERT_TRUE(Client.stats(S, &Err)) << Err;
  EXPECT_EQ(S.getU64("compile_requests"), 6u);
  EXPECT_EQ(S.get("recompile_requests"), nullptr);
  EXPECT_EQ(S.get("incremental"), nullptr);
}

/// A small overload project: adder chains whose (int | float) overloads
/// only connectivity settles, plus a struct disjunct over free variables
/// that the solver must search (the overload-farm benchmark's lane shape).
std::string overloadSpec(unsigned Lanes, unsigned Depth) {
  std::ostringstream OS;
  for (unsigned L = 0; L != Lanes; ++L) {
    OS << "module lane" << L << " {\n"
       << "  instance a0:adder;\n  instance a1:adder;\n  instance k:sink;\n"
       << "  a0.out -> a1.in1;\n  a1.out -> k.in;\n";
    for (unsigned J = 0; J != Depth; ++J)
      OS << "  constrain 'u" << J << " : (float | int);\n";
    OS << "  constrain 'w : struct{";
    for (unsigned J = 0; J != Depth; ++J)
      OS << "f" << J << ":'u" << J << "; ";
    OS << "g:'gv};\n  constrain 'w : (struct{";
    for (unsigned J = 0; J != Depth; ++J)
      OS << "f" << J << ":int; ";
    OS << "g:int} | struct{";
    for (unsigned J = 0; J != Depth; ++J)
      OS << "f" << J << ":int; ";
    OS << "g:float});\n};\ninstance m" << L << ":lane" << L << ";\n";
  }
  return OS.str();
}

/// Warnings from both cached phases, located in the core library and in
/// the user source: a parameter assigned twice (elaboration) and two
/// unconstrained polymorphic ports (inference).
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

/// lssd answers a warm `compile` from the artifacts' summary records; the
/// reply must be exactly what an in-process compile() reports, and the
/// cache must see the same lookups and stores on both paths.
TEST(Daemon, WarmRepliesMatchInProcessVerdicts) {
  std::vector<CompilerInvocation> Invs;
  for (const std::string &Id : models::modelIds()) {
    CompilerInvocation Inv;
    Inv.BuildSim = false;
    ASSERT_TRUE(Inv.addFile(models::uarchLssPath()) &&
                Inv.addFile(models::modelLssPath(Id)));
    Invs.push_back(Inv);
  }
  Invs.push_back(sourceInvocation("chain.lss", delayChainSpec(300)));
  Invs.push_back(sourceInvocation("overload.lss", overloadSpec(3, 4)));
  Invs.push_back(sourceInvocation("warn.lss", kWarningSpec));
  Invs.push_back(sourceInvocation("bad.lss", "instance %%% nope"));
  // Same netlist, other solver heuristics: the "elab" entry hits and the
  // "solve" entry misses.
  CompilerInvocation NoReorder = Invs[2];
  NoReorder.Solve.ReorderSimpleFirst = false;

  auto Expect = [](const CompileVerdict &Want, const CompileVerdict &Got,
                   const std::string &What) {
    SCOPED_TRACE(What);
    EXPECT_EQ(Got.Success, Want.Success);
    EXPECT_EQ(Got.FailedPhase, Want.FailedPhase);
    EXPECT_EQ(Got.ExitCode, Want.ExitCode);
    EXPECT_EQ(Got.ElabFromCache, Want.ElabFromCache);
    EXPECT_EQ(Got.SolutionFromCache, Want.SolutionFromCache);
    EXPECT_EQ(Got.Degraded, Want.Degraded);
    EXPECT_EQ(Got.GroupsUnsolved, Want.GroupsUnsolved);
    EXPECT_EQ(Got.Diagnostics, Want.Diagnostics);
    EXPECT_EQ(Got.Instances, Want.Instances);
    EXPECT_EQ(Got.Connections, Want.Connections);
  };

  for (bool Disk : {false, true}) {
    SCOPED_TRACE(Disk ? "with --cache-dir" : "memory only");
    TempArea T(Disk ? "verdict_disk" : "verdict_mem");
    DaemonServer::Options O = serverOptions(T);
    O.Workers = 1;
    CompileService::Options RefOpts;
    if (Disk)
      RefOpts.Cache.DiskDir = T.Dir + "/ref-cache";
    else
      O.Service.Cache.DiskDir.clear();
    DaemonServer Server(O);
    std::string Err;
    ASSERT_TRUE(Server.start(&Err)) << Err;
    CompileClient Client(T.sock());
    ASSERT_TRUE(Client.connect(&Err)) << Err;
    CompileService Ref(RefOpts);

    // Cold, then two warm repeats of every input.
    for (int Round = 0; Round != 3; ++Round) {
      for (size_t I = 0; I != Invs.size(); ++I) {
        std::string What = "input " + std::to_string(I) + " round " +
                           std::to_string(Round);
        CompileClient::Result Got = Client.compile(Invs[I]);
        ASSERT_TRUE(Got.Error.empty()) << Got.Error;
        Expect(CompileVerdict::of(Ref.compile(Invs[I])), Got, What);
      }
      CompileClient::Result Got = Client.compile(NoReorder);
      ASSERT_TRUE(Got.Error.empty()) << Got.Error;
      Expect(CompileVerdict::of(Ref.compile(NoReorder)), Got, "no-reorder");
    }
    CacheStats A = Server.getStats().Cache, B = Ref.getCache().getStats();
    EXPECT_EQ(A.Hits, B.Hits);
    EXPECT_EQ(A.Misses, B.Misses);
    EXPECT_EQ(A.MemoryHits, B.MemoryHits);
    EXPECT_EQ(A.DiskHits, B.DiskHits);
    EXPECT_EQ(A.Stores, B.Stores);
    EXPECT_EQ(A.Evictions, B.Evictions);
    EXPECT_EQ(A.Corrupt, B.Corrupt);
    EXPECT_EQ(A.BytesInMemory, B.BytesInMemory);
    EXPECT_EQ(A.BytesInProbation, B.BytesInProbation);
    EXPECT_EQ(A.DiskWriteFailures, B.DiskWriteFailures);
    EXPECT_GT(A.Hits, 0u);
  }
}

TEST(Daemon, ConcurrentClientsShareOneColdCompile) {
  TempArea T("concurrent");
  DaemonServer::Options O = serverOptions(T);
  O.Workers = 1; // Serialize compiles: exactly one can be the cold one.
  DaemonServer Server(std::move(O));
  std::string Err;
  ASSERT_TRUE(Server.start(&Err)) << Err;

  constexpr unsigned N = 4;
  std::atomic<unsigned> Ok{0};
  std::atomic<unsigned> Warm{0};
  std::vector<std::thread> Threads;
  for (unsigned I = 0; I != N; ++I)
    Threads.emplace_back([&] {
      CompileClient Client(T.sock());
      std::string CErr;
      if (!Client.connect(&CErr))
        return;
      CompileClient::Result R =
          Client.compile(sourceInvocation("shared.lss", kSmallSpec));
      if (R.Error.empty() && R.Success)
        ++Ok;
      if (R.ElabFromCache && R.SolutionFromCache)
        ++Warm;
    });
  for (std::thread &Th : Threads)
    Th.join();

  EXPECT_EQ(Ok.load(), N);
  // One cold compile total; every other client rode the shared cache.
  EXPECT_EQ(Warm.load(), N - 1);
  DaemonStats DS = Server.getStats();
  EXPECT_EQ(DS.CompileRequests, N);
  EXPECT_EQ(DS.ElabCacheMisses, 1u);
  EXPECT_EQ(DS.ElabCacheHits, N - 1);
  EXPECT_EQ(DS.Cache.Stores, 2u); // One elab + one solution.
}

//===--------------------------------------------------------------------===//
// Admission control
//===--------------------------------------------------------------------===//

TEST(Daemon, QueueFullRejectsWithRetryAfter) {
  TempArea T("queuefull");
  DaemonServer::Options O = serverOptions(T);
  O.Workers = 1;
  O.QueueBound = 0; // No queueing: busy worker = reject immediately.
  O.RetryAfterMs = 25;
  DaemonServer Server(std::move(O));
  std::string Err;
  ASSERT_TRUE(Server.start(&Err)) << Err;

  // Occupy the only worker with a slow elaboration (calibrated before the
  // clock below starts).
  const std::string SlowSpec = delayChainSpec(slowChainLength());
  std::thread Slow([&] {
    CompileClient Client(T.sock());
    std::string CErr;
    ASSERT_TRUE(Client.connect(&CErr)) << CErr;
    CompileClient::Result R =
        Client.compile(sourceInvocation("slow.lss", SlowSpec));
    EXPECT_TRUE(R.Error.empty() && R.Success) << R.Error << R.Diagnostics;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(40));

  CompileClient Client(T.sock());
  ASSERT_TRUE(Client.connect(&Err)) << Err;
  CompilerInvocation Inv = sourceInvocation("mine.lss", kSmallSpec);
  CompileClient::Result R = Client.compile(Inv);
  // The slow compile should still be holding the worker after 40ms; if the
  // machine is so loaded it already finished, the request just succeeds
  // and the rejection assertions below are vacuous but the retry loop
  // contract still holds.
  bool SawReject = false;
  for (int Attempt = 0; Attempt != 400 && !R.Error.empty(); ++Attempt) {
    ASSERT_EQ(R.ErrorCode, "queue_full") << R.Error;
    EXPECT_EQ(R.RetryAfterMs, 25u);
    SawReject = true;
    std::this_thread::sleep_for(std::chrono::milliseconds(R.RetryAfterMs));
    R = Client.compile(Inv);
  }
  EXPECT_TRUE(R.Error.empty() && R.Success) << R.Error;
  Slow.join();
  if (SawReject) {
    EXPECT_GE(Server.getStats().RejectedQueueFull, 1u);
  }
}

//===--------------------------------------------------------------------===//
// Deadlines degrade through the PR 4 machinery
//===--------------------------------------------------------------------===//

TEST(Daemon, DeadlineReturnsDegradedResult) {
  TempArea T("deadline");
  DaemonServer Server(serverOptions(T));
  std::string Err;
  ASSERT_TRUE(Server.start(&Err)) << Err;

  CompileClient Client(T.sock());
  ASSERT_TRUE(Client.connect(&Err)) << Err;

  CompilerInvocation Inv = sourceInvocation("hard.lss", hardInferSpec(24));
  // Keep the search exponential but the partitioner on: the degraded
  // result then reports the unsolved group, like --no-infer-heuristics
  // never could (naive mode has no group accounting to report).
  Inv.Solve.ForcedDisjunctElimination = false;
  Inv.Solve.NumThreads = 1;
  CompileClient::Result R = Client.compile(Inv, /*DeadlineMs=*/25);
  ASSERT_TRUE(R.Error.empty()) << R.Error;
  EXPECT_FALSE(R.Success);
  EXPECT_EQ(R.FailedPhase, "infer");
  EXPECT_EQ(R.ExitCode, 4);
  EXPECT_TRUE(R.Degraded);
  EXPECT_GE(R.GroupsUnsolved, 1u);
  EXPECT_NE(R.Diagnostics.find("deadline"), std::string::npos)
      << R.Diagnostics;

  DaemonStats DS = Server.getStats();
  EXPECT_GE(DS.DeadlineDegraded, 1u);
}

//===--------------------------------------------------------------------===//
// Robustness against malformed input
//===--------------------------------------------------------------------===//

TEST(Daemon, MalformedFramesDoNotKillTheServer) {
  TempArea T("malformed");
  DaemonServer::Options O = serverOptions(T);
  O.MaxFrameBytes = 4096;
  DaemonServer Server(std::move(O));
  std::string Err;
  ASSERT_TRUE(Server.start(&Err)) << Err;

  // Unparseable JSON: answered with bad_message, connection stays usable.
  {
    int Fd = rawConnect(T.sock());
    ASSERT_TRUE(writeFrame(Fd, "this is not json {"));
    std::string Payload;
    ASSERT_EQ(readFrame(Fd, Payload, DaemonDefaultMaxFrameBytes),
              FrameStatus::Ok);
    Json Reply;
    ASSERT_TRUE(Json::parse(Payload, Reply, nullptr));
    EXPECT_EQ(Reply.getString("code"), "bad_message");
    ASSERT_TRUE(rawRoundTrip(Fd, helloMsg(), Reply));
    EXPECT_EQ(Reply.getString("type"), "hello_ok");
    ::close(Fd);
  }

  // A JSON scalar is not a message object.
  {
    int Fd = rawConnect(T.sock());
    ASSERT_TRUE(writeFrame(Fd, "42"));
    std::string Payload;
    ASSERT_EQ(readFrame(Fd, Payload, DaemonDefaultMaxFrameBytes),
              FrameStatus::Ok);
    Json Reply;
    ASSERT_TRUE(Json::parse(Payload, Reply, nullptr));
    EXPECT_EQ(Reply.getString("code"), "bad_message");
    ::close(Fd);
  }

  // An oversized frame header: answered with bad_frame, then closed (the
  // stream is desynced by construction).
  {
    int Fd = rawConnect(T.sock());
    unsigned char Header[4] = {0x7f, 0xff, 0xff, 0xff};
    ASSERT_EQ(::write(Fd, Header, 4), 4);
    std::string Payload;
    ASSERT_EQ(readFrame(Fd, Payload, DaemonDefaultMaxFrameBytes),
              FrameStatus::Ok);
    Json Reply;
    ASSERT_TRUE(Json::parse(Payload, Reply, nullptr));
    EXPECT_EQ(Reply.getString("code"), "bad_frame");
    EXPECT_EQ(readFrame(Fd, Payload, DaemonDefaultMaxFrameBytes),
              FrameStatus::Eof);
    ::close(Fd);
  }

  // After all of that the server still accepts and compiles.
  CompileClient Client(T.sock());
  ASSERT_TRUE(Client.connect(&Err)) << Err;
  CompileClient::Result R =
      Client.compile(sourceInvocation("ok.lss", kSmallSpec));
  EXPECT_TRUE(R.Error.empty() && R.Success) << R.Error;
  EXPECT_GE(Server.getStats().ProtocolErrors, 3u);
}

//===--------------------------------------------------------------------===//
// Client retry / backoff / circuit breaker
//===--------------------------------------------------------------------===//

TEST(Daemon, QueueFullRetryEventuallySucceeds) {
  TempArea T("retryq");
  DaemonServer::Options O = serverOptions(T);
  O.Workers = 1;
  O.QueueBound = 0; // No queueing: busy worker = queue_full immediately.
  O.RetryAfterMs = 25;
  DaemonServer Server(std::move(O));
  std::string Err;
  ASSERT_TRUE(Server.start(&Err)) << Err;

  // Occupy the only worker with a slow elaboration (calibrated before the
  // clock below starts).
  const std::string SlowSpec = delayChainSpec(slowChainLength());
  std::thread Slow([&] {
    CompileClient Client(T.sock());
    std::string CErr;
    ASSERT_TRUE(Client.connect(&CErr)) << CErr;
    CompileClient::Result R =
        Client.compile(sourceInvocation("slow.lss", SlowSpec));
    EXPECT_TRUE(R.Error.empty() && R.Success) << R.Error << R.Diagnostics;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(40));

  // compileWithRetry must honor retry_after_ms and win without any manual
  // retry loop: the whole point of the policy.
  CompileClient Client(T.sock());
  ASSERT_TRUE(Client.connect(&Err)) << Err;
  CompileClient::RetryPolicy P;
  P.MaxAttempts = 400;
  P.BaseBackoffMs = 5;
  P.MaxBackoffMs = 50;
  P.Seed = 42;
  Client.setRetryPolicy(P);
  CompileClient::Result R =
      Client.compileWithRetry(sourceInvocation("mine.lss", kSmallSpec));
  EXPECT_TRUE(R.Error.empty() && R.Success) << R.Error;
  Slow.join();

  // If the worker was actually busy (it should be, 40ms into a slow
  // compile) the client went through at least one queue_full backoff.
  const CompileClient::ClientStats &CS = Client.getClientStats();
  if (Server.getStats().RejectedQueueFull > 0) {
    EXPECT_GE(CS.Retries, 1u);
    EXPECT_GE(CS.QueueFullRetries, 1u);
  }
  // queue_full is a server answer, not a transport failure: the breaker
  // must not have moved.
  EXPECT_EQ(CS.BreakerTrips, 0u);
  EXPECT_FALSE(CS.BreakerOpen);
}

TEST(Daemon, BreakerTripsAfterRepeatedTransportFailures) {
  FaultInjection::reset();
  // Every connect attempt dies at the transport layer.
  ASSERT_TRUE(FaultInjection::configure("client.connect"));

  CompileClient Client("/nonexistent/lss_breaker_test.sock");
  CompileClient::RetryPolicy P;
  P.MaxAttempts = 10;
  P.BaseBackoffMs = 1;
  P.MaxBackoffMs = 2;
  P.BreakerThreshold = 3;
  Client.setRetryPolicy(P);

  CompileClient::Result R =
      Client.compileWithRetry(sourceInvocation("x.lss", kSmallSpec));
  EXPECT_FALSE(R.Error.empty());
  EXPECT_NE(R.Error.find("circuit breaker open"), std::string::npos)
      << R.Error;

  const CompileClient::ClientStats &CS = Client.getClientStats();
  EXPECT_EQ(CS.TransportFailures, 3u); // Stopped at the threshold...
  EXPECT_EQ(CS.BreakerTrips, 1u);
  EXPECT_TRUE(CS.BreakerOpen);
  EXPECT_TRUE(Client.breakerOpen());

  // ...and the open breaker fails the next request instantly, even with
  // the fault gone: the caller is meant to fall back in-process.
  FaultInjection::reset();
  R = Client.compileWithRetry(sourceInvocation("y.lss", kSmallSpec));
  EXPECT_NE(R.Error.find("circuit breaker open"), std::string::npos);
  EXPECT_EQ(Client.getClientStats().TransportFailures, 3u);
}

//===--------------------------------------------------------------------===//
// Slow-loris read deadlines and torn frames
//===--------------------------------------------------------------------===//

TEST(Daemon, SlowLorisConnectionDroppedWithoutWorkerLoss) {
  TempArea T("loris");
  DaemonServer::Options O = serverOptions(T);
  O.ReadDeadlineMs = 100;
  DaemonServer Server(std::move(O));
  std::string Err;
  ASSERT_TRUE(Server.start(&Err)) << Err;

  // Start a frame (one header byte) and stall. The server must cut the
  // connection after ReadDeadlineMs instead of waiting forever.
  int Fd = rawConnect(T.sock());
  unsigned char HalfHeader = 0x00;
  ASSERT_EQ(::write(Fd, &HalfHeader, 1), 1);
  std::string Payload;
  FrameStatus FS = readFrame(Fd, Payload, DaemonDefaultMaxFrameBytes);
  EXPECT_EQ(FS, FrameStatus::Eof); // Dropped, not answered.
  ::close(Fd);

  EXPECT_GE(Server.getStats().ReadTimeouts, 1u);

  // Only that connection thread died; the server still accepts and
  // compiles for well-behaved clients.
  CompileClient Client(T.sock());
  ASSERT_TRUE(Client.connect(&Err)) << Err;
  CompileClient::Result R =
      Client.compile(sourceInvocation("ok.lss", kSmallSpec));
  EXPECT_TRUE(R.Error.empty() && R.Success) << R.Error;
}

TEST(Daemon, TruncatedFramesNeverCostAWorker) {
  TempArea T("torn");
  DaemonServer::Options O = serverOptions(T);
  O.ReadDeadlineMs = 100;
  O.Workers = 1; // One worker: losing it would hang the probe below.
  DaemonServer Server(std::move(O));
  std::string Err;
  ASSERT_TRUE(Server.start(&Err)) << Err;

  // Several clients promise a payload, deliver half of it, and vanish.
  for (int I = 0; I != 3; ++I) {
    int Fd = rawConnect(T.sock());
    unsigned char Header[4] = {0, 0, 0, 64}; // "64 bytes follow."
    ASSERT_EQ(::write(Fd, Header, 4), 4);
    ASSERT_EQ(::write(Fd, "{\"type\":", 8), 8);
    ::close(Fd); // Torn mid-frame.
  }

  // The single worker survived all three teardowns.
  CompileClient Client(T.sock());
  ASSERT_TRUE(Client.connect(&Err)) << Err;
  CompileClient::Result R =
      Client.compile(sourceInvocation("ok.lss", kSmallSpec));
  EXPECT_TRUE(R.Error.empty() && R.Success) << R.Error;
}

//===--------------------------------------------------------------------===//
// Wire-number strictness
//===--------------------------------------------------------------------===//

TEST(DaemonJson, AsU64RejectsNonIntegralAndHugeNumbers) {
  EXPECT_EQ(Json(uint64_t(42)).asU64(7), 42u);
  EXPECT_EQ(Json(0).asU64(7), 0u);
  EXPECT_EQ(Json(2.5).asU64(7), 7u);         // Fractional.
  EXPECT_EQ(Json(-1.0).asU64(7), 7u);        // Negative.
  EXPECT_EQ(Json(-0.5).asU64(7), 7u);        // Negative fractional.
  EXPECT_EQ(Json(1e300).asU64(7), 7u);       // Way past 2^53.
  EXPECT_EQ(Json(9007199254740992.0).asU64(7), 9007199254740992u); // 2^53.
  EXPECT_EQ(Json(9007199254740994.0).asU64(7), 7u); // > 2^53.
  double NaN = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(Json(NaN).asU64(7), 7u);
  double Inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(Json(Inf).asU64(7), 7u);
  EXPECT_EQ(Json("12").asU64(7), 7u); // Strings never coerce.
  EXPECT_EQ(Json().asU64(7), 7u);     // Nor nulls.

  // The same strictness through the wire-parser path a malformed client
  // would actually exercise.
  Json Msg;
  ASSERT_TRUE(Json::parse("{\"retry_after_ms\": 12.75}", Msg, nullptr));
  EXPECT_EQ(Msg.getU64("retry_after_ms", 99), 99u);
  ASSERT_TRUE(Json::parse("{\"len\": 1e300}", Msg, nullptr));
  EXPECT_EQ(Msg.getU64("len", 99), 99u);
  ASSERT_TRUE(Json::parse("{\"len\": 4096}", Msg, nullptr));
  EXPECT_EQ(Msg.getU64("len", 99), 4096u);
}

TEST(DaemonJson, NonFiniteNumbersWriteAsNullAndRoundTrip) {
  // JSON has no spelling for NaN or infinity: the writer emits null, which
  // the parser accepts, instead of text the parser rejects.
  for (double X : {std::numeric_limits<double>::quiet_NaN(),
                   std::numeric_limits<double>::infinity(),
                   -std::numeric_limits<double>::infinity()}) {
    std::string Text = Json::object().set("x", X).dump();
    EXPECT_EQ(Text, "{\"x\":null}");
    Json Back;
    std::string Err;
    ASSERT_TRUE(Json::parse(Text, Back, &Err)) << Err;
    ASSERT_NE(Back.get("x"), nullptr);
    EXPECT_EQ(Back.get("x")->kind(), Json::Kind::Null);
  }
  // Finite numbers round-trip exactly, integers and fractions alike.
  for (double X : {0.0, -3.0, 0.1, 1.25, 1.0 / 3.0, 1e300, 9007199254740993.0}) {
    Json Back;
    ASSERT_TRUE(Json::parse(Json(X).dump(), Back, nullptr)) << X;
    EXPECT_EQ(Back.asNumber(), X);
  }
}

TEST(DaemonJson, IndentedWriterPrintsKeyColonSpaceValue) {
  std::ostringstream OS;
  Json::object()
      .set("b", Json::array().push(true).push(Json::array()))
      .set("a", 0.5)
      .set("c", Json::object())
      .writeIndented(OS);
  EXPECT_EQ(OS.str(), "{\n"
                      "  \"a\": 0.5,\n"
                      "  \"b\": [\n"
                      "    true,\n"
                      "    []\n"
                      "  ],\n"
                      "  \"c\": {}\n"
                      "}\n");
  Json Back;
  EXPECT_TRUE(Json::parse(OS.str(), Back, nullptr));
}

//===--------------------------------------------------------------------===//
// Draining shutdown
//===--------------------------------------------------------------------===//

TEST(Daemon, DrainOnShutdownFinishesInFlightCompiles) {
  TempArea T("drain");
  DaemonServer::Options O = serverOptions(T);
  O.Workers = 1;
  DaemonServer Server(std::move(O));
  std::string Err;
  ASSERT_TRUE(Server.start(&Err)) << Err;

  // A long compile in flight when the shutdown lands (calibrated before
  // the clock below starts).
  const std::string SlowSpec = delayChainSpec(slowChainLength());
  std::atomic<bool> SlowDone{false};
  std::thread Slow([&] {
    CompileClient Client(T.sock());
    std::string CErr;
    ASSERT_TRUE(Client.connect(&CErr)) << CErr;
    CompileClient::Result R =
        Client.compile(sourceInvocation("slow.lss", SlowSpec));
    EXPECT_TRUE(R.Error.empty()) << R.Error;
    EXPECT_TRUE(R.Success) << R.Diagnostics;
    SlowDone = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(40));

  // A second, already-connected client observes the drain refusal.
  CompileClient Bystander(T.sock());
  ASSERT_TRUE(Bystander.connect(&Err)) << Err;

  CompileClient Stopper(T.sock());
  ASSERT_TRUE(Stopper.connect(&Err)) << Err;
  ASSERT_TRUE(Stopper.shutdownServer(&Err)) << Err;
  EXPECT_TRUE(Server.isShuttingDown());

  CompileClient::Result Refused =
      Bystander.compile(sourceInvocation("late.lss", kSmallSpec));
  EXPECT_FALSE(Refused.Error.empty());
  EXPECT_EQ(Refused.ErrorCode, "shutting_down");

  // wait() returns only after the admitted compile answered its client.
  Server.wait();
  EXPECT_TRUE(SlowDone.load());
  Slow.join();

  // The listener is gone: new connections fail.
  std::string ConnErr;
  EXPECT_LT(netConnect(T.sock(), &ConnErr), 0);
}

//===--------------------------------------------------------------------===//
// The lssc --daemon CLI
//===--------------------------------------------------------------------===//

namespace {

struct ToolResult {
  int ExitCode = -1;
  std::string Output;
};

/// Runs lssc; stderr goes to \p Stderr ("&1": mixed into Output).
ToolResult runTool(const std::string &Args, const char *Stderr = "&1") {
  ToolResult R;
  std::string Cmd = std::string(LSSC_PATH) + " " + Args + " 2>" + Stderr;
  FILE *Pipe = popen(Cmd.c_str(), "r");
  if (!Pipe)
    return R;
  std::array<char, 4096> Buf;
  size_t N;
  while ((N = fread(Buf.data(), 1, Buf.size(), Pipe)) > 0)
    R.Output.append(Buf.data(), N);
  int Status = pclose(Pipe);
  R.ExitCode = WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
  return R;
}

std::string modelArgs() {
  return std::string(LIBERTY_MODELS_DIR) + "/uarch.lss " +
         LIBERTY_MODELS_DIR + "/a.lss";
}

void writeText(const std::string &Path, const std::string &Text) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  ASSERT_NE(F, nullptr);
  std::fputs(Text.c_str(), F);
  std::fclose(F);
}

} // namespace

TEST(DaemonCli, CompileThroughDaemon) {
  TempArea T("cli");
  DaemonServer Server(serverOptions(T));
  std::string Err;
  ASSERT_TRUE(Server.start(&Err)) << Err;

  ToolResult R = runTool("--daemon " + T.sock() + " " + modelArgs());
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  // No fallback note: the compile really went through the daemon.
  EXPECT_EQ(R.Output.find("compiling in-process"), std::string::npos)
      << R.Output;
  EXPECT_EQ(Server.getStats().CompileRequests, 1u);

  // A parse error comes back with the documented exit code and the
  // daemon-rendered diagnostics.
  std::string BadPath = T.Dir + "/bad.lss";
  {
    std::FILE *F = std::fopen(BadPath.c_str(), "w");
    std::fputs("instance %%% nope\n", F);
    std::fclose(F);
  }
  R = runTool("--daemon " + T.sock() + " " + BadPath);
  EXPECT_EQ(R.ExitCode, 3) << R.Output;
  EXPECT_NE(R.Output.find("parsing failed"), std::string::npos) << R.Output;
}

TEST(DaemonCli, FallbackAndItsRefusal) {
  TempArea T("clifall");
  std::string Nowhere = T.Dir + "/absent.sock";

  // Unreachable daemon: an explicit note, then a successful in-process
  // compile (never a silent fallback).
  ToolResult R = runTool("--daemon " + Nowhere + " " + modelArgs());
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("note: daemon at"), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("compiling in-process"), std::string::npos)
      << R.Output;

  // --no-daemon-fallback turns that into an operational failure.
  R = runTool("--daemon " + Nowhere + " --no-daemon-fallback " + modelArgs());
  EXPECT_EQ(R.ExitCode, 1) << R.Output;
  EXPECT_NE(R.Output.find("unreachable"), std::string::npos) << R.Output;

  // Flags that need local artifacts are usage errors with --daemon.
  R = runTool("--daemon " + Nowhere + " --print-netlist " + modelArgs());
  EXPECT_EQ(R.ExitCode, 2) << R.Output;
  R = runTool("--daemon " + Nowhere + " --run 10 " + modelArgs());
  EXPECT_EQ(R.ExitCode, 2) << R.Output;
  // And the daemon-only knobs require --daemon.
  R = runTool("--deadline-ms 100 " + modelArgs());
  EXPECT_EQ(R.ExitCode, 2) << R.Output;
  R = runTool("--no-daemon-fallback " + modelArgs());
  EXPECT_EQ(R.ExitCode, 2) << R.Output;
}

TEST(DaemonCli, BatchReportMatchesInProcess) {
  // One good model and one parse error, compiled in-process and through
  // the daemon: the same verdicts give byte-identical reports and the
  // worst model's exit code, also when the daemon's transport fails
  // part-way through the list.
  TempArea T("clibatch");
  DaemonServer Server(serverOptions(T));
  std::string Err;
  ASSERT_TRUE(Server.start(&Err)) << Err;
  writeText(T.Dir + "/good.lss", kSmallSpec);
  writeText(T.Dir + "/bad.lss", "instance %%% nope\n");
  std::string List = T.Dir + "/models.txt";
  writeText(List, T.Dir + "/good.lss\n# a comment\n" + T.Dir + "/bad.lss\n");

  ToolResult Local = runTool("--batch " + List, "/dev/null");
  ToolResult Remote =
      runTool("--daemon " + T.sock() + " --batch " + List, "/dev/null");
  EXPECT_EQ(Local.ExitCode, 3) << Local.Output;
  EXPECT_EQ(Remote.ExitCode, 3) << Remote.Output;
  EXPECT_EQ(Local.Output, Remote.Output);
  EXPECT_NE(Local.Output.find("good.lss: ok ("), std::string::npos)
      << Local.Output;
  EXPECT_NE(Local.Output.find("bad.lss: parsing failed\n"), std::string::npos)
      << Local.Output;
  // One `compile` request per listed model.
  EXPECT_EQ(Server.getStats().CompileRequests, 2u);

  // The first model's request is answered, then every send fails (hello
  // is send 1), so the retries trip the breaker part-way through the
  // list. lssc falls back in-process for the whole list and prints only
  // that report.
  ToolResult Torn = runTool("--daemon " + T.sock() +
                                " --fault-inject 'client.send@3+' --batch " +
                                List,
                            "/dev/null");
  EXPECT_EQ(Torn.ExitCode, 3) << Torn.Output;
  EXPECT_EQ(Local.Output, Torn.Output);
  EXPECT_EQ(Server.getStats().CompileRequests, 3u);
}

TEST(DaemonCli, StatsJsonCarriesTheClientCounters) {
  TempArea T("clistats");
  DaemonServer Server(serverOptions(T));
  std::string Err;
  ASSERT_TRUE(Server.start(&Err)) << Err;

  ToolResult R = runTool("--daemon " + T.sock() + " --stats-json - " +
                             modelArgs(),
                         "/dev/null");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  Json Doc;
  ASSERT_TRUE(Json::parse(R.Output, Doc, &Err)) << Err << "\n" << R.Output;
  const Json *Client = Doc.get("daemon_client");
  ASSERT_NE(Client, nullptr) << R.Output;
  EXPECT_EQ(Client->getString("address"), T.sock());
  for (const char *Key : {"retries", "queue_full_retries",
                          "transport_failures", "breaker_trips"}) {
    ASSERT_NE(Client->get(Key), nullptr) << Key;
    EXPECT_EQ(Client->getU64(Key, 99), 0u) << Key;
  }
  ASSERT_NE(Client->get("breaker_open"), nullptr);
  EXPECT_FALSE(Client->getBool("breaker_open", true));
}

TEST(DaemonCli, UnwritableStatsJsonExitsOperational) {
  // The compile succeeds, but the stats file cannot be written: that is
  // an operational failure, as it is without --daemon.
  TempArea T("clistatsfail");
  DaemonServer Server(serverOptions(T));
  std::string Err;
  ASSERT_TRUE(Server.start(&Err)) << Err;

  ToolResult R = runTool("--daemon " + T.sock() +
                         " --stats-json /no/such/dir/x.json " + modelArgs());
  EXPECT_EQ(R.ExitCode, 1) << R.Output;
  EXPECT_NE(R.Output.find("lssc: cannot write '/no/such/dir/x.json'"),
            std::string::npos)
      << R.Output;
  EXPECT_EQ(Server.getStats().CompileRequests, 1u);
}

TEST(DaemonCli, InProcessStatsJsonParses) {
  ToolResult R = runTool("--stats-json - --run 10 " + modelArgs(), "/dev/null");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  Json Doc;
  std::string Err;
  ASSERT_TRUE(Json::parse(R.Output, Doc, &Err)) << Err << "\n" << R.Output;
  EXPECT_EQ(Doc.getU64("schema_version"), uint64_t(StatsSchemaVersion));
  for (const char *Key : {"phases", "inference", "simulation", "reuse"})
    EXPECT_NE(Doc.get(Key), nullptr) << Key;
  // The run is a phase of its own, and the document says how much of the
  // process's wall time no phase accounts for.
  const Json *Simulate = nullptr;
  for (const Json &P : Doc.get("phases")->items())
    if (P.getString("name") == "simulate")
      Simulate = &P;
  ASSERT_NE(Simulate, nullptr) << R.Output;
  EXPECT_EQ(Simulate->getU64("cycles"), 10u);
  ASSERT_NE(Doc.get("unaccounted_ms"), nullptr);
  EXPECT_GE(Doc.getNumber("unaccounted_ms", -1), 0.0);
  EXPECT_EQ(Doc.get("simulation")->getU64("cycles"), 10u);
}
