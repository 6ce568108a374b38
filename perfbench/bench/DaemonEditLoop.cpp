//===- DaemonEditLoop.cpp - Workload daemon_edit_loop ---------------------===//
///
/// A separate `lssd` process (2 compile workers, a warm in-memory cache)
/// under 2 closed-loop client connections from this process. Each client
/// repeats a seeded pass of 20 requests:
///   - 14 hot repeats of a seeded delay chain (n in 600..1600) or one of
///     models A-F, served from the warm cache;
///   - 4 edits: one of those sources with a fresh comment, a cold key that
///     forces a full compile plus cache writes;
///   - 2 incremental `recompile`s of the client's own ~1k-instance
///     overload project after a single-lane edit.
/// Each request carries 1 solver thread, so workers x solver threads stays
/// at 2 and the clients have the host's other cores.
///
/// Oracles (after the timed window): every reply's success, instance
/// count, connection count and diagnostics must equal an in-process cold
/// compile of the base source; for the first edit of each source the
/// exact edited text is compiled cold too. Each client's first and last
/// recompiles are replayed on a verification lssd with an on-disk cache,
/// whose stored netlist and solution artifacts must be byte-identical to a
/// cold in-process compile of the same project state.
///
//===----------------------------------------------------------------------===//

#include "Inputs.h"
#include "Workloads.h"

#include "driver/ArtifactCache.h"
#include "driver/CompileClient.h"
#include "driver/CompileService.h"
#include "driver/Stats.h"

#include <algorithm>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <memory>
#include <spawn.h>
#include <thread>

#include <poll.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;

using namespace liberty;

namespace perfbench {

namespace {

constexpr unsigned NumClients = 2;
constexpr unsigned NumWorkers = 2;
constexpr unsigned SolverThreads = 1;
constexpr unsigned PassLen = 20, HotPerPass = 14, EditsPerPass = 4;
/// Recompiles per client, at each end of the run, whose artifacts the
/// oracle compares byte for byte.
constexpr unsigned FullRecompileChecks = 8;
/// Throughput is measured over windows of 3 passes: each holds exactly one
/// round of every source's edit, so every window asks for the same work.
constexpr size_t WindowRequests = 3 * PassLen;

/// A child lssd process; the destructor stops it and reaps it.
class LssdProcess {
public:
  LssdProcess() = default;
  ~LssdProcess() { stop(); }
  LssdProcess(const LssdProcess &) = delete;
  LssdProcess &operator=(const LssdProcess &) = delete;

  /// Spawns \p Exe with \p Args and waits for its readiness line.
  bool start(const std::string &Exe, const std::vector<std::string> &Args,
             std::string &Err) {
    int Pipe[2];
    if (::pipe(Pipe) != 0) {
      Err = "pipe failed";
      return false;
    }
    posix_spawn_file_actions_t FA;
    posix_spawn_file_actions_init(&FA);
    posix_spawn_file_actions_adddup2(&FA, Pipe[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&FA, Pipe[0]);
    std::vector<char *> Argv;
    Argv.push_back(const_cast<char *>(Exe.c_str()));
    for (const std::string &A : Args)
      Argv.push_back(const_cast<char *>(A.c_str()));
    Argv.push_back(nullptr);
    int Rc =
        posix_spawn(&Pid, Exe.c_str(), &FA, nullptr, Argv.data(), environ);
    posix_spawn_file_actions_destroy(&FA);
    ::close(Pipe[1]);
    if (Rc != 0) {
      ::close(Pipe[0]);
      Pid = -1;
      Err = "cannot start " + Exe + ": " + std::strerror(Rc);
      return false;
    }
    // Wait (at most 30 s) for "lssd: ready on ...".
    std::string Out;
    auto Until = Clock::now() + std::chrono::seconds(30);
    while (Out.find('\n') == std::string::npos && Clock::now() < Until) {
      struct pollfd P = {Pipe[0], POLLIN, 0};
      if (::poll(&P, 1, 100) <= 0)
        continue;
      char Buf[256];
      ssize_t N = ::read(Pipe[0], Buf, sizeof(Buf));
      if (N <= 0)
        break;
      Out.append(Buf, size_t(N));
    }
    ::close(Pipe[0]);
    if (Out.rfind("lssd: ready", 0) != 0) {
      Err = "lssd did not become ready: " + Out;
      stop();
      return false;
    }
    return true;
  }

  /// Waits up to \p Seconds for the process to exit; true once reaped.
  bool waitExit(double Seconds) {
    auto Until = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(Seconds));
    while (Pid > 0) {
      int Status = 0;
      struct rusage RU = {};
      pid_t R = ::wait4(Pid, &Status, WNOHANG, &RU);
      if (R == Pid) {
        PeakRssMb = double(RU.ru_maxrss) / 1024.0; // KiB on Linux.
        Pid = -1;
        break;
      }
      if (R < 0 && errno != EINTR) {
        Pid = -1;
        break;
      }
      if (Clock::now() >= Until)
        return false;
      ::usleep(10 * 1000);
    }
    return true;
  }

  void stop() {
    if (Pid <= 0)
      return;
    ::kill(Pid, SIGTERM);
    if (!waitExit(10)) {
      ::kill(Pid, SIGKILL);
      waitExit(10);
    }
  }

  /// The reaped process's peak resident set size, in MiB.
  double peakRssMb() const { return PeakRssMb; }

private:
  pid_t Pid = -1;
  double PeakRssMb = 0;
};

/// What an in-process cold compile says a reply must contain.
struct Expected {
  bool Success = false;
  uint64_t Instances = 0, Connections = 0;
  uint64_t DiagHash = 0;
  std::string Elab, Solve; ///< Artifacts (recompile checks only).
};

Expected coldCompile(const driver::CompilerInvocation &Inv, bool Artifacts) {
  driver::CompileService::Options SO;
  SO.CacheEnabled = Artifacts; // Memory-only: the artifacts are read back.
  driver::CompileService Svc(SO);
  driver::CompileResult CR = Svc.compile(Inv);
  Expected E;
  E.Success = CR.Success;
  E.DiagHash = fnv1a(CR.C->diagnosticsText());
  if (CR.Success && CR.C->getNetlist()) {
    driver::ModelStats MS = driver::computeModelStats(
        *CR.C->getNetlist(), CR.C->getLibraryModules(),
        CR.C->getNumUserTypeAnnotations());
    E.Instances = MS.TotalInstances;
    E.Connections = MS.Connections;
  }
  if (Artifacts) {
    Svc.getCache().get(driver::CompilerInvocation::keyString(Inv.elabKey()),
                       "elab", E.Elab);
    Svc.getCache().get(driver::CompilerInvocation::keyString(Inv.solveKey()),
                       "solve", E.Solve);
  }
  return E;
}

enum class Kind : char { Hot = 'h', Edit = 'e', Recompile = 'r' };

struct Request {
  Kind K = Kind::Hot;
  unsigned Source = 0;   ///< Hot source index (hot and edit).
  unsigned Recompile = 0; ///< Index into the client's project states.
  bool FirstPass = false;
  bool Traced = false;
  bool TransportOk = false;
  std::string Error;
  double RttMs = 0, QueueMs = 0, ServiceMs = 0;
  /// Send and completion times, seconds into the timed window.
  double StartS = 0, DoneS = 0;
  bool Success = false;
  uint64_t Instances = 0, Connections = 0, DiagHash = 0;
  bool IncUsed = false;
  uint64_t ModulesReelaborated = 0, GroupsResolved = 0, GroupsSpliced = 0;
};

struct ClientLog {
  std::vector<Request> Requests;
  std::vector<driver::CompilerInvocation> States; ///< Per recompile.
  std::vector<std::string> EditSample; ///< First edited text per source.
  uint64_t Retries = 0;
  std::string ConnectError;
};

double statNumber(const driver::Json &J, const char *Section, const char *Key) {
  const driver::Json *S = Section ? J.get(Section) : &J;
  return S ? S->getNumber(Key) : 0;
}

} // namespace

RunResult runDaemonEditLoop(const Settings &S) {
  RunResult Res;
  Rng R(S.Seed, /*Salt=*/3);

  // --- Inputs. ----------------------------------------------------------
  std::vector<std::string> SourceNames;
  std::vector<driver::CompilerInvocation> Hot;
  driver::Json Chains = driver::Json::array();
  for (unsigned I = 0; I != 6; ++I) {
    const int64_t Jitter = int64_t(R.range(0, 40)) - 20;
    const unsigned N = unsigned(
        std::clamp<int64_t>(600 + 200 * int64_t(I) + Jitter, 600, 1600));
    driver::CompilerInvocation Inv;
    Inv.addSource("chain" + std::to_string(I) + ".lss", delayChainSpec(N));
    Hot.push_back(std::move(Inv));
    SourceNames.push_back("chain" + std::to_string(N));
    Chains.push(uint64_t(N));
  }
  Res.Params.set("chain_sizes", std::move(Chains));
  {
    std::vector<PaperModel> Models;
    std::string Err;
    if (!paperModels(S.ModelsDir, R, Models, Err)) {
      Res.Attempted = 1;
      Res.fail(Err);
      return Res;
    }
    for (PaperModel &M : Models) {
      Hot.push_back(std::move(M.Inv));
      SourceNames.push_back("model" + M.Id);
      Res.Params.set("model_" + M.Id, coreSeedsJson(M));
    }
  }
  for (driver::CompilerInvocation &Inv : Hot) {
    Inv.BuildSim = false;
    Inv.Solve.NumThreads = SolverThreads;
  }
  std::vector<OverloadShape> Projects;
  std::vector<Rng> ClientRng;
  for (unsigned C = 0; C != NumClients; ++C) {
    Projects.push_back(drawOverloadShape(R, "c" + std::to_string(C) + "_",
                                         1000, 18, 22, 8, 10,
                                         /*LanesPerDepth=*/4));
    ClientRng.emplace_back(S.Seed, 100 + C);
    Res.Params.set("project_client" + std::to_string(C),
                   driver::Json::object()
                       .set("lanes", uint64_t(Projects.back().lanes()))
                       .set("stages", uint64_t(Projects.back().Stages)));
  }
  Res.Params.set("clients", uint64_t(NumClients))
      .set("workers", uint64_t(NumWorkers))
      .set("solver_threads", uint64_t(SolverThreads))
      .set("pass", "14 hot, 4 edit, 2 recompile of 20");

  auto projectInv = [&](unsigned C, const std::vector<unsigned> &Revs) {
    driver::CompilerInvocation Inv = overloadProject(Projects[C], Revs);
    Inv.Solve.NumThreads = SolverThreads;
    return Inv;
  };

  // --- Setup: start lssd and warm its cache. ----------------------------
  const std::string CacheDir = S.RunDir + "/cache";
  const std::string Sock = S.RunDir + "/lssd.sock";
  const std::string VerifySock = S.RunDir + "/verify.sock";
  std::filesystem::remove_all(S.RunDir);
  std::filesystem::create_directories(S.RunDir);
  struct DirCleanup {
    std::string Dir;
    ~DirCleanup() {
      std::error_code EC;
      std::filesystem::remove_all(Dir, EC);
    }
  } Cleanup{S.RunDir};

  LssdProcess Lssd;
  std::string Err;
  // The timed daemon keeps its cache in memory: on a shared virtual
  // host, disk writes would dominate (and destabilize) the edit latency.
  if (!Lssd.start(S.LssdPath,
                  {"--listen", Sock, "--workers", std::to_string(NumWorkers)},
                  Err)) {
    Res.Attempted = 1;
    Res.fail(Err);
    return Res;
  }
  driver::Json StatsBefore;
  {
    driver::CompileClient Warm(Sock);
    if (!Warm.connect(&Err)) {
      Res.Attempted = 1;
      Res.fail("warm-up connect failed: " + Err);
      return Res;
    }
    std::vector<driver::CompilerInvocation> WarmSet = Hot;
    for (unsigned C = 0; C != NumClients; ++C)
      WarmSet.push_back(projectInv(C, {}));
    for (const driver::CompilerInvocation &Inv : WarmSet) {
      driver::CompileClient::Result WR = Warm.compile(Inv);
      if (!WR.Error.empty() || !WR.Success) {
        Res.Attempted = 1;
        Res.fail("warm-up compile failed: " + WR.Error + WR.Diagnostics);
        return Res;
      }
    }
    if (!Warm.stats(StatsBefore, &Err)) {
      Res.Attempted = 1;
      Res.fail("stats request failed: " + Err);
      return Res;
    }
  }
  markSetupDone();
  if (S.SetupOnly) {
    driver::CompileClient Bye(Sock);
    if (Bye.connect(&Err))
      Bye.shutdownServer(&Err);
    Lssd.waitExit(10);
    return Res;
  }

  // --- Closed loop. -----------------------------------------------------
  Tracer T(S.Trace, Clock::now());
  std::vector<ClientLog> Logs(NumClients);
  const auto LoadStart = Clock::now();
  const auto Deadline =
      LoadStart + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(S.Seconds));
  auto Client = [&](unsigned C) {
    ClientLog &Log = Logs[C];
    Log.EditSample.resize(Hot.size());
    Rng &CR = ClientRng[C];
    driver::CompileClient Cl(Sock);
    std::string CErr;
    if (!Cl.connect(&CErr)) {
      Log.ConnectError = CErr;
      return;
    }
    std::vector<unsigned> HotOrder(Hot.size()), EditOrder(Hot.size());
    for (unsigned I = 0; I != Hot.size(); ++I)
      HotOrder[I] = EditOrder[I] = I;
    CR.shuffle(HotOrder);
    CR.shuffle(EditOrder);
    std::vector<unsigned> Revs(Projects[C].lanes(), 0);
    unsigned NextHot = 0, NextEdit = 0, Edits = 0;
    std::vector<Kind> Pass;
    for (uint64_t I = 0; I == 0 || Clock::now() < Deadline; ++I) {
      if (I % PassLen == 0) {
        Pass.assign(HotPerPass, Kind::Hot);
        Pass.insert(Pass.end(), EditsPerPass, Kind::Edit);
        Pass.insert(Pass.end(), PassLen - HotPerPass - EditsPerPass,
                    Kind::Recompile);
        CR.shuffle(Pass);
      }
      Request Q;
      Q.K = Pass[I % PassLen];
      Q.FirstPass = I < PassLen;
      Q.Traced = S.Trace && I % 2 == 1;
      driver::CompilerInvocation Inv;
      if (Q.K == Kind::Hot) {
        Q.Source = HotOrder[NextHot++ % Hot.size()];
        Inv = Hot[Q.Source];
      } else if (Q.K == Kind::Edit) {
        Q.Source = EditOrder[NextEdit++ % Hot.size()];
        Inv = Hot[Q.Source];
        Inv.Sources.back().Text += "\n// edit c" + std::to_string(C) + " #" +
                                   std::to_string(++Edits) + "\n";
        if (Log.EditSample[Q.Source].empty())
          Log.EditSample[Q.Source] = Inv.Sources.back().Text;
      } else {
        unsigned Lane = unsigned(CR.range(0, Revs.size() - 1));
        ++Revs[Lane];
        Inv = projectInv(C, Revs);
        Q.Recompile = unsigned(Log.States.size());
        Log.States.push_back(Inv);
      }
      Tracer Off(false, LoadStart);
      Tracer &Use = Q.Traced ? T : Off;
      const uint64_t Op = uint64_t(C) * 1000000 + I;
      const int Tid = int(C) + 1;
      const char *RootName = Q.K == Kind::Hot    ? "request hot"
                             : Q.K == Kind::Edit ? "request edit"
                                                 : "request recompile";
      Span Root(Use, RootName, "bench", Op, Tid);
      Q.StartS = msBetween(LoadStart, Root.start()) / 1000.0;
      Span Call(Use,
                Q.K == Kind::Recompile ? "CompileClient::recompile"
                                       : "CompileClient::compile",
                "driver", Op, Tid, Root.id());
      driver::CompileClient::Result CRs = Q.K == Kind::Recompile
                                              ? Cl.recompileWithRetry(Inv)
                                              : Cl.compileWithRetry(Inv);
      Q.RttMs = Call.close();
      Root.close();
      Q.DoneS = msSince(LoadStart) / 1000.0;
      Q.TransportOk = CRs.Error.empty();
      Q.Error = CRs.Error;
      Q.QueueMs = CRs.QueueMs;
      Q.ServiceMs = CRs.ServiceMs;
      Q.Success = CRs.Success;
      Q.Instances = CRs.Instances;
      Q.Connections = CRs.Connections;
      Q.DiagHash = fnv1a(CRs.Diagnostics);
      Q.IncUsed = CRs.IncrementalUsed;
      Q.ModulesReelaborated = CRs.ModulesReelaborated;
      Q.GroupsResolved = CRs.GroupsResolved;
      Q.GroupsSpliced = CRs.GroupsSpliced;
      if (Q.Traced && Q.TransportOk) {
        // The server reports queue wait and total service time (admission
        // to reply, queue included); place them inside the round trip,
        // with the transport share split evenly before and after.
        const double Transport = std::max(0.0, Q.RttMs - Q.ServiceMs);
        const double At = msBetween(LoadStart, Call.start()) + Transport / 2;
        T.add("lssd queue", "driver", Op, Tid, Call.id(), At, Q.QueueMs);
        T.add("lssd compile", "driver", Op, Tid, Call.id(), At + Q.QueueMs,
              std::max(0.0, Q.ServiceMs - Q.QueueMs));
      }
      Log.Requests.push_back(std::move(Q));
    }
    Log.Retries = Cl.getClientStats().Retries;
  };
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C != NumClients; ++C)
    Threads.emplace_back(Client, C);
  for (std::thread &Th : Threads)
    Th.join();
  const double LoadSeconds = msSince(LoadStart) / 1000.0;

  // --- Server counters, peak memory, shutdown. --------------------------
  driver::Json StatsAfter;
  double PeakRss = selfPeakRssMb();
  {
    driver::CompileClient Admin(Sock);
    if (!Admin.connect(&Err) || !Admin.stats(StatsAfter, &Err))
      Res.fail("stats request failed: " + Err);
    if (!Admin.shutdownServer(&Err))
      Res.fail("shutdown request failed: " + Err);
  }
  if (!Lssd.waitExit(30))
    Res.fail("lssd did not exit after shutdown");
  PeakRss += Lssd.peakRssMb();

  // --- Oracles (untimed). -----------------------------------------------
  std::vector<Expected> Want;
  for (const driver::CompilerInvocation &Inv : Hot)
    Want.push_back(coldCompile(Inv, false));
  auto sameReply = [](const Request &Q, const Expected &E) {
    return Q.Success == E.Success && Q.Instances == E.Instances &&
           Q.Connections == E.Connections && Q.DiagHash == E.DiagHash;
  };
  for (unsigned I = 0; I != Hot.size(); ++I)
    if (!Want[I].Success)
      Res.fail("oracle compile of " + SourceNames[I] + " failed");
  std::vector<Expected> BaseProject;
  for (unsigned C = 0; C != NumClients; ++C)
    BaseProject.push_back(coldCompile(projectInv(C, {}), false));
  // Sampled recompiles are replayed on a verification lssd with an on-disk
  // cache (previous project state, then the recompile), so the artifacts it
  // stores can be read back and compared with a cold compile's.
  LssdProcess Verify;
  std::unique_ptr<driver::CompileClient> VClient;
  if (!Verify.start(S.LssdPath,
                    {"--listen", VerifySock, "--cache-dir", CacheDir,
                     "--workers", "1"},
                    Err)) {
    Res.fail("verification " + Err);
  } else {
    VClient = std::make_unique<driver::CompileClient>(VerifySock);
    if (!VClient->connect(&Err)) {
      Res.fail("verification connect failed: " + Err);
      VClient.reset();
    }
  }
  driver::ArtifactCache::Options DO;
  DO.DiskDir = CacheDir;
  driver::ArtifactCache VerifyCache(DO);
  for (unsigned C = 0; C != NumClients; ++C) {
    ClientLog &Log = Logs[C];
    if (!Log.ConnectError.empty()) {
      ++Res.Attempted;
      Res.fail("client connect failed: " + Log.ConnectError);
      continue;
    }
    for (unsigned I = 0; I != Log.EditSample.size(); ++I) {
      if (Log.EditSample[I].empty())
        continue;
      driver::CompilerInvocation Inv = Hot[I];
      Inv.Sources.back().Text = Log.EditSample[I];
      Expected E = coldCompile(Inv, false);
      if (E.Success != Want[I].Success || E.Instances != Want[I].Instances ||
          E.Connections != Want[I].Connections ||
          E.DiagHash != Want[I].DiagHash)
        Res.fail("an edit comment changed the cold compile of " +
                 SourceNames[I]);
    }
    for (const Request &Q : Log.Requests) {
      ++Res.Attempted;
      if (!Q.TransportOk) {
        Res.fail("transport failure: " + Q.Error);
        continue;
      }
      if (Q.K != Kind::Recompile) {
        if (!sameReply(Q, Want[Q.Source]))
          Res.fail(std::string(Q.K == Kind::Hot ? "hot" : "edit") +
                   " reply for " + SourceNames[Q.Source] +
                   " differs from a cold compile");
        continue;
      }
      // The first and last recompiles of each client are checked in full:
      // against a cold compile of the exact project state, and by replay
      // for their artifacts. The others are checked against the unedited
      // project (revision comments change nothing, which the full checks
      // confirm).
      const bool Full = Q.Recompile < FullRecompileChecks ||
                        Q.Recompile + FullRecompileChecks >= Log.States.size();
      if (!Full) {
        if (!sameReply(Q, BaseProject[C]))
          Res.fail("recompile reply differs from a cold compile");
        continue;
      }
      const driver::CompilerInvocation &Inv = Log.States[Q.Recompile];
      Expected E = coldCompile(Inv, true);
      if (!sameReply(Q, E) || !sameReply(Q, BaseProject[C])) {
        Res.fail("recompile reply differs from a cold compile");
        continue;
      }
      if (!VClient)
        continue; // Already counted as a failure.
      const driver::CompilerInvocation Prev =
          Q.Recompile ? Log.States[Q.Recompile - 1] : projectInv(C, {});
      driver::CompileClient::Result P = VClient->compile(Prev);
      driver::CompileClient::Result V = VClient->recompile(Inv);
      std::string Elab, Solve;
      VerifyCache.get(driver::CompilerInvocation::keyString(Inv.elabKey()),
                      "elab", Elab);
      VerifyCache.get(driver::CompilerInvocation::keyString(Inv.solveKey()),
                      "solve", Solve);
      if (!P.Error.empty() || !V.Error.empty() || !V.Success)
        Res.fail("verification replay failed: " + P.Error + V.Error);
      else if (Elab.empty() || Elab != E.Elab || Solve.empty() ||
               Solve != E.Solve)
        Res.fail("recompile artifacts differ from a cold compile");
    }
  }
  if (VClient && !VClient->shutdownServer(&Err))
    Res.fail("verification shutdown failed: " + Err);
  if (!Verify.waitExit(30))
    Res.fail("verification lssd did not exit after shutdown");

  // --- Metrics. ---------------------------------------------------------
  std::vector<std::vector<double>> HotMs(Hot.size()), TracedHot(Hot.size()),
      EditMs(Hot.size());
  std::vector<double> RecompileMs;
  double Rtt = 0, Queue = 0, Service = 0, Transport = 0;
  uint64_t Completed = 0, Traced = 0, IncReelab = 0, IncResolved = 0,
           IncSpliced = 0, IncFallbacks = 0, Retries = 0;
  for (const ClientLog &Log : Logs) {
    Retries += Log.Retries;
    for (const Request &Q : Log.Requests) {
      if (!Q.TransportOk)
        continue;
      ++Completed;
      if (Q.Traced) {
        ++Traced;
        Rtt += Q.RttMs;
        Queue += Q.QueueMs;
        Service += Q.ServiceMs - Q.QueueMs;
        Transport += std::max(0.0, Q.RttMs - Q.ServiceMs);
        if (Q.K == Kind::Hot)
          TracedHot[Q.Source].push_back(Q.RttMs);
      } else if (Q.K == Kind::Hot) {
        HotMs[Q.Source].push_back(Q.RttMs);
      } else if (Q.K == Kind::Edit) {
        EditMs[Q.Source].push_back(Q.RttMs);
      } else {
        RecompileMs.push_back(Q.RttMs);
      }
      if (Q.K == Kind::Recompile && Q.FirstPass) {
        IncReelab += Q.ModulesReelaborated;
        IncResolved += Q.GroupsResolved;
        IncSpliced += Q.GroupsSpliced;
        IncFallbacks += Q.IncUsed ? 0 : 1;
      }
    }
  }
  const double RequestsPerS = LoadSeconds > 0 ? Completed / LoadSeconds : 0;
  // Each client's request rate per window; the closed loop's throughput is
  // the sum over clients of each one's median window rate. Upper quantiles
  // need a whole quiet window and follow the host's drift; the median
  // spreads least over runs.
  double WindowThroughput = 0;
  for (const ClientLog &Log : Logs) {
    const std::vector<Request> &Qs = Log.Requests;
    std::vector<double> Rates;
    for (size_t I = 0; I + WindowRequests <= Qs.size(); I += WindowRequests)
      Rates.push_back(WindowRequests /
                      (Qs[I + WindowRequests - 1].DoneS - Qs[I].StartS));
    WindowThroughput += median(Rates);
  }
  uint64_t HotCount = 0;
  for (const std::vector<double> &Ms : HotMs)
    HotCount += Ms.size();
  Res.EndToEnd["compile_ms_min"] = geomeanOfQuantiles(EditMs, 0.0);
  Res.EndToEnd["latency_ms_min"] = geomeanOfQuantiles(HotMs, 0.0);
  Res.EndToEnd["throughput_per_s"] = WindowThroughput;
  Res.EndToEnd["peak_rss_mb"] = PeakRss;
  Res.Report["edit_ms_p50"] = geomeanOfQuantiles(EditMs, 0.5);
  Res.Report["hot_ms_p50"] = geomeanOfQuantiles(HotMs, 0.5);
  Res.Report["hot_ms_p90"] = geomeanOfQuantiles(HotMs, 0.9);
  Res.Report["recompile_ms_p50"] = median(RecompileMs);
  Res.Report["requests_per_s"] = RequestsPerS;
  Res.Report["requests_per_s_window_p50"] = WindowThroughput;
  Res.Report["hot_requests"] = double(HotCount);
  Res.Report["recompile_requests"] = double(RecompileMs.size());

  auto Delta = [&](const char *Section, const char *Key) {
    return statNumber(StatsAfter, Section, Key) -
           statNumber(StatsBefore, Section, Key);
  };
  auto Ratio = [](double Hits, double Misses) {
    return Hits + Misses > 0 ? Hits / (Hits + Misses) : 0;
  };
  auto &L = Res.Layers;
  const double PerOp = Traced ? 1.0 / double(Traced) : 0.0;
  L["driver.rtt_ms"] = Rtt * PerOp;
  L["driver.queue_ms"] = Queue * PerOp;
  L["driver.service_ms"] = Service * PerOp;
  L["driver.transport_ms"] = Transport * PerOp;
  L["driver.recompile_ms_p50"] = median(RecompileMs);
  L["driver.elab_hit_ratio"] = Ratio(Delta(nullptr, "elab_cache_hits"),
                                     Delta(nullptr, "elab_cache_misses"));
  L["driver.solve_hit_ratio"] = Ratio(Delta(nullptr, "solve_cache_hits"),
                                      Delta(nullptr, "solve_cache_misses"));
  L["driver.cache_bytes_in_memory"] =
      statNumber(StatsAfter, "cache", "bytes_in_memory");
  L["driver.evictions"] = Delta("cache", "evictions");
  L["driver.queue_full"] = Delta(nullptr, "rejected_queue_full");
  L["driver.client_retries"] = double(Retries);
  L["driver.incr_modules_reelaborated"] = double(IncReelab);
  L["driver.incr_groups_resolved"] = double(IncResolved);
  L["driver.incr_groups_spliced"] = double(IncSpliced);
  L["driver.incr_fallbacks"] = double(IncFallbacks);
  finishTrace(S, T, Traced, geomeanOfQuantiles(TracedHot, 0.5),
              geomeanOfQuantiles(HotMs, 0.5), Res);
  return Res;
}

} // namespace perfbench
