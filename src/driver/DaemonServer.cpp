//===- DaemonServer.cpp - The lssd compile daemon -----------------------------===//

#include "driver/DaemonServer.h"

#include "driver/CompileVerdict.h"
#include "driver/Stats.h"
#include "support/FaultInjection.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <future>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace liberty;
using namespace liberty::driver;

namespace {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
}

} // namespace

DaemonServer::DaemonServer(Options O) : Opts(std::move(O)), Service(Opts.Service) {}

DaemonServer::~DaemonServer() {
  requestShutdown();
  wait();
}

bool DaemonServer::start(std::string *Err) {
  ListenFd = netListen(Opts.Address, Err);
  if (ListenFd < 0)
    return false;
  Pool = std::make_unique<ThreadPool>(Opts.Workers);
  if (Opts.Verbose)
    std::fprintf(stderr,
                 "lssd: listening on %s (%u workers, queue bound %u)\n",
                 Opts.Address.c_str(), Pool->getThreadCount(),
                 Opts.QueueBound);
  AcceptThread = std::jthread([this] { acceptLoop(); });
  return true;
}

void DaemonServer::requestShutdown() { Draining.store(true); }

void DaemonServer::wait() {
  if (AcceptThread.joinable())
    AcceptThread.join();
  // The accept loop has exited, so ConnThreads can no longer grow.
  std::vector<std::jthread> Conns;
  {
    std::lock_guard<std::mutex> Lock(ConnMutex);
    Conns.swap(ConnThreads);
  }
  for (std::jthread &T : Conns)
    if (T.joinable())
      T.join();
  // Every admitted compile was awaited by some connection thread, so the
  // pool is quiescent; drop it so wait() leaves no worker threads behind.
  Pool.reset();
}

void DaemonServer::acceptLoop() {
  while (!Draining.load()) {
    pollfd P{ListenFd, POLLIN, 0};
    int N = ::poll(&P, 1, 200);
    if (N < 0 && errno != EINTR)
      break;
    if (N <= 0 || !(P.revents & POLLIN)) {
      // Reap finished connection threads so a long-lived daemon does not
      // accumulate one dead jthread per past client.
      std::lock_guard<std::mutex> Lock(ConnMutex);
      std::erase_if(ConnThreads,
                    [](std::jthread &T) { return !T.joinable(); });
      continue;
    }
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0)
      continue;
    if (faultShouldFail("daemon.accept")) {
      // Injected accept failure: the client sees a closed connection and
      // retries; the accept loop itself must keep serving.
      ::close(Fd);
      continue;
    }
    std::lock_guard<std::mutex> Lock(ConnMutex);
    if (Draining.load()) {
      ::close(Fd);
      break;
    }
    ConnThreads.emplace_back([this, Fd] {
      handleConnection(Fd);
      ::close(Fd);
    });
  }
  ::close(ListenFd);
  ListenFd = -1;
}

Json DaemonServer::makeError(const char *Code, std::string Message) {
  Json E = Json::object();
  E.set("type", msg::Error).set("code", Code).set("message", std::move(Message));
  return E;
}

void DaemonServer::handleConnection(int Fd) {
  bool HandshakeDone = false;
  std::string Payload;
  for (;;) {
    // Poll so draining shutdown can close idle connections: a connection
    // never has an unanswered request outstanding at this point (dispatch
    // below is synchronous), so breaking here abandons nothing.
    pollfd P{Fd, POLLIN, 0};
    int N = ::poll(&P, 1, 200);
    if (N < 0 && errno != EINTR)
      return;
    if (N <= 0) {
      if (Draining.load())
        return;
      continue;
    }

    FrameStatus FS =
        faultShouldFail("daemon.recv")
            ? FrameStatus::Error
            : readFrameDeadline(Fd, Payload, Opts.MaxFrameBytes,
                                Opts.ReadDeadlineMs);
    if (FS == FrameStatus::Timeout) {
      // Slow loris: a frame started but stalled. Drop only this
      // connection thread — workers and other connections are untouched.
      std::lock_guard<std::mutex> Lock(StatsMutex);
      ++Stats.ReadTimeouts;
      return;
    }
    if (FS == FrameStatus::Eof || FS == FrameStatus::Error)
      return;
    if (FS == FrameStatus::TooLarge) {
      // The oversized payload was never read, so the stream is desynced:
      // answer and close.
      {
        std::lock_guard<std::mutex> Lock(StatsMutex);
        ++Stats.ProtocolErrors;
        ++Stats.RequestsServed;
      }
      writeMessage(Fd, makeError(errc::BadFrame,
                                 "frame exceeds the server's frame cap"));
      return;
    }

    Json Msg, Reply;
    std::string ParseErr;
    bool KeepOpen = true;
    if (!Json::parse(Payload, Msg, &ParseErr)) {
      std::lock_guard<std::mutex> Lock(StatsMutex);
      ++Stats.ProtocolErrors;
      Reply = makeError(errc::BadMessage, "invalid JSON: " + ParseErr);
    } else {
      KeepOpen = handleMessage(Msg, HandshakeDone, Reply);
    }
    {
      std::lock_guard<std::mutex> Lock(StatsMutex);
      ++Stats.RequestsServed;
    }
    if (faultShouldFail("daemon.send") || !writeMessage(Fd, Reply))
      return;
    if (!KeepOpen)
      return;
  }
}

bool DaemonServer::handleMessage(const Json &Msg, bool &HandshakeDone,
                                 Json &Reply) {
  auto protocolError = [&](const char *Code, std::string Why) {
    std::lock_guard<std::mutex> Lock(StatsMutex);
    ++Stats.ProtocolErrors;
    Reply = makeError(Code, std::move(Why));
  };

  if (!Msg.isObject() || !Msg.get("type")) {
    protocolError(errc::BadMessage, "message is not an object with a 'type'");
    return true;
  }
  const std::string Type = Msg.getString("type");

  if (Type == msg::Hello) {
    uint64_t V = Msg.getU64("version");
    if (V != DaemonProtocolVersion) {
      protocolError(errc::VersionMismatch,
                    "client speaks protocol version " + std::to_string(V) +
                        ", server speaks " +
                        std::to_string(DaemonProtocolVersion));
      return false; // Incompatible peer: close after the reply.
    }
    HandshakeDone = true;
    Reply = Json::object();
    Reply.set("type", msg::HelloOk)
        .set("version", uint64_t(DaemonProtocolVersion))
        .set("server", "lssd")
        .set("pid", uint64_t(::getpid()));
    return true;
  }

  if (!HandshakeDone) {
    protocolError(errc::BadMessage,
                  "handshake required: send 'hello' before '" + Type + "'");
    return true;
  }

  if (Type == msg::Compile || Type == msg::Recompile) {
    if (Draining.load()) {
      Reply = makeError(errc::ShuttingDown, "server is draining");
      return true;
    }
    Reply = runCompile(Msg, /*Incremental=*/Type == msg::Recompile);
    return true;
  }
  if (Type == msg::Batch) {
    if (Draining.load()) {
      Reply = makeError(errc::ShuttingDown, "server is draining");
      return true;
    }
    Reply = runBatch(Msg);
    return true;
  }
  if (Type == msg::Stats) {
    Reply = buildStats();
    return true;
  }
  if (Type == msg::Shutdown) {
    if (Opts.Verbose)
      std::fprintf(stderr, "lssd: shutdown requested; draining\n");
    requestShutdown();
    Reply = Json::object();
    Reply.set("type", msg::ShutdownOk);
    return false;
  }

  protocolError(errc::BadMessage, "unknown message type '" + Type + "'");
  return true;
}

namespace {

/// One admitted compile: everything a pool worker needs, plus the promise
/// the connection thread blocks on.
struct PendingCompile {
  CompilerInvocation Inv;
  uint64_t DeadlineMs = 0; ///< Service budget; 0 = none.
  bool Incremental = false; ///< `recompile`: route via compileIncremental.
  Clock::time_point AdmitTime;
  std::promise<Json> Done;
};

/// Builds a CompilerInvocation from a compile-request body. Returns false
/// (with \p Why) on a malformed request.
bool invocationFromRequest(const Json &Req, CompilerInvocation &Inv,
                           uint64_t &DeadlineMs, std::string &Why) {
  const Json *Sources = Req.get("sources");
  if (!Sources || !Sources->isArray() || Sources->items().empty()) {
    Why = "compile request needs a non-empty 'sources' array";
    return false;
  }
  for (const Json &S : Sources->items()) {
    const Json *Text = S.get("text");
    if (!Text || !Text->isString()) {
      Why = "every source needs a string 'text'";
      return false;
    }
    std::string Name = S.getString("name", "<daemon>");
    Inv.addSource(std::move(Name), Text->asString());
  }
  const Json *O = Req.get("options");
  Json None = Json::object();
  if (!O)
    O = &None;
  Inv.UseCoreLibrary = O->getBool("use_corelib", true);
  Inv.MaxErrors = unsigned(O->getU64("max_errors", 50));
  Inv.Solve = infer::SolveOptions();
  Inv.Solve.ReorderSimpleFirst = O->getBool("reorder", true);
  Inv.Solve.ForcedDisjunctElimination = O->getBool("forced_elimination", true);
  Inv.Solve.Partition = O->getBool("partition", true);
  // Compile concurrency comes from the daemon's worker pool; each solve
  // defaults to one thread so N clients cannot oversubscribe NxM threads.
  Inv.Solve.NumThreads = unsigned(O->getU64("jobs", 1));
  Inv.Solve.DeadlineMs = O->getU64("infer_deadline_ms", 0);
  Inv.BuildSim = false; // A simulator cannot cross the socket.
  DeadlineMs = O->getU64("deadline_ms", 0);
  return true;
}

} // namespace

bool DaemonServer::submitCompile(const Json &Req, std::future<Json> &Fut,
                                 Json &Immediate, bool Incremental) {
  auto P = std::make_shared<PendingCompile>();
  P->Incremental = Incremental;
  std::string Why;
  if (!invocationFromRequest(Req, P->Inv, P->DeadlineMs, Why)) {
    std::lock_guard<std::mutex> Lock(StatsMutex);
    ++Stats.ProtocolErrors;
    Immediate = makeError(errc::BadMessage, Why);
    return false;
  }

  // --- Admission control. ------------------------------------------------
  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    bool Full = Opts.QueueBound == 0
                    ? (QueueDepth != 0 ||
                       ActiveCompiles >= Pool->getThreadCount())
                    : QueueDepth >= Opts.QueueBound;
    if (Full) {
      std::lock_guard<std::mutex> SLock(StatsMutex);
      ++Stats.RejectedQueueFull;
      Immediate = makeError(errc::QueueFull,
                            "admission queue is full; retry after backoff");
      Immediate.set("retry_after_ms", Opts.RetryAfterMs);
      Immediate.set("id", Req.getNumber("id"));
      return false;
    }
    ++QueueDepth;
  }
  P->AdmitTime = Clock::now();

  Fut = P->Done.get_future();
  Pool->async([this, P] {
    double QueueMs = msSince(P->AdmitTime);
    {
      std::lock_guard<std::mutex> Lock(QueueMutex);
      --QueueDepth;
      ++ActiveCompiles;
    }

    // Wire the remaining service budget into the PR 4 deadline machinery:
    // an already-expired deadline becomes a 1ms inference deadline, so the
    // solver degrades structurally (unsolved groups reported) instead of
    // this layer inventing its own timeout result.
    CompilerInvocation Inv = P->Inv; // Worker-local: deadline is mutated.
    if (P->DeadlineMs != 0) {
      uint64_t Remaining = P->DeadlineMs > uint64_t(QueueMs)
                               ? P->DeadlineMs - uint64_t(QueueMs)
                               : 1;
      if (Inv.Solve.DeadlineMs == 0 || Remaining < Inv.Solve.DeadlineMs)
        Inv.Solve.DeadlineMs = Remaining;
    }

    // A `compile` needs only the verdict, which a warm cache answers from
    // the artifacts' summaries; a `recompile` runs the incremental path.
    // R holds a full compile until the reply is sent, so the client does
    // not wait for its netlist to be freed.
    CompileResult R;
    CompileVerdict V;
    if (P->Incremental) {
      R = Service.compileIncremental(Inv);
      V = CompileVerdict::of(R);
    } else {
      V = Service.compileVerdict(Inv, &R);
    }
    double ServiceMs = msSince(P->AdmitTime);

    V.QueueMs = QueueMs;
    V.ServiceMs = ServiceMs;
    Json Res = verdictToWire(V);

    {
      std::lock_guard<std::mutex> Lock(QueueMutex);
      --ActiveCompiles;
    }
    {
      std::lock_guard<std::mutex> Lock(StatsMutex);
      (P->Incremental ? Stats.RecompileRequests : Stats.CompileRequests) += 1;
      // Only a full compile degrades, so R holds it.
      if (V.Degraded && R.C->getInferenceStats().Solve.HitDeadline)
        ++Stats.DeadlineDegraded;
      (V.ElabFromCache ? Stats.ElabCacheHits : Stats.ElabCacheMisses) += 1;
      (V.SolutionFromCache ? Stats.SolveCacheHits : Stats.SolveCacheMisses) +=
          1;
    }
    recordLatency(ServiceMs);
    if (Opts.Verbose)
      std::fprintf(stderr, "lssd: compile %s in %.2fms (queue %.2fms)%s\n",
                   V.Success ? "ok" : "failed", ServiceMs, QueueMs,
                   V.ElabFromCache && V.SolutionFromCache ? " [cached]" : "");
    P->Done.set_value(std::move(Res));
  });
  return true;
}

Json DaemonServer::runCompile(const Json &Req, bool Incremental) {
  std::future<Json> Fut;
  Json Immediate;
  if (!submitCompile(Req, Fut, Immediate, Incremental))
    return Immediate;
  Json Res = Fut.get();
  Res.set("id", Req.getNumber("id"));
  return Res;
}

Json DaemonServer::runBatch(const Json &Req) {
  const Json *Requests = Req.get("requests");
  if (!Requests || !Requests->isArray()) {
    std::lock_guard<std::mutex> Lock(StatsMutex);
    ++Stats.ProtocolErrors;
    return makeError(errc::BadMessage,
                     "batch request needs a 'requests' array");
  }
  {
    std::lock_guard<std::mutex> Lock(StatsMutex);
    ++Stats.BatchRequests;
  }

  // Each element goes through the same admission gate as a standalone
  // compile — a batch cannot smuggle unbounded work past the queue bound.
  // Results land in request order; rejected elements carry the same
  // queue_full shape a standalone rejection would.
  const std::vector<Json> &Elements = Requests->items();
  std::vector<Json> Slots(Elements.size());
  std::vector<std::pair<size_t, std::future<Json>>> Futures;
  for (size_t I = 0; I != Elements.size(); ++I) {
    std::future<Json> Fut;
    if (submitCompile(Elements[I], Fut, Slots[I]))
      Futures.emplace_back(I, std::move(Fut));
  }
  for (auto &[Slot, Fut] : Futures)
    Slots[Slot] = Fut.get();

  Json Results = Json::array();
  for (Json &S : Slots)
    Results.push(std::move(S));
  Json Reply = Json::object();
  Reply.set("type", msg::BatchResult)
      .set("id", Req.getNumber("id"))
      .set("results", std::move(Results));
  return Reply;
}

DaemonStats DaemonServer::getStats() const {
  DaemonStats S;
  {
    std::lock_guard<std::mutex> Lock(StatsMutex);
    S = Stats;
    std::vector<double> L = Latencies;
    S.LatencySamples = L.size();
    if (!L.empty()) {
      auto Nth = [&L](double Q) {
        size_t I = std::min(L.size() - 1, size_t(Q * double(L.size())));
        std::nth_element(L.begin(), L.begin() + I, L.end());
        return L[I];
      };
      S.P50Ms = Nth(0.50);
      S.P95Ms = Nth(0.95);
      S.MaxMs = *std::max_element(L.begin(), L.end());
    }
  }
  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    S.QueueDepth = QueueDepth;
    S.ActiveCompiles = ActiveCompiles;
  }
  S.Cache = const_cast<DaemonServer *>(this)->Service.getCache().getStats();
  S.Incremental = Service.getIncrementalCounters();
  return S;
}

Json DaemonServer::buildStats() const {
  DaemonStats S = getStats();
  Json Latency = Json::object();
  Latency.set("samples", S.LatencySamples)
      .set("p50_ms", S.P50Ms)
      .set("p95_ms", S.P95Ms)
      .set("max_ms", S.MaxMs);
  Json Incremental = Json::object();
  Incremental.set("requests", S.Incremental.Requests)
      .set("used", S.Incremental.Used)
      .set("fallbacks", S.Incremental.Fallbacks)
      .set("dep_cache_hits", S.Incremental.DepCacheHits)
      .set("modules_reelaborated", S.Incremental.ModulesReelaborated)
      .set("groups_resolved", S.Incremental.GroupsResolved)
      .set("groups_spliced", S.Incremental.GroupsSpliced);
  Json Reply = Json::object();
  Reply.set("type", msg::StatsResult)
      .set("version", uint64_t(DaemonProtocolVersion))
      .set("schema_version", uint64_t(StatsSchemaVersion))
      .set("requests_served", S.RequestsServed)
      .set("compile_requests", S.CompileRequests)
      .set("recompile_requests", S.RecompileRequests)
      .set("batch_requests", S.BatchRequests)
      .set("rejected_queue_full", S.RejectedQueueFull)
      .set("deadline_degraded", S.DeadlineDegraded)
      .set("protocol_errors", S.ProtocolErrors)
      .set("read_timeouts", S.ReadTimeouts)
      .set("queue_depth", S.QueueDepth)
      .set("queue_bound", uint64_t(Opts.QueueBound))
      .set("active_compiles", S.ActiveCompiles)
      .set("workers", uint64_t(Pool ? Pool->getThreadCount() : 0))
      .set("draining", Draining.load())
      .set("elab_cache_hits", S.ElabCacheHits)
      .set("elab_cache_misses", S.ElabCacheMisses)
      .set("solve_cache_hits", S.SolveCacheHits)
      .set("solve_cache_misses", S.SolveCacheMisses)
      .set("cache", cacheCountersJson(S.Cache))
      .set("incremental", std::move(Incremental))
      .set("latency_ms", std::move(Latency));
  return Reply;
}

void DaemonServer::recordLatency(double Ms) {
  std::lock_guard<std::mutex> Lock(StatsMutex);
  if (Latencies.size() < LatencyCap) {
    Latencies.push_back(Ms);
  } else {
    Latencies[LatencyNext] = Ms;
    LatencyNext = (LatencyNext + 1) % LatencyCap;
  }
}
