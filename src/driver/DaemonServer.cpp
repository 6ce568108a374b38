//===- DaemonServer.cpp - The lssd compile daemon -----------------------------===//

#include "driver/DaemonServer.h"

#include "driver/CompileVerdict.h"
#include "driver/Stats.h"
#include "support/FaultInjection.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>

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

DaemonServer::DaemonServer(Options O)
    : Opts(std::move(O)), Service(Opts.Service),
      Workers(Opts.Workers ? Opts.Workers
                           : std::max(1u, std::thread::hardware_concurrency())) {}

DaemonServer::~DaemonServer() {
  requestShutdown();
  wait();
}

bool DaemonServer::start(std::string *Err) {
  ListenFd = netListen(Opts.Address, Err);
  if (ListenFd < 0)
    return false;
  if (Opts.Verbose)
    std::fprintf(stderr,
                 "lssd: listening on %s (%u workers, queue bound %u)\n",
                 Opts.Address.c_str(), Workers, Opts.QueueBound);
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
  // Each admitted compile runs on its connection's thread, so joining them
  // drains every compile.
  for (std::jthread &T : Conns)
    if (T.joinable())
      T.join();
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
      // connection; compile slots and other connections are untouched.
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

    // Held outlives the reply's write: the client does not wait for a full
    // compile's netlist to be freed.
    CompileResult Held;
    Json Msg, Reply;
    std::string ParseErr;
    bool KeepOpen = true;
    if (!Json::parse(Payload, Msg, &ParseErr)) {
      std::lock_guard<std::mutex> Lock(StatsMutex);
      ++Stats.ProtocolErrors;
      Reply = makeError(errc::BadMessage, "invalid JSON: " + ParseErr);
    } else {
      KeepOpen = handleMessage(Msg, HandshakeDone, Reply, Held);
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
                                 Json &Reply, CompileResult &Held) {
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

  if (Type == msg::Compile) {
    if (Draining.load()) {
      Reply = makeError(errc::ShuttingDown, "server is draining");
      return true;
    }
    Reply = runCompile(Msg, Held);
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
  // Compile concurrency comes from the daemon's compile slots; each solve
  // defaults to one thread so N clients cannot oversubscribe NxM threads.
  Inv.Solve.NumThreads = unsigned(O->getU64("jobs", 1));
  Inv.Solve.DeadlineMs = O->getU64("infer_deadline_ms", 0);
  Inv.BuildSim = false; // A simulator cannot cross the socket.
  DeadlineMs = O->getU64("deadline_ms", 0);
  return true;
}

} // namespace

Json DaemonServer::runCompile(const Json &Req, CompileResult &Held) {
  CompilerInvocation Inv;
  uint64_t DeadlineMs = 0; // Service budget; 0 = none.
  std::string Why;
  if (!invocationFromRequest(Req, Inv, DeadlineMs, Why)) {
    std::lock_guard<std::mutex> Lock(StatsMutex);
    ++Stats.ProtocolErrors;
    return makeError(errc::BadMessage, Why);
  }

  // --- Admission control, then a compile slot in admission order. --------
  Clock::time_point AdmitTime;
  {
    std::unique_lock<std::mutex> Lock(QueueMutex);
    bool Full = Opts.QueueBound == 0
                    ? (QueueDepth != 0 || ActiveCompiles >= Workers)
                    : QueueDepth >= Opts.QueueBound;
    if (Full) {
      std::lock_guard<std::mutex> SLock(StatsMutex);
      ++Stats.RejectedQueueFull;
      Json E = makeError(errc::QueueFull,
                         "admission queue is full; retry after backoff");
      E.set("retry_after_ms", Opts.RetryAfterMs);
      E.set("id", Req.getNumber("id"));
      return E;
    }
    ++QueueDepth;
    AdmitTime = Clock::now();
    const uint64_t Ticket = NextTicket++;
    SlotFree.wait(Lock, [&] {
      return Ticket == NextStart && ActiveCompiles < Workers;
    });
    ++NextStart;
    --QueueDepth;
    ++ActiveCompiles;
  }
  // The next ticket may find a slot free too.
  SlotFree.notify_all();
  double QueueMs = msSince(AdmitTime);

  // The remaining service budget caps the inference deadline. An
  // already-expired budget becomes a 1ms inference deadline, so the solver
  // degrades structurally (unsolved groups reported) instead of this layer
  // inventing its own timeout result.
  if (DeadlineMs != 0) {
    uint64_t Remaining =
        DeadlineMs > uint64_t(QueueMs) ? DeadlineMs - uint64_t(QueueMs) : 1;
    if (Inv.Solve.DeadlineMs == 0 || Remaining < Inv.Solve.DeadlineMs)
      Inv.Solve.DeadlineMs = Remaining;
  }

  // A `compile` needs only the verdict, which a warm cache answers from
  // the artifacts' summaries.
  CompileVerdict V = Service.compileVerdict(Inv, &Held);
  double ServiceMs = msSince(AdmitTime);

  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    --ActiveCompiles;
  }
  SlotFree.notify_all();

  V.QueueMs = QueueMs;
  V.ServiceMs = ServiceMs;
  {
    std::lock_guard<std::mutex> Lock(StatsMutex);
    ++Stats.CompileRequests;
    // Only a full compile degrades, so Held holds it.
    if (V.Degraded && Held.C->getInferenceStats().Solve.HitDeadline)
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
  Json Res = verdictToWire(V);
  Res.set("id", Req.getNumber("id"));
  return Res;
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
  return S;
}

Json DaemonServer::buildStats() const {
  DaemonStats S = getStats();
  Json Latency = Json::object();
  Latency.set("samples", S.LatencySamples)
      .set("p50_ms", S.P50Ms)
      .set("p95_ms", S.P95Ms)
      .set("max_ms", S.MaxMs);
  Json Reply = Json::object();
  Reply.set("type", msg::StatsResult)
      .set("version", uint64_t(DaemonProtocolVersion))
      .set("schema_version", uint64_t(StatsSchemaVersion))
      .set("requests_served", S.RequestsServed)
      .set("compile_requests", S.CompileRequests)
      .set("rejected_queue_full", S.RejectedQueueFull)
      .set("deadline_degraded", S.DeadlineDegraded)
      .set("protocol_errors", S.ProtocolErrors)
      .set("read_timeouts", S.ReadTimeouts)
      .set("queue_depth", S.QueueDepth)
      .set("queue_bound", uint64_t(Opts.QueueBound))
      .set("active_compiles", S.ActiveCompiles)
      .set("workers", uint64_t(Workers))
      .set("draining", Draining.load())
      .set("elab_cache_hits", S.ElabCacheHits)
      .set("elab_cache_misses", S.ElabCacheMisses)
      .set("solve_cache_hits", S.SolveCacheHits)
      .set("solve_cache_misses", S.SolveCacheMisses)
      .set("cache", cacheCountersJson(S.Cache))
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
