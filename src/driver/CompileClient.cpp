//===- CompileClient.cpp - Client side of the lssd protocol -------------------===//

#include "driver/CompileClient.h"

#include "support/FaultInjection.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include <unistd.h>

using namespace liberty;
using namespace liberty::driver;

void CompileClient::close() {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
}

bool CompileClient::connect(std::string *Err) {
  close();
  if (faultShouldFail("client.connect")) {
    if (Err)
      *Err = "connect to '" + Address + "': injected fault";
    return false;
  }
  Fd = netConnect(Address, Err);
  if (Fd < 0)
    return false;

  Json Hello = Json::object();
  Hello.set("type", msg::Hello)
      .set("version", uint64_t(DaemonProtocolVersion))
      .set("client", "lssc");
  Json Reply;
  if (!roundTrip(Hello, Reply, Err))
    return false;
  if (Reply.getString("type") != msg::HelloOk) {
    if (Err)
      *Err = "handshake refused: " +
             Reply.getString("message", "unexpected '" +
                                            Reply.getString("type") +
                                            "' reply");
    close();
    return false;
  }
  return true;
}

bool CompileClient::roundTrip(const Json &Msg, Json &Reply, std::string *Err) {
  if (Fd < 0) {
    if (Err)
      *Err = "not connected";
    return false;
  }
  if (faultShouldFail("client.send") || !writeMessage(Fd, Msg)) {
    if (Err)
      *Err = "send failed (daemon gone?)";
    close();
    return false;
  }
  std::string Payload;
  FrameStatus FS =
      faultShouldFail("client.recv")
          ? FrameStatus::Error
          : readFrameDeadline(Fd, Payload, DaemonDefaultMaxFrameBytes,
                              Policy.ReadTimeoutMs, /*IdleDeadline=*/true);
  if (FS != FrameStatus::Ok) {
    if (Err)
      *Err = FS == FrameStatus::Eof       ? "daemon closed the connection"
             : FS == FrameStatus::Timeout ? "receive timed out after " +
                                                std::to_string(
                                                    Policy.ReadTimeoutMs) +
                                                " ms"
                                          : "receive failed";
    close();
    return false;
  }
  std::string ParseErr;
  if (!Json::parse(Payload, Reply, &ParseErr)) {
    if (Err)
      *Err = "malformed reply: " + ParseErr;
    close();
    return false;
  }
  return true;
}

Json CompileClient::requestBody(const CompilerInvocation &Inv,
                                uint64_t DeadlineMs) {
  Json Sources = Json::array();
  for (const CompilerInvocation::Source &S : Inv.Sources) {
    Json Src = Json::object();
    Src.set("name", S.Name).set("text", S.Text);
    Sources.push(std::move(Src));
  }
  // Only the wire-visible option subset crosses; docs/DAEMON.md specifies
  // it. The three solver heuristics ship individually so a remote compile
  // solves with exactly the invocation's configuration.
  Json Options = Json::object();
  Options.set("use_corelib", Inv.UseCoreLibrary)
      .set("max_errors", uint64_t(Inv.MaxErrors))
      .set("jobs", uint64_t(Inv.Solve.NumThreads))
      .set("reorder", Inv.Solve.ReorderSimpleFirst)
      .set("forced_elimination", Inv.Solve.ForcedDisjunctElimination)
      .set("partition", Inv.Solve.Partition)
      .set("infer_deadline_ms", Inv.Solve.DeadlineMs);
  if (DeadlineMs)
    Options.set("deadline_ms", DeadlineMs);

  Json Req = Json::object();
  Req.set("sources", std::move(Sources)).set("options", std::move(Options));
  return Req;
}

CompileClient::Result CompileClient::resultFromWire(const Json &Msg) {
  Result R;
  const std::string Type = Msg.getString("type");
  if (Type == msg::Error) {
    R.ErrorCode = Msg.getString("code", "error");
    R.Error = Msg.getString("message", "daemon error");
    R.RetryAfterMs = Msg.getU64("retry_after_ms");
    return R;
  }
  if (Type != msg::Result) {
    R.Error = "unexpected '" + Type + "' reply";
    return R;
  }
  static_cast<CompileVerdict &>(R) = verdictFromWire(Msg);
  return R;
}

CompileClient::Result CompileClient::compile(const CompilerInvocation &Inv,
                                             uint64_t DeadlineMs) {
  Json Req = requestBody(Inv, DeadlineMs);
  Req.set("type", msg::Compile).set("id", NextId++);
  Json Reply;
  Result R;
  if (!roundTrip(Req, Reply, &R.Error))
    return R;
  return resultFromWire(Reply);
}

Json CompileClient::clientStatsJson() const {
  return Json::object()
      .set("address", Address)
      .set("retries", Stats.Retries)
      .set("queue_full_retries", Stats.QueueFullRetries)
      .set("transport_failures", Stats.TransportFailures)
      .set("breaker_trips", Stats.BreakerTrips)
      .set("breaker_open", Stats.BreakerOpen);
}

bool CompileClient::stats(Json &Out, std::string *Err) {
  Json Req = Json::object();
  Req.set("type", msg::Stats);
  if (!roundTrip(Req, Out, Err))
    return false;
  if (Out.getString("type") != msg::StatsResult) {
    if (Err)
      *Err = "unexpected '" + Out.getString("type") + "' reply to stats";
    return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Retry / backoff / circuit breaker
//===----------------------------------------------------------------------===//

static uint64_t splitmix64(uint64_t &State) {
  uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

void CompileClient::noteTransportFailure() {
  ++Stats.TransportFailures;
  if (++ConsecutiveTransportFailures >= Policy.BreakerThreshold &&
      !Stats.BreakerOpen) {
    Stats.BreakerOpen = true;
    ++Stats.BreakerTrips;
  }
}

void CompileClient::noteTransportSuccess() { ConsecutiveTransportFailures = 0; }

uint64_t CompileClient::backoffMs(unsigned Attempt, uint64_t RetryAfterMs) {
  if (JitterState == 0)
    JitterState = Policy.Seed * 0x9e3779b97f4a7c15ull + 1;
  uint64_t Backoff = Policy.BaseBackoffMs;
  for (unsigned I = 1; I < Attempt && Backoff < Policy.MaxBackoffMs; ++I)
    Backoff *= 2;
  Backoff = std::min(Backoff, Policy.MaxBackoffMs);
  // Full jitter on top of the exponential floor; a server retry_after_ms
  // hint raises the floor (it knows its queue better than we do).
  uint64_t Jitter = splitmix64(JitterState) % (Backoff / 2 + 1);
  return std::max(Backoff / 2 + Jitter, RetryAfterMs);
}

static CompileClient::Result breakerOpenResult() {
  CompileClient::Result R;
  R.Error = "circuit breaker open: daemon transport failing repeatedly; "
            "not retrying";
  return R;
}

/// True when \p R is worth another attempt: transport failures (Error set
/// without a server code — the daemon may be back by the next try) and
/// queue_full rejections (the server asked us to come back).
static bool isRetryable(const CompileClient::Result &R) {
  if (R.Error.empty())
    return false;
  return R.ErrorCode.empty() || R.ErrorCode == errc::QueueFull;
}

CompileClient::Result CompileClient::compileWithRetry(
    const CompilerInvocation &Inv, uint64_t DeadlineMs) {
  Result Last;
  for (unsigned Attempt = 1; Attempt <= Policy.MaxAttempts; ++Attempt) {
    if (Stats.BreakerOpen)
      return breakerOpenResult();
    if (Attempt > 1) {
      ++Stats.Retries;
      if (Last.ErrorCode == errc::QueueFull)
        ++Stats.QueueFullRetries;
      std::this_thread::sleep_for(std::chrono::milliseconds(
          backoffMs(Attempt - 1, Last.RetryAfterMs)));
    }
    std::string Err;
    if (!isConnected() && !connect(&Err)) {
      noteTransportFailure();
      Last = Result();
      Last.Error = Err;
      continue;
    }
    Last = compile(Inv, DeadlineMs);
    if (Last.Error.empty()) {
      noteTransportSuccess();
      return Last;
    }
    if (!Last.ErrorCode.empty())
      noteTransportSuccess(); // The server answered; transport is fine.
    else
      noteTransportFailure();
    if (!isRetryable(Last))
      return Last;
  }
  return Last;
}

bool CompileClient::shutdownServer(std::string *Err) {
  Json Req = Json::object();
  Req.set("type", msg::Shutdown);
  Json Reply;
  if (!roundTrip(Req, Reply, Err))
    return false;
  if (Reply.getString("type") != msg::ShutdownOk) {
    if (Err)
      *Err = "unexpected '" + Reply.getString("type") + "' reply to shutdown";
    return false;
  }
  close(); // The server closes after shutdown_ok; so do we.
  return true;
}
