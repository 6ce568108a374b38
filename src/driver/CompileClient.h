//===- CompileClient.h - Client side of the lssd protocol -------*- C++ -*-===//
///
/// \file
/// Talks to a running `lssd` compile daemon: connect + version handshake,
/// then compile/stats/shutdown requests over the length-prefixed
/// JSON protocol (DaemonProtocol.h, specified in docs/DAEMON.md).
///
/// The client ships a CompilerInvocation's sources and the wire-visible
/// option subset (core library, error cap, solver heuristics/threads,
/// inference deadline) and gets back the compile's CompileVerdict
/// (driver/CompileVerdict.h): success, failed phase, the documented exit
/// code, cache provenance, the degradation record, and the rendered
/// diagnostics text. Artifacts stay on the server — the point is the
/// shared warm cache, not shipping netlists.
///
/// Transport failures never throw: every call reports through the
/// Result::Error / ErrorCode fields (or a bool + *Err), so callers like
/// `lssc --daemon` can fall back to an in-process compile.
///
//===----------------------------------------------------------------------===//

#ifndef LIBERTY_DRIVER_COMPILECLIENT_H
#define LIBERTY_DRIVER_COMPILECLIENT_H

#include "driver/CompileVerdict.h"
#include "driver/CompilerInvocation.h"
#include "driver/DaemonProtocol.h"

#include <string>

namespace liberty {
namespace driver {

class CompileClient {
public:
  /// Knobs for compileWithRetry and the transport
  /// deadlines. Defaults suit an interactive `lssc --daemon` call.
  struct RetryPolicy {
    unsigned MaxAttempts = 5;   ///< Total tries (first attempt included).
    uint64_t BaseBackoffMs = 20; ///< Exponential base; doubled per retry.
    uint64_t MaxBackoffMs = 1000; ///< Backoff clamp.
    uint64_t ReadTimeoutMs = 0; ///< Reply deadline per round trip (0 = none).
    /// Consecutive transport failures before the circuit breaker opens.
    /// An open breaker fails every further request instantly so the
    /// caller (lssc) falls back to an in-process compile at once instead
    /// of burning MaxAttempts against a dead daemon per request.
    unsigned BreakerThreshold = 3;
    uint64_t Seed = 1; ///< Deterministic backoff jitter stream.
  };

  /// Client-side robustness counters, surfaced by `lssc --daemon
  /// --stats-json`.
  struct ClientStats {
    uint64_t Retries = 0;          ///< Re-attempts, any cause.
    uint64_t QueueFullRetries = 0; ///< Re-attempts after queue_full.
    uint64_t TransportFailures = 0; ///< Failed connects/sends/recvs.
    uint64_t BreakerTrips = 0;     ///< Times the breaker opened.
    bool BreakerOpen = false;
  };

  /// One remote compile's outcome: the daemon's CompileVerdict plus the
  /// transport fields. Exactly one of these is true:
  ///  - Error non-empty: transport/protocol failure (connection died,
  ///    malformed reply); ErrorCode may name a server error code.
  ///  - Error empty: the verdict fields (read by verdictFromWire) are
  ///    valid.
  struct Result : CompileVerdict {
    std::string Error;      ///< Empty = a result arrived.
    std::string ErrorCode;  ///< Server `error` code (e.g. "queue_full").
    uint64_t RetryAfterMs = 0; ///< Backoff hint from queue_full.
    bool IncrementalUsed = false;     ///< Always false; read by perfbench.
    uint64_t ModulesReelaborated = 0; ///< Always 0; read by perfbench.
    uint64_t GroupsResolved = 0;      ///< Always 0; read by perfbench.
    uint64_t GroupsSpliced = 0;       ///< Always 0; read by perfbench.
  };

  explicit CompileClient(std::string Address) : Address(std::move(Address)) {}
  ~CompileClient() { close(); }

  CompileClient(const CompileClient &) = delete;
  CompileClient &operator=(const CompileClient &) = delete;

  /// Connects and performs the `hello` handshake. Returns false with
  /// \p Err filled when the daemon is unreachable or incompatible.
  bool connect(std::string *Err);
  bool isConnected() const { return Fd >= 0; }
  void close();

  /// Compiles \p Inv remotely. \p DeadlineMs is the request's service
  /// budget (queue wait + compile; 0 = none). Blocking.
  Result compile(const CompilerInvocation &Inv, uint64_t DeadlineMs = 0);

  /// compile() wrapped in the retry policy: reconnects on transport
  /// failure, honors `retry_after_ms` on queue_full with jittered
  /// exponential backoff, and fails fast once the circuit breaker is
  /// open. The returned Result's Error is non-empty only when every
  /// attempt failed (or the breaker was already open).
  Result compileWithRetry(const CompilerInvocation &Inv,
                          uint64_t DeadlineMs = 0);

  /// compile(); perfbench's daemon_edit_loop is its last caller.
  Result recompile(const CompilerInvocation &Inv) { return compile(Inv); }
  /// compileWithRetry(); perfbench's daemon_edit_loop is its last caller.
  Result recompileWithRetry(const CompilerInvocation &Inv) {
    return compileWithRetry(Inv);
  }

  void setRetryPolicy(const RetryPolicy &P) { Policy = P; }
  const ClientStats &getClientStats() const { return Stats; }
  /// The ClientStats counters and the daemon address as the
  /// `daemon_client` object of `lssc --daemon --stats-json`.
  Json clientStatsJson() const;
  bool breakerOpen() const { return Stats.BreakerOpen; }

  /// Fetches the server's `stats_result` message into \p Out.
  bool stats(Json &Out, std::string *Err);

  /// Asks the server to drain and exit. Returns true on `shutdown_ok`.
  bool shutdownServer(std::string *Err);

  const std::string &address() const { return Address; }

  /// The compile-request body for \p Inv (shared with bench/tests that
  /// speak the protocol directly).
  static Json requestBody(const CompilerInvocation &Inv, uint64_t DeadlineMs);

private:
  /// Sends \p Msg and reads one reply frame. Returns false on transport
  /// failure (and closes: the stream state is unknown).
  bool roundTrip(const Json &Msg, Json &Reply, std::string *Err);
  static Result resultFromWire(const Json &Msg);

  /// Bookkeeping after a failed/successful transport interaction; may
  /// open the breaker.
  void noteTransportFailure();
  void noteTransportSuccess();
  /// The jittered backoff for retry number \p Attempt (1-based), floored
  /// at the server's \p RetryAfterMs hint when present.
  uint64_t backoffMs(unsigned Attempt, uint64_t RetryAfterMs);

  std::string Address;
  int Fd = -1;
  uint64_t NextId = 1;
  RetryPolicy Policy;
  ClientStats Stats;
  unsigned ConsecutiveTransportFailures = 0;
  uint64_t JitterState = 0; ///< Lazily seeded from Policy.Seed.
};

} // namespace driver
} // namespace liberty

#endif // LIBERTY_DRIVER_COMPILECLIENT_H
