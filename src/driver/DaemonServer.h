//===- DaemonServer.h - The lssd compile daemon -----------------*- C++ -*-===//
///
/// \file
/// A long-running compile server wrapped around one CompileService: many
/// client connections share a single warm ArtifactCache, so a fleet of
/// `lssc --daemon` invocations amortizes one cold compile per distinct
/// invocation key.
///
/// ## Threading model
///
/// One accept thread and one handler thread per connection. A connection
/// is a synchronous request/response stream, so it has at most one request
/// in flight, and that request's compile runs on the connection's own
/// thread. Options::Workers compile slots bound how many compiles run at
/// once, no matter how many clients connect.
///
/// ## Admission control
///
/// A compile request is admitted into a bounded queue: at most
/// Options::QueueBound requests may be admitted-but-not-started at once.
/// When the queue is full the request is rejected immediately with an
/// `error` message (code `queue_full`) carrying `retry_after_ms` — clients
/// back off instead of piling latency onto everyone's compiles. Admitted
/// requests take compile slots in admission order.
///
/// ## Per-request deadlines
///
/// A compile request may carry `deadline_ms`, a service-level budget that
/// starts at admission (so queue wait counts). When the compile finally
/// starts, whatever remains becomes the inference wall-clock deadline
/// (infer::SolveOptions::DeadlineMs) — the budget-degradation machinery
/// solves what it can and reports the rest as unsolved groups, so an
/// expired deadline returns a structured degraded result, never a hang.
///
/// ## Shutdown
///
/// A `shutdown` message (or requestShutdown(), which SIGTERM handlers
/// call) drains: the listener closes, already-admitted compiles finish and
/// their responses are written, new requests on open connections are
/// refused with `shutting_down`, then wait() returns. The on-disk cache
/// needs no shutdown handling at all — every write has been atomic
/// (temp + rename) since PR 5, so a crashed or SIGKILLed daemon leaves a
/// valid cache directory behind and the next daemon starts warm from it.
///
//===----------------------------------------------------------------------===//

#ifndef LIBERTY_DRIVER_DAEMONSERVER_H
#define LIBERTY_DRIVER_DAEMONSERVER_H

#include "driver/CompileService.h"
#include "driver/DaemonProtocol.h"

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

namespace liberty {
namespace driver {

/// The counters behind the `stats` endpoint (`stats_result` message).
/// Latency percentiles are computed over a bounded reservoir of the most
/// recent compile service times (admission to response-ready).
struct DaemonStats {
  uint64_t RequestsServed = 0;  ///< Frames answered (any message type).
  uint64_t CompileRequests = 0; ///< `compile` requests run (incl. failed).
  uint64_t RejectedQueueFull = 0;
  uint64_t DeadlineDegraded = 0; ///< Compiles whose deadline expired.
  uint64_t ProtocolErrors = 0;   ///< bad_frame/bad_message/version_mismatch.
  uint64_t ReadTimeouts = 0; ///< Connections dropped mid-frame (slow loris).
  uint64_t QueueDepth = 0;       ///< Admitted, not yet started (now).
  uint64_t ActiveCompiles = 0;   ///< Holding a compile slot (now).
  /// Per-phase cache traffic, from each compile's CompileResult flags.
  uint64_t ElabCacheHits = 0, ElabCacheMisses = 0;
  uint64_t SolveCacheHits = 0, SolveCacheMisses = 0;
  CacheStats Cache; ///< The shared ArtifactCache's own counters.
  double P50Ms = 0, P95Ms = 0, MaxMs = 0;
  uint64_t LatencySamples = 0;
};

class DaemonServer {
public:
  struct Options {
    /// Unix-domain socket path to listen on (see DaemonProtocol.h).
    std::string Address;
    /// Cache configuration for the shared CompileService.
    CompileService::Options Service;
    /// Compiles that may run at once; 0 = one per hardware thread.
    unsigned Workers = 0;
    /// Admission queue bound (admitted-but-not-started requests). 0 means
    /// no queueing at all: a request is rejected unless a compile slot is
    /// free (every slot busy counts as full).
    unsigned QueueBound = 64;
    /// The backoff hint sent with `queue_full` rejections.
    uint64_t RetryAfterMs = 50;
    /// Frame-size cap; larger frames are rejected as `bad_frame`.
    uint64_t MaxFrameBytes = DaemonDefaultMaxFrameBytes;
    /// Once a frame has *started* arriving, the rest of it must land
    /// within this budget or the connection is dropped (slow-loris
    /// protection; only that connection's thread is lost).
    /// Idle connections between frames are not bounded. 0 disables.
    uint64_t ReadDeadlineMs = 10000;
    /// One line per request/lifecycle event on stderr.
    bool Verbose = false;
  };

  explicit DaemonServer(Options O);
  ~DaemonServer(); ///< requestShutdown() + wait().

  DaemonServer(const DaemonServer &) = delete;
  DaemonServer &operator=(const DaemonServer &) = delete;

  /// Binds, listens, and starts the accept thread. Returns false (with
  /// \p Err filled) if the address cannot be bound.
  bool start(std::string *Err);

  /// Begins a draining shutdown (idempotent, callable from any thread;
  /// the `shutdown` message handler and lssd's signal loop both land
  /// here). Returns immediately; wait() observes completion.
  void requestShutdown();

  /// Blocks until the server has fully drained and every thread exited.
  void wait();

  bool isShuttingDown() const { return Draining.load(); }

  const Options &getOptions() const { return Opts; }

  DaemonStats getStats() const;

private:
  void acceptLoop();
  void handleConnection(int Fd);
  /// Dispatches one parsed message; fills \p Reply. Returns false when the
  /// connection should close after the reply (fatal protocol errors). A
  /// full compile's result is moved into \p Held, which the caller frees
  /// only after the reply is written.
  bool handleMessage(const Json &Msg, bool &HandshakeDone, Json &Reply,
                     CompileResult &Held);
  /// The `compile` handler, run on the connection thread: admission
  /// control (a queue_full or bad_message error is returned at once), a
  /// wait for a compile slot in admission order, then the compile.
  Json runCompile(const Json &Req, CompileResult &Held);
  Json buildStats() const;
  void recordLatency(double Ms);
  static Json makeError(const char *Code, std::string Message);

  Options Opts;
  CompileService Service;
  unsigned Workers; ///< Opts.Workers, with 0 resolved.
  int ListenFd = -1;

  std::atomic<bool> Draining{false};
  std::jthread AcceptThread;
  std::mutex ConnMutex;
  std::vector<std::jthread> ConnThreads;

  // Admission queue state (QueueMutex): QueueDepth counts admitted
  // requests waiting for a compile slot; ActiveCompiles counts running
  // ones. Each admitted request draws a ticket, and slots go out in ticket
  // order: NextStart is the ticket whose turn it is.
  mutable std::mutex QueueMutex;
  std::condition_variable SlotFree;
  uint64_t QueueDepth = 0;
  uint64_t ActiveCompiles = 0;
  uint64_t NextTicket = 0;
  uint64_t NextStart = 0;

  mutable std::mutex StatsMutex;
  DaemonStats Stats;
  std::vector<double> Latencies; ///< Reservoir, most recent LatencyCap.
  size_t LatencyNext = 0;
  static constexpr size_t LatencyCap = 4096;
};

} // namespace driver
} // namespace liberty

#endif // LIBERTY_DRIVER_DAEMONSERVER_H
