//===- DaemonServer.h - The lssd compile daemon -----------------*- C++ -*-===//
///
/// \file
/// A long-running compile server wrapped around one CompileService: many
/// client connections share a single warm ArtifactCache, so a fleet of
/// `lssc --daemon` invocations (or future watch-mode/LSP loops) amortizes
/// one cold compile per distinct invocation key.
///
/// ## Threading model
///
/// One accept thread; one handler thread per connection (a connection is a
/// synchronous request/response stream, so per-connection concurrency is
/// exactly one in-flight request); one shared ThreadPool of compile
/// workers. Compiles never run on connection threads — the pool bounds
/// compile concurrency no matter how many clients connect.
///
/// ## Admission control
///
/// Between connection threads and the pool sits a bounded admission queue:
/// at most Options::QueueBound requests may be admitted-but-not-started at
/// once. When the queue is full the request is rejected immediately with
/// an `error` message (code `queue_full`) carrying `retry_after_ms` —
/// clients back off instead of piling latency onto everyone's compiles.
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
#include "support/ThreadPool.h"

#include <atomic>
#include <future>
#include <memory>
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
  uint64_t RecompileRequests = 0; ///< `recompile` requests run.
  uint64_t BatchRequests = 0;   ///< `batch` requests run.
  uint64_t RejectedQueueFull = 0;
  uint64_t DeadlineDegraded = 0; ///< Compiles whose deadline expired.
  uint64_t ProtocolErrors = 0;   ///< bad_frame/bad_message/version_mismatch.
  uint64_t ReadTimeouts = 0; ///< Connections dropped mid-frame (slow loris).
  uint64_t QueueDepth = 0;       ///< Admitted, not yet started (now).
  uint64_t ActiveCompiles = 0;   ///< Running on pool workers (now).
  /// Per-phase cache traffic, from each compile's CompileResult flags.
  uint64_t ElabCacheHits = 0, ElabCacheMisses = 0;
  uint64_t SolveCacheHits = 0, SolveCacheMisses = 0;
  CacheStats Cache; ///< The shared ArtifactCache's own counters.
  /// Incremental-recompilation totals across every `recompile` request
  /// (CompileService::getIncrementalCounters; docs/INCREMENTAL.md).
  CompileService::IncrementalCounters Incremental;
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
    /// Compile worker threads; 0 = one per hardware thread.
    unsigned Workers = 0;
    /// Admission queue bound (admitted-but-not-started requests). 0 means
    /// no queueing at all: a request is rejected unless a worker can take
    /// it soon (every worker busy counts as full).
    unsigned QueueBound = 64;
    /// The backoff hint sent with `queue_full` rejections.
    uint64_t RetryAfterMs = 50;
    /// Frame-size cap; larger frames are rejected as `bad_frame`.
    uint64_t MaxFrameBytes = DaemonDefaultMaxFrameBytes;
    /// Once a frame has *started* arriving, the rest of it must land
    /// within this budget or the connection is dropped (slow-loris
    /// protection; only the connection thread is lost, never a worker).
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
  /// connection should close after the reply (fatal protocol errors).
  bool handleMessage(const Json &Msg, bool &HandshakeDone, Json &Reply);
  /// Admission control + pool dispatch for one compile-request body.
  /// Returns true and arms \p Fut when the request was admitted; returns
  /// false with \p Immediate holding the reply (queue_full rejection or a
  /// bad_message error) when it was not. \p Incremental routes the work
  /// through CompileService::compileIncremental (the `recompile` request).
  bool submitCompile(const Json &Req, std::future<Json> &Fut, Json &Immediate,
                     bool Incremental = false);
  /// The `compile`/`recompile` handler: submitCompile + wait.
  Json runCompile(const Json &Req, bool Incremental = false);
  /// The `batch` handler: every element admitted independently.
  Json runBatch(const Json &Req);
  Json buildStats() const;
  void recordLatency(double Ms);
  static Json makeError(const char *Code, std::string Message);

  Options Opts;
  CompileService Service;
  std::unique_ptr<ThreadPool> Pool;
  int ListenFd = -1;

  std::atomic<bool> Draining{false};
  std::jthread AcceptThread;
  std::mutex ConnMutex;
  std::vector<std::jthread> ConnThreads;

  // Admission queue state (QueueMutex): QueueDepth counts admitted tasks a
  // worker has not yet picked up; ActiveCompiles counts running ones.
  mutable std::mutex QueueMutex;
  uint64_t QueueDepth = 0;
  uint64_t ActiveCompiles = 0;

  mutable std::mutex StatsMutex;
  DaemonStats Stats;
  std::vector<double> Latencies; ///< Reservoir, most recent LatencyCap.
  size_t LatencyNext = 0;
  static constexpr size_t LatencyCap = 4096;
};

} // namespace driver
} // namespace liberty

#endif // LIBERTY_DRIVER_DAEMONSERVER_H
