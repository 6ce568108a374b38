//===- Common.h - Shared pieces of the perfbench driver ---------*- C++ -*-===//
///
/// \file
/// Clock and statistics helpers, the seeded generator every workload draws
/// its inputs from, and the in-memory span tracer behind `--trace 1`.
///
/// Spans are recorded by the benchmark around its own calls into the
/// program's public entry points (nothing inside the program is
/// instrumented). Each span carries its layer (lss, interp, infer, sim,
/// driver, or bench for the benchmark's own per-operation root span) and
/// the id of the operation it belongs to. A layer's self time is its
/// spans' durations minus the time their child spans cover; the root
/// spans' self time is the benchmark's unaccounted time.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include "driver/DaemonProtocol.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

inline double msSince(Clock::time_point A) {
  return msBetween(A, Clock::now());
}

/// Linear-interpolated quantile (0 <= Q <= 1) of \p V; 0 when empty.
double quantile(std::vector<double> V, double Q);
inline double median(std::vector<double> V) {
  return quantile(std::move(V), 0.5);
}
/// Geometric mean of positive values; 0 when empty.
double geomean(const std::vector<double> &V);
/// Geometric mean over the non-empty inputs of each input's quantile \p Q:
/// per-input first, because different inputs' samples form separate
/// clusters and a quantile of the pooled samples can fall between two.
double geomeanOfQuantiles(const std::vector<std::vector<double>> &PerInput,
                          double Q);

/// Peak resident set size of this process, in MiB.
double selfPeakRssMb();

/// SplitMix64: a tiny seeded generator whose stream is the same on every
/// platform, so a seed names the same inputs everywhere.
class Rng {
public:
  explicit Rng(uint64_t Seed, uint64_t Salt = 0)
      : State(Seed * 0x9E3779B97F4A7C15ull ^ (Salt + 0x632BE59BD9B4E019ull)) {
    next();
  }
  uint64_t next() {
    uint64_t Z = (State += 0x9E3779B97F4A7C15ull);
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [Lo, Hi].
  uint64_t range(uint64_t Lo, uint64_t Hi) { return Lo + next() % (Hi - Lo + 1); }
  template <typename T> void shuffle(std::vector<T> &V) {
    for (size_t I = V.size(); I > 1; --I)
      std::swap(V[I - 1], V[size_t(next() % I)]);
  }

private:
  uint64_t State;
};

/// FNV-1a, for output digests.
inline uint64_t fnv1a(const std::string &S, uint64_t H = 1469598103934665603ull) {
  for (unsigned char C : S) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

/// In-memory span recorder. When disabled, open() returns -1 and nothing
/// is stored; Span still measures its own duration either way, because
/// the untraced end-to-end metrics come from the same calls.
class Tracer {
public:
  Tracer(bool Enabled, Clock::time_point Epoch)
      : Enabled(Enabled), Epoch(Epoch) {}

  /// Starts a span at \p Start; returns its id (or -1 when disabled).
  int64_t open(const char *Name, const char *Layer, uint64_t Op, int Tid,
               int64_t Parent, Clock::time_point Start);
  void close(int64_t Id, Clock::time_point End);
  /// Records a finished span whose times are known only after the fact
  /// (the daemon's server-side queue and service intervals).
  void add(const char *Name, const char *Layer, uint64_t Op, int Tid,
           int64_t Parent, double StartMs, double DurMs);

  /// Self time per layer, in ms, over every recorded span.
  std::map<std::string, double> layerSelfMs() const;
  /// Writes Chrome trace-event JSON (loads in chrome://tracing/Perfetto).
  bool writeChromeTrace(const std::string &Path) const;

private:
  struct Rec {
    std::string Name;
    const char *Layer;
    uint64_t Op;
    int Tid;
    int64_t Parent;
    double StartMs;
    double DurMs;
  };
  bool Enabled;
  Clock::time_point Epoch;
  mutable std::mutex Mutex;
  std::vector<Rec> Recs;
};

/// One timed call. The duration is always measured; the span is recorded
/// only when the tracer is enabled.
class Span {
public:
  Span(Tracer &T, const char *Name, const char *Layer, uint64_t Op, int Tid,
       int64_t Parent = -1)
      : T(T), Start(Clock::now()),
        Id(T.open(Name, Layer, Op, Tid, Parent, Start)) {}
  ~Span() { close(); }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

  /// Ends the span (idempotent); returns its duration in ms.
  double close() {
    if (!Closed) {
      Closed = true;
      auto End = Clock::now();
      Ms = msBetween(Start, End);
      T.close(Id, End);
    }
    return Ms;
  }
  int64_t id() const { return Id; }
  Clock::time_point start() const { return Start; }

private:
  Tracer &T;
  Clock::time_point Start;
  int64_t Id;
  bool Closed = false;
  double Ms = 0;
};

/// What one workload run hands back to main().
struct RunResult {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// First few oracle/operation failures, for the record.
  std::vector<std::string> Problems;
  /// Generated input parameters, stamped into the record.
  liberty::driver::Json Params = liberty::driver::Json::object();
  /// End-to-end metrics under the benchmark's shared names.
  std::map<std::string, double> EndToEnd;
  /// The same figures under the workload's own names (hot_ms_p50, ...).
  std::map<std::string, double> Report;
  /// Per-layer metrics (traced runs); run.py reports absent ones as 0.
  std::map<std::string, double> Layers;

  void fail(std::string Why) {
    ++Failed;
    if (Problems.size() < 8)
      Problems.push_back(std::move(Why));
  }
};

/// Command-line settings shared by the workloads.
struct Settings {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  bool SetupOnly = false;
  std::string ModelsDir = "models";
  std::string LssdPath;
  std::string RunDir;   ///< Scratch directory for sockets and caches.
  std::string TraceOut; ///< Chrome trace-event file for --trace 1.
};

/// Finishes a traced run: writes the Chrome trace to S.TraceOut and fills
/// the per-layer self times, unaccounted_ms (root self time per traced
/// operation) and trace_overhead_pct.
void finishTrace(const Settings &S, const Tracer &T, uint64_t TracedOps,
                 double TracedP50, double UntracedP50, RunResult &Res);

/// Setup time accounting: main() starts the clock, a workload calls
/// markSetupDone() just before its first timed operation.
void markSetupDone();
double setupSeconds();

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
