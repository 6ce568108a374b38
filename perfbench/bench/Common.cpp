//===- Common.cpp - Shared pieces of the perfbench driver -----------------===//

#include "Common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include <sys/resource.h>

namespace perfbench {

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * double(V.size() - 1);
  size_t Lo = size_t(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  double Frac = Pos - double(Lo);
  return V[Lo] + (V[Hi] - V[Lo]) * Frac;
}

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / double(V.size()));
}

double geomeanOfQuantiles(const std::vector<std::vector<double>> &PerInput,
                          double Q) {
  std::vector<double> V;
  for (const std::vector<double> &Samples : PerInput)
    if (!Samples.empty())
      V.push_back(quantile(Samples, Q));
  return geomean(V);
}

double selfPeakRssMb() {
  struct rusage RU = {};
  getrusage(RUSAGE_SELF, &RU);
  return double(RU.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux.
}

int64_t Tracer::open(const char *Name, const char *Layer, uint64_t Op, int Tid,
                     int64_t Parent, Clock::time_point Start) {
  if (!Enabled)
    return -1;
  std::lock_guard<std::mutex> Lock(Mutex);
  Recs.push_back({Name, Layer, Op, Tid, Parent, msBetween(Epoch, Start), 0});
  return int64_t(Recs.size() - 1);
}

void Tracer::close(int64_t Id, Clock::time_point End) {
  if (Id < 0)
    return;
  std::lock_guard<std::mutex> Lock(Mutex);
  Rec &R = Recs[size_t(Id)];
  R.DurMs = msBetween(Epoch, End) - R.StartMs;
}

void Tracer::add(const char *Name, const char *Layer, uint64_t Op, int Tid,
                 int64_t Parent, double StartMs, double DurMs) {
  if (!Enabled)
    return;
  std::lock_guard<std::mutex> Lock(Mutex);
  Recs.push_back({Name, Layer, Op, Tid, Parent, StartMs, DurMs});
}

std::map<std::string, double> Tracer::layerSelfMs() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  // Children never overlap one another (each operation runs its calls in
  // sequence), so the part of a span its children cover is their sum.
  std::vector<double> ChildMs(Recs.size(), 0.0);
  for (const Rec &R : Recs)
    if (R.Parent >= 0)
      ChildMs[size_t(R.Parent)] += R.DurMs;
  std::map<std::string, double> Self;
  for (size_t I = 0; I != Recs.size(); ++I)
    Self[Recs[I].Layer] += std::max(0.0, Recs[I].DurMs - ChildMs[I]);
  return Self;
}

bool Tracer::writeChromeTrace(const std::string &Path) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::ofstream Out(Path);
  if (!Out)
    return false;
  Out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  for (size_t I = 0; I != Recs.size(); ++I) {
    const Rec &R = Recs[I];
    char Buf[160];
    std::snprintf(Buf, sizeof(Buf),
                  "\"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"ts\": %.3f, "
                  "\"dur\": %.3f",
                  R.Tid, R.StartMs * 1000.0, R.DurMs * 1000.0);
    Out << (I ? ",\n" : "\n") << "{\"name\": \""
        << liberty::driver::jsonEscapeString(R.Name) << "\", \"cat\": \""
        << R.Layer << "\", " << Buf
        << ", \"args\": {\"op\": " << R.Op << ", \"span\": " << I
        << ", \"parent\": " << R.Parent << "}}";
  }
  Out << "\n]}\n";
  return bool(Out);
}

void finishTrace(const Settings &S, const Tracer &T, uint64_t TracedOps,
                 double TracedP50, double UntracedP50, RunResult &Res) {
  if (!S.Trace)
    return;
  if (!S.TraceOut.empty() && !T.writeChromeTrace(S.TraceOut))
    Res.fail("cannot write trace file " + S.TraceOut);
  std::map<std::string, double> Self = T.layerSelfMs();
  double PerOp = TracedOps ? 1.0 / double(TracedOps) : 0.0;
  for (const char *Layer : {"lss", "interp", "infer", "sim", "driver"})
    Res.Layers[std::string(Layer) + ".self_ms"] = Self[Layer] * PerOp;
  Res.Layers["unaccounted_ms"] = Self["bench"] * PerOp;
  if (UntracedP50 > 0)
    Res.Layers["trace_overhead_pct"] = (TracedP50 / UntracedP50 - 1.0) * 100.0;
}

namespace {
Clock::time_point ProcessStart = Clock::now();
double SetupS = -1;
} // namespace

void markSetupDone() {
  if (SetupS < 0)
    SetupS = msSince(ProcessStart) / 1000.0;
}

double setupSeconds() { return SetupS < 0 ? 0 : SetupS; }

} // namespace perfbench
