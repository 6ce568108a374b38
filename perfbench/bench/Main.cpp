//===- Main.cpp - perfbench driver binary ---------------------------------===//
///
/// Runs one workload and prints its result record as one JSON line:
///
///   perfbench --workload NAME --seed N --seconds S --trace 0|1
///             [--models-dir DIR] [--lssd PATH] [--run-dir DIR]
///             [--trace-out FILE] [--setup-only]
///
/// perfbench/run.py builds this binary, runs it (several times with
/// --setup-only for the set-up time) and prints the benchmark's summary.
///
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Workloads.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

using namespace perfbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload paper_models|overload_farm|"
               "daemon_edit_loop --seed N --seconds S --trace 0|1\n"
               "                 [--models-dir DIR] [--lssd PATH] "
               "[--run-dir DIR] [--trace-out FILE] [--setup-only]\n");
  return 2;
}

liberty::driver::Json metricsJson(const std::map<std::string, double> &M) {
  liberty::driver::Json J = liberty::driver::Json::object();
  for (const auto &[K, V] : M)
    J.set(K, V);
  return J;
}

} // namespace

int main(int Argc, char **Argv) {
  Settings S;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Value = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    const char *V = nullptr;
    if (A == "--setup-only") {
      S.SetupOnly = true;
      continue;
    }
    if (!(V = Value()))
      return usage();
    if (A == "--workload")
      S.Workload = V;
    else if (A == "--seed")
      S.Seed = std::strtoull(V, nullptr, 10);
    else if (A == "--seconds")
      S.Seconds = std::strtod(V, nullptr);
    else if (A == "--trace")
      S.Trace = std::strcmp(V, "0") != 0;
    else if (A == "--models-dir")
      S.ModelsDir = V;
    else if (A == "--lssd")
      S.LssdPath = V;
    else if (A == "--run-dir")
      S.RunDir = V;
    else if (A == "--trace-out")
      S.TraceOut = V;
    else
      return usage();
  }
  if (S.Seconds <= 0)
    return usage();

  RunResult Res;
  if (S.Workload == "paper_models")
    Res = runPaperModels(S);
  else if (S.Workload == "overload_farm")
    Res = runOverloadFarm(S);
  else if (S.Workload == "daemon_edit_loop") {
    if (S.LssdPath.empty() || S.RunDir.empty())
      return usage();
    Res = runDaemonEditLoop(S);
  } else {
    return usage();
  }

  if (S.SetupOnly && Res.Failed == 0) {
    std::printf("%s\n", liberty::driver::Json::object()
                             .set("setup_s", setupSeconds())
                             .dump()
                             .c_str());
    return 0;
  }

  Res.Report["failed_frac"] =
      Res.Attempted ? double(Res.Failed) / double(Res.Attempted) : 1.0;
  liberty::driver::Json Problems = liberty::driver::Json::array();
  for (const std::string &P : Res.Problems)
    Problems.push(P);

  liberty::driver::Json Out = liberty::driver::Json::object();
  Out.set("workload", S.Workload)
      .set("seed", S.Seed)
      .set("seconds", S.Seconds)
      .set("trace", S.Trace)
      .set("compiler", PERFBENCH_COMPILER)
      .set("build_type", PERFBENCH_BUILD_TYPE)
      .set("nproc", uint64_t(std::thread::hardware_concurrency()))
      .set("setup_s", setupSeconds())
      .set("attempted", Res.Attempted)
      .set("failed", Res.Failed)
      .set("problems", std::move(Problems))
      .set("params", std::move(Res.Params))
      .set("end_to_end", metricsJson(Res.EndToEnd))
      .set("report", metricsJson(Res.Report))
      .set("per_layer", metricsJson(Res.Layers));
  std::printf("%s\n", Out.dump().c_str());
  return Res.Failed == 0 ? 0 : 1;
}
