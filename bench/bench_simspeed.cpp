//===- bench_simspeed.cpp - Section 8's simulation-speed comparison -----------===//
///
/// The paper claims (Section 8, citing [12]): "reusable components in LSE
/// with LSS are at least as fast as custom components written in SystemC."
/// This bench compares cycles/second on the same delay-chain and CPU
/// workloads across:
///   - the LSS-generated simulator (static schedule, reusable components),
///   - the structural-OOP engine (run-time composition, no schedule — the
///     SystemC-analogue this repository implements), and
///   - a hand-written monomorphic C++ simulator (the absolute ceiling).
/// The paper's claim maps to LSS >= structural-OOP; the hand-coded C++
/// ceiling is reported for calibration.
///
//===----------------------------------------------------------------------===//

#include "BenchRecord.h"

#include "baseline/HandCodedSim.h"
#include "baseline/OopSim.h"
#include "driver/Compiler.h"
#include "models/Models.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

using namespace liberty;

namespace {

/// --sim-engine NAME (default compiled): the engine for the LSS
/// benchmarks that don't compare engines themselves, enabling whole-suite
/// comparisons.
sim::EngineKind GEngine = sim::EngineKind::Compiled;

sim::Simulator::Options simOptions() {
  sim::Simulator::Options O;
  O.Engine = GEngine;
  return O;
}

/// One-source invocation under the suite-wide engine options.
driver::CompilerInvocation invocationFor(const std::string &Name,
                                         std::string Text,
                                         sim::Simulator::Options O) {
  driver::CompilerInvocation Inv;
  Inv.addSource(Name, std::move(Text));
  Inv.Sim = O;
  return Inv;
}

std::string delayChainSpec(int N) {
  return R"(
module delayn {
  parameter n:int;
  inport in: 'a;
  outport out: 'a;
  var delays:instance ref[];
  delays = new instance[n](delay, "delays");
  in -> delays[0].in;
  var i:int;
  for (i = 1; i < n; i = i + 1) { delays[i-1].out -> delays[i].in; }
  delays[n-1].out -> out;
};
instance gen:counter_source;
instance hole:sink;
instance chain:delayn;
chain.n = )" + std::to_string(N) + R"(;
gen.out -> chain.in;
chain.out -> hole.in;
)";
}

void BM_LssDelayChain(benchmark::State &State) {
  int N = State.range(0);
  auto C = driver::Compiler::compileForSim(
      invocationFor("chain.lss", delayChainSpec(N), simOptions()));
  if (!C) {
    State.SkipWithError("compile failed");
    return;
  }
  sim::Simulator *Sim = C->getSimulator();
  for (auto _ : State)
    Sim->step(100);
  State.counters["cycles/s"] = benchmark::Counter(
      100.0 * State.iterations(), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_LssDelayChain)->Arg(10)->Arg(100);

void BM_OopDelayChain(benchmark::State &State) {
  using namespace baseline::oop;
  int N = State.range(0);
  Engine E;
  Signal<int64_t> In, Out;
  E.track(&In);
  E.track(&Out);
  E.add(std::make_unique<CounterSource>(&In, E));
  E.add(std::make_unique<DelayN<int64_t>>(E, &In, &Out, N, int64_t(0)));
  E.add(std::make_unique<Sink<int64_t>>(&Out));
  E.reset();
  for (auto _ : State)
    E.step(100);
  State.counters["cycles/s"] = benchmark::Counter(
      100.0 * State.iterations(), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_OopDelayChain)->Arg(10)->Arg(100);

void BM_OopBoxedDelayChain(benchmark::State &State) {
  using namespace baseline::oop;
  using namespace baseline::oop::boxed;
  int N = State.range(0);
  Engine E;
  std::vector<std::unique_ptr<BoxedSignal>> Wires;
  auto Wire = [&] {
    Wires.push_back(std::make_unique<BoxedSignal>());
    E.track(Wires.back().get());
    return Wires.back().get();
  };
  BoxedSignal *Prev = Wire();
  auto *Src = new BoxedCounterSource(E);
  Src->bindPort("out", Prev);
  E.add(std::unique_ptr<Component>(Src));
  for (int I = 0; I != N; ++I) {
    BoxedSignal *Next = Wire();
    auto *D = new BoxedDelay(0);
    D->bindPort("in", Prev);
    D->bindPort("out", Next);
    E.add(std::unique_ptr<Component>(D));
    Prev = Next;
  }
  auto *Snk = new BoxedSink();
  Snk->bindPort("in", Prev);
  E.add(std::unique_ptr<Component>(Snk));
  E.reset();
  for (auto _ : State)
    E.step(100);
  State.counters["cycles/s"] = benchmark::Counter(
      100.0 * State.iterations(), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_OopBoxedDelayChain)->Arg(10)->Arg(100);

void BM_HandCodedDelayChain(benchmark::State &State) {
  int N = State.range(0);
  int64_t Sum = 0;
  for (auto _ : State)
    Sum += baseline::runHandCodedDelayChain(N, 100);
  benchmark::DoNotOptimize(Sum);
  State.counters["cycles/s"] = benchmark::Counter(
      100.0 * State.iterations(), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_HandCodedDelayChain)->Arg(10)->Arg(100);

void BM_LssCpuModelC(benchmark::State &State) {
  driver::Compiler C;
  driver::CompilerInvocation Inv;
  Inv.Sim = simOptions();
  if (!models::loadModel(C, "C") || !C.elaborate(Inv) || !C.inferTypes(Inv) ||
      !C.buildSimulator(Inv)) {
    State.SkipWithError("model C failed");
    return;
  }
  sim::Simulator *Sim = C.getSimulator();
  for (auto _ : State)
    Sim->step(100);
  State.counters["cycles/s"] = benchmark::Counter(
      100.0 * State.iterations(), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_LssCpuModelC);

/// A model dominated by quiescent combinational logic: one long adder
/// chain fed by a constant (never changes after cycle 0) next to a short
/// active chain fed by a counter (changes every cycle). Both engines
/// evaluate the whole quiet chain every cycle.
std::string lowActivitySpec(int QuietN, int ActiveN) {
  return R"(
module addchain {
  parameter n:int;
  inport in: 'a;
  outport out: 'a;
  var as:instance ref[];
  as = new instance[n](adder, "a");
  in -> as[0].in1;
  in -> as[0].in2;
  var i:int;
  for (i = 1; i < n; i = i + 1) {
    as[i-1].out -> as[i].in1;
    in -> as[i].in2;
  }
  as[n-1].out -> out;
};
instance quiet_src:const_source;
quiet_src.value = 3;
instance quiet_chain:addchain;
quiet_chain.n = )" + std::to_string(QuietN) + R"(;
instance quiet_sink:sink;
quiet_src.out -> quiet_chain.in;
quiet_chain.out -> quiet_sink.in;
instance act_src:counter_source;
instance act_chain:addchain;
act_chain.n = )" + std::to_string(ActiveN) + R"(;
instance act_sink:sink;
act_src.out -> act_chain.in;
act_chain.out -> act_sink.in;
)";
}

/// Engine A/B on the low-activity model: Arg(0) = interp, Arg(1) =
/// compiled.
void BM_LssLowActivity(benchmark::State &State) {
  sim::Simulator::Options O;
  O.Engine = State.range(0) ? sim::EngineKind::Compiled
                            : sim::EngineKind::Interp;
  auto C = driver::Compiler::compileForSim(
      invocationFor("lowact.lss", lowActivitySpec(200, 8), O));
  if (!C) {
    State.SkipWithError("compile failed");
    return;
  }
  sim::Simulator *Sim = C->getSimulator();
  for (auto _ : State)
    Sim->step(100);
  State.SetLabel(sim::engineName(O.Engine));
  State.counters["cycles/s"] = benchmark::Counter(
      100.0 * State.iterations(), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_LssLowActivity)->Arg(0)->Arg(1);

/// A wide model: \p Lanes independent source->adder->sink strands, every
/// component its own singleton schedule group — the sweep's workload.
std::string wideLanesSpec(int Lanes) {
  std::string N = std::to_string(Lanes);
  return R"(
module lane {
  outport out: int;
  instance g:counter_source;
  instance a:adder;
  g.out -> a.in1;
  g.out -> a.in2;
  a.out -> out;
};
var lanes:instance ref[];
lanes = new instance[)" + N + R"(](lane, "lane");
instance s:sink;
var i:int;
for (i = 0; i < )" + N + R"(; i = i + 1) {
  lanes[i].out -> s.in[i];
}
)";
}

void BM_LssWideLanes(benchmark::State &State) {
  auto C = driver::Compiler::compileForSim(
      invocationFor("wide.lss", wideLanesSpec(64), simOptions()));
  if (!C) {
    State.SkipWithError("compile failed");
    return;
  }
  sim::Simulator *Sim = C->getSimulator();
  for (auto _ : State)
    Sim->step(100);
  State.counters["cycles/s"] = benchmark::Counter(
      100.0 * State.iterations(), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_LssWideLanes);

void BM_HandCodedPipeline(benchmark::State &State) {
  baseline::PipelineConfig Cfg;
  Cfg.NumInstrs = 1000000000; // Effectively endless; bound by MaxCycles.
  Cfg.MaxCycles = 100;
  Cfg.FetchWidth = 4;
  Cfg.NumFus = 4;
  Cfg.WindowSize = 16;
  uint64_t Sum = 0;
  for (auto _ : State)
    Sum += baseline::runHandCodedPipeline(Cfg).Retired;
  benchmark::DoNotOptimize(Sum);
  State.counters["cycles/s"] = benchmark::Counter(
      100.0 * State.iterations(), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_HandCodedPipeline);

/// Measures steady-state cycles/s for one engine on \p Spec: warm up,
/// then run 200-cycle batches until ~0.25 s of wall time has accumulated.
double measureRate(const std::string &Spec, sim::EngineKind Engine) {
  sim::Simulator::Options O;
  O.Engine = Engine;
  auto C = driver::Compiler::compileForSim(invocationFor("m.lss", Spec, O));
  if (!C)
    return -1.0;
  sim::Simulator *Sim = C->getSimulator();
  Sim->step(50); // Warmup.
  using Clock = std::chrono::steady_clock;
  uint64_t Cycles = 0;
  auto Start = Clock::now();
  double Elapsed = 0.0;
  while (Elapsed < 0.25) {
    Sim->step(200);
    Cycles += 200;
    Elapsed = std::chrono::duration<double>(Clock::now() - Start).count();
  }
  return double(Cycles) / Elapsed;
}

/// `--sweep [FILE]`: the machine-readable per-engine record, written
/// through bench::writeRecord. For the wide model and the low-activity
/// model, each engine's cycles/s as the median of 5 measurements (with
/// min and max), and compiled's speedup over the interp reference.
int runSweep(const std::string &Path) {
  struct Model {
    const char *Name;
    std::string Spec;
  };
  const Model Models[] = {{"wide_lanes_64", wideLanesSpec(64)},
                          {"low_activity_200_8", lowActivitySpec(200, 8)}};
  driver::Json Runs = driver::Json::array();
  for (const Model &M : Models) {
    double InterpMedian = 0.0;
    for (sim::EngineKind E : {sim::EngineKind::Interp,
                              sim::EngineKind::Compiled}) {
      std::vector<double> Rates;
      for (int R = 0; R != 5; ++R)
        Rates.push_back(measureRate(M.Spec, E));
      std::sort(Rates.begin(), Rates.end());
      double Median = Rates[2];
      if (E == sim::EngineKind::Interp)
        InterpMedian = Median;
      Runs.push(driver::Json::object()
                    .set("model", M.Name)
                    .set("engine", sim::engineName(E))
                    .set("cycles_per_s_median", Median)
                    .set("cycles_per_s_min", Rates.front())
                    .set("cycles_per_s_max", Rates.back())
                    .set("speedup_vs_interp",
                         InterpMedian > 0.0 ? Median / InterpMedian : 0.0));
      std::cerr << "sweep: " << M.Name << " engine=" << sim::engineName(E)
                << " -> " << uint64_t(Median) << " cycles/s (median of 5, "
                << uint64_t(Rates.front()) << ".." << uint64_t(Rates.back())
                << ")\n";
    }
  }
  driver::Json J = driver::Json::object();
  J.set("nproc", std::thread::hardware_concurrency())
      .set("repeats", 5)
      .set("runs", std::move(Runs));
  if (!bench::writeRecord(Path, J,
                          {{"nproc", "repeats"},
                           "runs",
                           {"model", "engine", "cycles_per_s_median",
                            "cycles_per_s_min", "cycles_per_s_max",
                            "speedup_vs_interp"}}))
    return 1;
  std::cerr << "bench_simspeed: wrote " << Path << "\n";
  return 0;
}

} // namespace

// Custom main so the whole suite can be A/B'd with `--sim-engine NAME`,
// and so `--sweep [FILE]` can emit the machine-readable per-engine record
// (both stripped before Google Benchmark sees the arguments).
int main(int argc, char **argv) {
  std::vector<char *> Args;
  bool Sweep = false;
  std::string SweepPath = "BENCH_simspeed.json";
  for (int I = 0; I < argc; ++I) {
    if (std::strcmp(argv[I], "--sim-engine") == 0 && I + 1 < argc) {
      if (!sim::parseEngineName(argv[I + 1], GEngine)) {
        std::cerr << "bench_simspeed: unknown engine '" << argv[I + 1]
                  << "' (expected interp or compiled)\n";
        return 1;
      }
      ++I;
      continue;
    }
    if (std::strcmp(argv[I], "--sweep") == 0) {
      Sweep = true;
      if (I + 1 < argc && argv[I + 1][0] != '-') {
        SweepPath = argv[I + 1];
        ++I;
      }
      continue;
    }
    Args.push_back(argv[I]);
  }
  if (Sweep)
    return runSweep(SweepPath);
  int Argc = static_cast<int>(Args.size());
  benchmark::Initialize(&Argc, Args.data());
  if (benchmark::ReportUnrecognizedArguments(Argc, Args.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
