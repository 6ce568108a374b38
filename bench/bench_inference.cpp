//===- bench_inference.cpp - Section 5's inference-cost experiment ------------===//
///
/// Reproduces the paper's central performance claim about type inference:
/// with the three heuristics "type inference completes in several seconds
/// for all cases we have observed"; without them "type inference times
/// exceeded 12 hours for most models".
///
/// Output has two parts:
///  1. A work-count table: unification steps and branch points for the
///     naive solver vs each heuristic combination, on synthetic families
///     and on the real constraint systems of models A-F. The naive solver
///     is capped; rows that hit the cap are the ">12 hours" analogue.
///  2. google-benchmark timings of the full heuristic solver (the
///     "several seconds" side), which on these systems is milliseconds.
///
/// With --sweep-threads it instead sweeps the H3 group search across
/// thread counts on multi-group systems (the disjoint-hard-groups family
/// and the real models), printing the wall time and speedup per thread
/// count and cross-checking that every configuration does identical work;
/// it exits 1 if any row failed to solve or did different work.
///
//===----------------------------------------------------------------------===//

#include "driver/Compiler.h"
#include "infer/Synthetic.h"
#include "models/Models.h"
#include "support/ThreadPool.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>

using namespace liberty;
using infer::Constraint;
using infer::SolveOptions;
using infer::SolveStats;

namespace {

constexpr uint64_t NaiveCap = 20000000; // Unify-step cap for hopeless runs.

SolveOptions optsFor(bool H1, bool H2, bool H3, uint64_t Cap) {
  SolveOptions O;
  O.ReorderSimpleFirst = H1;
  O.ForcedDisjunctElimination = H2;
  O.Partition = H3;
  O.MaxSteps = Cap;
  return O;
}

void runRow(const char *Name,
            const std::function<std::vector<Constraint>(types::TypeContext &)>
                &Make) {
  struct Config {
    const char *Label;
    bool H1, H2, H3;
  };
  const Config Configs[] = {
      {"naive", false, false, false},
      {"H1", true, false, false},
      {"H1+H2", true, true, false},
      {"H1+H2+H3", true, true, true},
  };
  std::printf("%-24s", Name);
  for (const Config &C : Configs) {
    types::TypeContext TC;
    std::vector<Constraint> Cs = Make(TC);
    infer::InferenceEngine E(TC);
    SolveStats S = E.solve(Cs, optsFor(C.H1, C.H2, C.H3, NaiveCap));
    if (S.HitLimit)
      std::printf(" %14s", ">cap");
    else
      std::printf(" %11" PRIu64 "/%-3" PRIu64,
                  S.UnifySteps, S.BranchPoints);
  }
  std::printf("\n");
}

std::vector<Constraint> modelConstraints(const std::string &Id,
                                         driver::Compiler &C) {
  if (!models::loadModel(C, Id) || !C.elaborate())
    return {};
  return infer::buildNetlistConstraints(*C.getNetlist(),
                                        C.getTypeContext());
}

void printComparisonTable() {
  std::printf("=== Inference work: unify-steps/branch-points per heuristic "
              "set (cap=%" PRIu64 ") ===\n\n",
              NaiveCap);
  std::printf("%-24s %15s %15s %15s %15s\n", "workload", "naive", "H1",
              "H1+H2", "H1+H2+H3");

  for (unsigned K : {4u, 6u, 8u, 10u, 12u}) {
    std::string Name = "adversarial-pairs k=" + std::to_string(K);
    runRow(Name.c_str(), [K](types::TypeContext &TC) {
      return infer::makeAdversarialPairs(TC, K);
    });
  }
  for (unsigned K : {8u, 12u, 16u, 20u}) {
    std::string Name = "intersection k=" + std::to_string(K);
    runRow(Name.c_str(), [K](types::TypeContext &TC) {
      return infer::makeIntersectionFamily(TC, K);
    });
  }
  for (unsigned N : {64u, 256u, 1024u}) {
    std::string Name = "forced-chain n=" + std::to_string(N);
    runRow(Name.c_str(), [N](types::TypeContext &TC) {
      return infer::makeForcedChain(TC, N);
    });
  }

  std::printf("\n%-24s %15s %15s %15s %15s\n", "model", "naive", "H1",
              "H1+H2", "H1+H2+H3");
  for (const std::string &Id : models::modelIds()) {
    struct Config {
      bool H1, H2, H3;
    };
    const Config Configs[] = {{false, false, false},
                              {true, false, false},
                              {true, true, false},
                              {true, true, true}};
    std::printf("%-24s", ("model " + Id).c_str());
    for (const Config &Cfg : Configs) {
      driver::Compiler C;
      std::vector<Constraint> Cs = modelConstraints(Id, C);
      infer::InferenceEngine E(C.getTypeContext());
      SolveStats S = E.solve(Cs, optsFor(Cfg.H1, Cfg.H2, Cfg.H3, NaiveCap));
      if (S.HitLimit)
        std::printf(" %14s", ">cap");
      else
        std::printf(" %11" PRIu64 "/%-3" PRIu64, S.UnifySteps,
                    S.BranchPoints);
    }
    std::printf("\n");
  }
  std::printf("\nPaper reference: heuristic inference finishes in seconds; "
              "disabling the heuristics pushed most models past 12 hours. "
              "Rows showing '>cap' under 'naive' are that regime.\n\n");
}

//===--------------------------------------------------------------------===//
// --sweep-threads: the parallel H3 group search across thread counts
//===--------------------------------------------------------------------===//

/// Solves one constraint system with \p Threads H3 workers, setting
/// \p WallMs to the solve's wall time (building the system is not timed).
using SolveOnce = std::function<SolveStats(unsigned Threads, double &WallMs)>;

SolveStats timedSolve(types::TypeContext &TC,
                      const std::vector<Constraint> &Cs, unsigned Threads,
                      double &WallMs) {
  infer::InferenceEngine E(TC);
  SolveOptions O;
  O.NumThreads = Threads;
  auto Start = std::chrono::steady_clock::now();
  SolveStats S = E.solve(Cs, O);
  WallMs = std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - Start)
               .count();
  return S;
}

/// Solves one system once per thread count and reports wall time + speedup
/// over the serial (--jobs 1) solve. The solver merges group results
/// deterministically, so unify steps, branch points, and group counts must
/// match bit-for-bit across the sweep. Returns false, after printing the
/// row, if any solve failed or the work diverged.
bool sweepRow(const std::string &Name, const SolveOnce &Solve,
              const std::vector<unsigned> &ThreadCounts) {
  struct Sample {
    unsigned Threads;
    double WallMs;
    SolveStats Stats;
  };
  std::vector<Sample> Samples;
  for (unsigned T : ThreadCounts) {
    double Ms = 0;
    SolveStats S = Solve(T, Ms);
    if (!S.Success) {
      std::printf("%-26s UNEXPECTED FAILURE at j%u: %s\n", Name.c_str(), T,
                  S.FailMessage.c_str());
      return false;
    }
    Samples.push_back(Sample{T, Ms, std::move(S)});
  }

  bool Identical = true;
  for (const Sample &S : Samples)
    Identical &= S.Stats.UnifySteps == Samples.front().Stats.UnifySteps &&
                 S.Stats.BranchPoints == Samples.front().Stats.BranchPoints &&
                 S.Stats.NumComponents == Samples.front().Stats.NumComponents;

  std::printf("%-26s %6u groups %12" PRIu64 " steps |", Name.c_str(),
              Samples.front().Stats.NumComponents,
              Samples.front().Stats.UnifySteps);
  for (const Sample &S : Samples)
    std::printf("  j%-2u %8.2fms (%4.2fx)", S.Threads, S.WallMs,
                S.WallMs > 0 ? Samples.front().WallMs / S.WallMs : 0.0);
  std::printf("  work %s\n", Identical ? "identical" : "DIVERGED");
  return Identical;
}

/// Runs the sweep; returns false if any row failed or diverged.
bool runThreadSweep() {
  const std::vector<unsigned> ThreadCounts = {1, 2, 4, 8};
  std::printf("=== Parallel H3 group search: thread sweep (hardware "
              "threads: %u) ===\n\n",
              liberty::ThreadPool::getHardwareParallelism());
  std::printf("Speedups are wall-time of j1 over jN; 'work identical' "
              "asserts bit-equal unify-step/branch/group counts.\n\n");

  bool AllOk = true;
  auto Synthetic =
      [](std::function<std::vector<Constraint>(types::TypeContext &)> Make) {
        return [Make](unsigned Threads, double &WallMs) {
          types::TypeContext TC;
          std::vector<Constraint> Cs = Make(TC);
          return timedSolve(TC, Cs, Threads, WallMs);
        };
      };
  const std::pair<unsigned, unsigned> HardConfigs[] = {
      {4, 14}, {8, 14}, {16, 12}, {8, 16}};
  for (auto [G, K] : HardConfigs)
    AllOk &= sweepRow("hard-groups g=" + std::to_string(G) +
                          " k=" + std::to_string(K),
                      Synthetic([G = G, K = K](types::TypeContext &TC) {
                        return infer::makeDisjointHardGroups(TC, G, K);
                      }),
                      ThreadCounts);
  for (unsigned K : {64u, 256u})
    // H2 cannot settle either disjunct alone, so all K two-constraint
    // groups reach the partitioned search: many tiny groups, the
    // dispatch-overhead-bound regime.
    AllOk &= sweepRow("intersection k=" + std::to_string(K),
                      Synthetic([K](types::TypeContext &TC) {
                        return infer::makeIntersectionFamily(TC, K);
                      }),
                      ThreadCounts);

  std::printf("\n(real models: residual groups are few and small after "
              "H2, so these stay serial-dominated)\n");
  for (const std::string &Id : models::modelIds())
    AllOk &= sweepRow("model " + Id,
                      [&Id](unsigned Threads, double &WallMs) {
                        driver::Compiler C;
                        std::vector<Constraint> Cs = modelConstraints(Id, C);
                        return timedSolve(C.getTypeContext(), Cs, Threads,
                                          WallMs);
                      },
                      ThreadCounts);
  std::printf("\n");
  return AllOk;
}

//===--------------------------------------------------------------------===//
// google-benchmark: the fast (heuristic) side
//===--------------------------------------------------------------------===//

void BM_HeuristicModelInference(benchmark::State &State,
                                const std::string &Id) {
  // Elaborate once; re-solve each iteration on a fresh engine.
  driver::Compiler C;
  if (!models::loadModel(C, Id) || !C.elaborate()) {
    State.SkipWithError("model failed to elaborate");
    return;
  }
  std::vector<Constraint> Cs =
      infer::buildNetlistConstraints(*C.getNetlist(), C.getTypeContext());
  for (auto _ : State) {
    infer::InferenceEngine E(C.getTypeContext());
    SolveStats S = E.solve(Cs, SolveOptions());
    if (!S.Success)
      State.SkipWithError("unexpected inference failure");
    benchmark::DoNotOptimize(S.UnifySteps);
  }
  State.counters["constraints"] = Cs.size();
}

void BM_HeuristicForcedChain(benchmark::State &State) {
  unsigned N = State.range(0);
  for (auto _ : State) {
    types::TypeContext TC;
    std::vector<Constraint> Cs = infer::makeForcedChain(TC, N);
    infer::InferenceEngine E(TC);
    SolveStats S = E.solve(Cs, SolveOptions());
    benchmark::DoNotOptimize(S.Success);
  }
}
BENCHMARK(BM_HeuristicForcedChain)->Arg(64)->Arg(256)->Arg(1024);

} // namespace

int main(int argc, char **argv) {
  // --sweep-threads: run the parallel-solver sweep instead of the
  // heuristic-ablation table (strip the flag before benchmark::Initialize).
  bool SweepThreads = false;
  int W = 1;
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--sweep-threads") == 0)
      SweepThreads = true;
    else
      argv[W++] = argv[I];
  }
  argc = W;
  if (SweepThreads)
    return runThreadSweep() ? 0 : 1;

  printComparisonTable();
  for (const std::string &Id : models::modelIds())
    benchmark::RegisterBenchmark(("BM_HeuristicModelInference/" + Id).c_str(),
                                 [Id](benchmark::State &S) {
                                   BM_HeuristicModelInference(S, Id);
                                 });
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
