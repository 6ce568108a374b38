//===- bench_ir.cpp - Dense netlist IR benchmark (BENCH_ir.json) --------------===//
///
/// Measures the dense netlist IR at scale. For synthetic workloads of
/// 1k/4k/10k leaf instances (infer::buildSyntheticNetlist):
///
///  - elaboration: netlist construction plus freezeIds() id assignment;
///  - constraint generation: infer::buildNetlistConstraints;
///  - LSSNL artifact bytes;
///  - warm cache load: deserializeNetlist wall time.
///
/// Results go to BENCH_ir.json (override with --out FILE). --smoke runs
/// only the 1k point — it is the bench_smoke ctest entry, so it must stay
/// fast. Every run exits nonzero on a missing record key
/// (bench::writeRecord) or a degenerate (zero) measurement.
///
//===----------------------------------------------------------------------===//

#include "BenchRecord.h"

#include "driver/Json.h"
#include "infer/InferenceEngine.h"
#include "infer/Synthetic.h"
#include "netlist/Netlist.h"
#include "netlist/Serializer.h"
#include "support/Diagnostics.h"
#include "types/TypeContext.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <set>
#include <string>
#include <vector>

using namespace liberty;
using infer::Constraint;

namespace {

/// Best-of-N wall time in milliseconds. Best-of (not mean) because the
/// quantities compared are deterministic work; the minimum is the run
/// least disturbed by the machine.
double bestOf(unsigned Reps, const std::function<void()> &Fn) {
  double Best = 1e300;
  for (unsigned I = 0; I != Reps; ++I) {
    auto T0 = std::chrono::steady_clock::now();
    Fn();
    Best = std::min(Best, bench::msSince(T0));
  }
  return Best;
}

struct SizeResult {
  unsigned Instances = 0;
  unsigned Lanes = 0;
  unsigned DisjunctPermille = 0;
  unsigned Ports = 0;
  unsigned Connections = 0;
  unsigned Constraints = 0;
  double ElaborateMs = 0;
  double GenDenseMs = 0;
  double LssnlBytes = 0;
  double LoadMs = 0;
};

SizeResult runSize(unsigned Instances, unsigned Reps) {
  SizeResult R;
  infer::SyntheticNetlistSpec Spec;
  Spec.Instances = Instances;
  R.Instances = Instances;
  R.Lanes = Spec.Lanes;
  R.DisjunctPermille = Spec.DisjunctPermille;

  // Elaboration: build-and-discard per rep so each run pays the full
  // construction and id-assignment cost on a fresh netlist.
  R.ElaborateMs = bestOf(Reps, [&] {
    types::TypeContext TC;
    netlist::Netlist NL;
    infer::buildSyntheticNetlist(NL, TC, Spec);
  });

  types::TypeContext TC;
  netlist::Netlist NL;
  infer::buildSyntheticNetlist(NL, TC, Spec);
  for (const auto &Inst : NL.getInstances())
    R.Ports += unsigned(Inst->Ports.size());
  R.Connections = unsigned(NL.getConnections().size());

  std::vector<Constraint> Cs;
  R.GenDenseMs =
      bestOf(Reps, [&] { Cs = infer::buildNetlistConstraints(NL, TC); });
  R.Constraints = unsigned(Cs.size());

  std::set<std::string> LibraryModules;
  std::vector<Diagnostic> NoDiags;
  std::string Lssnl;
  if (!netlist::serializeNetlist(NL, LibraryModules, 0, NoDiags, Lssnl)) {
    std::fprintf(stderr, "bench_ir: serialization failed at %u instances\n",
                 Instances);
    return R;
  }
  R.LssnlBytes = double(Lssnl.size());

  R.LoadMs = bestOf(Reps + 2, [&] {
    types::TypeContext LoadTC;
    netlist::SerializedCompile SC = netlist::deserializeNetlist(Lssnl, LoadTC);
    if (!SC.NL)
      std::fprintf(stderr, "bench_ir: artifact reload failed\n");
  });
  return R;
}

void printRow(const SizeResult &R) {
  std::printf("%9u %9.2f %11.2f %12.0f %9.2f\n", R.Instances, R.ElaborateMs,
              R.GenDenseMs, R.LssnlBytes, R.LoadMs);
}

/// The record: one element of "sizes" per measured size.
driver::Json record(const std::vector<SizeResult> &Rows, bool Smoke) {
  driver::Json Sizes = driver::Json::array();
  for (const SizeResult &R : Rows)
    Sizes.push(driver::Json::object()
                   .set("instances", R.Instances)
                   .set("lanes", R.Lanes)
                   .set("disjunct_permille", R.DisjunctPermille)
                   .set("ports", R.Ports)
                   .set("connections", R.Connections)
                   .set("constraints", R.Constraints)
                   .set("elaborate_ms", R.ElaborateMs)
                   .set("constraint_gen_dense_ms", R.GenDenseMs)
                   .set("lssnl_bytes", R.LssnlBytes)
                   .set("warm_load_ms", R.LoadMs));
  driver::Json J = driver::Json::object();
  J.set("bench", "ir").set("smoke", Smoke).set("sizes", std::move(Sizes));
  return J;
}

} // namespace

int main(int argc, char **argv) {
  bool Smoke = false;
  std::string OutPath = "BENCH_ir.json";
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--smoke") == 0)
      Smoke = true;
    else if (std::strcmp(argv[I], "--out") == 0 && I + 1 < argc)
      OutPath = argv[++I];
    else {
      std::fprintf(stderr, "usage: %s [--smoke] [--out FILE]\n", argv[0]);
      return 2;
    }
  }

  std::vector<unsigned> Sizes =
      Smoke ? std::vector<unsigned>{1000}
            : std::vector<unsigned>{1000, 4000, 10000};
  const unsigned Reps = Smoke ? 2 : 5;

  std::printf("Dense netlist IR benchmark (%s)\n",
              Smoke ? "smoke: 1k point only" : "1k/4k/10k");
  std::printf("%9s %9s %11s %12s %9s\n", "instances", "elab_ms",
              "gen_dense", "lssnl_bytes", "load_ms");
  std::vector<SizeResult> Rows;
  for (unsigned N : Sizes) {
    Rows.push_back(runSize(N, Reps));
    printRow(Rows.back());
  }

  // The bench_smoke ctest gate: a renamed or dropped field fails the run.
  if (!bench::writeRecord(OutPath, record(Rows, Smoke),
                          {{"bench", "smoke"},
                           "sizes",
                           {"instances", "constraints", "elaborate_ms",
                            "constraint_gen_dense_ms", "lssnl_bytes",
                            "warm_load_ms"}}))
    return 1;
  std::printf("wrote %s\n", OutPath.c_str());

  const SizeResult &Last = Rows.back();
  if (Last.Constraints == 0 || Last.LssnlBytes == 0 || Last.GenDenseMs <= 0 ||
      Last.LoadMs <= 0) {
    std::fprintf(stderr, "bench_ir: degenerate measurements\n");
    return 1;
  }
  return 0;
}
