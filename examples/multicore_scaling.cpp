//===- multicore_scaling.cpp - CMP scaling with a shared L2 ------------------===//
///
/// Model E's study, generalized: instantiate N copies of the same reusable
/// CPU core sharing one L2 (the memhier module sizes itself to the number
/// of requesters by use-based specialization — no per-N code changes), and
/// measure aggregate throughput and L2 pressure as the core count grows.
///
//===----------------------------------------------------------------------===//

#include "driver/Compiler.h"
#include "models/Models.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace liberty;

namespace {

std::string cmpSpec(int Cores, int InstrsPerCore) {
  std::string S;
  for (int C = 0; C != Cores; ++C) {
    std::string Name = "core" + std::to_string(C);
    S += "instance " + Name + ":cpu_core;\n";
    S += Name + ".fetch_width = 4;\n";
    S += Name + ".num_fus = 4;\n";
    S += Name + ".window = 16;\n";
    S += Name + ".inorder = false;\n";
    S += Name + ".icache_banks = 1;\n";
    S += Name + ".dcache_banks = 1;\n";
    S += Name + ".cache_sets = 64;\n";
    S += Name + ".cache_ways = 2;\n";
    S += Name + ".num_instrs = " + std::to_string(InstrsPerCore) + ";\n";
    S += Name + ".seed = " + std::to_string(100 + C) + ";\n";
  }
  // The shared hierarchy: 2 request ports per core; memhier's internal
  // structure (MSHR queues, L2 ports) scales automatically with the
  // connections made here.
  S += "instance mh:memhier;\nmh.l2_sets = 512;\nmh.l2_ways = 8;\n";
  S += "instance mhsink:sink;\nvar i:int;\n";
  for (int C = 0; C != Cores; ++C) {
    std::string Name = "core" + std::to_string(C);
    for (int P = 0; P != 2; ++P) {
      int Slot = C * 2 + P;
      S += Name + ".mem_addr[" + std::to_string(P) + "] -> mh.addr[" +
           std::to_string(Slot) + "];\n";
      S += "mh.ready[" + std::to_string(Slot) + "] -> mhsink.in[" +
           std::to_string(Slot) + "];\n";
    }
    S += "instance ret" + std::to_string(C) + ":sink;\n";
    S += Name + ".retired[0] -> ret" + std::to_string(C) + ".in;\n";
  }
  return S;
}

} // namespace

int main() {
  const int InstrsPerCore = 2000;
  const uint64_t Cycles = 2500;

  std::printf("=== CMP scaling: N reusable cores sharing one L2 ===\n\n");
  std::printf("%6s %10s %12s %14s %12s %12s\n", "cores", "instances",
              "retired", "instrs/cycle", "L2 lookups", "L2 misses");

  for (int N : {1, 2, 4, 8}) {
    driver::Compiler C;
    driver::CompilerInvocation Inv;
    if (!C.addCoreLibrary() || !C.addFile(models::uarchLssPath()) ||
        !C.addSource("cmp.lss", cmpSpec(N, InstrsPerCore)) ||
        !C.elaborate(Inv) || !C.inferTypes(Inv) || !C.buildSimulator(Inv)) {
      std::fprintf(stderr, "N=%d failed:\n%s", N,
                   C.diagnosticsText().c_str());
      return 1;
    }
    sim::Simulator *Sim = C.getSimulator();
    uint64_t &L2Hits = Sim->getInstrumentation().attachCounter("mh.l2", "hit");
    uint64_t &L2Miss =
        Sim->getInstrumentation().attachCounter("mh.l2", "miss");

    // Resolve each core's retired counter once up front: findState
    // returns a stable pointer into the leaf's state table, so the hot
    // loop below never repeats the name lookup.
    std::vector<interp::Value *> RetiredStates;
    for (int Core = 0; Core != N; ++Core)
      RetiredStates.push_back(Sim->findState(
          "core" + std::to_string(Core) + ".r", "retired"));

    Sim->step(Cycles);

    int64_t Retired = 0;
    for (interp::Value *V : RetiredStates)
      if (V && V->isInt())
        Retired += V->getInt();
    std::printf("%6d %10zu %12lld %14.3f %12llu %12llu\n", N,
                C.getNetlist()->getInstances().size() - 1,
                (long long)Retired, double(Retired) / double(Cycles),
                (unsigned long long)(L2Hits + L2Miss),
                (unsigned long long)L2Miss);
  }

  std::printf("\nthe memhier component re-sized itself for every N (2N "
              "requesters) purely from connectivity — the same use-based "
              "specialization that sized Model E's shared hierarchy.\n");
  return 0;
}
