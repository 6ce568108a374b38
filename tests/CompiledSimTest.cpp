//===- CompiledSimTest.cpp - Compiled engine vs the interp oracle -------------===//
///
/// The compiled cycle kernel's correctness contract, enforced against the
/// interp engine (the reference oracle) two ways:
///
///  1. Differential sweeps (EngineMatrix.h): every synthetic family, every
///     paper model, and a wide-lanes stress model must have a bit-identical
///     observable record on both engines. Runs that observe only part of
///     the model (no collector, a mid-run attach, narrowed collectors) are
///     checked in SelectiveSimTest.cpp.
///  2. Golden coverage (GoldenTrace.*, also run as the golden_trace_diff
///     ctest entry): both engines must reproduce the digest fixtures and
///     the full-trace fixtures under tests/golden/. The full traces (a
///     uarch.lss-based model and the wide synthetic model) make a
///     regression fail with a readable trace diff rather than a bare hash
///     mismatch.
///
/// Run the binary with --regen-golden to rewrite every fixture from the
/// interp engine after an intentional trace change.
///
//===----------------------------------------------------------------------===//

#include "EngineMatrix.h"

#include "sim/CompiledKernel.h"

#include <fstream>

using namespace liberty;
using namespace simtest;

namespace {

bool GRegenGolden = false;

//===----------------------------------------------------------------------===//
// Differential: compiled == interp
//===----------------------------------------------------------------------===//

TEST(CompiledDifferential, SyntheticFamilies) {
  for (const SyntheticFamily &F : syntheticFamilies()) {
    SCOPED_TRACE(F.Name);
    expectAllEnginesMatch(std::string(F.Name) + ".lss", F.Text, F.Cycles);
  }
}

TEST(CompiledDifferential, AllPaperModels) {
  for (const std::string &Id : models::modelIds()) {
    SCOPED_TRACE("model " + Id);
    expectAllEnginesMatchModel(Id, 50);
  }
}

TEST(CompiledDifferential, WideLanes) {
  expectAllEnginesMatch("wide.lss", wideIndependentLanes(64), 30);
}

TEST(CompiledDifferential, GenericOpsAreExactlyTheCyclicGroups) {
  // Every singleton group lowers to a direct call of its behavior; only
  // multi-member groups (combinational cycles) keep evaluateGroup.
  auto Wide = compileSim("wide.lss", wideIndependentLanes(16),
                         engineOptions(sim::EngineKind::Compiled));
  ASSERT_NE(Wide, nullptr);
  const sim::KernelStats *KS = Wide->getSimulator()->getKernelStats();
  ASSERT_NE(KS, nullptr);
  EXPECT_EQ(KS->NumOps, Wide->getSimulator()->getBuildInfo().NumGroups);
  EXPECT_EQ(KS->NumGenericOps, 0u);

  unsigned Cyclic = 0;
  for (const SyntheticFamily &F : syntheticFamilies()) {
    SCOPED_TRACE(F.Name);
    auto C = compileSim(std::string(F.Name) + ".lss", F.Text,
                        engineOptions(sim::EngineKind::Compiled));
    ASSERT_NE(C, nullptr);
    const sim::Simulator::BuildInfo &BI = C->getSimulator()->getBuildInfo();
    const sim::KernelStats *FK = C->getSimulator()->getKernelStats();
    ASSERT_NE(FK, nullptr);
    EXPECT_EQ(FK->NumOps, BI.NumGroups);
    EXPECT_EQ(FK->NumGenericOps, BI.NumCyclicGroups);
    Cyclic += BI.NumCyclicGroups;
  }
  EXPECT_GT(Cyclic, 0u) << "no family lowers a generic op";
}

TEST(CompiledDifferential, InterpBuildsNoKernel) {
  auto C = compileSim("chain.lss", delayChain(4),
                      engineOptions(sim::EngineKind::Interp));
  ASSERT_NE(C, nullptr);
  EXPECT_EQ(C->getSimulator()->getKernelStats(), nullptr);
}

//===----------------------------------------------------------------------===//
// Golden fixtures
//===----------------------------------------------------------------------===//

/// Compares \p Got, one entry per line, with tests/golden/<File> and
/// reports the first diverging line. Under --regen-golden the interp
/// engine's record is written first, so the compiled engine is then
/// checked against the fresh fixture.
void checkFixture(const std::string &File, const std::string &Engine,
                  const std::vector<std::string> &Got) {
  std::string Path = std::string(LIBERTY_GOLDEN_DIR) + "/" + File;
  if (GRegenGolden && Engine == "interp") {
    std::ofstream Out(Path);
    ASSERT_TRUE(Out.good()) << "cannot write " << Path;
    for (const std::string &L : Got)
      Out << L << "\n";
    return;
  }
  std::ifstream In(Path);
  ASSERT_TRUE(In.good()) << "missing golden fixture " << Path
                         << " (run with --regen-golden to create it)";
  std::vector<std::string> Want;
  for (std::string L; std::getline(In, L);)
    Want.push_back(L);
  if (Got == Want)
    return;
  size_t N = std::min(Got.size(), Want.size());
  size_t First = N;
  for (size_t I = 0; I != N; ++I)
    if (Got[I] != Want[I]) {
      First = I;
      break;
    }
  ADD_FAILURE() << Engine << " engine diverges from " << Path << " ("
                << Want.size() << " golden lines, " << Got.size()
                << " actual); first difference at line " << First + 1
                << ":\n  golden: "
                << (First < Want.size() ? Want[First] : "<missing>")
                << "\n  actual: "
                << (First < Got.size() ? Got[First] : "<missing>")
                << "\nif the change is intentional, regenerate with "
                   "--regen-golden";
}

/// Full-trace fixture: every event line, a separator, then every final
/// net line.
std::vector<std::string> fullTraceLines(const TraceRecord &R) {
  std::vector<std::string> Lines = R.Events;
  Lines.push_back("--- final nets ---");
  Lines.insert(Lines.end(), R.FinalNets.begin(), R.FinalNets.end());
  return Lines;
}

TEST(GoldenTrace, SyntheticFamilies) {
  for (const SyntheticFamily &F : syntheticFamilies())
    for (const EngineConfig &E : engineMatrix()) {
      SCOPED_TRACE(std::string(F.Name) + " on " + E.Name);
      auto C = compileSim(std::string(F.Name) + ".lss", F.Text, E.Opts);
      ASSERT_NE(C, nullptr);
      checkFixture(std::string(F.Name) + ".trace", E.Name,
                   {goldenLine(runRecorded(*C, F.Cycles))});
    }
}

TEST(GoldenTrace, PaperModels) {
  for (const std::string &Id : models::modelIds())
    for (const EngineConfig &E : engineMatrix()) {
      SCOPED_TRACE("model " + Id + " on " + E.Name);
      driver::Compiler C;
      ASSERT_TRUE(buildModelSim(C, Id, E.Opts)) << C.diagnosticsText();
      checkFixture("model_" + Id + ".trace", E.Name,
                   {goldenLine(runRecorded(C, 50))});
    }
}

TEST(GoldenTrace, FullTraceUarchModel) {
  // Model A instantiates the uarch.lss component library, so this pins
  // both engines on the paper's shared building blocks.
  for (const EngineConfig &E : engineMatrix()) {
    SCOPED_TRACE(E.Name);
    driver::Compiler C;
    ASSERT_TRUE(buildModelSim(C, "a", E.Opts)) << C.diagnosticsText();
    checkFixture("full_model_a.fulltrace", E.Name,
                 fullTraceLines(runRecorded(C, 50)));
  }
}

TEST(GoldenTrace, FullTraceWideLanes) {
  for (const EngineConfig &E : engineMatrix()) {
    SCOPED_TRACE(E.Name);
    auto C = compileSim("wide.lss", wideIndependentLanes(64), E.Opts);
    ASSERT_NE(C, nullptr);
    checkFixture("full_wide_lanes_64.fulltrace", E.Name,
                 fullTraceLines(runRecorded(*C, 30)));
  }
}

} // namespace

int main(int argc, char **argv) {
  for (int I = 1; I < argc; ++I) {
    if (std::string(argv[I]) == "--regen-golden") {
      GRegenGolden = true;
      for (int J = I; J + 1 < argc; ++J)
        argv[J] = argv[J + 1];
      --argc;
      --I;
    }
  }
  testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
