//===- SelectiveSimTest.cpp - Selective instrumentation, both engines -----===//
///
/// What a collector observes must not depend on which engine runs the
/// model, nor on how much of the model is being observed. This file
/// checks that contract on the interp engine (the reference oracle) and
/// the compiled kernel (EngineMatrix.h) for selective observation:
///
///  - no collector at all, where the compiled kernel emits nothing and
///    only the final net values can be compared;
///  - a collector attached part-way through a run;
///  - collectors narrowed to an instance-path prefix or to one event name,
///    which must see exactly the matching slice of the full stream.
///
//===----------------------------------------------------------------------===//

#include "EngineMatrix.h"

using namespace liberty;
using namespace simtest;

namespace {

/// Field \p Idx of a recorder line "<cycle>|<path>|<event>|<payload>".
std::string field(const std::string &Line, int Idx) {
  size_t Begin = 0;
  for (int I = 0; I != Idx; ++I)
    Begin = Line.find('|', Begin) + 1;
  return Line.substr(Begin, Line.find('|', Begin) - Begin);
}

/// Like attachRecorder, but for the collector (\p PathPattern,
/// \p EventPattern) only.
void attachFilteredRecorder(sim::Simulator &Sim, const std::string &PathPattern,
                            const std::string &EventPattern,
                            std::vector<std::string> &Out) {
  Sim.getInstrumentation().attach(
      PathPattern, EventPattern, [&Out](const sim::Event &E) {
        std::ostringstream Line;
        Line << E.Cycle << '|' << *E.InstancePath << '|' << *E.Name << '|'
             << (E.Payload ? E.Payload->str() : "(null)");
        Out.push_back(Line.str());
      });
}

/// Runs the queue-with-stall model on every engine with a full recorder
/// and a (\p PathPattern, \p EventPattern) recorder side by side. The
/// narrowed stream must be the matching slice of the full stream,
/// non-empty, and identical across engines.
void expectFilteredSlice(const std::string &PathPattern,
                         const std::string &EventPattern) {
  std::vector<std::vector<std::string>> Slices;
  for (const EngineConfig &E : engineMatrix()) {
    SCOPED_TRACE(E.Name);
    auto C = compileSim("queue.lss", queueWithStall(), E.Opts);
    ASSERT_NE(C, nullptr);
    sim::Simulator *Sim = C->getSimulator();
    std::vector<std::string> All, Slice;
    attachRecorder(*Sim, All);
    attachFilteredRecorder(*Sim, PathPattern, EventPattern, Slice);
    Sim->reset();
    Sim->step(20);
    std::vector<std::string> Want;
    for (const std::string &L : All)
      if (sim::Instrumentation::matches(PathPattern, field(L, 1)) &&
          sim::Instrumentation::matches(EventPattern, field(L, 2)))
        Want.push_back(L);
    EXPECT_FALSE(Slice.empty());
    EXPECT_LT(Slice.size(), All.size());
    EXPECT_EQ(Slice, Want);
    Slices.push_back(std::move(Slice));
  }
  EXPECT_EQ(Slices.front(), Slices.back());
}

TEST(SelectiveInstrumentation, UninstrumentedFinalValuesMatch) {
  // Without collectors the compiled engine skips event emission entirely;
  // final values must still match the oracle.
  for (const SyntheticFamily &F : syntheticFamilies()) {
    SCOPED_TRACE(F.Name);
    std::vector<std::vector<std::string>> Finals;
    for (const EngineConfig &E : engineMatrix()) {
      auto C = compileSim(F.Name, F.Text, E.Opts);
      ASSERT_NE(C, nullptr) << E.Name;
      C->getSimulator()->step(F.Cycles);
      Finals.push_back(collectFinalNets(*C));
    }
    EXPECT_EQ(Finals.front(), Finals.back());
  }
}

TEST(SelectiveInstrumentation, MidRunAttachSeesFullStream) {
  // A collector attached part-way through a run must see exactly the
  // events the oracle emits from that cycle on.
  std::vector<std::vector<std::string>> Streams;
  for (const EngineConfig &E : engineMatrix()) {
    auto C = compileSim("farm.lss", lowActivityFarm(8), E.Opts);
    ASSERT_NE(C, nullptr) << E.Name;
    sim::Simulator *Sim = C->getSimulator();
    Sim->step(10); // Uninstrumented prefix.
    Streams.emplace_back();
    attachRecorder(*Sim, Streams.back());
    Sim->step(10);
  }
  EXPECT_FALSE(Streams.front().empty());
  EXPECT_EQ(Streams.front(), Streams.back());
}

TEST(SelectiveInstrumentation, PathPrefixCollectorSeesItsSlice) {
  // Only the queue: its port sends plus its enqueue/dequeue/full events.
  expectFilteredSlice("q*", "*");
}

TEST(SelectiveInstrumentation, EventNameCollectorSeesItsSlice) {
  // Only the queue's enqueue events, then every value sent on a port
  // named "out", model-wide.
  expectFilteredSlice("q", "enqueue");
  expectFilteredSlice("*", "port:out");
}

} // namespace
