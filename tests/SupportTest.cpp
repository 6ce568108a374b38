//===- SupportTest.cpp - SourceMgr and diagnostics tests -------------------------===//

#include "driver/Json.h"
#include "driver/Stats.h"
#include "support/Diagnostics.h"
#include "support/FaultInjection.h"
#include "support/PhaseTimer.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <sstream>

using namespace liberty;

namespace {

TEST(SourceMgr, LineColDecoding) {
  SourceMgr SM;
  uint32_t Id = SM.addBuffer("a.lss", "one\ntwo\n\nfour");
  auto LC = [&](uint32_t Off) { return SM.getLineCol(SourceLoc{Id, Off}); };
  EXPECT_EQ(LC(0).Line, 1u);
  EXPECT_EQ(LC(0).Col, 1u);
  EXPECT_EQ(LC(2).Col, 3u);
  EXPECT_EQ(LC(4).Line, 2u); // 't' of "two"
  EXPECT_EQ(LC(8).Line, 3u); // The blank line's newline slot.
  EXPECT_EQ(LC(9).Line, 4u);
  EXPECT_EQ(LC(12).Col, 4u);
}

TEST(SourceMgr, LineText) {
  SourceMgr SM;
  uint32_t Id = SM.addBuffer("a.lss", "first line\nsecond");
  EXPECT_EQ(SM.getLineText(SourceLoc{Id, 3}), "first line");
  EXPECT_EQ(SM.getLineText(SourceLoc{Id, 12}), "second");
}

TEST(SourceMgr, MultipleBuffers) {
  SourceMgr SM;
  uint32_t A = SM.addBuffer("a.lss", "aaa");
  uint32_t B = SM.addBuffer("b.lss", "bbb");
  EXPECT_NE(A, B);
  EXPECT_EQ(SM.getBufferName(A), "a.lss");
  EXPECT_EQ(SM.getBufferText(B), "bbb");
  EXPECT_EQ(SM.getLocString(SourceLoc{B, 1}), "b.lss:1:2");
}

TEST(SourceMgr, InvalidLocRendering) {
  SourceMgr SM;
  EXPECT_EQ(SM.getLocString(SourceLoc()), "<unknown>");
  EXPECT_EQ(SM.getLineText(SourceLoc()), "");
}

TEST(Diagnostics, CountsBySeverity) {
  SourceMgr SM;
  DiagnosticEngine D(SM);
  EXPECT_FALSE(D.hasErrors());
  D.warning(SourceLoc(), "w");
  EXPECT_FALSE(D.hasErrors());
  D.error(SourceLoc(), "e1");
  D.error(SourceLoc(), "e2");
  D.note(SourceLoc(), "n");
  EXPECT_TRUE(D.hasErrors());
  EXPECT_EQ(D.getNumErrors(), 2u);
  EXPECT_EQ(D.getNumWarnings(), 1u);
  EXPECT_EQ(D.getDiagnostics().size(), 4u);
  EXPECT_EQ(D.getFirstErrorMessage(), "e1");
  D.clear();
  EXPECT_FALSE(D.hasErrors());
  EXPECT_TRUE(D.getDiagnostics().empty());
}

TEST(Diagnostics, PrintShowsCaret) {
  SourceMgr SM;
  uint32_t Id = SM.addBuffer("a.lss", "instance x:nothing;");
  DiagnosticEngine D(SM);
  D.error(SourceLoc{Id, 11}, "unknown module 'nothing'");
  std::ostringstream OS;
  D.printAll(OS);
  std::string Out = OS.str();
  EXPECT_NE(Out.find("a.lss:1:12: error: unknown module 'nothing'"),
            std::string::npos);
  EXPECT_NE(Out.find("instance x:nothing;"), std::string::npos);
  EXPECT_NE(Out.find("^"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// ThreadPool
//===----------------------------------------------------------------------===//

TEST(ThreadPool, RunsEveryTask) {
  ThreadPool Pool(4);
  EXPECT_EQ(Pool.getThreadCount(), 4u);
  std::atomic<unsigned> Sum{0};
  for (unsigned I = 1; I <= 100; ++I)
    Pool.async([&Sum, I] { Sum += I; });
  Pool.wait();
  EXPECT_EQ(Sum.load(), 5050u);
}

TEST(ThreadPool, WaitIsReusable) {
  ThreadPool Pool(2);
  std::atomic<unsigned> Count{0};
  Pool.async([&] { ++Count; });
  Pool.wait();
  EXPECT_EQ(Count.load(), 1u);
  // The pool accepts and drains new work after a wait().
  Pool.async([&] { ++Count; });
  Pool.async([&] { ++Count; });
  Pool.wait();
  EXPECT_EQ(Count.load(), 3u);
}

TEST(ThreadPool, WaitWithNoWorkReturns) {
  ThreadPool Pool(2);
  Pool.wait(); // Must not deadlock on an empty queue.
}

TEST(ThreadPool, DestructorDropsUnstartedTasks) {
  // Deterministic shutdown: destroying the pool while the worker is held
  // inside the first task cancels the queued tasks before waiting, so
  // they never run. The releaser thread frees the worker only after the
  // destructor has had ample time to cancel the queue.
  std::atomic<unsigned> Count{0};
  std::atomic<bool> Go{false}, Started{false};
  std::jthread Releaser;
  {
    ThreadPool Pool(1);
    Pool.async([&] {
      Started = true;
      while (!Go)
        std::this_thread::yield();
      ++Count;
    });
    while (!Started)
      std::this_thread::yield();
    for (unsigned I = 0; I != 16; ++I)
      Pool.async([&Count] { ++Count; });
    Releaser = std::jthread([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      Go = true;
    });
  } // ~ThreadPool: cancels the 16 queued tasks, then waits for the blocker.
  EXPECT_EQ(Count.load(), 1u);
}

TEST(ThreadPool, DefaultSizeIsHardwareParallelism) {
  EXPECT_GE(ThreadPool::getHardwareParallelism(), 1u);
  ThreadPool Pool(0);
  EXPECT_EQ(Pool.getThreadCount(), ThreadPool::getHardwareParallelism());
}

//===----------------------------------------------------------------------===//
// PhaseTimer
//===----------------------------------------------------------------------===//

TEST(PhaseTimer, SameNameAccumulates) {
  PhaseTimer T;
  T.addWallTime("parse", 1.5);
  T.addWallTime("parse", 2.5);
  T.addWallTime("solve", 3.0);
  ASSERT_EQ(T.getPhases().size(), 2u);
  EXPECT_DOUBLE_EQ(T.findPhase("parse")->WallMs, 4.0);
  EXPECT_DOUBLE_EQ(T.findPhase("solve")->WallMs, 3.0);
  EXPECT_DOUBLE_EQ(T.totalWallMs(), 7.0);
  EXPECT_EQ(T.findPhase("missing"), nullptr);
}

TEST(PhaseTimer, PhasesKeepFirstUseOrder) {
  PhaseTimer T;
  T.addWallTime("b", 1.0);
  T.addWallTime("a", 1.0);
  T.addWallTime("b", 1.0);
  ASSERT_EQ(T.getPhases().size(), 2u);
  EXPECT_EQ(T.getPhases()[0].Name, "b");
  EXPECT_EQ(T.getPhases()[1].Name, "a");
}

TEST(PhaseTimer, CountersSetAndOverwrite) {
  PhaseTimer T;
  T.setCounter("solve", "unify_steps", 10);
  T.setCounter("solve", "unify_steps", 42);
  T.setCounter("solve", "groups", 3);
  const PhaseTimer::Phase *P = T.findPhase("solve");
  ASSERT_NE(P, nullptr);
  ASSERT_EQ(P->Counters.size(), 2u);
  EXPECT_EQ(P->Counters[0].Name, "unify_steps");
  EXPECT_EQ(P->Counters[0].Value, 42u);
  EXPECT_EQ(P->Counters[1].Value, 3u);
}

TEST(PhaseTimer, ScopeRecordsAndNullScopeIsNoop) {
  PhaseTimer T;
  {
    PhaseTimer::Scope S(&T, "work");
    EXPECT_GE(S.elapsedMs(), 0.0);
  }
  {
    PhaseTimer::Scope S(nullptr, "ignored"); // Must not crash.
  }
  ASSERT_NE(T.findPhase("work"), nullptr);
  EXPECT_EQ(T.findPhase("ignored"), nullptr);
  EXPECT_GE(T.findPhase("work")->WallMs, 0.0);
}

TEST(PhaseTimer, JsonOutputIsWellFormed) {
  PhaseTimer T;
  T.addWallTime("parse", 1.25);
  T.setCounter("solve", "groups", 2);
  std::string J = driver::phasesJson(T).dump();
  driver::Json Back;
  std::string Err;
  ASSERT_TRUE(driver::Json::parse(J, Back, &Err)) << Err;
  ASSERT_EQ(Back.items().size(), 2u);
  EXPECT_EQ(Back.items()[0].getString("name"), "parse");
  EXPECT_EQ(Back.items()[0].getNumber("wall_ms"), 1.25);
  EXPECT_EQ(Back.items()[1].getString("name"), "solve");
  EXPECT_EQ(Back.items()[1].getU64("groups"), 2u);
}

TEST(Json, EscapeString) {
  using driver::jsonEscapeString;
  EXPECT_EQ(jsonEscapeString("plain"), "plain");
  EXPECT_EQ(jsonEscapeString("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(jsonEscapeString("line\nbreak\ttab"), "line\\nbreak\\ttab");
}

TEST(Json, UnicodeEscapesDecodeToUtf8) {
  auto parsed = [](const std::string &Doc) {
    driver::Json J;
    std::string Err;
    EXPECT_TRUE(driver::Json::parse(Doc, J, &Err)) << Doc << ": " << Err;
    return J.getString("s");
  };
  const std::string Replacement = "\xef\xbf\xbd"; // U+FFFD
  EXPECT_EQ(parsed(R"({"s":"\u00e9"})"), "\xc3\xa9");
  EXPECT_EQ(parsed(R"({"s":"\ud83d\ude00"})"), "\xf0\x9f\x98\x80");
  // A lone high surrogate degrades to U+FFFD; the escape after it is a
  // character of its own and is kept.
  EXPECT_EQ(parsed(R"({"s":"\ud800\u0041"})"), Replacement + "A");
  EXPECT_EQ(parsed(R"({"s":"\ud800x"})"), Replacement + "x");
  EXPECT_EQ(parsed(R"({"s":"\udc00"})"), Replacement);

  // Control bytes are written as \u escapes and read back unchanged.
  const std::string Control = std::string("a\x01") + "b\x1f";
  std::string Doc = driver::Json::object().set("s", Control).dump();
  EXPECT_NE(Doc.find("\\u0001"), std::string::npos) << Doc;
  EXPECT_NE(Doc.find("\\u001f"), std::string::npos) << Doc;
  EXPECT_EQ(parsed(Doc), Control);
}

/// Clears the process-wide fault schedule around each test so one test's
/// rules can never leak into another (or into later suites).
class FaultInjectionTest : public ::testing::Test {
protected:
  void SetUp() override { FaultInjection::reset(); }
  void TearDown() override { FaultInjection::reset(); }
};

TEST_F(FaultInjectionTest, DisarmedIsAlwaysFalse) {
  EXPECT_FALSE(FaultInjection::armed());
  EXPECT_FALSE(faultShouldFail("cache.disk.write"));
  EXPECT_TRUE(FaultInjection::stats().empty());
}

TEST_F(FaultInjectionTest, EmptySpecDisarms) {
  ASSERT_TRUE(FaultInjection::configure("cache.disk.write"));
  EXPECT_TRUE(FaultInjection::armed());
  ASSERT_TRUE(FaultInjection::configure(""));
  EXPECT_FALSE(FaultInjection::armed());
  EXPECT_FALSE(faultShouldFail("cache.disk.write"));
}

TEST_F(FaultInjectionTest, AlwaysRuleFiresEveryHit) {
  ASSERT_TRUE(FaultInjection::configure("client.send"));
  EXPECT_TRUE(faultShouldFail("client.send"));
  EXPECT_TRUE(faultShouldFail("client.send"));
  EXPECT_FALSE(faultShouldFail("client.recv")); // Different site.
}

TEST_F(FaultInjectionTest, NthOnlyFiresExactlyOnce) {
  ASSERT_TRUE(FaultInjection::configure("cache.disk.rename@3"));
  EXPECT_FALSE(faultShouldFail("cache.disk.rename"));
  EXPECT_FALSE(faultShouldFail("cache.disk.rename"));
  EXPECT_TRUE(faultShouldFail("cache.disk.rename"));
  EXPECT_FALSE(faultShouldFail("cache.disk.rename"));
}

TEST_F(FaultInjectionTest, NthAndLaterStaysOn) {
  ASSERT_TRUE(FaultInjection::configure("daemon.recv@2+"));
  EXPECT_FALSE(faultShouldFail("daemon.recv"));
  EXPECT_TRUE(faultShouldFail("daemon.recv"));
  EXPECT_TRUE(faultShouldFail("daemon.recv"));
}

TEST_F(FaultInjectionTest, PrefixMatchCoversFamily) {
  ASSERT_TRUE(FaultInjection::configure("cache.disk.*@2+"));
  // The rule's hit counter is shared across the whole family.
  EXPECT_FALSE(faultShouldFail("cache.disk.open_write"));
  EXPECT_TRUE(faultShouldFail("cache.disk.write"));
  EXPECT_TRUE(faultShouldFail("cache.disk.rename"));
  EXPECT_FALSE(faultShouldFail("client.send"));
}

TEST_F(FaultInjectionTest, ProbabilityIsDeterministicPerSeed) {
  auto Run = [](const std::string &Spec) {
    EXPECT_TRUE(FaultInjection::configure(Spec));
    std::vector<bool> Out;
    for (int I = 0; I != 64; ++I)
      Out.push_back(faultShouldFail("serialize.netlist"));
    return Out;
  };
  std::vector<bool> A = Run("seed=7,serialize.netlist%50");
  std::vector<bool> B = Run("seed=7,serialize.netlist%50");
  std::vector<bool> C = Run("seed=8,serialize.netlist%50");
  EXPECT_EQ(A, B); // Same seed replays identically.
  EXPECT_NE(A, C); // Different seed is a different stream.
  // 50% over 64 draws should fire some but not all.
  size_t Fires = size_t(std::count(A.begin(), A.end(), true));
  EXPECT_GT(Fires, 0u);
  EXPECT_LT(Fires, 64u);
}

TEST_F(FaultInjectionTest, ProbabilityExtremes) {
  ASSERT_TRUE(FaultInjection::configure("a%0,b%100"));
  for (int I = 0; I != 16; ++I) {
    EXPECT_FALSE(faultShouldFail("a"));
    EXPECT_TRUE(faultShouldFail("b"));
  }
}

TEST_F(FaultInjectionTest, StatsCountHitsAndFires) {
  ASSERT_TRUE(FaultInjection::configure("x@2"));
  faultShouldFail("x");
  faultShouldFail("x");
  faultShouldFail("x");
  faultShouldFail("y"); // No matching rule: uncounted.
  std::vector<FaultInjection::SiteStats> St = FaultInjection::stats();
  ASSERT_EQ(St.size(), 1u);
  EXPECT_EQ(St[0].Site, "x");
  EXPECT_EQ(St[0].Hits, 3u);
  EXPECT_EQ(St[0].Fires, 1u);
}

TEST_F(FaultInjectionTest, MalformedSpecsRejectedOldScheduleKept) {
  ASSERT_TRUE(FaultInjection::configure("keep.me"));
  std::string Err;
  EXPECT_FALSE(FaultInjection::configure("site@0", &Err)); // Zero count.
  EXPECT_FALSE(Err.empty());
  EXPECT_FALSE(FaultInjection::configure("site@x", &Err));   // Non-numeric.
  EXPECT_FALSE(FaultInjection::configure("site%101", &Err)); // P > 100.
  EXPECT_FALSE(FaultInjection::configure("site@1%5", &Err)); // Mixed @ and %.
  EXPECT_FALSE(FaultInjection::configure("@3", &Err));       // Empty name.
  EXPECT_FALSE(FaultInjection::configure("seed=abc", &Err)); // Bad seed.
  // The previous schedule survived every failed configure.
  EXPECT_TRUE(FaultInjection::armed());
  EXPECT_TRUE(faultShouldFail("keep.me"));
}

TEST_F(FaultInjectionTest, RuleListWithWhitespaceAndSemicolons) {
  ASSERT_TRUE(FaultInjection::configure(" a@1 ; b%100 , seed=3 ,, "));
  EXPECT_TRUE(faultShouldFail("a"));
  EXPECT_FALSE(faultShouldFail("a"));
  EXPECT_TRUE(faultShouldFail("b"));
}

TEST_F(FaultInjectionTest, ResetClearsEverything) {
  ASSERT_TRUE(FaultInjection::configure("a"));
  faultShouldFail("a");
  FaultInjection::reset();
  EXPECT_FALSE(FaultInjection::armed());
  EXPECT_TRUE(FaultInjection::stats().empty());
}

} // namespace
