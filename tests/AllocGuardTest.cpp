//===- AllocGuardTest.cpp - Parse and elaboration allocation budgets ------===//
///
/// Elaboration resolves names to slots (lss/Resolver.h) and keeps per-body
/// state in vectors indexed by them, so a module instance costs a handful
/// of heap allocations: its node, its port vector, its connections and
/// the types it mints. This test counts every global operator new while
/// a generated lane of 1,000 adders elaborates, and fails above 9
/// allocations per instance, so a return to per-name map or set nodes
/// (about 24 per instance) or to pending-connection lists that grow one
/// entry at a time (about 10) fails.
///
/// The front end allocates per file, not per token or node: spellings
/// borrow the buffer text and nodes live in the ASTContext's blocks. The
/// parse of the same lane must stay under 20 allocations per 1,000
/// tokens; a string per token or a heap node per node makes hundreds.
///
/// The counting operator new replaces the global one for this binary
/// only. The sanitizer builds replace it themselves, so CMake leaves this
/// test out of them.
///
//===----------------------------------------------------------------------===//

#include "driver/Compiler.h"
#include "lss/Parser.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <sstream>

using namespace liberty;

namespace {

std::atomic<bool> Counting{false};
std::atomic<uint64_t> NumAllocs{0};

} // namespace

void *operator new(std::size_t Size) {
  if (Counting.load(std::memory_order_relaxed))
    NumAllocs.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}

// GCC cannot see that the operator new above pairs with these.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
#pragma GCC diagnostic pop

namespace {

/// One lane of the overload_farm shape without its overload puzzle: a
/// chain of \p Adders adders into a sink, instantiated once.
std::string laneSource(unsigned Adders) {
  std::ostringstream OS;
  OS << "module lane {\n";
  for (unsigned I = 0; I != Adders; ++I)
    OS << "  instance a" << I << ":adder;\n";
  OS << "  instance k:sink;\n";
  for (unsigned I = 1; I != Adders; ++I)
    OS << "  a" << I - 1 << ".out -> a" << I << ".in1;\n";
  OS << "  a" << Adders - 1 << ".out -> k.in;\n";
  OS << "}\n";
  OS << "instance m0:lane;\n";
  return OS.str();
}

TEST(AllocGuard, ElaborationAllocatesFewTimesPerInstance) {
  driver::Compiler C;
  ASSERT_TRUE(C.addCoreLibrary());
  ASSERT_TRUE(C.addSource("lane.lss", laneSource(1000)));

  NumAllocs = 0;
  Counting = true;
  bool Ok = C.elaborate();
  Counting = false;
  ASSERT_TRUE(Ok) << C.diagnosticsText();

  // The lane, its 1,000 adders and the sink.
  const uint64_t Instances = C.getNetlist()->getInstances().size() - 1;
  ASSERT_EQ(Instances, 1002u);
  const double PerInstance = double(NumAllocs) / double(Instances);
  std::cout << NumAllocs << " allocations for " << Instances
            << " instances: " << PerInstance << " per instance\n";
  EXPECT_LE(PerInstance, 9.0);
}

TEST(AllocGuard, ParsingAllocatesFewTimesPerThousandTokens) {
  SourceMgr SM;
  DiagnosticEngine Diags(SM);
  uint32_t Id = SM.addBuffer("lane.lss", laneSource(1000));
  uint64_t Tokens = 0;
  for (lss::Lexer L(Id, Diags); !L.lex().is(lss::TokenKind::Eof);)
    ++Tokens;

  lss::ASTContext Ctx;
  NumAllocs = 0;
  Counting = true;
  lss::SpecFile File;
  {
    lss::Parser P(Id, Ctx, Diags);
    File = P.parseFile();
  }
  Counting = false;
  ASSERT_FALSE(Diags.hasErrors());
  ASSERT_EQ(File.Modules.size(), 1u);

  const double PerThousand = 1000.0 * double(NumAllocs) / double(Tokens);
  std::cout << NumAllocs << " allocations for " << Tokens
            << " tokens: " << PerThousand << " per 1,000 tokens\n";
  EXPECT_LE(PerThousand, 20.0);
}

} // namespace
