//===- ToolTest.cpp - End-to-end lssc CLI tests ----------------------------------===//

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <string>

namespace {

#ifndef LSSC_PATH
#define LSSC_PATH "./lssc"
#endif
#ifndef LIBERTY_MODELS_DIR
#define LIBERTY_MODELS_DIR "models"
#endif

struct ToolResult {
  int ExitCode = -1;
  std::string Output;
};

/// Runs lssc with \p Args. \p Redirect picks the captured streams: by
/// default stderr is merged into stdout.
ToolResult runTool(const std::string &Args,
                   const char *Redirect = "2>&1") {
  ToolResult R;
  std::string Cmd = std::string(LSSC_PATH) + " " + Args + " " + Redirect;
  FILE *Pipe = popen(Cmd.c_str(), "r");
  if (!Pipe)
    return R;
  std::array<char, 4096> Buf;
  size_t N;
  while ((N = fread(Buf.data(), 1, Buf.size(), Pipe)) > 0)
    R.Output.append(Buf.data(), N);
  int Status = pclose(Pipe);
  R.ExitCode = WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
  return R;
}

std::string modelArgs(const char *Model) {
  return std::string(LIBERTY_MODELS_DIR) + "/uarch.lss " +
         LIBERTY_MODELS_DIR + "/" + Model;
}

TEST(Lssc, StatsAndRun) {
  ToolResult R = runTool("--stats --run 300 --watch 'core.r retire' " +
                         modelArgs("c.lss"));
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("Instances"), std::string::npos);
  EXPECT_NE(R.Output.find("ran 300 cycles"), std::string::npos);
  EXPECT_NE(R.Output.find("watch 'core.r retire':"), std::string::npos);
}

TEST(Lssc, EmitDotIsGraphviz) {
  ToolResult R = runTool("--emit-dot " + modelArgs("c.lss"));
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("digraph model {"), std::string::npos);
  EXPECT_NE(R.Output.find("cluster_n_core"), std::string::npos);
}

TEST(Lssc, EmitStaticFlattens) {
  ToolResult R = runTool("--emit-static " + modelArgs("c.lss"));
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_NE(R.Output.find("instance core.f : fetch;"), std::string::npos);
  EXPECT_NE(R.Output.find("setwidth"), std::string::npos);
}

/// Writes \p Text to \p Path for a tool invocation (overwriting).
void writeFile(const std::string &Path, const char *Text) {
  FILE *F = fopen(Path.c_str(), "w");
  ASSERT_NE(F, nullptr);
  fputs(Text, F);
  fclose(F);
}

TEST(Lssc, ErrorsHaveSourceLocations) {
  // A spec with an unknown-parameter assignment must fail with a located
  // diagnostic, not crash.
  std::string Bad = "/tmp/lssc_bad_test.lss";
  writeFile(Bad, "instance d:delay;\nd.bogus = 3;\n");
  ToolResult R = runTool(Bad);
  EXPECT_EQ(R.ExitCode, 3) << R.Output; // Parse/semantic errors exit 3.
  EXPECT_NE(R.Output.find("lssc_bad_test.lss:2"), std::string::npos)
      << R.Output;
  EXPECT_NE(R.Output.find("no parameter named 'bogus'"), std::string::npos);
  std::remove(Bad.c_str());
}

//===--------------------------------------------------------------------===//
// Documented exit codes (see the driver::ExitCode enum in
// src/driver/CompileVerdict.h): one test per code, so the contract
// 0/1/2/3/4/5 cannot silently drift.
//===--------------------------------------------------------------------===//

TEST(Lssc, MissingInputExitsOperational) {
  ToolResult R = runTool("/tmp/lssc_no_such_file_zz9.lss");
  EXPECT_EQ(R.ExitCode, 1) << R.Output;
  EXPECT_NE(R.Output.find("cannot open file"), std::string::npos);
}

TEST(Lssc, ParseErrorExitsWithParseCode) {
  // Two syntax errors; panic-mode recovery must report both (no
  // stop-at-first), and the exit code distinguishes parse failures.
  std::string Bad = "/tmp/lssc_parse_err.lss";
  writeFile(Bad, "module m { inport x int; };\n"
                 "module n { outport 5; };\n"
                 "instance q:m;\n");
  ToolResult R = runTool(Bad);
  EXPECT_EQ(R.ExitCode, 3) << R.Output;
  EXPECT_NE(R.Output.find("lssc_parse_err.lss:1"), std::string::npos)
      << R.Output;
  EXPECT_NE(R.Output.find("lssc_parse_err.lss:2"), std::string::npos)
      << R.Output;
  std::remove(Bad.c_str());
}

/// Disjoint overload sets on a connection: elaboration succeeds but no
/// type assignment exists.
const char *kUnsatSpec =
    "module src { outport out: 'a; constrain 'a : (int | bool);\n"
    "             tar_file = \"t/src\"; };\n"
    "module snk { inport in: 'a; constrain 'a : (float | string);\n"
    "             tar_file = \"t/snk\"; };\n"
    "instance s:src;\ninstance k:snk;\ns.out -> k.in;\n";

TEST(Lssc, InferenceFailureExitsWithInferenceCode) {
  std::string Bad = "/tmp/lssc_unsat.lss";
  writeFile(Bad, kUnsatSpec);
  ToolResult R = runTool(Bad);
  EXPECT_EQ(R.ExitCode, 4) << R.Output;
  EXPECT_NE(R.Output.find("type inference failed"), std::string::npos)
      << R.Output;
  std::remove(Bad.c_str());
}

TEST(Lssc, InferenceFailureReportsAnUnwritableStatsJson) {
  // The failure path still writes --stats-json; when the file cannot be
  // opened it says so, and the inference exit code stands.
  std::string Bad = "/tmp/lssc_unsat_stats.lss";
  writeFile(Bad, kUnsatSpec);
  ToolResult R = runTool("--stats-json /no/such/dir/x.json " + Bad);
  EXPECT_EQ(R.ExitCode, 4) << R.Output;
  EXPECT_NE(R.Output.find("lssc: cannot write '/no/such/dir/x.json'"),
            std::string::npos)
      << R.Output;
  EXPECT_NE(R.Output.find("type inference failed"), std::string::npos)
      << R.Output;
  std::remove(Bad.c_str());
}

TEST(Lssc, SimulationFaultExitsWithSimCode) {
  // arbiter <-> adder loop that never settles (the divergent-cycle model
  // from SimulatorTest): the fixpoint watchdog reports it and lssc exits
  // with the simulation-fault code.
  std::string Bad = "/tmp/lssc_divergent.lss";
  writeFile(Bad, "instance seed:const_source;\nseed.value = 1;\n"
                 "instance one:const_source;\none.value = 1;\n"
                 "instance arb:arbiter;\ninstance a:adder;\n"
                 "instance s:sink;\n"
                 "a.out -> arb.in[0];\nseed.out -> arb.in[1];\n"
                 "arb.out -> a.in1;\none.out -> a.in2;\na.out -> s.in;\n");
  ToolResult R = runTool("--run 1 " + std::string(Bad));
  EXPECT_EQ(R.ExitCode, 5) << R.Output;
  EXPECT_NE(R.Output.find("did not converge"), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("was still changing"), std::string::npos)
      << R.Output;
  std::remove(Bad.c_str());
}

TEST(Lssc, MaxErrorsCapsDiagnostics) {
  // Ten statements referencing a missing module, capped at 2 errors: the
  // shared DiagnosticEngine limit stops the flood and says how to raise it.
  std::string Bad = "/tmp/lssc_flood.lss";
  std::string Text;
  for (int I = 0; I != 10; ++I)
    Text += "instance i" + std::to_string(I) + ":nonexistent_module;\n";
  writeFile(Bad, Text.c_str());
  ToolResult R = runTool("--max-errors 2 " + std::string(Bad));
  EXPECT_EQ(R.ExitCode, 3) << R.Output;
  EXPECT_NE(R.Output.find("too many errors emitted"), std::string::npos)
      << R.Output;
  EXPECT_NE(R.Output.find("--max-errors"), std::string::npos) << R.Output;
}

TEST(Lssc, UnknownOptionRejected) {
  ToolResult R = runTool("--frobnicate " + modelArgs("c.lss"));
  EXPECT_EQ(R.ExitCode, 2);
  EXPECT_NE(R.Output.find("unknown option"), std::string::npos);
}

TEST(Lssc, NoInputsRejected) {
  ToolResult R = runTool("--stats");
  EXPECT_EQ(R.ExitCode, 2);
}

TEST(Lssc, SimEngineSelectsInterpOrCompiled) {
  ToolResult R = runTool("--run 5 " + modelArgs("c.lss"));
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("ran 5 cycles on the compiled engine"),
            std::string::npos)
      << R.Output;
  R = runTool("--run 5 --sim-engine interp " + modelArgs("c.lss"));
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("ran 5 cycles on the interp engine"),
            std::string::npos)
      << R.Output;
  R = runTool("--run 5 --sim-engine bogus " + modelArgs("c.lss"));
  EXPECT_EQ(R.ExitCode, 2) << R.Output;
}

TEST(Lssc, TraceOrderPrintsTheProcessingOrder) {
  ToolResult R = runTool("--trace-order " + modelArgs("c.lss"));
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("== instance processing order ==\n  <top>\n"),
            std::string::npos)
      << R.Output;
}

TEST(Lssc, TraceOrderDisablesTheCache) {
  // The processing order exists only in a live elaboration, so
  // --trace-order turns a requested cache off (with a note) and stores
  // nothing in it.
  char Dir[] = "/tmp/lssc_trace_cache_XXXXXX";
  ASSERT_NE(mkdtemp(Dir), nullptr);
  std::string Cache = std::string(Dir) + "/cache";
  ToolResult R = runTool("--trace-order --cache-dir " + Cache + " " +
                         modelArgs("c.lss"));
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("--trace-order disables the artifact cache"),
            std::string::npos)
      << R.Output;
  size_t Stored = 0;
  std::error_code EC;
  for (std::filesystem::recursive_directory_iterator It(Cache, EC), End;
       !EC && It != End; It.increment(EC))
    Stored += It->is_regular_file();
  EXPECT_EQ(Stored, 0u);
  std::string Cleanup = "rm -rf " + std::string(Dir);
  (void)!system(Cleanup.c_str());
}

TEST(Lssc, TimePhasesWritesATableToStderrOnly) {
  ToolResult Plain = runTool(modelArgs("c.lss"), "2>/dev/null");
  ToolResult Timed =
      runTool("--time-phases " + modelArgs("c.lss"), "2>/dev/null");
  ToolResult Err =
      runTool("--time-phases " + modelArgs("c.lss"), "2>&1 >/dev/null");
  EXPECT_EQ(Plain.ExitCode, 0) << Plain.Output;
  EXPECT_EQ(Timed.ExitCode, 0) << Timed.Output;
  EXPECT_EQ(Timed.Output, Plain.Output);
  EXPECT_NE(Err.Output.find("== compile phases =="), std::string::npos)
      << Err.Output;
  EXPECT_NE(Err.Output.find("\n  total "), std::string::npos) << Err.Output;
}

TEST(Lssc, StatsJsonToStdout) {
  ToolResult R = runTool("--stats-json - --run 10 " + modelArgs("c.lss"));
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  // The document carries all three observability sections, and because it
  // is emitted after --run, the sim-build phase is included.
  EXPECT_NE(R.Output.find("\"phases\": ["), std::string::npos);
  EXPECT_NE(R.Output.find("\"name\": \"sim-build\""), std::string::npos);
  EXPECT_NE(R.Output.find("\"inference\": {"), std::string::npos);
  EXPECT_NE(R.Output.find("\"unify_steps\":"), std::string::npos);
  EXPECT_NE(R.Output.find("\"reuse\": {"), std::string::npos);
}

TEST(Lssc, StatsJsonToFile) {
  std::string Path = "/tmp/lssc_stats_test.json";
  ToolResult R = runTool("--stats-json " + Path + " " + modelArgs("c.lss"));
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  std::string Content;
  if (FILE *F = fopen(Path.c_str(), "r")) {
    std::array<char, 4096> Buf;
    size_t N;
    while ((N = fread(Buf.data(), 1, Buf.size(), F)) > 0)
      Content.append(Buf.data(), N);
    fclose(F);
  }
  EXPECT_FALSE(Content.empty());
  EXPECT_EQ(Content.front(), '{');
  EXPECT_NE(Content.find("\"threads_used\":"), std::string::npos);
  std::remove(Path.c_str());
}

TEST(Lssc, SerialAndParallelSolveAgree) {
  // --jobs 1 and --jobs 4 must print byte-identical netlists: thread
  // count is not allowed to be observable in the compile result.
  ToolResult Serial =
      runTool("--jobs 1 --print-netlist " + modelArgs("c.lss"));
  ToolResult Parallel =
      runTool("--jobs 4 --print-netlist " + modelArgs("c.lss"));
  EXPECT_EQ(Serial.ExitCode, 0);
  EXPECT_EQ(Parallel.ExitCode, 0);
  EXPECT_EQ(Serial.Output, Parallel.Output);
}

TEST(Lssc, JobsRequiresPositiveCount) {
  ToolResult R = runTool("--jobs 0 " + modelArgs("c.lss"));
  EXPECT_EQ(R.ExitCode, 2);
  EXPECT_NE(R.Output.find("positive thread count"), std::string::npos);
}

} // namespace
