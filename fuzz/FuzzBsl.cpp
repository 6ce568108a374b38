//===- FuzzBsl.cpp - Userpoint code fuzz target ---------------------------===//
///
/// \file
/// Compiles arbitrary bytes as the body of a userpoint with the corelib
/// arbiter's signature (mask, last, width) and runs it twice, as the
/// simulator would on two cycles, against fixed arguments, runtime
/// variables and parameters. This drives the shared evaluator core through
/// the userpoint environment: argument and runtime-variable writes,
/// read-only parameters, `return`, and the per-call step budget. Parse
/// and runtime diagnostics are fine; crashes, sanitizer reports, hangs,
/// and a changed parameter are bugs.
///
//===----------------------------------------------------------------------===//

#include "bsl/BslProgram.h"
#include "support/SourceMgr.h"

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

extern "C" int LLVMFuzzerTestOneInput(const uint8_t *Data, size_t Size) {
  using namespace liberty;
  using interp::Value;
  SourceMgr SM;
  DiagnosticEngine Diags(SM);
  Diags.setMaxErrors(32);
  auto P = bsl::BslProgram::compile(
      std::string(reinterpret_cast<const char *>(Data), Size),
      "userpoint:fuzz.policy", SM, Diags);
  if (!P)
    return 0;

  lss::UserpointSig Sig;
  for (const char *Name : {"mask", "last", "width"})
    Sig.Args.emplace_back(Name, nullptr);
  bsl::StateTable RuntimeVars;
  RuntimeVars["count"] = Value::makeInt(0);
  RuntimeVars["hist"] =
      Value::makeArray({Value::makeInt(0), Value::makeInt(0)});
  RuntimeVars["last_pc"] = Value::makeStruct({{"pc", Value::makeInt(4)}});
  std::map<std::string, Value> Params = {
      {"depth", Value::makeInt(16)},
      {"name", Value::makeString("arb")},
      {"scale", Value::makeFloat(0.5)},
      {"enabled", Value::makeBool(true)}};
  const std::map<std::string, Value> Before = Params;

  for (int Call = 0; Call != 2; ++Call) {
    std::vector<Value> Args = {Value::makeInt(0b1011), Value::makeInt(Call),
                               Value::makeInt(4)};
    (void)P->run(&Sig, Args, RuntimeVars, Params, Diags);
  }
  // Parameters are read-only to userpoint code (LANGUAGE.md section 8).
  for (const auto &[Name, V] : Before)
    if (!Params.at(Name).equals(V))
      __builtin_trap();
  return 0;
}
