//===- BslProgram.h - Userpoint BSL programs --------------------*- C++ -*-===//
///
/// \file
/// The behavior-specification-language substrate for userpoint parameters.
/// The paper keeps the BSL abstract ("LSS is independent of the BSL"); this
/// implementation compiles userpoint code strings with the LSS parser's
/// statement grammar (plus `return`) and runs them at simulation time on
/// the same evaluator core as module bodies (interp/Evaluator), against
/// the instance's arguments, runtime variables, and parameters.
///
//===----------------------------------------------------------------------===//

#ifndef LIBERTY_BSL_BSLPROGRAM_H
#define LIBERTY_BSL_BSLPROGRAM_H

#include "bsl/StateTable.h"
#include "interp/Value.h"
#include "lss/AST.h"
#include "support/Diagnostics.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace liberty {
namespace bsl {

/// A compiled userpoint body.
class BslProgram {
public:
  /// Parses \p Code (registered with \p SM under \p BufferName so
  /// diagnostics point into the userpoint string). Returns null on parse
  /// errors, which are reported through \p Diags.
  static std::unique_ptr<BslProgram> compile(const std::string &Code,
                                             const std::string &BufferName,
                                             SourceMgr &SM,
                                             DiagnosticEngine &Diags);

  /// Executes the program once. \p Args are the call's arguments, named
  /// by position after \p Sig (null: no arguments); the program may
  /// assign them. \p RuntimeVars are writable and persist across calls;
  /// \p Params are read-only. The result is the value of the first
  /// executed `return`, or Unset if none runs. Runtime errors, including
  /// a spent per-call step budget, are reported through \p Diags
  /// (execution continues best-effort and returns Unset).
  interp::Value run(const lss::UserpointSig *Sig,
                    std::vector<interp::Value> &Args, StateTable &RuntimeVars,
                    const std::map<std::string, interp::Value> &Params,
                    DiagnosticEngine &Diags) const;

  const std::vector<lss::Stmt *> &getBody() const { return Body; }

private:
  BslProgram() = default;

  lss::ASTContext Ctx;
  std::vector<lss::Stmt *> Body;
  lss::BodyLayout Layout;
};

} // namespace bsl
} // namespace liberty

#endif // LIBERTY_BSL_BSLPROGRAM_H
