//===- Lexer.h - LSS lexer --------------------------------------*- C++ -*-===//
///
/// \file
/// Hand-written lexer for LSS. Supports `//` and `/* */` comments, decimal
/// and hex integer literals, float literals, escaped string literals, and
/// the `'ident` type-variable syntax from the paper.
///
//===----------------------------------------------------------------------===//

#ifndef LIBERTY_LSS_LEXER_H
#define LIBERTY_LSS_LEXER_H

#include "lss/Token.h"
#include "support/Diagnostics.h"

#include <forward_list>
#include <string>
#include <string_view>

namespace liberty {
namespace lss {

class Lexer {
public:
  /// Lexes buffer \p BufferId, which must already be registered with the
  /// SourceMgr behind \p Diags.
  Lexer(uint32_t BufferId, DiagnosticEngine &Diags);

  /// Returns the next token, advancing the lexer. Returns an Eof token at
  /// the end of input forever after. The token's spelling stays valid
  /// while the buffer and this lexer live (see Token).
  Token lex();

private:
  SourceLoc getLoc() const { return SourceLoc{BufferId, Pos}; }
  char peek(unsigned Ahead = 0) const;
  char advance();
  bool match(char Expected);
  void skipTrivia();

  Token makeToken(TokenKind Kind, SourceLoc Loc, std::string_view Spelling);
  Token lexIdentifierOrKeyword(SourceLoc Loc);
  Token lexNumber(SourceLoc Loc);
  Token lexString(SourceLoc Loc);
  Token lexTypeVar(SourceLoc Loc);

  uint32_t BufferId;
  DiagnosticEngine &Diags;
  std::string_view Text;
  uint32_t Pos = 0;
  /// Decoded text of the string literals that had escapes; a list, so a
  /// spelling that views one never moves.
  std::forward_list<std::string> Decoded;
};

} // namespace lss
} // namespace liberty

#endif // LIBERTY_LSS_LEXER_H
