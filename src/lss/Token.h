//===- Token.h - LSS token definitions --------------------------*- C++ -*-===//
///
/// \file
/// Token kinds produced by the LSS lexer. The token set covers the full LSS
/// surface used in the paper's figures: module declarations, parameters,
/// ports, userpoints, imperative control flow, connections (`->`), type
/// variables (`'a`), and disjunctive type annotations (`|`).
///
//===----------------------------------------------------------------------===//

#ifndef LIBERTY_LSS_TOKEN_H
#define LIBERTY_LSS_TOKEN_H

#include "support/SourceMgr.h"

#include <cstdint>
#include <string_view>
#include <type_traits>

namespace liberty {
namespace lss {

enum class TokenKind {
  Eof,
  Error,

  Identifier, ///< e.g. delays
  TypeVar,    ///< e.g. 'a (spelling excludes the quote)
  IntLiteral,
  FloatLiteral,
  StringLiteral,

  // Keywords.
  KwModule,
  KwParameter,
  KwInport,
  KwOutport,
  KwInstance,
  KwVar,
  KwRuntime,
  KwEvent,
  KwUserpoint,
  KwConstrain,
  KwIf,
  KwElse,
  KwFor,
  KwWhile,
  KwNew,
  KwReturn,
  KwBreak,
  KwContinue,
  KwStruct,
  KwEnum,
  KwRef,
  KwTrue,
  KwFalse,
  KwInt,
  KwBool,
  KwFloat,
  KwString,

  // Punctuation and operators.
  LBrace,
  RBrace,
  LParen,
  RParen,
  LBracket,
  RBracket,
  Semicolon,
  Colon,
  Comma,
  Dot,
  Assign,     ///< =
  Arrow,      ///< ->
  FatArrow,   ///< =>
  Pipe,       ///< |
  Plus,
  Minus,
  Star,
  Slash,
  Percent,
  Less,
  Greater,
  LessEq,
  GreaterEq,
  EqEq,
  NotEq,
  AmpAmp,
  PipePipe,
  Not,
};

/// Returns a human-readable name for \p Kind, used in parse diagnostics.
const char *tokenKindName(TokenKind Kind);

/// One lexed token; trivially copyable. \c Spelling carries the text for
/// identifiers and literals. It views the buffer text, except for a string
/// literal with escapes, whose decoded text lives in the Lexer. So a
/// spelling is valid only while both the SourceMgr buffer and the Lexer
/// are: whatever outlives the parse (the AST) copies it.
struct Token {
  TokenKind Kind = TokenKind::Eof;
  SourceLoc Loc;
  std::string_view Spelling;
  int64_t IntValue = 0;
  double FloatValue = 0.0;

  bool is(TokenKind K) const { return Kind == K; }
};

static_assert(std::is_trivially_copyable_v<Token>,
              "the parser copies a token per consume");

} // namespace lss
} // namespace liberty

#endif // LIBERTY_LSS_TOKEN_H
