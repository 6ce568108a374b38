//===- LexerTest.cpp - LSS lexer unit tests -----------------------------------===//

#include "lss/Lexer.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <limits>
#include <memory>
#include <optional>
#include <utility>

using namespace liberty;
using namespace liberty::lss;

namespace {

/// The tokens of one source, kept with the SourceMgr and the Lexer that
/// their spellings view (an escaped string literal is spelled from the
/// lexer's own storage).
struct Lexed {
  SourceMgr SM;
  DiagnosticEngine Diags{SM};
  std::optional<Lexer> Lex;
  std::vector<Token> Toks;
};

/// Lexes all of \p Src.
std::unique_ptr<Lexed> lexAll(const std::string &Src) {
  auto R = std::make_unique<Lexed>();
  R->Lex.emplace(R->SM.addBuffer("test.lss", Src), R->Diags);
  while (true) {
    Token T = R->Lex->lex();
    if (T.is(TokenKind::Eof))
      break;
    R->Toks.push_back(T);
  }
  return R;
}

std::vector<TokenKind> kindsOf(const std::string &Src) {
  auto R = lexAll(Src);
  std::vector<TokenKind> Kinds;
  for (const Token &T : R->Toks)
    Kinds.push_back(T.Kind);
  EXPECT_FALSE(R->Diags.hasErrors());
  return Kinds;
}

TEST(Lexer, Keywords) {
  // Keywords sharing a length and first letter (else/enum, false/float,
  // string/struct) must not shadow each other.
  const std::pair<const char *, TokenKind> Cases[] = {
      {"module", TokenKind::KwModule},   {"parameter", TokenKind::KwParameter},
      {"inport", TokenKind::KwInport},   {"outport", TokenKind::KwOutport},
      {"instance", TokenKind::KwInstance}, {"var", TokenKind::KwVar},
      {"runtime", TokenKind::KwRuntime}, {"event", TokenKind::KwEvent},
      {"userpoint", TokenKind::KwUserpoint},
      {"constrain", TokenKind::KwConstrain}, {"if", TokenKind::KwIf},
      {"else", TokenKind::KwElse},       {"for", TokenKind::KwFor},
      {"while", TokenKind::KwWhile},     {"new", TokenKind::KwNew},
      {"return", TokenKind::KwReturn},   {"break", TokenKind::KwBreak},
      {"continue", TokenKind::KwContinue}, {"struct", TokenKind::KwStruct},
      {"enum", TokenKind::KwEnum},       {"ref", TokenKind::KwRef},
      {"true", TokenKind::KwTrue},       {"false", TokenKind::KwFalse},
      {"int", TokenKind::KwInt},         {"bool", TokenKind::KwBool},
      {"float", TokenKind::KwFloat},     {"string", TokenKind::KwString},
  };
  std::string Src;
  for (const auto &Case : Cases)
    Src += std::string(Case.first) + " ";
  auto K = kindsOf(Src);
  ASSERT_EQ(K.size(), std::size(Cases));
  for (size_t I = 0; I != K.size(); ++I)
    EXPECT_EQ(K[I], Cases[I].second) << Cases[I].first;
}

TEST(Lexer, IdentifiersAreNotKeywords) {
  // The second line holds near misses of keywords of the same length or
  // first letter.
  auto R = lexAll("modules in out delay3 _x x_1\n"
                  "i els elsf enumm Module fals floa strinG structs "
                  "parameters userpoin continues");
  const std::vector<Token> &Toks = R->Toks;
  ASSERT_EQ(Toks.size(), 18u);
  for (const Token &T : Toks)
    EXPECT_EQ(T.Kind, TokenKind::Identifier);
  EXPECT_EQ(Toks[3].Spelling, "delay3");
}

TEST(Lexer, IntLiterals) {
  auto R = lexAll("0 42 0x1F 123456789");
  const std::vector<Token> &Toks = R->Toks;
  ASSERT_EQ(Toks.size(), 4u);
  EXPECT_EQ(Toks[0].IntValue, 0);
  EXPECT_EQ(Toks[1].IntValue, 42);
  EXPECT_EQ(Toks[2].IntValue, 31);
  EXPECT_EQ(Toks[3].IntValue, 123456789);
}

TEST(Lexer, IntLiteralsAtTheLimit) {
  auto R = lexAll("9223372036854775807 0x7fffffffffffffff 007");
  const std::vector<Token> &Toks = R->Toks;
  EXPECT_FALSE(R->Diags.hasErrors());
  ASSERT_EQ(Toks.size(), 3u);
  EXPECT_EQ(Toks[0].IntValue, std::numeric_limits<int64_t>::max());
  EXPECT_EQ(Toks[1].IntValue, std::numeric_limits<int64_t>::max());
  EXPECT_EQ(Toks[2].IntValue, 7);
}

TEST(Lexer, IntLiteralOutOfRangeIsError) {
  // One past INT64_MAX, decimal and hex: each is diagnosed at the literal
  // and still lexes as one integer token, so parsing goes on.
  auto R = lexAll("x 99999999999999999999 9223372036854775808 "
                  "0x8000000000000000");
  const std::vector<Token> &Toks = R->Toks;
  ASSERT_EQ(Toks.size(), 4u);
  ASSERT_EQ(R->Diags.getNumErrors(), 3u);
  for (unsigned I = 1; I != 4; ++I) {
    EXPECT_EQ(Toks[I].Kind, TokenKind::IntLiteral);
    EXPECT_EQ(R->Diags.getDiagnostics()[I - 1].Message,
              "integer literal out of range");
    EXPECT_EQ(R->Diags.getDiagnostics()[I - 1].Loc, Toks[I].Loc);
  }
}

TEST(Lexer, HexPrefixWithoutDigitsIsError) {
  auto R = lexAll("0x 0Xg");
  const std::vector<Token> &Toks = R->Toks;
  ASSERT_EQ(Toks.size(), 3u);
  EXPECT_EQ(Toks[0].Kind, TokenKind::IntLiteral);
  EXPECT_EQ(Toks[1].Kind, TokenKind::IntLiteral);
  EXPECT_EQ(Toks[2].Spelling, "g");
  ASSERT_EQ(R->Diags.getNumErrors(), 2u);
  EXPECT_EQ(R->Diags.getFirstErrorMessage(), "expected hex digits after '0x'");
  EXPECT_EQ(R->Diags.getDiagnostics()[0].Loc, Toks[0].Loc);
  EXPECT_EQ(R->Diags.getDiagnostics()[1].Loc, Toks[1].Loc);
}

TEST(Lexer, FloatLiterals) {
  auto R = lexAll("1.5 0.25 2.5e3 1.0e-2");
  const std::vector<Token> &Toks = R->Toks;
  ASSERT_EQ(Toks.size(), 4u);
  EXPECT_DOUBLE_EQ(Toks[0].FloatValue, 1.5);
  EXPECT_DOUBLE_EQ(Toks[2].FloatValue, 2500.0);
  EXPECT_DOUBLE_EQ(Toks[3].FloatValue, 0.01);
}

TEST(Lexer, IntThenDotIsNotFloat) {
  // "delays[0].out": the '.' must not glue to the int.
  auto K = kindsOf("delays[0].out");
  std::vector<TokenKind> Expected = {TokenKind::Identifier,
                                     TokenKind::LBracket,
                                     TokenKind::IntLiteral,
                                     TokenKind::RBracket, TokenKind::Dot,
                                     TokenKind::Identifier};
  EXPECT_EQ(K, Expected);
}

TEST(Lexer, StringLiteralsAndEscapes) {
  auto R = lexAll(R"("hello" "a\nb" "q\"q" "\\")");
  const std::vector<Token> &Toks = R->Toks;
  ASSERT_EQ(Toks.size(), 4u);
  EXPECT_EQ(Toks[0].Spelling, "hello");
  EXPECT_EQ(Toks[1].Spelling, "a\nb");
  EXPECT_EQ(Toks[2].Spelling, "q\"q");
  EXPECT_EQ(Toks[3].Spelling, "\\");
}

TEST(Lexer, SpellingsViewTheBufferOrTheLexer) {
  // A spelling without escapes views the buffer text itself; a decoded
  // one lives in the lexer and stays put while later literals are lexed.
  auto R = lexAll(R"(name "plain" "a\tb" "c\"d")");
  const std::vector<Token> &Toks = R->Toks;
  ASSERT_EQ(Toks.size(), 4u);
  const std::string &Text = R->SM.getBufferText(Toks[0].Loc.BufferId);
  EXPECT_EQ(Toks[0].Spelling.data(), Text.data());
  EXPECT_EQ(Toks[1].Spelling.data(), Text.data() + 6);
  EXPECT_EQ(Toks[2].Spelling, "a\tb");
  EXPECT_EQ(Toks[3].Spelling, "c\"d");
}

TEST(Lexer, UnterminatedStringIsError) {
  EXPECT_TRUE(lexAll("\"never closed")->Diags.hasErrors());
}

TEST(Lexer, TypeVariables) {
  auto R = lexAll("'a 'foo 'x9");
  const std::vector<Token> &Toks = R->Toks;
  ASSERT_EQ(Toks.size(), 3u);
  EXPECT_EQ(Toks[0].Kind, TokenKind::TypeVar);
  EXPECT_EQ(Toks[0].Spelling, "a");
  EXPECT_EQ(Toks[1].Spelling, "foo");
  EXPECT_EQ(Toks[2].Spelling, "x9");
}

TEST(Lexer, BareQuoteIsError) {
  EXPECT_TRUE(lexAll("' ")->Diags.hasErrors());
}

TEST(Lexer, Operators) {
  auto K = kindsOf("-> => = == != < <= > >= + - * / % && || ! | . , ; :");
  std::vector<TokenKind> Expected = {
      TokenKind::Arrow,   TokenKind::FatArrow, TokenKind::Assign,
      TokenKind::EqEq,    TokenKind::NotEq,    TokenKind::Less,
      TokenKind::LessEq,  TokenKind::Greater,  TokenKind::GreaterEq,
      TokenKind::Plus,    TokenKind::Minus,    TokenKind::Star,
      TokenKind::Slash,   TokenKind::Percent,  TokenKind::AmpAmp,
      TokenKind::PipePipe, TokenKind::Not,     TokenKind::Pipe,
      TokenKind::Dot,     TokenKind::Comma,    TokenKind::Semicolon,
      TokenKind::Colon};
  EXPECT_EQ(K, Expected);
}

TEST(Lexer, LineComments) {
  auto K = kindsOf("a // comment -> ; all ignored\nb");
  std::vector<TokenKind> Expected = {TokenKind::Identifier,
                                     TokenKind::Identifier};
  EXPECT_EQ(K, Expected);
}

TEST(Lexer, BlockComments) {
  auto K = kindsOf("a /* multi\nline\ncomment */ b");
  std::vector<TokenKind> Expected = {TokenKind::Identifier,
                                     TokenKind::Identifier};
  EXPECT_EQ(K, Expected);
}

TEST(Lexer, UnterminatedBlockComment) {
  EXPECT_TRUE(lexAll("a /* never closed")->Diags.hasErrors());
}

TEST(Lexer, UnknownCharacter) {
  EXPECT_TRUE(lexAll("a @ b")->Diags.hasErrors());
}

TEST(Lexer, LocationsAreAccurate) {
  auto R = lexAll("ab\n  cd");
  const std::vector<Token> &Toks = R->Toks;
  ASSERT_EQ(Toks.size(), 2u);
  LineCol L0 = R->SM.getLineCol(Toks[0].Loc);
  LineCol L1 = R->SM.getLineCol(Toks[1].Loc);
  EXPECT_EQ(L0.Line, 1u);
  EXPECT_EQ(L0.Col, 1u);
  EXPECT_EQ(L1.Line, 2u);
  EXPECT_EQ(L1.Col, 3u);
}

TEST(Lexer, ArrowVsMinus) {
  auto K = kindsOf("a-b a->b a - > b");
  std::vector<TokenKind> Expected = {
      TokenKind::Identifier, TokenKind::Minus,   TokenKind::Identifier,
      TokenKind::Identifier, TokenKind::Arrow,   TokenKind::Identifier,
      TokenKind::Identifier, TokenKind::Minus,   TokenKind::Greater,
      TokenKind::Identifier};
  EXPECT_EQ(K, Expected);
}

TEST(Lexer, FatArrowVsAssign) {
  auto K = kindsOf("= => == =");
  std::vector<TokenKind> Expected = {TokenKind::Assign, TokenKind::FatArrow,
                                     TokenKind::EqEq, TokenKind::Assign};
  EXPECT_EQ(K, Expected);
}

} // namespace
