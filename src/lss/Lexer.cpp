//===- Lexer.cpp - LSS lexer ----------------------------------------------===//

#include "lss/Lexer.h"

#include <array>
#include <cassert>
#include <charconv>
#include <cstdlib>
#include <iterator>

using namespace liberty;
using namespace liberty::lss;

const char *liberty::lss::tokenKindName(TokenKind Kind) {
  switch (Kind) {
  case TokenKind::Eof:
    return "end of file";
  case TokenKind::Error:
    return "invalid token";
  case TokenKind::Identifier:
    return "identifier";
  case TokenKind::TypeVar:
    return "type variable";
  case TokenKind::IntLiteral:
    return "integer literal";
  case TokenKind::FloatLiteral:
    return "float literal";
  case TokenKind::StringLiteral:
    return "string literal";
  case TokenKind::KwModule:
    return "'module'";
  case TokenKind::KwParameter:
    return "'parameter'";
  case TokenKind::KwInport:
    return "'inport'";
  case TokenKind::KwOutport:
    return "'outport'";
  case TokenKind::KwInstance:
    return "'instance'";
  case TokenKind::KwVar:
    return "'var'";
  case TokenKind::KwRuntime:
    return "'runtime'";
  case TokenKind::KwEvent:
    return "'event'";
  case TokenKind::KwUserpoint:
    return "'userpoint'";
  case TokenKind::KwConstrain:
    return "'constrain'";
  case TokenKind::KwIf:
    return "'if'";
  case TokenKind::KwElse:
    return "'else'";
  case TokenKind::KwFor:
    return "'for'";
  case TokenKind::KwWhile:
    return "'while'";
  case TokenKind::KwNew:
    return "'new'";
  case TokenKind::KwReturn:
    return "'return'";
  case TokenKind::KwBreak:
    return "'break'";
  case TokenKind::KwContinue:
    return "'continue'";
  case TokenKind::KwStruct:
    return "'struct'";
  case TokenKind::KwEnum:
    return "'enum'";
  case TokenKind::KwRef:
    return "'ref'";
  case TokenKind::KwTrue:
    return "'true'";
  case TokenKind::KwFalse:
    return "'false'";
  case TokenKind::KwInt:
    return "'int'";
  case TokenKind::KwBool:
    return "'bool'";
  case TokenKind::KwFloat:
    return "'float'";
  case TokenKind::KwString:
    return "'string'";
  case TokenKind::LBrace:
    return "'{'";
  case TokenKind::RBrace:
    return "'}'";
  case TokenKind::LParen:
    return "'('";
  case TokenKind::RParen:
    return "')'";
  case TokenKind::LBracket:
    return "'['";
  case TokenKind::RBracket:
    return "']'";
  case TokenKind::Semicolon:
    return "';'";
  case TokenKind::Colon:
    return "':'";
  case TokenKind::Comma:
    return "','";
  case TokenKind::Dot:
    return "'.'";
  case TokenKind::Assign:
    return "'='";
  case TokenKind::Arrow:
    return "'->'";
  case TokenKind::FatArrow:
    return "'=>'";
  case TokenKind::Pipe:
    return "'|'";
  case TokenKind::Plus:
    return "'+'";
  case TokenKind::Minus:
    return "'-'";
  case TokenKind::Star:
    return "'*'";
  case TokenKind::Slash:
    return "'/'";
  case TokenKind::Percent:
    return "'%'";
  case TokenKind::Less:
    return "'<'";
  case TokenKind::Greater:
    return "'>'";
  case TokenKind::LessEq:
    return "'<='";
  case TokenKind::GreaterEq:
    return "'>='";
  case TokenKind::EqEq:
    return "'=='";
  case TokenKind::NotEq:
    return "'!='";
  case TokenKind::AmpAmp:
    return "'&&'";
  case TokenKind::PipePipe:
    return "'||'";
  case TokenKind::Not:
    return "'!'";
  }
  return "unknown";
}

namespace {

struct Keyword {
  std::string_view Text;
  TokenKind Kind;
};

} // namespace

/// The keywords, sorted by length and then by first character, so the
/// candidates for one (length, first character) key are adjacent.
static constexpr Keyword Keywords[] = {
    {"if", TokenKind::KwIf},
    {"for", TokenKind::KwFor},
    {"int", TokenKind::KwInt},
    {"new", TokenKind::KwNew},
    {"ref", TokenKind::KwRef},
    {"var", TokenKind::KwVar},
    {"bool", TokenKind::KwBool},
    {"else", TokenKind::KwElse},
    {"enum", TokenKind::KwEnum},
    {"true", TokenKind::KwTrue},
    {"break", TokenKind::KwBreak},
    {"event", TokenKind::KwEvent},
    {"false", TokenKind::KwFalse},
    {"float", TokenKind::KwFloat},
    {"while", TokenKind::KwWhile},
    {"inport", TokenKind::KwInport},
    {"module", TokenKind::KwModule},
    {"return", TokenKind::KwReturn},
    {"string", TokenKind::KwString},
    {"struct", TokenKind::KwStruct},
    {"outport", TokenKind::KwOutport},
    {"runtime", TokenKind::KwRuntime},
    {"continue", TokenKind::KwContinue},
    {"instance", TokenKind::KwInstance},
    {"constrain", TokenKind::KwConstrain},
    {"parameter", TokenKind::KwParameter},
    {"userpoint", TokenKind::KwUserpoint},
};
static constexpr size_t NumKeywords = std::size(Keywords);
static constexpr size_t MaxKeywordLength = 9;

static constexpr bool keywordsAreSorted() {
  for (size_t I = 1; I != NumKeywords; ++I) {
    std::string_view A = Keywords[I - 1].Text, B = Keywords[I].Text;
    if (A.size() > B.size() || (A.size() == B.size() && A[0] > B[0]))
      return false;
    if (B.size() > MaxKeywordLength || B[0] < 'a' || B[0] > 'z')
      return false;
  }
  return true;
}
static_assert(keywordsAreSorted(), "keyword lookup needs the sort order");

/// KeywordStart[N][C - 'a'] is the index of the first keyword of length N
/// that starts with C, or NumKeywords if there is none.
static constexpr auto KeywordStart = [] {
  std::array<std::array<uint8_t, 26>, MaxKeywordLength + 1> Start{};
  for (auto &Row : Start)
    Row.fill(uint8_t(NumKeywords));
  for (size_t I = NumKeywords; I-- != 0;)
    Start[Keywords[I].Text.size()][Keywords[I].Text[0] - 'a'] = uint8_t(I);
  return Start;
}();

/// The keyword \p Word spells, or Identifier. Builds no string and hashes
/// nothing: the length and first character pick at most two candidates.
static TokenKind classifyWord(std::string_view Word) {
  if (Word.size() > MaxKeywordLength || Word[0] < 'a' || Word[0] > 'z')
    return TokenKind::Identifier;
  for (size_t I = KeywordStart[Word.size()][Word[0] - 'a']; I != NumKeywords;
       ++I) {
    const Keyword &K = Keywords[I];
    if (K.Text.size() != Word.size() || K.Text[0] != Word[0])
      break;
    if (K.Text == Word)
      return K.Kind;
  }
  return TokenKind::Identifier;
}

namespace {

/// Character classes of the lexer, over ASCII only: a byte of 128 or
/// more is in none of them, as under the "C" locale.
enum CharClass : uint8_t {
  IdentHead = 1, ///< [A-Za-z_]
  IdentTail = 2, ///< [A-Za-z0-9_]
  Digit = 4,     ///< [0-9]
  HexDigit = 8,  ///< [0-9A-Fa-f]
};

} // namespace

static constexpr auto CharClasses = [] {
  std::array<uint8_t, 256> Classes{};
  for (int C = 0; C != 256; ++C) {
    bool Lower = C >= 'a' && C <= 'z', Upper = C >= 'A' && C <= 'Z';
    bool Dec = C >= '0' && C <= '9';
    if (Lower || Upper || C == '_')
      Classes[C] |= IdentHead | IdentTail;
    if (Dec)
      Classes[C] |= IdentTail | Digit;
    if (Dec || (C >= 'a' && C <= 'f') || (C >= 'A' && C <= 'F'))
      Classes[C] |= HexDigit;
  }
  return Classes;
}();

static bool isIn(char C, CharClass Class) {
  return CharClasses[static_cast<unsigned char>(C)] & Class;
}

Lexer::Lexer(uint32_t BufferId, DiagnosticEngine &Diags)
    : BufferId(BufferId), Diags(Diags),
      Text(Diags.getSourceMgr().getBufferText(BufferId)) {}

char Lexer::peek(unsigned Ahead) const {
  return Pos + Ahead < Text.size() ? Text[Pos + Ahead] : '\0';
}

char Lexer::advance() {
  assert(Pos < Text.size() && "advanced past end of buffer");
  return Text[Pos++];
}

bool Lexer::match(char Expected) {
  if (peek() != Expected)
    return false;
  ++Pos;
  return true;
}

void Lexer::skipTrivia() {
  while (Pos < Text.size()) {
    char C = peek();
    if (C == ' ' || C == '\t' || C == '\r' || C == '\n') {
      ++Pos;
      continue;
    }
    if (C == '/' && peek(1) == '/') {
      while (Pos < Text.size() && peek() != '\n')
        ++Pos;
      continue;
    }
    if (C == '/' && peek(1) == '*') {
      SourceLoc Start = getLoc();
      Pos += 2;
      while (Pos < Text.size() && !(peek() == '*' && peek(1) == '/'))
        ++Pos;
      if (Pos >= Text.size()) {
        Diags.error(Start, "unterminated block comment");
        return;
      }
      Pos += 2;
      continue;
    }
    return;
  }
}

Token Lexer::makeToken(TokenKind Kind, SourceLoc Loc,
                       std::string_view Spelling) {
  Token T;
  T.Kind = Kind;
  T.Loc = Loc;
  T.Spelling = Spelling;
  return T;
}

Token Lexer::lexIdentifierOrKeyword(SourceLoc Loc) {
  uint32_t Start = Pos;
  while (Pos < Text.size() && isIn(Text[Pos], IdentTail))
    ++Pos;
  std::string_view Spelling = Text.substr(Start, Pos - Start);
  return makeToken(classifyWord(Spelling), Loc, Spelling);
}

Token Lexer::lexNumber(SourceLoc Loc) {
  uint32_t Start = Pos;
  int Base = 10;
  if (peek() == '0' && (peek(1) == 'x' || peek(1) == 'X')) {
    Base = 16;
    Pos += 2;
    while (isIn(peek(), HexDigit))
      ++Pos;
  } else {
    while (isIn(peek(), Digit))
      ++Pos;
  }
  bool IsFloat = false;
  if (Base == 10 && peek() == '.' && isIn(peek(1), Digit)) {
    IsFloat = true;
    ++Pos;
    while (isIn(peek(), Digit))
      ++Pos;
    if (peek() == 'e' || peek() == 'E') {
      ++Pos;
      if (peek() == '+' || peek() == '-')
        ++Pos;
      while (isIn(peek(), Digit))
        ++Pos;
    }
  }
  Token T = makeToken(IsFloat ? TokenKind::FloatLiteral
                              : TokenKind::IntLiteral,
                      Loc, Text.substr(Start, Pos - Start));
  if (IsFloat) {
    // The buffer is a NUL-terminated std::string, and strtod stops no
    // later than the spelling does (it takes an exponent only with
    // digits), so it reads the spelling in place.
    T.FloatValue = std::strtod(Text.data() + Start, nullptr);
    return T;
  }
  const char *First = Text.data() + Start + (Base == 16 ? 2 : 0);
  const char *Last = Text.data() + Pos;
  if (First == Last) {
    Diags.error(Loc, "expected hex digits after '0x'");
    return T;
  }
  auto [End, Ec] = std::from_chars(First, Last, T.IntValue, Base);
  if (Ec == std::errc::result_out_of_range) {
    T.IntValue = 0;
    Diags.error(Loc, "integer literal out of range");
  }
  assert((Ec != std::errc() || End == Last) && "lexed digits must parse");
  return T;
}

Token Lexer::lexString(SourceLoc Loc) {
  assert(peek() == '"');
  ++Pos;
  // A literal without escapes is its own spelling; only one with escapes
  // is decoded, into storage this lexer owns.
  uint32_t Start = Pos;
  while (Pos < Text.size() && Text[Pos] != '"' && Text[Pos] != '\\')
    ++Pos;
  if (Pos < Text.size() && Text[Pos] == '"') {
    ++Pos;
    return makeToken(TokenKind::StringLiteral, Loc,
                     Text.substr(Start, Pos - 1 - Start));
  }
  std::string &Value =
      Decoded.emplace_front(Text.substr(Start, Pos - Start));
  while (Pos < Text.size() && peek() != '"') {
    char C = advance();
    if (C != '\\') {
      Value.push_back(C);
      continue;
    }
    if (Pos >= Text.size())
      break;
    char Esc = advance();
    switch (Esc) {
    case 'n':
      Value.push_back('\n');
      break;
    case 't':
      Value.push_back('\t');
      break;
    case '\\':
      Value.push_back('\\');
      break;
    case '"':
      Value.push_back('"');
      break;
    default:
      Diags.warning(Loc, std::string("unknown escape sequence '\\") + Esc +
                             "' in string literal");
      Value.push_back(Esc);
      break;
    }
  }
  if (Pos >= Text.size()) {
    Diags.error(Loc, "unterminated string literal");
    return makeToken(TokenKind::Error, Loc, Value);
  }
  ++Pos; // Closing quote.
  return makeToken(TokenKind::StringLiteral, Loc, Value);
}

Token Lexer::lexTypeVar(SourceLoc Loc) {
  assert(peek() == '\'');
  ++Pos;
  if (!isIn(peek(), IdentHead)) {
    Diags.error(Loc, "expected identifier after ' in type variable");
    return makeToken(TokenKind::Error, Loc, "'");
  }
  uint32_t Start = Pos;
  while (Pos < Text.size() && isIn(Text[Pos], IdentTail))
    ++Pos;
  return makeToken(TokenKind::TypeVar, Loc, Text.substr(Start, Pos - Start));
}

Token Lexer::lex() {
  skipTrivia();
  SourceLoc Loc = getLoc();
  if (Pos >= Text.size())
    return makeToken(TokenKind::Eof, Loc, "");

  char C = peek();
  if (isIn(C, IdentHead))
    return lexIdentifierOrKeyword(Loc);
  if (isIn(C, Digit))
    return lexNumber(Loc);
  if (C == '"')
    return lexString(Loc);
  if (C == '\'')
    return lexTypeVar(Loc);

  ++Pos;
  switch (C) {
  case '{':
    return makeToken(TokenKind::LBrace, Loc, "{");
  case '}':
    return makeToken(TokenKind::RBrace, Loc, "}");
  case '(':
    return makeToken(TokenKind::LParen, Loc, "(");
  case ')':
    return makeToken(TokenKind::RParen, Loc, ")");
  case '[':
    return makeToken(TokenKind::LBracket, Loc, "[");
  case ']':
    return makeToken(TokenKind::RBracket, Loc, "]");
  case ';':
    return makeToken(TokenKind::Semicolon, Loc, ";");
  case ':':
    return makeToken(TokenKind::Colon, Loc, ":");
  case ',':
    return makeToken(TokenKind::Comma, Loc, ",");
  case '.':
    return makeToken(TokenKind::Dot, Loc, ".");
  case '+':
    return makeToken(TokenKind::Plus, Loc, "+");
  case '*':
    return makeToken(TokenKind::Star, Loc, "*");
  case '/':
    return makeToken(TokenKind::Slash, Loc, "/");
  case '%':
    return makeToken(TokenKind::Percent, Loc, "%");
  case '-':
    if (match('>'))
      return makeToken(TokenKind::Arrow, Loc, "->");
    return makeToken(TokenKind::Minus, Loc, "-");
  case '=':
    if (match('='))
      return makeToken(TokenKind::EqEq, Loc, "==");
    if (match('>'))
      return makeToken(TokenKind::FatArrow, Loc, "=>");
    return makeToken(TokenKind::Assign, Loc, "=");
  case '<':
    if (match('='))
      return makeToken(TokenKind::LessEq, Loc, "<=");
    return makeToken(TokenKind::Less, Loc, "<");
  case '>':
    if (match('='))
      return makeToken(TokenKind::GreaterEq, Loc, ">=");
    return makeToken(TokenKind::Greater, Loc, ">");
  case '!':
    if (match('='))
      return makeToken(TokenKind::NotEq, Loc, "!=");
    return makeToken(TokenKind::Not, Loc, "!");
  case '&':
    if (match('&'))
      return makeToken(TokenKind::AmpAmp, Loc, "&&");
    break;
  case '|':
    if (match('|'))
      return makeToken(TokenKind::PipePipe, Loc, "||");
    return makeToken(TokenKind::Pipe, Loc, "|");
  default:
    break;
  }
  Diags.error(Loc, std::string("unexpected character '") + C + "'");
  return makeToken(TokenKind::Error, Loc, Text.substr(Pos - 1, 1));
}
