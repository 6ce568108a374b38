//===- Json.cpp - A small JSON value, parser and writer -----------------------===//

#include "driver/Json.h"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

using namespace liberty;
using namespace liberty::driver;

const std::string &Json::asString() const {
  static const std::string Empty;
  return K == Kind::String ? StrV : Empty;
}

Json &Json::set(const std::string &Key, Json V) {
  if (K != Kind::Object) {
    *this = object();
  }
  Obj[Key] = std::move(V);
  return *this;
}

const Json *Json::get(const std::string &Key) const {
  if (K != Kind::Object)
    return nullptr;
  auto It = Obj.find(Key);
  return It == Obj.end() ? nullptr : &It->second;
}

std::string Json::getString(const std::string &Key,
                            const std::string &Default) const {
  const Json *V = get(Key);
  return V && V->K == Kind::String ? V->StrV : Default;
}

double Json::getNumber(const std::string &Key, double Default) const {
  const Json *V = get(Key);
  return V && V->K == Kind::Number ? V->NumV : Default;
}

uint64_t Json::getU64(const std::string &Key, uint64_t Default) const {
  const Json *V = get(Key);
  return V ? V->asU64(Default) : Default; // Same strictness as asU64.
}

bool Json::getBool(const std::string &Key, bool Default) const {
  const Json *V = get(Key);
  return V && V->K == Kind::Bool ? V->BoolV : Default;
}

Json &Json::push(Json V) {
  if (K != Kind::Array)
    *this = array();
  Arr.push_back(std::move(V));
  return *this;
}

const std::vector<Json> &Json::items() const {
  static const std::vector<Json> Empty;
  return K == Kind::Array ? Arr : Empty;
}

std::string liberty::driver::jsonEscapeString(const std::string &S) {
  std::string Out;
  Out.reserve(S.size() + 8);
  for (unsigned char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (C < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += char(C);
      }
    }
  }
  return Out;
}

void Json::write(std::ostream &OS, int Depth) const {
  // Indented output puts each member or element on its own line, one
  // level deeper than its container; compact output (Depth < 0) does not.
  auto newline = [&](int Level) {
    if (Depth >= 0)
      OS << '\n' << std::string(2 * size_t(Level), ' ');
  };
  int Inner = Depth < 0 ? -1 : Depth + 1;
  switch (K) {
  case Kind::Null:
    OS << "null";
    break;
  case Kind::Bool:
    OS << (BoolV ? "true" : "false");
    break;
  case Kind::Number: {
    // Integers (the common case: ids, counters, budgets) print exactly;
    // other finite values print in the shortest form that round-trips.
    if (!std::isfinite(NumV)) {
      OS << "null";
    } else if (NumV >= -9.0e15 && NumV <= 9.0e15 &&
               double(int64_t(NumV)) == NumV) {
      OS << int64_t(NumV);
    } else {
      char Buf[32];
      OS << std::string_view(Buf,
                             std::to_chars(Buf, Buf + sizeof(Buf), NumV).ptr -
                                 Buf);
    }
    break;
  }
  case Kind::String:
    OS << '"' << jsonEscapeString(StrV) << '"';
    break;
  case Kind::Array: {
    OS << '[';
    for (size_t I = 0; I != Arr.size(); ++I) {
      if (I)
        OS << ',';
      newline(Inner);
      Arr[I].write(OS, Inner);
    }
    if (!Arr.empty())
      newline(Depth);
    OS << ']';
    break;
  }
  case Kind::Object: {
    OS << '{';
    bool First = true;
    for (const auto &[Key, Val] : Obj) {
      if (!First)
        OS << ',';
      First = false;
      newline(Inner);
      OS << '"' << jsonEscapeString(Key) << (Depth < 0 ? "\":" : "\": ");
      Val.write(OS, Inner);
    }
    if (!Obj.empty())
      newline(Depth);
    OS << '}';
    break;
  }
  }
}

void Json::writeIndented(std::ostream &OS) const {
  write(OS, 0);
  OS << '\n';
}

std::string Json::dump() const {
  std::ostringstream OS;
  write(OS);
  return OS.str();
}

namespace {

/// Strict recursive-descent JSON parser. Depth-capped: frames come off the
/// network, and 100k nested '[' must produce an error, not a stack
/// overflow (the same discipline as the LSS parser's MaxNestingDepth).
class JsonParser {
public:
  JsonParser(std::string_view Text) : Text(Text) {}

  bool parse(Json &Out, std::string *Err) {
    bool Ok = parseValue(Out, 0);
    if (Ok) {
      skipWhitespace();
      if (Pos != Text.size()) {
        fail("trailing characters after JSON document");
        Ok = false;
      }
    }
    if (!Ok && Err)
      *Err = Error.empty() ? "invalid JSON" : Error;
    return Ok;
  }

private:
  static constexpr unsigned MaxDepth = 128;

  void fail(const std::string &Why) {
    if (Error.empty())
      Error = Why + " at offset " + std::to_string(Pos);
  }

  void skipWhitespace() {
    while (Pos < Text.size() && (Text[Pos] == ' ' || Text[Pos] == '\t' ||
                                 Text[Pos] == '\n' || Text[Pos] == '\r'))
      ++Pos;
  }

  bool consume(char C) {
    if (Pos < Text.size() && Text[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }

  bool parseLiteral(std::string_view Lit) {
    if (Text.substr(Pos, Lit.size()) != Lit)
      return false;
    Pos += Lit.size();
    return true;
  }

  bool parseString(std::string &Out) {
    if (!consume('"')) {
      fail("expected '\"'");
      return false;
    }
    Out.clear();
    while (Pos < Text.size()) {
      unsigned char C = Text[Pos];
      if (C == '"') {
        ++Pos;
        return true;
      }
      if (C < 0x20) {
        fail("unescaped control character in string");
        return false;
      }
      if (C != '\\') {
        Out += char(C);
        ++Pos;
        continue;
      }
      // Escape sequence.
      if (++Pos >= Text.size())
        break;
      char E = Text[Pos++];
      switch (E) {
      case '"':
        Out += '"';
        break;
      case '\\':
        Out += '\\';
        break;
      case '/':
        Out += '/';
        break;
      case 'b':
        Out += '\b';
        break;
      case 'f':
        Out += '\f';
        break;
      case 'n':
        Out += '\n';
        break;
      case 'r':
        Out += '\r';
        break;
      case 't':
        Out += '\t';
        break;
      case 'u': {
        unsigned Code = 0;
        if (!parseHex4(Code))
          return false;
        // Combine a surrogate pair when one follows; a lone surrogate
        // degrades to U+FFFD rather than producing invalid UTF-8. An
        // escape after a lone high surrogate that is not a low surrogate
        // is left unread: it is a character of its own.
        if (Code >= 0xD800 && Code <= 0xDBFF &&
            Text.substr(Pos, 2) == "\\u") {
          size_t Escape = Pos;
          Pos += 2;
          unsigned Low = 0;
          if (!parseHex4(Low))
            return false;
          if (Low >= 0xDC00 && Low <= 0xDFFF) {
            Code = 0x10000 + ((Code - 0xD800) << 10) + (Low - 0xDC00);
          } else {
            Pos = Escape;
            Code = 0xFFFD;
          }
        } else if (Code >= 0xD800 && Code <= 0xDFFF) {
          Code = 0xFFFD;
        }
        appendUtf8(Out, Code);
        break;
      }
      default:
        fail("invalid escape sequence");
        return false;
      }
    }
    fail("unterminated string");
    return false;
  }

  bool parseHex4(unsigned &Code) {
    if (Pos + 4 > Text.size()) {
      fail("truncated \\u escape");
      return false;
    }
    Code = 0;
    for (int I = 0; I != 4; ++I) {
      char C = Text[Pos++];
      Code <<= 4;
      if (C >= '0' && C <= '9')
        Code |= unsigned(C - '0');
      else if (C >= 'a' && C <= 'f')
        Code |= unsigned(C - 'a' + 10);
      else if (C >= 'A' && C <= 'F')
        Code |= unsigned(C - 'A' + 10);
      else {
        fail("invalid \\u escape");
        return false;
      }
    }
    return true;
  }

  static void appendUtf8(std::string &Out, unsigned Code) {
    if (Code < 0x80) {
      Out += char(Code);
    } else if (Code < 0x800) {
      Out += char(0xC0 | (Code >> 6));
      Out += char(0x80 | (Code & 0x3F));
    } else if (Code < 0x10000) {
      Out += char(0xE0 | (Code >> 12));
      Out += char(0x80 | ((Code >> 6) & 0x3F));
      Out += char(0x80 | (Code & 0x3F));
    } else {
      Out += char(0xF0 | (Code >> 18));
      Out += char(0x80 | ((Code >> 12) & 0x3F));
      Out += char(0x80 | ((Code >> 6) & 0x3F));
      Out += char(0x80 | (Code & 0x3F));
    }
  }

  bool parseNumber(Json &Out) {
    size_t Start = Pos;
    if (consume('-')) {
    }
    while (Pos < Text.size() &&
           ((Text[Pos] >= '0' && Text[Pos] <= '9') || Text[Pos] == '.' ||
            Text[Pos] == 'e' || Text[Pos] == 'E' || Text[Pos] == '+' ||
            Text[Pos] == '-'))
      ++Pos;
    if (Pos == Start) {
      fail("expected a number");
      return false;
    }
    std::string Num(Text.substr(Start, Pos - Start));
    errno = 0;
    char *End = nullptr;
    double V = std::strtod(Num.c_str(), &End);
    if (End != Num.c_str() + Num.size() || errno == ERANGE) {
      fail("malformed number");
      return false;
    }
    Out = Json(V);
    return true;
  }

  bool parseValue(Json &Out, unsigned Depth) {
    if (Depth > MaxDepth) {
      fail("nesting too deep");
      return false;
    }
    skipWhitespace();
    if (Pos >= Text.size()) {
      fail("unexpected end of input");
      return false;
    }
    char C = Text[Pos];
    if (C == '{') {
      ++Pos;
      Out = Json::object();
      skipWhitespace();
      if (consume('}'))
        return true;
      for (;;) {
        skipWhitespace();
        std::string Key;
        if (!parseString(Key))
          return false;
        skipWhitespace();
        if (!consume(':')) {
          fail("expected ':'");
          return false;
        }
        Json Val;
        if (!parseValue(Val, Depth + 1))
          return false;
        Out.set(Key, std::move(Val));
        skipWhitespace();
        if (consume(','))
          continue;
        if (consume('}'))
          return true;
        fail("expected ',' or '}'");
        return false;
      }
    }
    if (C == '[') {
      ++Pos;
      Out = Json::array();
      skipWhitespace();
      if (consume(']'))
        return true;
      for (;;) {
        Json Val;
        if (!parseValue(Val, Depth + 1))
          return false;
        Out.push(std::move(Val));
        skipWhitespace();
        if (consume(','))
          continue;
        if (consume(']'))
          return true;
        fail("expected ',' or ']'");
        return false;
      }
    }
    if (C == '"') {
      std::string S;
      if (!parseString(S))
        return false;
      Out = Json(std::move(S));
      return true;
    }
    if (C == 't') {
      if (!parseLiteral("true")) {
        fail("expected 'true'");
        return false;
      }
      Out = Json(true);
      return true;
    }
    if (C == 'f') {
      if (!parseLiteral("false")) {
        fail("expected 'false'");
        return false;
      }
      Out = Json(false);
      return true;
    }
    if (C == 'n') {
      if (!parseLiteral("null")) {
        fail("expected 'null'");
        return false;
      }
      Out = Json();
      return true;
    }
    return parseNumber(Out);
  }

  std::string_view Text;
  size_t Pos = 0;
  std::string Error;
};

} // namespace

bool Json::parse(std::string_view Text, Json &Out, std::string *Err) {
  return JsonParser(Text).parse(Out, Err);
}
