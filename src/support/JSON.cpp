//===- support/JSON.cpp - Minimal JSON reader ------------------------------===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/JSON.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>

using namespace alive;

const JSONValue *JSONValue::find(const std::string &Key) const {
  if (K != Object)
    return nullptr;
  for (const auto &[Name, Value] : Obj)
    if (Name == Key)
      return &Value;
  return nullptr;
}

std::string JSONValue::getString(const std::string &Key,
                                 const std::string &Default) const {
  const JSONValue *V = find(Key);
  return V && V->K == String ? V->Str : Default;
}

uint64_t JSONValue::getUInt(const std::string &Key, uint64_t Default) const {
  const JSONValue *V = find(Key);
  if (!V || V->K != Number)
    return Default;
  return V->IsInt ? V->Int : (uint64_t)V->Num;
}

bool JSONValue::getBool(const std::string &Key, bool Default) const {
  const JSONValue *V = find(Key);
  return V && V->K == Bool ? V->B : Default;
}

namespace {

class Parser {
public:
  Parser(const std::string &Text, std::string &Error)
      : Text(Text), Error(Error) {}

  bool parse(JSONValue &Out) {
    skipWS();
    if (!parseValue(Out))
      return false;
    skipWS();
    if (Pos != Text.size())
      return fail("trailing characters after document");
    return true;
  }

private:
  bool fail(const std::string &Msg) {
    Error = "JSON parse error at offset " + std::to_string(Pos) + ": " + Msg;
    return false;
  }

  void skipWS() {
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

  bool literal(const char *Word) {
    size_t Len = std::char_traits<char>::length(Word);
    if (Text.compare(Pos, Len, Word) != 0)
      return fail(std::string("expected '") + Word + "'");
    Pos += Len;
    return true;
  }

  bool parseValue(JSONValue &Out) {
    if (Pos >= Text.size())
      return fail("unexpected end of input");
    switch (Text[Pos]) {
    case '{':
      return parseObject(Out);
    case '[':
      return parseArray(Out);
    case '"':
      Out.K = JSONValue::String;
      return parseString(Out.Str);
    case 't':
      Out.K = JSONValue::Bool;
      Out.B = true;
      return literal("true");
    case 'f':
      Out.K = JSONValue::Bool;
      Out.B = false;
      return literal("false");
    case 'n':
      Out.K = JSONValue::Null;
      return literal("null");
    default:
      return parseNumber(Out);
    }
  }

  bool parseObject(JSONValue &Out) {
    Out.K = JSONValue::Object;
    ++Pos; // '{'
    skipWS();
    if (consume('}'))
      return true;
    for (;;) {
      skipWS();
      std::string Key;
      if (Pos >= Text.size() || Text[Pos] != '"')
        return fail("expected object key string");
      if (!parseString(Key))
        return false;
      skipWS();
      if (!consume(':'))
        return fail("expected ':' after object key");
      skipWS();
      JSONValue V;
      if (!parseValue(V))
        return false;
      Out.Obj.emplace_back(std::move(Key), std::move(V));
      skipWS();
      if (consume(','))
        continue;
      if (consume('}'))
        return true;
      return fail("expected ',' or '}' in object");
    }
  }

  bool parseArray(JSONValue &Out) {
    Out.K = JSONValue::Array;
    ++Pos; // '['
    skipWS();
    if (consume(']'))
      return true;
    for (;;) {
      skipWS();
      JSONValue V;
      if (!parseValue(V))
        return false;
      Out.Arr.push_back(std::move(V));
      skipWS();
      if (consume(','))
        continue;
      if (consume(']'))
        return true;
      return fail("expected ',' or ']' in array");
    }
  }

  bool parseString(std::string &Out) {
    ++Pos; // '"'
    Out.clear();
    while (Pos < Text.size()) {
      char C = Text[Pos++];
      if (C == '"')
        return true;
      if (C != '\\') {
        Out += C;
        continue;
      }
      if (Pos >= Text.size())
        break;
      char E = Text[Pos++];
      switch (E) {
      case '"':
      case '\\':
      case '/':
        Out += E;
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
        if (Pos + 4 > Text.size())
          return fail("truncated \\u escape");
        unsigned Code = 0;
        for (int I = 0; I != 4; ++I) {
          char H = Text[Pos++];
          Code <<= 4;
          if (H >= '0' && H <= '9')
            Code |= (unsigned)(H - '0');
          else if (H >= 'a' && H <= 'f')
            Code |= (unsigned)(H - 'a' + 10);
          else if (H >= 'A' && H <= 'F')
            Code |= (unsigned)(H - 'A' + 10);
          else
            return fail("bad \\u escape digit");
        }
        // UTF-8 encode (no surrogate-pair handling: our writers only
        // escape control characters).
        if (Code < 0x80) {
          Out += (char)Code;
        } else if (Code < 0x800) {
          Out += (char)(0xC0 | (Code >> 6));
          Out += (char)(0x80 | (Code & 0x3F));
        } else {
          Out += (char)(0xE0 | (Code >> 12));
          Out += (char)(0x80 | ((Code >> 6) & 0x3F));
          Out += (char)(0x80 | (Code & 0x3F));
        }
        break;
      }
      default:
        return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  bool parseNumber(JSONValue &Out) {
    size_t Start = Pos;
    bool Negative = consume('-');
    bool IsIntegral = true;
    while (Pos < Text.size() && std::isdigit((unsigned char)Text[Pos]))
      ++Pos;
    if (Pos == Start + (Negative ? 1 : 0))
      return fail("expected a value");
    if (Pos < Text.size() && Text[Pos] == '.') {
      IsIntegral = false;
      ++Pos;
      while (Pos < Text.size() && std::isdigit((unsigned char)Text[Pos]))
        ++Pos;
    }
    if (Pos < Text.size() && (Text[Pos] == 'e' || Text[Pos] == 'E')) {
      IsIntegral = false;
      ++Pos;
      if (Pos < Text.size() && (Text[Pos] == '+' || Text[Pos] == '-'))
        ++Pos;
      while (Pos < Text.size() && std::isdigit((unsigned char)Text[Pos]))
        ++Pos;
    }
    std::string Lit = Text.substr(Start, Pos - Start);
    Out.K = JSONValue::Number;
    Out.Num = std::strtod(Lit.c_str(), nullptr);
    if (IsIntegral && !Negative) {
      // Keep the exact 64-bit value: seeds do not round-trip via double.
      errno = 0;
      Out.Int = std::strtoull(Lit.c_str(), nullptr, 10);
      Out.IsInt = errno == 0;
    }
    return true;
  }

  const std::string &Text;
  std::string &Error;
  size_t Pos = 0;
};

} // namespace

bool alive::parseJSON(const std::string &Text, JSONValue &Out,
                      std::string &Error) {
  // The parser appends members and elements: start from an empty value.
  Out = JSONValue();
  return Parser(Text, Error).parse(Out);
}
