//===- lang/Parser.cpp - Concrete-syntax parser ----------------------------===//

#include "lang/Parser.h"

#include "support/Str.h"

#include <cassert>
#include <cctype>
#include <cstdint>

using namespace pushpull;

namespace {

/// Recursive-descent parser state.  Errors are sticky: after the first
/// failure all productions return null and the message is preserved.
class Parser {
public:
  explicit Parser(const std::string &Text) : Text(Text) {}

  CodePtr parseAll() {
    CodePtr C = parseChoice();
    skipWs();
    if (C && Pos != Text.size())
      return fail("trailing input after statement");
    return C;
  }

  const std::string &error() const { return Err; }
  size_t errorPos() const { return ErrPos; }

private:
  CodePtr tooDeep() {
    return fail("program nested or sequenced more than " +
                std::to_string(MaxCodeDepth) + " levels deep");
  }

  /// \p C, or a parse error when it is higher than MaxCodeDepth.
  CodePtr bounded(CodePtr C) {
    return C->height() > MaxCodeDepth ? tooDeep() : C;
  }

  CodePtr fail(const std::string &Msg) {
    if (Err.empty()) {
      Err = Msg;
      ErrPos = Pos;
    }
    return nullptr;
  }

  void skipWs() {
    while (Pos < Text.size()) {
      if (std::isspace(static_cast<unsigned char>(Text[Pos]))) {
        ++Pos;
        continue;
      }
      // Line comments: // ... end-of-line.
      if (Text[Pos] == '/' && Pos + 1 < Text.size() && Text[Pos + 1] == '/') {
        while (Pos < Text.size() && Text[Pos] != '\n')
          ++Pos;
        continue;
      }
      break;
    }
  }

  bool eat(char C) {
    skipWs();
    if (Pos < Text.size() && Text[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }

  bool peek(char C) {
    skipWs();
    return Pos < Text.size() && Text[Pos] == C;
  }

  /// Parse an identifier; empty string on failure (no error recorded).
  std::string ident() {
    skipWs();
    size_t Start = Pos;
    while (Pos < Text.size() &&
           (std::isalnum(static_cast<unsigned char>(Text[Pos])) ||
            Text[Pos] == '_'))
      ++Pos;
    return Text.substr(Start, Pos - Start);
  }

  /// Try to consume keyword \p Kw at the cursor (with identifier boundary).
  bool keyword(const std::string &Kw) {
    skipWs();
    size_t Save = Pos;
    std::string Id = ident();
    if (Id == Kw)
      return true;
    Pos = Save;
    return false;
  }

  CodePtr parseChoice() {
    CodePtr L = parseSeq();
    while (L && eat('+')) {
      CodePtr R = parseSeq();
      if (!R)
        return nullptr;
      L = bounded(choice(std::move(L), std::move(R)));
    }
    return L;
  }

  CodePtr parseSeq() {
    CodePtr L = parsePostfix();
    while (L && eat(';')) {
      CodePtr R = parsePostfix();
      if (!R)
        return nullptr;
      L = bounded(seq(std::move(L), std::move(R)));
    }
    return L;
  }

  CodePtr parsePostfix() {
    CodePtr C = parsePrim();
    while (C && eat('*'))
      C = bounded(loop(std::move(C)));
    return C;
  }

  CodePtr parsePrim() {
    skipWs();
    if (Pos >= Text.size())
      return fail("unexpected end of input");
    if (eat('(')) {
      // Errors are sticky, so a failed parse need not restore Nesting.
      if (++Nesting > MaxCodeDepth)
        return tooDeep();
      CodePtr C = parseChoice();
      if (!C)
        return nullptr;
      if (!eat(')'))
        return fail("expected ')'");
      --Nesting;
      return C;
    }
    if (keyword("skip"))
      return skip();
    if (keyword("tx")) {
      if (!eat('{'))
        return fail("expected '{' after tx");
      if (++Nesting > MaxCodeDepth)
        return tooDeep();
      CodePtr B = parseChoice();
      if (!B)
        return nullptr;
      if (!eat('}'))
        return fail("expected '}' closing tx");
      --Nesting;
      return bounded(tx(std::move(B)));
    }
    return parseCall();
  }

  CodePtr parseCall() {
    std::string First = ident();
    if (First.empty())
      return fail("expected statement");
    std::optional<std::string> ResultVar;
    std::string Object;
    // Either "obj.method(...)" or "var := obj.method(...)".
    skipWs();
    if (Pos + 1 < Text.size() && Text[Pos] == ':' && Text[Pos + 1] == '=') {
      Pos += 2;
      ResultVar = First;
      Object = ident();
      if (Object.empty())
        return fail("expected object name after ':='");
    } else {
      Object = First;
    }
    if (!eat('.'))
      return fail("expected '.' in method call");
    std::string Method = ident();
    if (Method.empty())
      return fail("expected method name");
    if (!eat('('))
      return fail("expected '(' in method call");
    std::vector<Arg> Args;
    if (!peek(')')) {
      do {
        std::optional<Arg> A = parseArg();
        if (!A)
          return nullptr;
        Args.push_back(std::move(*A));
      } while (eat(','));
    }
    if (!eat(')'))
      return fail("expected ')' closing argument list");
    return call(std::move(Object), std::move(Method), std::move(Args),
                std::move(ResultVar));
  }

  std::optional<Arg> parseArg() {
    skipWs();
    if (Pos < Text.size() &&
        (std::isdigit(static_cast<unsigned char>(Text[Pos])) ||
         Text[Pos] == '-')) {
      size_t Start = Pos;
      if (Text[Pos] == '-')
        ++Pos;
      while (Pos < Text.size() &&
             std::isdigit(static_cast<unsigned char>(Text[Pos])))
        ++Pos;
      if (Pos == Start || (Text[Start] == '-' && Pos == Start + 1)) {
        fail("expected integer literal");
        return std::nullopt;
      }
      // Magnitudes up to 2^63 fit a Value once negated.
      bool Neg = Text[Start] == '-';
      std::optional<uint64_t> Mag = parseUnsigned(
          std::string_view(Text).substr(Start + Neg, Pos - Start - Neg), 0,
          uint64_t{INT64_MAX} + Neg);
      if (!Mag) {
        fail("integer literal out of range");
        return std::nullopt;
      }
      return Arg(Neg ? static_cast<Value>(0 - *Mag) : static_cast<Value>(*Mag));
    }
    std::string Id = ident();
    if (Id.empty()) {
      fail("expected argument");
      return std::nullopt;
    }
    return Arg(std::move(Id));
  }

  const std::string &Text;
  size_t Pos = 0;
  /// Open parentheses and transactions around the cursor.
  unsigned Nesting = 0;
  std::string Err;
  size_t ErrPos = 0;
};

} // namespace

ParseResult pushpull::parseCode(const std::string &Text) {
  Parser P(Text);
  ParseResult Out;
  Out.Parsed = P.parseAll();
  if (!Out.Parsed) {
    Out.Error = P.error().empty() ? "parse error" : P.error();
    Out.ErrorPos = P.errorPos();
  }
  return Out;
}

CodePtr pushpull::parseOrDie(const std::string &Text) {
  ParseResult R = parseCode(Text);
  assert(R.ok() && "parseOrDie on invalid program text");
  return R.Parsed;
}
