#include "sexp/Reader.h"

#include "object/ListUtil.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>

using namespace osc;

static bool isDelimiter(char C) {
  return std::isspace(static_cast<unsigned char>(C)) || C == '(' || C == ')' ||
         C == '[' || C == ']' || C == '"' || C == ';';
}

static bool isSymbolChar(char C) { return !isDelimiter(C); }

Reader::Reader(Heap &H, std::string_view Input) : H(H), Input(Input) {}

char Reader::advance() {
  char C = Input[Pos++];
  if (C == '\n')
    ++Line;
  return C;
}

ReadResult Reader::skipAtmosphere() {
  ReadResult Skipped;
  Skipped.Ok = true;
  while (!atEnd()) {
    char C = peek();
    if (std::isspace(static_cast<unsigned char>(C))) {
      advance();
      continue;
    }
    if (C == ';') {
      while (!atEnd() && peek() != '\n')
        advance();
      continue;
    }
    // Datum comment #;<datum>.  readDatum skips the atmosphere before the
    // datum itself, so nested comments recurse through its depth bound.
    // A datum that does not read fails the read around the comment: left
    // where it stopped, the reader could be inside a well-formed datum.
    if (C == '#' && Pos + 1 < Input.size() && Input[Pos + 1] == ';') {
      advance();
      advance();
      Skipped = readDatum();
      if (!Skipped.Ok)
        return Skipped;
      continue;
    }
    break;
  }
  return Skipped;
}

ReadResult Reader::error(const std::string &Msg) {
  ReadResult R;
  R.Error = "read error at line " + std::to_string(Line) + ": " + Msg;
  return R;
}

ReadResult Reader::read() {
  if (ReadResult Skipped = skipAtmosphere(); !Skipped.Ok)
    return Skipped;
  if (atEnd()) {
    ReadResult R;
    R.AtEof = true;
    return R;
  }
  return readDatum();
}

bool Reader::readAll(std::vector<Value> &Out, std::string &Error) {
  for (;;) {
    ReadResult R = read();
    if (R.AtEof)
      return true;
    if (!R.Ok) {
      Error = R.Error;
      return false;
    }
    Out.push_back(R.Datum);
  }
}

ReadResult Reader::readDatum() {
  if (Depth == MaxDepth)
    return error("datum nested deeper than " + std::to_string(MaxDepth) +
                 " levels");
  // Restores Depth on every way out, a throwing allocation included.
  struct Nesting {
    unsigned &Depth;
    ~Nesting() { --Depth; }
  } Level{++Depth};
  if (ReadResult Skipped = skipAtmosphere(); !Skipped.Ok)
    return Skipped;
  if (atEnd())
    return error("unexpected end of input");
  char C = peek();
  switch (C) {
  case '(':
    advance();
    return readList(')');
  case '[':
    advance();
    return readList(']');
  case ')':
  case ']':
    return error("unexpected closing paren");
  case '"':
    advance();
    return readString();
  case '#':
    return readHash();
  case '\'':
    advance();
    return readAbbrev("quote");
  case '`':
    advance();
    return readAbbrev("quasiquote");
  case ',':
    advance();
    if (!atEnd() && peek() == '@') {
      advance();
      return readAbbrev("unquote-splicing");
    }
    return readAbbrev("unquote");
  default:
    return readAtom();
  }
}

ReadResult Reader::readAbbrev(const char *SymbolName) {
  ReadResult Inner = readDatum();
  if (!Inner.Ok)
    return Inner;
  GCRoot Guard(H, Inner.Datum);
  Value Sym = Value::object(H.intern(SymbolName));
  Inner.Datum = cons(H, Sym, cons(H, Guard.get(), Value::nil()));
  return Inner;
}

ReadResult Reader::readList(char Close) {
  std::vector<Value> Elems;
  Value Tail = Value::nil();
  for (;;) {
    if (ReadResult Skipped = skipAtmosphere(); !Skipped.Ok)
      return Skipped;
    if (atEnd())
      return error("unterminated list");
    if (peek() == Close) {
      advance();
      break;
    }
    if (peek() == ')' || peek() == ']')
      return error("mismatched closing paren");
    // Dotted tail.
    if (peek() == '.' && Pos + 1 < Input.size() &&
        isDelimiter(Input[Pos + 1])) {
      if (Elems.empty())
        return error("dot at start of list");
      advance();
      ReadResult R = readDatum();
      if (!R.Ok)
        return R;
      Tail = R.Datum;
      if (ReadResult Skipped = skipAtmosphere(); !Skipped.Ok)
        return Skipped;
      if (atEnd() || peek() != Close)
        return error("expected closing paren after dotted tail");
      advance();
      break;
    }
    ReadResult R = readDatum();
    if (!R.Ok)
      return R;
    Elems.push_back(R.Datum);
  }
  Value L = Tail;
  for (auto It = Elems.rbegin(); It != Elems.rend(); ++It)
    L = cons(H, *It, L);
  ReadResult R;
  R.Ok = true;
  R.Datum = L;
  return R;
}

ReadResult Reader::readVector() {
  std::vector<Value> Elems;
  for (;;) {
    if (ReadResult Skipped = skipAtmosphere(); !Skipped.Ok)
      return Skipped;
    if (atEnd())
      return error("unterminated vector");
    if (peek() == ')') {
      advance();
      break;
    }
    ReadResult R = readDatum();
    if (!R.Ok)
      return R;
    Elems.push_back(R.Datum);
  }
  Vector *V = H.allocVector(static_cast<uint32_t>(Elems.size()));
  for (uint32_t I = 0; I != Elems.size(); ++I)
    V->set(I, Elems[I]);
  ReadResult R;
  R.Ok = true;
  R.Datum = Value::object(V);
  return R;
}

ReadResult Reader::readString() {
  std::string S;
  for (;;) {
    if (atEnd())
      return error("unterminated string");
    char C = advance();
    if (C == '"')
      break;
    if (C == '\\') {
      if (atEnd())
        return error("unterminated escape");
      char E = advance();
      switch (E) {
      case 'n':
        S.push_back('\n');
        break;
      case 't':
        S.push_back('\t');
        break;
      case 'r':
        S.push_back('\r');
        break;
      case '\\':
      case '"':
        S.push_back(E);
        break;
      default:
        return error(std::string("bad string escape '\\") + E + "'");
      }
      continue;
    }
    S.push_back(C);
  }
  ReadResult R;
  R.Ok = true;
  R.Datum = Value::object(H.allocString(S));
  return R;
}

ReadResult Reader::readHash() {
  advance(); // '#'
  if (atEnd())
    return error("lone '#'");
  char C = advance();
  ReadResult R;
  switch (C) {
  case 't':
    R.Ok = true;
    R.Datum = Value::trueV();
    return R;
  case 'f':
    R.Ok = true;
    R.Datum = Value::falseV();
    return R;
  case '(':
    return readVector();
  case '\\': {
    if (atEnd())
      return error("bad character literal");
    std::string Name;
    Name.push_back(advance());
    while (!atEnd() && isSymbolChar(peek()) && peek() != '\\')
      Name.push_back(advance());
    uint32_t Cp;
    if (Name.size() == 1)
      Cp = static_cast<unsigned char>(Name[0]);
    else if (Name == "space")
      Cp = ' ';
    else if (Name == "newline")
      Cp = '\n';
    else if (Name == "tab")
      Cp = '\t';
    else if (Name == "nul")
      Cp = 0;
    else
      return error("unknown character name #\\" + Name);
    R.Ok = true;
    R.Datum = Value::charV(Cp);
    return R;
  }
  default:
    return error(std::string("unknown '#' syntax: #") + C);
  }
}

ReadResult Reader::readAtom() {
  std::string Tok;
  while (!atEnd() && isSymbolChar(peek()))
    Tok.push_back(advance());
  if (Tok.empty())
    return error("empty token");

  ReadResult R;
  // Try fixnum.
  {
    errno = 0;
    char *End = nullptr;
    long long N = std::strtoll(Tok.c_str(), &End, 10);
    if (errno == 0 && End == Tok.c_str() + Tok.size() &&
        (std::isdigit(static_cast<unsigned char>(Tok[0])) ||
         ((Tok[0] == '-' || Tok[0] == '+') && Tok.size() > 1))) {
      R.Ok = true;
      R.Datum = Value::fixnum(N);
      return R;
    }
  }
  // Try flonum.
  {
    errno = 0;
    char *End = nullptr;
    double D = std::strtod(Tok.c_str(), &End);
    bool LooksNumeric = std::isdigit(static_cast<unsigned char>(Tok[0])) ||
                        ((Tok[0] == '-' || Tok[0] == '+' || Tok[0] == '.') &&
                         Tok.size() > 1 &&
                         std::isdigit(static_cast<unsigned char>(Tok[1])));
    if (errno == 0 && End == Tok.c_str() + Tok.size() && LooksNumeric) {
      R.Ok = true;
      R.Datum = Value::object(H.allocFlonum(D));
      return R;
    }
  }
  // Symbol.
  R.Ok = true;
  R.Datum = Value::object(H.intern(Tok));
  return R;
}

ReadResult osc::readDatum(Heap &H, std::string_view Text) {
  Reader Rd(H, Text);
  return Rd.read();
}
