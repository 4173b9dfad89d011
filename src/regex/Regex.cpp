#include "regex/Regex.h"

#include <cstring>
#include <memory>
#include <vector>

using namespace osc;
using namespace osc::regex;

void ProgramBuffer::grow() {
  uint32_t NewCap = Cap * 2;
  auto *NewBuf = new uint32_t[NewCap];
  std::memcpy(NewBuf, data(), N * sizeof(uint32_t));
  delete[] Spill;
  Spill = NewBuf;
  Cap = NewCap;
}

// --- Parser ------------------------------------------------------------------
//
// Recursive descent over the classic grammar:
//
//   alt    := cat ('|' cat)*
//   cat    := repeat*
//   repeat := atom ('*' | '+' | '?' | '{' m (',' n?)? '}')?
//   atom   := literal | '.' | '^' | '$' | class | '(' alt ')' | escape
//
// The tree is tiny and short-lived; the compiler below walks it once.  A
// cat or alt node holds its items in a list, so the tree is only as deep
// as the pattern's groups (MaxGroupDepth), however long the pattern.

namespace {

struct Node {
  enum NK {
    NChar,
    NAny,
    NClass,
    NCat,
    NAlt,
    NStar,
    NPlus,
    NOpt,
    NRep,
    NBegin,
    NEnd,
  };
  NK K = NCat;
  uint8_t C = 0;          ///< NChar.
  uint32_t Bits[8] = {};  ///< NClass membership bitmap.
  int Min = 0, Max = 0;   ///< NRep bounds; Max == -1 means unbounded.
  std::unique_ptr<Node> L; ///< Body of NStar, NPlus, NOpt and NRep.
  std::vector<std::unique_ptr<Node>> Kids; ///< NCat items (none: the empty
                                           ///< pattern); NAlt choices (>= 2).
};

using NodePtr = std::unique_ptr<Node>;

void setBit(uint32_t *Bits, uint8_t C) { Bits[C >> 5] |= 1u << (C & 31); }

void setRange(uint32_t *Bits, uint8_t Lo, uint8_t Hi) {
  for (unsigned C = Lo; C <= Hi; ++C)
    setBit(Bits, static_cast<uint8_t>(C));
}

/// One parsed escape: either a single literal byte or a class bitmap
/// (\d, \w, \s and their complements).
struct Escape {
  bool IsClass = false;
  uint8_t Ch = 0;
  uint32_t Bits[8] = {};
};

struct Parser {
  std::string_view Pat;
  size_t Pos = 0;
  std::string Err;
  unsigned Depth = 0; ///< Groups open at Pos.

  bool atEnd() const { return Pos >= Pat.size(); }
  char peek() const { return Pat[Pos]; }
  char advance() { return Pat[Pos++]; }
  bool accept(char C) {
    if (atEnd() || Pat[Pos] != C)
      return false;
    ++Pos;
    return true;
  }
  NodePtr fail(const std::string &Msg) {
    if (Err.empty())
      Err = Msg;
    return nullptr;
  }

  bool parseEscape(Escape &E) {
    if (atEnd()) {
      Err = "trailing backslash";
      return false;
    }
    char C = advance();
    switch (C) {
    case 'n':
      E.Ch = '\n';
      return true;
    case 't':
      E.Ch = '\t';
      return true;
    case 'r':
      E.Ch = '\r';
      return true;
    case 'd':
    case 'D':
      E.IsClass = true;
      setRange(E.Bits, '0', '9');
      break;
    case 'w':
    case 'W':
      E.IsClass = true;
      setRange(E.Bits, 'a', 'z');
      setRange(E.Bits, 'A', 'Z');
      setRange(E.Bits, '0', '9');
      setBit(E.Bits, '_');
      break;
    case 's':
    case 'S':
      E.IsClass = true;
      setBit(E.Bits, ' ');
      setBit(E.Bits, '\t');
      setBit(E.Bits, '\n');
      setBit(E.Bits, '\r');
      setBit(E.Bits, '\f');
      setBit(E.Bits, '\v');
      break;
    default:
      // Any punctuation escapes to itself; an unknown letter or digit is
      // reserved and rejected so it can gain a meaning later.
      if ((C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
          (C >= '0' && C <= '9')) {
        Err = std::string("bad escape '\\") + C + "'";
        return false;
      }
      E.Ch = static_cast<uint8_t>(C);
      return true;
    }
    if (C >= 'A' && C <= 'Z') // complement form
      for (int I = 0; I != 8; ++I)
        E.Bits[I] = ~E.Bits[I];
    return true;
  }

  NodePtr parseClass() {
    auto N = std::make_unique<Node>();
    N->K = Node::NClass;
    bool Negate = accept('^');
    bool First = true;
    for (;;) {
      if (atEnd())
        return fail("unterminated character class");
      if (peek() == ']' && !First) {
        advance();
        break;
      }
      First = false;
      // Lead item: literal, ']' in first position, or an escape.
      bool LeadIsClass = false;
      uint8_t Lo = 0;
      if (peek() == '\\') {
        advance();
        Escape E;
        if (!parseEscape(E))
          return nullptr;
        if (E.IsClass) {
          for (int I = 0; I != 8; ++I)
            N->Bits[I] |= E.Bits[I];
          LeadIsClass = true;
        } else {
          Lo = E.Ch;
        }
      } else {
        Lo = static_cast<uint8_t>(advance());
      }
      // Range tail: '-' not followed by ']' extends the lead item.
      if (!LeadIsClass && !atEnd() && peek() == '-' && Pos + 1 < Pat.size() &&
          Pat[Pos + 1] != ']') {
        advance(); // '-'
        uint8_t Hi;
        if (peek() == '\\') {
          advance();
          Escape E;
          if (!parseEscape(E))
            return nullptr;
          if (E.IsClass) {
            Err = "class escape cannot end a range";
            return nullptr;
          }
          Hi = E.Ch;
        } else {
          Hi = static_cast<uint8_t>(advance());
        }
        if (Lo > Hi)
          return fail("reversed class range");
        setRange(N->Bits, Lo, Hi);
      } else if (!LeadIsClass) {
        setBit(N->Bits, Lo);
      }
    }
    if (Negate)
      for (int I = 0; I != 8; ++I)
        N->Bits[I] = ~N->Bits[I];
    return N;
  }

  NodePtr parseAtom() {
    char C = advance();
    auto N = std::make_unique<Node>();
    switch (C) {
    case '.':
      N->K = Node::NAny;
      return N;
    case '^':
      N->K = Node::NBegin;
      return N;
    case '$':
      N->K = Node::NEnd;
      return N;
    case '[':
      return parseClass();
    case '(': {
      if (Depth == MaxGroupDepth)
        return fail("groups nested too deeply");
      ++Depth;
      NodePtr Body = parseAlt();
      --Depth;
      if (!Body)
        return nullptr;
      if (!accept(')'))
        return fail("unmatched '('");
      return Body;
    }
    case '*':
    case '+':
    case '?':
      return fail(std::string("nothing to repeat before '") + C + "'");
    case '{':
      return fail("nothing to repeat before '{'");
    case '\\': {
      Escape E;
      if (!parseEscape(E))
        return nullptr;
      if (E.IsClass) {
        N->K = Node::NClass;
        std::memcpy(N->Bits, E.Bits, sizeof(N->Bits));
      } else {
        N->K = Node::NChar;
        N->C = E.Ch;
      }
      return N;
    }
    default:
      N->K = Node::NChar;
      N->C = static_cast<uint8_t>(C);
      return N;
    }
  }

  /// Parses "{m}", "{m,}" or "{m,n}" after the '{' was consumed.
  bool parseBounds(int &Min, int &Max) {
    auto Number = [&](int &Out) {
      if (atEnd() || peek() < '0' || peek() > '9')
        return false;
      Out = 0;
      while (!atEnd() && peek() >= '0' && peek() <= '9') {
        Out = Out * 10 + (advance() - '0');
        if (Out > 255) {
          Err = "repetition bound exceeds 255";
          return false;
        }
      }
      return true;
    };
    if (!Number(Min)) {
      if (Err.empty())
        Err = "bad repetition bound";
      return false;
    }
    Max = Min;
    if (accept(',')) {
      if (!atEnd() && peek() == '}')
        Max = -1;
      else if (!Number(Max)) {
        if (Err.empty())
          Err = "bad repetition bound";
        return false;
      }
    }
    if (!accept('}')) {
      if (Err.empty())
        Err = "unterminated repetition";
      return false;
    }
    if (Max >= 0 && Min > Max) {
      Err = "reversed repetition bounds";
      return false;
    }
    return true;
  }

  NodePtr parseRepeat() {
    NodePtr Atom = parseAtom();
    if (!Atom)
      return nullptr;
    if (atEnd())
      return Atom;
    char Q = peek();
    if (Q != '*' && Q != '+' && Q != '?' && Q != '{')
      return Atom;
    advance();
    auto N = std::make_unique<Node>();
    if (Q == '{') {
      N->K = Node::NRep;
      if (!parseBounds(N->Min, N->Max))
        return nullptr;
    } else {
      N->K = Q == '*' ? Node::NStar : Q == '+' ? Node::NPlus : Node::NOpt;
    }
    N->L = std::move(Atom);
    if (!atEnd() && (peek() == '*' || peek() == '+' || peek() == '?' ||
                     peek() == '{'))
      return fail("nested quantifier (group the inner one)");
    return N;
  }

  NodePtr parseCat() {
    auto N = std::make_unique<Node>();
    while (!atEnd() && peek() != '|' && peek() != ')') {
      NodePtr R = parseRepeat();
      if (!R)
        return nullptr;
      N->Kids.push_back(std::move(R));
    }
    return N;
  }

  NodePtr parseAlt() {
    NodePtr N = parseCat();
    if (!N || atEnd() || peek() != '|')
      return N;
    auto Alt = std::make_unique<Node>();
    Alt->K = Node::NAlt;
    Alt->Kids.push_back(std::move(N));
    while (accept('|')) {
      NodePtr R = parseCat();
      if (!R)
        return nullptr;
      Alt->Kids.push_back(std::move(R));
    }
    return Alt;
  }
};

// --- Compiler ----------------------------------------------------------------

struct Emitter {
  ProgramBuffer &Out;
  bool Overflow = false;

  void push(uint32_t W) {
    if (!Out.push(W))
      Overflow = true;
  }

  void emit(const Node &N) {
    if (Overflow)
      return;
    switch (N.K) {
    case Node::NChar:
      push(OpChar);
      push(N.C);
      return;
    case Node::NAny:
      push(OpAny);
      return;
    case Node::NClass:
      push(OpClass);
      for (int I = 0; I != 8; ++I)
        push(N.Bits[I]);
      return;
    case Node::NCat:
      for (const NodePtr &Kid : N.Kids)
        emit(*Kid);
      return;
    case Node::NAlt:
      emitAlt(N.Kids);
      return;
    case Node::NStar:
      emitStar(*N.L);
      return;
    case Node::NPlus: {
      uint32_t B = Out.size();
      emit(*N.L);
      uint32_t S = Out.size();
      push(OpSplit);
      push(B);
      push(0);
      if (Overflow)
        return;
      Out[S + 2] = Out.size();
      return;
    }
    case Node::NOpt:
      emitOpt(*N.L);
      return;
    case Node::NRep: {
      // Expanded at compile time: Min mandatory copies, then either a
      // star (unbounded) or Max-Min optional copies.  Flat '?' copies
      // recognize exactly the same language as the nested form.
      for (int I = 0; I != N.Min && !Overflow; ++I)
        emit(*N.L);
      if (N.Max < 0)
        emitStar(*N.L);
      else
        for (int I = N.Min; I != N.Max && !Overflow; ++I)
          emitOpt(*N.L);
      return;
    }
    case Node::NBegin:
      push(OpBegin);
      return;
    case Node::NEnd:
      push(OpEnd);
      return;
    }
  }

  /// The program of the left-nested binary form ((a|b)|c)|d: one split per
  /// '|', outermost first, each preferring the split after it; then the
  /// first choice, and every later choice behind a jump that skips it and
  /// is the target of its split's second arm.
  void emitAlt(const std::vector<NodePtr> &Choices) {
    uint32_t First = Out.size();
    size_t NSplits = Choices.size() - 1;
    for (size_t I = 0; I != NSplits; ++I) {
      push(OpSplit);
      push(Out.size() + 2);
      push(0);
    }
    if (Overflow)
      return;
    emit(*Choices[0]);
    for (size_t I = 1; I != Choices.size(); ++I) {
      uint32_t J = Out.size();
      push(OpJmp);
      push(0);
      if (Overflow)
        return;
      // Choice I is the second arm of the I-th split from the innermost.
      Out[First + 3 * (NSplits - I) + 2] = Out.size();
      emit(*Choices[I]);
      if (Overflow)
        return;
      Out[J + 1] = Out.size();
    }
  }

  void emitStar(const Node &Body) {
    uint32_t S = Out.size();
    push(OpSplit);
    push(0);
    push(0);
    if (Overflow)
      return;
    Out[S + 1] = Out.size(); // greedy: prefer the body
    emit(Body);
    push(OpJmp);
    push(S);
    if (Overflow)
      return;
    Out[S + 2] = Out.size();
  }

  void emitOpt(const Node &Body) {
    uint32_t S = Out.size();
    push(OpSplit);
    push(0);
    push(0);
    if (Overflow)
      return;
    Out[S + 1] = Out.size(); // greedy: prefer taking the body
    emit(Body);
    if (Overflow)
      return;
    Out[S + 2] = Out.size();
  }
};

} // namespace

bool regex::compile(std::string_view Pattern, ProgramBuffer &Out,
                    std::string &Err) {
  Parser P{Pattern, 0, {}};
  NodePtr Root = P.parseAlt();
  if (!Root) {
    Err = P.Err.empty() ? "parse error" : P.Err;
    return false;
  }
  if (!P.atEnd()) {
    // parseAlt stops at a ')' it has no opening paren for.
    Err = P.peek() == ')' ? "unmatched ')'" : "trailing garbage";
    return false;
  }
  Emitter E{Out};
  E.emit(*Root);
  E.push(OpMatch);
  if (E.Overflow) {
    Err = "pattern too large";
    return false;
  }
  return true;
}

// --- The Pike VM -------------------------------------------------------------
//
// The persistent thread list holds only *blocked* states: consuming
// instructions (OpChar/OpAny/OpClass) waiting for the next byte, and
// OpEnd assertions waiting to learn whether the stream is over.  All
// epsilon structure (OpJmp/OpSplit/OpBegin) is resolved eagerly by the
// closure below, and OpMatch is recorded the moment a closure reaches
// it.  Dedup is per position by pc, so a position costs at most NInstrs
// closure visits: total work is bounded by (bytes + 1) * NInstrs — the
// linear bound bench_regex asserts on the pathological column.

namespace {

/// Builds the thread list for one input position: seeds from the stepped
/// survivors of the previous list (plus the unanchored spawn), expanding
/// epsilon closures depth-first so earlier-started threads stay first —
/// the order the leftmost rule and the greedy Split preference rely on.
struct NfaClosure {
  Machine &M;
  RegexThread *Next;
  uint32_t NNext = 0;
  uint32_t *Mark;
  uint32_t Gen;
  std::vector<uint32_t> &Stack;
  bool AtEnd;

  /// Records a Match reached at the position under construction.
  void record(int64_t Start) {
    int64_t End = static_cast<int64_t>(M.Offset);
    if (M.Mode == ModeFull) {
      // Only "did a Match land exactly at the end of input" will matter;
      // remember the furthest one and let finish() compare.
      if (End > M.BestEnd) {
        M.BestStart = 0;
        M.BestEnd = End;
      }
      return;
    }
    if (M.BestStart < 0 || Start < M.BestStart ||
        (Start == M.BestStart && End > M.BestEnd)) {
      M.BestStart = Start;
      M.BestEnd = End;
    }
  }

  void add(uint32_t Pc0, int64_t Start) {
    // Leftmost pruning: once a match starting at BestStart exists, any
    // thread starting later can never beat it.
    if (M.BestStart >= 0 && M.Mode == ModeSearch && Start > M.BestStart)
      return;
    Stack.clear();
    Stack.push_back(Pc0);
    while (!Stack.empty()) {
      uint32_t Pc = Stack.back();
      Stack.pop_back();
      if (Mark[Pc] == Gen)
        continue;
      Mark[Pc] = Gen;
      M.Steps += 1;
      switch (M.Prog[Pc]) {
      case OpJmp:
        Stack.push_back(M.Prog[Pc + 1]);
        break;
      case OpSplit: // push the preferred branch last so it pops first
        Stack.push_back(M.Prog[Pc + 2]);
        Stack.push_back(M.Prog[Pc + 1]);
        break;
      case OpBegin:
        if (M.Offset == 0)
          Stack.push_back(Pc + 1);
        break;
      case OpEnd:
        if (AtEnd)
          Stack.push_back(Pc + 1);
        else
          Next[NNext++] = {Pc, Start}; // stalled until end-of-input
        break;
      case OpMatch:
        record(Start);
        break;
      default: // OpChar / OpAny / OpClass block on the next byte
        Next[NNext++] = {Pc, Start};
        break;
      }
    }
  }
};

/// True when pc 0's closure at any offset > 0 is provably empty — i.e.
/// every path is blocked by a '^'.  A static property of the program, so
/// the unanchored spawn loop can be skipped entirely.
bool spawnDeadPastZero(const uint32_t *Prog, uint32_t NInstrs) {
  std::vector<uint8_t> Seen(NInstrs, 0);
  std::vector<uint32_t> Stack{0};
  while (!Stack.empty()) {
    uint32_t Pc = Stack.back();
    Stack.pop_back();
    if (Seen[Pc])
      continue;
    Seen[Pc] = 1;
    switch (Prog[Pc]) {
    case OpJmp:
      Stack.push_back(Prog[Pc + 1]);
      break;
    case OpSplit:
      Stack.push_back(Prog[Pc + 1]);
      Stack.push_back(Prog[Pc + 2]);
      break;
    case OpBegin:
      break; // blocked at offset > 0
    default:
      return false; // a consuming op, '$', or Match is reachable
    }
  }
  return true;
}

/// Settles Decided if the answer can no longer change.
void decide(Machine &M, bool AtFinish) {
  if (M.Decided != Undecided)
    return;
  if (M.Mode == ModeSearch) {
    if (AtFinish)
      M.Decided = M.BestStart >= 0 ? Matched : NoMatch;
    else if (M.NThreads == 0) {
      if (M.BestStart >= 0)
        M.Decided = Matched; // nothing left that could start earlier
      else if (M.SpawnDead)
        M.Decided = NoMatch; // anchored pattern, anchor position dead
    }
    return;
  }
  // ModeFull: a match must land exactly at end of input.
  int64_t Off = static_cast<int64_t>(M.Offset);
  if (AtFinish)
    M.Decided = M.BestEnd == Off ? Matched : NoMatch;
  else if (M.NThreads == 0 && M.BestEnd < Off)
    M.Decided = NoMatch;
}

} // namespace

void regex::init(Machine &M) {
  M.NThreads = 0;
  M.Offset = 0;
  M.BestStart = M.BestEnd = -1;
  M.Decided = Undecided;
  M.Steps = 0;
  M.SpawnDead =
      M.Mode == ModeFull || spawnDeadPastZero(M.Prog, M.NInstrs);
  std::vector<uint32_t> Mark(M.NInstrs, 0);
  std::vector<uint32_t> Stack;
  std::vector<RegexThread> Next(M.NInstrs);
  NfaClosure C{M, Next.data(), 0, Mark.data(), 1, Stack, /*AtEnd=*/false};
  C.add(0, 0);
  std::memcpy(M.Threads, Next.data(), C.NNext * sizeof(RegexThread));
  M.NThreads = C.NNext;
  decide(M, /*AtFinish=*/false);
}

void regex::feed(Machine &M, std::string_view Chunk) {
  if (M.Decided != Undecided || Chunk.empty())
    return;
  std::vector<uint32_t> Mark(M.NInstrs, 0);
  std::vector<uint32_t> Stack;
  std::vector<RegexThread> Next(M.NInstrs);
  uint32_t Gen = 0;
  for (char Raw : Chunk) {
    uint8_t B = static_cast<uint8_t>(Raw);
    M.Offset += 1; // successors live at the position after this byte
    NfaClosure C{M, Next.data(), 0, Mark.data(), ++Gen, Stack, /*AtEnd=*/false};
    for (uint32_t I = 0; I != M.NThreads; ++I) {
      RegexThread T = M.Threads[I];
      if (M.BestStart >= 0 && M.Mode == ModeSearch && T.Start > M.BestStart)
        continue;
      switch (M.Prog[T.Pc]) {
      case OpChar:
        if (M.Prog[T.Pc + 1] == B)
          C.add(T.Pc + 2, T.Start);
        break;
      case OpAny:
        if (B != '\n')
          C.add(T.Pc + 1, T.Start);
        break;
      case OpClass:
        if ((M.Prog[T.Pc + 1 + (B >> 5)] >> (B & 31)) & 1)
          C.add(T.Pc + 9, T.Start);
        break;
      default: // a stalled '$' dies on any byte
        break;
      }
    }
    if (M.Mode == ModeSearch && M.BestStart < 0 && !M.SpawnDead)
      C.add(0, static_cast<int64_t>(M.Offset));
    std::memcpy(M.Threads, Next.data(), C.NNext * sizeof(RegexThread));
    M.NThreads = C.NNext;
    decide(M, /*AtFinish=*/false);
    if (M.Decided != Undecided)
      return; // the rest of the chunk cannot change the answer
  }
}

void regex::finish(Machine &M) {
  if (M.Decided != Undecided)
    return;
  std::vector<uint32_t> Mark(M.NInstrs, 0);
  std::vector<uint32_t> Stack;
  std::vector<RegexThread> Next(M.NInstrs);
  NfaClosure C{M, Next.data(), 0, Mark.data(), 1, Stack, /*AtEnd=*/true};
  for (uint32_t I = 0; I != M.NThreads; ++I) {
    RegexThread T = M.Threads[I];
    if (M.BestStart >= 0 && M.Mode == ModeSearch && T.Start > M.BestStart)
      continue;
    if (M.Prog[T.Pc] == OpEnd)
      C.add(T.Pc + 1, T.Start); // '$' holds now; may reach Match
  }
  M.NThreads = 0; // no byte is coming: every blocked state is dead
  decide(M, /*AtFinish=*/true);
}
