#include "regex/Regex.h"

#include <algorithm>
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
//
// A search also skips what cannot start a match.  While no match is
// known and the list holds only the spawn planted at the current offset,
// a byte that none of the spawn's blocked states consumes kills every
// thread, and the spawn after it is the same list one offset later.  So
// feed jumps to the next byte that some state does consume and re-stamps
// the spawn's Start: most bytes of a search cost no closure work at all.

namespace {

/// Working storage for one engine call: one per OS thread, grown to the
/// largest program run on it, so a warm call allocates nothing.  Pool
/// workers run the engine concurrently and share none of this; the
/// engine never calls out, so no call re-enters it on the same thread.
struct Scratch {
  std::vector<uint32_t> Mark;    ///< Per pc: the last generation to visit it.
  std::vector<uint32_t> Stack;   ///< Pcs a closure has yet to visit.
  std::vector<RegexThread> Next; ///< The list under construction.
  uint32_t Gen = 0;

  /// A generation no pc is marked with, so every pc reads unvisited.
  uint32_t fresh() {
    if (++Gen == 0) {
      std::fill(Mark.begin(), Mark.end(), 0);
      Gen = 1;
    }
    return Gen;
  }
};

Scratch &scratchFor(uint32_t NInstrs) {
  thread_local Scratch S;
  if (S.Mark.size() < NInstrs) {
    S.Mark.resize(NInstrs, 0);
    // A closure visits each pc once and pushes at most the pc's width in
    // successors, so its stack never holds more than its seed plus one
    // pc per program word.
    S.Stack.resize(NInstrs + 1);
    S.Next.resize(NInstrs);
  }
  return S;
}

/// Builds the thread list for one input position: seeds from the stepped
/// survivors of the previous list (plus the unanchored spawn), expanding
/// epsilon closures depth-first so earlier-started threads stay first —
/// the order the leftmost rule and the greedy Split preference rely on.
struct NfaClosure {
  NfaClosure(Machine &M, RegexThread *Next, Scratch &S, bool AtEnd)
      : M(M), Next(Next), Mark(S.Mark.data()), Gen(S.fresh()),
        Stack(S.Stack.data()), AtEnd(AtEnd) {}

  Machine &M;
  RegexThread *Next;
  uint32_t NNext = 0;
  uint32_t *Mark;
  uint32_t Gen;
  uint32_t *Stack;
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
    uint32_t Top = 0;
    Stack[Top++] = Pc0;
    while (Top != 0) {
      uint32_t Pc = Stack[--Top];
      if (Mark[Pc] == Gen)
        continue;
      Mark[Pc] = Gen;
      M.Steps += 1;
      switch (M.Prog[Pc]) {
      case OpJmp:
        Stack[Top++] = M.Prog[Pc + 1];
        break;
      case OpSplit: // push the preferred branch last so it pops first
        Stack[Top++] = M.Prog[Pc + 2];
        Stack[Top++] = M.Prog[Pc + 1];
        break;
      case OpBegin:
        if (M.Offset == 0)
          Stack[Top++] = Pc + 1;
        break;
      case OpEnd:
        if (AtEnd)
          Stack[Top++] = Pc + 1;
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

/// What the unanchored spawn plants past offset 0, from one walk of pc
/// 0's epsilon closure with '^' blocked: the bytes its blocked states
/// consume (First, in OpClass's bitmap layout) and whether it reaches
/// anything at all (Dead: every path stops at a '^').  init reads Dead;
/// feed reads First.  Both are recomputed per call rather than stored,
/// so RegexProg and RegexStream keep their layouts.
struct Spawn {
  uint32_t First[8] = {};
  bool Dead = true;
};

Spawn analyzeSpawn(const Machine &M, Scratch &S) {
  Spawn Sp;
  uint32_t Gen = S.fresh();
  uint32_t *Stack = S.Stack.data();
  uint32_t Top = 0;
  Stack[Top++] = 0;
  while (Top != 0) {
    uint32_t Pc = Stack[--Top];
    if (S.Mark[Pc] == Gen)
      continue;
    S.Mark[Pc] = Gen;
    switch (M.Prog[Pc]) {
    case OpJmp:
      Stack[Top++] = M.Prog[Pc + 1];
      break;
    case OpSplit:
      Stack[Top++] = M.Prog[Pc + 1];
      Stack[Top++] = M.Prog[Pc + 2];
      break;
    case OpBegin:
      break; // blocked at offset > 0
    case OpChar:
      setBit(Sp.First, static_cast<uint8_t>(M.Prog[Pc + 1]));
      Sp.Dead = false;
      break;
    case OpAny: // every byte but '\n', which is bit 10 of word 0
      Sp.First[0] |= ~(1u << '\n');
      for (int I = 1; I != 8; ++I)
        Sp.First[I] = ~0u;
      Sp.Dead = false;
      break;
    case OpClass:
      for (int I = 0; I != 8; ++I)
        Sp.First[I] |= M.Prog[Pc + 1 + I];
      Sp.Dead = false;
      break;
    default: // '$' consumes nothing but lives to end of input; Match
      Sp.Dead = false;
      break;
    }
  }
  return Sp;
}

bool inSet(const uint32_t *Bits, uint8_t B) {
  return (Bits[B >> 5] >> (B & 31)) & 1;
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
  Scratch &S = scratchFor(M.NInstrs);
  M.SpawnDead = M.Mode == ModeFull || analyzeSpawn(M, S).Dead;
  NfaClosure C(M, M.Threads, S, /*AtEnd=*/false);
  C.add(0, 0);
  M.NThreads = C.NNext;
  decide(M, /*AtFinish=*/false);
}

void regex::feed(Machine &M, std::string_view Chunk) {
  if (M.Decided != Undecided || Chunk.empty())
    return;
  Scratch &S = scratchFor(M.NInstrs);
  // Full-match runs and '^'-anchored programs (SpawnDead) plant no spawn
  // past offset 0, and once a match is known the spawn stops: all three
  // step every byte, with no skip.
  const bool MaySkip =
      M.Mode == ModeSearch && !M.SpawnDead && M.BestStart < 0;
  Spawn Sp;
  if (MaySkip)
    Sp = analyzeSpawn(M, S);
  // Each byte steps the list in Cur into Alt, and the two swap: the list
  // is copied back into the caller's M.Threads at most once per call.
  RegexThread *Cur = M.Threads, *Alt = S.Next.data();
  const auto *P = reinterpret_cast<const uint8_t *>(Chunk.data());
  const auto *End = P + Chunk.size();
  while (P != End) {
    // Only the fresh spawn is alive when the first thread started at this
    // offset: the list is ordered by Start, and the spawn, planted last,
    // has the latest.  Never at offset 0, whose closure also passes '^'
    // and so may hold states the spawn's First does not cover.
    if (MaySkip && M.BestStart < 0 && M.Offset > 0 && M.NThreads != 0 &&
        Cur[0].Start == static_cast<int64_t>(M.Offset)) {
      const uint8_t *Q = P;
      while (Q != End && !inSet(Sp.First, *Q))
        ++Q;
      if (Q != P) {
        // Offset still counts every skipped byte (RegexBytesScanned is
        // exact); Steps counts only the visits made, so (bytes+1) *
        // NInstrs still bounds it.  A stalled '$' is re-stamped like every
        // other spawned state, so it still answers at end of input.
        M.Offset += static_cast<uint64_t>(Q - P);
        for (uint32_t I = 0; I != M.NThreads; ++I)
          Cur[I].Start = static_cast<int64_t>(M.Offset);
        P = Q;
        if (P == End)
          break; // the next feed resumes the skip where this one stopped
      }
    }
    uint8_t B = *P++;
    M.Offset += 1; // successors live at the position after this byte
    NfaClosure C(M, Alt, S, /*AtEnd=*/false);
    for (uint32_t I = 0; I != M.NThreads; ++I) {
      RegexThread T = Cur[I];
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
        if (inSet(&M.Prog[T.Pc + 1], B))
          C.add(T.Pc + 9, T.Start);
        break;
      default: // a stalled '$' dies on any byte
        break;
      }
    }
    if (M.Mode == ModeSearch && M.BestStart < 0 && !M.SpawnDead)
      C.add(0, static_cast<int64_t>(M.Offset));
    std::swap(Cur, Alt);
    M.NThreads = C.NNext;
    decide(M, /*AtFinish=*/false);
    if (M.Decided != Undecided)
      break; // the rest of the chunk cannot change the answer
  }
  if (Cur != M.Threads)
    std::memcpy(M.Threads, Cur, M.NThreads * sizeof(RegexThread));
}

void regex::finish(Machine &M) {
  if (M.Decided != Undecided)
    return;
  Scratch &S = scratchFor(M.NInstrs);
  NfaClosure C(M, S.Next.data(), S, /*AtEnd=*/true);
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
