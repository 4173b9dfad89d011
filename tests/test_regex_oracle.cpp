// The regex engine (src/regex) against a reference that shares none of
// its code: RefRegex, the brute-force leftmost-longest matcher in
// RefRegex.h.  A seeded generator draws patterns over the syntax both
// accept (literals, '.', classes with ranges, negation and \d \w \s,
// groups, '|', * + ? and {m,n}) and, for each, texts of two kinds: filler
// bytes that cannot start a match with instances of the pattern planted
// in it, which is where the engine skips ahead, and bytes from the
// pattern's own alphabet, where it cannot.  Every text is checked three
// ways through the primitives: regex-search against the reference's
// search, regex-match against a reference match from offset 0 to the
// end, and a regex-stream fed at random cut points, which must settle on
// exactly the chunk where the reference says the answer is fixed, report
// the bytes fed as its offset until then, end with the whole-string
// answer, and stay within (bytes+1) * instructions steps.
//
// RefRegex has no anchors, so they get hand-written cases.
//
// Sanitizer builds run a tenth of the random cases.  Registered under
// the ctest label "regex".

#include "RefRegex.h"

#include "osc.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bitset>
#include <cstdint>
#include <string>
#include <vector>

using namespace osc;

namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr int Scale = 10;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr int Scale = 10;
#else
constexpr int Scale = 1;
#endif
#else
constexpr int Scale = 1;
#endif

constexpr int Patterns = 4000 / Scale;
constexpr int TextsPerPattern = 4;

/// splitmix64: the same seed always gives the same cases.
class Rng {
public:
  explicit Rng(uint64_t Seed) : S(Seed) {}
  uint64_t next() {
    uint64_t Z = (S += 0x9e3779b97f4a7c15ull);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [Lo, Hi].
  int range(int Lo, int Hi) {
    return Lo + static_cast<int>(next() % static_cast<uint64_t>(Hi - Lo + 1));
  }
  /// Uniform in [0, N).
  size_t below(size_t N) { return static_cast<size_t>(next() % N); }
  bool chance(int Percent) { return range(1, 100) <= Percent; }
  template <class C> const auto &pick(const C &Items) {
    return Items[below(Items.size())];
  }

private:
  uint64_t S;
};

using ByteSet = std::bitset<256>;

/// Every byte a text is drawn from: the literals and escaped punctuation
/// patterns use, and bytes only classes, '.' and their complements match.
const std::string Universe = "abcxyz019_-.*+?()[|{ \n\tAQ";

ByteSet rangeSet(int Lo, int Hi) {
  ByteSet S;
  for (int C = Lo; C <= Hi; ++C)
    S[static_cast<size_t>(C)] = true;
  return S;
}

/// One class escape: its spelling and the bytes it stands for.
struct ClassEscape {
  const char *Spelling;
  ByteSet Bytes;
};

std::vector<ClassEscape> classEscapes() {
  ByteSet D = rangeSet('0', '9');
  ByteSet W = rangeSet('a', 'z') | rangeSet('A', 'Z') | D;
  W['_'] = true;
  ByteSet S = rangeSet('\t', '\r');
  S[' '] = true;
  std::vector<ClassEscape> Out = {{"\\d", D}, {"\\w", W}, {"\\s", S}};
  const char *Complements[] = {"\\D", "\\W", "\\S"};
  for (size_t I = 0; I != 3; ++I)
    Out.push_back({Complements[I], ~Out[I].Bytes});
  return Out;
}

/// A generated pattern's tree: enough to print it, to draw strings from
/// its language, and to know which bytes can start a match.  The answers
/// the engine is held to come from RefRegex, never from this model.
struct Gen {
  enum Kind { Atom, Cat, Alt, Group, Rep } K = Atom;
  std::string Spelling; ///< Atom.
  ByteSet Bytes;        ///< Atom: the bytes it matches.
  std::vector<Gen> Kids;
  int Min = 0, Max = -1; ///< Rep; Max == -1 is unbounded.
};

class PatternGen {
public:
  explicit PatternGen(Rng &R) : R(R), Escapes(classEscapes()) {}

  Gen alt(int Depth) {
    int N = R.chance(70) ? 1 : R.range(2, 3);
    if (N == 1)
      return cat(Depth);
    Gen G;
    G.K = Gen::Alt;
    for (int I = 0; I != N; ++I)
      G.Kids.push_back(R.chance(8) ? empty() : cat(Depth));
    return G;
  }

private:
  /// The empty pattern: an empty choice or an empty group.
  static Gen empty() {
    Gen G;
    G.K = Gen::Cat;
    return G;
  }

  Gen cat(int Depth) {
    Gen G;
    G.K = Gen::Cat;
    for (int I = R.range(1, 4); I > 0; --I)
      G.Kids.push_back(item(Depth));
    return G;
  }

  Gen item(int Depth) {
    Gen A = atom(Depth);
    if (!R.chance(35))
      return A;
    Gen G;
    G.K = Gen::Rep;
    switch (R.range(0, 5)) {
    case 0:
      G.Spelling = "*";
      break;
    case 1:
      G.Min = 1;
      G.Spelling = "+";
      break;
    case 2:
      G.Max = 1;
      G.Spelling = "?";
      break;
    case 3:
      G.Min = G.Max = R.range(0, 3);
      G.Spelling = "{" + std::to_string(G.Min) + "}";
      break;
    case 4:
      G.Min = R.range(0, 2);
      G.Spelling = "{" + std::to_string(G.Min) + ",}";
      break;
    default:
      G.Min = R.range(0, 2);
      G.Max = G.Min + R.range(0, 2);
      G.Spelling =
          "{" + std::to_string(G.Min) + "," + std::to_string(G.Max) + "}";
      break;
    }
    G.Kids.push_back(std::move(A));
    return G;
  }

  Gen atom(int Depth) {
    int Roll = R.range(1, 100);
    if (Depth > 0 && Roll > 85) {
      Gen G;
      G.K = Gen::Group;
      G.Kids.push_back(R.chance(5) ? empty() : alt(Depth - 1));
      return G;
    }
    Gen G;
    if (Roll <= 55) {
      char C = R.pick(Literals);
      G.Spelling = std::string(1, C);
      G.Bytes[static_cast<uint8_t>(C)] = true;
    } else if (Roll <= 60) {
      char C = R.pick(Punctuation);
      G.Spelling = std::string("\\") + C;
      G.Bytes[static_cast<uint8_t>(C)] = true;
    } else if (Roll <= 66) {
      G.Spelling = ".";
      G.Bytes = ~ByteSet();
      G.Bytes['\n'] = false;
    } else if (Roll <= 72) {
      const ClassEscape &E = R.pick(Escapes);
      G.Spelling = E.Spelling;
      G.Bytes = E.Bytes;
    } else {
      classAtom(G);
    }
    return G;
  }

  /// [..] with one to three members, each a literal, a range or a class
  /// escape, negated one time in four.
  void classAtom(Gen &G) {
    bool Negate = R.chance(25);
    G.Spelling = Negate ? "[^" : "[";
    for (int I = R.range(1, 3); I > 0; --I) {
      int Kind = R.range(0, 2);
      if (Kind == 0) {
        char C = R.pick(Literals);
        if (C == '-')
          C = 'b'; // '-' only stands for itself at a class's edges
        G.Spelling += C;
        G.Bytes[static_cast<uint8_t>(C)] = true;
      } else if (Kind == 1) {
        static const char *Ranges[] = {"a-c", "b-d", "x-z", "0-9", "a-z"};
        const char *Rg = Ranges[R.below(5)];
        G.Spelling += Rg;
        G.Bytes |= rangeSet(Rg[0], Rg[2]);
      } else {
        const ClassEscape &E = R.pick(Escapes);
        G.Spelling += E.Spelling;
        G.Bytes |= E.Bytes;
      }
    }
    G.Spelling += ']';
    if (Negate)
      G.Bytes.flip();
  }

  Rng &R;
  std::vector<ClassEscape> Escapes;
  const std::string Literals = "abcxyz01_-";
  const std::string Punctuation = ".*+?()[|{";
};

std::string print(const Gen &G) {
  switch (G.K) {
  case Gen::Atom:
    return G.Spelling;
  case Gen::Cat: {
    std::string S;
    for (const Gen &K : G.Kids)
      S += K.K == Gen::Alt ? "(" + print(K) + ")" : print(K);
    return S;
  }
  case Gen::Alt: {
    std::string S;
    for (size_t I = 0; I != G.Kids.size(); ++I)
      S += (I ? "|" : "") + print(G.Kids[I]);
    return S;
  }
  case Gen::Group:
    return "(" + print(G.Kids[0]) + ")";
  case Gen::Rep: {
    const Gen &Body = G.Kids[0];
    bool Bare = Body.K == Gen::Atom || Body.K == Gen::Group;
    return (Bare ? print(Body) : "(" + print(Body) + ")") + G.Spelling;
  }
  }
  return "";
}

bool nullable(const Gen &G) {
  switch (G.K) {
  case Gen::Atom:
    return false;
  case Gen::Cat:
    for (const Gen &K : G.Kids)
      if (!nullable(K))
        return false;
    return true;
  case Gen::Alt:
    for (const Gen &K : G.Kids)
      if (nullable(K))
        return true;
    return false;
  case Gen::Group:
    return nullable(G.Kids[0]);
  case Gen::Rep:
    return G.Min == 0 || nullable(G.Kids[0]);
  }
  return false;
}

/// The bytes a match can start with.
void firstBytes(const Gen &G, ByteSet &Out) {
  switch (G.K) {
  case Gen::Atom:
    Out |= G.Bytes;
    return;
  case Gen::Cat:
    for (const Gen &K : G.Kids) {
      firstBytes(K, Out);
      if (!nullable(K))
        return;
    }
    return;
  case Gen::Alt:
  case Gen::Group:
    for (const Gen &K : G.Kids)
      firstBytes(K, Out);
    return;
  case Gen::Rep:
    if (G.Max != 0)
      firstBytes(G.Kids[0], Out);
    return;
  }
}

/// Every byte of the universe some atom of the pattern matches.
void alphabet(const Gen &G, ByteSet &Out) {
  if (G.K == Gen::Atom)
    Out |= G.Bytes;
  for (const Gen &K : G.Kids)
    alphabet(K, Out);
}

/// Appends a string of the pattern's language; false if some atom
/// matches no byte at all (a class like [^\d\D]).
bool instance(const Gen &G, Rng &R, std::string &Out) {
  switch (G.K) {
  case Gen::Atom: {
    std::vector<char> In;
    for (char C : Universe)
      if (G.Bytes[static_cast<uint8_t>(C)])
        In.push_back(C);
    if (In.empty())
      for (int C = 0; C != 256; ++C)
        if (G.Bytes[static_cast<size_t>(C)])
          In.push_back(static_cast<char>(C));
    if (In.empty())
      return false;
    Out += R.pick(In);
    return true;
  }
  case Gen::Cat:
    for (const Gen &K : G.Kids)
      if (!instance(K, R, Out))
        return false;
    return true;
  case Gen::Alt:
    return instance(R.pick(G.Kids), R, Out);
  case Gen::Group:
    return instance(G.Kids[0], R, Out);
  case Gen::Rep: {
    int N = G.Min + R.range(0, G.Max < 0 ? 2 : G.Max - G.Min);
    for (int I = 0; I != N; ++I)
      if (!instance(G.Kids[0], R, Out))
        return false;
    return true;
  }
  }
  return false;
}

std::string drawFrom(Rng &R, const std::vector<char> &Bytes, int Len) {
  std::string S;
  for (int I = 0; I < Len && !Bytes.empty(); ++I)
    S += R.pick(Bytes);
  return S;
}

std::vector<char> members(const ByteSet &S, bool Want) {
  std::vector<char> Out;
  for (char C : Universe)
    if (S[static_cast<uint8_t>(C)] == Want)
      Out.push_back(C);
  return Out;
}

/// The texts one pattern is searched in.
std::vector<std::string> texts(const Gen &G, Rng &R) {
  ByteSet First, Alpha;
  firstBytes(G, First);
  alphabet(G, Alpha);
  std::vector<char> Filler = members(First, false);
  std::vector<char> Own = members(Alpha, true);
  std::vector<std::string> Out;
  for (int T = 0; T != TextsPerPattern; ++T) {
    std::string S;
    if (T % 2 == 0 && !Filler.empty()) {
      // Filler with zero to two planted instances, the last one maybe cut
      // short into a near miss.
      S = drawFrom(R, Filler, R.range(0, 12));
      for (int K = R.range(0, 2); K > 0; --K) {
        std::string Inst;
        if (instance(G, R, Inst)) {
          if (K == 1 && !Inst.empty() && R.chance(30))
            Inst.pop_back();
          S += Inst;
        }
        S += drawFrom(R, Filler, R.range(0, 12));
      }
    } else {
      S = drawFrom(R, Own.empty() ? members(ByteSet(), false) : Own,
                   R.range(0, 16));
    }
    Out.push_back(S);
  }
  return Out;
}

std::string show(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '\n')
      Out += "\\n";
    else if (C == '\t')
      Out += "\\t";
    else if (C == '"' || C == '\\')
      Out += std::string("\\") + C;
    else
      Out += C;
  }
  return Out + "\"";
}

std::string span(const ref::RefRegex::Result &R) {
  return "(" + std::to_string(R.Start) + " . " + std::to_string(R.End) + ")";
}

/// Feeds text to a fresh stream in the chunks that end at each of cuts;
/// lists the offset after every feed that leaves it undecided, then the
/// answer it settles on, from a feed or from regex-stream-end!.
const char *FeedCuts = R"scheme(
(define (feed-cuts re text cuts)
  (let ((st (regex-stream re)))
    (let loop ((from 0) (cuts cuts) (acc '()))
      (if (null? cuts)
          (reverse (cons (regex-stream-end! st) acc))
          (let ((r (regex-stream-feed! st (substring text from (car cuts)))))
            (if r
                (reverse (cons r acc))
                (loop (car cuts) (cdr cuts)
                      (cons (regex-stream-offset st) acc))))))))
)scheme";

class Oracle {
public:
  Oracle() {
    Interp::Result R = I.eval(FeedCuts);
    EXPECT_TRUE(R.Ok) << R.Error;
  }

  /// Binds the pattern; false (with a failure) if the engine rejects it.
  bool compile(const std::string &Pattern) {
    I.defineGlobal("pat", Value::object(I.heap().allocString(Pattern)));
    Interp::Result R = I.eval("(define re (regex-compile pat))"
                              "(regex-program-size re)");
    if (!R.Ok) {
      ADD_FAILURE() << "the engine rejects " << show(Pattern) << ": "
                    << R.Error;
      return false;
    }
    NInstrs = static_cast<uint64_t>(R.Val.asFixnum());
    return true;
  }

  void setText(const std::string &Text) {
    I.defineGlobal("text", Value::object(I.heap().allocString(Text)));
  }

  /// The written value of \p Src, and whether its regex work stayed
  /// within (bytes+1) * instructions steps.
  std::string run(const std::string &Src, bool &WithinBound) {
    Stats::Snapshot Before = I.snapshot();
    std::string Got = I.evalToString(Src);
    Stats::Snapshot D = I.snapshot() - Before;
    WithinBound = D.RegexSteps <= (D.RegexBytesScanned + 1) * NInstrs;
    return Got;
  }

private:
  Interp I;
  uint64_t NInstrs = 0;
};

/// Random increasing cut points ending at the text's end; a chunk may be
/// empty.
std::vector<size_t> cutPoints(Rng &R, size_t Len) {
  std::vector<size_t> Cuts;
  for (int K = R.range(0, 3); K > 0; --K)
    Cuts.push_back(static_cast<size_t>(R.range(0, static_cast<int>(Len))));
  std::sort(Cuts.begin(), Cuts.end());
  if (Len != 0)
    Cuts.push_back(Len);
  return Cuts;
}

/// What feed-cuts must answer, from the reference alone: the bytes fed
/// after each chunk that leaves the answer open, then the whole text's
/// answer, from the first chunk whose prefix fixes it or from the end.
std::string expectedFeeds(const ref::RefRegex &Ref, const std::string &Text,
                          const std::vector<size_t> &Cuts) {
  ref::RefRegex::Result Whole = Ref.search(Text);
  std::string Answer = Whole.Found ? span(Whole) : "nomatch";
  std::string Out = "(";
  for (size_t Cut : Cuts) {
    ref::RefRegex::Result R;
    if (Ref.settled(std::string_view(Text).substr(0, Cut), R))
      break;
    Out += std::to_string(Cut) + " ";
  }
  return Out + Answer + ")";
}

std::string listOf(const std::vector<size_t> &Cuts) {
  std::string S = "'(";
  for (size_t I = 0; I != Cuts.size(); ++I)
    S += (I ? " " : "") + std::to_string(Cuts[I]);
  return S + ")";
}

} // namespace

TEST(RegexOracle, RandomPatternsAgreeWithTheReference) {
  Rng R(20261020);
  Oracle O;
  int Failures = 0, Checked = 0;
  for (int P = 0; P != Patterns && Failures < 10; ++P) {
    PatternGen PG(R);
    Gen G = PG.alt(2);
    std::string Pattern = print(G);
    ref::RefRegex Ref;
    std::string Err;
    ASSERT_TRUE(Ref.parse(Pattern, Err)) << show(Pattern) << ": " << Err;
    if (!O.compile(Pattern)) {
      ++Failures;
      continue;
    }
    for (const std::string &Text : texts(G, R)) {
      O.setText(Text);
      std::string Where = "pattern " + show(Pattern) + ", text " + show(Text);
      bool InBound = false;

      ref::RefRegex::Result Want = Ref.search(Text);
      std::string Got = O.run("(regex-search re text)", InBound);
      if (Got != (Want.Found ? span(Want) : "#f")) {
        ADD_FAILURE() << Where << ": regex-search gave " << Got;
        ++Failures;
      }
      EXPECT_TRUE(InBound) << Where << ": regex-search overran its steps";

      bool Waiting = false;
      std::vector<size_t> Ends = Ref.ends(Text, 0, Waiting);
      bool Whole = !Ends.empty() && Ends.back() == Text.size();
      Got = O.run("(regex-match re text)", InBound);
      if (Got != (Whole ? "#t" : "#f")) {
        ADD_FAILURE() << Where << ": regex-match gave " << Got;
        ++Failures;
      }
      EXPECT_TRUE(InBound) << Where << ": regex-match overran its steps";

      std::vector<size_t> Cuts = cutPoints(R, Text.size());
      std::string Feeds = expectedFeeds(Ref, Text, Cuts);
      Got = O.run("(feed-cuts re text " + listOf(Cuts) + ")", InBound);
      if (Got != Feeds) {
        ADD_FAILURE() << Where << ", cuts " << listOf(Cuts)
                      << ": the stream gave " << Got << ", want " << Feeds;
        ++Failures;
      }
      EXPECT_TRUE(InBound) << Where << ": the stream overran its steps";
      ++Checked;
    }
  }
  EXPECT_EQ(Checked, Patterns * TextsPerPattern);
}

TEST(RegexOracle, AnchorsWholeAndFed) {
  // '^' holds only at offset 0 and '$' only at the end, whole or fed.
  struct Case {
    const char *Pattern, *Text;
    const char *Search; ///< regex-search's answer.
    const char *Cuts;   ///< Where the stream's chunks end.
    const char *Feeds;  ///< feed-cuts's answer.
  };
  const Case Cases[] = {
      {"^ab", "xxab", "#f", "'(4)", "(nomatch)"},
      {"^a|b", "xxxb", "(3 . 4)", "'(1 2 4)", "(1 2 (3 . 4))"},
      // The '^' branch answers at offset 0 even though its byte is not
      // one the unanchored spawn can start with.
      {"^a|b", "ab", "(0 . 1)", "'(1 2)", "((0 . 1))"},
      {"^x|y", "xy", "(0 . 1)", "'(2)", "((0 . 1))"},
      {"b$", "bxb", "(2 . 3)", "'(3)", "(3 (2 . 3))"},
      {"x*$", "ab", "(2 . 2)", "'(1 2)", "(1 2 (2 . 2))"},
      {"$", "", "(0 . 0)", "'()", "((0 . 0))"},
      {"(foo|ba)r", "ZZZbaZbar", "(6 . 9)", "'(4 9)", "(4 (6 . 9))"},
  };
  Oracle O;
  for (const Case &C : Cases) {
    ASSERT_TRUE(O.compile(C.Pattern));
    O.setText(C.Text);
    bool InBound = false;
    EXPECT_EQ(O.run("(regex-search re text)", InBound), C.Search)
        << C.Pattern << " on " << show(C.Text);
    std::string Feed = std::string("(feed-cuts re text ") + C.Cuts + ")";
    EXPECT_EQ(O.run(Feed, InBound), C.Feeds)
        << C.Pattern << " on " << show(C.Text) << " cut at " << C.Cuts;
  }
}
