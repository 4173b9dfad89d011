#include "Check.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace pb {

const char *verbName(Request::Verb V) {
  static const char *Names[] = {"PING", "EVAL", "MATCH", "STREAM",
                                "MATCH/STREAM"};
  return Names[V];
}

// --- EVAL / STREAM payloads -------------------------------------------------

namespace {

struct OpSpec {
  const char *Name;
  int MinArgs;
  int MaxArgs;
};
// The calculator the serving protocol's safe-eval implements.
const OpSpec Ops[] = {{"+", 2, 3},        {"*", 2, 2},         {"-", 1, 2},
                      {"quotient", 2, 2}, {"remainder", 2, 2}, {"min", 2, 3},
                      {"max", 2, 3},      {"<", 2, 2},         {"=", 2, 2}};
constexpr int NumOps = sizeof(Ops) / sizeof(Ops[0]);
constexpr int64_t ValueLimit = 1000000; // far inside the VM's fixnum range

/// Scheme semantics: quotient truncates toward zero and remainder takes
/// the dividend's sign, as C++ / and % do.
bool applyOp(int Op, const std::vector<int64_t> &A, int64_t &Out) {
  switch (Op) {
  case 0:
    Out = std::accumulate(A.begin(), A.end(), int64_t(0));
    return true;
  case 1:
    Out = A[0] * A[1];
    return true;
  case 2:
    Out = A.size() == 1 ? -A[0] : A[0] - A[1];
    return true;
  case 3:
  case 4:
    if (A[1] == 0)
      return false;
    Out = Op == 3 ? A[0] / A[1] : A[0] % A[1];
    return true;
  case 5:
    Out = *std::min_element(A.begin(), A.end());
    return true;
  case 6:
    Out = *std::max_element(A.begin(), A.end());
    return true;
  case 7:
    Out = A[0] < A[1];
    return true;
  default:
    Out = A[0] == A[1];
    return true;
  }
}

} // namespace

Expr genExpr(Rng &R, int Depth) {
  if (Depth <= 0) {
    int64_t V = R.range(-99, 99);
    return {std::to_string(V), V};
  }
  for (;;) {
    int Op = static_cast<int>(R.range(0, NumOps - 1));
    int N = static_cast<int>(R.range(Ops[Op].MinArgs, Ops[Op].MaxArgs));
    int Deepest = static_cast<int>(R.range(0, N - 1));
    std::string Text = std::string("(") + Ops[Op].Name;
    std::vector<int64_t> Vals;
    for (int K = 0; K != N; ++K) {
      Expr E = genExpr(R, K == Deepest ? Depth - 1 : R.range(0, Depth - 1));
      Text += " " + E.Text;
      Vals.push_back(E.Value);
    }
    int64_t V = 0;
    if (applyOp(Op, Vals, V) && V >= -ValueLimit && V <= ValueLimit)
      return {Text + ")", V};
  }
}

// --- The reference matcher ----------------------------------------------------

bool RefRegex::parse(std::string_view P, std::string &Err) {
  Nodes.clear();
  size_t I = 0;
  Root = parseAlt(P, I, Err);
  if (Root >= 0 && I != P.size()) {
    Err = "unbalanced ')'";
    Root = -1;
  }
  return Root >= 0;
}

int RefRegex::parseAlt(std::string_view P, size_t &I, std::string &Err) {
  int First = parseCat(P, I, Err);
  if (First < 0 || I >= P.size() || P[I] != '|')
    return First;
  Node A;
  A.K = Node::Alt;
  A.Kids.push_back(First);
  while (I < P.size() && P[I] == '|') {
    ++I;
    int C = parseCat(P, I, Err);
    if (C < 0)
      return -1;
    A.Kids.push_back(C);
  }
  Nodes.push_back(A);
  return static_cast<int>(Nodes.size()) - 1;
}

int RefRegex::parseCat(std::string_view P, size_t &I, std::string &Err) {
  Node C;
  C.K = Node::Cat;
  while (I < P.size() && P[I] != '|' && P[I] != ')') {
    int A = parseAtom(P, I, Err);
    if (A < 0)
      return -1;
    while (I < P.size() &&
           (P[I] == '*' || P[I] == '+' || P[I] == '?' || P[I] == '{')) {
      Node Rp;
      Rp.K = Node::Rep;
      Rp.Kids.push_back(A);
      char Q = P[I++];
      if (Q == '*') {
        Rp.Min = 0;
      } else if (Q == '+') {
        Rp.Min = 1;
      } else if (Q == '?') {
        Rp.Max = 1;
      } else {
        auto Num = [&](int &Out) {
          size_t B = I;
          Out = 0;
          while (I < P.size() && P[I] >= '0' && P[I] <= '9')
            Out = Out * 10 + (P[I++] - '0');
          return I > B;
        };
        if (!Num(Rp.Min)) {
          Err = "bad {m,n}";
          return -1;
        }
        Rp.Max = Rp.Min;
        if (I < P.size() && P[I] == ',') {
          ++I;
          if (!Num(Rp.Max))
            Rp.Max = -1;
        }
        if (I >= P.size() || P[I] != '}') {
          Err = "bad {m,n}";
          return -1;
        }
        ++I;
      }
      Nodes.push_back(Rp);
      A = static_cast<int>(Nodes.size()) - 1;
    }
    C.Kids.push_back(A);
  }
  Nodes.push_back(C);
  return static_cast<int>(Nodes.size()) - 1;
}

namespace {
/// Adds \d \w \s (or, upper-cased, their complements) to \p Out; any
/// other escaped byte stands for itself.
void escapeClass(char E, std::bitset<256> &Out) {
  std::bitset<256> B;
  char L = static_cast<char>(E | 0x20);
  for (int C = 0; C != 256; ++C) {
    bool In = L == 'd'   ? (C >= '0' && C <= '9')
              : L == 'w' ? (std::isalnum(C) || C == '_')
              : L == 's' ? (C == ' ' || (C >= '\t' && C <= '\r'))
                         : false;
    B[static_cast<size_t>(C)] = In;
  }
  if (L != 'd' && L != 'w' && L != 's')
    Out[static_cast<uint8_t>(E)] = true;
  else
    Out |= E == L ? B : ~B;
}
} // namespace

int RefRegex::parseAtom(std::string_view P, size_t &I, std::string &Err) {
  char C = P[I];
  if (C == '(') {
    ++I;
    int A = parseAlt(P, I, Err);
    if (A < 0)
      return -1;
    if (I >= P.size() || P[I] != ')') {
      Err = "unclosed group";
      return -1;
    }
    ++I;
    return A;
  }
  Node S;
  S.K = Node::Set;
  if (C == '[') {
    ++I;
    bool Neg = I < P.size() && P[I] == '^';
    if (Neg)
      ++I;
    while (I < P.size() && P[I] != ']') {
      if (P[I] == '\\' && I + 1 < P.size()) {
        escapeClass(P[I + 1], S.Bytes);
        I += 2;
        continue;
      }
      uint8_t Lo = static_cast<uint8_t>(P[I++]);
      uint8_t Hi = Lo;
      if (I + 1 < P.size() && P[I] == '-' && P[I + 1] != ']') {
        Hi = static_cast<uint8_t>(P[I + 1]);
        I += 2;
      }
      for (int B = Lo; B <= Hi; ++B)
        S.Bytes[static_cast<size_t>(B)] = true;
    }
    if (I >= P.size()) {
      Err = "unclosed class";
      return -1;
    }
    ++I;
    if (Neg)
      S.Bytes.flip();
  } else if (C == '.') {
    ++I;
    S.Bytes.set();
    S.Bytes['\n'] = false;
  } else if (C == '\\' && I + 1 < P.size()) {
    escapeClass(P[I + 1], S.Bytes);
    I += 2;
  } else if (C == '^' || C == '$' || C == '*' || C == '+' || C == '?' ||
             C == '{' || C == '\\') {
    Err = std::string("unsupported '") + C + "'";
    return -1;
  } else {
    S.Bytes[static_cast<uint8_t>(C)] = true;
    ++I;
  }
  Nodes.push_back(S);
  return static_cast<int>(Nodes.size()) - 1;
}

namespace {
void dedup(std::vector<size_t> &V) {
  std::sort(V.begin(), V.end());
  V.erase(std::unique(V.begin(), V.end()), V.end());
}
} // namespace

/// Every end position node \p N can reach from \p Pos; \p Waiting is set
/// when some path needs a byte past the end of \p T.
void RefRegex::ends(int N, std::string_view T, size_t Pos,
                    std::vector<size_t> &Out, bool &Waiting) const {
  const Node &Nd = Nodes[static_cast<size_t>(N)];
  switch (Nd.K) {
  case Node::Set:
    if (Pos >= T.size())
      Waiting = true;
    else if (Nd.Bytes[static_cast<uint8_t>(T[Pos])])
      Out.push_back(Pos + 1);
    return;
  case Node::Alt:
    for (int K : Nd.Kids)
      ends(K, T, Pos, Out, Waiting);
    return;
  case Node::Cat: {
    std::vector<size_t> Cur{Pos}, Next;
    for (int K : Nd.Kids) {
      Next.clear();
      for (size_t P : Cur)
        ends(K, T, P, Next, Waiting);
      dedup(Next);
      Cur.swap(Next);
      if (Cur.empty())
        return;
    }
    Out.insert(Out.end(), Cur.begin(), Cur.end());
    return;
  }
  case Node::Rep: {
    // Breadth-first over the repetition count.  Past Min, a position met
    // again can only have less budget left than when first met, so it is
    // not explored twice; that also ends unbounded loops.
    std::vector<size_t> Cur{Pos}, Next, Seen;
    for (int Count = 0;; ++Count) {
      if (Count >= Nd.Min) {
        Out.insert(Out.end(), Cur.begin(), Cur.end());
        Seen.insert(Seen.end(), Cur.begin(), Cur.end());
        dedup(Seen);
      }
      if (Nd.Max >= 0 && Count == Nd.Max)
        return;
      Next.clear();
      for (size_t P : Cur)
        ends(Nd.Kids[0], T, P, Next, Waiting);
      dedup(Next);
      if (Count + 1 >= Nd.Min)
        Next.erase(std::remove_if(Next.begin(), Next.end(),
                                  [&](size_t P) {
                                    return std::binary_search(
                                        Seen.begin(), Seen.end(), P);
                                  }),
                   Next.end());
      if (Next.empty())
        return;
      Cur.swap(Next);
    }
  }
  }
}

RefRegex::Result RefRegex::search(std::string_view T) const {
  std::vector<size_t> E;
  for (size_t S = 0; S <= T.size(); ++S) {
    E.clear();
    bool Waiting = false;
    ends(Root, T, S, E, Waiting);
    if (!E.empty())
      return {true, static_cast<int64_t>(S),
              static_cast<int64_t>(*std::max_element(E.begin(), E.end()))};
  }
  return {};
}

bool RefRegex::settled(std::string_view Prefix, Result &R) const {
  R = search(Prefix);
  if (!R.Found)
    return false; // unanchored: a later byte could still start a match
  std::vector<size_t> E;
  for (int64_t S = 0; S <= R.Start; ++S) {
    E.clear();
    bool Waiting = false;
    ends(Root, Prefix, static_cast<size_t>(S), E, Waiting);
    if (Waiting)
      return false;
  }
  return true;
}

// --- MATCH texts ---------------------------------------------------------------

namespace {

/// Filler bytes: upper case and punctuation, disjoint from every byte a
/// generated pattern can match.
const char Filler[] = "ABCDEFGHIJKLMNOPQRSTUVWXYZ ,.;:";

std::string filler(Rng &R, size_t N) {
  std::string S(N, ' ');
  for (char &C : S)
    C = Filler[R.range(0, sizeof(Filler) - 2)];
  return S;
}

char lower(Rng &R) { return static_cast<char>('a' + R.range(0, 25)); }

std::string word(Rng &R, int Lo, int Hi) {
  std::string W;
  for (int64_t K = R.range(Lo, Hi); K > 0; --K)
    W += lower(R);
  return W;
}

/// One pattern piece and a way to draw strings from its language.
struct Atom {
  std::string Pat;
  bool Optional = false; ///< Matches the empty string.
  enum Kind { Lit, ClassPlus, Digits, Alt, OptDash, ClassStar } K = Lit;
  std::vector<std::string> Words;
  char Lo = 'a', Hi = 'z';
  int Min = 0, Max = 0;

  std::string instance(Rng &R) const {
    std::string S;
    switch (K) {
    case Lit:
      return Pat;
    case ClassPlus:
    case ClassStar:
      for (int64_t N = R.range(K == ClassPlus ? 1 : 0, 5); N > 0; --N)
        S += static_cast<char>(R.range(Lo, Hi));
      return S;
    case Digits:
      for (int64_t N = R.range(Min, Max); N > 0; --N)
        S += static_cast<char>('0' + R.range(0, 9));
      return S;
    case Alt:
      return Words[static_cast<size_t>(R.range(0, Words.size() - 1))];
    case OptDash:
      return R.chance(0.5) ? "-" : "";
    }
    return S;
  }
};

Atom genAtom(Rng &R, bool First) {
  Atom A;
  A.K = static_cast<Atom::Kind>(R.range(0, First ? 3 : 5));
  switch (A.K) {
  case Atom::Lit:
    A.Pat = word(R, 1, 3);
    break;
  case Atom::ClassPlus:
  case Atom::ClassStar:
    A.Lo = static_cast<char>('a' + R.range(0, 20));
    A.Hi = static_cast<char>(A.Lo + R.range(1, 5));
    A.Pat = std::string("[") + A.Lo + "-" + A.Hi + "]" +
            (A.K == Atom::ClassPlus ? "+" : "*");
    A.Optional = A.K == Atom::ClassStar;
    break;
  case Atom::Digits:
    A.Min = static_cast<int>(R.range(1, 2));
    A.Max = A.Min + static_cast<int>(R.range(0, 2));
    A.Pat = std::string(R.chance(0.5) ? "\\d" : "[0-9]") + "{" +
            std::to_string(A.Min) + "," + std::to_string(A.Max) + "}";
    break;
  case Atom::Alt:
    A.Pat = "(";
    for (int64_t N = R.range(2, 3); N > 0; --N) {
      A.Words.push_back(word(R, 1, 4));
      A.Pat += (A.Words.size() > 1 ? "|" : "") + A.Words.back();
    }
    A.Pat += ")";
    break;
  case Atom::OptDash:
    A.Pat = "-?";
    A.Optional = true;
    break;
  }
  return A;
}

} // namespace

MatchCase genMatchCase(Rng &R, size_t Len, bool Plant) {
  std::vector<Atom> Atoms;
  for (int64_t N = R.range(2, 4), K = 0; K != N; ++K)
    Atoms.push_back(genAtom(R, K == 0));
  MatchCase C;
  for (const Atom &A : Atoms)
    C.Pattern += A.Pat;
  std::string Inst;
  for (const Atom &A : Atoms)
    Inst += A.instance(R);
  // A near miss is the first piece alone, used only when some later
  // piece cannot match the empty string and the reference finds no match
  // inside it (a first piece like [a-f]+ can spell the whole pattern).
  bool CanMiss = std::any_of(Atoms.begin() + 1, Atoms.end(),
                             [](const Atom &A) { return !A.Optional; });
  RefRegex Re;
  std::string Err;
  CanMiss = CanMiss && Re.parse(C.Pattern, Err);

  size_t Body = Plant ? Inst.size() : 0;
  Len = std::max(Len, Body + 1);
  size_t Room = Len - Body;
  size_t At = static_cast<size_t>(R.range(0, static_cast<int64_t>(Room)));
  C.Text = filler(R, Plant ? At : Room);
  for (int64_t M = CanMiss ? R.range(0, 2) : 0; M > 0; --M) {
    std::string Miss = Atoms[0].instance(R);
    if (C.Text.size() < Miss.size() + 2)
      break;
    if (Re.search(Miss).Found)
      continue;
    // Filler on both sides keeps the miss from touching anything else.
    size_t P = static_cast<size_t>(
        R.range(1, static_cast<int64_t>(C.Text.size() - Miss.size() - 1)));
    C.Text.replace(P, Miss.size(), Miss);
    C.Text[P - 1] = ' ';
    C.Text[P + Miss.size()] = ' ';
  }
  if (Plant) {
    C.Start = static_cast<int64_t>(C.Text.size());
    C.Text += Inst;
    C.End = static_cast<int64_t>(C.Text.size());
    C.Text += filler(R, Room - At);
  }
  return C;
}

std::string crossCheck(const MatchCase &C) {
  RefRegex Re;
  std::string Err;
  if (!Re.parse(C.Pattern, Err))
    return "reference cannot parse " + C.Pattern + ": " + Err;
  RefRegex::Result Got = Re.search(C.Text);
  bool Want = C.Start >= 0;
  if (Got.Found != Want || (Want && (Got.Start != C.Start || Got.End != C.End)))
    return "pattern " + C.Pattern + ": built span " + std::to_string(C.Start) +
           ".." + std::to_string(C.End) + ", reference " +
           std::to_string(Got.Start) + ".." + std::to_string(Got.End);
  return "";
}

namespace {
std::string foundLine(int64_t S, int64_t E) {
  return "FOUND " + std::to_string(S) + " " + std::to_string(E);
}
MatchCase checkedCase(Rng &R, size_t Len, bool Plant) {
  MatchCase C = genMatchCase(R, Len, Plant);
  std::string Err = crossCheck(C);
  if (!Err.empty())
    throw std::runtime_error("input generator: " + Err);
  return C;
}
} // namespace

Request makePing() {
  Request Q;
  Q.V = Request::Ping;
  Q.Sends = {"PING\n"};
  Q.Replies = {"PONG"};
  return Q;
}

Request makeEval(Rng &R) {
  Expr E = genExpr(R, static_cast<int>(R.range(1, 4)));
  Request Q;
  Q.V = Request::Eval;
  Q.Sends = {"EVAL " + E.Text + "\n"};
  Q.Replies = {std::to_string(E.Value)};
  return Q;
}

Request makeMatch(Rng &R) {
  double L = std::exp(std::log(16.0) + R.unit() * (std::log(4096.0) - std::log(16.0)));
  MatchCase C = checkedCase(R, static_cast<size_t>(L), R.chance(0.8));
  Request Q;
  Q.V = Request::Match;
  Q.Sends = {"MATCH " + C.Pattern + " " + C.Text + "\n"};
  Q.Replies = {C.Start >= 0 ? foundLine(C.Start, C.End) : "NOMATCH"};
  return Q;
}

Request makeStream(Rng &R) {
  Request Q;
  Q.V = Request::Stream;
  std::string Payload = "(";
  for (int64_t N = R.range(2, 8), K = 0; K != N; ++K) {
    Expr E = genExpr(R, static_cast<int>(R.range(0, 2)));
    Payload += (K ? " " : "") + E.Text;
    Q.Replies.push_back("PART " + std::to_string(E.Value));
  }
  Q.Replies.push_back("DONE");
  Q.Sends = {"STREAM " + Payload + ")\n"};
  return Q;
}

Request makeMatchStream(Rng &R) {
  for (;;) {
    size_t Chunks = static_cast<size_t>(R.range(2, 10));
    MatchCase C = checkedCase(R, static_cast<size_t>(R.range(24, 400)),
                              R.chance(0.8));
    // Chunks - 1 distinct cut points inside the text, so no chunk is empty.
    std::vector<size_t> Cuts;
    while (Cuts.size() < Chunks - 1) {
      size_t P = static_cast<size_t>(
          R.range(1, static_cast<int64_t>(C.Text.size()) - 1));
      if (std::find(Cuts.begin(), Cuts.end(), P) == Cuts.end())
        Cuts.push_back(P);
    }
    std::sort(Cuts.begin(), Cuts.end());
    Cuts.push_back(C.Text.size());
    std::vector<std::string> Parts;
    size_t From = 0;
    for (size_t To : Cuts) {
      Parts.push_back(C.Text.substr(From, To - From));
      From = To;
    }
    if (std::find(Parts.begin(), Parts.end(), "END") != Parts.end())
      continue; // a chunk that reads as the terminator; draw again

    RefRegex Re;
    std::string Err;
    Re.parse(C.Pattern, Err); // crossCheck already parsed it
    Request Q;
    Q.V = Request::MatchStream;
    RefRegex::Result Res;
    bool Settled = false;
    std::string Prefix;
    for (size_t K = 0; K != Parts.size() && !Settled; ++K) {
      Prefix += Parts[K];
      Q.Sends.push_back((K == 0 ? "MATCH/STREAM " + C.Pattern + "\n" : "") +
                        Parts[K] + "\n");
      Settled = Re.settled(Prefix, Res);
      Q.Replies.push_back(Settled ? foundLine(Res.Start, Res.End) : "AGAIN");
    }
    if (!Settled) {
      Res = Re.search(Prefix);
      Q.Sends.push_back("END\n");
      Q.Replies.push_back(Res.Found ? foundLine(Res.Start, Res.End)
                                    : "NOMATCH");
    }
    if (Res.Found != (C.Start >= 0) ||
        (Res.Found && (Res.Start != C.Start || Res.End != C.End)))
      throw std::runtime_error("input generator: stream span disagrees for " +
                               C.Pattern);
    return Q;
  }
}

// --- Reply matching and the arrival schedule ----------------------------------

ReplyMatcher::Outcome ReplyMatcher::onLine(std::string_view Line,
                                           Pending &Done) {
  for (auto It = Q.begin(); It != Q.end(); ++It) {
    if (It->Req->Replies[It->Next] != Line)
      continue;
    if (++It->Next < It->Req->Replies.size())
      return Outcome::Progress;
    Done = *It;
    Q.erase(It);
    return Outcome::Completed;
  }
  return Outcome::Unmatched;
}

void WindowedLatency::add(Clock::time_point Done, double Us) {
  addTo(static_cast<size_t>(Done > T0 ? msBetween(T0, Done) / 1e3 : 0), Us);
}

void WindowedLatency::addTo(size_t W, double Us) {
  if (Secs.size() <= W)
    Secs.resize(W + 1);
  Secs[W].push_back(Us);
}

double WindowedLatency::across(double P) const {
  std::vector<double> PerWindow;
  for (const std::vector<double> &V : Secs)
    if (V.size() >= MinSamples)
      PerWindow.push_back(percentile(V, P));
  return PerWindow.empty() ? percentile(pooled(), P) : midmean(PerWindow);
}

std::vector<double> WindowedLatency::pooled() const {
  std::vector<double> All;
  for (const std::vector<double> &V : Secs)
    All.insert(All.end(), V.begin(), V.end());
  return All;
}

size_t WindowedLatency::size() const {
  size_t N = 0;
  for (const std::vector<double> &V : Secs)
    N += V.size();
  return N;
}

double OpenLoop::meanLateMs() const { return mean(LateMs); }

} // namespace pb
