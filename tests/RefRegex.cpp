// The reference matcher, copied from perfbench/src/Check.cpp; see
// RefRegex.h.

#include "RefRegex.h"

#include <algorithm>
#include <cctype>

namespace ref {

// --- The reference matcher ---------------------------------------------------

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

std::vector<size_t> RefRegex::ends(std::string_view T, size_t Start,
                                   bool &Waiting) const {
  std::vector<size_t> E;
  ends(Root, T, Start, E, Waiting);
  dedup(E);
  return E;
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

} // namespace ref
