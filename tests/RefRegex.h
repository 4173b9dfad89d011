// A brute-force leftmost-longest regex matcher that shares no code with
// the engine in src/regex: the oracle test_regex_oracle.cpp checks the
// Pike VM against.  It is a copy of perfbench's RefRegex
// (perfbench/src/Check.{h,cpp}), which cross-checks the benchmark's
// MATCH answers; perfbench keeps its own, so the benchmark and the tests
// never depend on each other.

#ifndef OSC_TESTS_REFREGEX_H
#define OSC_TESTS_REFREGEX_H

#include <bitset>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ref {

/// Brute-force leftmost-longest matcher over literals, [..] classes with
/// ranges and negation, \d \w \s (and their complements), groups, |,
/// * + ? and {m,n}; it has no anchors.  Exponential in nothing, quadratic
/// in the text at worst.
class RefRegex {
public:
  struct Result {
    bool Found = false;
    int64_t Start = -1;
    int64_t End = -1;
  };
  /// False with \p Err on a pattern outside the supported syntax.
  bool parse(std::string_view Pattern, std::string &Err);
  Result search(std::string_view Text) const;
  /// Every end position a match starting at \p Start in \p Text can
  /// reach, ascending; \p Waiting is set when some attempt needs a byte
  /// past the end of \p Text.
  std::vector<size_t> ends(std::string_view Text, size_t Start,
                           bool &Waiting) const;
  /// True when \p Prefix already fixes the answer whatever bytes follow:
  /// a match exists and no attempt starting at or before it is still
  /// waiting for input.  That is when a streaming matcher settles.
  bool settled(std::string_view Prefix, Result &R) const;

private:
  struct Node {
    enum Kind : uint8_t { Set, Cat, Alt, Rep } K = Set;
    std::bitset<256> Bytes;
    std::vector<int> Kids;
    int Min = 0;
    int Max = -1; ///< -1 = unbounded.
  };
  int parseAlt(std::string_view P, size_t &I, std::string &Err);
  int parseCat(std::string_view P, size_t &I, std::string &Err);
  int parseAtom(std::string_view P, size_t &I, std::string &Err);
  void ends(int N, std::string_view T, size_t Pos, std::vector<size_t> &Out,
            bool &Waiting) const;
  std::vector<Node> Nodes;
  int Root = -1;
};

} // namespace ref

#endif // OSC_TESTS_REFREGEX_H
