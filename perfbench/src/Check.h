//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's own answers.  Every request it sends carries the reply
/// lines it must get back, computed here in C++ and never through the
/// code under test:
///
///   * EVAL and STREAM payloads are fixnum expressions evaluated below;
///   * MATCH and MATCH/STREAM texts are built around a planted match, and
///     the planted span is cross-checked by RefRegex, a brute-force
///     leftmost-longest matcher;
///   * ReplyMatcher pairs pipelined reply lines with outstanding requests;
///   * OpenLoop keeps the paced phase's arrival schedule and lateness.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_CHECK_H
#define PERFBENCH_CHECK_H

#include "Common.h"

#include <bitset>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

namespace pb {

/// One request or session: the lines the client sends and every reply
/// line it must read back.  Sends[0] goes out first; each later send
/// follows the reply with the same index minus one (MATCH/STREAM's
/// lock-step chunks).
struct Request {
  enum Verb : uint8_t { Ping, Eval, Match, Stream, MatchStream, NumVerbs };
  Verb V = Ping;
  std::vector<std::string> Sends; ///< Each ends with '\n'.
  std::vector<std::string> Replies;
};
const char *verbName(Request::Verb V);

/// A calculator expression and the value the server's safe-eval must
/// give it.
struct Expr {
  std::string Text;
  int64_t Value = 0;
};
/// A random expression whose deepest list nesting is exactly \p Depth
/// (0 = a bare integer).  Every intermediate value stays small and no
/// divisor is zero.
Expr genExpr(Rng &R, int Depth);

/// Brute-force leftmost-longest matcher over the syntax the generator
/// uses: literals, [..] classes with ranges and negation, \d \w \s,
/// groups, |, * + ? and {m,n}.  Exponential in nothing, quadratic in the
/// text at worst; it only runs while inputs are being generated.
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

/// A pattern, a text, and where the match must be.
struct MatchCase {
  std::string Pattern;
  std::string Text;
  int64_t Start = -1; ///< -1 when the text was built without a match.
  int64_t End = -1;
};
/// Builds a case of \p Len bytes; with \p Plant, one instance of the
/// pattern sits at a random offset, otherwise only near misses do.  The
/// filler alphabet is disjoint from every pattern's, so the planted span
/// is the leftmost-longest match by construction.
MatchCase genMatchCase(Rng &R, size_t Len, bool Plant);

Request makePing();
Request makeEval(Rng &R);
/// MATCH with a text of 16 B to ~4 KB (log-uniform).
Request makeMatch(Rng &R);
/// STREAM of 2..8 expressions.
Request makeStream(Rng &R);
/// MATCH/STREAM with 2..10 chunk lines in lock-step, ended with END if the
/// matcher is still undecided after the last chunk.
Request makeMatchStream(Rng &R);
/// Empty on success; otherwise why the generated request's expected
/// replies disagree with the reference matcher.
std::string crossCheck(const MatchCase &C);

/// Pairs pipelined reply lines with outstanding requests on one
/// connection.  Requests are served by one green thread each, so the
/// protocol does not promise reply order: a line goes to the oldest
/// outstanding request whose next expected line it equals.
class ReplyMatcher {
public:
  struct Pending {
    const Request *Req = nullptr;
    uint32_t Next = 0; ///< Index of the next expected reply line.
    uint64_t Id = 0;
    Clock::time_point Due; ///< Scheduled (or actual) send time.
  };
  enum class Outcome { Progress, Completed, Unmatched };

  void expect(const Request *Req, uint64_t Id, Clock::time_point Due) {
    Q.push_back({Req, 0, Id, Due});
  }
  /// \p Done receives the request a Completed line finished.
  Outcome onLine(std::string_view Line, Pending &Done);
  size_t outstanding() const { return Q.size(); }
  const std::deque<Pending> &pending() const { return Q; }

private:
  std::deque<Pending> Q;
};

/// Latency samples bucketed by window, by default the second of the
/// measured window in which they completed.  A run's p50 and p99 are the
/// interquartile means of the per-window figures, so one long stall moves
/// one window's figure, not the run's.
class WindowedLatency {
public:
  /// Windows with fewer samples than this are left out, so each
  /// window's p99 has at least ten samples beyond it.
  static constexpr size_t MinSamples = 1000;

  explicit WindowedLatency(Clock::time_point Start) : T0(Start) {}
  /// Adds a sample to the second after Start in which it completed.
  void add(Clock::time_point Done, double Us);
  /// Adds a sample to window \p W, for callers that cut their own windows.
  void addTo(size_t W, double Us);
  /// Interquartile mean over the qualifying windows of each window's
  /// \p P-th percentile; the pooled percentile if no window qualifies.
  double across(double P) const;
  /// Every sample, pooled.
  std::vector<double> pooled() const;
  size_t size() const;

private:
  Clock::time_point T0;
  std::vector<std::vector<double>> Secs;
};

/// A fixed-rate arrival schedule: send K is due at Start + K / Rate,
/// whatever happened to sends before it.  Latency is measured from the due
/// time, so a stall in the server or the generator is charged to every
/// request it delayed (no coordinated omission); how late the generator
/// itself issued each send is recorded separately.
class OpenLoop {
public:
  OpenLoop(double PerSec, Clock::time_point Start) : Rate(PerSec), T0(Start) {}
  Clock::time_point due(uint64_t K) const {
    return T0 + std::chrono::nanoseconds(
                    static_cast<int64_t>(static_cast<double>(K) * 1e9 / Rate));
  }
  Clock::time_point nextDue() const { return due(Issued); }
  bool isDue(Clock::time_point Now) const { return nextDue() <= Now; }
  /// Issues the next scheduled send at \p Now; returns its due time.
  Clock::time_point issue(Clock::time_point Now) {
    Clock::time_point D = nextDue();
    LateMs.push_back(Now > D ? msBetween(D, Now) : 0.0);
    ++Issued;
    return D;
  }
  uint64_t issued() const { return Issued; }
  double meanLateMs() const;
  std::vector<double> LateMs;

private:
  double Rate;
  Clock::time_point T0;
  uint64_t Issued = 0;
};

} // namespace pb

#endif // PERFBENCH_CHECK_H
