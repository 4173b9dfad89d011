// Tests for the benchmark's own checking code: the reply matcher, the
// percentile code, open-loop lateness accounting, the reference matcher
// and the set-up timing.  Build the perfbench_tests target and run it; it
// exits nonzero if any check failed.

#include "Check.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

using namespace pb;

namespace {

int Failures = 0;

void check(bool Ok, const char *What, int Line) {
  if (!Ok) {
    std::fprintf(stderr, "test_perfbench.cpp:%d: FAILED: %s\n", Line, What);
    ++Failures;
  }
}
#define CHECK(E) check((E), #E, __LINE__)

Request req(std::vector<std::string> Replies) {
  Request Q;
  Q.Sends = {"X\n"};
  Q.Replies = std::move(Replies);
  return Q;
}

void testReplyMatcherOldestFirst() {
  Request Pong = req({"PONG"});
  ReplyMatcher M;
  Clock::time_point T = Clock::now();
  M.expect(&Pong, 1, T);
  M.expect(&Pong, 2, T);
  ReplyMatcher::Pending Done;
  CHECK(M.onLine("PONG", Done) == ReplyMatcher::Outcome::Completed);
  CHECK(Done.Id == 1); // identical replies go to the oldest request
  CHECK(M.onLine("PONG", Done) == ReplyMatcher::Outcome::Completed);
  CHECK(Done.Id == 2);
  CHECK(M.outstanding() == 0);
}

void testReplyMatcherOutOfOrder() {
  Request Five = req({"5"}), Seven = req({"7"});
  ReplyMatcher M;
  Clock::time_point T = Clock::now();
  M.expect(&Five, 1, T);
  M.expect(&Seven, 2, T);
  ReplyMatcher::Pending Done;
  // Requests run on their own green threads: replies may overtake.
  CHECK(M.onLine("7", Done) == ReplyMatcher::Outcome::Completed);
  CHECK(Done.Id == 2);
  CHECK(M.onLine("5", Done) == ReplyMatcher::Outcome::Completed);
  CHECK(Done.Id == 1);
}

void testReplyMatcherMultiLineAndUnmatched() {
  Request Stream = req({"PART 1", "PART 2", "DONE"}), Pong = req({"PONG"});
  ReplyMatcher M;
  Clock::time_point T = Clock::now();
  M.expect(&Stream, 1, T);
  M.expect(&Pong, 2, T);
  ReplyMatcher::Pending Done;
  CHECK(M.onLine("PART 1", Done) == ReplyMatcher::Outcome::Progress);
  // A PONG interleaved between parts still finds its request.
  CHECK(M.onLine("PONG", Done) == ReplyMatcher::Outcome::Completed);
  CHECK(Done.Id == 2);
  // Parts must come in order: PART 1 again is nobody's next line.
  CHECK(M.onLine("PART 1", Done) == ReplyMatcher::Outcome::Unmatched);
  CHECK(M.onLine("ERR", Done) == ReplyMatcher::Outcome::Unmatched);
  CHECK(M.onLine("PART 2", Done) == ReplyMatcher::Outcome::Progress);
  CHECK(M.onLine("DONE", Done) == ReplyMatcher::Outcome::Completed);
  CHECK(Done.Id == 1);
  CHECK(M.onLine("DONE", Done) == ReplyMatcher::Outcome::Unmatched);
}

void testPercentile() {
  CHECK(percentile({}, 50) == 0);
  CHECK(percentile({7}, 99) == 7);
  std::vector<double> V;
  for (int K = 100; K >= 1; --K)
    V.push_back(K);
  CHECK(percentile(V, 50) == 50);
  CHECK(percentile(V, 99) == 99);
  CHECK(percentile(V, 100) == 100);
  CHECK(percentile(V, 0) == 1);
  CHECK(percentile({1, 2, 3, 4}, 50) == 2); // nearest rank, no averaging
  CHECK(median({3, 1, 2}) == 2);
  CHECK(midmean({}) == 0);
  CHECK(midmean({4}) == 4);
  CHECK(midmean({1, 2, 3}) == 2);
  // Two clusters: the median sits in one, the midmean between them.
  CHECK(median({10, 10, 10, 20, 20, 20, 20, 20}) == 20);
  CHECK(midmean({10, 10, 10, 20, 20, 20, 20, 20}) == 17.5);
  CHECK(midmean({1, 5, 6, 1000}) == 5.5); // the outer quarters are dropped
}

void testOpenLoopLateness() {
  Clock::time_point T0 = Clock::now();
  auto Ms = [&](double M) {
    return T0 + std::chrono::microseconds(static_cast<int64_t>(M * 1e3));
  };
  OpenLoop L(1000, T0); // one send per ms
  CHECK(L.due(3) == Ms(3));
  CHECK(!L.isDue(Ms(-0.5)));
  CHECK(L.isDue(Ms(0)));
  CHECK(L.issue(Ms(0)) == Ms(0)); // on time
  // The generator stalls for 10 ms: sends 1..10 go out late, each
  // charged from its own due time, and the schedule does not shift.
  for (int K = 1; K <= 10; ++K)
    CHECK(L.issue(Ms(11)) == Ms(K));
  CHECK(L.issued() == 11);
  CHECK(L.nextDue() == Ms(11));
  CHECK(std::abs(L.LateMs[1] - 10) < 1e-9);
  CHECK(std::abs(L.LateMs[10] - 1) < 1e-9);
  CHECK(std::abs(L.meanLateMs() - 55.0 / 11) < 1e-9);
  // Issuing early never counts negative lateness.
  L.issue(Ms(10));
  CHECK(L.LateMs.back() == 0);
}

void testWindowedLatency() {
  Clock::time_point T0 = Clock::now();
  WindowedLatency W(T0);
  // Five calm seconds and one with a 50 ms stall hitting every request:
  // pooled, the stall owns the 99th percentile; per second it does not.
  for (int Sec = 0; Sec != 6; ++Sec)
    for (int K = 0; K != 1000; ++K)
      W.add(T0 + std::chrono::milliseconds(Sec * 1000 + K % 1000),
            Sec == 3 ? 50000 : 100 + K % 10);
  CHECK(W.size() == 6000);
  CHECK(percentile(W.pooled(), 99) == 50000);
  CHECK(W.across(99) == 109);
  CHECK(W.across(50) == 104);
  // A second with too few samples to carry a p99 is left out.
  W.add(T0 + std::chrono::seconds(7), 1e9);
  CHECK(W.across(99) == 109);
  // With no full second at all, the pooled figure is used.
  WindowedLatency Few(T0);
  Few.add(T0, 5);
  Few.add(T0, 7);
  CHECK(Few.across(99) == 7);
}

void testRefRegex() {
  RefRegex Re;
  std::string Err;
  CHECK(Re.parse("[a-c]+x\\d{1,2}", Err));
  RefRegex::Result R = Re.search("QQ abbx12 x9");
  CHECK(R.Found && R.Start == 3 && R.End == 9);
  CHECK(Re.parse("(ab|abcd)e?", Err));
  R = Re.search("ZZabcde");
  CHECK(R.Found && R.Start == 2 && R.End == 7); // longest at the leftmost
  CHECK(!Re.search("ABC").Found);
  // Settling: "ab" could still grow into "abcd", so it is not final yet.
  CHECK(!Re.settled("XXab", R));
  CHECK(Re.settled("XXabZ", R) && R.Start == 2 && R.End == 4);
  CHECK(Re.parse("k[0-9]+", Err));
  CHECK(!Re.settled("k12", R)); // another digit would extend it
  CHECK(Re.settled("k12.", R) && R.End == 3);
  CHECK(!Re.parse("^a", Err));
}

void testGeneratedCasesAgree() {
  Rng R(42);
  for (int K = 0; K != 300; ++K) {
    MatchCase C = genMatchCase(R, static_cast<size_t>(R.range(16, 600)),
                               R.chance(0.8));
    std::string Err = crossCheck(C);
    CHECK(Err.empty());
    if (!Err.empty())
      std::fprintf(stderr, "  %s\n", Err.c_str());
  }
  // Streams end with a decided reply, and every chunk but the settling
  // one is answered AGAIN.
  for (int K = 0; K != 200; ++K) {
    Request Q = makeMatchStream(R);
    CHECK(Q.Sends.size() == Q.Replies.size());
    for (size_t J = 0; J + 1 < Q.Replies.size(); ++J)
      CHECK(Q.Replies[J] == "AGAIN");
    CHECK(Q.Replies.back() != "AGAIN");
  }
}

void testExprValues() {
  Rng R(7);
  for (int K = 0; K != 1000; ++K) {
    Expr E = genExpr(R, static_cast<int>(R.range(1, 4)));
    CHECK(E.Text.front() == '(' && E.Text.back() == ')');
    CHECK(E.Value >= -1000000 && E.Value <= 1000000);
  }
  Rng A(9), B(9);
  CHECK(genExpr(A, 3).Text == genExpr(B, 3).Text); // same seed, same input
}

void testTimeSetUps() {
  RefLoop Ref;
  int Calls = 0;
  double S = timeSetUps(Ref, [&](int K, double &Ms) {
    CHECK(K == Calls);
    ++Calls;
    Ms = 2;
    return true;
  });
  CHECK(Calls == SetupRounds * SetupsPerRound);
  CHECK(Ref.Runs.size() == static_cast<size_t>(SetupRounds) + 1);
  // Every set-up is scaled by samples taken around its round, so the
  // result lies between the scalings by the slowest and fastest sample.
  double Lo = *std::min_element(Ref.Runs.begin(), Ref.Runs.end());
  double Hi = *std::max_element(Ref.Runs.begin(), Ref.Runs.end());
  CHECK(S >= 2 * RefNominalMs / Hi / 1e3 * (1 - 1e-9));
  CHECK(S <= 2 * RefNominalMs / Lo / 1e3 * (1 + 1e-9));
  // A failed set-up ends the set-ups.
  Calls = 0;
  CHECK(timeSetUps(Ref, [&](int, double &Ms) {
          Ms = 1;
          return ++Calls < 3;
        }) == -1);
  CHECK(Calls == 3);
}

} // namespace

int main() {
  testReplyMatcherOldestFirst();
  testReplyMatcherOutOfOrder();
  testReplyMatcherMultiLineAndUnmatched();
  testPercentile();
  testOpenLoopLateness();
  testWindowedLatency();
  testRefRegex();
  testGeneratedCasesAgree();
  testExprValues();
  testTimeSetUps();
  if (Failures)
    std::fprintf(stderr, "%d check(s) failed\n", Failures);
  else
    std::printf("perfbench tests passed\n");
  return Failures ? 1 : 0;
}
