// Serving memory is bounded by what is live, not by what was ever served.
// A 1-worker Pool serves pipelined requests over long-lived connections,
// then a churn of connect / one request / QUIT sessions; from the 20,000th
// request to the 100,000th the thread- and port-record high-water marks
// and the live heap after a collection must stay under constants that do
// not grow with the count.  Request handlers and connection threads are
// spawned detached, so each record is freed when its thread ends, and a
// closed connection's port record is freed once its input is drained.
//
// Sanitizer builds serve a tenth of the requests.
//
// Registered under the ctest label "serve".

#include "osc.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include <unistd.h>

using namespace osc;

namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr uint64_t Scale = 10;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr uint64_t Scale = 10;
#else
constexpr uint64_t Scale = 1;
#endif
#else
constexpr uint64_t Scale = 1;
#endif

constexpr uint64_t Early = 20000 / Scale; ///< First reading.
constexpr uint64_t Late = 100000 / Scale; ///< Last reading.
constexpr int MaxInflight = 64;

/// One reply line each; every answer is known in advance.
struct Req {
  const char *Line;
  const char *Reply;
};
const Req Mix[] = {
    {"PING", "PONG"},
    {"EVAL (+ 1 2 (* 3 4))", "15"},
    {"MATCH b+c xxabbbcyy", "FOUND 3 7"},
    {"EVAL (quotient 7 0)", "ERR"},
};

/// The figures the tests bound, read from the worker's counters.
struct Reading {
  uint64_t ThreadSlots, PortSlots, LivePeak, Collections;
};

Reading read(const Pool &P) {
  Stats::Snapshot S = P.snapshot(0);
  return {S.ThreadSlotPeak, S.PortSlotPeak, S.GcLivePeak, S.GcCount};
}

/// Every bound holds at both readings, and nothing grew between them
/// beyond the slack a collection landing mid-burst can add.
void expectFlat(const Reading &A, const Reading &B, uint64_t MaxThreads,
                uint64_t MaxPorts) {
  EXPECT_LE(A.ThreadSlots, MaxThreads);
  EXPECT_LE(B.ThreadSlots, MaxThreads);
  EXPECT_LE(A.PortSlots, MaxPorts);
  EXPECT_LE(B.PortSlots, MaxPorts);
  // Enough traffic to collect more than once between the readings, so the
  // live-heap peak below is a steady-state figure, not a startup one.
  // (The reduced sanitizer runs may not have collected by the first.)
  EXPECT_GE(B.Collections, A.Collections + 2 / Scale);
  EXPECT_LE(B.LivePeak, 2u << 20);
  if (A.Collections > 0) {
    EXPECT_LE(B.LivePeak, A.LivePeak + A.LivePeak / 4 + (64u << 10));
  }
}

} // namespace

TEST(Flatness, PipelinedRecordsAndLiveHeapStayFlat) {
  ServeOptions O;
  O.Workers = 1;
  O.MaxInflight = MaxInflight;
  Pool P(O);
  ASSERT_TRUE(P.start()) << P.error();

  constexpr int Conns = 4;
  constexpr int Window = 16; // In flight per connection.
  std::vector<Client> Cs(Conns);
  std::string E;
  for (Client &C : Cs)
    ASSERT_TRUE(C.connect(P.tcpPort(), E)) << E;

  uint64_t Sent = 0, Served = 0;
  Reading AtEarly{};
  while (Served < Late) {
    for (int K = 0; K != Conns; ++K)
      for (int W = 0; W != Window; ++W)
        ASSERT_TRUE(Cs[K].sendLine(Mix[(Sent + W) % 4].Line));
    for (int K = 0; K != Conns; ++K)
      for (int W = 0; W != Window; ++W) {
        std::string Reply;
        ASSERT_TRUE(Cs[K].recvLine(Reply)) << "request " << Served;
        ASSERT_EQ(Reply, Mix[(Sent + W) % 4].Reply);
        if (++Served == Early)
          AtEarly = read(P);
      }
    Sent += Window;
  }
  Reading AtLate = read(P);

  // Acceptor + taker, four connection threads, and at most MaxInflight
  // handlers (each holds a token until its reply is queued).
  expectFlat(AtEarly, AtLate, 2 + Conns + MaxInflight,
             /*wakeup + listener + connections*/ 2 + Conns);
  for (Client &C : Cs)
    C.close();
  P.stop();
  EXPECT_TRUE(P.error().ok()) << P.error();
  EXPECT_EQ(P.snapshot().RequestsServed, Served);
}

TEST(Flatness, ChurnRecordsAndLiveHeapStayFlat) {
  ServeOptions O;
  O.Workers = 1;
  O.MaxInflight = MaxInflight;
  Pool P(O);
  ASSERT_TRUE(P.start()) << P.error();

  std::string E;
  Reading AtEarly{};
  for (uint64_t N = 1; N <= Late; ++N) {
    Client C;
    ASSERT_TRUE(C.connect(P.tcpPort(), E)) << "session " << N << ": " << E;
    const Req &Q = Mix[N % 4];
    std::string Reply;
    ASSERT_TRUE(C.request(Q.Line, Reply)) << "session " << N;
    ASSERT_EQ(Reply, Q.Reply);
    ASSERT_TRUE(C.request("QUIT", Reply)) << "session " << N;
    ASSERT_EQ(Reply, "BYE");
    if (N == Early)
      AtEarly = read(P);
  }
  Reading AtLate = read(P);

  // A session's connection thread and handler, plus the acceptor and
  // taker; the client waits for BYE, so at most the closing session and
  // the next overlap.
  expectFlat(AtEarly, AtLate, 2 + 2 * 2, /*wakeup + listener*/ 2 + 2);
  P.stop();
  EXPECT_TRUE(P.error().ok()) << P.error();
  Stats::Snapshot S = P.snapshot(0);
  EXPECT_EQ(S.RequestsServed, Late);
  EXPECT_EQ(S.AcceptedConnections, S.ConnectionsClosed);
}

TEST(Flatness, InputPipelinedPastQuitDoesNotPinThePort) {
  // Lines a client sends after QUIT are never served, but they sit in the
  // closed port's buffer; the protocol reads them off so the record is
  // freed like any other closed connection's.
  ServeOptions O;
  O.Workers = 1;
  Pool P(O);
  ASSERT_TRUE(P.start()) << P.error();
  std::string E;
  const std::string Msg = "QUIT\nPING\nEVAL (+ 1";
  for (int N = 0; N != 50; ++N) {
    Client C;
    ASSERT_TRUE(C.connect(P.tcpPort(), E)) << E;
    ASSERT_EQ(::write(C.fd(), Msg.data(), Msg.size()),
              static_cast<ssize_t>(Msg.size()));
    std::string Reply;
    ASSERT_TRUE(C.recvLine(Reply));
    EXPECT_EQ(Reply, "BYE");
    EXPECT_FALSE(C.recvLine(Reply)); // Nothing past QUIT is answered.
  }
  P.stop();
  ASSERT_TRUE(P.error().ok()) << P.error();
  Stats::Snapshot S = P.snapshot(0);
  EXPECT_LE(S.PortSlotPeak, 2u + 2u); // Wakeup, listener, two sessions.
  EXPECT_EQ(S.AcceptedConnections, S.ConnectionsClosed);
}
