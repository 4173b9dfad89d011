// The continuation-per-request eval server (src/serve), exercised over
// real loopback TCP: protocol correctness, 64+ concurrent in-flight
// requests under channel backpressure, graceful shutdown, and the
// paper's property carried all the way up the stack — zero stack words
// copied per steady-state park/resume, against a multi-shot baseline
// that pays a copy on every park.
//
// Registered under the ctest label "serve".

#include "osc.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include <sys/socket.h>

using namespace osc;

namespace {

ServeOptions options() {
  ServeOptions O;
  O.MaxInflight = 64;
  return O;
}

// start() + hard assert, so a failed listener shows its error.
void mustStart(Server &S) {
  ASSERT_TRUE(S.start()) << S.error();
  ASSERT_NE(S.tcpPort(), 0);
}

std::string ask(Client &C, const std::string &Line) {
  std::string Reply;
  if (!C.request(Line, Reply))
    return "<no reply>";
  return Reply;
}

} // namespace

TEST(Serve, PingPong) {
  Server S(options());
  mustStart(S);
  Client C;
  std::string E;
  ASSERT_TRUE(C.connect(S.tcpPort(), E)) << E;
  EXPECT_EQ(ask(C, "PING"), "PONG");
  EXPECT_EQ(ask(C, "PING"), "PONG");
  C.close();
  S.stop();
  EXPECT_TRUE(S.result().Ok) << S.result().Error;
  EXPECT_EQ(S.snapshot().RequestsServed - S.baseline().RequestsServed, 2u);
}

TEST(Serve, EvalRequests) {
  Server S(options());
  mustStart(S);
  Client C;
  std::string E;
  ASSERT_TRUE(C.connect(S.tcpPort(), E)) << E;
  EXPECT_EQ(ask(C, "EVAL (+ 1 2)"), "3");
  EXPECT_EQ(ask(C, "EVAL (* 6 (- 10 3))"), "42");
  EXPECT_EQ(ask(C, "EVAL (quotient 17 5)"), "3");
  EXPECT_EQ(ask(C, "EVAL (< 1 2 3)"), "1");
  EXPECT_EQ(ask(C, "EVAL (max 3 (min 9 7) 5)"), "7");
  // The payload is data, never code: anything unrecognized folds to ERR.
  EXPECT_EQ(ask(C, "EVAL (quotient 1 0)"), "ERR");
  EXPECT_EQ(ask(C, "EVAL (launch-missiles)"), "ERR");
  EXPECT_EQ(ask(C, "EVAL (+ 1 oops)"), "ERR");
  EXPECT_EQ(ask(C, "EVAL (((("), "ERR");
  EXPECT_EQ(ask(C, "FROB"), "ERR");
  C.close();
  S.stop();
  EXPECT_TRUE(S.result().Ok) << S.result().Error;
}

TEST(Serve, StreamRepliesPartByPart) {
  Server S(options());
  mustStart(S);
  Client C;
  std::string E;
  ASSERT_TRUE(C.connect(S.tcpPort(), E)) << E;
  // One request, several reply lines, produced lazily by a generator on
  // the serving side (src/control): one PART per expression, then DONE.
  ASSERT_TRUE(C.sendLine("STREAM ((+ 1 2) (* 6 7) (quotient 9 2))"));
  std::string L;
  ASSERT_TRUE(C.recvLine(L));
  EXPECT_EQ(L, "PART 3");
  ASSERT_TRUE(C.recvLine(L));
  EXPECT_EQ(L, "PART 42");
  ASSERT_TRUE(C.recvLine(L));
  EXPECT_EQ(L, "PART 4");
  ASSERT_TRUE(C.recvLine(L));
  EXPECT_EQ(L, "DONE");
  // Bad elements fold to "PART ERR" without aborting the stream; the
  // connection then keeps serving normal requests.
  ASSERT_TRUE(C.sendLine("STREAM (7 (launch-missiles) (+ 2 2))"));
  ASSERT_TRUE(C.recvLine(L));
  EXPECT_EQ(L, "PART 7");
  ASSERT_TRUE(C.recvLine(L));
  EXPECT_EQ(L, "PART ERR");
  ASSERT_TRUE(C.recvLine(L));
  EXPECT_EQ(L, "PART 4");
  ASSERT_TRUE(C.recvLine(L));
  EXPECT_EQ(L, "DONE");
  EXPECT_EQ(ask(C, "PING"), "PONG");
  // A malformed payload is one ERR line, not a stream.
  EXPECT_EQ(ask(C, "STREAM oops"), "ERR");
  C.close();
  S.stop();
  EXPECT_TRUE(S.result().Ok) << S.result().Error;
}

TEST(Serve, StreamKeepsTheZeroCopyInvariant) {
  // The generator behind STREAM must not erode the serving layer's
  // steady-state guarantee: warm the connection up, then stream many
  // parts and require that not one stack word moved.
  Server S(options());
  mustStart(S);
  Client C;
  std::string E;
  ASSERT_TRUE(C.connect(S.tcpPort(), E)) << E;
  ASSERT_EQ(ask(C, "PING"), "PONG"); // Warmup: conn thread parked once.
  std::string Req = "STREAM (";
  for (int K = 0; K < 32; ++K)
    Req += "(+ " + std::to_string(K) + " 1) ";
  Req += ")";
  uint64_t W0 = 0;
  {
    // The serving thread owns the live Stats; sample through snapshot().
    W0 = S.snapshot().WordsCopied;
  }
  ASSERT_TRUE(C.sendLine(Req));
  std::string L;
  for (int K = 0; K < 32; ++K) {
    ASSERT_TRUE(C.recvLine(L));
    ASSERT_EQ(L, "PART " + std::to_string(K + 1));
  }
  ASSERT_TRUE(C.recvLine(L));
  EXPECT_EQ(L, "DONE");
  EXPECT_EQ(S.snapshot().WordsCopied, W0);
  C.close();
  S.stop();
  EXPECT_TRUE(S.result().Ok) << S.result().Error;
}

TEST(Serve, ManyConcurrentClients) {
  // 64 clients all send before any reads: every request is in flight at
  // once, so the server holds 64+ parked continuations simultaneously.
  // Each connection's reader spawns its request's handler and parks on
  // its next line before that handler runs, and no second line comes, so
  // all 64 readers are parked when the last reply is written.
  constexpr int N = 64;
  Server S(options());
  mustStart(S);
  std::vector<Client> Cs(N);
  std::string E;
  for (int K = 0; K < N; ++K)
    ASSERT_TRUE(Cs[K].connect(S.tcpPort(), E)) << "client " << K << ": " << E;
  for (int K = 0; K < N; ++K)
    ASSERT_TRUE(Cs[K].sendLine(K % 2 ? "PING"
                                     : "EVAL (+ " + std::to_string(K) + " 1)"));
  for (int K = 0; K < N; ++K) {
    std::string Reply;
    ASSERT_TRUE(Cs[K].recvLine(Reply)) << "client " << K;
    EXPECT_EQ(Reply, K % 2 ? "PONG" : std::to_string(K + 1)) << "client " << K;
  }
  for (Client &C : Cs)
    C.close();
  S.stop();
  ASSERT_TRUE(S.result().Ok) << S.result().Error;
  Stats::Snapshot St = S.snapshot();
  const Stats::Snapshot &B = S.baseline();
  EXPECT_EQ(St.RequestsServed - B.RequestsServed, static_cast<uint64_t>(N));
  EXPECT_EQ(St.AcceptedConnections - B.AcceptedConnections,
            static_cast<uint64_t>(N) + 1); // +1: stop()'s QUIT connection.
  EXPECT_GT(St.IoParks, B.IoParks);
  EXPECT_EQ(St.IoParks - B.IoParks, St.IoWakes - B.IoWakes);
  EXPECT_GE(St.IoWaitPeak, static_cast<uint64_t>(N))
      << "the 64 connections were never all parked at once";
  EXPECT_EQ(St.WordsCopied - B.WordsCopied, 0u);
}

TEST(Serve, ZeroCopySteadyStateParks) {
  // The acceptance criterion: with one-shot switching on (the default),
  // serving traffic copies zero stack words — every park/resume is a
  // segment-pointer swap.
  Server S(options());
  mustStart(S);
  Client C;
  std::string E;
  ASSERT_TRUE(C.connect(S.tcpPort(), E)) << E;
  for (int K = 0; K < 32; ++K)
    ASSERT_EQ(ask(C, "PING"), "PONG");
  C.close();
  S.stop();
  ASSERT_TRUE(S.result().Ok) << S.result().Error;
  EXPECT_GT(S.snapshot().IoParks, S.baseline().IoParks);
  EXPECT_EQ(S.snapshot().WordsCopied - S.baseline().WordsCopied, 0u);
}

TEST(Serve, MultiShotBaselineCopiesOnEveryPark) {
  // The shimmed baseline column: identical traffic, but every park is a
  // multi-shot capture, so reinstatement pays stack copies.
  ServeOptions O = options();
  O.VmCfg.SchedOneShotSwitch = false;
  Server S(O);
  mustStart(S);
  Client C;
  std::string E;
  ASSERT_TRUE(C.connect(S.tcpPort(), E)) << E;
  for (int K = 0; K < 32; ++K)
    ASSERT_EQ(ask(C, "PING"), "PONG");
  C.close();
  S.stop();
  ASSERT_TRUE(S.result().Ok) << S.result().Error;
  EXPECT_GT(S.snapshot().WordsCopied, S.baseline().WordsCopied);
}

TEST(Serve, SequentialRequestsOnOneConnection) {
  Server S(options());
  mustStart(S);
  Client C;
  std::string E;
  ASSERT_TRUE(C.connect(S.tcpPort(), E)) << E;
  for (int K = 0; K < 100; ++K)
    ASSERT_EQ(ask(C, "EVAL (* " + std::to_string(K) + " 2)"),
              std::to_string(K * 2))
        << "request " << K;
  C.close();
  S.stop();
  EXPECT_TRUE(S.result().Ok) << S.result().Error;
  EXPECT_EQ(S.snapshot().RequestsServed - S.baseline().RequestsServed, 100u);
}

TEST(Serve, GracefulStopIsIdempotentAndOk) {
  Server S(options());
  mustStart(S);
  EXPECT_TRUE(S.running());
  S.stop();
  S.stop(); // Second stop is a no-op.
  EXPECT_FALSE(S.running());
  EXPECT_TRUE(S.result().Ok) << S.result().Error;
  // The serving program's value is the scheduler-run thread count.
  EXPECT_TRUE(S.result().Val.isFixnum());
}

TEST(Serve, PreemptiveSchedulingStillServes) {
  // A preemption slice forces timer-driven switches on top of the I/O
  // parks; replies must be unaffected.
  ServeOptions O = options();
  O.PreemptInterval = 50;
  Server S(O);
  mustStart(S);
  Client C;
  std::string E;
  ASSERT_TRUE(C.connect(S.tcpPort(), E)) << E;
  for (int K = 0; K < 10; ++K)
    ASSERT_EQ(ask(C, "EVAL (+ 2 " + std::to_string(K) + ")"),
              std::to_string(K + 2));
  C.close();
  S.stop();
  EXPECT_TRUE(S.result().Ok) << S.result().Error;
}

TEST(Serve, PeerResetEndsOnlyThatConnection) {
  // A client that pipelines requests and resets the connection mid-reply:
  // the reset reaps that connection, the serving program keeps running,
  // and every later client is served.
  Server S(options());
  mustStart(S);
  std::string Batch = "EVAL (* 6 7)";
  for (int K = 1; K < 200; ++K)
    Batch += "\nEVAL (* 6 7)";
  for (int R = 0; R < 4; ++R) {
    Client C;
    std::string E;
    ASSERT_TRUE(C.connect(S.tcpPort(), E)) << E;
    ASSERT_TRUE(C.sendLine(Batch));
    linger Lg{1, 0};
    ASSERT_EQ(::setsockopt(C.fd(), SOL_SOCKET, SO_LINGER, &Lg, sizeof Lg), 0);
    C.close();
    Client Next;
    ASSERT_TRUE(Next.connect(S.tcpPort(), E)) << E;
    EXPECT_EQ(ask(Next, "PING"), "PONG") << "after reset " << R;
  }
  S.stop();
  ASSERT_TRUE(S.result().Ok) << S.result().Error;
  Stats::Snapshot D = S.snapshot() - S.baseline();
  EXPECT_EQ(D.WordsCopied, 0u);
}
