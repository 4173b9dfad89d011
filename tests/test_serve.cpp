// The continuation-per-request serving protocol (src/serve) on a 1-worker
// Pool, exercised over real loopback TCP: protocol correctness, 64+
// concurrent in-flight requests under channel backpressure, QUIT ending
// only its own connection, graceful shutdown, and the paper's property
// carried all the way up the stack — zero stack words copied per
// steady-state park/resume, against a multi-shot baseline that pays a
// copy on every park.
//
// Registered under the ctest label "serve".

#include "osc.h"
#include "regex/Regex.h"
#include "sexp/Reader.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include <sys/socket.h>

using namespace osc;

namespace {

ServeOptions options() {
  ServeOptions O;
  O.Workers = 1;
  O.MaxInflight = 64;
  return O;
}

// start() + hard assert, so a failed listener shows its error.
void mustStart(Pool &P) {
  ASSERT_TRUE(P.start()) << P.error();
  ASSERT_NE(P.tcpPort(), 0);
}

std::string ask(Client &C, const std::string &Line) {
  std::string Reply;
  if (!C.request(Line, Reply))
    return "<no reply>";
  return Reply;
}

} // namespace

TEST(Serve, PingPong) {
  Pool P(options());
  mustStart(P);
  Client C;
  std::string E;
  ASSERT_TRUE(C.connect(P.tcpPort(), E)) << E;
  EXPECT_EQ(ask(C, "PING"), "PONG");
  EXPECT_EQ(ask(C, "PING"), "PONG");
  C.close();
  P.stop();
  EXPECT_TRUE(P.result(0).Ok) << P.result(0).Error;
  EXPECT_EQ(P.snapshot().RequestsServed - P.baseline().RequestsServed, 2u);
}

TEST(Serve, EvalRequests) {
  Pool P(options());
  mustStart(P);
  Client C;
  std::string E;
  ASSERT_TRUE(C.connect(P.tcpPort(), E)) << E;
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
  P.stop();
  EXPECT_TRUE(P.result(0).Ok) << P.result(0).Error;
}

TEST(Serve, StreamRepliesPartByPart) {
  Pool P(options());
  mustStart(P);
  Client C;
  std::string E;
  ASSERT_TRUE(C.connect(P.tcpPort(), E)) << E;
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
  P.stop();
  EXPECT_TRUE(P.result(0).Ok) << P.result(0).Error;
}

TEST(Serve, StreamKeepsTheZeroCopyInvariant) {
  // The generator behind STREAM must not erode the serving layer's
  // steady-state guarantee: warm the connection up, then stream many
  // parts and require that not one stack word moved.
  Pool P(options());
  mustStart(P);
  Client C;
  std::string E;
  ASSERT_TRUE(C.connect(P.tcpPort(), E)) << E;
  ASSERT_EQ(ask(C, "PING"), "PONG"); // Warmup: conn thread parked once.
  std::string Req = "STREAM (";
  for (int K = 0; K < 32; ++K)
    Req += "(+ " + std::to_string(K) + " 1) ";
  Req += ")";
  uint64_t W0 = 0;
  {
    // The worker thread owns the live Stats; sample through snapshot().
    W0 = P.snapshot().WordsCopied;
  }
  ASSERT_TRUE(C.sendLine(Req));
  std::string L;
  for (int K = 0; K < 32; ++K) {
    ASSERT_TRUE(C.recvLine(L));
    ASSERT_EQ(L, "PART " + std::to_string(K + 1));
  }
  ASSERT_TRUE(C.recvLine(L));
  EXPECT_EQ(L, "DONE");
  EXPECT_EQ(P.snapshot().WordsCopied, W0);
  C.close();
  P.stop();
  EXPECT_TRUE(P.result(0).Ok) << P.result(0).Error;
}

TEST(Serve, ManyConcurrentClients) {
  // 64 clients all send before any reads: every request is in flight at
  // once, so the server holds 64+ parked continuations simultaneously.
  // Each connection's reader spawns its request's handler and parks on
  // its next line before that handler runs, and no second line comes, so
  // all 64 readers are parked when the last reply is written.
  constexpr int N = 64;
  Pool P(options());
  mustStart(P);
  std::vector<Client> Cs(N);
  std::string E;
  for (int K = 0; K < N; ++K)
    ASSERT_TRUE(Cs[K].connect(P.tcpPort(), E)) << "client " << K << ": " << E;
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
  P.stop();
  ASSERT_TRUE(P.result(0).Ok) << P.result(0).Error;
  Stats::Snapshot St = P.snapshot();
  const Stats::Snapshot &B = P.baseline();
  EXPECT_EQ(St.RequestsServed - B.RequestsServed, static_cast<uint64_t>(N));
  EXPECT_EQ(St.AcceptedConnections - B.AcceptedConnections,
            static_cast<uint64_t>(N));
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
  Pool P(options());
  mustStart(P);
  Client C;
  std::string E;
  ASSERT_TRUE(C.connect(P.tcpPort(), E)) << E;
  for (int K = 0; K < 32; ++K)
    ASSERT_EQ(ask(C, "PING"), "PONG");
  C.close();
  P.stop();
  ASSERT_TRUE(P.result(0).Ok) << P.result(0).Error;
  EXPECT_GT(P.snapshot().IoParks, P.baseline().IoParks);
  EXPECT_EQ(P.snapshot().WordsCopied - P.baseline().WordsCopied, 0u);
}

TEST(Serve, MultiShotBaselineCopiesOnEveryPark) {
  // The shimmed baseline column: identical traffic, but every park is a
  // multi-shot capture, so reinstatement pays stack copies.
  ServeOptions O = options();
  O.VmCfg.SchedOneShotSwitch = false;
  Pool P(O);
  mustStart(P);
  Client C;
  std::string E;
  ASSERT_TRUE(C.connect(P.tcpPort(), E)) << E;
  for (int K = 0; K < 32; ++K)
    ASSERT_EQ(ask(C, "PING"), "PONG");
  C.close();
  P.stop();
  ASSERT_TRUE(P.result(0).Ok) << P.result(0).Error;
  EXPECT_GT(P.snapshot().WordsCopied, P.baseline().WordsCopied);
}

TEST(Serve, SequentialRequestsOnOneConnection) {
  Pool P(options());
  mustStart(P);
  Client C;
  std::string E;
  ASSERT_TRUE(C.connect(P.tcpPort(), E)) << E;
  for (int K = 0; K < 100; ++K)
    ASSERT_EQ(ask(C, "EVAL (* " + std::to_string(K) + " 2)"),
              std::to_string(K * 2))
        << "request " << K;
  C.close();
  P.stop();
  EXPECT_TRUE(P.result(0).Ok) << P.result(0).Error;
  EXPECT_EQ(P.snapshot().RequestsServed - P.baseline().RequestsServed, 100u);
}

TEST(Serve, GracefulStopIsIdempotentAndOk) {
  Pool P(options());
  mustStart(P);
  EXPECT_TRUE(P.running());
  P.stop();
  P.stop(); // Second stop is a no-op.
  EXPECT_FALSE(P.running());
  EXPECT_TRUE(P.result(0).Ok) << P.result(0).Error;
  // The serving program's value is the scheduler-run thread count.
  EXPECT_TRUE(P.result(0).Val.isFixnum());
}

TEST(Serve, QuitEndsOnlyItsOwnConnection) {
  // QUIT answers BYE and closes the quitting client's connection, nothing
  // more: the listener stays open, so a client that connects afterwards
  // is served, and stop() still shuts the pool down.
  Pool P(options());
  mustStart(P);
  Client A;
  std::string E;
  ASSERT_TRUE(A.connect(P.tcpPort(), E)) << E;
  EXPECT_EQ(ask(A, "QUIT"), "BYE");
  std::string Reply;
  EXPECT_FALSE(A.recvLine(Reply)); // Closed after BYE.
  A.close();
  Client Later;
  ASSERT_TRUE(Later.connect(P.tcpPort(), E)) << E;
  EXPECT_EQ(ask(Later, "PING"), "PONG");
  Later.close();
  P.stop();
  ASSERT_TRUE(P.result(0).Ok) << P.result(0).Error;
  Stats::Snapshot D = P.snapshot() - P.baseline();
  EXPECT_EQ(D.AcceptedConnections, 2u);
  EXPECT_EQ(D.RequestsServed, 1u);
}

TEST(Serve, QuitPipelinedBehindRequestsAnswersThemFirst) {
  // QUIT in the same write as earlier requests parks until their handlers
  // finish: every reply arrives, in order, and BYE comes last.  Three
  // connections in turn, so the later ones reuse the worker's QUIT
  // channel.
  Pool P(options());
  mustStart(P);
  for (int K = 0; K != 3; ++K) {
    Client C;
    std::string E;
    ASSERT_TRUE(C.connect(P.tcpPort(), E)) << E;
    ASSERT_TRUE(C.sendLine("PING\nEVAL (+ 1 (* 2 3))\nQUIT"));
    std::string L;
    ASSERT_TRUE(C.recvLine(L));
    EXPECT_EQ(L, "PONG");
    ASSERT_TRUE(C.recvLine(L));
    EXPECT_EQ(L, "7");
    ASSERT_TRUE(C.recvLine(L));
    EXPECT_EQ(L, "BYE");
    EXPECT_FALSE(C.recvLine(L)); // Closed after BYE.
    C.close();
  }
  P.stop();
  ASSERT_TRUE(P.result(0).Ok) << P.result(0).Error;
  EXPECT_EQ((P.snapshot() - P.baseline()).RequestsServed, 6u);
}

TEST(Serve, DeepNestingAnswersErrAndTheWorkerLives) {
  // A datum (lists or datum comments) or a pattern nested past the
  // reader's or the regex parser's depth bound is a parse error, not a
  // C-stack overflow on the worker thread: EVAL and MATCH answer ERR and
  // the connection keeps serving.  At the bound both still parse.
  Pool P(options());
  mustStart(P);
  Client C;
  std::string E;
  ASSERT_TRUE(C.connect(P.tcpPort(), E)) << E;
  auto Sum = [](unsigned Parens) {
    std::string S;
    for (unsigned I = 0; I != Parens; ++I)
      S += "(+ 1 ";
    return S + "0" + std::string(Parens, ')');
  };
  auto Groups = [](unsigned D) {
    return std::string(D, '(') + "a" + std::string(D, ')') + " xa";
  };
  // The innermost atom is the bound's last level.
  EXPECT_EQ(ask(C, "EVAL " + Sum(Reader::MaxDepth - 1)),
            std::to_string(Reader::MaxDepth - 1));
  EXPECT_EQ(ask(C, "EVAL " + Sum(Reader::MaxDepth)), "ERR");
  EXPECT_EQ(ask(C, "EVAL " + std::string(60000, '(') +
                       std::string(60000, ')')),
            "ERR");
  std::string Comments;
  for (int I = 0; I != 60000; ++I)
    Comments += "#;";
  EXPECT_EQ(ask(C, "EVAL " + Comments + "1"), "ERR");
  // A too-deep datum inside a datum comment fails the whole request.
  EXPECT_EQ(ask(C, "EVAL #;" + Sum(Reader::MaxDepth) + " 7"), "ERR");
  EXPECT_EQ(ask(C, "EVAL #;" + Sum(Reader::MaxDepth - 1) + " 7"), "7");
  EXPECT_EQ(ask(C, "PING"), "PONG");
  EXPECT_EQ(ask(C, "MATCH " + Groups(regex::MaxGroupDepth)), "FOUND 1 2");
  EXPECT_EQ(ask(C, "MATCH " + Groups(regex::MaxGroupDepth + 1)), "ERR");
  EXPECT_EQ(ask(C, "MATCH " + Groups(200000)), "ERR");
  EXPECT_EQ(ask(C, "PING"), "PONG");
  C.close();
  P.stop();
  EXPECT_TRUE(P.result(0).Ok) << P.result(0).Error;
}

TEST(Serve, PreemptiveSchedulingStillServes) {
  // A preemption slice forces timer-driven switches on top of the I/O
  // parks; replies must be unaffected.
  ServeOptions O = options();
  O.PreemptInterval = 50;
  Pool P(O);
  mustStart(P);
  Client C;
  std::string E;
  ASSERT_TRUE(C.connect(P.tcpPort(), E)) << E;
  for (int K = 0; K < 10; ++K)
    ASSERT_EQ(ask(C, "EVAL (+ 2 " + std::to_string(K) + ")"),
              std::to_string(K + 2));
  C.close();
  P.stop();
  EXPECT_TRUE(P.result(0).Ok) << P.result(0).Error;
}

TEST(Serve, PeerResetEndsOnlyThatConnection) {
  // A client that pipelines requests and resets the connection mid-reply:
  // the reset reaps that connection, the serving program keeps running,
  // and every later client is served.
  Pool P(options());
  mustStart(P);
  std::string Batch = "EVAL (* 6 7)";
  for (int K = 1; K < 200; ++K)
    Batch += "\nEVAL (* 6 7)";
  for (int R = 0; R < 4; ++R) {
    Client C;
    std::string E;
    ASSERT_TRUE(C.connect(P.tcpPort(), E)) << E;
    ASSERT_TRUE(C.sendLine(Batch));
    linger Lg{1, 0};
    ASSERT_EQ(::setsockopt(C.fd(), SOL_SOCKET, SO_LINGER, &Lg, sizeof Lg), 0);
    C.close();
    Client Next;
    ASSERT_TRUE(Next.connect(P.tcpPort(), E)) << E;
    EXPECT_EQ(ask(Next, "PING"), "PONG") << "after reset " << R;
  }
  P.stop();
  ASSERT_TRUE(P.result(0).Ok) << P.result(0).Error;
  Stats::Snapshot D = P.snapshot() - P.baseline();
  EXPECT_EQ(D.WordsCopied, 0u);
}
