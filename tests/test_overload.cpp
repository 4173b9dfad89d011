// Deadline-aware overload protection, bottom to top: timed parks on the
// reactor's deadline wheel (with-deadline, io-set-deadline!), timeout
// delivery by poisoning the parked one-shot — cancellation must copy
// zero stack words — bounded output buffering with a hard drop, admission
// control with fast BUSY shedding, idle-connection reaping over real
// sockets, and worker-crash auto-restart in the pool (the handoff queue
// and its queued fds survive the shard's Interp).  Every scenario is
// gated on the new counters: Timeouts, ConnsReaped, RequestsShed,
// WorkerRestarts.
//
// Registered under the ctest label "serve".

#include "io/Port.h"
#include "osc.h"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

using namespace osc;

namespace {

std::string ask(Client &C, const std::string &Line) {
  std::string Reply;
  if (!C.request(Line, Reply))
    return "<no reply>";
  return Reply;
}

template <typename PredT> bool spinUntil(PredT Pred, int TimeoutMs = 10000) {
  auto Deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(TimeoutMs);
  while (!Pred()) {
    if (std::chrono::steady_clock::now() > Deadline)
      return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

} // namespace

// --- with-deadline: the trappable timeout ------------------------------------

TEST(Overload, WithDeadlineTimesOutZeroCopy) {
  // A channel nobody sends on: the recv parks forever, the deadline wheel
  // fires, and the cancellation consumes the parked one-shot by poisoning
  // it — the acceptance criterion is that this copies zero stack words.
  Interp I;
  Stats::Snapshot B = I.snapshot();
  EXPECT_EQ(I.evalToString(
                "(define ch (make-channel 0))"
                "(define t (spawn (lambda ()"
                "  (with-deadline 5 (lambda () (channel-recv ch))))))"
                "(scheduler-run)"
                "(timeout-object? (thread-join t))"),
            "#t");
  Stats::Snapshot A = I.snapshot();
  EXPECT_EQ(A.Timeouts - B.Timeouts, 1u);
  EXPECT_EQ(A.WordsCopied - B.WordsCopied, 0u);
}

TEST(Overload, WithDeadlineDisarmsOnNormalReturn) {
  Interp I;
  Stats::Snapshot B = I.snapshot();
  EXPECT_EQ(I.evalToString(
                "(define t (spawn (lambda ()"
                "  (with-deadline 1000 (lambda () (+ 40 2))))))"
                "(scheduler-run)"
                "(thread-join t)"),
            "42");
  Stats::Snapshot A = I.snapshot();
  EXPECT_EQ(A.Timeouts - B.Timeouts, 0u);
}

TEST(Overload, NestedDeadlinesInnerFiresOuterSurvives) {
  Interp I;
  Stats::Snapshot B = I.snapshot();
  EXPECT_EQ(I.evalToString(
                "(define ch (make-channel 0))"
                "(define t (spawn (lambda ()"
                "  (with-deadline 1000 (lambda ()"
                "    (let ((r (with-deadline 5 (lambda () (channel-recv ch)))))"
                "      (list (timeout-object? r) 'outer-alive)))))))"
                "(scheduler-run)"
                "(thread-join t)"),
            "(#t outer-alive)");
  Stats::Snapshot A = I.snapshot();
  EXPECT_EQ(A.Timeouts - B.Timeouts, 1u);
}

TEST(Overload, WithDeadlineRunsWindAfterThunks) {
  // The escape rides the winders-aware continuation, so a timeout fired
  // mid-dynamic-wind unwinds like any other escape.
  Interp I;
  EXPECT_EQ(I.evalToString(
                "(define log '())"
                "(define (note x) (set! log (cons x log)))"
                "(define ch (make-channel 0))"
                "(define t (spawn (lambda ()"
                "  (with-deadline 5 (lambda ()"
                "    (dynamic-wind (lambda () (note 'in))"
                "                  (lambda () (channel-recv ch))"
                "                  (lambda () (note 'out))))))))"
                "(scheduler-run)"
                "(list (timeout-object? (thread-join t)) (reverse log))"),
            "(#t (in out))");
}

TEST(Overload, WithDeadlineCoversIoParks) {
  // Same wheel, different waiter: a read parked on a pipe that never
  // produces a byte.
  Interp I;
  Stats::Snapshot B = I.snapshot();
  EXPECT_EQ(I.evalToString(
                "(define p (open-pipe))"
                "(define t (spawn (lambda ()"
                "  (with-deadline 5 (lambda () (io-read-line (car p)))))))"
                "(scheduler-run)"
                "(timeout-object? (thread-join t))"),
            "#t");
  Stats::Snapshot A = I.snapshot();
  EXPECT_EQ(A.Timeouts - B.Timeouts, 1u);
  EXPECT_EQ(A.WordsCopied - B.WordsCopied, 0u);
}

// --- Slow-client defense -----------------------------------------------------

TEST(Overload, PortDeadlineReapsSilentPeer) {
  // io-set-deadline! with no with-deadline armed: expiry drops the
  // connection (io-drop) rather than raising — the parked reader wakes
  // with EOF and unwinds normally.
  Interp I;
  Stats::Snapshot B = I.snapshot();
  EXPECT_EQ(I.evalToString(
                "(define p (open-pipe))"
                "(io-set-deadline! (car p) 5)"
                "(define t (spawn (lambda () (io-read-line (car p)))))"
                "(scheduler-run)"
                "(eof-object? (thread-join t))"),
            "#t");
  Stats::Snapshot A = I.snapshot();
  EXPECT_EQ(A.Timeouts - B.Timeouts, 1u);
  EXPECT_EQ(A.ConnsReaped - B.ConnsReaped, 1u);
  EXPECT_EQ(A.WordsCopied - B.WordsCopied, 0u);
}

TEST(Overload, OutputCapDropsConnection) {
  // A write that would push buffered-but-unsent output past
  // Port::MaxOutputBytes drops the port and returns #f instead of
  // buffering without bound.  The chunk is 1 MiB + 1 bytes.
  Interp I;
  Stats::Snapshot B = I.snapshot();
  EXPECT_EQ(I.evalToString(
                "(define (grow s n)"
                "  (if (zero? n) s (grow (string-append s s) (- n 1))))"
                "(define chunk (string-append (grow \"x\" 20) \"x\"))"
                "(define p (open-pipe))"
                "(define t (spawn (lambda ()"
                "  (if (io-write (cdr p) chunk) 'buffered 'dropped))))"
                "(scheduler-run)"
                "(thread-join t)"),
            "dropped");
  Stats::Snapshot A = I.snapshot();
  EXPECT_EQ(A.ConnsReaped - B.ConnsReaped, 1u);
}

TEST(Overload, ServerReapsSlowClient) {
  // A client that connects and never sends a byte: the per-connection
  // deadline reaps it and the client sees the close as EOF.
  ServeOptions O;
  O.Workers = 1;
  O.ConnDeadlineMs = 30;
  Pool P(O);
  ASSERT_TRUE(P.start()) << P.error();
  Client Slow;
  std::string E;
  ASSERT_TRUE(Slow.connect(P.tcpPort(), E)) << E;
  std::string Reply;
  EXPECT_FALSE(Slow.recvLine(Reply, /*TimeoutMs=*/10000));
  Slow.close();
  // A well-behaved client is still served afterwards.
  Client C;
  ASSERT_TRUE(C.connect(P.tcpPort(), E)) << E;
  EXPECT_EQ(ask(C, "PING"), "PONG");
  C.close();
  P.stop();
  ASSERT_TRUE(P.result(0).Ok) << P.result(0).Error;
  Stats::Snapshot D = P.snapshot() - P.baseline();
  EXPECT_GE(D.ConnsReaped, 1u);
  EXPECT_GE(D.Timeouts, 1u);
}

// --- Admission control -------------------------------------------------------

TEST(Overload, ServerShedsPastMaxConns) {
  // Over TCP: arrivals past the cap are shed, and stop() returns once the
  // held client has closed — shutdown is host-driven, so it needs no
  // connection slot of its own.
  ServeOptions O;
  O.Workers = 1;
  O.MaxConns = 1;
  Pool P(O);
  ASSERT_TRUE(P.start()) << P.error();
  Client Held;
  std::string E;
  ASSERT_TRUE(Held.connect(P.tcpPort(), E)) << E;
  // Round-trip so the connection is admitted (not just accepted) before
  // the next one arrives.
  EXPECT_EQ(ask(Held, "PING"), "PONG");
  // Every arrival past the cap gets the fast BUSY line and a close.
  for (int K = 0; K < 3; ++K) {
    Client B;
    ASSERT_TRUE(B.connect(P.tcpPort(), E)) << E;
    std::string Reply;
    ASSERT_TRUE(B.recvLine(Reply)) << "shed client " << K;
    EXPECT_EQ(Reply, "BUSY");
    EXPECT_FALSE(B.recvLine(Reply)); // and nothing more: closed.
    B.close();
  }
  Held.close();
  P.stop();
  ASSERT_TRUE(P.result(0).Ok) << P.result(0).Error;
  Stats::Snapshot D = P.snapshot() - P.baseline();
  EXPECT_EQ(D.RequestsShed, 3u);
  EXPECT_EQ(D.RequestsServed, 1u);
}

TEST(Overload, PoolShedsPastMaxConns) {
  // Same admission logic, shard-local: the worker programs share the
  // protocol core.  Direct handoff makes the arrival order — and with it
  // the shed count — fully deterministic.
  ServeOptions O;
  O.Workers = 1;
  O.MaxConns = 1;
  Pool P(O);
  ASSERT_TRUE(P.start()) << P.error();
  int Sp[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Sp), 0);
  ASSERT_TRUE(P.handoff(0, Sp[0]).ok());
  Client Held;
  Held.adopt(Sp[1]);
  EXPECT_EQ(ask(Held, "PING"), "PONG"); // admitted, occupying the slot
  for (int K = 0; K < 3; ++K) {
    int Bp[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Bp), 0);
    ASSERT_TRUE(P.handoff(0, Bp[0]).ok());
    Client B;
    B.adopt(Bp[1]);
    std::string Reply;
    ASSERT_TRUE(B.recvLine(Reply)) << "shed conn " << K;
    EXPECT_EQ(Reply, "BUSY");
    EXPECT_FALSE(B.recvLine(Reply));
    B.close();
  }
  Held.close();
  P.stop();
  ASSERT_TRUE(P.error().ok()) << P.error();
  Stats::Snapshot D = P.snapshot(0) - P.baseline(0);
  EXPECT_EQ(D.RequestsShed, 3u);
  EXPECT_EQ(D.RequestsServed, 1u);
}

// --- Line cap ----------------------------------------------------------------

TEST(Overload, PoolDropsAClientWhoseLineNeverEnds) {
  // One client streams bytes with no newline past Port::MaxLineBytes:
  // its port is reaped (io-drop reason 3), its reader sees EOF and the
  // connection unwinds like any other reap.  A concurrent connection is
  // served throughout.
  ServeOptions O;
  O.Workers = 1;
  Pool P(O);
  ASSERT_TRUE(P.start()) << P.error();
  std::string E;
  Client Good, Flood;
  ASSERT_TRUE(Good.connect(P.tcpPort(), E)) << E;
  ASSERT_TRUE(Flood.connect(P.tcpPort(), E)) << E;
  EXPECT_EQ(ask(Good, "PING"), "PONG");
  Stats::Snapshot B = P.snapshot(0);
  // 64 KiB chunks until just past the cap.  The server stops reading once
  // the line passes it, so the write that crosses it may be cut short.
  std::string Chunk(64 * 1024, 'x');
  size_t Sent = 0;
  while (Sent <= Port::MaxLineBytes) {
    ssize_t N = ::send(Flood.fd(), Chunk.data(), Chunk.size(), MSG_NOSIGNAL);
    if (N <= 0)
      break;
    Sent += static_cast<size_t>(N);
  }
  EXPECT_GT(Sent, Port::MaxLineBytes);
  std::string Reply;
  EXPECT_FALSE(Flood.recvLine(Reply)); // Dropped: EOF, no reply.
  EXPECT_EQ(ask(Good, "PING"), "PONG");
  Stats::Snapshot A = P.snapshot(0);
  EXPECT_EQ(A.ConnsReaped - B.ConnsReaped, 1u);
  Flood.close();
  Good.close();
  P.stop();
  ASSERT_TRUE(P.error().ok()) << P.error();
}

// --- Worker restart ----------------------------------------------------------

namespace {

// A deliberately fragile shard program: CRASH kills the whole worker
// Interp mid-connection; anything else is answered OK.  Used to prove
// the pool stands a fresh Interp on the surviving handoff queue.
const char *FragileWorker = R"scheme(
(define (worker-loop)
  (let ((conn (io-take-conn)))
    (if (eof-object? conn)
        'closed
        (let ((line (io-read-line conn)))
          (if (and (string? line) (string=? line "CRASH"))
              (car 'boom)
              (begin
                (if (string? line) (io-write conn "OK\n"))
                (io-close conn)
                (worker-loop)))))))
(spawn worker-loop)
(scheduler-run)
)scheme";

} // namespace

TEST(Overload, PoolRestartsCrashedWorkerAndDrainsQueue) {
  ServeOptions O;
  O.Workers = 1;
  O.Program = FragileWorker;
  Pool P(O);
  ASSERT_TRUE(P.start()) << P.error();

  // Queue three connections up front: the first crashes the shard, the
  // other two are still sitting in the handoff queue when it dies and
  // must be served by the restarted Interp.
  int Sp[3][2];
  Client Cs[3];
  for (int K = 0; K < 3; ++K) {
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Sp[K]), 0);
    Cs[K].adopt(Sp[K][1]);
  }
  ASSERT_TRUE(Cs[0].sendLine("CRASH"));
  ASSERT_TRUE(Cs[1].sendLine("hello"));
  ASSERT_TRUE(Cs[2].sendLine("hello"));
  for (int K = 0; K < 3; ++K)
    ASSERT_TRUE(P.handoff(0, Sp[K][0]).ok()) << "conn " << K;

  // The crashed connection dies with its Interp (EOF, no reply) …
  std::string Reply;
  EXPECT_FALSE(Cs[0].recvLine(Reply));
  // … and the queued ones drain into the fresh Interp.
  ASSERT_TRUE(Cs[1].recvLine(Reply));
  EXPECT_EQ(Reply, "OK");
  ASSERT_TRUE(Cs[2].recvLine(Reply));
  EXPECT_EQ(Reply, "OK");
  for (Client &C : Cs)
    C.close();

  P.stop();
  ASSERT_TRUE(P.error().ok()) << P.error();
  Stats::Snapshot D = P.snapshot(0) - P.baseline(0);
  EXPECT_EQ(D.WorkerRestarts, 1u);
  // Restart accounting keeps the shard's counters continuous: all three
  // accepted connections are closed by the time the pool stops.
  EXPECT_GE(D.AcceptedConnections, 3u);
  EXPECT_GE(D.ConnectionsClosed, 3u);
}

TEST(Overload, PoolGivesUpAfterMaxRestarts) {
  ServeOptions O;
  O.Workers = 1;
  O.MaxWorkerRestarts = 2;
  O.Program = "(car 'boom)";
  Pool P(O);
  ASSERT_TRUE(P.start()) << P.error();
  // The shard crashes on every (re)start and is eventually given up on.
  // (Observed through the counters — result() is only valid after stop.)
  ASSERT_TRUE(spinUntil(
      [&] { return (P.snapshot(0) - P.baseline(0)).WorkerRestarts >= 2; }));
  P.stop();
  EXPECT_FALSE(P.error().ok());
  EXPECT_EQ(P.error().Kind, ErrorKind::Runtime);
  Stats::Snapshot D = P.snapshot(0) - P.baseline(0);
  EXPECT_EQ(D.WorkerRestarts, 2u);
}

// --- The acceptance scenario -------------------------------------------------

TEST(Overload, PoolShedsAndReapsUnderMixedLoad) {
  // One silent slow client per shard plus 64 fast clients across a
  // 4-worker pool: every slow client is reaped by the per-connection
  // deadline, every fast client is served, and the books balance
  // per shard.
  constexpr int Workers = 4;
  constexpr int Fast = 64;
  ServeOptions O;
  O.Workers = Workers;
  // Long enough that no fast client's park ever expires before its PING
  // (or our close) arrives, even on a loaded CI box; the slow clients
  // pay the full deadline, nobody else comes near it.
  O.ConnDeadlineMs = 500;
  Pool P(O);
  ASSERT_TRUE(P.start()) << P.error();

  Client Slow[Workers];
  for (int W = 0; W < Workers; ++W) {
    int Sp[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Sp), 0);
    ASSERT_TRUE(P.handoff(W, Sp[0]).ok());
    Slow[W].adopt(Sp[1]);
  }
  std::vector<Client> CsFast(Fast);
  std::string E;
  for (int K = 0; K < Fast; ++K)
    ASSERT_TRUE(CsFast[K].connect(P.tcpPort(), E)) << "client " << K;
  for (int K = 0; K < Fast; ++K)
    ASSERT_TRUE(CsFast[K].sendLine("PING"));
  for (int K = 0; K < Fast; ++K) {
    std::string Reply;
    ASSERT_TRUE(CsFast[K].recvLine(Reply)) << "client " << K;
    EXPECT_EQ(Reply, "PONG") << "client " << K;
  }
  // Close the fast clients before sitting out the slow clients' deadline,
  // so their idle (re-armed) parks see EOF long before they could expire.
  for (Client &C : CsFast)
    C.close();
  // Every silent client is reaped: the drop surfaces as EOF client-side.
  for (int W = 0; W < Workers; ++W) {
    std::string Reply;
    EXPECT_FALSE(Slow[W].recvLine(Reply)) << "slow client " << W;
    Slow[W].close();
  }
  P.stop();
  ASSERT_TRUE(P.error().ok()) << P.error();

  Stats::Snapshot Total = P.snapshot() - P.baseline();
  EXPECT_EQ(Total.RequestsServed, static_cast<uint64_t>(Fast));
  EXPECT_EQ(Total.ConnsReaped, static_cast<uint64_t>(Workers));
  EXPECT_GE(Total.Timeouts, static_cast<uint64_t>(Workers));
  for (int W = 0; W < Workers; ++W) {
    Stats::Snapshot D = P.snapshot(W) - P.baseline(W);
    EXPECT_EQ(D.ConnsReaped, 1u) << "worker " << W; // its own slow client
    EXPECT_EQ(D.WordsCopied, 0u) << "worker " << W; // reaping included
  }
}

// --- Reap tears down the connection's task tree ------------------------------

TEST(Overload, ReapedConnectionCancelsItsTaskTree) {
  // The serving shape in miniature, deterministic end to end: a conn
  // thread owns a nursery, every in-flight "request" is a child parked on
  // a channel (one behind a sub-scope of its own), and the connection's
  // read is deadlined.  The reactor wakes the read with EOF, the conn
  // thread unwinds, and the scope exit cancels the whole tree — innermost
  // scope first, spawn order within each — with zero stack words copied
  // and a byte-identical trace across runs.
  auto Run = [](std::string &Dump, Stats::Snapshot &Delta) {
    Interp I;
    Stats::Snapshot B = I.snapshot();
    I.trace().start();
    auto R = I.eval(
        "(define ch (make-channel 0))"
        "(define p (open-pipe))"
        "(io-set-deadline! (car p) 5)"
        "(define line 'unset)"
        "(spawn (lambda ()"
        "  (nursery"
        "   (spawn (lambda () (channel-recv ch)))"
        "   (spawn (lambda () (channel-recv ch)))"
        "   (spawn (lambda ()"
        "     (nursery"
        "      (spawn (lambda () (channel-recv ch)))"
        "      (channel-recv ch))))"
        "   (set! line (io-read-line (car p))))))"
        "(scheduler-run)"
        "(eof-object? line)");
    ASSERT_TRUE(R.Ok) << R.Error;
    EXPECT_EQ(I.valueToString(R.Val), "#t");
    I.trace().stop();
    Dump = I.trace().toString();
    Delta = I.snapshot() - B;
  };
  std::string A, B;
  Stats::Snapshot DA, DB;
  Run(A, DA);
  if (::testing::Test::HasFatalFailure())
    return;
  Run(B, DB);
  if (::testing::Test::HasFatalFailure())
    return;
  // Three direct children plus the grandchild inside the sub-scope.
  EXPECT_EQ(DA.NurseryCancels, 4u);
  EXPECT_EQ(DA.Timeouts, 1u);
  EXPECT_EQ(DA.ConnsReaped, 1u);
  EXPECT_EQ(DA.WordsCopied, 0u);
  // Byte-identical run to run: teardown is ordered by the nursery's
  // lists and the reactor's tick clock, never by wall time.
  EXPECT_EQ(A, B) << "cancellation trace differs between identical runs";
  EXPECT_NE(A.find("io-timeout"), std::string::npos) << A;
  EXPECT_NE(A.find("nursery-cancel"), std::string::npos) << A;
}

TEST(Overload, PipelinedRequestsAllServedThenReapReclaimsTokens) {
  // The pipelined conn-loop: one connection fires five EVALs without
  // waiting, every reply comes back in order, and after the client goes
  // silent the deadline reaps the connection — the nursery scope closes
  // with no live handlers and the orphan-token drain leaves the books
  // balanced, so a later client is served normally.
  ServeOptions O;
  O.Workers = 1;
  O.ConnDeadlineMs = 100;
  O.MaxInflight = 2;
  Pool P(O);
  ASSERT_TRUE(P.start()) << P.error();
  Client C;
  std::string E;
  ASSERT_TRUE(C.connect(P.tcpPort(), E)) << E;
  for (int K = 0; K < 5; ++K)
    ASSERT_TRUE(C.sendLine("EVAL (+ " + std::to_string(K) + " 100)"));
  for (int K = 0; K < 5; ++K) {
    std::string Reply;
    ASSERT_TRUE(C.recvLine(Reply)) << "reply " << K;
    EXPECT_EQ(Reply, std::to_string(K + 100));
  }
  // Silent now: the per-connection deadline reaps us.
  std::string Reply;
  EXPECT_FALSE(C.recvLine(Reply, /*TimeoutMs=*/10000));
  C.close();
  Client C2;
  ASSERT_TRUE(C2.connect(P.tcpPort(), E)) << E;
  EXPECT_EQ(ask(C2, "PING"), "PONG");
  EXPECT_EQ(ask(C2, "QUIT"), "BYE");
  C2.close();
  P.stop();
  ASSERT_TRUE(P.result(0).Ok) << P.result(0).Error;
  Stats::Snapshot D = P.snapshot() - P.baseline();
  EXPECT_EQ(D.RequestsServed, 6u);
  EXPECT_GE(D.ConnsReaped, 1u);
}

TEST(Overload, ReapTraceIsDeterministic) {
  // Two identical reap runs produce byte-identical per-worker traces:
  // deadlines are measured on the reactor's virtual tick clock, so the
  // park → io-timeout → io-drop → io-ready sequence does not depend on
  // wall-clock jitter.
  auto Run = [](std::string &Dump) {
    ServeOptions O;
    O.Workers = 1;
    O.ConnDeadlineMs = 30;
    O.TraceWorkers = true;
    Pool P(O);
    ASSERT_TRUE(P.start()) << P.error();
    // Both startup parks (acceptor on the shard listener, taker on
    // take-conn) must land before the handoff, or the take races between
    // inline and park-wake and the traces diverge.
    ASSERT_TRUE(spinUntil(
        [&] { return (P.snapshot(0) - P.baseline(0)).IoParks >= 2; }));
    int Sp[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Sp), 0);
    ASSERT_TRUE(P.handoff(0, Sp[0]).ok());
    Client C;
    C.adopt(Sp[1]);
    std::string Reply;
    EXPECT_FALSE(C.recvLine(Reply)); // reaped: EOF, never a reply
    C.close();
    P.stop();
    ASSERT_TRUE(P.error().ok()) << P.error();
    Dump = P.traceDump(0);
  };
  std::string A, B;
  Run(A);
  if (::testing::Test::HasFatalFailure())
    return;
  Run(B);
  if (::testing::Test::HasFatalFailure())
    return;
  EXPECT_FALSE(A.empty());
  EXPECT_EQ(A, B) << "reap trace differs between identical runs";
  EXPECT_NE(A.find("io-timeout"), std::string::npos) << A;
  EXPECT_NE(A.find("io-drop"), std::string::npos) << A;
}
