// The sharded serving pool (src/serve/Pool): fd handoff to specific
// workers over socketpairs, bursts of 64 and 256 concurrent clients over
// real loopback TCP on 1, 2 and 4 shards and both accept paths, with
// exact accept counts, worker-crash propagation through ErrorKind,
// deterministic per-worker trace dumps, aggregation of per-shard
// Stats::Snapshots, clean stop with requests in flight, and the paper's
// invariant held per shard — zero stack words copied per steady-state
// park on every worker.
//
// Registered under the ctest label "serve".

#include "io/Port.h"
#include "osc.h"

#include <gtest/gtest.h>

#include <chrono>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace osc;

namespace {

ServeOptions options(int Workers,
                     ListenMode Mode = ListenMode::ReusePort) {
  ServeOptions O;
  O.Workers = Workers;
  O.MaxInflight = 64;
  O.Mode = Mode;
  return O;
}

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

/// Spins (with a real deadline) until \p Pred holds — how the tests wait
/// for a specific worker-side state transition they can observe only
/// through the shard's atomic counters.
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

/// One socketpair round trip against a specific worker: hand one end to
/// the shard, speak the protocol over the other.
void askWorkerDirect(Pool &P, int Worker, const std::string &Line,
                     const std::string &Want) {
  int Sp[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Sp), 0);
  Error E = P.handoff(Worker, Sp[0]);
  ASSERT_TRUE(E.ok()) << E;
  Client C;
  C.adopt(Sp[1]);
  EXPECT_EQ(ask(C, Line), Want);
  C.close();
}

/// One burst shape: the accept path, the shard count and the number of
/// clients with a request in flight at once.
struct Burst {
  ListenMode Mode;
  int Workers;
  int Clients;
};

std::string burstName(const Burst &B) {
  return "w" + std::to_string(B.Workers) + "_c" + std::to_string(B.Clients) +
         "_" + listenModeName(B.Mode);
}

void PrintTo(const Burst &B, std::ostream *OS) { *OS << burstName(B); }

/// \p Clients clients against the shards, every request in flight at
/// once, for two rounds, over either accept path.  ReusePort: the kernel
/// spreads connections across the shards' own listeners;
/// CentralAcceptor: the acceptor thread spreads them by load.  Either way
/// the path must not fall back, every connection is accepted exactly
/// once, and each shard serves its own with zero words copied per park.
class PingBurst : public ::testing::TestWithParam<Burst> {};

TEST_P(PingBurst, AcrossPoolTcp) {
  const Burst B = GetParam();
  constexpr int Rounds = 2;
  ServeOptions O = options(B.Workers, B.Mode);
  O.MaxInflight = B.Clients;
  Pool P(O);
  mustStart(P);
  ASSERT_EQ(P.listenMode(), B.Mode)
      << "fell back to " << listenModeName(P.listenMode());
  // Wait for every shard's startup parks (ReusePort: acceptor on the
  // listener + taker on take-conn; central: the worker loop's take-conn)
  // before the burst, so each shard's first delivery is a park-wake and
  // the AcceptBatches bounds below are deterministic — without the gate a
  // fast burst can beat the acceptor to io-accept and complete every
  // accept inline (batches legitimately 0).
  uint64_t StartParks = B.Mode == ListenMode::ReusePort ? 2 : 1;
  for (int W = 0; W < P.workers(); ++W)
    ASSERT_TRUE(spinUntil([&] {
      return (P.snapshot(W) - P.baseline(W)).IoParks >= StartParks;
    })) << "worker " << W;
  std::vector<Client> Cs(B.Clients);
  std::string E;
  for (int K = 0; K < B.Clients; ++K)
    ASSERT_TRUE(Cs[K].connect(P.tcpPort(), E)) << "client " << K << ": " << E;
  for (int R = 1; R <= Rounds; ++R) {
    for (int K = 0; K < B.Clients; ++K)
      ASSERT_TRUE(Cs[K].sendLine(K % 2 ? "PING"
                                       : "EVAL (+ " + std::to_string(K) + " " +
                                             std::to_string(R) + ")"));
    for (int K = 0; K < B.Clients; ++K) {
      std::string Reply;
      ASSERT_TRUE(Cs[K].recvLine(Reply)) << "client " << K;
      EXPECT_EQ(Reply, K % 2 ? "PONG" : std::to_string(K + R))
          << "client " << K << " round " << R;
    }
  }
  for (Client &C : Cs)
    C.close();
  P.stop();
  ASSERT_TRUE(P.error().ok()) << P.error();

  const uint64_t N = static_cast<uint64_t>(B.Clients);
  Stats::Snapshot D = P.snapshot() - P.baseline();
  EXPECT_EQ(D.RequestsServed, N * Rounds);
  EXPECT_EQ(D.AcceptedConnections, N);
  // Batching: each delivery wake accounts for >= 1 accepted connection.
  // The startup-park gate above guarantees each shard's first delivery
  // is a park-wake, so every shard that accepted anything has a batch;
  // inline accepts join the current batch, hence Batches <= Accepted.
  EXPECT_GE(D.AcceptBatches, 1u);
  EXPECT_LE(D.AcceptBatches, D.AcceptedConnections);
  uint64_t PerShard = 0;
  for (int W = 0; W < P.workers(); ++W) {
    Stats::Snapshot S = P.snapshot(W) - P.baseline(W);
    PerShard += S.AcceptedConnections;
    if (S.AcceptedConnections > 0) {
      EXPECT_GE(S.AcceptBatches, 1u) << "worker " << W;
    }
    EXPECT_LE(S.AcceptBatches, S.AcceptedConnections) << "worker " << W;
    // The headline invariant, per shard: serving parked and resumed on
    // every worker without copying a single stack word.
    EXPECT_GT(S.IoParks, 0u) << "worker " << W << " never parked";
    EXPECT_EQ(S.WordsCopied, 0u) << "worker " << W << " copied stack words";
  }
  // Per-shard accept counts sum to the burst exactly — every connection
  // was accepted on (or handed to) exactly one shard.
  EXPECT_EQ(PerShard, N);
}

// The default path at 1, 2 and 4 shards, a 256-client admission burst at
// 4, and the central acceptor at both ends of the shard range.
INSTANTIATE_TEST_SUITE_P(
    Shapes, PingBurst,
    ::testing::Values(Burst{ListenMode::ReusePort, 1, 64},
                      Burst{ListenMode::ReusePort, 2, 64},
                      Burst{ListenMode::ReusePort, 4, 64},
                      Burst{ListenMode::ReusePort, 4, 256},
                      Burst{ListenMode::CentralAcceptor, 1, 64},
                      Burst{ListenMode::CentralAcceptor, 4, 64}),
    [](const ::testing::TestParamInfo<Burst> &Info) {
      return burstName(Info.param);
    });

} // namespace

TEST(Pool, HandoffTargetsSpecificWorker) {
  Pool P(options(3));
  mustStart(P);
  askWorkerDirect(P, 2, "EVAL (* 6 7)", "42");
  askWorkerDirect(P, 0, "PING", "PONG");
  // The connections landed exactly where they were pushed.
  ASSERT_TRUE(spinUntil([&] {
    return (P.snapshot(2) - P.baseline(2)).ConnectionsClosed == 1 &&
           (P.snapshot(0) - P.baseline(0)).ConnectionsClosed == 1;
  }));
  EXPECT_EQ((P.snapshot(0) - P.baseline(0)).AcceptedConnections, 1u);
  EXPECT_EQ((P.snapshot(1) - P.baseline(1)).AcceptedConnections, 0u);
  EXPECT_EQ((P.snapshot(2) - P.baseline(2)).AcceptedConnections, 1u);
  P.stop();
  ASSERT_TRUE(P.error().ok()) << P.error();
}

TEST(Pool, SnapshotAggregatesAcrossWorkers) {
  Pool P(options(4));
  mustStart(P);
  for (int W = 0; W < 4; ++W)
    askWorkerDirect(P, W, "PING", "PONG");
  P.stop();
  ASSERT_TRUE(P.error().ok()) << P.error();
  // The pool total is exactly the per-shard sum (operator+= over every
  // counter), and every shard contributed.
  Stats::Snapshot Sum;
  for (int W = 0; W < 4; ++W) {
    Stats::Snapshot S = P.snapshot(W);
    EXPECT_EQ((S - P.baseline(W)).RequestsServed, 1u) << "worker " << W;
    Sum += S;
  }
  Stats::Snapshot Total = P.snapshot();
  EXPECT_EQ(Total.RequestsServed, Sum.RequestsServed);
  EXPECT_EQ(Total.AcceptedConnections, Sum.AcceptedConnections);
  EXPECT_EQ(Total.Instructions, Sum.Instructions);
  EXPECT_EQ(Total.IoParks, Sum.IoParks);
  EXPECT_EQ((Total - P.baseline()).RequestsServed, 4u);
}

TEST(Pool, WorkerCrashPropagatesErrorKind) {
  // A worker program that dies immediately: the pool reports the failure
  // through the same structured Error the embedding API uses, tagged
  // with the shard that crashed.
  ServeOptions O = options(2);
  O.Program = "(car 1)";
  Pool P(O);
  mustStart(P);
  // Gate on the observable counter delta rather than racing stop()
  // against the restart sequence: the shard crashes on every (re)start,
  // so once WorkerRestarts reaches the cap the final failure is recorded
  // and stop() below never depends on crash/join timing.
  ASSERT_TRUE(spinUntil([&] {
    return (P.snapshot(0) - P.baseline(0)).WorkerRestarts >=
           static_cast<uint64_t>(O.MaxWorkerRestarts);
  }));
  P.stop();
  EXPECT_FALSE(P.error().ok());
  EXPECT_EQ(P.error().Kind, ErrorKind::Runtime);
  EXPECT_NE(P.error().Message.find("worker 0"), std::string::npos)
      << P.error();
  EXPECT_NE(P.error().Message.find("car"), std::string::npos) << P.error();
  EXPECT_FALSE(P.result(0).Ok);
  EXPECT_EQ(P.result(0).Kind, ErrorKind::Runtime);
}

TEST(Pool, HandoffAfterStopIsServerStopped) {
  Pool P(options(2));
  mustStart(P);
  P.stop();
  int Sp[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Sp), 0);
  Error E = P.handoff(1, Sp[0]);
  EXPECT_FALSE(E.ok());
  EXPECT_EQ(E.Kind, ErrorKind::ServerStopped);
  // On failure the caller keeps the fd.
  ::close(Sp[0]);
  ::close(Sp[1]);
}

namespace {

/// stop() is initiated while requests are still in flight; the pool must
/// drain them (every client gets its reply) and shut down clean.  In
/// ReusePort mode this exercises the shutdown drain: connections the
/// kernel completed but no shard accepted yet are admitted (io-try-accept)
/// before the listeners close.
void cleanStopInflight(ListenMode Mode) {
  constexpr int N = 16;
  Pool P(options(4, Mode));
  mustStart(P);
  std::vector<Client> Cs(N);
  std::string E;
  for (int K = 0; K < N; ++K)
    ASSERT_TRUE(Cs[K].connect(P.tcpPort(), E)) << E;
  for (int K = 0; K < N; ++K)
    ASSERT_TRUE(Cs[K].sendLine("EVAL (+ " + std::to_string(K) + " 10)"));

  std::thread Stopper([&P] { P.stop(); });
  for (int K = 0; K < N; ++K) {
    std::string Reply;
    EXPECT_TRUE(Cs[K].recvLine(Reply)) << "client " << K;
    EXPECT_EQ(Reply, std::to_string(K + 10));
  }
  for (Client &C : Cs)
    C.close();
  Stopper.join();
  ASSERT_TRUE(P.error().ok()) << P.error();
  EXPECT_EQ((P.snapshot() - P.baseline()).RequestsServed,
            static_cast<uint64_t>(N));
}

} // namespace

TEST(Pool, CleanStopWithInflightRequests) {
  cleanStopInflight(ListenMode::ReusePort);
}

TEST(Pool, CleanStopWithInflightRequestsCentralAcceptor) {
  cleanStopInflight(ListenMode::CentralAcceptor);
}

TEST(Pool, ReusePortWorkerRestartRebindsItsListener) {
  // A 1-worker ReusePort pool whose program serves exactly one connection
  // per run, then crashes: every restart must re-bind the shard's
  // listener on the same port, so a fresh client reaches the fresh
  // Interp.  The taker mirrors the real worker's shutdown path so stop()
  // stays prompt.
  ServeOptions O;
  O.Workers = 1;
  O.Mode = ListenMode::ReusePort;
  O.Program = R"scheme(
(define (acceptor)
  (let ((conn (io-accept *listener*)))
    (if (eof-object? conn)
        'closed
        (begin
          (io-write conn "HI\n")
          (io-close conn)
          (car 1)))))
(define (taker)
  (let ((conn (io-take-conn)))
    (if (eof-object? conn)
        (io-close *listener*)
        (taker))))
(spawn acceptor)
(spawn taker)
(scheduler-run *preempt*)
)scheme";
  Pool P(O);
  mustStart(P);
  ASSERT_EQ(P.listenMode(), ListenMode::ReusePort);
  for (int Round = 0; Round < 2; ++Round) {
    // A connect can race the crash window (old listener closed, new one
    // just bound): retry until the live listener answers.
    ASSERT_TRUE(spinUntil([&] {
      Client C;
      std::string E, Reply;
      if (!C.connect(P.tcpPort(), E))
        return false;
      return C.recvLine(Reply, 2000) && Reply == "HI";
    })) << "round " << Round;
  }
  // Both serves crashed the worker; both restarts re-bound the listener.
  ASSERT_TRUE(spinUntil([&] {
    return (P.snapshot(0) - P.baseline(0)).WorkerRestarts >= 2;
  }));
  P.stop();
  ASSERT_TRUE(P.error().ok()) << P.error();
  EXPECT_GE((P.snapshot() - P.baseline()).WorkerRestarts, 2u);
}

namespace {

/// Runs a fixed two-worker workload where every worker-side transition is
/// gated on observable counter changes, so the shard's event order — and
/// therefore its trace — is a function of the program alone.  The
/// connections go through handoff (which both modes serve) rather than
/// TCP, because ReusePort's kernel balancing would make *placement*
/// nondeterministic; what the test pins is each shard's own event order.
/// Returns the two tagged dumps.
void tracedRun(ListenMode Mode, std::vector<std::string> &Dumps) {
  ServeOptions O;
  O.Workers = 2;
  O.MaxInflight = 4;
  O.Mode = Mode;
  O.TraceWorkers = true;
  Pool P(O);
  ASSERT_TRUE(P.start()) << P.error();

  // A ReusePort shard parks one extra thread at startup (its acceptor,
  // on the shard listener) on top of the taker's take-conn park, so
  // every park gate below shifts by one.
  uint64_t G = Mode == ListenMode::ReusePort ? 1 : 0;
  for (int W = 0; W < 2; ++W) {
    // Wait for the shard's take-conn park before handing over, so the
    // take never short-circuits.
    ASSERT_TRUE(spinUntil([&] {
      return (P.snapshot(W) - P.baseline(W)).IoParks >= 1 + G;
    })) << "worker " << W;
    int Sp[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Sp), 0);
    ASSERT_TRUE(P.handoff(W, Sp[0]).ok());
    // Wait until the conn thread has parked reading and the worker loop
    // has parked on its next take, so the PING below always finds a
    // parked reader.
    ASSERT_TRUE(spinUntil([&] {
      return (P.snapshot(W) - P.baseline(W)).IoParks >= 3 + G;
    })) << "worker " << W;
    Client C;
    C.adopt(Sp[1]);
    EXPECT_EQ(ask(C, "PING"), "PONG");
    // After answering, the conn thread loops back into io-read-line.  Wait
    // for that park (the shard's 4th) before closing, so EOF always finds
    // a parked reader instead of racing an inline read.
    ASSERT_TRUE(spinUntil([&] {
      return (P.snapshot(W) - P.baseline(W)).IoParks >= 4 + G;
    })) << "worker " << W;
    C.close();
    ASSERT_TRUE(spinUntil([&] {
      return (P.snapshot(W) - P.baseline(W)).ConnectionsClosed >= 1;
    })) << "worker " << W;
  }
  P.stop();
  ASSERT_TRUE(P.error().ok()) << P.error();
  for (int W = 0; W < 2; ++W)
    Dumps.push_back(P.traceDump(W));
}

/// The determinism contract, per mode: two identical runs produce
/// byte-identical per-shard dumps, and the two shards (same workload)
/// produce identical dumps modulo the shard tag.
void checkDeterministicTraces(ListenMode Mode) {
  std::vector<std::string> A, B;
  tracedRun(Mode, A);
  if (testing::Test::HasFatalFailure())
    return;
  tracedRun(Mode, B);
  if (testing::Test::HasFatalFailure())
    return;
  ASSERT_EQ(A.size(), 2u);
  ASSERT_EQ(B.size(), 2u);
  for (int W = 0; W < 2; ++W) {
    EXPECT_FALSE(A[static_cast<size_t>(W)].empty()) << "worker " << W;
    // Byte-identical across runs: per-shard sequence numbers, port ids
    // (never fds) and the workload fully determine the dump.
    EXPECT_EQ(A[static_cast<size_t>(W)], B[static_cast<size_t>(W)])
        << "worker " << W << " trace differs between identical runs";
    // Tagged with the shard id, line by line.
    EXPECT_EQ(A[static_cast<size_t>(W)].rfind("w" + std::to_string(W) + " ",
                                              0),
              0u);
  }
  // The two shards ran the same workload: identical traces modulo tag.
  std::string W0 = A[0], W1 = A[1];
  size_t Pos = 0;
  while ((Pos = W1.find("w1 ", Pos)) != std::string::npos)
    W1.replace(Pos, 3, "w0 ");
  EXPECT_EQ(W0, W1);
}

} // namespace

TEST(Pool, DeterministicPerWorkerTraces) {
  checkDeterministicTraces(ListenMode::ReusePort);
}

TEST(Pool, DeterministicPerWorkerTracesCentralAcceptor) {
  checkDeterministicTraces(ListenMode::CentralAcceptor);
}

// --- Accepted sockets and peer resets ----------------------------------------

namespace {

int noDelay(int Fd) {
  int V = -1;
  socklen_t L = sizeof V;
  return ::getsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &V, &L) == 0 ? V : -1;
}

/// TCP_NODELAY on the pool's end of \p C's connection to \p TcpPort: the
/// pool runs in this process, so its end is one of this process's fds.
/// -1 when no such fd is found.
int serverNoDelay(uint16_t TcpPort, const Client &C) {
  sockaddr_in Mine{};
  socklen_t Len = sizeof Mine;
  if (::getsockname(C.fd(), reinterpret_cast<sockaddr *>(&Mine), &Len) != 0)
    return -1;
  for (int Fd = 0; Fd < 4096; ++Fd) {
    sockaddr_in Local{}, Peer{};
    socklen_t LL = sizeof Local, PL = sizeof Peer;
    if (Fd == C.fd() ||
        ::getsockname(Fd, reinterpret_cast<sockaddr *>(&Local), &LL) != 0 ||
        Local.sin_family != AF_INET || ntohs(Local.sin_port) != TcpPort ||
        ::getpeername(Fd, reinterpret_cast<sockaddr *>(&Peer), &PL) != 0 ||
        Peer.sin_port != Mine.sin_port)
      continue;
    return noDelay(Fd) > 0 ? 1 : 0;
  }
  return -1;
}

} // namespace

TEST(Pool, AcceptedSocketsHaveNoDelay) {
  // Both accept paths: a shard's own SO_REUSEPORT listener and the
  // central acceptor thread.
  for (ListenMode M : {ListenMode::ReusePort, ListenMode::CentralAcceptor}) {
    Pool P(options(1, M));
    mustStart(P);
    Client C;
    std::string E;
    ASSERT_TRUE(C.connect(P.tcpPort(), E)) << E;
    EXPECT_EQ(ask(C, "PING"), "PONG"); // Accepted and adopted by now.
    EXPECT_EQ(serverNoDelay(P.tcpPort(), C), 1) << listenModeName(M);
    C.close();
    P.stop();
    ASSERT_TRUE(P.error().ok()) << P.error();
  }
}

TEST(Pool, HandedOffSocketKeepsTheHostsOptions) {
  // An fd adopted through handoff is the host's: the pool sets nothing.
  Pool P(options(1));
  mustStart(P);
  uint16_t TcpPort = 0;
  std::string E;
  int L = openListener(TcpPort, 8, E);
  ASSERT_GE(L, 0) << E;
  Client C;
  ASSERT_TRUE(C.connect(TcpPort, E)) << E;
  ASSERT_TRUE(pollOneFd(L, /*ForWrite=*/false, 5000));
  int S = ::accept(L, nullptr, nullptr);
  ASSERT_GE(S, 0);
  ASSERT_EQ(noDelay(S), 0);
  ASSERT_TRUE(P.handoff(0, S).ok());
  EXPECT_EQ(ask(C, "PING"), "PONG");
  EXPECT_EQ(noDelay(S), 0); // Still open: the shard owns it now.
  C.close();
  ::close(L);
  P.stop();
  ASSERT_TRUE(P.error().ok()) << P.error();
}

TEST(Pool, PeerResetEndsTheConnectionNotTheShard) {
  // Clients that pipeline 200 EVALs and then reset the connection
  // (SO_LINGER {1, 0}): each reset reaps that one connection, the shard
  // never restarts, and a fresh client is served.
  Pool P(options(1));
  mustStart(P);
  std::string Batch = "EVAL (+ 1 2)";
  for (int K = 1; K < 200; ++K)
    Batch += "\nEVAL (+ 1 2)";
  for (int R = 0; R < 4; ++R) {
    Client C;
    std::string E;
    ASSERT_TRUE(C.connect(P.tcpPort(), E)) << E;
    ASSERT_TRUE(C.sendLine(Batch));
    linger Lg{1, 0};
    ASSERT_EQ(::setsockopt(C.fd(), SOL_SOCKET, SO_LINGER, &Lg, sizeof Lg), 0);
    C.close();
  }
  ASSERT_TRUE(spinUntil([&] {
    Stats::Snapshot D = P.snapshot() - P.baseline();
    return D.ConnectionsClosed >= 4;
  }));
  Client C;
  std::string E;
  ASSERT_TRUE(C.connect(P.tcpPort(), E)) << E;
  EXPECT_EQ(ask(C, "PING"), "PONG");
  C.close();
  P.stop();
  ASSERT_TRUE(P.error().ok()) << P.error();
  Stats::Snapshot D = P.snapshot() - P.baseline();
  EXPECT_EQ(D.WorkerRestarts, 0u);
  EXPECT_EQ(D.ConnsReaped, 4u);
  EXPECT_EQ(D.WordsCopied, 0u);
}
