#include "serve/Pool.h"

#include "io/ConnQueue.h"
#include "io/Port.h"
#include "io/Reactor.h"
#include "serve/Server.h"

#include <algorithm>
#include <cerrno>
#include <sstream>

#include <sys/socket.h>
#include <unistd.h>

using namespace osc;

const char *osc::listenModeName(ListenMode M) {
  return M == ListenMode::ReusePort ? "reuseport" : "central";
}

// The worker programs: the shared protocol core, an on-quit that tears
// down nothing beyond the connection (pool shutdown is host-driven, by
// closing the handoff queue), and the mode's accept loop(s).
const char *Pool::workerSource(ListenMode M) {
  // CentralAcceptor: every io-take-conn parks this green thread on the
  // reactor's wakeup port until the acceptor thread hands over a
  // connection; EOF means the queue closed — wind down.
  static const std::string Central =
      std::string(Server::protocolSource()) + R"scheme(
(define (on-quit) 'ok)

(define (worker-loop)
  (let ((conn (io-take-conn)))
    (if (eof-object? conn)
        'closed
        (begin
          (admit-conn conn)
          (worker-loop)))))

(spawn worker-loop)
(scheduler-run *preempt*)
)scheme";
  // ReusePort: the hot path is the acceptor — the kernel load-balanced
  // each connection to this shard's own SO_REUSEPORT listener, so the
  // accept happens in-shard with no cross-thread traffic at all.  The
  // taker is the host's control path: it parks on the wakeup pipe until
  // Pool::handoff pushes a targeted connection (admitted exactly like an
  // accepted one) or Pool::stop closes the queue — the shutdown signal,
  // answered by closing the shard's listener so the parked acceptor
  // wakes with EOF and the program winds down once connections drain.
  static const std::string Reuse =
      std::string(Server::protocolSource()) + R"scheme(
(define (on-quit) 'ok)

(define (acceptor)
  (let ((conn (io-accept *listener*)))
    (if (eof-object? conn)
        'closed
        (begin
          (admit-conn conn)
          (acceptor)))))

;; Shutdown drains the backlog first: connections the kernel already
;; completed on this shard's listener are admitted (and served) before
;; the listener closes; only never-established arrivals are refused.
(define (drain-backlog)
  (let ((conn (io-try-accept *listener*)))
    (if (and conn (not (eof-object? conn)))
        (begin
          (admit-conn conn)
          (drain-backlog))
        'drained)))

(define (taker)
  (let ((conn (io-take-conn)))
    (if (eof-object? conn)
        (begin
          (drain-backlog)
          (io-close *listener*))
        (begin
          (admit-conn conn)
          (taker)))))

(spawn acceptor)
(spawn taker)
(scheduler-run *preempt*)
)scheme";
  return M == ListenMode::ReusePort ? Reuse.c_str() : Central.c_str();
}

// Out of line so Worker's members (unique_ptr over the forward-declared
// ConnQueue) only need a complete type here.
Pool::Pool(ServeOptions O) : Opt(std::move(O)) {}

Pool::Worker::~Worker() {
  if (WakeRd >= 0)
    ::close(WakeRd);
  if (WakeWr >= 0)
    ::close(WakeWr);
}

std::unique_ptr<Interp> Pool::makeInterp(Worker &W, int LFd,
                                         std::string &Err) const {
  auto I = std::make_unique<Interp>(Opt.VmCfg);
  // Queue first: the wakeup port must be port 0 in every worker and
  // every restart, so per-shard traces line up across modes and runs.
  if (!I->vm().attachConnQueue(W.Q.get(), W.WakeRd, W.WakeWr, Err)) {
    if (LFd >= 0)
      ::close(LFd);
    return nullptr;
  }
  if (EffMode == ListenMode::ReusePort) {
    if (LFd < 0) {
      // Restart path: the crashed Interp's listener dies with its port
      // table, so re-bind a fresh one to the shared port (SO_REUSEPORT
      // admits it alongside the other shards' live listeners).
      uint16_t P = BoundPort;
      LFd = openListener(P, Opt.Backlog, Err, /*ReusePort=*/true);
      if (LFd < 0)
        return nullptr;
    }
    VM &M = I->vm();
    Handle Lid = M.reactor().addPort(LFd, Port::Kind::Listener);
    M.reactor().port(static_cast<int64_t>(Lid))->setTcpPort(BoundPort);
    I->defineGlobal("*listener*", Value::fixnum(static_cast<int64_t>(Lid)));
  }
  I->defineGlobal("*max-inflight*", Value::fixnum(Opt.MaxInflight));
  I->defineGlobal("*preempt*", Value::fixnum(Opt.PreemptInterval));
  I->defineGlobal("*max-conns*", Value::fixnum(Opt.MaxConns));
  I->defineGlobal("*conn-deadline-ms*", Value::fixnum(Opt.ConnDeadlineMs));
  if (Opt.TraceWorkers)
    I->trace().start();
  return I;
}

bool Pool::start() {
  if (running()) {
    Err = {ErrorKind::Runtime, "pool already running"};
    return false;
  }
  Ws.clear();
  Stopping.store(false, std::memory_order_relaxed);
  Err = Error();

  if (Opt.Workers < 1) {
    Err = {ErrorKind::Runtime, "pool needs at least one worker"};
    return false;
  }

  uint16_t P = Opt.Port;
  std::string E;
  EffMode = Opt.Mode;
  std::vector<int> ShardFds; // One listener per worker (ReusePort only).
  auto CloseShardFds = [&ShardFds] {
    for (int Fd : ShardFds)
      if (Fd >= 0)
        ::close(Fd);
    ShardFds.clear();
  };

  if (EffMode == ListenMode::ReusePort) {
    // Worker 0's listener resolves the (possibly ephemeral) port; the
    // rest bind the resolved port, each with SO_REUSEPORT so the kernel
    // load-balances arrivals across them.  If SO_REUSEPORT itself is
    // unavailable, fall back to the central path; any later bind failure
    // is a real error.
    int F0 = openListener(P, Opt.Backlog, E, /*ReusePort=*/true);
    if (F0 < 0) {
      EffMode = ListenMode::CentralAcceptor;
      P = Opt.Port;
    } else {
      ShardFds.push_back(F0);
      for (int N = 1; N != Opt.Workers; ++N) {
        int F = openListener(P, Opt.Backlog, E, /*ReusePort=*/true);
        if (F < 0) {
          CloseShardFds();
          Err = {ErrorKind::Io, "io-listen: " + E};
          return false;
        }
        ShardFds.push_back(F);
      }
    }
  }
  if (EffMode == ListenMode::CentralAcceptor) {
    ListenFd = openListener(P, Opt.Backlog, E);
    if (ListenFd < 0) {
      Err = {ErrorKind::Io, "io-listen: " + E};
      return false;
    }
  }
  BoundPort = P;

  auto Fail = [&](int N, const std::string &Msg) {
    Err = {ErrorKind::Io, "worker " + std::to_string(N) + ": " + Msg};
    Ws.clear(); // Worker dtors close the wakeup pipes.
    CloseShardFds();
    if (ListenFd >= 0) {
      ::close(ListenFd);
      ListenFd = -1;
    }
    return false;
  };

  for (int N = 0; N != Opt.Workers; ++N) {
    auto W = std::make_unique<Worker>();
    W->Q = std::make_unique<ConnQueue>();
    if (!openPipePair(W->WakeRd, W->WakeWr, E))
      return Fail(N, E);
    int LFd = -1;
    if (EffMode == ListenMode::ReusePort) {
      LFd = ShardFds[static_cast<size_t>(N)];
      ShardFds[static_cast<size_t>(N)] = -1; // makeInterp takes ownership.
    }
    W->I = makeInterp(*W, LFd, E);
    if (!W->I)
      return Fail(N, E);
    W->Base = W->I->snapshot();
    W->Live.store(&W->I->vm().stats(), std::memory_order_release);
    Ws.push_back(std::move(W));
  }

  // Interps exist, queues are attached and Live pointers are published
  // before any thread starts, so neither a worker thread nor the
  // acceptor ever sees a half-built pool.
  for (auto &W : Ws) {
    Worker *Wp = W.get();
    Wp->Thr = std::thread([this, Wp] { workerMain(*Wp); });
  }
  if (EffMode == ListenMode::CentralAcceptor)
    Acceptor = std::thread([this] { acceptLoop(); });
  return true;
}

void Pool::workerMain(Worker &W) {
  const char *Program = Opt.Program ? Opt.Program : workerSource(EffMode);
  for (;;) {
    W.R = W.I->eval(Program);
    if (W.R.Ok || Stopping.load(std::memory_order_relaxed) ||
        W.Restarts >= Opt.MaxWorkerRestarts)
      return;
    // The shard's program crashed.  Its Interp is unusable (the error may
    // have left the scheduler half-switched), but the handoff queue, the
    // wakeup pipe — and every fd queued — are host-owned and survive:
    // stand up a fresh Interp on the same queue (re-binding the shard's
    // listener in ReusePort mode) and re-run the program, which drains
    // the queued connections as if they had just been handed off.
    std::string E;
    auto Fresh = makeInterp(W, -1, E);
    if (!Fresh)
      return; // Keep the crash result; the shard is lost.
    // Keep the shard's counters continuous: bank the dead Interp's totals
    // (net of the fresh one's prelude work, so diffs against Base still
    // measure only serving), and account the connections that died with
    // it as closed so Accepted - Closed keeps meaning "live".
    Stats::Snapshot Dead = W.I->snapshot();
    Dead.ConnectionsClosed =
        std::max(Dead.ConnectionsClosed, Dead.AcceptedConnections);
    Stats::Snapshot FreshBase = Fresh->snapshot();
    Fresh->vm().stats().WorkerRestarts += 1;
    // In-flight connections die with the crashed Interp: close its whole
    // port table now (clients see EOF) but keep the object alive in the
    // graveyard — the acceptor may still be reading the Stats block
    // behind the Live pointer it loaded a moment ago.
    W.I->vm().reactor().forEachPort([](Port &P) { P.closeNow(); });
    {
      std::lock_guard<std::mutex> L(Mu);
      W.Carry += Dead - FreshBase;
      W.Live.store(&Fresh->vm().stats(), std::memory_order_release);
      W.Graveyard.push_back(std::move(W.I));
      W.I = std::move(Fresh);
      W.Restarts += 1;
    }
    // No notify() needed: if fds are queued, the new program's first
    // io-take-conn pops one before ever parking.
  }
}

void Pool::notifyWorker(Worker &W) {
  // Same contract as Reactor::notify, but against the host-owned write
  // end, which is valid for the pool's whole life — no lock against a
  // mid-restart Interp swap.  EAGAIN (pipe full) is success: the wakeup
  // port is already readable.
  char B = 1;
  for (;;) {
    ssize_t N = ::write(W.WakeWr, &B, 1);
    if (N >= 0 || errno != EINTR)
      return;
  }
}

void Pool::acceptLoop() {
  // Poll with a short timeout instead of blocking in accept(2): closing a
  // listener out from under a blocked accept is not a portable wakeup, a
  // poll deadline is.
  std::vector<char> Touched(static_cast<size_t>(workers()), 0);
  bool Draining = false;
  for (;;) {
    // Shutdown runs one final non-blocking drain before the thread exits:
    // connections the kernel already completed into the backlog belong to
    // clients whose connect() succeeded, so they are placed, not reset.
    // stop() closes the handoff queues only after joining this thread, so
    // every drained fd still has an open queue to land in.
    if (!Draining)
      Draining = Stopping.load(std::memory_order_relaxed);
    if (!Draining && !pollOneFd(ListenFd, /*ForWrite=*/false, /*TimeoutMs=*/50))
      continue;
    // Batch: accept and place every connection the kernel has pending,
    // then poke each touched worker once — a burst of B arrivals costs
    // one poll wakeup and at most min(B, workers) pipe writes.  The
    // queue pushes update size() as we go, so leastLoaded keeps
    // spreading the batch instead of dumping it on one shard.
    std::fill(Touched.begin(), Touched.end(), 0);
    bool Any = false;
    bool Dead = false;
    for (;;) {
      std::string E;
      int Fd = acceptConnection(ListenFd, E);
      if (Fd < 0) {
        Dead = Fd == -2; // Listener gone or unrecoverable.
        break;
      }
      int N = leastLoaded();
      if (!Ws[static_cast<size_t>(N)]->Q->push(Fd)) {
        ::close(Fd);
        continue;
      }
      Touched[static_cast<size_t>(N)] = 1;
      Any = true;
    }
    if (Any)
      for (int N = 0; N != workers(); ++N)
        if (Touched[static_cast<size_t>(N)])
          notifyWorker(*Ws[static_cast<size_t>(N)]);
    if (Draining || Dead)
      return;
  }
}

int Pool::leastLoaded() const {
  int Best = 0;
  uint64_t BestLoad = ~uint64_t{0};
  for (int N = 0; N != workers(); ++N) {
    const Worker &W = *Ws[static_cast<size_t>(N)];
    // Queue depth + live connections.  The counters are the shard's own
    // relaxed atomics behind the published Live pointer (kept valid
    // across restarts by the graveyard); a transiently stale read just
    // means a slightly imperfect placement, never a lost connection.
    const Stats &S = *W.Live.load(std::memory_order_acquire);
    uint64_t Accepted = S.AcceptedConnections;
    uint64_t Closed = S.ConnectionsClosed;
    uint64_t Load = W.Q->size() + (Accepted > Closed ? Accepted - Closed : 0);
    if (Load < BestLoad) {
      BestLoad = Load;
      Best = N;
    }
  }
  return Best;
}

Error Pool::handoff(int Worker, int Fd) {
  if (Worker < 0 || Worker >= workers())
    return {ErrorKind::Runtime,
            "handoff: no such worker: " + std::to_string(Worker)};
  if (Stopping.load(std::memory_order_relaxed))
    return {ErrorKind::ServerStopped, "pool is stopping"};
  auto &W = *Ws[static_cast<size_t>(Worker)];
  if (!W.Q->push(Fd))
    return {ErrorKind::ServerStopped,
            "worker " + std::to_string(Worker) + ": handoff queue closed"};
  // The worker may be blocked in poll(2); make its wakeup port readable.
  notifyWorker(W);
  return {};
}

void Pool::stop() {
  if (Ws.empty())
    return;
  Stopping.store(true, std::memory_order_relaxed);
  if (Acceptor.joinable())
    Acceptor.join();
  if (ListenFd >= 0) {
    ::close(ListenFd);
    ListenFd = -1;
  }
  // Close every handoff queue: each worker's take-conn loop drains what
  // is left, then sees EOF and winds down — directly (CentralAcceptor)
  // or by closing its shard's listener first (ReusePort); either way the
  // scheduler run ends once in-flight connections finish.  The poke goes
  // down the host-owned pipe, so a shard mid-restart still gets it.
  for (auto &W : Ws) {
    W->Q->close();
    notifyWorker(*W);
  }
  for (auto &W : Ws)
    if (W->Thr.joinable())
      W->Thr.join();
  if (Err.ok()) {
    for (int N = 0; N != workers(); ++N) {
      const Interp::Result &R = Ws[static_cast<size_t>(N)]->R;
      if (!R.Ok) {
        Err = {R.Kind, "worker " + std::to_string(N) + ": " + R.Error};
        break;
      }
    }
  }
}

Pool::~Pool() { stop(); }

Stats::Snapshot Pool::snapshot() const {
  Stats::Snapshot Sum;
  std::lock_guard<std::mutex> L(Mu);
  for (auto &W : Ws) {
    Sum += W->I->snapshot();
    Sum += W->Carry;
  }
  return Sum;
}

Stats::Snapshot Pool::snapshot(int Worker) const {
  std::lock_guard<std::mutex> L(Mu);
  const auto &W = *Ws.at(static_cast<size_t>(Worker));
  Stats::Snapshot S = W.I->snapshot();
  S += W.Carry;
  return S;
}

Stats::Snapshot Pool::baseline() const {
  Stats::Snapshot Sum;
  for (auto &W : Ws)
    Sum += W->Base;
  return Sum;
}

Stats::Snapshot Pool::baseline(int Worker) const {
  return Ws.at(static_cast<size_t>(Worker))->Base;
}

const Interp::Result &Pool::result(int Worker) const {
  return Ws.at(static_cast<size_t>(Worker))->R;
}

std::string Pool::traceDump(int Worker) const {
  // Tag every line with the shard id so concatenated dumps stay
  // unambiguous; each shard numbers its own events from zero.
  std::string Raw;
  {
    std::lock_guard<std::mutex> L(Mu);
    Raw = Ws.at(static_cast<size_t>(Worker))->I->trace().toString();
  }
  std::string Tag = "w" + std::to_string(Worker) + " ";
  std::string Out;
  Out.reserve(Raw.size() + Tag.size() * 64);
  std::istringstream In(Raw);
  std::string Line;
  while (std::getline(In, Line)) {
    Out += Tag;
    Out += Line;
    Out += '\n';
  }
  return Out;
}
