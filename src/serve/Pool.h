//===----------------------------------------------------------------------===//
///
/// \file
/// The continuation-per-request serving pool: N workers, each a whole
/// Interp + Reactor on its own OS thread, behind one TCP port.
///
/// The VM is single-threaded by design — a continuation captured on one
/// control stack means nothing on another — so the pool scales the
/// continuation-per-request server the only way that preserves the paper's
/// cost model: shard it.  Every worker runs the same Scheme serving program
/// (workerSource): one green thread per connection and one per request,
/// every wait for bytes a parked one-shot continuation whose wake
/// reinstates it with zero stack words copied.  Backpressure is the
/// existing bounded Channel: a connection takes a token from a channel of
/// capacity MaxInflight before spawning a handler and returns it after.
///
/// Protocol (one request per line; one reply line per request, except
/// STREAM and MATCH/STREAM, which reply with several):
///   PING               -> PONG
///   EVAL <sexpr>       -> the fixnum result, or ERR (fixnum arithmetic only)
///   MATCH <pat> <text> -> FOUND <start> <end>, NOMATCH, or ERR
///   STREAM (e ...)     -> one "PART <result>" line per expression (ERR for
///                         a bad element), then DONE; parts are produced
///                         lazily by a generator built on the
///                         delimited-control layer (src/control)
///   MATCH/STREAM <pat> -> AGAIN per chunk line until FOUND / NOMATCH (an
///                         END line forces the decision)
///   QUIT               -> BYE, then the server closes this connection
///   anything else      -> ERR
///
/// Accepting: every worker's reactor owns its own listening socket bound
/// to the shared port with SO_REUSEPORT, and an acceptor green thread
/// io-accepts in-shard — the kernel load-balances arrivals across the
/// listeners, and the hot path has no acceptor thread, no cross-thread fd
/// handoff and no self-pipe write at all.  Each worker also owns a
/// lock-free handoff queue (ConnQueue) and a taker green thread parked on
/// io-take-conn: that is how host-driven shutdown reaches the shard
/// (stop() closes the queue; the taker wakes with EOF and closes the
/// shard's listener) and how handoff() targets a specific shard.
///
/// A connection lives out its life on one shard, and per-shard traces stay
/// deterministic because each worker has its own sequence numbering and fd
/// numbers never enter a trace (port ids do).
///
/// Stats: each worker owns its Stats; Pool::snapshot() sums per-worker
/// Snapshots, so throughput and the zero-copy invariant can be checked per
/// shard or for the whole pool (tests/test_pool.cpp's PingBurst checks per
/// shard, perfbench's serving workloads the whole pool).
///
//===----------------------------------------------------------------------===//

#ifndef OSC_SERVE_POOL_H
#define OSC_SERVE_POOL_H

#include "core/Config.h"
#include "serve/ServeOptions.h"
#include "support/Error.h"
#include "support/Stats.h"
#include "vm/Interp.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace osc {

class ConnQueue;

class Pool {
public:
  explicit Pool(ServeOptions O);
  ~Pool();
  Pool(const Pool &) = delete;
  Pool &operator=(const Pool &) = delete;

  /// Creates the workers, each with its own Interp, shard listener,
  /// handoff queue and wakeup pipe, and starts their threads.  False (with
  /// error()) if any piece could not be set up; no threads are left
  /// running on failure.
  bool start();
  /// Closes every handoff queue (each worker's taker sees EOF and closes
  /// its shard's listener, so its program winds down once in-flight
  /// connections drain) and joins all threads.  Idempotent.  Clients
  /// should have closed their connections by then.
  void stop();

  bool running() const { return !Ws.empty() && Ws.front()->Thr.joinable(); }
  uint16_t tcpPort() const { return BoundPort; }
  int workers() const { return static_cast<int>(Ws.size()); }
  /// The first failure, classified — setup problems (Io), a worker
  /// program's own error after stop() ("worker N: ..."), or ServerStopped
  /// for handoffs after stop.
  const Error &error() const { return Err; }

  /// Sum of every worker's counters (coherent per shard, summed across
  /// shards).  Safe while running — each counter is a relaxed atomic —
  /// but exact only after stop().
  Stats::Snapshot snapshot() const;
  /// One worker's counters.
  Stats::Snapshot snapshot(int Worker) const;
  /// Per-worker counters captured at start(), summed.
  Stats::Snapshot baseline() const;
  Stats::Snapshot baseline(int Worker) const;
  /// A worker's eval result; only meaningful after stop().
  const Interp::Result &result(int Worker) const;
  /// A worker's trace, one "w<id> #seq name ..." line per event — tagged
  /// so dumps from different shards can be told apart (and concatenated
  /// without ambiguity).  Only meaningful after stop().
  std::string traceDump(int Worker) const;

  /// Hands an already-connected fd to a specific worker; the shard's
  /// taker admits it exactly like an accepted one.  On success the pool
  /// owns \p Fd; on failure (ServerStopped once the pool is stopping) the
  /// caller keeps it.  Lock-free: a queue push plus one pipe write.
  /// Exposed so tests can target a shard deterministically.
  Error handoff(int Worker, int Fd);

private:
  /// The worker serving program: the protocol above, the in-shard
  /// io-accept loop and the shutdown-watching take-conn loop.  Expects
  /// *listener*, *max-inflight*, *preempt*, *max-conns* and
  /// *conn-deadline-ms* to be bound (makeInterp binds them).
  static const char *workerSource();

  struct Worker {
    std::unique_ptr<Interp> I;
    std::unique_ptr<ConnQueue> Q;
    std::thread Thr;
    Interp::Result R;
    Stats::Snapshot Base;
    Stats::Snapshot Carry; ///< Counters accumulated from Interps this
                           ///< shard lost to crashes (net of each fresh
                           ///< Interp's own prelude work), so snapshots
                           ///< stay continuous across restarts.
    int Restarts = 0;
    /// Host-owned wakeup pipe, created before the worker's first Interp
    /// and surviving every restart (each Interp's reactor dup(2)s it; see
    /// Reactor::enableWakeupFrom).  handoff() and stop() poke WakeWr — a
    /// stable fd, so no lock against the Interp swap.
    int WakeRd = -1;
    int WakeWr = -1;

    ~Worker();
  };

  /// Runs the shard's serving program, restarting it on a fresh Interp
  /// (same handoff queue and wakeup pipe; queued fds drain into the new
  /// program, and the shard's listener is re-bound) after a crash, up to
  /// MaxWorkerRestarts times.
  void workerMain(Worker &W);
  /// Builds one worker's Interp: queue attach (wakeup = port 0), the
  /// shard listener bound to \p TcpPort with SO_REUSEPORT (port 1; a 0
  /// port is resolved to an ephemeral one and written back), globals,
  /// tracer.  Null + \p Err on failure.
  std::unique_ptr<Interp> makeInterp(Worker &W, uint16_t &TcpPort,
                                     std::string &Err) const;
  /// One byte down the shard's host-owned wakeup pipe.  Lock-free.
  static void notifyWorker(Worker &W);

  ServeOptions Opt;
  std::vector<std::unique_ptr<Worker>> Ws;
  std::atomic<bool> Stopping{false};
  /// Guards each Worker's Interp pointer: workerMain swaps it on restart
  /// while snapshot()/traceDump()/result() read through it from other
  /// threads.  handoff() never takes it.
  mutable std::mutex Mu;
  uint16_t BoundPort = 0;
  Error Err;
};

} // namespace osc

#endif // OSC_SERVE_POOL_H
