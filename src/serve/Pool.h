//===----------------------------------------------------------------------===//
///
/// \file
/// A sharded serving pool: N workers, each a whole Interp + Reactor on its
/// own OS thread, behind one TCP port.
///
/// The VM is single-threaded by design — a continuation captured on one
/// control stack means nothing on another — so the pool scales the
/// continuation-per-request server the only way that preserves the paper's
/// cost model: shard it.  Every worker runs the same Scheme serving program
/// as the stand-alone Server (the protocol core is literally shared source;
/// see Server::protocolSource), and connections reach a shard through one
/// of two accept paths (ServeOptions::Mode):
///
/// ListenMode::ReusePort (default): every worker's reactor owns its own
/// listening socket bound to the shared port with SO_REUSEPORT, and an
/// acceptor green thread io-accepts in-shard — the kernel load-balances
/// arrivals across the listeners, and the hot path has no acceptor
/// thread, no cross-thread fd handoff and no self-pipe write at all.
/// Each worker still owns a handoff queue and a taker green thread parked
/// on io-take-conn: that is how host-driven shutdown reaches the shard
/// (stop() closes the queue; the taker wakes with EOF and closes the
/// shard's listener) and how Pool::handoff targets a specific shard.
///
/// ListenMode::CentralAcceptor: one acceptor thread accepts on a single
/// shared listener and hands each fd to the least-loaded worker.  The
/// handoff is lock-free end to end: the fd goes through the shard's MPSC
/// ConnQueue (one compare-exchange), the load signal is each shard's own
/// relaxed-atomic counters read through a published pointer, and the
/// wakeup is one byte written to a host-owned pipe — the acceptor never
/// takes a shard mutex.  Ready connections are drained in batches: every
/// fd the kernel has pending is accepted and placed in one sweep, then
/// each touched worker is poked once, so a burst of B connections costs
/// one poll wakeup and at most min(B, workers) pipe writes instead of B.
///
/// Either way the connection lives out its life on one shard, every
/// park/resume is a one-shot capture + invoke with zero words copied, and
/// per-shard traces stay deterministic because each worker has its own
/// sequence numbering and fd numbers never enter a trace (port ids do).
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

  /// Creates the listeners, the workers (each with its own Interp, handoff
  /// queue and wakeup pipe) and — in CentralAcceptor mode — the acceptor
  /// thread.  False (with error()) if any piece could not be set up; no
  /// threads are left running on failure.
  bool start();
  /// Stops accepting, closes every handoff queue (each worker's take-conn
  /// loop sees EOF — and, in ReusePort mode, closes its shard's listener —
  /// so its program winds down once in-flight connections drain), joins
  /// all threads.  Idempotent.  Clients should have closed their
  /// connections by then, like Server::stop().
  void stop();

  bool running() const { return !Ws.empty() && Ws.front()->Thr.joinable(); }
  uint16_t tcpPort() const { return BoundPort; }
  int workers() const { return static_cast<int>(Ws.size()); }
  /// The accept path actually in effect: Opt.Mode, unless ReusePort was
  /// requested but unavailable (no SO_REUSEPORT on this platform), in
  /// which case start() falls back to CentralAcceptor and reports it here.
  ListenMode listenMode() const { return EffMode; }
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

  /// Hands an accepted connection to a specific worker, as the acceptor
  /// thread does internally.  Works in both modes (a ReusePort shard's
  /// taker admits handed-off fds exactly like accepted ones).  On success
  /// the pool owns \p Fd; on failure (ServerStopped once the pool is
  /// stopping) the caller keeps it.  Lock-free: a queue push plus one
  /// pipe write.  Exposed so tests can target a shard deterministically.
  Error handoff(int Worker, int Fd);

  /// The worker serving program for \p M: Server::protocolSource() plus
  /// the mode's accept loop(s) — a take-conn loop for CentralAcceptor; an
  /// in-shard io-accept loop plus the shutdown-watching take-conn loop
  /// for ReusePort (expects *listener*).  Both expect *max-inflight* and
  /// *preempt*.
  static const char *workerSource(ListenMode M);

private:
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
    /// Reactor::enableWakeupFrom).  The acceptor's poke is a write to
    /// WakeWr — a stable fd, so no lock against the Interp swap.
    int WakeRd = -1;
    int WakeWr = -1;
    /// The current Interp's counters, published for the acceptor's
    /// lock-free load reads.  Crashed Interps retire to Graveyard (ports
    /// closed, object alive) so a racing read through a just-replaced
    /// pointer still lands on live memory.
    std::atomic<const Stats *> Live{nullptr};
    std::vector<std::unique_ptr<Interp>> Graveyard;

    ~Worker();
  };

  void acceptLoop();
  /// Runs the shard's serving program, restarting it on a fresh Interp
  /// (same handoff queue and wakeup pipe; queued fds drain into the new
  /// program, and a ReusePort shard re-binds its listener) after a crash,
  /// up to MaxWorkerRestarts times.
  void workerMain(Worker &W);
  /// Builds one worker's Interp: queue attach (wakeup = port 0), the
  /// shard listener in ReusePort mode (port 1, from \p ListenFd if >= 0,
  /// else freshly bound to BoundPort), globals, tracer.  Null + \p Err
  /// on failure (an adopted \p ListenFd is closed).
  std::unique_ptr<Interp> makeInterp(Worker &W, int ListenFd,
                                     std::string &Err) const;
  /// Queue depth plus live (accepted - closed) connections, from the
  /// shard's own counters; ties break toward the lowest worker id.
  /// Lock-free (reads the published Stats pointers).
  int leastLoaded() const;
  /// One byte down the shard's host-owned wakeup pipe.  Lock-free.
  static void notifyWorker(Worker &W);

  ServeOptions Opt;
  ListenMode EffMode = ListenMode::ReusePort;
  std::vector<std::unique_ptr<Worker>> Ws;
  std::thread Acceptor;
  std::atomic<bool> Stopping{false};
  /// Guards each Worker's Interp pointer: workerMain swaps it on restart
  /// while snapshot()/traceDump()/result() read through it from other
  /// threads.  The acceptor path never takes it.
  mutable std::mutex Mu;
  int ListenFd = -1; ///< CentralAcceptor's shared listener; -1 otherwise.
  uint16_t BoundPort = 0;
  Error Err;
};

} // namespace osc

#endif // OSC_SERVE_POOL_H
