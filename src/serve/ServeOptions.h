//===----------------------------------------------------------------------===//
///
/// \file
/// The one serving-options surface shared by Server and Pool.
///
/// A Server is behaviorally a 1-worker Pool — same Scheme protocol core,
/// same overload knobs, same Stats::Snapshot shape — so the two classes
/// take the same options struct.  Knobs that only make sense for the
/// sharded pool (Workers, Mode, MaxWorkerRestarts, Program, TraceWorkers)
/// are documented as such and ignored by Server; everything else applies
/// to both (per shard, in the pool's case).
///
//===----------------------------------------------------------------------===//

#ifndef OSC_SERVE_SERVEOPTIONS_H
#define OSC_SERVE_SERVEOPTIONS_H

#include "core/Config.h"

#include <cstdint>

namespace osc {

/// How a Pool's workers get their connections.
enum class ListenMode : uint8_t {
  /// Each worker's reactor owns its own listening socket bound to the
  /// shared port with SO_REUSEPORT; the kernel load-balances incoming
  /// connections across the shards and every accept happens in-shard,
  /// with no acceptor thread, no cross-thread fd handoff and no wakeup
  /// write on the hot path.  The default.  If the first listener cannot
  /// be created with SO_REUSEPORT the pool falls back to CentralAcceptor
  /// (Pool::listenMode() reports the effective mode).
  ReusePort,
  /// One acceptor thread accepts on a single shared listener and hands
  /// each fd to the least-loaded worker through its lock-free ConnQueue,
  /// draining every pending connection per wakeup and poking each
  /// touched worker's self-pipe once per batch.  The deterministic
  /// differential baseline, and the portable fallback.
  CentralAcceptor,
};

/// Returns "reuseport" / "central".
const char *listenModeName(ListenMode M);

/// Options for both serving fronts (Server and Pool).  Per-connection and
/// per-shard knobs apply to the Server's single embedded Interp exactly as
/// they apply to each Pool worker.
struct ServeOptions {
  uint16_t Port = 0;     ///< TCP port; 0 picks an ephemeral loopback port.
  int Workers = 1;       ///< Pool only: shard count (one OS thread each).
  int MaxInflight = 64;  ///< Backpressure bound (channel capacity) per shard.
  int64_t PreemptInterval = 0; ///< Scheduler slice; 0 = cooperative.
  int Backlog = 128;     ///< listen(2) backlog (per listener).
  int MaxConns = 0;      ///< Admission cap per shard: past this many live
                         ///< connections new arrivals get one fast BUSY
                         ///< line and are closed (RequestsShed).  0 = off.
  int ConnDeadlineMs = 0; ///< Per-connection park deadline: a client that
                          ///< keeps a read or write parked longer is
                          ///< dropped (ConnsReaped).  0 = none.
  int MaxWorkerRestarts = 3; ///< Pool only: times a crashed worker program
                             ///< is restarted on a fresh Interp (its
                             ///< handoff queue and, in ReusePort mode, a
                             ///< re-bound listener survive) before the
                             ///< shard is given up on.
  ListenMode Mode = ListenMode::ReusePort; ///< Pool only: accept path.
  Config VmCfg;          ///< Control-representation knobs (every worker).
  const char *Program = nullptr; ///< Pool test hook: replaces the worker
                                 ///< serving program.
  bool TraceWorkers = false; ///< Pool only: arm every worker's tracer.
};

} // namespace osc

#endif // OSC_SERVE_SERVEOPTIONS_H
