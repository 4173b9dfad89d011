//===----------------------------------------------------------------------===//
///
/// \file
/// The serving options a Pool takes.
///
/// Per-connection knobs (MaxInflight, MaxConns, ConnDeadlineMs) apply per
/// shard: each worker's Interp enforces them on its own connections.
///
//===----------------------------------------------------------------------===//

#ifndef OSC_SERVE_SERVEOPTIONS_H
#define OSC_SERVE_SERVEOPTIONS_H

#include "core/Config.h"

#include <cstdint>

namespace osc {

struct ServeOptions {
  uint16_t Port = 0;     ///< TCP port; 0 picks an ephemeral loopback port.
  int Workers = 1;       ///< Shard count (one OS thread each).
  int MaxInflight = 64;  ///< Backpressure bound (channel capacity) per shard.
  int64_t PreemptInterval = 0; ///< Scheduler slice; 0 = cooperative.
  int Backlog = 128;     ///< listen(2) backlog (per shard listener).
  int MaxConns = 0;      ///< Admission cap per shard: past this many live
                         ///< connections new arrivals get one fast BUSY
                         ///< line and are closed (RequestsShed).  0 = off.
  int ConnDeadlineMs = 0; ///< Per-connection park deadline: a client that
                          ///< keeps a read or write parked longer is
                          ///< dropped (ConnsReaped).  0 = none.
  int MaxWorkerRestarts = 3; ///< Times a crashed worker program is
                             ///< restarted on a fresh Interp (its handoff
                             ///< queue and a re-bound listener survive)
                             ///< before the shard is given up on.
  Config VmCfg;          ///< Control-representation knobs (every worker).
  const char *Program = nullptr; ///< Test hook: replaces the worker
                                 ///< serving program.
  bool TraceWorkers = false; ///< Arm every worker's tracer.
};

} // namespace osc

#endif // OSC_SERVE_SERVEOPTIONS_H
