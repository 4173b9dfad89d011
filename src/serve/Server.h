//===----------------------------------------------------------------------===//
///
/// \file
/// The continuation-per-request eval server (src/serve).
///
/// A Server embeds one Interp and runs a Scheme serving program inside it:
/// an acceptor green thread io-accepts loopback connections, and every
/// connection gets its own green thread speaking a newline-delimited
/// protocol.  Each time a request thread waits for bytes it parks on a
/// one-shot continuation; each wake reinstates it with zero stack words
/// copied — the paper's cheap control transfer carrying a server's whole
/// concurrency story.  Backpressure is the existing bounded Channel: the
/// connection loop takes a token from a channel of capacity MaxInflight
/// before spawning a handler and returns it after, so at most MaxInflight
/// requests are in flight.
///
/// Protocol (one request per line; one reply line per request, except
/// STREAM which replies with several):
///   PING            -> PONG
///   EVAL <sexpr>    -> the fixnum result, or ERR (fixnum arithmetic only)
///   STREAM (e ...)  -> one "PART <result>" line per expression (ERR for a
///                      bad element), then DONE; parts are produced lazily
///                      by a generator built on the delimited-control layer
///                      (src/control), so each element evaluates only when
///                      its PART is about to be written
///   QUIT            -> BYE, then the server closes its listener and stops
///   anything else   -> ERR
///
/// Threading: the Scheme program runs on one std::thread (the VM is
/// single-threaded); clients are other OS threads or processes talking TCP.
/// snapshot() is safe from any thread at any time.
///
//===----------------------------------------------------------------------===//

#ifndef OSC_SERVE_SERVER_H
#define OSC_SERVE_SERVER_H

#include "core/Config.h"
#include "serve/ServeOptions.h"
#include "support/Error.h"
#include "support/Stats.h"
#include "vm/Interp.h"

#include <cstdint>
#include <memory>
#include <string>
#include <thread>

namespace osc {

class Server {
public:
  explicit Server(ServeOptions O) : Opt(std::move(O)) {}
  ~Server();
  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Creates the interpreter and the listening socket and starts the
  /// serving program on its own std::thread.  False (with error()) if the
  /// socket could not be created.
  bool start();
  /// Connects, sends QUIT, waits for BYE and joins the serving thread.
  /// Idempotent.  All client connections should be closed by then.
  void stop();
  /// Joins the serving thread without initiating shutdown: returns when
  /// some client's QUIT (or a server error) ends the serving program.
  void wait();

  bool running() const { return Thr.joinable(); }
  uint16_t tcpPort() const { return BoundPort; }
  /// The last failure, classified: Io for socket setup problems, and the
  /// serving program's own ErrorKind once the serving thread has been
  /// joined (stop()/wait()).  ok() while everything is healthy.
  const Error &error() const { return Err; }

  /// Counters captured at start(), before any request ran: diff
  /// snapshot() against this to measure only the serving work.
  const Stats::Snapshot &baseline() const { return Base; }
  /// A coherent copy of the counters.  Only meaningful after stop() (the
  /// serving thread owns the live Stats until then).
  Stats::Snapshot snapshot() const { return I->snapshot(); }
  /// The serving program's eval result.  Only meaningful after stop().
  const Interp::Result &result() const { return R; }

  /// The Scheme serving program (exposed for tests; expects the globals
  /// *listener*, *max-inflight* and *preempt* to be bound).
  static const char *serveSource();
  /// The protocol core shared with Pool workers: backpressure tokens,
  /// the safe fixnum evaluator, answer/handle-request and a conn-loop
  /// whose QUIT branch calls the variant hook (on-quit).  Each variant
  /// appends its own accept loop and on-quit definition.
  static const char *protocolSource();

private:
  ServeOptions Opt;
  std::unique_ptr<Interp> I;
  std::thread Thr;
  Interp::Result R;
  Stats::Snapshot Base;
  uint16_t BoundPort = 0;
  Error Err;
};

} // namespace osc

#endif // OSC_SERVE_SERVER_H
