//===----------------------------------------------------------------------===//
///
/// \file
/// The eval server as a standalone binary: a 1-worker Pool — one VM, one
/// listener, one green thread per connection and per request, every
/// network wait a parked one-shot continuation.
///
///   ./build/examples/eval_server 7070
///
/// then from another terminal (QUIT after the replies: a QUIT pipelined
/// behind requests closes the connection before their replies go out):
///
///   (printf 'PING\nEVAL (+ 1 2)\n'; sleep 1; echo QUIT) | nc 127.0.0.1 7070
///
/// With no argument an ephemeral port is chosen and printed.  QUIT ends
/// only the client's own connection.  Ctrl-C (SIGINT) or SIGTERM stops the
/// server: it stops accepting, waits for open connections to close, and
/// prints the serving counters — requests served, parks, and the stack
/// words copied by them (zero).
///
//===----------------------------------------------------------------------===//

#include "osc.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>

#include <pthread.h>

using namespace osc;

int main(int argc, char **argv) {
  ServeOptions O;
  if (argc > 1)
    O.Port = static_cast<uint16_t>(std::atoi(argv[1]));

  // Block the stop signals before start(), so the worker thread inherits
  // the mask and the signal is delivered only to sigwait below.
  sigset_t Stop;
  sigemptyset(&Stop);
  sigaddset(&Stop, SIGINT);
  sigaddset(&Stop, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &Stop, nullptr);

  Pool P(O);
  if (!P.start()) {
    std::fprintf(stderr, "eval_server: %s\n", P.error().Message.c_str());
    return 1;
  }
  std::printf("eval server listening on 127.0.0.1:%u\n", P.tcpPort());
  std::printf("protocol: PING | EVAL <sexpr> | QUIT  (one per line); "
              "Ctrl-C stops\n");
  std::fflush(stdout);

  int Sig = 0;
  sigwait(&Stop, &Sig);
  P.stop();

  if (!P.error().ok()) {
    std::fprintf(stderr, "eval_server: %s\n", P.error().Message.c_str());
    return 1;
  }
  Stats::Snapshot D = P.snapshot() - P.baseline();
  std::printf("served %llu request(s) over %llu connection(s); "
              "%llu parks, %llu stack words copied.\n",
              static_cast<unsigned long long>(D.RequestsServed),
              static_cast<unsigned long long>(D.AcceptedConnections),
              static_cast<unsigned long long>(D.IoParks),
              static_cast<unsigned long long>(D.WordsCopied));
  return 0;
}
