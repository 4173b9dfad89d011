//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal blocking loopback client for the serving pool's line protocol.
///
/// This is the *host* half of the story — what tests and examples use to
/// talk to a running pool.  It is plain blocking POSIX I/O on purpose: the
/// interesting machinery (parking on one-shot continuations) all lives on
/// the server side, and the client must not depend on any of it.
///
//===----------------------------------------------------------------------===//

#ifndef OSC_SERVE_CLIENT_H
#define OSC_SERVE_CLIENT_H

#include <cstdint>
#include <string>

namespace osc {

class Client {
public:
  Client() = default;
  ~Client() { close(); }
  Client(const Client &) = delete;
  Client &operator=(const Client &) = delete;
  Client(Client &&O) noexcept : Fd(O.Fd), Buf(std::move(O.Buf)) {
    O.Fd = -1;
  }

  bool connected() const { return Fd >= 0; }
  int fd() const { return Fd; }

  /// Blocking connect to 127.0.0.1:\p Port.
  bool connect(uint16_t Port, std::string &Err);

  /// Takes ownership of an already-connected fd (e.g. one end of a
  /// socketpair handed to a specific pool worker), closing any previous
  /// connection first.
  void adopt(int NewFd);

  /// Writes \p Line plus a newline, retrying until everything is out.
  bool sendLine(const std::string &Line);

  /// Reads one line (terminator stripped) with \p TimeoutMs per poll.
  /// False on timeout or EOF before a complete line.
  bool recvLine(std::string &Out, int TimeoutMs = 10000);

  /// sendLine + recvLine — one protocol round trip.
  bool request(const std::string &Line, std::string &Reply,
               int TimeoutMs = 10000);

  void close();

private:
  int Fd = -1;
  std::string Buf; ///< Bytes received past the last returned line.
};

} // namespace osc

#endif // OSC_SERVE_CLIENT_H
