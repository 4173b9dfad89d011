//===----------------------------------------------------------------------===//
///
/// \file
/// Non-blocking file-descriptor wrappers for the I/O reactor (src/io).
///
/// A Port owns one non-blocking fd — one end of a pipe or socketpair, a
/// connected loopback TCP stream, or a listening socket — plus the line
/// buffers the Scheme-visible protocol works in.  Ports expose only the
/// *non-blocking halves* of each operation (fill the input buffer, flush
/// the output buffer, accept one connection): whether a would-block result
/// parks the calling green thread is the VM's decision, exactly as
/// Channel::trySend / tryRecv leave blocking policy to the scheduler glue.
///
/// A port never touches a Value and never allocates on the Scheme heap, so
/// the whole layer is testable without an interpreter.
///
//===----------------------------------------------------------------------===//

#ifndef OSC_IO_PORT_H
#define OSC_IO_PORT_H

#include "support/HandleTable.h"

#include <cstdint>
#include <string>
#include <string_view>

namespace osc {

class Port {
public:
  enum class Kind : uint8_t {
    Stream,   ///< Bidirectional byte stream (pipe end, socketpair, TCP).
    Listener, ///< Listening loopback TCP socket; only acceptConn applies.
    Wakeup,   ///< Read end of the reactor's cross-thread self-pipe; becomes
              ///< readable when another thread calls Reactor::notify().
  };

  /// Outcome of one non-blocking attempt.
  enum class Io : uint8_t {
    Progress,   ///< Bytes moved (or nothing was pending).
    WouldBlock, ///< The fd is not ready; retry on readiness.
    Eof,        ///< Peer closed its end (reads only).
    Reset,      ///< The peer reset the connection (ECONNRESET / EPIPE);
                ///< lastError() has the message.
    Overlong,   ///< Unterminated input passed MaxLineBytes (reads only);
                ///< the partial line was discarded.
    Error,      ///< Hard failure; lastError() has the message.
  };

  /// Tag for the adopting constructor below.
  struct AdoptFd {};

  /// Wraps an fd the src/io factories created (already non-blocking).
  Port(Handle Id, int Fd, Kind K) : Id(Id), Fd(Fd), K(K) {}

  /// Adopts a live fd that originated *outside* src/io — e.g. a connection
  /// accepted on another thread and handed to this reactor.  Takes
  /// ownership and switches the fd to non-blocking (every Port invariant
  /// assumes O_NONBLOCK; an inherited blocking fd would stall the VM).
  Port(Handle Id, int Fd, Kind K, AdoptFd);

  ~Port() { closeNow(); }
  Port(const Port &) = delete;
  Port &operator=(const Port &) = delete;

  Handle id() const { return Id; }
  int fd() const { return Fd; }
  Kind kind() const { return K; }
  bool closed() const { return Fd < 0; }
  bool atEof() const { return SawEof; }
  const std::string &lastError() const { return Err; }

  /// Bound TCP port for listeners (0 otherwise); recorded by the creator.
  uint16_t tcpPort() const { return TcpPort; }
  void setTcpPort(uint16_t P) { TcpPort = P; }

  // --- Buffered line input ---------------------------------------------------

  /// Takes one complete line (without the terminator; a trailing \r is also
  /// stripped) out of the input buffer.  After EOF or close the unterminated
  /// tail, if any, counts as the final line.  Returns false when no line is
  /// available yet.  Lines are framed with a read cursor, so taking one
  /// costs its own length however many more are buffered behind it.
  bool takeLine(std::string &Out);

  /// Cap in bytes on one unterminated line of input.  A client that
  /// streams bytes without a newline cannot grow the input buffer without
  /// bound: no request line comes near this.
  static constexpr size_t MaxLineBytes = size_t{1} << 20;

  /// Reads everything currently available on the fd into the input buffer.
  /// \p BytesIn is incremented by the bytes moved.  Returns Overlong, and
  /// discards the partial line, as soon as the input after the last
  /// newline passes MaxLineBytes.
  Io fillInput(uint64_t &BytesIn);

  size_t inputBuffered() const { return InBuf.size() - InHead; }

  // --- Buffered output -------------------------------------------------------

  /// Cap in bytes on a port's buffered-but-unsent output.  A client that
  /// stops reading cannot pin unbounded memory: no reply comes near this.
  static constexpr size_t MaxOutputBytes = size_t{1} << 20;

  /// Appends to the output buffer.  Returns false — and queues nothing —
  /// when the append would push the buffered-but-unsent output past
  /// MaxOutputBytes: the caller must treat the port as a hopeless slow
  /// client and drop it rather than buffer without bound.
  bool queueOutput(std::string_view S) {
    if (OutBuf.size() - OutHead + S.size() > MaxOutputBytes)
      return false;
    OutBuf.append(S);
    return true;
  }
  bool outputPending() const { return OutBuf.size() > OutHead; }
  /// True while the output buffer holds bytes that the last flushOutput
  /// could not write (the fd would block).
  bool flushBlocked() const { return FlushBlocked && outputPending(); }

  // --- Per-port deadline -----------------------------------------------------
  //
  // Slow-client defense: when nonzero, every park on this port is armed
  // with `now + DeadlineTicks` on the reactor's virtual tick clock, and a
  // park that expires drops the connection (io-drop) instead of waiting
  // forever.  Set from Scheme via io-set-deadline!.

  void setDeadlineTicks(uint64_t T) { DeadlineTicks = T; }
  uint64_t deadlineTicks() const { return DeadlineTicks; }

  /// Writes as much of the output buffer as the fd accepts right now, in
  /// one write(2) unless the kernel takes only part of it.  \p BytesOut is
  /// incremented by the bytes moved.
  Io flushOutput(uint64_t &BytesOut);

  // --- Listener --------------------------------------------------------------

  /// Accepts one pending connection (see acceptConnection).  Returns the
  /// new fd, -1 when none is pending (would block), -2 on a hard error.
  int acceptConn();

  /// Flushes best-effort, then closes the fd.  Idempotent; buffered input
  /// stays readable through takeLine (close behaves like EOF).
  void closeNow();

private:
  Handle Id;
  int Fd;
  Kind K;
  bool SawEof = false;
  uint16_t TcpPort = 0;
  std::string InBuf;
  size_t InHead = 0;  ///< Bytes of InBuf already taken as lines.
  size_t LineEnd = 0; ///< One past InBuf's last newline (0: none).
  std::string OutBuf;
  size_t OutHead = 0; ///< Bytes of OutBuf already written.
  std::string Err;
  bool FlushBlocked = false;   ///< The last flushOutput would block.
  uint64_t DeadlineTicks = 0;  ///< Per-park deadline distance; 0 = none.
};

// --- fd factories (all loopback/local; every fd comes back non-blocking) -----

/// pipe(2).  Returns false and sets \p Err on failure.
bool openPipePair(int &ReadFd, int &WriteFd, std::string &Err);

/// Puts an existing fd into non-blocking mode.
bool makeNonBlocking(int Fd);

/// socketpair(2), AF_UNIX stream: both ends bidirectional.
bool openSocketPairFds(int &A, int &B, std::string &Err);

/// Listening TCP socket bound to 127.0.0.1:\p Port (0 picks an ephemeral
/// port; \p Port is updated to the bound one).  Returns the fd or -1.
/// With \p ReusePort true the socket is bound with SO_REUSEPORT so several
/// listeners (one per pool shard) can share one port and let the kernel
/// load-balance accepts across them; if the option cannot be set the call
/// fails rather than silently binding exclusively.
int openListener(uint16_t &Port, int Backlog, std::string &Err,
                 bool ReusePort = false);

/// Accepts one pending connection on the listening socket \p ListenFd.
/// The new fd comes back non-blocking and, for TCP, with TCP_NODELAY set:
/// replies are already coalesced into one write per port per reactor
/// turn, so Nagle would only hold the last segment back until the peer's
/// delayed ACK.  Returns -1 when nothing is pending (or the arrival was
/// aborted), -2 on a hard error with \p Err set.  Every socket the system
/// accepts itself goes through here; fds a host hands over keep the
/// options the host set.
int acceptConnection(int ListenFd, std::string &Err);

/// *Blocking* loopback TCP connect — the host-side client half used by
/// tests and benchmarks, never by the VM.  Returns the fd or -1.
int connectLoopback(uint16_t Port, std::string &Err);

/// Blocks up to \p TimeoutMs for \p Fd to become readable (\p ForWrite
/// false) or writable.  Used for I/O performed by the main computation,
/// where there is no scheduler to park in.  Negative timeout waits forever.
bool pollOneFd(int Fd, bool ForWrite, int TimeoutMs);

} // namespace osc

#endif // OSC_IO_PORT_H
