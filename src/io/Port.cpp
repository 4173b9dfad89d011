#include "io/Port.h"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace osc;

namespace {

std::string errnoMessage(const char *What) {
  return std::string(What) + ": " + std::strerror(errno);
}

/// The peer tore the connection down under us: a reset on read, or a
/// write into a socket whose peer is gone.
bool peerReset(int E) { return E == ECONNRESET || E == EPIPE; }

} // namespace

bool osc::makeNonBlocking(int Fd) {
  int Flags = ::fcntl(Fd, F_GETFL, 0);
  return Flags >= 0 && ::fcntl(Fd, F_SETFL, Flags | O_NONBLOCK) == 0;
}

Port::Port(Handle Id, int Fd, Kind K, AdoptFd) : Id(Id), Fd(Fd), K(K) {
  if (Fd >= 0 && !makeNonBlocking(Fd))
    Err = errnoMessage("fcntl");
}

bool Port::takeLine(std::string &Out) {
  if (InHead < LineEnd) {
    // A newline lies before LineEnd, so the search stops inside this line.
    size_t Nl = InBuf.find('\n', InHead);
    Out.assign(InBuf, InHead, Nl - InHead);
    InHead = Nl + 1;
    if (InHead == InBuf.size()) {
      InBuf.clear();
      InHead = LineEnd = 0;
    } else if (InHead > InBuf.size() / 2) {
      // Compact once the consumed prefix passes half the buffer: each
      // byte moves at most once per halving, so framing stays linear.
      InBuf.erase(0, InHead);
      LineEnd -= InHead;
      InHead = 0;
    }
  } else if ((SawEof || closed()) && InHead < InBuf.size()) {
    // After EOF (or a local close) the unterminated tail is the final line.
    Out.assign(InBuf, InHead);
    InBuf.clear();
    InHead = LineEnd = 0;
  } else {
    return false;
  }
  if (!Out.empty() && Out.back() == '\r')
    Out.pop_back();
  return true;
}

Port::Io Port::fillInput(uint64_t &BytesIn) {
  if (closed() || SawEof)
    return Io::Eof;
  bool Moved = false;
  for (;;) {
    char Buf[4096];
    ssize_t N = ::read(Fd, Buf, sizeof Buf);
    if (N > 0) {
      std::string_view Chunk(Buf, static_cast<size_t>(N));
      size_t Nl = Chunk.rfind('\n');
      if (Nl != std::string_view::npos)
        LineEnd = InBuf.size() + Nl + 1;
      InBuf.append(Chunk);
      BytesIn += static_cast<uint64_t>(N);
      Moved = true;
      if (InBuf.size() - LineEnd > MaxLineBytes) {
        // A line this long is not a request: drop what there is of it
        // before it grows further.  Complete lines ahead of it stay.
        InBuf.resize(LineEnd);
        Err = "line longer than " + std::to_string(MaxLineBytes) + " bytes";
        return Io::Overlong;
      }
      continue;
    }
    if (N == 0) {
      SawEof = true;
      return Io::Eof;
    }
    if (errno == EINTR)
      continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK)
      return Moved ? Io::Progress : Io::WouldBlock;
    Err = errnoMessage("read");
    return peerReset(errno) ? Io::Reset : Io::Error;
  }
}

Port::Io Port::flushOutput(uint64_t &BytesOut) {
  if (closed()) {
    Err = "port is closed";
    return Io::Error;
  }
  while (outputPending()) {
    ssize_t N = ::write(Fd, OutBuf.data() + OutHead, OutBuf.size() - OutHead);
    if (N > 0) {
      OutHead += static_cast<size_t>(N);
      BytesOut += static_cast<uint64_t>(N);
      continue;
    }
    if (N < 0 && errno == EINTR)
      continue;
    if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Keep a write cursor instead of erasing per partial write; compact
      // once the written prefix passes half the buffer.
      if (OutHead > OutBuf.size() / 2) {
        OutBuf.erase(0, OutHead);
        OutHead = 0;
      }
      FlushBlocked = true;
      return Io::WouldBlock;
    }
    Err = errnoMessage("write");
    return peerReset(errno) ? Io::Reset : Io::Error;
  }
  OutBuf.clear();
  OutHead = 0;
  FlushBlocked = false;
  return Io::Progress;
}

int Port::acceptConn() {
  if (closed())
    return -2;
  return acceptConnection(Fd, Err);
}

int osc::acceptConnection(int ListenFd, std::string &Err) {
  for (;;) {
    int NewFd = ::accept(ListenFd, nullptr, nullptr);
    if (NewFd >= 0) {
      if (!makeNonBlocking(NewFd)) {
        Err = errnoMessage("fcntl");
        ::close(NewFd);
        return -2;
      }
      int One = 1; // Fails harmlessly (EOPNOTSUPP) on a non-TCP listener.
      ::setsockopt(NewFd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof One);
      return NewFd;
    }
    if (errno == EINTR || errno == ECONNABORTED)
      continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK)
      return -1;
    Err = errnoMessage("accept");
    return -2;
  }
}

void Port::closeNow() {
  if (Fd < 0)
    return;
  // Best-effort flush: io-close writes out queued output before it gets
  // here, so only a reaped port (or a dying interpreter) drops bytes.
  if (outputPending()) {
    uint64_t Ignored = 0;
    flushOutput(Ignored);
  }
  OutBuf.clear();
  OutHead = 0;
  ::close(Fd);
  Fd = -1;
}

bool osc::openPipePair(int &ReadFd, int &WriteFd, std::string &Err) {
  int Fds[2];
  if (::pipe(Fds) != 0) {
    Err = errnoMessage("pipe");
    return false;
  }
  if (!makeNonBlocking(Fds[0]) || !makeNonBlocking(Fds[1])) {
    Err = errnoMessage("fcntl");
    ::close(Fds[0]);
    ::close(Fds[1]);
    return false;
  }
  ReadFd = Fds[0];
  WriteFd = Fds[1];
  return true;
}

bool osc::openSocketPairFds(int &A, int &B, std::string &Err) {
  int Fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds) != 0) {
    Err = errnoMessage("socketpair");
    return false;
  }
  if (!makeNonBlocking(Fds[0]) || !makeNonBlocking(Fds[1])) {
    Err = errnoMessage("fcntl");
    ::close(Fds[0]);
    ::close(Fds[1]);
    return false;
  }
  A = Fds[0];
  B = Fds[1];
  return true;
}

int osc::openListener(uint16_t &Port, int Backlog, std::string &Err,
                      bool ReusePort) {
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0) {
    Err = errnoMessage("socket");
    return -1;
  }
  int One = 1;
  ::setsockopt(Fd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof One);
  if (ReusePort) {
#ifdef SO_REUSEPORT
    if (::setsockopt(Fd, SOL_SOCKET, SO_REUSEPORT, &One, sizeof One) != 0) {
      Err = errnoMessage("setsockopt(SO_REUSEPORT)");
      ::close(Fd);
      return -1;
    }
#else
    Err = "SO_REUSEPORT is not available on this platform";
    ::close(Fd);
    return -1;
#endif
  }
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = htons(Port);
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof Addr) != 0 ||
      ::listen(Fd, Backlog) != 0 || !makeNonBlocking(Fd)) {
    Err = errnoMessage("bind/listen");
    ::close(Fd);
    return -1;
  }
  socklen_t Len = sizeof Addr;
  if (::getsockname(Fd, reinterpret_cast<sockaddr *>(&Addr), &Len) != 0) {
    Err = errnoMessage("getsockname");
    ::close(Fd);
    return -1;
  }
  Port = ntohs(Addr.sin_port);
  return Fd;
}

int osc::connectLoopback(uint16_t Port, std::string &Err) {
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0) {
    Err = errnoMessage("socket");
    return -1;
  }
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = htons(Port);
  for (;;) {
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof Addr) == 0)
      return Fd;
    if (errno == EINTR)
      continue;
    Err = errnoMessage("connect");
    ::close(Fd);
    return -1;
  }
}

bool osc::pollOneFd(int Fd, bool ForWrite, int TimeoutMs) {
  pollfd P{};
  P.fd = Fd;
  P.events = ForWrite ? POLLOUT : POLLIN;
  for (;;) {
    int N = ::poll(&P, 1, TimeoutMs);
    if (N > 0)
      return true;
    if (N == 0)
      return false;
    if (errno != EINTR)
      return false;
  }
}
