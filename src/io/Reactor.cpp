#include "io/Reactor.h"

#include "support/Stats.h"

#include <algorithm>
#include <cerrno>
#include <csignal>

#include <poll.h>
#include <unistd.h>

using namespace osc;

const char *osc::ioOpName(IoOp Op) {
  switch (Op) {
  case IoOp::ReadLine:
    return "read-line";
  case IoOp::Write:
    return "write";
  case IoOp::Accept:
    return "accept";
  case IoOp::TakeConn:
    return "take-conn";
  case IoOp::Timer:
    return "timer";
  case IoOp::Flush:
    return "flush";
  case IoOp::Close:
    return "close";
  }
  return "?";
}

Reactor::Reactor(Stats &St) : St(St) {
  // A peer may close mid-write at any time; without this the default
  // SIGPIPE disposition would kill the whole process instead of letting
  // flushOutput report EPIPE.
  static bool Ignored = false;
  if (!Ignored) {
    std::signal(SIGPIPE, SIG_IGN);
    Ignored = true;
  }
}

Reactor::~Reactor() {
  if (WakeWriteFd >= 0)
    ::close(WakeWriteFd);
}

Handle Reactor::addPort(int Fd, Port::Kind K) {
  return place(Ports.emplace(Fd, K));
}

Handle Reactor::addAdoptedPort(int Fd, Port::Kind K) {
  return place(Ports.emplace(Fd, K, Port::AdoptFd{}));
}

Handle Reactor::place(Port &P) {
  St.PortSlotPeak = std::max<uint64_t>(St.PortSlotPeak, Ports.slotCount());
  return P.id();
}

void Reactor::reclaim(Port *P) {
  if (P->kind() == Port::Kind::Stream && P->closed() &&
      P->inputBuffered() == 0 && Ports.get(static_cast<int64_t>(P->id())) == P)
    Ports.free(P->id());
}

bool Reactor::hasWaiter(IoOp Op) const {
  for (const PendingIo &W : Waiters)
    if (W.Op == Op)
      return true;
  return false;
}

bool Reactor::enableWakeupFrom(int ReadFd, int WriteFd, std::string &Err) {
  if (WakePortId >= 0)
    return true;
  int Rd = ::dup(ReadFd);
  if (Rd < 0) {
    Err = "dup(wakeup read fd) failed";
    return false;
  }
  int Wr = ::dup(WriteFd);
  if (Wr < 0) {
    Err = "dup(wakeup write fd) failed";
    ::close(Rd);
    return false;
  }
  // The dup shares the original's file description, including O_NONBLOCK
  // set by openPipePair; the adopting Port constructor re-asserts it.
  WakePortId = addAdoptedPort(Rd, Port::Kind::Wakeup);
  WakeWriteFd = Wr;
  return true;
}

void Reactor::notify() {
  if (WakeWriteFd < 0)
    return;
  char B = 1;
  for (;;) {
    ssize_t N = ::write(WakeWriteFd, &B, 1);
    if (N >= 0 || errno != EINTR)
      return; // EAGAIN: pipe full, already readable — mission accomplished.
  }
}

void Reactor::drainWakeup() {
  Port *P = WakePortId >= 0 ? port(WakePortId) : nullptr;
  if (!P || P->closed())
    return;
  char Buf[256];
  for (;;) {
    ssize_t N = ::read(P->fd(), Buf, sizeof Buf);
    if (N > 0)
      continue;
    if (N < 0 && errno == EINTR)
      continue;
    return; // Empty (EAGAIN) or EOF/error: nothing more to discard.
  }
}

void Reactor::park(Handle Tid, Handle PortId, IoOp Op,
                   uint64_t DeadlineTick, uint64_t ParkSeq) {
  Waiters.push_back({NextSeq++, Tid, PortId, Op, DeadlineTick, ParkSeq});
}

void Reactor::parkFlush(Handle PortId) {
  for (const PendingIo &W : Waiters)
    if (W.Op == IoOp::Flush && W.PortId == PortId)
      return;
  Waiters.push_back({NextSeq++, PendingIo::NoThread, PortId, IoOp::Flush});
}

void Reactor::parkTimer(Handle Tid, uint64_t DeadlineTick, uint64_t ParkSeq) {
  Waiters.push_back(
      {NextSeq++, Tid, PendingIo::NoPort, IoOp::Timer, DeadlineTick, ParkSeq});
}

size_t Reactor::timedWaiterCount() const {
  size_t N = 0;
  for (const PendingIo &W : Waiters)
    if (W.DeadlineTick)
      ++N;
  return N;
}

std::vector<PendingIo> Reactor::takeReady(int TimeoutMs,
                                          std::vector<PendingIo> *Expired) {
  std::vector<PendingIo> Ready;
  if (Waiters.empty())
    return Ready;

  // One pollfd per distinct fd; a port with both a parked reader and a
  // parked writer gets its events merged.  Closed ports are ready without
  // asking the kernel — their waiters complete with EOF/error.  Timer
  // waiters have no fd at all; they only expire.
  std::vector<pollfd> Pfds;
  std::vector<char> IsReady(Waiters.size(), 0);
  bool AnyClosed = false, AnyDeadline = false;
  for (size_t I = 0; I < Waiters.size(); ++I) {
    if (Waiters[I].DeadlineTick)
      AnyDeadline = true;
    if (Waiters[I].Op == IoOp::Timer)
      continue;
    Port *P = port(Waiters[I].PortId);
    if (!P || P->closed()) {
      IsReady[I] = 1;
      AnyClosed = true;
      continue;
    }
    short Ev = ioOpWrites(Waiters[I].Op) ? POLLOUT : POLLIN;
    auto It = std::find_if(Pfds.begin(), Pfds.end(),
                           [&](const pollfd &F) { return F.fd == P->fd(); });
    if (It == Pfds.end()) {
      pollfd F{};
      F.fd = P->fd();
      F.events = Ev;
      Pfds.push_back(F);
    } else {
      It->events |= Ev;
    }
  }

  // With a closed-port waiter already ready, just sample the kernel.  An
  // armed deadline clamps the wait to one tick so the virtual clock keeps
  // flowing; a Timer-only waiter set still sleeps that one tick (there is
  // nothing to poll, but a tick must take a tick).
  int Wait = AnyClosed ? 0 : TimeoutMs;
  if (AnyDeadline && (Wait < 0 || Wait > TickMs))
    Wait = TickMs;
  if (!Pfds.empty() || AnyDeadline) {
    for (;;) {
      int N = ::poll(Pfds.data(), static_cast<nfds_t>(Pfds.size()), Wait);
      if (N >= 0)
        break;
      if (errno != EINTR)
        return Ready; // Treat a hard poll failure as a timeout.
    }
    for (size_t I = 0; I < Waiters.size(); ++I) {
      if (IsReady[I] || Waiters[I].Op == IoOp::Timer)
        continue;
      Port *P = port(Waiters[I].PortId);
      auto It = std::find_if(Pfds.begin(), Pfds.end(),
                             [&](const pollfd &F) { return F.fd == P->fd(); });
      if (It == Pfds.end())
        continue;
      short Want = ioOpWrites(Waiters[I].Op) ? POLLOUT : POLLIN;
      // Error/hangup means the operation can finish too — with an
      // EOF/error result rather than bytes.
      if (It->revents & (Want | POLLERR | POLLHUP | POLLNVAL))
        IsReady[I] = 1;
    }
  }

  // One batch, one tick.  Expiry is checked against the advanced clock so
  // a deadline of "now + 1 tick" can fire on the very next batch.
  ++NowTick;
  std::vector<char> IsExpired(Waiters.size(), 0);
  if (Expired)
    for (size_t I = 0; I < Waiters.size(); ++I)
      if (!IsReady[I] && Waiters[I].DeadlineTick &&
          Waiters[I].DeadlineTick <= NowTick)
        IsExpired[I] = 1;

  std::vector<PendingIo> Rest;
  for (size_t I = 0; I < Waiters.size(); ++I)
    (IsReady[I] ? Ready : IsExpired[I] ? *Expired : Rest)
        .push_back(Waiters[I]);
  Waiters = std::move(Rest);

  // poll(2) reports readiness in fd order, which the OS recycles
  // nondeterministically; (port id, seq) is stable run to run.
  auto ByPortSeq = [](const PendingIo &A, const PendingIo &B) {
    if (A.PortId != B.PortId)
      return A.PortId < B.PortId;
    return A.Seq < B.Seq;
  };
  std::sort(Ready.begin(), Ready.end(), ByPortSeq);
  if (Expired)
    std::sort(Expired->begin(), Expired->end(), ByPortSeq);
  return Ready;
}

namespace {

/// Moves the waiters matching \p Take out of \p Waiters, in Seq order.
template <typename Pred>
std::vector<PendingIo> takeWaitersIf(std::vector<PendingIo> &Waiters,
                                     Pred Take) {
  std::vector<PendingIo> Out, Rest;
  for (const PendingIo &W : Waiters)
    (Take(W) ? Out : Rest).push_back(W);
  Waiters = std::move(Rest);
  std::sort(Out.begin(), Out.end(),
            [](const PendingIo &A, const PendingIo &B) { return A.Seq < B.Seq; });
  return Out;
}

} // namespace

std::vector<PendingIo> Reactor::takeWaitersFor(Handle PortId) {
  return takeWaitersIf(Waiters,
                       [PortId](const PendingIo &W) { return W.PortId == PortId; });
}

std::vector<PendingIo> Reactor::takeWaitersDoing(IoOp Op) {
  return takeWaitersIf(Waiters, [Op](const PendingIo &W) { return W.Op == Op; });
}

void Reactor::dropWaitersFor(Handle Tid) {
  Waiters.erase(std::remove_if(Waiters.begin(), Waiters.end(),
                               [Tid](const PendingIo &W) {
                                 return W.Tid == Tid;
                               }),
                Waiters.end());
}
