//===----------------------------------------------------------------------===//
///
/// \file
/// The fd-readiness reactor: poll(2) + a deterministic waiter registry.
///
/// The reactor is to I/O what Channel is to message passing: it owns only
/// data — the port table and the list of parked operations — and answers
/// one question, "which parked operations can make progress now?".  Policy
/// (who runs next) stays in the Scheduler and every control transfer stays
/// in the VM: when a read/write/accept would block, the VM parks the green
/// thread with captureOneShot and registers a PendingIo here; when the run
/// queue drains, the VM asks takeReady() and wakes the returned threads —
/// reinstating each continuation with zero words copied.
///
/// Determinism: poll(2) readiness arrives as an unordered fd set, so one
/// poll batch is sorted by (port id, registration seq) before it is handed
/// back.  Port ids are handles into a HandleTable, allocated in program
/// order (the most recently freed slot first, unlike raw fd numbers, which
/// depend on what the OS recycles), so two runs of the same program against the
/// same peer behavior wake threads in the same order and produce
/// byte-identical IoWait/IoReady traces.
///
/// A closed stream port's record is freed once its buffered input has
/// been read (reclaim), and its handle then resolves to one permanently
/// closed sentinel port: reads see EOF, writes see a closed port, and
/// closing again is a no-op — exactly what the closed port answered.
///
//===----------------------------------------------------------------------===//

#ifndef OSC_IO_REACTOR_H
#define OSC_IO_REACTOR_H

#include "io/Port.h"

#include <cstdint>
#include <utility>
#include <vector>

namespace osc {

struct Stats;

/// What a parked thread is waiting to finish.
enum class IoOp : uint8_t {
  ReadLine, ///< io-read-line: a full line (or EOF) in the input buffer.
  Write,    ///< io-write: the output buffer fully flushed.
  Accept,   ///< io-accept: one pending connection.
  TakeConn, ///< io-take-conn: a handed-off fd in the pool's ConnQueue;
            ///< parks on the wakeup port, not on a connection fd.
  Timer,    ///< fd-less deadline waiter (channel block under with-deadline);
            ///< never fd-ready, only ever expires.
  Flush,    ///< Thread-less: a port whose queued output would not fit the
            ///< socket; completes by writing it once the fd is writable.
  Close,    ///< io-close: the output buffer flushed, then the port closed.
};

const char *ioOpName(IoOp Op);

/// True for the operations that wait for POLLOUT.
inline bool ioOpWrites(IoOp Op) {
  return Op == IoOp::Write || Op == IoOp::Flush || Op == IoOp::Close;
}

/// One parked operation: which thread, which port, what it waits for, and
/// the registration sequence number that breaks wake-order ties.  A re-park
/// (readiness arrived but the operation still cannot finish, e.g. a partial
/// line) keeps its original Seq so waiters on one port stay FIFO.
///
/// DeadlineTick arms the deadline wheel: the waiter expires (is handed back
/// through takeReady's Expired list instead of completing) once the
/// reactor's virtual tick clock reaches it.  Timer waiters additionally
/// carry the parking thread's park generation (ParkSeq) so a timer whose
/// thread already woke through the channel is recognized as stale and
/// discarded instead of fired — timers are cancelled lazily, never
/// searched for.  Tid and PortId are generation-tagged handles, so a
/// waiter that outlives its thread's (or port's) record can never reach
/// the next occupant of the slot: the lookup answers "freed".
struct PendingIo {
  uint64_t Seq;
  Handle Tid;
  Handle PortId;
  IoOp Op;
  uint64_t DeadlineTick = 0; ///< 0 = no deadline; fires at NowTick >= this.
  uint64_t ParkSeq = 0;      ///< Thread park generation (Timer validity).

  /// PortId of fd-less Timer waiters.
  static constexpr Handle NoPort = ~Handle{0};
  /// Tid of thread-less Flush waiters.
  static constexpr Handle NoThread = ~Handle{0};
};

class Reactor {
public:
  /// Ignores SIGPIPE process-wide (once): broken-pipe writes must surface
  /// as EPIPE errors on the port, not kill the host.  \p St receives
  /// PortSlotPeak.
  explicit Reactor(Stats &St);
  ~Reactor();
  Reactor(const Reactor &) = delete;
  Reactor &operator=(const Reactor &) = delete;

  // --- Port table (fixnum handles, like threads and channels) ---------------

  Handle addPort(int Fd, Port::Kind K);

  /// Adopts an fd created outside src/io (switched to non-blocking; see
  /// Port's adopting constructor) into the port table.
  Handle addAdoptedPort(int Fd, Port::Kind K);

  /// The port \p Id names; the closed sentinel when its record was freed;
  /// null when \p Id was never a port.
  Port *port(int64_t Id) {
    if (Port *P = Ports.get(Id))
      return P;
    return Ports.stale(Id) ? &Closed : nullptr;
  }
  /// Frees \p P's record if it is a closed stream port whose buffered
  /// input has all been read.  Listener and wakeup ports are never freed.
  /// \p P stays readable (closed, empty) until the next port is added.
  void reclaim(Port *P);
  /// Calls \p Fn on every port whose record is held, in id order.
  template <typename F> void forEachPort(F Fn) { Ports.forEach(Fn); }

  // --- Waiter registry -------------------------------------------------------

  /// Registers a fresh parked operation (new Seq).  \p DeadlineTick of 0
  /// parks without a deadline; otherwise the waiter expires once the
  /// virtual tick clock reaches it.
  void park(Handle Tid, Handle PortId, IoOp Op, uint64_t DeadlineTick = 0,
            uint64_t ParkSeq = 0);
  /// Registers an fd-less Timer waiter for a thread blocked outside the
  /// reactor (channel wait under with-deadline).
  void parkTimer(Handle Tid, uint64_t DeadlineTick, uint64_t ParkSeq);
  /// Registers a thread-less Flush waiter on \p PortId unless one is
  /// already there.  It has no deadline: the port's parked reader or
  /// writer carries the slow-client deadline.
  void parkFlush(Handle PortId);
  /// Re-registers \p P unchanged (original Seq, original deadline) after a
  /// readiness event that did not complete the operation.
  void repark(const PendingIo &P) { Waiters.push_back(P); }
  size_t waiterCount() const { return Waiters.size(); }

  /// True when at least one parked operation is an \p Op.
  bool hasWaiter(IoOp Op) const;
  /// Waiters with an armed deadline (the IoWaitDeadlinePeak numerator).
  size_t timedWaiterCount() const;

  // --- The virtual tick clock (deadline wheel) -------------------------------
  //
  // Deadlines are measured in *virtual poll ticks*, not wall time: the
  // clock advances exactly once per takeReady batch, so the tick at which
  // a deadline fires is a function of the poll sequence and traces that
  // include timeouts stay byte-identical run to run.  Wall time enters
  // only as the per-batch poll clamp (TickMs) that keeps a tick roughly
  // TickMs long when deadlines are armed.

  /// Wall milliseconds per virtual tick: deadlines are stored in ticks
  /// (ms / TickMs, minimum one).
  static constexpr int TickMs = 5;

  uint64_t nowTick() const { return NowTick; }

  /// poll(2)s the waiters' fds for up to \p TimeoutMs (negative = forever)
  /// and removes-and-returns every waiter whose fd is ready, sorted by
  /// (port id, seq).  Empty result means the poll timed out (or there was
  /// nothing to wait for).  Waiters on already-closed ports are always
  /// ready (they complete with EOF/error).
  ///
  /// Each call with a non-empty waiter set advances the tick clock once;
  /// when any waiter has an armed deadline the kernel wait is clamped to
  /// TickMs so ticks keep flowing, and waiters whose deadline has been
  /// reached (and that are not fd-ready — readiness wins) are removed and
  /// appended to \p Expired (same deterministic order) when it is non-null,
  /// or silently kept for the next batch when it is null.
  std::vector<PendingIo> takeReady(int TimeoutMs,
                                   std::vector<PendingIo> *Expired = nullptr);

  /// Removes-and-returns every waiter parked on \p PortId, in Seq order —
  /// io-close uses this to wake them before the fd goes away.
  std::vector<PendingIo> takeWaitersFor(Handle PortId);
  /// Removes-and-returns every waiter doing \p Op, in Seq order.
  std::vector<PendingIo> takeWaitersDoing(IoOp Op);

  /// Silently discards every waiter belonging to thread \p Tid (fd waits
  /// and Timer waiters alike).  Thread cancellation uses this: the thread
  /// is being retired without ever resuming, so nothing may complete or
  /// expire on its behalf later.
  void dropWaitersFor(Handle Tid);

  /// Drops all waiters (scheduler abort; parked threads are gone).
  void clearWaiters() { Waiters.clear(); }

  // --- Unsent output ---------------------------------------------------------
  //
  // Inside a green thread io-write only appends to the port's output
  // buffer; the VM writes every listed port out at its flush points (see
  // VM::ioFlushUnsent), one write(2) per port however many replies it
  // holds.  A port is listed when its buffer goes from empty to non-empty,
  // so each appears at most once, in the order it was first written.

  void markUnsent(Handle PortId) { Unsent.push_back(PortId); }
  bool hasUnsent() const { return !Unsent.empty(); }
  std::vector<Handle> takeUnsent() { return std::exchange(Unsent, {}); }

  // --- Cross-thread wakeup (self-pipe) --------------------------------------
  //
  // A reactor normally belongs entirely to one VM thread; poll(2) only
  // returns when one of *its own* fds goes ready.  The serving pool needs
  // to hand work to a worker blocked in poll, so the reactor can own a
  // self-pipe: the read end sits in the port table as a Kind::Wakeup port
  // (pollable and parkable like any other), and notify() — the ONLY
  // Reactor entry point that is safe from other threads — makes it
  // readable by writing one byte to the write end.

  /// Creates the Wakeup port over a pipe the *host* owns: both fds are
  /// dup(2)'d into the reactor (the Wakeup port adopts the duped read
  /// end, the duped write end backs notify()), so the pipe itself
  /// outlives this reactor.  The serving pool uses this to keep one
  /// wakeup pipe per shard across worker restarts: the acceptor writes
  /// to the host's fd without ever touching — or locking against — the
  /// shard's current Reactor instance.  Idempotent per reactor.
  bool enableWakeupFrom(int ReadFd, int WriteFd, std::string &Err);

  /// Thread-safe: makes the wakeup port readable.  One byte per call; a
  /// full pipe (EAGAIN) is fine — the port is already readable.
  void notify();

  /// Reads and discards everything buffered in the self-pipe.  Must be
  /// called from the reactor's own thread *before* checking the condition
  /// the notification advertised (drain-then-check, so a notify landing
  /// after the check is never lost).
  void drainWakeup();

  /// Port id of the Wakeup port, or -1 when enableWakeupFrom was never
  /// called.
  int64_t wakeupPortId() const { return WakePortId; }

private:
  /// Records the slot peak after a port is added.
  Handle place(Port &P);

  Stats &St;
  HandleTable<Port> Ports;
  /// What a freed port's handle resolves to: closed, empty, never freed.
  Port Closed{PendingIo::NoPort, -1, Port::Kind::Stream};
  std::vector<PendingIo> Waiters;
  std::vector<Handle> Unsent; ///< Ports with queued, unflushed output.
  uint64_t NextSeq = 0;
  uint64_t NowTick = 0; ///< Virtual tick clock; +1 per takeReady batch.
  int64_t WakePortId = -1; ///< Index of the Wakeup port, -1 if disabled.
  int WakeWriteFd = -1;    ///< Write end of the self-pipe (reactor-owned).
};

} // namespace osc

#endif // OSC_IO_REACTOR_H
