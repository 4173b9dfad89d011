//===----------------------------------------------------------------------===//
///
/// \file
/// Bounded FIFO channels (CSP-style) for the green-thread scheduler.
///
/// A channel owns only data: a buffer of at most Capacity values plus two
/// wait queues of thread ids.  Capacity 0 makes it a rendezvous channel —
/// every send waits for a matching receive.  Deciding *who* runs next is the
/// Scheduler's job and performing the control transfer is the VM's; the
/// channel just answers "can this operation complete now, and whom does it
/// wake?".  That split keeps the channel trivially testable and keeps all
/// continuation handling in one place (the VM).
///
//===----------------------------------------------------------------------===//

#ifndef OSC_SCHED_CHANNEL_H
#define OSC_SCHED_CHANNEL_H

#include "object/Value.h"
#include "support/HandleTable.h"

#include <cstddef>
#include <cstdint>
#include <deque>

namespace osc {

class GCVisitor;

class Channel {
public:
  Channel(Handle Id, uint32_t Capacity) : Id(Id), Cap(Capacity) {}

  Handle id() const { return Id; }
  uint32_t capacity() const { return Cap; }
  size_t buffered() const { return Buf.size(); }
  size_t waitingReceivers() const { return WaitingRecv.size(); }
  size_t waitingSenders() const { return WaitingSend.size(); }
  bool closed() const { return Closed; }

  struct PendingSend {
    Handle Tid;
    Value V;
  };

  /// Everyone parked at the moment of close, in park order.  The VM wakes
  /// receivers with the EOF sentinel and senders with a trappable error;
  /// the channel itself stays Value-policy-free.
  struct CloseResult {
    std::deque<Handle> Receivers;
    std::deque<PendingSend> Senders;
  };

  /// Marks the channel closed and hands back every parked waiter.  Buffered
  /// values remain receivable (receives drain the buffer, then see EOF);
  /// further sends must be rejected by the caller via closed().
  CloseResult close() {
    Closed = true;
    CloseResult R{std::move(WaitingRecv), std::move(WaitingSend)};
    WaitingRecv.clear();
    WaitingSend.clear();
    return R;
  }

  /// Outcome of the non-blocking half of a send.
  struct SendResult {
    enum Kind {
      Delivered, ///< Handed directly to WokenReceiver; wake it with V.
      Buffered,  ///< Stored in the buffer; nobody to wake.
      MustBlock, ///< Buffer full and no receiver waiting.
    } K;
    Handle WokenReceiver = 0;
  };

  /// Attempts to send \p V without blocking.  A waiting receiver always
  /// takes priority over the buffer so a value never queues behind an
  /// already-parked consumer.
  SendResult trySend(Value V) {
    if (!WaitingRecv.empty()) {
      Handle R = WaitingRecv.front();
      WaitingRecv.pop_front();
      return {SendResult::Delivered, R};
    }
    if (Buf.size() < Cap) {
      Buf.push_back(V);
      return {SendResult::Buffered, 0};
    }
    return {SendResult::MustBlock, 0};
  }

  /// Parks \p Tid as a blocked sender carrying \p V.  The value travels
  /// with the waiter so FIFO order is preserved when receivers drain the
  /// buffer and refill it from the send queue.
  void blockSender(Handle Tid, Value V) { WaitingSend.push_back({Tid, V}); }

  /// Outcome of the non-blocking half of a receive.
  struct RecvResult {
    enum Kind {
      Got,       ///< V holds the received value.
      MustBlock, ///< Channel empty and no sender waiting.
    } K;
    Value V;
    bool WakeSender = false;  ///< A parked sender's value was accepted;
                              ///< wake WokenSender (its send completed).
    Handle WokenSender = 0;
  };

  /// Attempts to receive without blocking.  Draining one buffer slot pulls
  /// the oldest parked sender's value into the buffer (capacity permitting
  /// by construction), so message order is exactly send-completion order.
  RecvResult tryRecv() {
    if (!Buf.empty()) {
      RecvResult R{RecvResult::Got, Buf.front(), false, 0};
      Buf.pop_front();
      if (!WaitingSend.empty()) {
        PendingSend P = WaitingSend.front();
        WaitingSend.pop_front();
        Buf.push_back(P.V);
        R.WakeSender = true;
        R.WokenSender = P.Tid;
      }
      return R;
    }
    if (!WaitingSend.empty()) { // rendezvous (Cap == 0): take directly
      PendingSend P = WaitingSend.front();
      WaitingSend.pop_front();
      return {RecvResult::Got, P.V, true, P.Tid};
    }
    return {RecvResult::MustBlock, Value(), false, 0};
  }

  void blockReceiver(Handle Tid) { WaitingRecv.push_back(Tid); }

  /// Removes \p Tid from both wait queues (its deadline fired while it was
  /// parked here, so nothing may deliver to or wake it anymore).  Returns
  /// true when found; a removed sender's undelivered value is dropped with
  /// it.
  bool removeWaiter(Handle Tid) {
    for (auto It = WaitingRecv.begin(); It != WaitingRecv.end(); ++It)
      if (*It == Tid) {
        WaitingRecv.erase(It);
        return true;
      }
    for (auto It = WaitingSend.begin(); It != WaitingSend.end(); ++It)
      if (It->Tid == Tid) {
        WaitingSend.erase(It);
        return true;
      }
    return false;
  }

  /// Drops all parked waiters (scheduler abort after an error).  Buffered
  /// values survive; values carried by aborted senders are lost with them.
  void clearWaiters() {
    WaitingRecv.clear();
    WaitingSend.clear();
  }

  void traceRoots(GCVisitor &V);

private:
  Handle Id;
  uint32_t Cap;
  bool Closed = false;
  std::deque<Value> Buf;
  std::deque<Handle> WaitingRecv;
  std::deque<PendingSend> WaitingSend;
};

} // namespace osc

#endif // OSC_SCHED_CHANNEL_H
