//===----------------------------------------------------------------------===//
///
/// \file
/// Lock-free cross-thread connection handoff queue for the serving pool
/// (src/serve).
///
/// Producers (any host thread calling Pool::handoff) push connected fds;
/// exactly one consumer — the worker VM's `io-take-conn` primitive — pops
/// them.  The queue is an MPSC Treiber stack with consumer-side batch
/// reversal: push is one compare-exchange on the head pointer, pop swaps
/// the whole pending chain out with a single exchange and drains it in
/// FIFO order from a consumer-private buffer.  No mutex anywhere, so a
/// producer never blocks behind a shard and a shard never blocks behind a
/// producer; per-request park/wake traffic stays entirely on the worker's
/// own thread.
///
/// Close semantics mirror Channel's channel-close!: after close() no new
/// fd is accepted, but fds already queued drain first; pop() reports
/// Closed only once both the shared chain and the consumer buffer are
/// empty.  Fds still queued at destruction are close(2)d — the queue
/// owns an fd from push() until pop() hands it over.
///
//===----------------------------------------------------------------------===//

#ifndef OSC_IO_CONNQUEUE_H
#define OSC_IO_CONNQUEUE_H

#include <atomic>
#include <cstddef>
#include <vector>

namespace osc {

class ConnQueue {
public:
  /// Outcome of one pop attempt.
  struct Pop {
    int Fd = -1;         ///< Valid (>= 0) when a connection was dequeued.
    bool Closed = false; ///< Queue closed *and* drained; no more ever.
  };

  ConnQueue() = default;
  ~ConnQueue();
  ConnQueue(const ConnQueue &) = delete;
  ConnQueue &operator=(const ConnQueue &) = delete;

  /// Enqueues a connection fd.  Any thread.  Returns false (without
  /// taking ownership) when the queue is already closed.
  bool push(int Fd);

  /// Dequeues the oldest connection if any; otherwise reports whether the
  /// queue is closed-and-drained ({-1, true}) or merely empty ({-1, false}).
  /// Single consumer: only the owning worker thread may call this.
  Pop pop();

  /// Stops accepting new fds.  Queued fds still drain via pop().
  void close() { IsClosed.store(true, std::memory_order_release); }

  bool closed() const { return IsClosed.load(std::memory_order_acquire); }

  /// Approximate depth (pushes minus pops), readable from any thread —
  /// the acceptor's load signal.  Transient staleness only ever costs a
  /// slightly imperfect placement.
  size_t size() const { return Count.load(std::memory_order_relaxed); }

private:
  struct Node {
    Node *Next = nullptr;
    int Fd = -1;
  };

  std::atomic<Node *> Head{nullptr}; ///< LIFO chain of un-drained pushes.
  std::atomic<bool> IsClosed{false};
  std::atomic<size_t> Count{0};
  std::vector<int> Drained; ///< Consumer-private FIFO buffer (oldest last).
};

} // namespace osc

#endif // OSC_IO_CONNQUEUE_H
