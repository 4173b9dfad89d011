//===----------------------------------------------------------------------===//
///
/// \file
/// A preemptive round-robin green-thread scheduler built on one-shot
/// continuations (the paper's §4 "Multitasking" use case, made native).
///
/// This class is deliberately policy-only.  It owns the thread table, the
/// ready queue, the sleeper list and the channels, and it decides what runs
/// next — but it never touches the control stack.  The actual context
/// switches (capturing the running computation as a one-shot continuation,
/// reinstating another thread's) are performed by the VM, which calls in
/// here through a narrow interface:
///
///   VM suspends the running thread  -> suspendCurrent(...)
///   VM asks what to run next        -> pickNext()
///   VM transfers control            -> captureOneShot / invoke (src/core)
///
/// Because suspension uses captureOneShot and resumption uses the one-shot
/// invoke path, a steady-state context switch copies zero stack words: the
/// whole current window is encapsulated by pointer swap and reinstated the
/// same way.  tests/test_scheduler.cpp and bench/bench_scheduler.cpp assert
/// exactly that (WordsCopied stays flat while ContextSwitches climbs).
///
/// Each thread also carries the dynamic context that must not leak across
/// switches: the *winders* list (dynamic-wind) and the engine-timer
/// registers, mirroring what the Scheme-level %engine-timer-handler
/// documents.  Time for thread-sleep! is measured in context switches, not
/// wall clock, so every test and benchmark is deterministic.
///
//===----------------------------------------------------------------------===//

#ifndef OSC_SCHED_SCHEDULER_H
#define OSC_SCHED_SCHEDULER_H

#include "control/Prompt.h"
#include "object/Value.h"
#include "sched/Channel.h"
#include "support/Error.h"
#include "support/HandleTable.h"
#include "support/Stats.h"
#include "support/Trace.h"

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

namespace osc {

class GCVisitor;

/// The per-computation VM state a context switch must swap besides the
/// control stack itself (which travels inside the captured continuation):
/// the *winders* global and the engine-timer registers.  Saved when a
/// computation is suspended, restored verbatim when it resumes.
struct SchedContext {
  Value Winders;             ///< Value of *winders* while suspended.
  Value Nursery;             ///< Value of *nursery* while suspended (the
                             ///< enclosing structured-concurrency scope,
                             ///< or #f).  Swapped exactly like *winders*.
  PromptTable Prompts;       ///< Active delimiters while suspended.
  int64_t Fuel = -1;         ///< Engine-timer ticks left; -1 disarmed.
  bool TimerExpired = false; ///< Pending unserviced expiry.
  Value TimerHandler;        ///< Armed engine handler, or Empty.
};

enum class ThreadState : uint8_t { Ready, Running, Blocked, Sleeping, Done };

/// Human-readable state name ("ready", "running", ...).
const char *threadStateName(ThreadState St);

class Scheduler {
public:
  /// One armed (with-deadline ...) extent on a thread's dynamic chain.
  /// Records live on the thread, innermost last; they are pushed/popped by
  /// the %deadline-push / %deadline-pop primitives from with-deadline's
  /// dynamic-wind, so they stay balanced under any one-shot escape (the
  /// unwind's after-thunks pop by Id, never by position).
  struct DeadlineRec {
    uint64_t Id;   ///< Unique handle %deadline-pop removes by.
    uint64_t Tick; ///< Absolute virtual tick at which the extent expires.
    Value Proc;    ///< Escape thunk: invokes the extent's one-shot k.
  };

  struct Thread {
    explicit Thread(Handle Id) : Id(Id) {}

    Handle Id;
    ThreadState State = ThreadState::Ready;
    bool Detached = false; ///< Never joinable; the record is freed as soon
                           ///< as the thread finishes or is cancelled.
    bool Started = false; ///< False until first dispatched (Thunk not yet run).
    Value Thunk;          ///< Start thunk; cleared on first dispatch.
    Value Resume; ///< One-shot continuation while suspended.  When the
                  ///< suspension point was the thread's own base frame the
                  ///< capture degenerates to the chain link — the shared
                  ///< thread-root guard — and "resuming" means returning
                  ///< Wake from the thread's root, i.e. exiting.
    Value Wake;   ///< Value the suspended operation resumes with.
    Value Result; ///< Exit value once Done.
    SchedContext Ctx;      ///< Dynamic context saved while suspended.
    int64_t SleepLeft = 0; ///< Remaining sleep, in context switches.
    std::vector<Handle> Joiners; ///< Threads blocked in (thread-join this).
    std::string PendingError; ///< Nonempty: raise this instead of resuming
                              ///< (e.g. the channel closed under a parked
                              ///< send, or a parked write hit EPIPE).
    ErrorKind PendingErrorKind =
        ErrorKind::Runtime; ///< Classification raised with PendingError.
    std::vector<DeadlineRec> Deadlines; ///< Armed with-deadline extents,
                                        ///< innermost last.
    uint64_t ParkSeq = 0; ///< Park generation: bumped per deadline-armed
                          ///< park so a stale reactor Timer waiter (its
                          ///< thread already woke) is recognized and
                          ///< discarded instead of fired.
    Value EscapeProc;     ///< Set when a deadline fired while parked: the
                          ///< dispatcher runs this thunk on a fresh chain
                          ///< instead of reinstating the poisoned Resume.
  };

  /// What the VM should transfer control to next.
  struct Next {
    enum Kind {
      Start,    ///< Run T's thunk on a fresh chain.
      Resume,   ///< Reinstate T's saved continuation with T's wake value.
      Finish,   ///< All threads done: resume the suspended main computation.
      Deadlock, ///< Nothing runnable but live threads remain blocked.
    } K;
    Thread *T = nullptr; ///< Valid for Start and Resume.
  };

  explicit Scheduler(Stats &S) : S(S) {}

  /// Points the scheduler at an event tracer (the owning VM's); null
  /// detaches.  Never owned.
  void setTrace(Trace *T) { Tr = T; }

  // --- Spawning and lookup --------------------------------------------------

  /// Creates a Ready thread that will run \p Thunk; returns its handle.
  /// Threads may be spawned before a run or by running threads.  A
  /// \p Detached thread cannot be joined, and its record is freed the
  /// moment it finishes or is cancelled.
  Handle spawn(Value Thunk, bool Detached = false);
  /// The live thread \p Id names, or null (freed, or never a thread).
  Thread *lookup(int64_t Id) { return Threads.get(Id); }
  /// True when \p Id named a thread whose record has been freed.
  bool freed(int64_t Id) const { return Threads.stale(Id); }
  Thread *current() { return CurrentId < 0 ? nullptr : lookup(CurrentId); }
  bool inThread() const { return CurrentId >= 0; }

  bool active() const { return Active; }
  int64_t interval() const { return Interval; }
  uint64_t completed() const { return CompletedThisRun; }
  uint32_t liveCount() const { return Live; }
  uint32_t blockedCount() const;
  size_t readyCount() const { return ReadyQ.size(); }
  size_t sleeperCount() const { return Sleepers.size(); }
  Value baseWinders() const { return BaseWinders; }
  Value mainK() const { return MainK; }
  SchedContext &mainContext() { return MainCtx; }

  // --- Run lifecycle --------------------------------------------------------

  /// Enters a run: \p MainContinuation is the suspended caller of
  /// scheduler-run, \p PreemptInterval the fuel per slice (<= 0 disables
  /// preemption), \p BaseW the winder list fresh threads start under.
  void beginRun(Value MainContinuation, int64_t PreemptInterval, Value BaseW);
  /// Leaves a completed run; the main continuation must already have been
  /// taken for reinstatement.  Thread records (and their results) survive
  /// so thread-join works after the run.
  void endRun();
  /// Tears down after an error left the run half-switched: every non-Done
  /// thread is dropped and all channel wait queues cleared.  Buffered
  /// channel data survives; values carried by parked senders do not.
  void abortRun();

  // --- Switching policy (called by the VM around control transfers) --------

  /// Parks the running thread as \p NewState with resumption state
  /// (\p K, \p Wake).  Ready threads go to the back of the run queue;
  /// Sleeping threads onto the sleeper list (SleepLeft must be set by the
  /// caller); Blocked threads are tracked only by whoever will wake them.
  void suspendCurrent(Value K, Value Wake, ThreadState NewState);
  /// Makes a Blocked or Sleeping thread runnable with \p WakeValue.
  void wake(Thread &T, Value WakeValue);
  /// Marks the current thread Done with \p Result and wakes its joiners.
  /// A detached thread's record is freed: no reference to it may be used
  /// after this call.
  void finishCurrent(Value Result);
  /// Retires a *non-running* thread as Done with \p Result without ever
  /// resuming it: removes it from the ready queue or sleeper list (blocked
  /// threads are tracked only by their waker — the caller must have
  /// already detached them from channels and the reactor), drops its
  /// poisoned resume state and wakes its joiners with \p Result.  The
  /// nursery teardown path (VM::threadCancel) drives this.  Returns false
  /// when \p T is already Done or is the running thread.  Frees a
  /// detached \p T's record, as finishCurrent does.
  bool cancel(Thread &T, Value Result);
  /// Picks the next transfer and, for Start/Resume, marks that thread
  /// Running.  Each call ages sleepers by one tick; when only sleepers
  /// remain the clock fast-forwards to the nearest wake-up.
  Next pickNext();

  // --- Channels -------------------------------------------------------------

  Handle makeChannel(uint32_t Capacity);
  /// Removes \p Tid from every channel wait queue — called when a deadline
  /// fires for a channel-blocked thread, so no later send/recv/close can
  /// try to wake the already-escaped thread.  (A thread blocks on at most
  /// one channel.)
  void dropFromChannels(Handle Tid) {
    Channels.anyOf([Tid](Channel &C) { return C.removeWaiter(Tid); });
  }
  Channel *channel(int64_t Id) { return Channels.get(Id); }

  // --- GC -------------------------------------------------------------------

  /// Traced from VM::traceRoots (the scheduler is not its own provider).
  void traceRoots(GCVisitor &V);

private:
  void enqueueReady(Thread &T);
  /// Clears a retired thread's resumption state and wakes its joiners
  /// with \p Result; frees the record of a detached thread.
  void retire(Thread &T, Value Result);
  /// Ages every sleeper by \p Ticks, moving the expired to the run queue in
  /// handle order (deterministic).
  void ageSleepers(int64_t Ticks);

  Stats &S;
  Trace *Tr = nullptr;
  HandleTable<Thread> Threads;
  std::deque<Handle> ReadyQ;
  std::vector<Handle> Sleepers;
  HandleTable<Channel> Channels; ///< Never freed yet: ids stay dense.

  bool Active = false;
  int64_t CurrentId = -1; ///< Running thread's handle, -1 when main runs.
  int64_t Interval = 0;
  uint32_t Live = 0; ///< Threads not yet Done.
  uint64_t CompletedThisRun = 0;
  Value MainK;       ///< Suspended scheduler-run caller.
  Value BaseWinders; ///< Winder list fresh threads start under.
  SchedContext MainCtx;
};

} // namespace osc

#endif // OSC_SCHED_SCHEDULER_H
