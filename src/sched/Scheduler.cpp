#include "sched/Scheduler.h"

#include "object/Heap.h"

#include <algorithm>
#include <cassert>

using namespace osc;

const char *osc::threadStateName(ThreadState St) {
  switch (St) {
  case ThreadState::Ready:
    return "ready";
  case ThreadState::Running:
    return "running";
  case ThreadState::Blocked:
    return "blocked";
  case ThreadState::Sleeping:
    return "sleeping";
  case ThreadState::Done:
    return "done";
  }
  return "?";
}

Handle Scheduler::spawn(Value Thunk, bool Detached) {
  Thread &T = Threads.emplace();
  T.Thunk = Thunk;
  T.Detached = Detached;
  Live += 1;
  S.ThreadsSpawned += 1;
  S.ThreadSlotPeak =
      std::max<uint64_t>(S.ThreadSlotPeak, Threads.slotCount());
  enqueueReady(T);
  return T.Id;
}

uint32_t Scheduler::blockedCount() const {
  uint32_t N = 0;
  Threads.forEach([&N](const Thread &T) {
    if (T.State == ThreadState::Blocked)
      N += 1;
  });
  return N;
}

void Scheduler::beginRun(Value MainContinuation, int64_t PreemptInterval,
                         Value BaseW) {
  assert(!Active && "scheduler re-entered");
  Active = true;
  CurrentId = -1;
  Interval = PreemptInterval;
  CompletedThisRun = 0;
  MainK = MainContinuation;
  BaseWinders = BaseW;
}

void Scheduler::endRun() {
  Active = false;
  CurrentId = -1;
  MainK = Value();
  BaseWinders = Value();
  MainCtx = SchedContext();
}

void Scheduler::abortRun() {
  // Every thread that has not finished is in an unrecoverable state (its
  // one-shot resume point may be gone); drop them all rather than resume
  // into garbage.  Done threads keep their results for thread-join; the
  // detached ones have no result to keep and are freed.
  std::vector<Handle> Detached;
  Threads.forEach([&Detached](Thread &T) {
    if (T.Detached)
      Detached.push_back(T.Id);
    if (T.State == ThreadState::Done)
      return;
    T.State = ThreadState::Done;
    T.Started = true;
    T.Thunk = Value();
    T.Resume = Value();
    T.Wake = Value();
    T.Result = Value::unspecified();
    T.Ctx = SchedContext();
    T.Joiners.clear();
    T.PendingError.clear();
    T.PendingErrorKind = ErrorKind::Runtime;
    T.Deadlines.clear();
    T.EscapeProc = Value();
  });
  for (Handle H : Detached)
    Threads.free(H);
  Live = 0;
  ReadyQ.clear();
  Sleepers.clear();
  Channels.forEach([](Channel &C) { C.clearWaiters(); });
  endRun();
}

void Scheduler::enqueueReady(Thread &T) {
  T.State = ThreadState::Ready;
  ReadyQ.push_back(T.Id);
  S.RunQueuePeak = std::max<uint64_t>(S.RunQueuePeak, ReadyQ.size());
}

void Scheduler::suspendCurrent(Value K, Value Wake, ThreadState NewState) {
  Thread *T = current();
  assert(T && T->State == ThreadState::Running && "no running thread");
  T->Resume = K;
  T->Wake = Wake;
  CurrentId = -1;
  OSC_TRACE(Tr, TraceEvent::SchedBlock, static_cast<uint64_t>(NewState),
            T->Id);
  switch (NewState) {
  case ThreadState::Ready:
    enqueueReady(*T);
    break;
  case ThreadState::Sleeping:
    T->State = ThreadState::Sleeping;
    Sleepers.push_back(T->Id);
    break;
  case ThreadState::Blocked:
    T->State = ThreadState::Blocked;
    break;
  default:
    assert(false && "invalid suspension state");
  }
}

void Scheduler::wake(Thread &T, Value WakeValue) {
  assert((T.State == ThreadState::Blocked ||
          T.State == ThreadState::Sleeping) &&
         "waking a thread that is not waiting");
  if (T.State == ThreadState::Sleeping)
    Sleepers.erase(std::find(Sleepers.begin(), Sleepers.end(), T.Id));
  T.Wake = WakeValue;
  OSC_TRACE(Tr, TraceEvent::SchedWake, T.Id);
  enqueueReady(T);
}

void Scheduler::finishCurrent(Value Result) {
  Thread *T = current();
  assert(T && "no current thread to finish");
  CurrentId = -1;
  retire(*T, Result);
}

bool Scheduler::cancel(Thread &T, Value Result) {
  if (T.State == ThreadState::Done || T.State == ThreadState::Running)
    return false;
  switch (T.State) {
  case ThreadState::Ready:
    // Either parked voluntarily or never started; drop its queue slot so
    // the dispatcher cannot pick the retired thread.
    ReadyQ.erase(std::find(ReadyQ.begin(), ReadyQ.end(), T.Id));
    break;
  case ThreadState::Sleeping:
    Sleepers.erase(std::find(Sleepers.begin(), Sleepers.end(), T.Id));
    break;
  case ThreadState::Blocked:
    // Tracked only by whoever would wake it; the caller already detached
    // it from channels and the reactor, so nobody holds its id now.
    break;
  default:
    break;
  }
  OSC_TRACE(Tr, TraceEvent::NurseryCancel, T.Id);
  T.Started = true;
  T.PendingError.clear();
  T.PendingErrorKind = ErrorKind::Runtime;
  S.NurseryCancels += 1;
  // The one-shot resume point is poisoned, never run; joiners observe the
  // cancellation result, exactly as for a normal exit.
  retire(T, Result);
  return true;
}

void Scheduler::retire(Thread &T, Value Result) {
  T.State = ThreadState::Done;
  T.Thunk = Value();
  T.Resume = Value();
  T.Wake = Value();
  T.Ctx = SchedContext();
  T.Result = Result;
  T.Deadlines.clear();
  T.EscapeProc = Value();
  assert(Live > 0);
  Live -= 1;
  CompletedThisRun += 1;
  for (Handle J : T.Joiners) {
    Thread *W = lookup(static_cast<int64_t>(J));
    if (W && W->State == ThreadState::Blocked)
      wake(*W, Result);
  }
  T.Joiners.clear();
  if (T.Detached) {
    T.Result = Value();
    Threads.free(T.Id);
  }
}

void Scheduler::ageSleepers(int64_t Ticks) {
  if (Sleepers.empty())
    return;
  // Expired sleepers join the run queue in handle order (spawn order until
  // a slot is reused) so wake-up order is deterministic regardless of when
  // each went to sleep.
  std::vector<Handle> Expired;
  for (size_t I = 0; I != Sleepers.size();) {
    Thread &T = *lookup(static_cast<int64_t>(Sleepers[I]));
    T.SleepLeft -= Ticks;
    if (T.SleepLeft <= 0) {
      Expired.push_back(T.Id);
      Sleepers.erase(Sleepers.begin() + static_cast<ptrdiff_t>(I));
    } else {
      ++I;
    }
  }
  std::sort(Expired.begin(), Expired.end());
  for (Handle Id : Expired) {
    Thread &T = *lookup(static_cast<int64_t>(Id));
    T.SleepLeft = 0;
    T.Wake = Value::unspecified();
    enqueueReady(T);
  }
}

Scheduler::Next Scheduler::pickNext() {
  assert(Active && CurrentId < 0 && "pickNext with a thread still running");
  // The sleep clock ticks once per dispatch; with nothing else runnable it
  // fast-forwards to the nearest wake-up instead of spinning.
  ageSleepers(1);
  if (ReadyQ.empty() && !Sleepers.empty()) {
    int64_t Nearest = lookup(static_cast<int64_t>(Sleepers.front()))->SleepLeft;
    for (Handle Id : Sleepers)
      Nearest = std::min(Nearest, lookup(static_cast<int64_t>(Id))->SleepLeft);
    ageSleepers(Nearest);
  }
  if (!ReadyQ.empty()) {
    Thread &T = *lookup(static_cast<int64_t>(ReadyQ.front()));
    ReadyQ.pop_front();
    T.State = ThreadState::Running;
    CurrentId = static_cast<int64_t>(T.Id);
    OSC_TRACE(Tr, TraceEvent::SchedSwitch, T.Started ? 1 : 0, T.Id);
    return {T.Started ? Next::Resume : Next::Start, &T};
  }
  if (Live == 0) {
    OSC_TRACE(Tr, TraceEvent::SchedSwitch, 2);
    return {Next::Finish, nullptr};
  }
  return {Next::Deadlock, nullptr};
}

Handle Scheduler::makeChannel(uint32_t Capacity) {
  return Channels.emplace(Capacity).id();
}

void Scheduler::traceRoots(GCVisitor &V) {
  // Live records only: a freed thread's slot holds nothing to trace.
  Threads.forEach([&V](Thread &T) {
    V.visit(T.Thunk);
    V.visit(T.Resume);
    V.visit(T.Wake);
    V.visit(T.Result);
    V.visit(T.Ctx.Winders);
    V.visit(T.Ctx.Nursery);
    T.Ctx.Prompts.traceRoots(V);
    V.visit(T.Ctx.TimerHandler);
    V.visit(T.EscapeProc);
    for (DeadlineRec &D : T.Deadlines)
      V.visit(D.Proc);
  });
  V.visit(MainK);
  V.visit(BaseWinders);
  V.visit(MainCtx.Winders);
  V.visit(MainCtx.Nursery);
  MainCtx.Prompts.traceRoots(V);
  V.visit(MainCtx.TimerHandler);
  Channels.forEach([&V](Channel &C) { C.traceRoots(V); });
}
