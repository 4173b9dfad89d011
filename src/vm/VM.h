//===----------------------------------------------------------------------===//
///
/// \file
/// The bytecode interpreter over the segmented control stack.
///
/// The VM executes frames on a ControlStack window exactly per the paper's
/// model: a frame-pointer register, no stack pointer beyond the watermark,
/// frame-size words read from the code stream, underflow markers at segment
/// bases.  call/cc, call/1cc, call-with-values, values and apply are
/// control-manipulating operations handled in the dispatch loop; everything
/// else is an ordinary native.
///
//===----------------------------------------------------------------------===//

#ifndef OSC_VM_VM_H
#define OSC_VM_VM_H

#include "control/Prompt.h"
#include "core/Config.h"
#include "core/ControlStack.h"
#include "object/Heap.h"
#include "object/Objects.h"
#include "support/Error.h"
#include "support/Fault.h"
#include "support/HandleTable.h"
#include "support/Stats.h"
#include "support/Trace.h"

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace osc {

class Scheduler;
struct SchedContext;
enum class ThreadState : uint8_t;
class Reactor;
class Port;
struct PendingIo;
class ConnQueue;

/// One row of a native-procedure registration table (see
/// VM::defineNatives): collapses the per-primitive defineNative
/// boilerplate into data.
struct NativeDef {
  const char *Name;
  NativeFn Fn;
  uint16_t MinArgs;
  int16_t MaxArgs; ///< -1 for variadic.
  NativeSpecial Special = NativeSpecial::None;
};

class VM : public RootProvider {
public:
  VM(Heap &H, Stats &S, const Config &Cfg);
  ~VM() override;
  VM(const VM &) = delete;
  VM &operator=(const VM &) = delete;

  struct RunResult {
    bool Ok = false;
    Value Val;
    std::string Error;
    /// Which layer rejected the work (support/Error.h); None when Ok.
    ErrorKind Kind = ErrorKind::None;
    /// On error: innermost-first procedure names, reconstructed by walking
    /// the frames of the current window and the continuation chain using
    /// the frame-size words (§3.1 — the same mechanism exception handlers
    /// and debuggers use in the paper's system).
    std::vector<std::string> Backtrace;
  };

  /// Runs a compiled zero-argument top-level code object to completion
  /// (the halt continuation) or error.
  RunResult run(Code *Toplevel);

  // --- Services for natives -------------------------------------------------

  Heap &heap() { return H; }
  Stats &stats() { return S; }
  ControlStack &control() { return CS; }
  const Config &config() const { return Cfg; }
  /// The VM's event tracer (support/Trace.h).  Owned here; the control
  /// stack, heap and scheduler emit into it through pointers installed at
  /// construction.  Off until start()/trace-start!.
  Trace &trace() { return Tr; }
  /// The live fault-injection schedule (support/Fault.h).  Mutable so tests
  /// can arm faults after construction (e.g. relative to the segment
  /// allocations the prelude already performed); the preemption schedule is
  /// consumed per run.
  FaultPlan &faults() { return Cfg.Faults; }

  /// Records a runtime error; the interpreter loop aborts at the next
  /// check.  Returns unspecified so natives can `return Vm.fail(...)`.
  Value fail(const std::string &Msg);
  /// Same, with an explicit classification (the no-kind overload records
  /// ErrorKind::Runtime).  First error wins, kind included.
  Value fail(const std::string &Msg, ErrorKind Kind);
  bool failed() const { return Failed; }

  /// Writes \p S to the program's output: the capture buffer when capture
  /// is enabled, stdout otherwise.  Used by display/write/newline.
  void writeOutput(std::string_view S);
  /// Redirects display/write/newline into an internal buffer.
  void captureOutput(bool Enable) {
    Capturing = Enable;
    if (!Enable)
      OutBuffer.clear();
  }
  /// Returns and clears the captured output.
  std::string takeOutput() {
    std::string S = std::move(OutBuffer);
    OutBuffer.clear();
    return S;
  }

  // --- Engine timer (extension; engines are the thread substrate the
  // paper cites [9,15]) ------------------------------------------------------
  //
  // The timer decrements once per procedure call.  When it reaches zero
  // the VM, at the next Return, captures the rest of the computation as a
  // one-shot continuation and calls the handler with (k v): invoking
  // (k v) resumes the preempted computation returning v.

  /// Arms the timer: \p Ticks procedure calls, then \p Handler fires.
  void setTimer(int64_t Ticks, Value Handler) {
    Fuel = Ticks;
    TimerHandler = Handler;
  }
  /// Disarms the timer; returns the unconsumed ticks.
  int64_t stopTimer() {
    int64_t Left = Fuel > 0 ? Fuel : 0;
    Fuel = -1;
    TimerExpired = false;
    return Left;
  }
  int64_t remainingFuel() const { return Fuel; }

  // --- Green-thread scheduler (src/sched) ------------------------------------
  //
  // The scheduler generalizes the engine timer into a full preemptive
  // round-robin thread system: the same timer drives involuntary switches,
  // but instead of calling a Scheme handler the VM itself captures the
  // running thread with captureOneShot and reinstates the next one — a
  // steady-state context switch copies zero stack words.  The Scheduler
  // object holds policy (queues, thread table, channels); all control
  // transfers happen here in the VM.

  Scheduler &scheduler() { return *Sched; }

  /// (%spawn thunk): creates the green thread and, when the spawner holds
  /// an open nursery, records the child in it and arranges for the child
  /// to inherit it (structured concurrency at spawn time, in one native
  /// call).  Returns the thread's handle as a fixnum.  A \p Detached
  /// thread (spawn-detached) cannot be joined; its record is freed when it
  /// finishes or is cancelled, and its handle then reads as done.
  Value spawnThread(Value Thunk, bool Detached = false);

  /// (%thread-cancel! tid): deadline-style poisoning of a parked/ready
  /// green thread — marks its one-shot resume point shot (never
  /// reinstated; zero words copied), removes it from every wait structure
  /// (ready queue, sleepers, channels, reactor) and retires it as Done
  /// with the 'cancelled symbol, waking joiners.  #t if the thread was
  /// retired, #f if it was already done (or freed) or is the running
  /// thread.  The nursery layer (prelude) drives this for scope teardown;
  /// public so the plain %thread-cancel! native can reach it.
  Value threadCancel(Value TidV);

  // --- I/O reactor (src/io) --------------------------------------------------
  //
  // io-read-line / io-write / io-accept on a fd that is not ready park the
  // running green thread exactly like a channel block: a one-shot capture,
  // a PendingIo registered with the reactor, and a zero-copy reinstatement
  // when poll(2) reports readiness.  Performed by the main computation
  // (outside scheduler-run) the same operations block inline instead.

  Reactor &reactor() { return *Rx; }
  /// Attaches the serving pool's fd handoff queue (never owned; null
  /// detaches) and wires the reactor's cross-thread wakeup to a
  /// *host-owned* pipe (see Reactor::enableWakeupFrom), so notify() can
  /// interrupt a poll.  io-take-conn pulls from this queue.  The pool
  /// allocates one pipe per shard and re-attaches it across worker
  /// restarts, so the acceptor's notify fd never dangles when a crashed
  /// worker's reactor is torn down.  Returns false and sets \p Err when
  /// the pipe cannot be dup'd.
  bool attachConnQueue(ConnQueue *Q, int WakeReadFd, int WakeWriteFd,
                       std::string &Err);
  ConnQueue *connQueue() { return ConnQ; }
  /// The interned EOF sentinel (what io-read-line yields at end of stream
  /// and channel-recv yields on a closed empty channel).
  Value eofObject() const { return EofObj; }
  /// The interned timeout sentinel (what with-deadline yields when its
  /// extent expired; unreadable like the EOF object, so unforgeable).
  Value timeoutObject() const { return TimeoutObj; }

  // --- Deadline wheel (overload protection) ----------------------------------
  //
  // (with-deadline ms thunk) is pure prelude Scheme: call/1cc captures the
  // extent's escape k, and dynamic-wind brackets the thunk with
  // %deadline-push / %deadline-pop so the armed record stays balanced
  // under any escape.  The record lives on the current green thread;
  // when the thread parks, the earliest armed record's tick rides on the
  // reactor waiter (or on an fd-less Timer waiter for channel blocks),
  // and expiry poisons the parked one-shot and runs the escape thunk on a
  // fresh chain — delivery is one markShot plus one one-shot invoke of k,
  // zero words copied.

  /// Converts wall milliseconds to virtual poll ticks (>= 1).
  uint64_t msToTicks(int64_t Ms) const;
  /// Arms a deadline record on the current thread: in \p Ms, run \p Proc.
  /// Returns the record's fixnum id.  Outside a scheduler thread the
  /// record is not armed (deadlines fire at reactor poll points, which
  /// the main computation never reaches) — a fresh id is still returned
  /// so push/pop stay balanced.
  Value deadlinePush(Value MsV, Value Proc);
  /// Disarms the record with id \p IdV if still armed (#t/#f).
  Value deadlinePop(Value IdV);
  /// Wakes every thread parked on \p P (readers/acceptors complete with the
  /// buffered tail or EOF; writers get a trappable error), then closes it.
  void ioClosePort(Port *P);

  /// Binds \p Name's global to \p V.
  void defineGlobal(std::string_view Name, Value V);
  /// Registers a native procedure under \p Name.
  void defineNative(std::string_view Name, NativeFn Fn, uint16_t MinArgs,
                    int16_t MaxArgs,
                    NativeSpecial Special = NativeSpecial::None);
  /// Registers a whole table of natives at once.
  void defineNatives(std::span<const NativeDef> Defs);

  // RootProvider:
  void traceRoots(GCVisitor &V) override;

private:
  /// How a procedure is being entered.  Continuation receivers are entered
  /// by first planting a fresh base frame and then using Tail (reusing it).
  enum class SiteKind : uint8_t {
    NonTail, ///< From Call; D identifies the caller frame extent.
    Tail,    ///< From TailCall; the current frame is reused.
  };
  struct Site {
    SiteKind Kind;
    uint32_t D = 0;
  };

  /// The dispatch loop body of run(); throws SegmentAllocFault out to run()
  /// when FaultPlan::FailSegmentAlloc fires inside the control stack.
  /// Selects one of the two loop instantiations below by
  /// Config::ThreadedDispatch; both are generated from VMDispatch.inc and
  /// execute byte-identically (same instruction boundaries, same fault
  /// points, same Stats::Instructions), differing only in dispatch
  /// mechanics.
  void interpLoop();
  /// Portable `switch` dispatch: one indirect branch shared by every
  /// opcode.  The differential-oracle baseline.
  void interpLoopSwitch();
  /// Computed-goto (direct-threaded) dispatch: a label table indexed by
  /// opcode, one indirect branch *per handler* so the branch predictor
  /// learns per-opcode successor distributions (the MoarVM/interp.c
  /// idiom).  Falls back to the switch loop where the GNU labels-as-values
  /// extension is unavailable.
  void interpLoopThreaded();
  /// \p ArityChecked is set by the call-site inline-cache hit path: a hit
  /// proves the same closure was entered from this site with the same
  /// static argument count before, so the arity re-check is skipped.
  bool enterClosure(Closure *Cl, uint32_t NArgs, bool ArityChecked = false);
  /// Builds a frame for \p Site and enters \p Callee with \p Args.  The
  /// general path used for special natives, apply spreading, continuation
  /// receivers and cwv; the hot paths in the loop bypass it.
  void enterCall(Value Callee, std::vector<Value> Args, Site S);
  void invokeContinuationWithValues(Continuation *K,
                                    const std::vector<Value> &Vals);
  /// Returns the current values to the current frame's return address;
  /// handles underflow.  Sets Halted/FinalValue at the halt continuation.
  void returnValues();
  void captureAndCall(bool OneShot, Value Receiver, Site S);
  void doCallWithValues(Value Producer, Value Consumer, Site S);

  // Delimited control (VM.cpp, "Delimited control" section; src/control
  // holds the chain-surgery half).  All three run in the dispatch loop.
  /// (%reset tag thunk): capture one-shot at \p S (the Mark), push a
  /// PromptRecord, and call \p Thunk on a fresh base with a prompt stub
  /// frame (return point PromptStub@1) carrying the record id.
  void doReset(Value Tag, Value Thunk, Site S);
  /// (%shift tag receiver): cut the slice up to the innermost live prompt
  /// for \p Tag, abort to its Mark, and call \p Receiver with the packaged
  /// slice on a fresh stub frame for the same record.
  void doShift(Value Tag, Value Receiver, Site S);
  /// (%delim-invoke dk v): capture one-shot at \p S, splice \p Dk's slice
  /// in front of it (re-pushing the prompt records the slice carries), and
  /// resume the slice top with \p V.
  void doDelimInvoke(Value Dk, Value V, Site S);
  /// Plants a prompt stub frame (base frame + PromptStub@1 return point +
  /// the record id in FramePromptId) and enters \p Callee on top of it.
  void enterWithPromptStub(uint64_t Id, Value Callee,
                           std::vector<Value> Args);
  /// Packs a cut slice into the opaque delimited-continuation vector
  /// %shift/%perform hand their receivers (layout: DelimKSlot in VM.cpp).
  /// Remaps \p Saved records' Marks onto deep clones first.
  /// \p RepushHandler is what the splice re-pushes as the record's handler:
  /// the record's own for shift and deep handlers, Empty for a perform on a
  /// shallow handler (the resumed slice loses that handler).
  Vector *packDelimK(const PromptRecord &R, const DelimSlice &Slice,
                     std::vector<PromptRecord> &Saved, Value RepushHandler);

  // Effect handlers (same section of VM.cpp; the veneer over the prompt
  // machinery above).  Both run in the dispatch loop.
  /// (%with-handler tag handler thunk shallow): doReset, except the record
  /// carries \p Handler (and the shallow-mode flag) so perform can find it.
  void doWithHandler(Value Tag, Value Handler, Value Thunk, Value Shallow,
                     Site S);
  /// (%perform tag receiver): cut the slice up to the innermost live
  /// *handler* record for \p Tag, pop that record (the handler runs
  /// outside its own delimiter), abort to its Mark, and call \p Receiver
  /// with the record's handler, the packaged slice and the reset-entry
  /// winders on a fresh plain base frame — its normal return IS the
  /// with-handler form's return.
  void doPerform(Value Tag, Value Receiver, Site S);

  // Scheduler glue (VM.cpp, "Green-thread scheduler" section).  The Site
  // identifies the suspended operation's resume point, exactly as for
  // call/1cc.
  /// Computes the capture point of the pending call at \p S (shared with
  /// captureAndCall).
  void siteCapturePoint(Site S, uint32_t &Boundary, Value &RetCode,
                        int64_t &RetPc);
  /// Captures the rest of the current computation as a one-shot
  /// continuation, as if the call at \p S were a call/1cc.
  Value captureSiteOneShot(Site S);
  /// The capture every scheduler context switch uses: one-shot normally,
  /// multi-shot under the Config::SchedOneShotSwitch=false baseline shim
  /// (whose reinstatements then copy the suspended frames back).
  Value schedCapture(uint32_t Boundary, Value RetCode, int64_t RetPc);
  /// Returns \p V from the native call at \p S without a context switch.
  void nativeReturn(Value V, Site S);
  void schedSaveContext(SchedContext &C);
  void schedRestoreContext(const SchedContext &C, bool FreshSlice);
  /// Parks the running thread and transfers control to whatever the
  /// scheduler picks next.
  void schedSuspendAndDispatch(Value K, Value Wake, ThreadState NewState);
  void schedDispatch();
  void schedRun(Value IntervalV, Site S);
  void schedYield(Site S);
  void schedExit(Value V);
  void schedJoin(Value TidV, Site S);
  void schedSleep(Value TicksV, Site S);
  void chanSend(Value ChV, Value V, Site S);
  void chanRecv(Value ChV, Site S);

  // Reactor glue (VM.cpp, "I/O reactor" section).
  void ioReadLine(Value PortV, Site S);
  void ioWrite(Value PortV, Value StrV, Site S);
  void ioAccept(Value PortV, Site S);
  void ioTakeConn(Site S);
  /// io-close: flushes queued output first, parking while it would block.
  void ioClose(Value PortV, Site S);
  /// The write side's flush point: writes out every port with queued
  /// output, one write(2) each.  A port whose socket is full gets a
  /// thread-less Flush waiter; one whose write fails is reaped.
  void ioFlushUnsent();
  /// One flushOutput on behalf of no particular writer.  False when the
  /// socket is full and output stays queued; a failed write reaps the
  /// port (io-drop reason 2) and counts as done.
  bool ioFlush(Port *P);
  /// Finishes every Flush waiter inline, as a main-computation write
  /// would; false (after VM::fail) on poll timeout.
  bool ioFlushBlocking();
  /// Pops one handed-off fd if available: adopts it into the port table
  /// and returns the new port id as a fixnum; EOF object when the queue is
  /// closed and drained; Empty when it is merely empty (caller parks).
  Value ioTryTakeConn();
  /// Parks the current thread on (\p P, \p Op): registers the waiter,
  /// captures the continuation at \p S one-shot and dispatches away.
  void ioPark(Port *P, int OpRaw, Site S);
  /// Retries the non-blocking half of a parked operation whose fd became
  /// ready; wakes the thread with the result, or re-parks.  Returns true
  /// when a thread was woken (or poisoned with a pending error).
  bool ioComplete(const PendingIo &P);
  /// Handles a waiter whose deadline expired: fires the innermost armed
  /// with-deadline record (escape delivery), or drops a port whose own
  /// deadline lapsed, or poisons the thread with ErrorKind::Timeout.
  /// Returns true when a thread was woken.
  bool ioExpire(const PendingIo &P);
  /// The armed tick of the current thread's earliest deadline record
  /// (0 = none armed).
  uint64_t currentDeadlineTick();
  /// Registers an fd-less Timer waiter for the current thread's earliest
  /// deadline record, if any — called just before a channel block parks.
  void armBlockTimer();
  /// Escape-or-poison delivery for thread \p Tid whose wait expired.
  bool fireThreadDeadline(Handle Tid, Handle PortId, int OpRaw);
  /// Overload defense: drops \p P (trace io-drop with \p Reason, count it
  /// reaped+closed, wake its waiters against the closed fd).  Reasons:
  /// 0 output cap, 1 port deadline, 2 peer reset or failed flush, 3 a line
  /// longer than Port::MaxLineBytes.
  void ioDropPort(Port *P, uint64_t Reason);
  /// Runs the reactor until at least one parked thread wakes; false on
  /// poll timeout.  The wall budget spans poll batches: with deadlines
  /// armed each batch is clamped to one tick, and ticking continues until
  /// a wake or \p TimeoutMs of wall time elapses.
  bool ioPollAndWake(int TimeoutMs);
  /// abortRun plus dropping the reactor's waiters (their threads are gone).
  void abortScheduler();
  uint32_t calleeNeed(Value Callee, uint32_t NArgs) const;
  /// Walks the logical stack innermost-first: current window frames, then
  /// each continuation in the chain, bounded by \p MaxFrames.
  std::vector<std::string> captureBacktrace(unsigned MaxFrames = 32) const;
  uint32_t buildFrame(Site S, const Value *Args, uint32_t NArgs,
                      uint32_t Need);
  void setValues(const Value *Vals, uint32_t N);
  void collectValues(std::vector<Value> &Out) const;

  Heap &H;
  Stats &S;
  Config Cfg;
  Trace Tr; ///< Before CS: hooks are installed right after CS constructs.
  ControlStack CS;

  // Registers.
  Value Acc;
  Value CurCodeVal;
  Code *Cur = nullptr;
  int64_t Pc = 0;
  uint32_t NumValues = 1;
  std::vector<Value> MultiVals;

  bool Failed = false;
  std::string ErrMsg;
  ErrorKind ErrKind = ErrorKind::None;
  bool Halted = false;
  Value FinalValue;

  /// Global-binding generation: bumped by every *definition* (DefGlobal,
  /// defineGlobal, defineNative) but not by set!.  A global-site inline
  /// cache filled under one generation is invalidated by the next
  /// definition; starts at 1 so a zeroed CacheSlot (Gen 0) never hits.
  uint64_t GlobalGen = 1;

  // Engine timer state.
  int64_t Fuel = -1;        ///< Ticks left; -1 when disarmed.
  bool TimerExpired = false; ///< Set at 0; serviced at the next Return.
  Value TimerHandler;

  // Fault-plan preemption schedule (Cfg.Faults.PreemptAtCalls): the call
  // ordinal within the current run and the next schedule entry to fire.
  // Both reset at each run().
  uint64_t PreemptTick = 0;
  size_t PreemptCursor = 0;

  bool Capturing = false;
  std::string OutBuffer;

  Value CwvStub; ///< Code object whose pc=1 is the cwv resume point.
  Value PromptStub; ///< Code object whose pc=1 is the prompt-pop resume
                    ///< point (the return address of every prompt stub
                    ///< frame planted by doReset/doShift).

  // Delimited-control state (src/control).  The live table belongs to the
  // running green thread; schedSave/RestoreContext swap it with the
  // thread's SchedContext exactly like *winders*.
  PromptTable Prompts;
  uint64_t NextPromptId = 0;

  // Scheduler state.
  std::unique_ptr<Scheduler> Sched;
  Value ThreadGuard; ///< Shared shot continuation marking thread-chain
                     ///< roots: a fresh thread's base frame links here, so
                     ///< an underflow (or base-frame capture) that reaches
                     ///< it is recognized as thread exit.
  Symbol *WindersSym = nullptr; ///< Interned *winders*, swapped per thread.
  Symbol *NurserySym = nullptr; ///< Interned *nursery*, swapped per thread
                                ///< (the prelude's current-nursery pointer
                                ///< is dynamic state like *winders*).

  // I/O reactor state.
  std::unique_ptr<Reactor> Rx;
  Value EofObj; ///< Interned "#<eof>" symbol (unreadable, so unforgeable).
  ConnQueue *ConnQ = nullptr; ///< Pool fd handoff queue; never owned.

  // Deadline wheel state.
  Value TimeoutObj; ///< Interned "#<timeout>" symbol (unforgeable).
  uint64_t NextDeadlineId = 0; ///< Handle source for %deadline-push.
};

/// Installs the standard primitive library into \p Vm (Primitives.cpp).
void installPrimitives(VM &Vm);

/// Installs the regex subsystem's natives (RegexPrims.cpp); called by
/// installPrimitives.
void installRegexPrimitives(VM &Vm);

/// Source text of the Scheme prelude (Prelude.cpp): list utilities,
/// dynamic-wind, the call/cc and call/1cc wrappers, derived procedures.
const char *preludeSource();

} // namespace osc

#endif // OSC_VM_VM_H
