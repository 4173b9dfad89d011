//===----------------------------------------------------------------------===//
///
/// \file
/// A deterministic, fixed-capacity ring buffer of control events.
///
/// Stats (Stats.h) answers "how many"; the tracer answers "which, in what
/// order".  Every interesting transition of the control machinery — capture,
/// reinstatement, promotion, overflow, underflow, splitting, sealing, GC,
/// segment-cache drops, wind crossings, scheduler switches — can emit one
/// record: an event kind, a monotonic sequence number and up to three payload
/// words.  There are deliberately no timestamps and no addresses, so two runs
/// of the same program produce byte-identical traces; the sequence number is
/// the trace's clock.
///
/// Cost model: holders keep a `Trace *` that is usually non-null but
/// disabled; every emit site is guarded (the OSC_TRACE macro) so a disabled
/// tracer costs one predictable branch and no call.  Stats::Instructions is
/// unaffected either way — guards execute no bytecode.
///
/// The buffer is a ring, allocated by the first start(): when full, the
/// oldest records are overwritten and dropped() reports how many were lost.
/// Export formats: toString() (one "#seq name payload..." line per record)
/// and toChromeJson() (Chrome about:tracing / Perfetto instant events, with
/// the sequence number as the timestamp).
///
//===----------------------------------------------------------------------===//

#ifndef OSC_SUPPORT_TRACE_H
#define OSC_SUPPORT_TRACE_H

#include <cstdint>
#include <string>
#include <vector>

namespace osc {

/// Every event the tracer can record, grouped by the layer that emits it.
enum class TraceEvent : uint8_t {
  // Control stack (src/core).
  CaptureMulti,   ///< call/cc sealed the occupied portion. p0=boundary words.
  CaptureOneShot, ///< call/1cc encapsulated a window. p0=boundary, p1=segsize.
  CaptureEmpty,   ///< Empty-segment capture short-circuit (the link is the k).
  Seal,           ///< §3.4 displaced seal. p0=boundary, p1=displacement.
  InvokeMulti,    ///< Multi-shot reinstatement. p0=words copied.
  InvokeOneShot,  ///< One-shot reinstatement (zero copy). p0=segsize.
  Promote,        ///< Linear promotion of one one-shot. p0=its size words.
  PromoteFlag,    ///< SharedFlag promotion: the single flag write.
  Overflow,       ///< Segment overflow. p0=boundary, p1=words moved up.
  Underflow,      ///< Return past a segment base.
  Split,          ///< Copy-bound split (Fig. 3). p0=bottom words, p1=top words.

  // Heap (src/object).
  Alloc,     ///< Object allocation. p0=ObjKind, p1=bytes.
  GcStart,   ///< Collection begins. p0=bytes allocated since last GC.
  GcEnd,     ///< Collection ends. p0=live bytes, p1=freed bytes.
  CacheDrop, ///< Segment cache discarded at GC. p0=entries dropped.

  // VM (src/vm).
  CallCC,    ///< Explicit call/cc reached the capture path.
  Call1CC,   ///< Explicit call/1cc reached the capture path.
  WindEnter, ///< dynamic-wind extent entered (before-thunk completed).
  WindExit,  ///< dynamic-wind extent exited (after-thunk completed).

  // Scheduler (src/sched).
  SchedSwitch, ///< Control transfer. p0=kind (0 start, 1 resume, 2 finish),
               ///< p1=thread id (absent for finish).
  SchedBlock,  ///< Thread parked. p0=new ThreadState, p1=thread id.
  SchedWake,   ///< Blocked/sleeping thread made runnable. p0=thread id.

  // I/O reactor (src/io).  Payloads carry port ids, never raw fds — fd
  // numbers depend on what the OS recycles and would break run-to-run
  // trace equality.
  IoWait,    ///< Thread parked on fd readiness. p0=port id, p1=IoOp,
             ///< p2=thread id.
  IoReady,   ///< Parked operation completed and its thread woken.
             ///< p0=port id, p1=IoOp, p2=thread id.
  Accept,    ///< Connection accepted. p0=listener port id, p1=new port id.
  ChanClose, ///< channel-close!. p0=channel id, p1=receivers woken,
             ///< p2=senders woken.
  IoTimeout, ///< A deadline fired on a parked wait. p0=port id (0 for a
             ///< fd-less timer), p1=IoOp, p2=thread id.
  IoDrop,    ///< Connection dropped by overload defense. p0=port id,
             ///< p1=reason (0 output overflow, 1 deadline, 2 idle reap).
  Shed,      ///< Admission control refused a connection with BUSY.
             ///< p0=port id.

  // Delimited control (src/control + src/vm).
  Reset,  ///< Prompt planted. p0=record id.
  Shift,  ///< Slice cut up to the nearest matching mark. p0=record id,
          ///< p1=slice chain members, p2=members deep-cloned (0 in the
          ///< one-shot steady state: zero stack words copied).
  Splice, ///< Slice spliced back in front of the invoke-site continuation.
          ///< p0=record id, p1=slice chain members (0 for an empty slice).

  // Effect handlers + structured concurrency (src/control + src/sched).
  Handle,        ///< Handler prompt planted by with-handler. p0=record id,
                 ///< p1=1 for shallow mode, 0 for deep.
  Perform,       ///< perform cut the slice to its handler's mark and
                 ///< dispatched. p0=record id, p1=slice chain members,
                 ///< p2=members deep-cloned (0 in the one-shot steady
                 ///< state).
  NurseryCancel, ///< A nursery poisoned and retired a child green thread
                 ///< (scope exit, child failure, or connection teardown).
                 ///< p0=thread id.

  // VM dispatch (src/vm).
  Cache, ///< Inline-cache probe. p0=site kind (0 get-global, 1 set-global,
         ///< 2 call, 3 tail-call), p1=1 hit / 0 miss, p2=cache index.
         ///< Deterministic per config point, but config-dependent (off when
         ///< Config::InlineCaches is off), so trace-comparing sweeps filter
         ///< it out like heap events.
};

/// Stable, kebab-case event name ("capture-multi", "sched-switch", ...).
const char *traceEventName(TraceEvent E);

class Trace {
public:
  static constexpr uint32_t MaxPayloadWords = 3;

  struct Record {
    uint64_t Seq;     ///< Monotonic since the last clear(); 0-based.
    TraceEvent Kind;
    uint8_t NPayload; ///< How many of Payload[] are meaningful.
    uint64_t Payload[MaxPayloadWords];
  };

  explicit Trace(uint32_t CapacityEvents = 1u << 16);

  bool enabled() const { return Enabled; }
  /// Clears the buffer and starts recording.
  void start();
  void stop() { Enabled = false; }
  void clear() {
    NextSeq = 0;
  }

  /// Emit only while enabled(): the ring exists from the first start().
  void emit(TraceEvent K) { push(K, 0); }
  void emit(TraceEvent K, uint64_t A) {
    Record &R = push(K, 1);
    R.Payload[0] = A;
  }
  void emit(TraceEvent K, uint64_t A, uint64_t B) {
    Record &R = push(K, 2);
    R.Payload[0] = A;
    R.Payload[1] = B;
  }
  void emit(TraceEvent K, uint64_t A, uint64_t B, uint64_t C) {
    Record &R = push(K, 3);
    R.Payload[0] = A;
    R.Payload[1] = B;
    R.Payload[2] = C;
  }

  /// Records currently held (<= capacity).
  size_t size() const {
    return NextSeq < Cap ? static_cast<size_t>(NextSeq) : Cap;
  }
  size_t capacity() const { return Cap; }
  /// Total records emitted since the last clear (including overwritten).
  uint64_t emitted() const { return NextSeq; }
  /// Records lost to ring wraparound.
  uint64_t dropped() const { return NextSeq - size(); }

  /// Oldest-first copy of the held records.
  std::vector<Record> snapshot() const;
  /// One "#seq name payload..." line per held record, oldest first; a final
  /// "... N earlier event(s) dropped" header line when the ring wrapped.
  std::string toString() const;
  /// Chrome about:tracing / Perfetto JSON ("traceEvents" array of instant
  /// events, sequence number as timestamp).
  std::string toChromeJson() const;

private:
  Record &push(TraceEvent K, uint8_t N) {
    Record &R = Ring[static_cast<size_t>(NextSeq % Ring.size())];
    R.Seq = NextSeq++;
    R.Kind = K;
    R.NPayload = N;
    return R;
  }

  std::vector<Record> Ring; ///< Cap records once started, else empty.
  uint32_t Cap;             ///< Records the ring holds once started.
  uint64_t NextSeq = 0;
  bool Enabled = false;
};

/// Guarded emit: one branch when \p TR is null or disabled, no call.
#define OSC_TRACE(TR, ...)                                                     \
  do {                                                                         \
    ::osc::Trace *T_ = (TR);                                                   \
    if (T_ && T_->enabled())                                                   \
      T_->emit(__VA_ARGS__);                                                   \
  } while (0)

} // namespace osc

#endif // OSC_SUPPORT_TRACE_H
