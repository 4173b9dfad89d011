//===----------------------------------------------------------------------===//
///
/// \file
/// Tunables for the segmented-stack control representation.
///
/// Every design choice the paper discusses is a knob here so the benchmark
/// harness can ablate them: copy bound (Fig. 3), overflow policy with
/// copy-up hysteresis (§3.2), promotion strategy (§3.3), seal displacement
/// (§3.4) and the segment cache (§3.2).
///
//===----------------------------------------------------------------------===//

#ifndef OSC_CORE_CONFIG_H
#define OSC_CORE_CONFIG_H

#include "support/Fault.h"

#include <cstdint>

namespace osc {

/// How a stack-segment overflow is handled (§3.2).
enum class OverflowPolicy : uint8_t {
  /// Overflow is an implicit call/cc: the occupied portion is sealed into a
  /// multi-shot continuation and a fresh segment is allocated.  Returning
  /// through the seal copies frames back (bounded by the copy bound).
  MultiShot,
  /// Overflow is an implicit call/1cc: the whole segment is encapsulated in
  /// a one-shot continuation, with the top OverflowCopyUpFrames frames
  /// copied into the new segment for hysteresis.  Returning through the
  /// seal reinstates the old segment with zero copying.
  OneShot,
};

/// How one-shot continuations are promoted when a multi-shot continuation
/// captures them (§3.3).
enum class PromotionStrategy : uint8_t {
  /// Walk the chain, promoting each one-shot until a multi-shot is found.
  /// Amortized fine (each one-shot promoted at most once) but individual
  /// call/cc operations have no hard bound.
  Linear,
  /// The paper's proposed O(1) scheme: all one-shots in a chain share a
  /// boxed flag; setting it promotes them all simultaneously.
  SharedFlag,
};

struct Config {
  /// Default stack segment size in slots (the paper's default stack is
  /// 16KB; with 8-byte slots that is 2048 words).
  uint32_t SegmentWords = 2048;
  /// The initial segment is made large to reduce overflow frequency for
  /// deeply recursive programs and programs creating many continuations.
  uint32_t InitialSegmentWords = 16384;
  /// Upper bound on the words copied by one multi-shot reinstatement;
  /// larger saved segments are split first (Fig. 3).
  uint32_t CopyBoundWords = 512;
  OverflowPolicy Overflow = OverflowPolicy::OneShot;
  /// Frames copied into the fresh segment on one-shot overflow so that an
  /// immediate return does not bounce straight back into another overflow.
  uint32_t OverflowCopyUpFrames = 8;
  PromotionStrategy Promotion = PromotionStrategy::Linear;
  /// When nonzero, call/1cc seals the current segment this many slots above
  /// the occupied portion and keeps using the remainder, bounding the free
  /// space a dormant one-shot continuation pins (§3.4).  Zero disables.
  uint32_t SealDisplacementWords = 0;
  /// The stack-segment free-list cache (§3.2).  Disabling it makes
  /// call/1cc-heavy programs "unacceptably slow" per the paper; the
  /// ablation benchmark quantifies that.
  bool SegmentCacheEnabled = true;
  /// GC trigger: bytes allocated since the last collection.
  uint64_t GcThresholdBytes = 8u << 20;
  /// How long the scheduler waits in one poll(2) call when every runnable
  /// thread is parked on I/O before declaring the run wedged.  External
  /// peers (loopback clients) are real wall-clock actors, so unlike
  /// channel-only deadlock this cannot be decided structurally.
  int IoPollTimeoutMs = 10000;
  /// Wall milliseconds per *virtual poll tick*, the deadline wheel's clock.
  /// Deadlines are stored in ticks (ms / PollTickMs, min 1) and the tick
  /// counter advances once per reactor poll batch, so traces that include
  /// timeouts stay deterministic: the tick at which a deadline fires is a
  /// function of the poll sequence, never of wall time.
  int PollTickMs = 5;
  /// Hard cap in bytes on a port's buffered-but-unsent output.  A client
  /// that stops reading cannot pin unbounded memory: once the cap would be
  /// exceeded the connection is dropped (io-drop trace, ConnsReaped).
  /// Zero disables the cap.
  uint32_t MaxOutputBufferBytes = 1u << 20;
  /// When false, the scheduler's context-switch captures use multi-shot
  /// continuations (capture is still cheap; every *reinstatement* copies
  /// the suspended stack back word by word).  This is the call/cc baseline
  /// of Serve.MultiShotBaselineCopiesOnEveryPark and bench_regex's
  /// stream-copying-shim column — the paper's Figure 5 comparison applied
  /// to parking.  Leave true for the real system.
  bool SchedOneShotSwitch = true;
  /// When true (and the compiler supports computed goto) the VM dispatch
  /// loop is token-threaded: one indirect branch per handler instead of
  /// one shared switch branch.  Semantically invisible — the differential
  /// oracle runs both modes byte-identically — so leave true except when
  /// ablating dispatch cost (bench_dispatch's switch columns).
  bool ThreadedDispatch = true;
  /// Bitmask of peephole fusion rules (FuseRule in compiler/Bytecode.h).
  /// Each enabled bit lets the compiler fuse one high-frequency opcode
  /// pair into a superinstruction.  The emitted bytecode is a function of
  /// this mask; execution semantics never are.
  uint32_t Superinstructions = 0xfffu; // FuseAll
  /// Monomorphic inline caches for global references (per-site resolved
  /// cell, invalidated by a generation counter on any global definition)
  /// and closure-call sites (last callee + precomputed frame need,
  /// invalidated by GC).  Toggles runtime behavior only: cache-index
  /// operands are always present in the bytecode.
  bool InlineCaches = true;
  /// When false, delimited capture (shift) uses multi-shot captures and the
  /// slice cut deep-clones every chain member instead of relinking one-shot
  /// views in place — the copying shim bench_control compares against to
  /// assert the zero-copy steady state.  Leave true for the real system.
  bool DelimOneShot = true;
  /// Capacity (in records) of the VM's event tracer (support/Trace.h).
  /// The buffer is allocated once at VM construction; recording is off
  /// until trace-start! / Trace::start.
  uint32_t TraceBufferEvents = 1u << 16;
  /// Deterministic fault-injection schedule (support/Fault.h), honored by
  /// Heap (forced GCs), ControlStack (failed segment allocations) and the
  /// VM (forced timer expiries).  Disarmed by default.
  FaultPlan Faults;
};

} // namespace osc

#endif // OSC_CORE_CONFIG_H
