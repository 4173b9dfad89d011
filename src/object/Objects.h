//===----------------------------------------------------------------------===//
///
/// \file
/// Heap object layouts.
///
/// All heap objects begin with an ObjHeader carrying the kind, the mark bit
/// for the non-moving mark-sweep collector, and an intrusive link used by
/// the sweep phase.  Variable-length objects (strings, vectors, code,
/// closures, stack segments) store their payload inline after the fixed
/// fields.
///
/// StackSegment and Continuation are the data half of the paper's
/// contribution; the operations on them live in src/core/ControlStack.h.
///
//===----------------------------------------------------------------------===//

#ifndef OSC_OBJECT_OBJECTS_H
#define OSC_OBJECT_OBJECTS_H

#include "object/Value.h"

#include <cassert>
#include <cstdint>
#include <string_view>

namespace osc {

class VM;

enum class ObjKind : uint8_t {
  Pair,
  Symbol,
  String,
  Vector,
  Cell,
  Flonum,
  Closure,
  Code,
  Native,
  Continuation,
  StackSegment,
  RegexProg,
  RegexStream,
};

/// Returns a human-readable name for \p K ("pair", "vector", ...).
const char *objKindName(ObjKind K);

/// Common header of every heap object.
struct ObjHeader {
  ObjHeader *Next = nullptr; ///< Intrusive all-objects list for sweeping.
  uint32_t SizeBytes = 0;    ///< Full allocation size, for accounting.
  ObjKind Kind;
  bool Mark = false;

  ObjKind kind() const { return Kind; }
};

/// Obtains the object header behind \p V, asserting it is of kind \p K.
template <typename T> T *castObj(Value V) {
  assert(V.isObject() && V.asObject()->Kind == T::ClassKind &&
         "value is not of the expected heap kind");
  return static_cast<T *>(V.asObject());
}

template <typename T> bool isObj(Value V) {
  return V.isObject() && V.asObject()->Kind == T::ClassKind;
}

template <typename T> T *dynObj(Value V) {
  return isObj<T>(V) ? static_cast<T *>(V.asObject()) : nullptr;
}

// --- Simple objects ---------------------------------------------------------

struct Pair : ObjHeader {
  static constexpr ObjKind ClassKind = ObjKind::Pair;
  Value Car;
  Value Cdr;
};

struct Cell : ObjHeader {
  static constexpr ObjKind ClassKind = ObjKind::Cell;
  Value Val;
};

struct Flonum : ObjHeader {
  static constexpr ObjKind ClassKind = ObjKind::Flonum;
  double D;
};

/// Interned symbol.  Carries the global (top-level) binding inline so global
/// reference is a single indirection.
struct Symbol : ObjHeader {
  static constexpr ObjKind ClassKind = ObjKind::Symbol;
  Value Global; ///< Top-level binding; Undefined until defined.
  uint32_t Len;
  char Name[1]; ///< Inline, NUL-terminated.

  std::string_view name() const { return {Name, Len}; }
};

struct String : ObjHeader {
  static constexpr ObjKind ClassKind = ObjKind::String;
  uint32_t Len;
  char Data[1]; ///< Inline, NUL-terminated.

  std::string_view view() const { return {Data, Len}; }
};

struct Vector : ObjHeader {
  static constexpr ObjKind ClassKind = ObjKind::Vector;
  uint32_t Len;
  Value Elems[1]; ///< Inline.

  Value get(uint32_t I) const {
    assert(I < Len && "vector index out of range");
    return Elems[I];
  }
  void set(uint32_t I, Value V) {
    assert(I < Len && "vector index out of range");
    Elems[I] = V;
  }
};

// --- Code and procedures -----------------------------------------------------

/// One monomorphic inline-cache slot, embedded in the Code allocation
/// right after the instruction words.  The VM fills and probes these when
/// Config::InlineCaches is on; Key == 0 means empty.  GC does NOT trace
/// cache slots — keys are weak by construction: a global-site key is the
/// Symbol already pinned by the code's constant vector, and a call-site
/// key is only trusted while Gen still equals the GC epoch it was filled
/// in (the heap is non-moving, so an address can only be recycled after a
/// collection, which bumps the epoch and invalidates the slot).
struct CacheSlot {
  uint64_t Key; ///< Cached resolution identity (Symbol* / callee bits).
  uint64_t Gen; ///< Generation the fill is valid for (global gen / GC epoch).
  uint64_t Aux; ///< Per-kind payload: the callee's frame Need for call sites.
};

/// Compiled bytecode for one lambda.
///
/// The instruction stream is a flat array of 32-bit words.  Frame-size words
/// are embedded in the stream immediately before each return point (§3.1 of
/// the paper), so a stack walker can recover the extent of the frame below a
/// return address from the address alone; see core/FrameWalk.h.
struct Code : ObjHeader {
  static constexpr ObjKind ClassKind = ObjKind::Code;
  Value Name;       ///< Symbol or #f, for diagnostics.
  Value Consts;     ///< Vector of literals/symbols referenced by index.
  uint32_t NParams; ///< Required parameter count.
  bool HasRest;     ///< Extra arguments collected into a list.
  uint32_t MaxDepth; ///< Static max words this code pushes above its frame
                     ///< base, used for the segment-overflow check.
  uint32_t NInstrs;
  uint32_t NCaches;   ///< Inline-cache slots following the instructions.
  uint32_t Instrs[1]; ///< Inline instruction words.

  /// The inline-cache slot array: after the instruction words, rounded up
  /// to CacheSlot alignment.  Heap::allocCode sizes the allocation with
  /// the same formula.
  CacheSlot *caches() {
    uintptr_t P = reinterpret_cast<uintptr_t>(Instrs + NInstrs);
    uintptr_t A = alignof(CacheSlot);
    return reinterpret_cast<CacheSlot *>((P + A - 1) & ~(A - 1));
  }

  /// The frame-size word for the call whose return point is \p RetPc: the
  /// number of words in the caller's frame below the callee's frame base.
  uint32_t frameSizeAt(int64_t RetPc) const {
    assert(RetPc >= 1 && static_cast<uint32_t>(RetPc) <= NInstrs &&
           "return pc out of range");
    return Instrs[RetPc - 1];
  }
};

/// A closure: code plus captured free-variable values (flat closure).
struct Closure : ObjHeader {
  static constexpr ObjKind ClassKind = ObjKind::Closure;
  Value CodeVal; ///< The Code object.
  uint32_t NFree;
  Value Free[1]; ///< Inline captured values.

  Code *code() const { return castObj<Code>(CodeVal); }
};

/// Calling convention for natives: args live in a contiguous slice.  A
/// native signals an error via VM::fail and returns the (ignored) result.
using NativeFn = Value (*)(VM &Vm, Value *Args, uint32_t NArgs);

/// Natives the interpreter loop must handle specially because they
/// manipulate control (they cannot be expressed as a plain C++ call).
enum class NativeSpecial : uint8_t {
  None,
  Apply,          ///< (apply f a b ... rest-list)
  CallCC,         ///< %call/cc — multi-shot capture
  Call1CC,        ///< %call/1cc — one-shot capture
  CallWithValues, ///< %call-with-values
  Values,         ///< values
  // Scheduler operations (src/sched): each may capture the current
  // computation as a one-shot continuation and transfer control to another
  // green thread, so they must run in the dispatch loop like call/1cc.
  SchedRun,       ///< %sched-run — drive threads until all complete
  SchedYield,     ///< %yield — voluntary context switch
  SchedExit,      ///< %thread-exit — finish the current thread
  SchedJoin,      ///< %join — block until a thread completes
  SchedSleep,     ///< %sleep — suspend for N context switches
  ChanSend,       ///< %chan-send — may block on a full channel
  ChanRecv,       ///< %chan-recv — may block on an empty channel
  // Reactor operations (src/io): park the calling green thread on fd
  // readiness with a one-shot capture, exactly like a channel block.
  IoReadLine,     ///< %io-read-line — may park until a line arrives
  IoWrite,        ///< %io-write — may park until the fd drains
  IoAccept,       ///< %io-accept — may park until a connection arrives
  IoTakeConn,     ///< %io-take-conn — may park until the pool hands off a
                  ///< connection (or its ConnQueue closes)
  IoClose,        ///< %io-close — may park until queued output drains
  // Delimited control (src/control): prompts and slices manipulate the
  // continuation chain directly, so like call/1cc they run in the dispatch
  // loop rather than as plain natives.
  Reset,          ///< %reset — plant a tagged prompt and call the thunk
  Shift,          ///< %shift — cut the slice up to the nearest matching
                  ///< prompt and call the receiver with it
  DelimInvoke,    ///< %delim-invoke — splice a cut slice back in front of
                  ///< the current continuation (one-shot)
  // Effect handlers (src/control): the same boundary machinery as
  // reset/shift, plus a handler procedure on the record.
  WithHandler,    ///< %with-handler — plant a tagged prompt carrying a
                  ///< handler procedure and call the thunk
  Perform,        ///< %perform — cut the slice up to the nearest matching
                  ///< *handler* record, pop it, and run the handler at
                  ///< the boundary with the op, a one-shot k and the args
};

struct Native : ObjHeader {
  static constexpr ObjKind ClassKind = ObjKind::Native;
  Value Name; ///< Symbol, for error messages.
  NativeFn Fn;
  uint16_t MinArgs;
  int16_t MaxArgs; ///< -1 for variadic.
  NativeSpecial Special;
};

// --- Compiled regular expressions (src/regex) --------------------------------

/// A compiled regex program: the source pattern (for printing and
/// diagnostics) plus the flat bytecode emitted by regex::compile, stored
/// inline exactly like Code stores its instruction words.  Immutable
/// after allocation, so one program can back any number of concurrent
/// matchers.
struct RegexProg : ObjHeader {
  static constexpr ObjKind ClassKind = ObjKind::RegexProg;
  Value Pattern; ///< The source pattern String.
  uint32_t NInstrs;
  uint32_t Instrs[1]; ///< Inline bytecode words.
};

/// One blocked NFA thread of a streaming matcher: the instruction it
/// waits at and the absolute input offset its match attempt started at.
struct RegexThread {
  uint32_t Pc;
  int64_t Start;
};

/// The persistent state of one incremental (streaming) matcher: the
/// program, the live thread list carried across chunk boundaries, and
/// the best-match-so-far bookkeeping.  regex::Machine is the engine's
/// flat view of these fields; the primitives copy in/out around each
/// feed.  Thread Start offsets are plain integers, so the GC only has
/// the Prog reference to trace.
struct RegexStream : ObjHeader {
  static constexpr ObjKind ClassKind = ObjKind::RegexStream;
  Value Prog;        ///< The RegexProg being run.
  uint64_t Offset;   ///< Absolute bytes scanned so far.
  int64_t BestStart; ///< Leftmost match start; -1 while none.
  int64_t BestEnd;
  uint64_t Steps;   ///< Cumulative thread-state visits.
  uint8_t Mode;     ///< regex::Mode.
  uint8_t Decided;  ///< regex::Decision.
  bool SpawnDead;   ///< '^'-anchored: spawns past offset 0 are dead.
  uint32_t NThreads;
  uint32_t Cap;              ///< Thread capacity (== program NInstrs).
  RegexThread Threads[1];    ///< Inline, Cap entries.
};

// --- The segmented control stack (data half) ---------------------------------

/// One stack segment: a GC-managed array of Value slots.
///
/// Fresh segments are zero-filled so that tracing never sees an
/// uninitialized word (the zero pattern is the Empty immediate).  A segment
/// may be *shared* between the current stack record and one or more
/// continuations (multi-shot capture seals a prefix; §3.4 seal-displacement
/// splits one buffer between a one-shot continuation and the current
/// stack); shared segments are never returned to the segment cache.
struct StackSegment : ObjHeader {
  static constexpr ObjKind ClassKind = ObjKind::StackSegment;
  uint32_t Capacity; ///< Total slots.
  bool Shared;       ///< Referenced by >1 record/continuation view.
  Value Slots[1];    ///< Inline.
};

/// A continuation object (the paper's converted stack record, Fig. 2).
///
/// Two size fields distinguish the flavors:
///   multi-shot: Size == SegSize == number of sealed (occupied) words
///   one-shot:   Size  < SegSize; SegSize is the encapsulated capacity
///   shot:       Size == SegSize == -1 (a consumed one-shot)
///
/// Start supports sub-views of a shared buffer (splitting per Fig. 3 and
/// §3.4 sealing).  RetCode/RetPc hold the return address displaced by the
/// underflow marker.  Flag supports the shared-flag O(1) promotion scheme
/// the paper proposes in §3.3: when the flag cell holds #t every one-shot
/// continuation sharing it has been promoted.
struct Continuation : ObjHeader {
  static constexpr ObjKind ClassKind = ObjKind::Continuation;
  Value Seg;     ///< StackSegment, or Empty for the halt continuation.
  uint32_t Start; ///< First slot of this view within Seg.
  int64_t Size;   ///< Occupied words (relative to Start); -1 once shot.
  int64_t SegSize; ///< Encapsulated capacity (relative to Start); -1 shot.
  Value Link;    ///< Next continuation in the chain, or Empty for halt.
  Value RetCode; ///< Code object to resume, or the underflow marker for
                 ///< the distinguished halt continuation.
  int64_t RetPc; ///< Resume pc within RetCode.
  Value Flag;    ///< Shared promotion flag Cell, or #f when unused.
  /// True when this member escaped to the program as a first-class k
  /// (call/1cc receiver, engine timer handler).  Such a member is shared
  /// between the live chain and the captured value even though it is
  /// one-shot, so a delimited cut must clone rather than relink it — the
  /// dormant k still expects to return through the capture-time chain.
  /// Internal one-shot captures (prompt marks, scheduler parks) never set
  /// it and keep the zero-copy cut.
  bool ByValue = false;

  bool isShot() const { return Size < 0; }
  /// Consumes the continuation *without* reinstating it — deadline
  /// cancellation poisons a parked thread's resume point this way.  Same
  /// marking a one-shot invoke leaves behind, so a poisoned park can never
  /// be resumed (unlike a multi-shot cancellation, which could resurrect),
  /// and the abandoned window is reclaimed by GC: zero words copied.
  void markShot() {
    Size = -1;
    SegSize = -1;
  }
  /// True for an un-promoted one-shot continuation.  With the shared-flag
  /// scheme a #t flag means "promoted" even though SegSize still differs.
  bool isOneShot() const {
    if (isShot() || Size == SegSize)
      return false;
    if (isObj<Cell>(Flag) && castObj<Cell>(Flag)->Val.isTrue())
      return false;
    return true;
  }
  bool isHalt() const { return RetCode.isUnderflowMarker(); }
  StackSegment *segment() const { return castObj<StackSegment>(Seg); }
  Value *slots() const { return segment()->Slots + Start; }
};

} // namespace osc

#endif // OSC_OBJECT_OBJECTS_H
