//===----------------------------------------------------------------------===//
///
/// \file
/// Allocation and precise, non-moving mark-sweep garbage collection.
///
/// Collections run only at VM safepoints (Heap::needsGC is polled by the
/// interpreter loop and by Interp between evaluations), never from inside an
/// allocation, so C++ code may hold raw Values across allocations within one
/// safepoint interval.  Longer-lived host references are registered through
/// GCRoot or RootProvider.
///
/// Objects of up to MaxCellBytes live on size-class pages: one class per 8
/// bytes, each page PageBytes of malloc'd memory cut into cells of exactly
/// the objects' size.  A page is bump-allocated until full; the sweep walks
/// every class's pages in address order, threads the dead cells onto the
/// class's free list (reused before any bump) and takes a page with no
/// live cell off its class.  Such empty pages are spares any class takes
/// before it mallocs a page; each collection keeps as many as the classes
/// took since the one before and frees the rest.  Larger objects and every
/// stack segment are malloc'd one by one on a list of their own.
///
/// Stack segments are traced through the objects that view them (the
/// current ControlStack and captured Continuations), each scanning exactly
/// its occupied range, so dead words above a seal are never marked and
/// cached segments are reclaimed at every collection — matching §3.2's
/// "the stacks in this cache can be discarded by the storage manager during
/// garbage collection".
///
//===----------------------------------------------------------------------===//

#ifndef OSC_OBJECT_HEAP_H
#define OSC_OBJECT_HEAP_H

#include "object/Objects.h"
#include "object/Value.h"
#include "support/Fault.h"
#include "support/Stats.h"
#include "support/Trace.h"

#include <string_view>
#include <unordered_map>
#include <vector>

namespace osc {

class Heap;

/// Visitor handed to root providers and used internally for marking.
class GCVisitor {
public:
  explicit GCVisitor(std::vector<ObjHeader *> &Worklist)
      : Worklist(Worklist) {}

  /// Marks \p V if it references an unmarked heap object.
  void visit(Value V) {
    if (!V.isObject())
      return;
    ObjHeader *O = V.asObject();
    if (O->Mark)
      return;
    O->Mark = true;
    Worklist.push_back(O);
  }
  void visitRange(const Value *Begin, size_t N) {
    for (size_t I = 0; I != N; ++I)
      visit(Begin[I]);
  }

private:
  std::vector<ObjHeader *> &Worklist;
};

/// Anything that owns GC roots (the VM, the interpreter) implements this and
/// registers itself with the heap.
class RootProvider {
public:
  virtual ~RootProvider();
  virtual void traceRoots(GCVisitor &V) = 0;
  /// Called at the start of each collection, before marking.  The control
  /// stack uses this to drop its segment cache (§3.2: cached stacks are
  /// discarded by the storage manager during garbage collection).
  virtual void willCollect() {}
};

/// RAII registration of a single host-held Value as a GC root.
class GCRoot {
public:
  GCRoot(Heap &H, Value Initial = Value());
  ~GCRoot();
  GCRoot(const GCRoot &) = delete;
  GCRoot &operator=(const GCRoot &) = delete;

  Value get() const { return Held; }
  void set(Value V) { Held = V; }
  GCRoot &operator=(Value V) {
    Held = V;
    return *this;
  }

private:
  friend class Heap;
  Heap &H;
  Value Held;
};

/// The garbage-collected heap for one interpreter instance.
class Heap {
public:
  /// Bytes of one size-class page.
  static constexpr size_t PageBytes = 32u << 10;
  /// Largest object kept on a page; anything bigger is malloc'd alone.
  static constexpr size_t MaxCellBytes = 256;

  explicit Heap(Stats &S, uint64_t GcThresholdBytes = 4u << 20);
  ~Heap();
  Heap(const Heap &) = delete;
  Heap &operator=(const Heap &) = delete;

  // --- Allocation ----------------------------------------------------------

  Pair *allocPair(Value Car, Value Cdr);
  Cell *allocCell(Value V);
  Flonum *allocFlonum(double D);
  String *allocString(std::string_view S);
  Vector *allocVector(uint32_t Len, Value Fill = Value::unspecified());
  Closure *allocClosure(Value CodeVal, uint32_t NFree);
  Code *allocCode(Value Name, Value Consts, uint32_t NParams, bool HasRest,
                  uint32_t MaxDepth, const uint32_t *Instrs, uint32_t NInstrs,
                  uint32_t NCaches = 0);
  Native *allocNative(Value Name, NativeFn Fn, uint16_t MinArgs,
                      int16_t MaxArgs, NativeSpecial Special);
  Continuation *allocContinuation();
  /// Allocates a compiled regex program; copies \p Instrs inline.
  RegexProg *allocRegexProg(Value Pattern, const uint32_t *Instrs,
                            uint32_t NInstrs);
  /// Allocates a streaming matcher with room for \p Cap blocked threads
  /// (one per program instruction suffices; the engine dedups by pc).
  RegexStream *allocRegexStream(Value Prog, uint32_t Cap);
  /// Allocates a zero-filled stack segment of \p Capacity slots.
  StackSegment *allocSegment(uint32_t Capacity);

  /// Interns \p Name, returning the unique Symbol for it.
  Symbol *intern(std::string_view Name);

  // --- Collection ----------------------------------------------------------

  void addRootProvider(RootProvider *P);
  void removeRootProvider(RootProvider *P);

  /// Points the heap at an event tracer (usually the owning VM's); null
  /// detaches.  The heap never owns the tracer.
  void setTrace(Trace *T) { Tr = T; }
  /// Points the heap at a fault plan to honor (GcEveryNAllocs); null
  /// detaches.  The plan must outlive the attachment.
  void setFaultPlan(const FaultPlan *P) { Faults = P; }

  bool needsGC() const {
    if (BytesSinceGC >= GcThresholdBytes)
      return true;
    return Faults && Faults->GcEveryNAllocs != 0 &&
           AllocsSinceGC >= Faults->GcEveryNAllocs;
  }
  /// Runs a full mark-sweep collection.
  void collect();

  /// Live bytes at the end of the last collection (0 before the first).
  uint64_t liveBytesAfterLastGC() const { return LiveBytes; }

  /// Total slots of all stack segments currently in the heap.  Meaningful
  /// right after collect(): it then measures exactly the segment space
  /// pinned by the control stack and by live continuations (the
  /// fragmentation §3.4 is about).
  uint64_t segmentWordsInHeap() const;
  /// Size-class pages currently held, over all classes and the spares.
  size_t pageCount() const;
  Stats &stats() { return S; }

private:
  friend class GCRoot;

  static constexpr size_t MinCellBytes = sizeof(ObjHeader);
  static constexpr size_t NumClasses = (MaxCellBytes - MinCellBytes) / 8 + 1;

  /// The pages of one cell size.  Each page starts with the end of the
  /// cells handed out from it (PageHead, Heap.cpp); the cells follow.
  /// Free cells are linked through ObjHeader::Next and carry SizeBytes 0.
  struct SizeClass {
    std::vector<char *> Pages;
    char *Bump = nullptr;      ///< The page allocated from when Free is empty.
    ObjHeader *Free = nullptr; ///< Address order after each sweep.
  };

  void *rawAlloc(size_t Bytes, ObjKind Kind);
  ObjHeader *allocCellOf(size_t Bytes);
  char *takePage(); ///< A spare if there is one, else a malloc'd page.
  void traceObject(ObjHeader *O, GCVisitor &V);
  void sweepClass(SizeClass &C, size_t CellBytes, uint64_t &Live,
                  uint64_t &Freed);

  Stats &S;
  Trace *Tr = nullptr;               ///< Event tracer; may be null.
  const FaultPlan *Faults = nullptr; ///< Injection schedule; may be null.
  uint64_t GcThresholdBytes;
  uint64_t BytesSinceGC = 0;
  uint64_t AllocsSinceGC = 0;
  uint64_t LiveBytes = 0;
  SizeClass Classes[NumClasses];
  std::vector<char *> Spare; ///< Empty pages, any class's for the taking.
  size_t PagesTaken = 0;     ///< Pages classes took since the last collect.
  ObjHeader *Large = nullptr; ///< Malloc'd objects, linked through Next.
  std::vector<RootProvider *> RootProviders;
  std::vector<GCRoot *> Roots;
  std::unordered_map<std::string, Symbol *> Symbols;
};

} // namespace osc

#endif // OSC_OBJECT_HEAP_H
