//===----------------------------------------------------------------------===//
///
/// \file
/// Execution counters shared by the heap, the control stack and the VM.
///
/// The paper reports relative results in both milliseconds and allocation
/// volume ("allocates 23% less memory", "allocates very little additional
/// memory after the first recursion").  Wall-clock numbers on 2026 hardware
/// cannot be compared with a 1996 DEC Alpha, so alongside times the benchmark
/// harness reports these machine-independent counters; they determine the
/// shapes the paper's figures show (copy traffic, segment churn, allocation).
///
/// Each counter has exactly one writer (the VM thread that owns the Stats
/// block) but, since the serving Pool runs one interpreter per OS thread and
/// aggregates load/stats while workers run, any thread may *read* one.
/// Counter therefore wraps a relaxed atomic: increments stay a plain
/// load+add+store (no lock-prefixed RMW on the per-instruction hot path —
/// single-writer makes that exact), and cross-thread readers get tear-free
/// values via snapshot().  Counters are approximate only in the sense that a
/// concurrent snapshot sees some recent consistent-per-counter state, which
/// is all load-balancing and progress reporting need.
///
//===----------------------------------------------------------------------===//

#ifndef OSC_SUPPORT_STATS_H
#define OSC_SUPPORT_STATS_H

#include <atomic>
#include <cstdint>
#include <string>

namespace osc {

/// The single source of truth for the counter set.  X-macro so the Counter
/// fields, the Snapshot fields and every whole-block operation (snapshot,
/// aggregate, diff, print) can never drift apart.  Comments must be /* */:
/// a // comment would eat the continuation backslash.
// clang-format off
#define OSC_STATS_COUNTERS(X)                                                  \
  /* Heap. */                                                                  \
  X(BytesAllocated)     /* Total bytes ever allocated. */                      \
  X(ObjectsAllocated)   /* Total heap objects ever allocated. */               \
  X(GcCount)            /* Collections performed. */                           \
  X(GcBytesFreed)       /* Bytes reclaimed by all collections. */              \
  X(GcLivePeak)         /* High-water mark of bytes live after a GC. */        \
  X(ClosuresAllocated)  /* Closure objects created (S5: the stack model's      \
                           Boyer allocates none). */                           \
  /* Control stack (src/core). */                                              \
  X(SegmentsAllocated)    /* Fresh stack segments from the heap. */            \
  X(SegmentCacheHits)     /* Segments satisfied from the cache. */             \
  X(SegmentCacheReleases) /* Segments returned to the cache. */                \
  X(MultiShotCaptures)    /* call/cc captures (explicit). */                   \
  X(OneShotCaptures)      /* call/1cc captures (explicit). */                  \
  X(MultiShotInvokes)     /* Multi-shot reinstatements. */                     \
  X(OneShotInvokes)       /* One-shot reinstatements. */                       \
  X(EmptyCaptures)        /* Empty-segment capture short-circuits. */          \
  X(Promotions)           /* One-shots promoted to multi-shot. */              \
  X(PromotionWalkSteps)   /* Chain links visited while promoting. */           \
  X(WordsCopied)          /* Stack words memcpy'd (reinstate + overflow). */   \
  X(Underflows)           /* Returns past a segment base. */                   \
  X(Overflows)            /* Segment overflows handled. */                     \
  X(Splits)               /* Continuation splits (copy bound). */              \
  /* VM. */                                                                    \
  X(Instructions)         /* Bytecode instructions executed.  Fused            \
                             superinstructions count as the pair they          \
                             replace, so the total is invariant across         \
                             dispatch modes and fusion masks. */               \
  X(ProcedureCalls)       /* CALL + TAILCALL of closures/natives. */           \
  X(CacheHits)            /* Inline-cache hits (global refs + call sites). */  \
  X(CacheMisses)          /* Inline-cache misses (slow path + refill). */      \
  /* Scheduler (src/sched).  ContextSwitches counts every control transfer     \
     the scheduler performs (thread starts, resumes and the final return to    \
     the suspended main computation); the benchmark harness diffs it against   \
     WordsCopied to prove a steady-state native switch copies zero stack       \
     words (the paper's Figure 5 claim, machine-independently). */             \
  X(ContextSwitches)      /* All scheduler control transfers. */               \
  X(PreemptiveSwitches)   /* Timer-forced (involuntary) switches. */           \
  X(VoluntaryYields)      /* Explicit (yield) calls. */                        \
  X(ChannelBlocks)        /* send/recv suspensions on full/empty. */           \
  X(RunQueuePeak)         /* High-water mark of the ready queue. */            \
  X(ThreadSlotPeak)       /* High-water mark of thread records held at once    \
                             (a detached thread's is freed when it ends). */   \
  X(ThreadsSpawned)       /* Green threads ever created. */                    \
  X(ChannelMessages)      /* Values accepted into a channel. */                \
  X(ChannelsClosed)       /* channel-close! calls that closed. */              \
  /* I/O reactor (src/io) and serving layer (src/serve).  IoParks is the       \
     denominator of the serving layer's headline metric: WordsCopied delta     \
     divided by IoParks must be zero in steady state (each park/resume is a    \
     one-shot capture + one-shot invoke; nothing is memcpy'd). */              \
  X(IoParks)              /* Threads parked awaiting readiness. */             \
  X(IoWakes)              /* Parked threads handed back ready. */              \
  X(IoWaitPeak)           /* High-water mark of parked threads. */             \
  X(PortSlotPeak)         /* High-water mark of port records held at once (a   \
                             closed stream port's is freed once drained). */   \
  X(BytesRead)            /* Bytes moved fd -> input buffers. */               \
  X(BytesWritten)         /* Bytes moved output buffers -> fd. */              \
  X(AcceptedConnections)  /* Connections accepted or adopted. */               \
  X(AcceptBatches)        /* Park-wakes that delivered >= 1 connection         \
                             (io-accept / io-take-conn resumes); non-parking   \
                             accepts join the current batch, so Accepted /     \
                             Batches is the mean accept batch size. */         \
  X(ConnectionsClosed)    /* Stream ports closed (io-close / EOF teardown);    \
                             Accepted - Closed = live connections, the pool's  \
                             least-loaded signal. */                           \
  X(RequestsServed)       /* serve-request-done! calls. */                     \
  /* Overload protection (deadline wheel + admission control).  Every         \
     timeout cancellation is a poisoned one-shot invoke, so Timeouts adds     \
     nothing to WordsCopied — the oracle pins that. */                        \
  X(Timeouts)             /* Deadlines fired (parks + with-deadline). */      \
  X(RequestsShed)         /* Connections refused with BUSY at admission. */   \
  X(ConnsReaped)          /* Connections dropped (idle / slow / overflow). */ \
  X(WorkerRestarts)       /* Pool workers auto-restarted after a crash. */    \
  X(IoWaitDeadlinePeak)   /* High-water mark of deadline-armed waiters. */    \
  /* Delimited control (src/control).  SliceClonedWords isolates the only    \
     copying path delimited capture has (deep-cloning shared chain members   \
     before the splice may relink them); a pure one-shot extent keeps it at  \
     zero, which bench_control asserts per yield. */                         \
  X(PromptResets)         /* (reset tag thunk) prompts planted. */           \
  X(SliceCaptures)        /* (shift tag k body) slices cut to a mark. */     \
  X(SliceSplices)         /* Delimited k invokes that spliced a slice. */    \
  X(SliceClonedWords)     /* Stack words copied by cloneShared. */           \
  /* Effect handlers + structured concurrency.  Performs rides the same     \
     cut/splice path as shift, so the zero-copy claim extends verbatim:     \
     WordsCopied stays flat per perform+resume (bench_control asserts it   \
     against the DelimOneShot=false copying shim). */                      \
  X(HandlersInstalled)    /* (with-handler ...) prompts planted. */        \
  X(Performs)             /* (perform tag op ...) dispatches. */           \
  X(NurseryCancels)       /* Green threads cancelled by nursery escape     \
                             poisoning (scope exit / child failure /       \
                             connection reap). */                          \
  /* Regex engine (src/regex).  RegexSteps counts Pike-VM thread-state    \
     visits; dedup-by-pc bounds it by (bytes + 1) * program size, the     \
     machine-independent linearity witness bench_regex gates the          \
     pathological (a?)^n a^n column on. */                                \
  X(RegexCompiles)        /* Patterns compiled to bytecode. */            \
  X(RegexExecs)           /* match/search/stream runs started. */         \
  X(RegexStreamFeeds)     /* Chunks fed to streaming matchers. */         \
  X(RegexBytesScanned)    /* Input bytes the executor consumed. */        \
  X(RegexSteps)           /* Thread-state visits (linearity bound). */
// clang-format on

/// Counter block for one interpreter instance.  All counters are monotonic
/// over the life of the instance (except high-water marks, which are
/// monotonic too — they only ratchet up); benchmarks snapshot/diff them.
struct Stats {
  /// Single-writer relaxed-atomic counter.  The owning VM thread mutates
  /// (plain read-modify-write expressed as two relaxed accesses, which is
  /// race-free because there is exactly one writer); any thread may read.
  /// Copyable so Stats itself stays copyable (copies are plain values).
  class Counter {
  public:
    Counter() = default;
    Counter(uint64_t N) : V(N) {}
    Counter(const Counter &O) : V(O.load()) {}
    Counter &operator=(const Counter &O) {
      V.store(O.load(), std::memory_order_relaxed);
      return *this;
    }
    Counter &operator=(uint64_t N) {
      V.store(N, std::memory_order_relaxed);
      return *this;
    }
    /// Owner-thread increment: NOT an atomic RMW (no lock prefix), safe
    /// because each counter has exactly one writer.
    Counter &operator+=(uint64_t N) {
      V.store(V.load(std::memory_order_relaxed) + N,
              std::memory_order_relaxed);
      return *this;
    }
    operator uint64_t() const { return load(); }
    uint64_t load() const { return V.load(std::memory_order_relaxed); }

  private:
    std::atomic<uint64_t> V{0};
  };

  /// A tear-free point-in-time copy: plain integers, trivially copyable,
  /// safe to read, diff and sum from any thread.  This is the only shape
  /// the embedding API hands out (Interp and Pool both return Snapshot);
  /// live Counter references stay internal.
  struct Snapshot {
#define OSC_STATS_FIELD(Name) uint64_t Name = 0;
    OSC_STATS_COUNTERS(OSC_STATS_FIELD)
#undef OSC_STATS_FIELD

    /// Element-wise accumulate: Pool::snapshot() sums worker snapshots.
    /// (High-water marks add too — an aggregate peak over independent
    /// shards is at most the sum; callers wanting per-shard peaks read
    /// the per-worker snapshots.)
    Snapshot &operator+=(const Snapshot &O);
    /// Element-wise difference against an earlier baseline.
    Snapshot operator-(const Snapshot &O) const;
    /// Renders all counters, one "name value" pair per line.
    std::string toString() const;
  };

#define OSC_STATS_FIELD(Name) Counter Name;
  OSC_STATS_COUNTERS(OSC_STATS_FIELD)
#undef OSC_STATS_FIELD

  /// Tear-free copy of every counter, callable from any thread while the
  /// owning VM keeps running.
  Snapshot snapshot() const;

  /// Renders all counters, one "name value" pair per line.
  std::string toString() const { return snapshot().toString(); }
};

} // namespace osc

#endif // OSC_SUPPORT_STATS_H
