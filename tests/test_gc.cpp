// Garbage collector tests: liveness via roots, cycles, precise tracing of
// continuation stack ranges, segment-cache discarding at GC, the
// size-class pages (every class, partly and fully dead pages, spares,
// exact byte accounting, a flat page count under churn), and
// whole-interpreter integrity under GC pressure.

#include "object/Heap.h"
#include "object/ListUtil.h"
#include "support/Stats.h"
#include "vm/Interp.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

using namespace osc;

namespace {

class GcTest : public ::testing::Test {
protected:
  GcTest() : H(S, /*GcThresholdBytes=*/1 << 30) {}
  Stats S;
  Heap H;
};

} // namespace

TEST_F(GcTest, UnrootedObjectsAreFreed) {
  for (int J = 0; J != 1000; ++J)
    H.allocPair(Value::nil(), Value::nil());
  uint64_t Before = S.GcBytesFreed;
  H.collect();
  EXPECT_GE(S.GcBytesFreed - Before, 1000 * sizeof(Pair));
}

TEST_F(GcTest, RootedObjectsSurvive) {
  GCRoot R(H, Value::object(H.allocPair(Value::fixnum(1), Value::nil())));
  H.collect();
  EXPECT_EQ(car(R.get()).asFixnum(), 1);
  // Reachability through the root keeps the whole structure alive.
  castObj<Pair>(R.get())->Cdr =
      Value::object(H.allocPair(Value::fixnum(2), Value::nil()));
  H.collect();
  EXPECT_EQ(car(cdr(R.get())).asFixnum(), 2);
}

TEST_F(GcTest, CyclesAreCollected) {
  {
    Pair *A = H.allocPair(Value::nil(), Value::nil());
    Pair *B = H.allocPair(Value::nil(), Value::nil());
    A->Cdr = Value::object(B);
    B->Cdr = Value::object(A);
  }
  uint64_t Freed = S.GcBytesFreed;
  H.collect();
  EXPECT_GE(S.GcBytesFreed - Freed, 2 * sizeof(Pair));
}

TEST_F(GcTest, RootedCycleSurvives) {
  Pair *A = H.allocPair(Value::fixnum(1), Value::nil());
  Pair *B = H.allocPair(Value::fixnum(2), Value::object(A));
  A->Cdr = Value::object(B);
  GCRoot R(H, Value::object(A));
  H.collect();
  EXPECT_EQ(car(R.get()).asFixnum(), 1);
  EXPECT_EQ(car(cdr(R.get())).asFixnum(), 2);
}

TEST_F(GcTest, SymbolsPersist) {
  Symbol *Sym = H.intern("persistent");
  Sym->Global = Value::fixnum(9);
  H.collect();
  EXPECT_EQ(H.intern("persistent"), Sym);
  EXPECT_EQ(Sym->Global.asFixnum(), 9);
}

TEST_F(GcTest, ContinuationTracesOnlyItsOccupiedRange) {
  // Build a continuation viewing a segment: slots inside [Start, Size)
  // keep their referents alive, slots above do not.
  StackSegment *Seg = H.allocSegment(32);
  Pair *Kept = H.allocPair(Value::fixnum(1), Value::nil());
  Pair *Dead = H.allocPair(Value::fixnum(2), Value::nil());
  Seg->Slots[3] = Value::object(Kept);
  Seg->Slots[20] = Value::object(Dead); // Above the sealed size.
  Continuation *K = H.allocContinuation();
  K->Seg = Value::object(Seg);
  K->Start = 0;
  K->Size = 10;
  K->SegSize = 32;
  K->RetCode = Value::fixnum(0);
  GCRoot R(H, Value::object(K));

  uint64_t Freed = S.GcBytesFreed;
  H.collect();
  // Kept survived; Dead was collected.
  EXPECT_EQ(car(Seg->Slots[3]).asFixnum(), 1);
  EXPECT_GE(S.GcBytesFreed - Freed, sizeof(Pair));
}

TEST_F(GcTest, ShotContinuationRetainsNothing) {
  StackSegment *Seg = H.allocSegment(16);
  Seg->Slots[2] = Value::object(H.allocPair(Value::fixnum(3), Value::nil()));
  Continuation *K = H.allocContinuation();
  K->Seg = Value::object(Seg);
  K->Start = 0;
  K->Size = -1; // Shot.
  K->SegSize = -1;
  K->RetCode = Value::fixnum(0);
  GCRoot R(H, Value::object(K));
  uint64_t Freed = S.GcBytesFreed;
  H.collect();
  EXPECT_GE(S.GcBytesFreed - Freed, sizeof(Pair));
}

TEST_F(GcTest, GrowthTriggersAndThresholdAdapts) {
  Stats S2;
  Heap Small(S2, /*GcThresholdBytes=*/64 * 1024);
  GCRoot Keep(Small, Value::nil());
  for (int J = 0; J != 10000; ++J) {
    if (Small.needsGC())
      Small.collect();
    Keep.set(Value::object(
        Small.allocPair(Value::fixnum(J), J % 100 ? Keep.get() : Value::nil())));
  }
  EXPECT_GT(S2.GcCount, 0u);
}

// --- Size-class pages --------------------------------------------------------

namespace {

/// A string whose allocation is exactly \p Bytes (a multiple of 8, at
/// least sizeof(String)), filled with a byte derived from \p Seed.
String *stringOfSize(Heap &H, size_t Bytes, char Seed) {
  return H.allocString(std::string(Bytes - sizeof(String), Seed));
}

} // namespace

TEST_F(GcTest, EveryClassLargeObjectsAndSegmentsKeepTheirContents) {
  // One string per class from the smallest string (24 B; no object kind
  // is 16 B) to MaxCellBytes, one 264 B string and one segment: a page
  // per class, none for the two malloc'd objects.
  static_assert(sizeof(String) == 24, "string sizes below assume 24");
  const size_t Min = sizeof(String), Max = Heap::MaxCellBytes;
  const uint32_t N = static_cast<uint32_t>((Max - Min) / 8 + 1) + 2;
  GCRoot Keep(H, Value::object(H.allocVector(N)));
  auto *Vec = castObj<Vector>(Keep.get());
  uint64_t Expected = Vec->SizeBytes;
  uint32_t I = 0;
  for (size_t Bytes = Min; Bytes <= Max + 8; Bytes += 8, ++I) {
    String *Str = stringOfSize(H, Bytes, static_cast<char>('a' + I % 26));
    EXPECT_EQ(Str->SizeBytes, Bytes);
    Vec->set(I, Value::object(Str));
    Expected += Bytes;
  }
  StackSegment *Seg = H.allocSegment(64);
  Seg->Slots[5] = Value::fixnum(55);
  Vec->set(I, Value::object(Seg));
  Expected += Seg->SizeBytes;
  EXPECT_EQ(H.pageCount(), (Max - Min) / 8 + 1);

  for (int Round = 0; Round != 2; ++Round) {
    H.collect();
    EXPECT_EQ(H.liveBytesAfterLastGC(), Expected);
    EXPECT_EQ(H.pageCount(), (Max - Min) / 8 + 1);
    EXPECT_EQ(H.segmentWordsInHeap(), 64u);
    I = 0;
    for (size_t Bytes = Min; Bytes <= Max + 8; Bytes += 8, ++I) {
      std::string_view View = castObj<String>(Vec->get(I))->view();
      EXPECT_EQ(View, std::string(Bytes - Min, static_cast<char>('a' + I % 26)))
          << Bytes;
    }
    EXPECT_EQ(castObj<StackSegment>(Vec->get(I))->Slots[5].asFixnum(), 55);
  }
}

TEST_F(GcTest, SurvivorsOnAPartlyLivePageKeepTheirContents) {
  // Keep every third pair of a few pages' worth; the dead cells between
  // them are reused before any new page, and the survivors never move.
  const int N = 3000;
  GCRoot Keep(H, Value::nil());
  for (int J = 0; J != N; ++J) {
    Pair *P = H.allocPair(Value::fixnum(J), Value::nil());
    if (J % 3 == 0) {
      P->Cdr = Keep.get();
      Keep.set(Value::object(P));
    }
  }
  size_t Pages = H.pageCount();
  Value Before = Keep.get();
  H.collect();
  EXPECT_EQ(H.pageCount(), Pages);
  for (int J = 0; J != 2 * N / 3; ++J)
    H.allocPair(Value::fixnum(-1), Value::nil());
  EXPECT_EQ(H.pageCount(), Pages); // Filled the holes, no new page.
  EXPECT_TRUE(Keep.get().identical(Before));
  int Expect = N - 1 - (N - 1) % 3;
  for (Value L = Keep.get(); !L.isNil(); L = cdr(L), Expect -= 3)
    EXPECT_EQ(car(L).asFixnum(), Expect);
  EXPECT_EQ(Expect, -3);
}

TEST_F(GcTest, AFullyDeadPageIsFreed) {
  // Fill several pages with pairs and keep one pair on the last page only.
  // Every other page has no live cell: a collection keeps it as a spare,
  // since the classes took that many pages since the last one, and any
  // class takes a spare before it mallocs a page.  A collection after a
  // cycle that took no page hands the spares back to malloc.
  const size_t PerPage = Heap::PageBytes / sizeof(Pair);
  Pair *Last = nullptr;
  for (size_t J = 0; J != 5 * PerPage; ++J)
    Last = H.allocPair(Value::fixnum(static_cast<int64_t>(J)), Value::nil());
  const size_t Pages = H.pageCount();
  ASSERT_GE(Pages, 5u);
  GCRoot Keep(H, Value::object(Last));
  H.collect();
  EXPECT_EQ(H.pageCount(), Pages);
  // A page and a half of 64 B strings (another class) take two spares.
  for (size_t J = 0; J != 3 * Heap::PageBytes / 128; ++J)
    stringOfSize(H, 64, 's');
  EXPECT_EQ(H.pageCount(), Pages);
  H.collect(); // Two pages taken: keep two spares, free the rest.
  EXPECT_EQ(H.pageCount(), 1u + 2u);
  EXPECT_EQ(car(Keep.get()).asFixnum(), static_cast<int64_t>(5 * PerPage - 1));
  Keep.set(Value::nil());
  H.collect(); // Nothing taken: every page goes back.
  EXPECT_EQ(H.pageCount(), 0u);
  EXPECT_EQ(H.liveBytesAfterLastGC(), 0u);
}

TEST_F(GcTest, FreedAndLiveBytesAreExact) {
  // Live: a 100-pair list, one 300 B (malloc'd) vector and one flonum.
  // Garbage: 250 pairs, 40 cells, 7 strings of 64 B and two 400 B
  // vectors.  Both sums match to the byte, on the first collection and
  // on a second one that finds the same live set and no new garbage.
  GCRoot List(H, Value::nil());
  for (int J = 0; J != 100; ++J)
    List.set(Value::object(H.allocPair(Value::fixnum(J), List.get())));
  Vector *Big = H.allocVector(34); // 32 + 33 * 8 = 296 -> 296 B.
  GCRoot KeepBig(H, Value::object(Big));
  GCRoot KeepF(H, Value::object(H.allocFlonum(2.5)));
  uint64_t Live = 100 * sizeof(Pair) + Big->SizeBytes + sizeof(Flonum);
  uint64_t Garbage = 0;
  for (int J = 0; J != 250; ++J)
    Garbage += H.allocPair(Value::nil(), Value::nil())->SizeBytes;
  for (int J = 0; J != 40; ++J)
    Garbage += H.allocCell(Value::nil())->SizeBytes;
  for (int J = 0; J != 7; ++J)
    Garbage += stringOfSize(H, 64, 'x')->SizeBytes;
  for (int J = 0; J != 2; ++J)
    Garbage += H.allocVector(46)->SizeBytes;
  EXPECT_EQ(Garbage, 250 * 32u + 40 * 24u + 7 * 64u + 2 * 392u);
  EXPECT_GT(Big->SizeBytes, Heap::MaxCellBytes);

  uint64_t Freed0 = S.GcBytesFreed;
  H.collect();
  EXPECT_EQ(S.GcBytesFreed - Freed0, Garbage);
  EXPECT_EQ(H.liveBytesAfterLastGC(), Live);
  EXPECT_EQ(S.GcLivePeak, Live);
  H.collect();
  EXPECT_EQ(S.GcBytesFreed - Freed0, Garbage);
  EXPECT_EQ(H.liveBytesAfterLastGC(), Live);
}

TEST(GcInterp, PageCountStaysFlatUnderMixedGarbage) {
  // 100 MB of pairs, strings, vectors (some above MaxCellBytes) and
  // closures with a small live set: after warm-up, a collection leaves
  // no more pages than it did during the first tenth of the run.
  Interp I;
  Interp::Result Def = I.eval("(define keep (make-vector 64 #f))"
         "(define pad \"" + std::string(120, 'a') + "\")"
         "(define (churn n)"
         "  (let loop ((i 0))"
         "    (if (< i n)"
         "        (let* ((k (remainder i 37))"
         "               (v (make-vector k i))"
         "               (s (substring pad 0 (* 3 k)))"
         "               (f (lambda () (+ k i)))"
         "               (l (list k s v f)))"
         "          (vector-set! keep (remainder i 64) l)"
         "          (loop (+ i 1))))))");
  ASSERT_TRUE(Def.Ok) << Def.Error;
  const uint64_t Total = 100u << 20;
  uint64_t Start = I.stats().BytesAllocated;
  size_t WarmPeak = 0, LaterPeak = 0;
  while (I.stats().BytesAllocated - Start < Total) {
    Interp::Result R = I.eval("(churn 2000)");
    ASSERT_TRUE(R.Ok) << R.Error;
    I.collect();
    size_t Pages = I.heap().pageCount();
    if (I.stats().BytesAllocated - Start < Total / 10)
      WarmPeak = std::max(WarmPeak, Pages);
    else
      LaterPeak = std::max(LaterPeak, Pages);
  }
  EXPECT_GT(WarmPeak, 0u);
  EXPECT_GT(LaterPeak, 0u);
  EXPECT_LE(LaterPeak, WarmPeak);
}

TEST(GcAsan, UseOfACollectedObjectReports) {
  // Reading an unrooted pair after collect() reports, as a use after
  // free() did: a dead cell on a page that keeps a live neighbour, and a
  // page with no live cell kept as a spare, stay poisoned until handed out
  // again; a spare that the next collection hands back has gone to malloc.
#ifndef __SANITIZE_ADDRESS__
  GTEST_SKIP() << "needs an AddressSanitizer build";
#else
  auto ReadAfterCollect = [](bool KeepNeighbour, int Collections) {
    Stats S;
    Heap H(S);
    Pair *Dead = H.allocPair(Value::fixnum(1), Value::nil());
    GCRoot Neighbour(H);
    if (KeepNeighbour)
      Neighbour.set(Value::object(H.allocPair(Value::nil(), Value::nil())));
    for (int J = 0; J != Collections; ++J)
      H.collect();
    volatile uint64_t Bits = Dead->Car.raw();
    (void)Bits;
  };
  EXPECT_DEATH(ReadAfterCollect(true, 1), "use-after-poison");
  EXPECT_DEATH(ReadAfterCollect(false, 1), "use-after-poison");
  EXPECT_DEATH(ReadAfterCollect(false, 2), "heap-use-after-free");
#endif
}

// --- Interpreter-level GC behavior -------------------------------------------

TEST(GcInterp, SegmentCacheDiscardedAtCollection) {
  Interp I;
  I.eval("(define (spin n)"
         "  (if (zero? n) 'done"
         "      (begin (car (list (call/1cc (lambda (k) (k 1)))))"
         "             (spin (- n 1)))))"
         "(spin 100)");
  ASSERT_GT(I.control().cacheSize(), 0u);
  I.collect();
  EXPECT_EQ(I.control().cacheSize(), 0u); // §3.2: GC discards the cache.
}

TEST(GcInterp, LiveContinuationsSurviveCollection) {
  Interp I;
  EXPECT_EQ(I.evalToString(
                "(define k #f)"
                "(define n 0)"
                "(define (deep d)"
                "  (if (zero? d) (call/cc (lambda (c) (set! k c) 0))"
                "      (+ 1 (deep (- d 1)))))"
                "(define r (deep 100))"
                "(gc) (gc)"
                "(set! n (+ n 1))"
                "(if (< n 3) (k 0) (list r n))"),
            "(100 3)");
}

TEST(GcInterp, HeapPressureDuringContinuationChurn) {
  Config C;
  C.GcThresholdBytes = 256 * 1024; // Frequent collections.
  Interp I(C);
  EXPECT_EQ(I.evalToString(
                "(define (work n acc)"
                "  (if (zero? n) acc"
                "      (work (- n 1)"
                "            (car (list (call/1cc (lambda (k)"
                "                         (k (cons n acc)))))))))"
                "(length (work 20000 '()))"),
            "20000");
  EXPECT_GT(I.stats().GcCount, 0u);
}

TEST(GcInterp, DormantOneShotSegmentsFreedWhenDropped) {
  Interp I;
  I.eval("(define parked '())"
         "(define (loop i)"
         "  (if (= i 20) 'ok"
         "      (car (list (%call/1cc (lambda (k)"
         "                   (set! parked (cons k parked))"
         "                   (loop (+ i 1))))))))"
         "(loop 0)");
  I.collect();
  uint64_t WhileParked = I.heap().segmentWordsInHeap();
  I.eval("(set! parked '())");
  I.collect();
  uint64_t AfterDrop = I.heap().segmentWordsInHeap();
  EXPECT_LT(AfterDrop, WhileParked);
}
