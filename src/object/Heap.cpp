#include "object/Heap.h"

#include "support/Diag.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

// Under ASan a free cell or a spare page stays poisoned until it is handed
// out again, so a use of a collected object reports as it would after
// free().  Without ASan the poisoning macros expand to nothing.
#include <sanitizer/asan_interface.h>

using namespace osc;

namespace {

/// The head of a size-class page: the end of the cells handed out so far.
/// The cells follow it.
struct PageHead {
  char *Top;
};

char *firstCell(char *Page) { return Page + sizeof(PageHead); }
char *&pageTop(char *Page) { return reinterpret_cast<PageHead *>(Page)->Top; }

} // namespace

const char *osc::objKindName(ObjKind K) {
  switch (K) {
  case ObjKind::Pair:
    return "pair";
  case ObjKind::Symbol:
    return "symbol";
  case ObjKind::String:
    return "string";
  case ObjKind::Vector:
    return "vector";
  case ObjKind::Cell:
    return "cell";
  case ObjKind::Flonum:
    return "flonum";
  case ObjKind::Closure:
    return "closure";
  case ObjKind::Code:
    return "code";
  case ObjKind::Native:
    return "native";
  case ObjKind::Continuation:
    return "continuation";
  case ObjKind::StackSegment:
    return "stack-segment";
  case ObjKind::RegexProg:
    return "regex";
  case ObjKind::RegexStream:
    return "regex-stream";
  }
  oscUnreachable("bad ObjKind");
}

RootProvider::~RootProvider() = default;

GCRoot::GCRoot(Heap &H, Value Initial) : H(H), Held(Initial) {
  H.Roots.push_back(this);
}

GCRoot::~GCRoot() {
  // Roots are overwhelmingly destroyed in LIFO order; handle the general
  // case anyway.
  auto It = std::find(H.Roots.rbegin(), H.Roots.rend(), this);
  assert(It != H.Roots.rend() && "GCRoot not registered");
  H.Roots.erase(std::next(It).base());
}

Heap::Heap(Stats &S, uint64_t GcThresholdBytes)
    : S(S), GcThresholdBytes(GcThresholdBytes) {}

Heap::~Heap() {
  for (SizeClass &C : Classes)
    for (char *Page : C.Pages)
      std::free(Page);
  for (char *Page : Spare)
    std::free(Page);
  ObjHeader *O = Large;
  while (O) {
    ObjHeader *Next = O->Next;
    std::free(O);
    O = Next;
  }
}

char *Heap::takePage() {
  if (Spare.empty())
    return static_cast<char *>(std::malloc(PageBytes));
  char *Page = Spare.back();
  Spare.pop_back();
  ASAN_UNPOISON_MEMORY_REGION(Page, PageBytes);
  return Page;
}

ObjHeader *Heap::allocCellOf(size_t Bytes) {
  SizeClass &C = Classes[(Bytes - MinCellBytes) / 8];
  if (ObjHeader *O = C.Free) {
    ASAN_UNPOISON_MEMORY_REGION(O, Bytes);
    C.Free = O->Next;
    return O;
  }
  if (!C.Bump || pageTop(C.Bump) + Bytes > C.Bump + PageBytes) {
    char *Page = takePage();
    if (!Page)
      return nullptr;
    ++PagesTaken;
    pageTop(Page) = firstCell(Page);
    C.Pages.push_back(Page);
    C.Bump = Page;
  }
  char *&Top = pageTop(C.Bump);
  auto *O = reinterpret_cast<ObjHeader *>(Top);
  Top += Bytes;
  return O;
}

void *Heap::rawAlloc(size_t Bytes, ObjKind Kind) {
  Bytes = (Bytes + 7) & ~size_t(7);
  bool OnPage = Bytes <= MaxCellBytes && Kind != ObjKind::StackSegment;
  auto *O = OnPage ? allocCellOf(Bytes)
                   : static_cast<ObjHeader *>(std::malloc(Bytes));
  if (!O) {
    std::fprintf(stderr, "osc: allocation of %zu bytes (kind %s) failed\n",
                 Bytes, objKindName(Kind));
    oscFatal("heap exhausted (malloc failed)");
  }
  if (!OnPage) {
    O->Next = Large;
    Large = O;
  }
  O->SizeBytes = static_cast<uint32_t>(Bytes);
  O->Kind = Kind;
  O->Mark = false;
  S.BytesAllocated += Bytes;
  S.ObjectsAllocated += 1;
  BytesSinceGC += Bytes;
  AllocsSinceGC += 1;
  OSC_TRACE(Tr, TraceEvent::Alloc, static_cast<uint64_t>(Kind), Bytes);
  return O;
}

Pair *Heap::allocPair(Value Car, Value Cdr) {
  auto *P = static_cast<Pair *>(rawAlloc(sizeof(Pair), ObjKind::Pair));
  P->Car = Car;
  P->Cdr = Cdr;
  return P;
}

Cell *Heap::allocCell(Value V) {
  auto *C = static_cast<Cell *>(rawAlloc(sizeof(Cell), ObjKind::Cell));
  C->Val = V;
  return C;
}

Flonum *Heap::allocFlonum(double D) {
  auto *F = static_cast<Flonum *>(rawAlloc(sizeof(Flonum), ObjKind::Flonum));
  F->D = D;
  return F;
}

String *Heap::allocString(std::string_view Str) {
  auto *O = static_cast<String *>(
      rawAlloc(sizeof(String) + Str.size(), ObjKind::String));
  O->Len = static_cast<uint32_t>(Str.size());
  std::memcpy(O->Data, Str.data(), Str.size());
  O->Data[Str.size()] = '\0';
  return O;
}

Vector *Heap::allocVector(uint32_t Len, Value Fill) {
  size_t Bytes = sizeof(Vector) + (Len ? Len - 1 : 0) * sizeof(Value);
  auto *V = static_cast<Vector *>(rawAlloc(Bytes, ObjKind::Vector));
  V->Len = Len;
  for (uint32_t I = 0; I != Len; ++I)
    V->Elems[I] = Fill;
  return V;
}

Closure *Heap::allocClosure(Value CodeVal, uint32_t NFree) {
  size_t Bytes = sizeof(Closure) + (NFree ? NFree - 1 : 0) * sizeof(Value);
  auto *C = static_cast<Closure *>(rawAlloc(Bytes, ObjKind::Closure));
  S.ClosuresAllocated += 1;
  C->CodeVal = CodeVal;
  C->NFree = NFree;
  for (uint32_t I = 0; I != NFree; ++I)
    C->Free[I] = Value::unspecified();
  return C;
}

Code *Heap::allocCode(Value Name, Value Consts, uint32_t NParams, bool HasRest,
                      uint32_t MaxDepth, const uint32_t *Instrs,
                      uint32_t NInstrs, uint32_t NCaches) {
  size_t Bytes = sizeof(Code) + (NInstrs ? NInstrs - 1 : 0) * sizeof(uint32_t);
  // Inline-cache slots follow the instruction words at CacheSlot alignment
  // (Code::caches()); the alignof slop covers the round-up.
  if (NCaches)
    Bytes += NCaches * sizeof(CacheSlot) + alignof(CacheSlot);
  auto *C = static_cast<Code *>(rawAlloc(Bytes, ObjKind::Code));
  C->Name = Name;
  C->Consts = Consts;
  C->NParams = NParams;
  C->HasRest = HasRest;
  C->MaxDepth = MaxDepth;
  C->NInstrs = NInstrs;
  C->NCaches = NCaches;
  std::memcpy(C->Instrs, Instrs, NInstrs * sizeof(uint32_t));
  if (NCaches)
    std::memset(C->caches(), 0, NCaches * sizeof(CacheSlot));
  return C;
}

Native *Heap::allocNative(Value Name, NativeFn Fn, uint16_t MinArgs,
                          int16_t MaxArgs, NativeSpecial Special) {
  auto *N = static_cast<Native *>(rawAlloc(sizeof(Native), ObjKind::Native));
  N->Name = Name;
  N->Fn = Fn;
  N->MinArgs = MinArgs;
  N->MaxArgs = MaxArgs;
  N->Special = Special;
  return N;
}

RegexProg *Heap::allocRegexProg(Value Pattern, const uint32_t *Instrs,
                                uint32_t NInstrs) {
  size_t Bytes =
      sizeof(RegexProg) + (NInstrs ? NInstrs - 1 : 0) * sizeof(uint32_t);
  auto *P = static_cast<RegexProg *>(rawAlloc(Bytes, ObjKind::RegexProg));
  P->Pattern = Pattern;
  P->NInstrs = NInstrs;
  std::memcpy(P->Instrs, Instrs, NInstrs * sizeof(uint32_t));
  return P;
}

RegexStream *Heap::allocRegexStream(Value Prog, uint32_t Cap) {
  size_t Bytes =
      sizeof(RegexStream) + (Cap ? Cap - 1 : 0) * sizeof(RegexThread);
  auto *M = static_cast<RegexStream *>(rawAlloc(Bytes, ObjKind::RegexStream));
  M->Prog = Prog;
  M->Offset = 0;
  M->BestStart = -1;
  M->BestEnd = -1;
  M->Steps = 0;
  M->Mode = 0;
  M->Decided = 0;
  M->SpawnDead = false;
  M->NThreads = 0;
  M->Cap = Cap;
  return M;
}

Continuation *Heap::allocContinuation() {
  auto *K = static_cast<Continuation *>(
      rawAlloc(sizeof(Continuation), ObjKind::Continuation));
  K->Seg = Value();
  K->Start = 0;
  K->Size = 0;
  K->SegSize = 0;
  K->Link = Value();
  K->RetCode = Value::underflowMarker();
  K->RetPc = 0;
  K->Flag = Value::falseV();
  return K;
}

StackSegment *Heap::allocSegment(uint32_t Capacity) {
  size_t Bytes =
      sizeof(StackSegment) + (Capacity ? Capacity - 1 : 0) * sizeof(Value);
  auto *Seg =
      static_cast<StackSegment *>(rawAlloc(Bytes, ObjKind::StackSegment));
  Seg->Capacity = Capacity;
  Seg->Shared = false;
  // Zero-fill so tracing an untouched slot sees the Empty pattern.
  std::memset(static_cast<void *>(Seg->Slots), 0, Capacity * sizeof(Value));
  return Seg;
}

Symbol *Heap::intern(std::string_view Name) {
  auto It = Symbols.find(std::string(Name));
  if (It != Symbols.end())
    return It->second;
  auto *Sym = static_cast<Symbol *>(
      rawAlloc(sizeof(Symbol) + Name.size(), ObjKind::Symbol));
  Sym->Global = Value::undefined();
  Sym->Len = static_cast<uint32_t>(Name.size());
  std::memcpy(Sym->Name, Name.data(), Name.size());
  Sym->Name[Name.size()] = '\0';
  Symbols.emplace(std::string(Name), Sym);
  return Sym;
}

uint64_t Heap::segmentWordsInHeap() const {
  uint64_t Words = 0;
  for (ObjHeader *O = Large; O; O = O->Next)
    if (O->Kind == ObjKind::StackSegment)
      Words += static_cast<StackSegment *>(O)->Capacity;
  return Words;
}

size_t Heap::pageCount() const {
  size_t N = Spare.size();
  for (const SizeClass &C : Classes)
    N += C.Pages.size();
  return N;
}

void Heap::addRootProvider(RootProvider *P) { RootProviders.push_back(P); }

void Heap::removeRootProvider(RootProvider *P) {
  auto It = std::find(RootProviders.begin(), RootProviders.end(), P);
  if (It != RootProviders.end())
    RootProviders.erase(It);
}

void Heap::traceObject(ObjHeader *O, GCVisitor &V) {
  switch (O->Kind) {
  case ObjKind::Pair: {
    auto *P = static_cast<Pair *>(O);
    V.visit(P->Car);
    V.visit(P->Cdr);
    return;
  }
  case ObjKind::Symbol:
    V.visit(static_cast<Symbol *>(O)->Global);
    return;
  case ObjKind::String:
  case ObjKind::Flonum:
    return;
  case ObjKind::Vector: {
    auto *Vec = static_cast<Vector *>(O);
    V.visitRange(Vec->Elems, Vec->Len);
    return;
  }
  case ObjKind::Cell:
    V.visit(static_cast<Cell *>(O)->Val);
    return;
  case ObjKind::Closure: {
    auto *C = static_cast<Closure *>(O);
    V.visit(C->CodeVal);
    V.visitRange(C->Free, C->NFree);
    return;
  }
  case ObjKind::Code: {
    auto *C = static_cast<Code *>(O);
    V.visit(C->Name);
    V.visit(C->Consts);
    return;
  }
  case ObjKind::Native:
    V.visit(static_cast<Native *>(O)->Name);
    return;
  case ObjKind::Continuation: {
    auto *K = static_cast<Continuation *>(O);
    V.visit(K->Seg);
    V.visit(K->Link);
    V.visit(K->RetCode);
    V.visit(K->Flag);
    // Scan exactly the occupied range of this continuation's view; shot
    // continuations (Size < 0) retain nothing.
    if (K->Size > 0 && K->Seg.isObject())
      V.visitRange(K->slots(), static_cast<size_t>(K->Size));
    return;
  }
  case ObjKind::StackSegment:
    // Segments carry no intrinsic children; live slot ranges are scanned by
    // whoever views them (continuations above, the control stack root).
    return;
  case ObjKind::RegexProg:
    V.visit(static_cast<RegexProg *>(O)->Pattern);
    return;
  case ObjKind::RegexStream:
    // Thread entries are plain pc/offset integers, not Values.
    V.visit(static_cast<RegexStream *>(O)->Prog);
    return;
  }
  oscUnreachable("bad ObjKind in traceObject");
}

void Heap::sweepClass(SizeClass &C, size_t CellBytes, uint64_t &Live,
                      uint64_t &Freed) {
  std::sort(C.Pages.begin(), C.Pages.end());
  ObjHeader *Free = nullptr;
  ObjHeader **Tail = &Free;
  size_t Kept = 0;
  for (char *Page : C.Pages) {
    char *Top = pageTop(Page);
    ASAN_UNPOISON_MEMORY_REGION(Page, Top - Page);
    ObjHeader **PageFree = Tail;
    bool AnyLive = false;
    for (char *P = firstCell(Page); P != Top; P += CellBytes) {
      auto *O = reinterpret_cast<ObjHeader *>(P);
      if (O->Mark) {
        O->Mark = false;
        Live += O->SizeBytes;
        AnyLive = true;
        continue;
      }
      // A cell already free carries SizeBytes 0, so only garbage counts.
      Freed += O->SizeBytes;
      O->SizeBytes = 0;
      *Tail = O;
      Tail = &O->Next;
    }
    if (AnyLive) {
      C.Pages[Kept++] = Page;
      continue;
    }
    Tail = PageFree;
    if (Page == C.Bump)
      C.Bump = nullptr;
    ASAN_POISON_MEMORY_REGION(Page, PageBytes);
    Spare.push_back(Page);
  }
  *Tail = nullptr;
  C.Pages.resize(Kept);
  C.Free = Free;
  for (ObjHeader *O = Free; O;) {
    ObjHeader *Next = O->Next;
    ASAN_POISON_MEMORY_REGION(O, CellBytes);
    O = Next;
  }
}

void Heap::collect() {
  OSC_TRACE(Tr, TraceEvent::GcStart, BytesSinceGC);
  for (RootProvider *P : RootProviders)
    P->willCollect();

  std::vector<ObjHeader *> Worklist;
  GCVisitor V(Worklist);

  // Interned symbols are permanent roots (the table owns them).
  for (auto &[Name, Sym] : Symbols)
    V.visit(Value::object(Sym));
  for (GCRoot *R : Roots)
    V.visit(R->Held);
  for (RootProvider *P : RootProviders)
    P->traceRoots(V);

  while (!Worklist.empty()) {
    ObjHeader *O = Worklist.back();
    Worklist.pop_back();
    traceObject(O, V);
  }

  uint64_t Freed = 0;
  uint64_t Live = 0;
  for (size_t I = 0; I != NumClasses; ++I)
    sweepClass(Classes[I], MinCellBytes + 8 * I, Live, Freed);
  // Keep as many empty pages as the classes took since the last
  // collection, the lowest first, and hand the rest back to malloc: a
  // steady allocation rate takes the kept ones back without malloc
  // faulting fresh memory in, and a page no cycle needed does not stay.
  std::sort(Spare.begin(), Spare.end());
  while (Spare.size() > PagesTaken) {
    std::free(Spare.back());
    Spare.pop_back();
  }
  PagesTaken = 0;
  ObjHeader **Link = &Large;
  while (ObjHeader *O = *Link) {
    if (O->Mark) {
      O->Mark = false;
      Live += O->SizeBytes;
      Link = &O->Next;
      continue;
    }
    *Link = O->Next;
    Freed += O->SizeBytes;
    std::free(O);
  }

  LiveBytes = Live;
  S.GcLivePeak = std::max<uint64_t>(S.GcLivePeak, Live);
  S.GcCount += 1;
  S.GcBytesFreed += Freed;
  BytesSinceGC = 0;
  AllocsSinceGC = 0;
  OSC_TRACE(Tr, TraceEvent::GcEnd, Live, Freed);
  // Grow the threshold if the live set dominates it, so steady-state
  // programs do not collect pathologically often.
  GcThresholdBytes = std::max(GcThresholdBytes, Live * 2);
}
