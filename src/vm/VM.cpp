#include "vm/VM.h"

#include "compiler/Bytecode.h"
#include "core/FrameWalk.h"
#include "io/ConnQueue.h"
#include "io/Reactor.h"
#include "object/ListUtil.h"
#include "sched/Scheduler.h"
#include "sexp/Printer.h"
#include "support/Diag.h"

#include <algorithm>
#include <chrono>
#include <cstring>

using namespace osc;

VM::VM(Heap &H, Stats &S, const Config &Cfg)
    : H(H), S(S), Cfg(Cfg), Tr(this->Cfg.TraceBufferEvents),
      CS(H, S, this->Cfg) {
  H.addRootProvider(this);

  // Distribute the tracer and the fault plan to the layers that honor
  // them.  The heap's pointers are detached in ~VM: the VM owns both, and
  // a heap can outlive its VM in embedding scenarios.
  CS.setTrace(&Tr);
  H.setTrace(&Tr);
  H.setFaultPlan(&this->Cfg.Faults);

  // The call-with-values resume stub: returning into (stub, pc=1) lands on
  // CwvApply with the consumer in the stub frame's single slot.  Instrs[0]
  // is the frame-size word for that return point: header + consumer = 3.
  uint32_t StubInstrs[2] = {3, static_cast<uint32_t>(Op::CwvApply)};
  Vector *NoConsts = H.allocVector(0);
  Code *Stub = H.allocCode(Value::object(H.intern("call-with-values-stub")),
                           Value::object(NoConsts), 0, false, /*MaxDepth=*/8,
                           StubInstrs, 2);
  CwvStub = Value::object(Stub);

  // The prompt resume stub: returning into (stub, pc=1) lands on PromptPop
  // with the PromptRecord id in the stub frame's single slot
  // (FramePromptId).  Same shape as the cwv stub: header + id = 3.
  uint32_t PromptInstrs[2] = {3, static_cast<uint32_t>(Op::PromptPop)};
  Code *PStub = H.allocCode(Value::object(H.intern("prompt-stub")),
                            Value::object(NoConsts), 0, false, /*MaxDepth=*/8,
                            PromptInstrs, 2);
  PromptStub = Value::object(PStub);

  Sched = std::make_unique<Scheduler>(S);
  Sched->setTrace(&Tr);
  WindersSym = H.intern("*winders*");
  NurserySym = H.intern("*nursery*");
  // The thread-root guard: a permanently shot continuation shared by every
  // green thread's chain as its bottom link.  Like the halt sentinel it has
  // no segment and no link, so stack walkers stop at it; unlike halt it is
  // recognized by identity, so a return (or base-frame capture) reaching it
  // means "this thread's thunk finished" rather than "the program ended".
  Continuation *Guard = H.allocContinuation();
  Guard->Size = -1;
  Guard->SegSize = -1;
  ThreadGuard = Value::object(Guard);

  Rx = std::make_unique<Reactor>();
  Rx->setTickMs(this->Cfg.PollTickMs);
  Rx->setDefaultOutputCap(this->Cfg.MaxOutputBufferBytes);
  // The EOF sentinel is an interned symbol the reader cannot produce
  // ("#<" is a read error), so (eq? x *eof*) is a safe end-of-stream test.
  EofObj = Value::object(H.intern("#<eof>"));
  // Same trick for the with-deadline timeout sentinel.
  TimeoutObj = Value::object(H.intern("#<timeout>"));
}

VM::~VM() {
  H.setTrace(nullptr);
  H.setFaultPlan(nullptr);
  H.removeRootProvider(this);
}

void VM::writeOutput(std::string_view Sv) {
  if (Capturing) {
    OutBuffer.append(Sv);
    return;
  }
  std::fwrite(Sv.data(), 1, Sv.size(), stdout);
}

Value VM::fail(const std::string &Msg) { return fail(Msg, ErrorKind::Runtime); }

Value VM::fail(const std::string &Msg, ErrorKind Kind) {
  if (!Failed) {
    Failed = true;
    ErrMsg = Msg;
    ErrKind = Kind;
  }
  return Value::unspecified();
}

void VM::defineGlobal(std::string_view Name, Value V) {
  H.intern(Name)->Global = V;
  ++GlobalGen; // A definition; invalidates global-site inline caches.
}

void VM::defineNative(std::string_view Name, NativeFn Fn, uint16_t MinArgs,
                      int16_t MaxArgs, NativeSpecial Special) {
  Symbol *Sym = H.intern(Name);
  Native *N =
      H.allocNative(Value::object(Sym), Fn, MinArgs, MaxArgs, Special);
  Sym->Global = Value::object(N);
  ++GlobalGen; // A definition; invalidates global-site inline caches.
}

void VM::defineNatives(std::span<const NativeDef> Defs) {
  for (const NativeDef &D : Defs)
    defineNative(D.Name, D.Fn, D.MinArgs, D.MaxArgs, D.Special);
}

void VM::traceRoots(GCVisitor &V) {
  V.visit(Acc);
  V.visit(CurCodeVal);
  V.visit(CwvStub);
  V.visit(PromptStub);
  Prompts.traceRoots(V);
  V.visit(FinalValue);
  V.visit(TimerHandler);
  V.visit(ThreadGuard);
  V.visit(EofObj);
  V.visit(TimeoutObj);
  V.visitRange(MultiVals.data(), MultiVals.size());
  Sched->traceRoots(V);
}

// --- Small helpers -----------------------------------------------------------

namespace {

bool isNumber(Value V) { return V.isFixnum() || isObj<Flonum>(V); }

double asDouble(Value V) {
  return V.isFixnum() ? static_cast<double>(V.asFixnum())
                      : castObj<Flonum>(V)->D;
}

std::string arityMessage(Value Callee, uint32_t NArgs) {
  return "wrong number of arguments (" + std::to_string(NArgs) + ") to " +
         writeToString(Callee);
}

} // namespace

std::vector<std::string> VM::captureBacktrace(unsigned MaxFrames) const {
  std::vector<std::string> Out;
  auto NameOf = [](Value CodeV) -> std::string {
    auto *C = dynObj<Code>(CodeV);
    if (!C)
      return "<?>";
    if (isObj<Symbol>(C->Name))
      return std::string(castObj<Symbol>(C->Name)->name());
    return "<anonymous>";
  };
  // Innermost frame: the code being executed right now.
  if (Cur)
    Out.push_back(NameOf(CurCodeVal));

  // Walk callers via the frame-size words, hopping into the continuation
  // chain at each segment base.  Errors can surface mid-surgery, so every
  // step is defensively validated rather than asserted.
  const Value *Sl = CS.slots();
  uint32_t F = CS.Fp;
  Value Link = CS.link();
  while (Out.size() < MaxFrames) {
    Value RetC = Sl[F + FrameRetCode];
    if (RetC.isUnderflowMarker()) {
      auto *K = dynObj<Continuation>(Link);
      if (!K || K->isHalt() || K->isShot() || K->Size <= 0)
        break;
      auto *C = dynObj<Code>(K->RetCode);
      if (!C || K->RetPc < 1 ||
          static_cast<uint32_t>(K->RetPc) > C->NInstrs)
        break;
      Out.push_back(NameOf(K->RetCode));
      uint32_t D = C->frameSizeAt(K->RetPc);
      if (static_cast<int64_t>(D) > K->Size)
        break;
      Sl = K->slots();
      F = static_cast<uint32_t>(K->Size) - D;
      Link = K->Link;
      continue;
    }
    auto *C = dynObj<Code>(RetC);
    if (!C)
      break;
    Value RetPcV = Sl[F + FrameRetPc];
    if (!RetPcV.isFixnum())
      break;
    int64_t RetPc = RetPcV.asFixnum();
    if (RetPc < 1 || static_cast<uint32_t>(RetPc) > C->NInstrs)
      break;
    Out.push_back(NameOf(RetC));
    uint32_t D = C->frameSizeAt(RetPc);
    if (D > F)
      break;
    F -= D;
  }
  return Out;
}

uint32_t VM::calleeNeed(Value Callee, uint32_t NArgs) const {
  uint32_t Base = FrameHeaderWords + NArgs;
  if (auto *Cl = dynObj<Closure>(Callee))
    return std::max(Cl->code()->MaxDepth, Base);
  return Base;
}

void VM::setValues(const Value *Vals, uint32_t N) {
  NumValues = N;
  MultiVals.assign(Vals, Vals + N);
  Acc = N >= 1 ? Vals[0] : Value::unspecified();
}

void VM::collectValues(std::vector<Value> &Out) const {
  if (NumValues == 1) {
    Out.assign(1, Acc);
    return;
  }
  Out.assign(MultiVals.begin(), MultiVals.begin() + NumValues);
}

// --- Frame construction and procedure entry -------------------------------------

uint32_t VM::buildFrame(Site St, const Value *Args, uint32_t NArgs,
                        uint32_t Need) {
  uint32_t NewFp;
  if (St.Kind == SiteKind::NonTail) {
    CallFramePlan Plan = CS.prepareCall(CurCodeVal, Pc, St.D, NArgs, Need);
    Value *Sl = CS.slots();
    NewFp = Plan.NewFp;
    if (Plan.BaseFrame) {
      Sl[NewFp + FrameRetCode] = Value::underflowMarker();
      Sl[NewFp + FrameRetPc] = Value::fixnum(0);
    } else {
      Sl[NewFp + FrameRetCode] = CurCodeVal;
      Sl[NewFp + FrameRetPc] = Value::fixnum(Pc);
    }
  } else {
    // Tail: the existing header is kept (or was rewritten by relocation).
    CallFramePlan Plan = CS.prepareTailCall(NArgs, Need);
    NewFp = Plan.NewFp;
  }
  Value *Sl = CS.slots();
  for (uint32_t I = 0; I != NArgs; ++I)
    Sl[NewFp + FrameArgs + I] = Args[I];
  CS.Fp = NewFp;
  CS.Top = NewFp + FrameHeaderWords + NArgs;
  return NewFp;
}

bool VM::enterClosure(Closure *Cl, uint32_t NArgs, bool ArityChecked) {
  Code *C = Cl->code();
  uint32_t Req = C->NParams;
  if (!ArityChecked && (NArgs < Req || (!C->HasRest && NArgs > Req))) {
    fail(arityMessage(Value::object(Cl), NArgs));
    return false;
  }
  Value *Sl = CS.slots();
  uint32_t Base = CS.Fp;
  uint32_t NSlots = Req + (C->HasRest ? 1 : 0);
  if (C->HasRest) {
    Value Rest = Value::nil();
    for (uint32_t I = NArgs; I-- > Req;)
      Rest = cons(H, Sl[Base + FrameArgs + I], Rest);
    Sl[Base + FrameArgs + Req] = Rest;
  }
  // Copy captured variables into their frame slots: frames are fully
  // self-contained, so continuation capture and GC never need a closure
  // register.
  for (uint32_t I = 0; I != Cl->NFree; ++I)
    Sl[Base + FrameArgs + NSlots + I] = Cl->Free[I];
  CS.Top = Base + FrameHeaderWords + NSlots + Cl->NFree;
  Cur = C;
  CurCodeVal = Cl->CodeVal;
  Pc = 1; // Pc 0 holds the entry frame-size word.
  S.ProcedureCalls += 1;

  if (TimerExpired) {
    // Preemption at procedure entry: the frame is fully built and nothing
    // has executed, so (code, pc=1) with the sealed stack is a complete
    // representation of "run this procedure".  Tail loops are preempted
    // here; non-tail code is also preempted at returns.
    TimerExpired = false;
    Fuel = -1;
    if (!TimerHandler.isEmpty()) {
      // Engine: hand the capture to the Scheme handler.
      Value Handler = TimerHandler;
      TimerHandler = Value();
      Value K = CS.captureOneShot(CS.Top, CurCodeVal, 1);
      if (auto *KC = dynObj<Continuation>(K))
        KC->ByValue = true; // The k escapes to the Scheme handler.
      CS.beginBaseFrame(FrameHeaderWords + 2);
      CS.plantBaseFrame();
      enterCall(Handler, {K, Value::unspecified()}, Site{SiteKind::Tail, 0});
    } else if (Sched->inThread()) {
      // Scheduler: same capture, but the VM parks the thread and
      // reinstates the next one directly — no Scheme handler runs.  A
      // thread that computes past its slice must not hold back queued
      // replies (its own or other threads'), so they go out first.
      S.PreemptiveSwitches += 1;
      ioFlushUnsent();
      Value K = schedCapture(CS.Top, CurCodeVal, 1);
      schedSuspendAndDispatch(K, Value::unspecified(), ThreadState::Ready);
    }
  }
  return true;
}

void VM::returnValues() {
  Value *Sl = CS.slots();
  Value RetC = Sl[CS.Fp + FrameRetCode];
  if (RetC.isUnderflowMarker()) {
    if (CS.link().identical(ThreadGuard)) {
      // A green thread returned from its root frame: the thunk is done and
      // the returned value is the thread's result.
      if (Sched->inThread()) {
        Sched->finishCurrent(Acc);
        schedDispatch();
        return;
      }
      fail("thread root frame returned outside the scheduler");
      return;
    }
    auto *K = castObj<Continuation>(CS.link());
    if (K->isShot()) {
      fail("one-shot continuation invoked a second time (via return)");
      return;
    }
    ResumePoint RP = CS.underflow();
    if (RP.Halted) {
      Halted = true;
      FinalValue = Acc;
      return;
    }
    Cur = castObj<Code>(RP.Code);
    CurCodeVal = RP.Code;
    Pc = RP.Pc;
    CS.growWindow(CS.Fp + Cur->MaxDepth);
    return;
  }
  auto *C = castObj<Code>(RetC);
  int64_t RetPc = Sl[CS.Fp + FrameRetPc].asFixnum();
  uint32_t D = C->frameSizeAt(RetPc);
  uint32_t OldFp = CS.Fp;
  CS.Fp = OldFp - D;
  CS.Top = OldFp;
  Cur = C;
  CurCodeVal = RetC;
  Pc = RetPc;
  CS.growWindow(CS.Fp + Cur->MaxDepth);
}

void VM::invokeContinuationWithValues(Continuation *K,
                                      const std::vector<Value> &Vals) {
  if (Value::object(K).identical(ThreadGuard)) {
    // The thread-root guard, handed out by a degenerate base-frame capture
    // (captureOneShot's Boundary == 0 case: a call/1cc in tail position at
    // the root of a thread's chain).  "The rest of the computation" is the
    // thread returning from its thunk, so invoking it delivers the
    // thread's result — not the program's (the guard is recognized by
    // identity exactly so it is never confused with the halt sentinel).
    if (Sched->inThread()) {
      Sched->finishCurrent(Vals.empty() ? Value::unspecified() : Vals[0]);
      schedDispatch();
      return;
    }
    fail("thread-root continuation invoked outside the scheduler");
    return;
  }
  if (K->isHalt()) {
    Halted = true;
    FinalValue = Vals.empty() ? Value::unspecified() : Vals[0];
    return;
  }
  if (K->isShot()) {
    fail("one-shot continuation invoked a second time");
    return;
  }
  ResumePoint RP = CS.invoke(K);
  Cur = castObj<Code>(RP.Code);
  CurCodeVal = RP.Code;
  Pc = RP.Pc;
  CS.growWindow(CS.Fp + Cur->MaxDepth);
  setValues(Vals.data(), static_cast<uint32_t>(Vals.size()));
}

void VM::siteCapturePoint(Site St, uint32_t &Boundary, Value &RetCode,
                          int64_t &RetPc) {
  if (St.Kind == SiteKind::NonTail) {
    Boundary = CS.Fp + St.D;
    RetCode = CurCodeVal;
    RetPc = Pc;
    return;
  }
  // Tail: the current frame is dead; its return address is the capture
  // point.  At a segment base this degenerates to the empty-segment case.
  Boundary = CS.Fp;
  const Value *Sl = CS.slots();
  RetCode = Sl[CS.Fp + FrameRetCode];
  RetPc = Sl[CS.Fp + FrameRetPc].isFixnum()
              ? Sl[CS.Fp + FrameRetPc].asFixnum()
              : 0;
}

Value VM::captureSiteOneShot(Site St) {
  uint32_t Boundary;
  Value RetC;
  int64_t RetP;
  siteCapturePoint(St, Boundary, RetC, RetP);
  return schedCapture(Boundary, RetC, RetP);
}

Value VM::schedCapture(uint32_t Boundary, Value RetC, int64_t RetP) {
  if (!Cfg.SchedOneShotSwitch)
    return CS.captureMultiShot(Boundary, RetC, RetP);
  return CS.captureOneShot(Boundary, RetC, RetP);
}

void VM::captureAndCall(bool OneShot, Value Receiver, Site St) {
  OSC_TRACE(&Tr, OneShot ? TraceEvent::Call1CC : TraceEvent::CallCC);
  uint32_t Boundary;
  Value RetC;
  int64_t RetP;
  siteCapturePoint(St, Boundary, RetC, RetP);
  Value K = OneShot ? CS.captureOneShot(Boundary, RetC, RetP)
                    : CS.captureMultiShot(Boundary, RetC, RetP);
  // The k escapes to the program: the member now has a first-class alias,
  // so a later delimited cut through it must clone instead of relink
  // (Prompt.cpp).  This also covers the empty-capture short-circuit,
  // where the returned k IS an existing chain member.
  if (auto *KC = dynObj<Continuation>(K))
    KC->ByValue = true;
  // Call the receiver on a fresh base frame: returning from it underflows
  // into the captured continuation — the implicit invocation of Fig. 2.
  CS.beginBaseFrame(FrameHeaderWords + 1);
  CS.plantBaseFrame();
  enterCall(Receiver, {K}, Site{SiteKind::Tail, 0});
}

void VM::doCallWithValues(Value Producer, Value Consumer, Site St) {
  uint32_t ProdNeed = calleeNeed(Producer, 0);
  uint32_t StubWords = FrameHeaderWords + 1; // header + consumer
  uint32_t Need = StubWords + FrameHeaderWords + ProdNeed;
  Value StubArgs[1] = {Consumer};
  uint32_t StubFp = buildFrame(St, StubArgs, 1, Need);

  // Producer frame above the stub; its return resumes the stub at pc=1.
  Value *Sl = CS.slots();
  uint32_t PFp = StubFp + StubWords;
  Sl[PFp + FrameRetCode] = CwvStub;
  Sl[PFp + FrameRetPc] = Value::fixnum(1);
  CS.Fp = PFp;
  CS.Top = PFp + FrameHeaderWords;

  if (auto *Cl = dynObj<Closure>(Producer)) {
    enterClosure(Cl, 0);
    return;
  }
  if (auto *Nat = dynObj<Native>(Producer);
      Nat && Nat->Special == NativeSpecial::None) {
    if (Nat->MinArgs > 0) {
      fail(arityMessage(Producer, 0));
      return;
    }
    Acc = Nat->Fn(*this, nullptr, 0);
    NumValues = 1;
    if (!Failed)
      returnValues();
    return;
  }
  if (auto *K = dynObj<Continuation>(Producer)) {
    invokeContinuationWithValues(K, {});
    return;
  }
  // Special natives as producers (e.g. (call-with-values values list)):
  // route through the general path with the producer frame as Tail site.
  enterCall(Producer, {}, Site{SiteKind::Tail, 0});
}

// --- Delimited control (src/control) ----------------------------------------
//
// A prompt is three things kept in sync: the Mark (the continuation below
// the reset site, captured one-shot so planting a delimiter costs exactly
// one Figure-2 capture), a PromptRecord on the per-thread table, and a
// *prompt stub frame* — a base frame whose return point is PromptStub@1 and
// whose single slot holds the record id, so a normal return through the
// delimiter pops the record before underflowing into the Mark.  shift cuts
// the chain where a link equals the Mark (src/control/Prompt.cpp): in the
// steady state every member between shift and reset is an exclusively-owned
// one-shot, so the cut is header relinking only — zero stack words move —
// and the later splice is a single link store plus a one-shot invoke.

namespace {

/// Layout of the opaque delimited-continuation package %shift hands to its
/// receiver (a Vector; the prelude wraps it in a procedure before user code
/// can see it).
enum DelimKSlot : uint32_t {
  DkMarker = 0,   ///< The unforgeable #<delim-k> symbol.
  DkTop,          ///< Slice top continuation, or Empty for an empty slice.
  DkBottom,       ///< Slice bottom continuation, or Empty.
  DkTag,          ///< The prompt's tag.
  DkId,           ///< Fixnum PromptRecord id (reused at splice time).
  DkWinders,      ///< *winders* at reset entry (for the record's re-push).
  DkSaved,        ///< Vector of 6-tuples: records cut out with the slice.
  DkShot,         ///< #t once invoked: delimited ks are one-shot.
  DkOrigMark,     ///< The Mark the slice was cut from; saved records whose
                  ///< Mark equals it are remapped onto the splice point.
  DkHandler,      ///< Handler the splice re-pushes with the record: the
                  ///< record's own for shift and deep handlers, Empty for
                  ///< plain resets and for a perform on a shallow handler
                  ///< (the resumed slice loses that handler).
  DkShallow,      ///< Shallow flag re-pushed with the record.
  DkSlotCount,
};

// Tag, Mark, Winders, Id, Handler, Shallow per carried record.
constexpr uint32_t DkSavedFields = 6;

} // namespace

void VM::enterWithPromptStub(uint64_t Id, Value Callee,
                             std::vector<Value> Args) {
  // The stub frame doubles as the fresh window's base frame: its header is
  // the underflow marker (returning past it resumes the Mark, which is the
  // window's link) and its one slot carries the record id for PromptPop.
  uint32_t StubWords = FrameHeaderWords + 1;
  CS.beginBaseFrame(StubWords + FrameHeaderWords + 2);
  CS.plantBaseFrame();
  Value *Sl = CS.slots();
  Sl[FramePromptId] = Value::fixnum(static_cast<int64_t>(Id));
  // Callee frame above the stub; its return resumes the stub at pc=1,
  // exactly the doCallWithValues producer-frame pattern.
  uint32_t CFp = StubWords;
  Sl[CFp + FrameRetCode] = PromptStub;
  Sl[CFp + FrameRetPc] = Value::fixnum(1);
  CS.Fp = CFp;
  CS.Top = CFp + FrameHeaderWords;
  enterCall(Callee, std::move(Args), Site{SiteKind::Tail, 0});
}

Vector *VM::packDelimK(const PromptRecord &R, const DelimSlice &Slice,
                       std::vector<PromptRecord> &Saved,
                       Value RepushHandler) {
  // Marks naming a member that was deep-cloned are remapped onto the clone
  // so they stay live inside the package.
  for (PromptRecord &SR : Saved)
    for (const auto &[Orig, Clone] : Slice.Remapped)
      if (SR.Mark.identical(Value::object(Orig)))
        SR.Mark = Value::object(Clone);

  Vector *SavedVec =
      H.allocVector(static_cast<uint32_t>(Saved.size()) * DkSavedFields);
  for (size_t I = 0; I != Saved.size(); ++I) {
    SavedVec->Elems[I * DkSavedFields + 0] = Saved[I].Tag;
    SavedVec->Elems[I * DkSavedFields + 1] = Saved[I].Mark;
    SavedVec->Elems[I * DkSavedFields + 2] = Saved[I].Winders;
    SavedVec->Elems[I * DkSavedFields + 3] =
        Value::fixnum(static_cast<int64_t>(Saved[I].Id));
    SavedVec->Elems[I * DkSavedFields + 4] = Saved[I].Handler;
    SavedVec->Elems[I * DkSavedFields + 5] =
        Saved[I].Shallow ? Value::trueV() : Value::falseV();
  }

  Vector *Dk = H.allocVector(DkSlotCount);
  Dk->Elems[DkMarker] = Value::object(H.intern("#<delim-k>"));
  Dk->Elems[DkTop] = Slice.Top;
  Dk->Elems[DkBottom] =
      Slice.Bottom ? Value::object(Slice.Bottom) : Value();
  Dk->Elems[DkTag] = R.Tag;
  Dk->Elems[DkId] = Value::fixnum(static_cast<int64_t>(R.Id));
  Dk->Elems[DkWinders] = R.Winders;
  Dk->Elems[DkSaved] = Value::object(SavedVec);
  Dk->Elems[DkShot] = Value::falseV();
  Dk->Elems[DkOrigMark] = R.Mark;
  Dk->Elems[DkHandler] = RepushHandler;
  Dk->Elems[DkShallow] = R.Shallow ? Value::trueV() : Value::falseV();
  return Dk;
}

void VM::doReset(Value Tag, Value Thunk, Site St) {
  uint32_t Boundary;
  Value RetC;
  int64_t RetP;
  siteCapturePoint(St, Boundary, RetC, RetP);
  // The Mark: everything below the reset site.  One-shot on the real path;
  // the Config::DelimOneShot=false shim captures multi-shot so every later
  // reinstatement pays the Figure-3 copy — the baseline bench_control
  // compares against.
  Value Mark = Cfg.DelimOneShot ? CS.captureOneShot(Boundary, RetC, RetP)
                                : CS.captureMultiShot(Boundary, RetC, RetP);
  uint64_t Id = ++NextPromptId;
  Prompts.push({Tag, Mark, WindersSym->Global, Id, Value(), false});
  S.PromptResets += 1;
  OSC_TRACE(&Tr, TraceEvent::Reset, Id);
  enterWithPromptStub(Id, Thunk, {});
}

void VM::doShift(Value Tag, Value Receiver, Site St) {
  // Find the innermost live prompt for this tag *before* capturing: the
  // lookup validates that the record's Mark is still reachable from the
  // current chain (stale records from undelimited escapes are pruned).
  int64_t Idx = Prompts.findLive(Tag, CS.link());
  if (Idx < 0) {
    fail("shift: no reset for tag " + writeToString(Tag));
    return;
  }
  PromptRecord R = Prompts.at(static_cast<size_t>(Idx));

  uint32_t Boundary;
  Value RetC;
  int64_t RetP;
  siteCapturePoint(St, Boundary, RetC, RetP);
  Value KTop = Cfg.DelimOneShot ? CS.captureOneShot(Boundary, RetC, RetP)
                                : CS.captureMultiShot(Boundary, RetC, RetP);
  // After the capture the chain head is KTop; cut it down to the Mark and
  // abort the current (fresh) window to the prompt.
  DelimSlice Slice = cutSliceToMark(CS, KTop, R.Mark);
  CS.setLink(R.Mark);

  // Records above the found one belong to the slice (inner delimiters the
  // captured extent contains); they travel inside the package and are
  // re-pushed at splice time.
  std::vector<PromptRecord> Saved =
      Prompts.takeAbove(static_cast<size_t>(Idx));

  Vector *Dk = packDelimK(R, Slice, Saved, /*RepushHandler=*/R.Handler);

  S.SliceCaptures += 1;
  OSC_TRACE(&Tr, TraceEvent::Shift, R.Id, Slice.Members, Slice.Cloned);
  // The receiver runs back at the prompt, under a fresh stub frame for the
  // *same* record (the shift body stays delimited; its normal return pops
  // the record and underflows into the Mark).  It gets the package and the
  // reset-entry winders so the prelude can unwind the extent's after-thunks.
  enterWithPromptStub(R.Id, Receiver, {Value::object(Dk), R.Winders});
}

void VM::doWithHandler(Value Tag, Value Handler, Value Thunk, Value Shallow,
                       Site St) {
  // Identical to doReset except the record carries the handler procedure
  // (and the shallow-mode flag), making it a perform target.  Same Mark
  // capture, same stub frame, same one-shot/copying-shim split.
  uint32_t Boundary;
  Value RetC;
  int64_t RetP;
  siteCapturePoint(St, Boundary, RetC, RetP);
  Value Mark = Cfg.DelimOneShot ? CS.captureOneShot(Boundary, RetC, RetP)
                                : CS.captureMultiShot(Boundary, RetC, RetP);
  uint64_t Id = ++NextPromptId;
  bool Sh = Shallow.isTrue();
  Prompts.push({Tag, Mark, WindersSym->Global, Id, Handler, Sh});
  S.HandlersInstalled += 1;
  OSC_TRACE(&Tr, TraceEvent::Handle, Id, Sh ? 1 : 0);
  enterWithPromptStub(Id, Thunk, {});
}

void VM::doPerform(Value Tag, Value Receiver, Site St) {
  // Only records carrying a handler match: plain resets sharing the tag
  // are transparent to perform, so prompts and handlers nest freely.
  int64_t Idx = Prompts.findLive(Tag, CS.link(), /*RequireHandler=*/true);
  if (Idx < 0) {
    fail("perform: no handler for tag " + writeToString(Tag));
    return;
  }
  PromptRecord R = Prompts.at(static_cast<size_t>(Idx));

  uint32_t Boundary;
  Value RetC;
  int64_t RetP;
  siteCapturePoint(St, Boundary, RetC, RetP);
  Value KTop = Cfg.DelimOneShot ? CS.captureOneShot(Boundary, RetC, RetP)
                                : CS.captureMultiShot(Boundary, RetC, RetP);
  // Cut exactly like shift: the slice is the extent between the perform
  // site and the with-handler boundary, relinked — not copied — in the
  // one-shot steady state.
  DelimSlice Slice = cutSliceToMark(CS, KTop, R.Mark);
  CS.setLink(R.Mark);

  // Inner delimiters travel with the slice; the handler record itself is
  // POPPED (shift0 discipline).  The handler body therefore runs outside
  // its own delimiter: a clause that never invokes k is abortive for free,
  // and a re-perform inside the handler forwards to the next handler out.
  std::vector<PromptRecord> Saved =
      Prompts.takeAbove(static_cast<size_t>(Idx));
  Prompts.popThrough(R.Id);

  // Deep handlers resume under themselves: the splice re-pushes the record
  // with its handler intact.  Shallow handlers resume bare — decided here
  // at cut time, so the splice needs no mode dispatch.
  Vector *Dk = packDelimK(R, Slice, Saved,
                          /*RepushHandler=*/R.Shallow ? Value() : R.Handler);

  S.Performs += 1;
  S.SliceCaptures += 1;
  OSC_TRACE(&Tr, TraceEvent::Perform, R.Id, Slice.Members, Slice.Cloned);
  // The receiver runs at the prompt on a fresh *plain* base frame — no
  // stub, because the record is gone: a normal return from the handler IS
  // the with-handler form's return, underflowing straight into the Mark.
  CS.beginBaseFrame(FrameHeaderWords + 3);
  CS.plantBaseFrame();
  enterCall(Receiver, {R.Handler, Value::object(Dk), R.Winders},
            Site{SiteKind::Tail, 0});
}

void VM::doDelimInvoke(Value DkV, Value V, Site St) {
  auto *Dk = dynObj<Vector>(DkV);
  if (!Dk || Dk->Len != DkSlotCount ||
      !Dk->Elems[DkMarker].identical(Value::object(H.intern("#<delim-k>")))) {
    fail("%delim-invoke: not a delimited continuation: " +
         writeToString(DkV));
    return;
  }
  if (Dk->Elems[DkShot].isTrue()) {
    // Delimited continuations inherit the substrate's one-shot discipline;
    // the flag (not markShot) carries the check so the error is identical
    // under the copying shim.
    fail("delimited continuation invoked a second time");
    return;
  }
  Dk->Elems[DkShot] = Value::trueV();
  uint64_t Id = static_cast<uint64_t>(Dk->Elems[DkId].asFixnum());

  if (Dk->Elems[DkTop].isEmpty()) {
    // Empty slice: (shift t k ...) sat in tail position at its prompt, so
    // "the rest of the extent" is the identity; re-establishing a prompt
    // around an empty computation is unobservable.
    S.SliceSplices += 1;
    OSC_TRACE(&Tr, TraceEvent::Splice, Id, 0);
    nativeReturn(V, St);
    return;
  }

  uint32_t Boundary;
  Value RetC;
  int64_t RetP;
  siteCapturePoint(St, Boundary, RetC, RetP);
  if (Cfg.DelimOneShot)
    CS.captureOneShot(Boundary, RetC, RetP);
  else
    CS.captureMultiShot(Boundary, RetC, RetP);
  Value NewLink = CS.link(); // The continuation of the (k v) call itself.

  // Re-establish the delimiter at the splice point: same tag, same id,
  // reset-entry winders, but the Mark is *here* now — an inner shift after
  // resumption cuts back to this invoke site.  DkHandler rides along, which
  // is what makes deep handlers deep: resuming a deep handler's k puts the
  // handler back over the slice, while a shallow handler's k (and a plain
  // shift's k over a reset) re-pushes a bare prompt.  Then the inner
  // records the slice carried, innermost last, dead-end Marks remapped too.
  Prompts.push({Dk->Elems[DkTag], NewLink, Dk->Elems[DkWinders], Id,
                Dk->Elems[DkHandler], Dk->Elems[DkShallow].isTrue()});
  auto *SavedVec = castObj<Vector>(Dk->Elems[DkSaved]);
  for (uint32_t I = 0; I + DkSavedFields <= SavedVec->Len;
       I += DkSavedFields) {
    Value SMark = SavedVec->Elems[I + 1].identical(Dk->Elems[DkOrigMark])
                      ? NewLink
                      : SavedVec->Elems[I + 1];
    Prompts.push({SavedVec->Elems[I + 0], SMark, SavedVec->Elems[I + 2],
                  static_cast<uint64_t>(SavedVec->Elems[I + 3].asFixnum()),
                  SavedVec->Elems[I + 4], SavedVec->Elems[I + 5].isTrue()});
  }

  // The one-shot reinstatement half of the Figure-3 idiom: one link store
  // splices the whole slice in front of the invoke-site continuation, then
  // the slice top resumes with a zero-copy invoke (it is marked shot on the
  // way, poisoning reuse at the substrate level as well).
  auto *Bottom = castObj<Continuation>(Dk->Elems[DkBottom]);
  DelimSlice Slice;
  Slice.Bottom = Bottom;
  spliceOntoMark(Slice, NewLink);
  S.SliceSplices += 1;
  if (Tr.enabled()) {
    uint32_t Members = 1;
    for (Value C = Dk->Elems[DkTop]; !C.identical(Dk->Elems[DkBottom]);
         ++Members)
      C = castObj<Continuation>(C)->Link;
    Tr.emit(TraceEvent::Splice, Id, Members);
  }
  invokeContinuationWithValues(castObj<Continuation>(Dk->Elems[DkTop]), {V});
}

void VM::enterCall(Value Callee, std::vector<Value> Args, Site St) {
  for (;;) {
    if (Failed || Halted)
      return;
    uint32_t N = static_cast<uint32_t>(Args.size());

    if (auto *K = dynObj<Continuation>(Callee)) {
      invokeContinuationWithValues(K, Args);
      return;
    }

    if (auto *Nat = dynObj<Native>(Callee)) {
      if (N < Nat->MinArgs ||
          (Nat->MaxArgs >= 0 && N > static_cast<uint32_t>(Nat->MaxArgs))) {
        fail(arityMessage(Callee, N));
        return;
      }
      switch (Nat->Special) {
      case NativeSpecial::None:
        Acc = Nat->Fn(*this, Args.data(), N);
        NumValues = 1;
        if (Failed)
          return;
        if (St.Kind == SiteKind::NonTail) {
          CS.Top = CS.Fp + St.D;
          return;
        }
        returnValues();
        return;
      case NativeSpecial::Apply: {
        // (apply f a b ... rest-list)
        Value F = Args[0];
        std::vector<Value> Flat(Args.begin() + 1, Args.end() - 1);
        Value L = Args.back();
        if (!listToVector(L, Flat)) {
          fail("apply: last argument is not a proper list");
          return;
        }
        Callee = F;
        Args = std::move(Flat);
        continue;
      }
      case NativeSpecial::Values:
        setValues(Args.data(), N);
        if (St.Kind == SiteKind::NonTail) {
          CS.Top = CS.Fp + St.D;
          return;
        }
        returnValues();
        return;
      case NativeSpecial::CallCC:
        captureAndCall(/*OneShot=*/false, Args[0], St);
        return;
      case NativeSpecial::Call1CC:
        captureAndCall(/*OneShot=*/true, Args[0], St);
        return;
      case NativeSpecial::CallWithValues:
        doCallWithValues(Args[0], Args[1], St);
        return;
      case NativeSpecial::SchedRun:
        schedRun(Args[0], St);
        return;
      case NativeSpecial::SchedYield:
        schedYield(St);
        return;
      case NativeSpecial::SchedExit:
        schedExit(Args[0]);
        return;
      case NativeSpecial::SchedJoin:
        schedJoin(Args[0], St);
        return;
      case NativeSpecial::SchedSleep:
        schedSleep(Args[0], St);
        return;
      case NativeSpecial::ChanSend:
        chanSend(Args[0], Args[1], St);
        return;
      case NativeSpecial::ChanRecv:
        chanRecv(Args[0], St);
        return;
      case NativeSpecial::IoReadLine:
        ioReadLine(Args[0], St);
        return;
      case NativeSpecial::IoWrite:
        ioWrite(Args[0], Args[1], St);
        return;
      case NativeSpecial::IoAccept:
        ioAccept(Args[0], St);
        return;
      case NativeSpecial::IoTakeConn:
        ioTakeConn(St);
        return;
      case NativeSpecial::IoClose:
        ioClose(Args[0], St);
        return;
      case NativeSpecial::Reset:
        doReset(Args[0], Args[1], St);
        return;
      case NativeSpecial::Shift:
        doShift(Args[0], Args[1], St);
        return;
      case NativeSpecial::DelimInvoke:
        doDelimInvoke(Args[0], Args[1], St);
        return;
      case NativeSpecial::WithHandler:
        doWithHandler(Args[0], Args[1], Args[2], Args[3], St);
        return;
      case NativeSpecial::Perform:
        doPerform(Args[0], Args[1], St);
        return;
      }
      oscUnreachable("bad NativeSpecial");
    }

    if (auto *Cl = dynObj<Closure>(Callee)) {
      buildFrame(St, Args.data(), N, calleeNeed(Callee, N));
      enterClosure(Cl, N);
      return;
    }

    fail("attempt to apply non-procedure " + writeToString(Callee));
    return;
  }
}

// --- Green-thread scheduler glue (src/sched) --------------------------------
//
// The Scheduler object decides *what* runs next; every actual control
// transfer happens here, built from the same two operations as call/1cc:
// captureOneShot to park the running computation and the one-shot invoke
// path to reinstate the next.  A steady-state switch is therefore a pair of
// pointer swaps — WordsCopied does not move (bench/bench_scheduler.cpp and
// the `sched` tests assert this).

void VM::nativeReturn(Value V, Site St) {
  // Mirrors how enterCall returns an ordinary native's result: either pop
  // back to the caller's frame extent or perform a full tail return.
  Acc = V;
  NumValues = 1;
  if (St.Kind == SiteKind::NonTail) {
    CS.Top = CS.Fp + St.D;
    return;
  }
  returnValues();
}

void VM::schedSaveContext(SchedContext &C) {
  C.Winders = WindersSym->Global;
  C.Nursery = NurserySym->Global;
  C.Prompts = std::move(Prompts);
  Prompts.clear();
  C.Fuel = Fuel;
  C.TimerExpired = TimerExpired;
  C.TimerHandler = TimerHandler;
  Fuel = -1;
  TimerExpired = false;
  TimerHandler = Value();
}

void VM::schedRestoreContext(const SchedContext &C, bool FreshSlice) {
  WindersSym->Global = C.Winders;
  NurserySym->Global = C.Nursery.isEmpty() ? Value::falseV() : C.Nursery;
  Prompts = C.Prompts;
  if (FreshSlice && C.TimerHandler.isEmpty()) {
    // Ordinary thread: it gets a full preemption slice.  A context with an
    // armed engine handler instead resumes under its own timer — an engine
    // running inside a thread keeps its engine semantics.
    TimerHandler = Value();
    TimerExpired = false;
    Fuel = Sched->interval() > 0 ? Sched->interval() : -1;
    return;
  }
  Fuel = C.Fuel;
  TimerExpired = C.TimerExpired;
  TimerHandler = C.TimerHandler;
}

void VM::schedSuspendAndDispatch(Value K, Value Wake, ThreadState NewState) {
  schedSaveContext(Sched->current()->Ctx);
  Sched->suspendCurrent(K, Wake, NewState);
  schedDispatch();
}

void VM::schedDispatch() {
  for (;;) {
    // An empty run queue means the shard has nothing left to run: this
    // turn's queued output goes out now, before the reactor polls,
    // sleepers fast-forward or scheduler-run returns.  The flush point
    // follows the run queue, never the clock, so traces stay
    // deterministic.
    if (Sched->readyCount() == 0 && Rx->hasUnsent())
      ioFlushUnsent();
    Scheduler::Next N = Sched->pickNext();
    switch (N.K) {
    case Scheduler::Next::Start: {
      Scheduler::Thread &T = *N.T;
      S.ContextSwitches += 1;
      Value Thunk = T.Thunk;
      T.Thunk = Value();
      T.Started = true;
      // Fresh dynamic context: the winder list scheduler-run was entered
      // under, the nursery the spawner held at spawn time (spawnThread
      // stashed it in the child's saved context), no inherited prompts,
      // and a full preemption slice.
      WindersSym->Global = Sched->baseWinders();
      NurserySym->Global =
          T.Ctx.Nursery.isEmpty() ? Value::falseV() : T.Ctx.Nursery;
      Prompts.clear();
      TimerHandler = Value();
      TimerExpired = false;
      Fuel = Sched->interval() > 0 ? Sched->interval() : -1;
      // The thread runs on a fresh chain rooted at the thread guard, so
      // returning from the thunk is recognized as thread exit rather than
      // an underflow into whatever computation was current before.
      CS.beginBaseFrame(FrameHeaderWords + 2);
      CS.setLink(ThreadGuard);
      CS.plantBaseFrame();
      enterCall(Thunk, {}, Site{SiteKind::Tail, 0});
      return;
    }
    case Scheduler::Next::Resume: {
      Scheduler::Thread &T = *N.T;
      if (!T.EscapeProc.isEmpty()) {
        // A deadline fired while this thread was parked.  Its one-shot
        // resume point is already poisoned (markShot — it can never be
        // reinstated), so instead of invoking it we run the armed escape
        // thunk on a fresh guard-rooted chain under the thread's restored
        // dynamic context: the thunk unwinds via the with-deadline
        // extent's one-shot k, running pending after-thunks on the way.
        S.ContextSwitches += 1;
        Value Esc = T.EscapeProc;
        T.EscapeProc = Value();
        T.Resume = Value();
        T.Wake = Value();
        schedRestoreContext(T.Ctx, /*FreshSlice=*/true);
        T.Ctx = SchedContext();
        CS.beginBaseFrame(FrameHeaderWords + 2);
        CS.setLink(ThreadGuard);
        CS.plantBaseFrame();
        enterCall(Esc, {}, Site{SiteKind::Tail, 0});
        return;
      }
      if (!T.PendingError.empty()) {
        // The operation this thread was parked on failed underneath it
        // (channel closed under a parked send, EPIPE under a parked
        // write).  Raise it as the run's error, like any in-thread error.
        std::string E = T.PendingError;
        ErrorKind EK = T.PendingErrorKind;
        abortScheduler();
        fail(E, EK);
        return;
      }
      if (T.Resume.identical(ThreadGuard)) {
        // The thread was suspended at its own base frame (its capture
        // degenerated to the chain link): waking it means returning the
        // wake value from the thread's root, i.e. the thread is done.
        Value W = T.Wake;
        Sched->finishCurrent(W);
        continue;
      }
      S.ContextSwitches += 1;
      Value K = T.Resume;
      Value W = T.Wake;
      T.Resume = Value();
      T.Wake = Value();
      schedRestoreContext(T.Ctx, /*FreshSlice=*/true);
      T.Ctx = SchedContext();
      invokeContinuationWithValues(castObj<Continuation>(K), {W});
      return;
    }
    case Scheduler::Next::Finish: {
      // Every thread completed: resume the suspended caller of
      // scheduler-run with the number of threads that ran.  The main
      // computation writes through, so output a full socket held back
      // goes out first.
      if (!ioFlushBlocking())
        return;
      S.ContextSwitches += 1;
      Value K = Sched->mainK();
      Value Count = Value::fixnum(static_cast<int64_t>(Sched->completed()));
      schedRestoreContext(Sched->mainContext(), /*FreshSlice=*/false);
      Sched->endRun();
      if (auto *Kc = dynObj<Continuation>(K)) {
        invokeContinuationWithValues(Kc, {Count});
        return;
      }
      fail("scheduler: lost the main continuation");
      return;
    }
    case Scheduler::Next::Deadlock: {
      if (Rx->waiterCount() > 0) {
        // Not a structural deadlock: threads are parked on fd readiness,
        // which an external peer (or another port in this program) can
        // still provide.  Block in poll(2) until one wakes.
        if (ioPollAndWake(Cfg.IoPollTimeoutMs) || Rx->waiterCount() == 0)
          continue; // Woken, or only Flush waiters were left and drained.
        if (ConnQ && !ConnQ->closed() && Rx->hasWaiter(IoOp::TakeConn)) {
          // A pool worker idling on io-take-conn is not stuck: the accept
          // thread can hand off a connection at any time.  Outwait the
          // timeout instead of failing the shard.
          continue;
        }
        size_t NParked = Rx->waiterCount();
        abortScheduler();
        fail("io: poll timed out with " + std::to_string(NParked) +
                 " thread(s) parked on I/O",
             ErrorKind::Timeout);
        return;
      }
      uint32_t NBlocked = Sched->blockedCount();
      abortScheduler();
      fail("scheduler: deadlock: " + std::to_string(NBlocked) +
           " thread(s) blocked with an empty run queue");
      return;
    }
    }
  }
}

void VM::schedRun(Value IntervalV, Site St) {
  if (!IntervalV.isFixnum()) {
    fail("scheduler-run: interval must be a fixnum, got " +
         writeToString(IntervalV));
    return;
  }
  if (Sched->active()) {
    fail("scheduler-run: the scheduler is already running");
    return;
  }
  if (Sched->readyCount() == 0) {
    nativeReturn(Value::fixnum(0), St); // Nothing spawned: trivial run.
    return;
  }
  Value MainK = captureSiteOneShot(St);
  Sched->beginRun(MainK, IntervalV.asFixnum(), WindersSym->Global);
  schedSaveContext(Sched->mainContext());
  schedDispatch();
}

void VM::schedYield(Site St) {
  if (!Sched->inThread()) {
    nativeReturn(Value::unspecified(), St); // Harmless outside a run.
    return;
  }
  S.VoluntaryYields += 1;
  if (Sched->readyCount() == 0 && Sched->sleeperCount() == 0) {
    nativeReturn(Value::unspecified(), St); // Nobody to switch to.
    return;
  }
  Value K = captureSiteOneShot(St);
  schedSuspendAndDispatch(K, Value::unspecified(), ThreadState::Ready);
}

void VM::schedExit(Value V) {
  if (!Sched->inThread()) {
    fail("thread-exit: no current thread");
    return;
  }
  // Note: like an engine being killed, exiting skips any pending
  // dynamic-wind after-thunks of the thread; the thread's winder list dies
  // with it (docs/INTERNALS.md, § Scheduler).
  Sched->finishCurrent(V);
  schedDispatch();
}

void VM::schedJoin(Value TidV, Site St) {
  Scheduler::Thread *T =
      TidV.isFixnum() ? Sched->lookup(TidV.asFixnum()) : nullptr;
  if (!T) {
    fail("thread-join: not a thread id: " + writeToString(TidV));
    return;
  }
  if (T->State == ThreadState::Done) {
    nativeReturn(T->Result, St); // Join of a finished thread never blocks.
    return;
  }
  if (!Sched->inThread()) {
    fail("thread-join: thread " + std::to_string(T->Id) +
         " has not finished and no scheduler is running "
         "(call scheduler-run first)");
    return;
  }
  if (T == Sched->current()) {
    fail("thread-join: a thread cannot join itself");
    return;
  }
  T->Joiners.push_back(Sched->current()->Id);
  Value K = captureSiteOneShot(St);
  schedSuspendAndDispatch(K, Value::unspecified(), ThreadState::Blocked);
}

void VM::schedSleep(Value TicksV, Site St) {
  if (!TicksV.isFixnum() || TicksV.asFixnum() < 0) {
    fail("thread-sleep!: expected a non-negative number of ticks, got " +
         writeToString(TicksV));
    return;
  }
  if (!Sched->inThread()) {
    fail("thread-sleep!: no current thread");
    return;
  }
  int64_t Ticks = TicksV.asFixnum();
  if (Ticks == 0) {
    nativeReturn(Value::unspecified(), St);
    return;
  }
  Sched->current()->SleepLeft = Ticks;
  Value K = captureSiteOneShot(St);
  schedSuspendAndDispatch(K, Value::unspecified(), ThreadState::Sleeping);
}

Value VM::spawnThread(Value Thunk) {
  uint32_t Tid = Sched->spawn(Thunk);
  Scheduler::Thread *T = Sched->lookup(Tid);
  // Structured concurrency happens at spawn time, not start time: the child
  // inherits the spawner's *nursery* through its saved context (the Start
  // dispatch installs it), and an open nursery records the child so the
  // scope's exit can cancel it.  Doing this here rather than in a prelude
  // wrapper keeps spawn a single native call — programs that never open a
  // nursery execute exactly the same call sequence as before.
  Value N = NurserySym->Global;
  T->Ctx.Nursery = N;
  if (auto *Rec = dynObj<Vector>(N);
      Rec && Rec->Len >= 3 && Rec->Elems[2].isTrue()) {
    // The scope keeps only its live children: finished ones are unlinked
    // in place (no allocation) before the new child is consed on, so a
    // long-lived connection's list does not grow with the requests it has
    // served.  Cancelling a Done thread is a no-op, so the scope's exit
    // behaves exactly as if they were still listed.
    Value *Link = &Rec->Elems[0];
    while (auto *Pr = dynObj<Pair>(*Link)) {
      Scheduler::Thread *C = Sched->lookup(Pr->Car.asFixnum());
      if (C && C->State == ThreadState::Done)
        *Link = Pr->Cdr;
      else
        Link = &Pr->Cdr;
    }
    Rec->Elems[0] =
        Value::object(H.allocPair(Value::fixnum(Tid), Rec->Elems[0]));
  }
  return Value::fixnum(Tid);
}

Value VM::threadCancel(Value TidV) {
  Scheduler::Thread *T =
      TidV.isFixnum() ? Sched->lookup(TidV.asFixnum()) : nullptr;
  if (!T) {
    fail("%thread-cancel!: not a thread id: " + writeToString(TidV));
    return Value();
  }
  if (T->State == ThreadState::Done || T == Sched->current())
    return Value::boolean(false);
  // Deadline-style poisoning (fireThreadDeadline's idiom): mark the parked
  // one-shot resume point shot without reinstating it.  The abandoned
  // suspension can never run again and its stack window is reclaimed by GC
  // — the cancellation copies zero words.
  if (auto *K = dynObj<Continuation>(T->Resume); K && !K->isShot())
    K->markShot();
  // Detach from every structure that could still wake or complete it:
  // channel wait queues and the reactor's waiter registry (fd waits and
  // armed Timer records alike).
  Sched->dropFromChannels(T->Id);
  Rx->dropWaitersFor(T->Id);
  Value Cancelled = Value::object(H.intern("cancelled"));
  return Value::boolean(Sched->cancel(*T, Cancelled));
}

void VM::chanSend(Value ChV, Value V, Site St) {
  Channel *Ch = ChV.isFixnum() ? Sched->channel(ChV.asFixnum()) : nullptr;
  if (!Ch) {
    fail("channel-send!: not a channel: " + writeToString(ChV));
    return;
  }
  if (Ch->closed()) {
    fail("channel-send!: channel " + std::to_string(Ch->id()) + " is closed");
    return;
  }
  Channel::SendResult R = Ch->trySend(V);
  switch (R.K) {
  case Channel::SendResult::Delivered: {
    // A parked receiver takes the value directly; it becomes runnable and
    // its channel-recv call will return V.
    S.ChannelMessages += 1;
    Scheduler::Thread *Rx = Sched->lookup(R.WokenReceiver);
    Sched->wake(*Rx, V);
    nativeReturn(Value::unspecified(), St);
    return;
  }
  case Channel::SendResult::Buffered:
    S.ChannelMessages += 1;
    nativeReturn(Value::unspecified(), St);
    return;
  case Channel::SendResult::MustBlock: {
    if (!Sched->inThread()) {
      fail("channel-send!: channel " + std::to_string(Ch->id()) +
           " is full and no scheduler is running");
      return;
    }
    S.ChannelBlocks += 1;
    Ch->blockSender(Sched->current()->Id, V);
    armBlockTimer();
    Value K = captureSiteOneShot(St);
    schedSuspendAndDispatch(K, Value::unspecified(), ThreadState::Blocked);
    return;
  }
  }
}

void VM::chanRecv(Value ChV, Site St) {
  Channel *Ch = ChV.isFixnum() ? Sched->channel(ChV.asFixnum()) : nullptr;
  if (!Ch) {
    fail("channel-recv: not a channel: " + writeToString(ChV));
    return;
  }
  Channel::RecvResult R = Ch->tryRecv();
  if (R.K == Channel::RecvResult::Got) {
    if (R.WakeSender) {
      // A parked sender's value was accepted (into the buffer, or directly
      // on a rendezvous channel): its channel-send! call completes now.
      S.ChannelMessages += 1;
      Scheduler::Thread *Tx = Sched->lookup(R.WokenSender);
      Sched->wake(*Tx, Value::unspecified());
    }
    nativeReturn(R.V, St);
    return;
  }
  if (Ch->closed()) {
    // A closed channel reads like a stream at end: the buffer (already
    // drained above) then EOF forever.
    nativeReturn(EofObj, St);
    return;
  }
  if (!Sched->inThread()) {
    fail("channel-recv: channel " + std::to_string(Ch->id()) +
         " is empty and no scheduler is running");
    return;
  }
  S.ChannelBlocks += 1;
  Ch->blockReceiver(Sched->current()->Id);
  armBlockTimer();
  Value K = captureSiteOneShot(St);
  schedSuspendAndDispatch(K, Value::unspecified(), ThreadState::Blocked);
}

// --- I/O reactor glue (src/io) ----------------------------------------------
//
// The same park shape as a channel block, with fd readiness as the wake
// condition: try the non-blocking half; if it would block inside a green
// thread, register a PendingIo with the reactor, capture the rest of the
// thread one-shot and dispatch away.  When the run queue drains the
// dispatch loop polls the reactor, re-runs the non-blocking half of each
// ready operation (ioComplete) and wakes its thread — a reinstatement
// that, like every native context switch, copies zero stack words.  The
// main computation (no scheduler) blocks inline in poll(2) instead.

namespace {

/// The port argument of an I/O primitive, or null after VM::fail.
Port *ioPortArg(VM &Vm, const char *Who, Value PortV, Port::Kind Want) {
  Port *P = PortV.isFixnum() ? Vm.reactor().port(PortV.asFixnum()) : nullptr;
  if (!P) {
    Vm.fail(std::string(Who) + ": not a port: " + writeToString(PortV),
            ErrorKind::Io);
    return nullptr;
  }
  if (P->kind() != Want) {
    Vm.fail(std::string(Who) + ": port " + std::to_string(P->id()) +
                (Want == Port::Kind::Listener ? " is not a listener"
                                              : " is not a stream"),
            ErrorKind::Io);
    return nullptr;
  }
  return P;
}

} // namespace

void VM::ioPark(Port *P, int OpRaw, Site St) {
  S.IoParks += 1;
  Scheduler::Thread *T = Sched->current();
  uint32_t Tid = T->Id;
  OSC_TRACE(&Tr, TraceEvent::IoWait, P->id(), static_cast<uint64_t>(OpRaw),
            Tid);
  // Earliest of the thread's armed with-deadline extent and the port's own
  // per-park deadline (slow-client defense); 0 parks untimed.
  uint64_t Tick = currentDeadlineTick();
  if (P->deadlineTicks()) {
    uint64_t PortTick = Rx->nowTick() + P->deadlineTicks();
    if (!Tick || PortTick < Tick)
      Tick = PortTick;
  }
  T->ParkSeq += 1;
  Rx->park(Tid, P->id(), static_cast<IoOp>(OpRaw), Tick, T->ParkSeq);
  if (Rx->waiterCount() > S.IoWaitPeak)
    S.IoWaitPeak = Rx->waiterCount();
  if (Tick && Rx->timedWaiterCount() > S.IoWaitDeadlinePeak)
    S.IoWaitDeadlinePeak = Rx->timedWaiterCount();
  Value K = captureSiteOneShot(St);
  schedSuspendAndDispatch(K, Value::unspecified(), ThreadState::Blocked);
}

void VM::ioReadLine(Value PortV, Site St) {
  Port *P = ioPortArg(*this, "io-read-line", PortV, Port::Kind::Stream);
  if (!P)
    return;
  for (;;) {
    std::string Line;
    if (P->takeLine(Line)) {
      nativeReturn(Value::object(H.allocString(Line)), St);
      return;
    }
    if (P->closed() || P->atEof()) {
      nativeReturn(EofObj, St);
      return;
    }
    uint64_t NIn = 0;
    Port::Io R = P->fillInput(NIn);
    S.BytesRead += NIn;
    if (R == Port::Io::Reset && Sched->inThread()) {
      // A peer reset ends the connection, not the run: reap the port and
      // let takeLine hand out what is buffered, then EOF.
      ioDropPort(P, /*Reason=*/2);
      continue;
    }
    if (R == Port::Io::Error || R == Port::Io::Reset) {
      fail("io-read-line: port " + std::to_string(P->id()) + ": " +
               P->lastError(),
           ErrorKind::Io);
      return;
    }
    if (R == Port::Io::WouldBlock) {
      if (Sched->inThread()) {
        ioPark(P, static_cast<int>(IoOp::ReadLine), St);
        return;
      }
      if (!pollOneFd(P->fd(), /*ForWrite=*/false, Cfg.IoPollTimeoutMs)) {
        fail("io-read-line: timed out waiting on port " +
                 std::to_string(P->id()),
             ErrorKind::Timeout);
        return;
      }
    }
    // Progress or Eof: retry takeLine on the refilled buffer.
  }
}

void VM::ioWrite(Value PortV, Value StrV, Site St) {
  Port *P = ioPortArg(*this, "io-write", PortV, Port::Kind::Stream);
  if (!P)
    return;
  auto *Str = dynObj<String>(StrV);
  if (!Str) {
    fail("io-write: not a string: " + writeToString(StrV));
    return;
  }
  if (P->closed() && Sched->inThread()) {
    // The connection is gone (reaped, reset or closed under us): this
    // writer sees #f, like one that was parked when the port dropped.
    nativeReturn(Value::boolean(false), St);
    return;
  }
  // Inside a thread the string is only queued: the port is written once
  // per flush point however many replies it holds.  A writer whose port
  // is still full from an earlier flush parks as below instead.
  bool Queue = Sched->inThread() && !P->flushBlocked();
  bool WasIdle = !P->outputPending();
  bool Queued = P->queueOutput(Str->view());
  if (!Queued && Queue && !WasIdle) {
    // Output queued this turn was never offered to the peer: write it
    // before judging the peer slow.
    ioFlush(P);
    Queued = !P->closed() && P->queueOutput(Str->view());
  }
  if (!Queued) {
    // The bounded output buffer is full: the peer is not draining what we
    // already owe it.  Buffering without bound would let one slow client
    // hold arbitrary memory, so the connection is dropped instead; the
    // caller sees #f (a dropped connection is an expected overload
    // outcome, not a run error).
    ioDropPort(P, /*Reason=*/0);
    nativeReturn(Value::boolean(false), St);
    return;
  }
  if (Queue && !P->flushBlocked()) {
    if (WasIdle)
      Rx->markUnsent(P->id());
    nativeReturn(Value::unspecified(), St);
    return;
  }
  for (;;) {
    uint64_t NOut = 0;
    Port::Io R = P->flushOutput(NOut);
    S.BytesWritten += NOut;
    if (R == Port::Io::Progress) {
      nativeReturn(Value::unspecified(), St);
      return;
    }
    if (R == Port::Io::Reset && Sched->inThread()) {
      ioDropPort(P, /*Reason=*/2);
      nativeReturn(Value::boolean(false), St);
      return;
    }
    if (R == Port::Io::Error || R == Port::Io::Reset) {
      fail("io-write: port " + std::to_string(P->id()) + ": " +
               P->lastError(),
           ErrorKind::Io);
      return;
    }
    if (Sched->inThread()) {
      ioPark(P, static_cast<int>(IoOp::Write), St);
      return;
    }
    if (!pollOneFd(P->fd(), /*ForWrite=*/true, Cfg.IoPollTimeoutMs)) {
      fail("io-write: timed out waiting on port " + std::to_string(P->id()),
           ErrorKind::Timeout);
      return;
    }
  }
}

void VM::ioAccept(Value PortV, Site St) {
  Port *P = ioPortArg(*this, "io-accept", PortV, Port::Kind::Listener);
  if (!P)
    return;
  for (;;) {
    if (P->closed()) {
      nativeReturn(EofObj, St); // Listener closed: the accept loop is over.
      return;
    }
    int NewFd = P->acceptConn();
    if (NewFd >= 0) {
      uint32_t NewId = Rx->addPort(NewFd, Port::Kind::Stream);
      S.AcceptedConnections += 1;
      OSC_TRACE(&Tr, TraceEvent::Accept, P->id(), NewId);
      nativeReturn(Value::fixnum(NewId), St);
      return;
    }
    if (NewFd == -2) {
      fail("io-accept: port " + std::to_string(P->id()) + ": " +
               P->lastError(),
           ErrorKind::Io);
      return;
    }
    if (Sched->inThread()) {
      ioPark(P, static_cast<int>(IoOp::Accept), St);
      return;
    }
    if (!pollOneFd(P->fd(), /*ForWrite=*/false, Cfg.IoPollTimeoutMs)) {
      fail("io-accept: timed out waiting on port " + std::to_string(P->id()),
           ErrorKind::Timeout);
      return;
    }
  }
}

bool VM::attachConnQueue(ConnQueue *Q, int WakeReadFd, int WakeWriteFd,
                         std::string &Err) {
  if (Q && !Rx->enableWakeupFrom(WakeReadFd, WakeWriteFd, Err))
    return false;
  ConnQ = Q;
  return true;
}

Value VM::ioTryTakeConn() {
  // Drain *before* checking the queue: a notify() that lands after the
  // pop() below leaves its byte in the pipe, so the next poll still wakes.
  // Draining after would open a lost-wakeup window.
  Rx->drainWakeup();
  ConnQueue::Pop R = ConnQ->pop();
  if (R.Fd >= 0) {
    uint32_t NewId = Rx->addAdoptedPort(R.Fd, Port::Kind::Stream);
    S.AcceptedConnections += 1;
    // Same event as io-accept; p0 is the wakeup port standing in for the
    // (remote) listener.  Port ids, never fds, so dumps stay deterministic.
    OSC_TRACE(&Tr, TraceEvent::Accept,
              static_cast<uint32_t>(Rx->wakeupPortId()), NewId);
    if (ConnQ->size() > 0)
      Rx->notify(); // The drain may have eaten other handoffs' bytes; re-arm.
    return Value::fixnum(NewId);
  }
  if (R.Closed)
    return EofObj;
  return Value(); // Empty and still open: the caller parks.
}

void VM::ioTakeConn(Site St) {
  if (!ConnQ || Rx->wakeupPortId() < 0) {
    fail("io-take-conn: no connection queue attached", ErrorKind::Io);
    return;
  }
  Port *Wk = Rx->port(Rx->wakeupPortId());
  for (;;) {
    Value V = ioTryTakeConn();
    if (!V.isEmpty()) {
      nativeReturn(V, St);
      return;
    }
    if (Sched->inThread()) {
      ioPark(Wk, static_cast<int>(IoOp::TakeConn), St);
      return;
    }
    // Main computation: block inline on the wakeup pipe, like any other
    // main-computation I/O.  The idle-worker exemption lives in the
    // scheduler's Deadlock branch, not here: a bare main-loop take-conn
    // honors the configured timeout.
    if (!pollOneFd(Wk->fd(), /*ForWrite=*/false, Cfg.IoPollTimeoutMs)) {
      fail("io-take-conn: timed out waiting for a handoff",
           ErrorKind::Timeout);
      return;
    }
  }
}

bool VM::ioComplete(const PendingIo &P) {
  Port *Pt = Rx->port(P.PortId);
  if (P.Op == IoOp::Flush) {
    // No thread waits on a flush.  It reports a wake only when a failed
    // write reaped the port, which may have woken the port's waiters.
    if (!ioFlush(Pt)) {
      Rx->repark(P);
      return false;
    }
    return Pt->closed();
  }
  Scheduler::Thread *T = Sched->lookup(P.Tid);
  if (!T || T->State != ThreadState::Blocked)
    return false; // Stale waiter (its thread was dropped by an abort).

  auto WakeWith = [&](Value V) {
    S.IoWakes += 1;
    OSC_TRACE(&Tr, TraceEvent::IoReady, P.PortId,
              static_cast<uint64_t>(P.Op), P.Tid);
    Sched->wake(*T, V);
    return true;
  };
  auto Poison = [&](const std::string &E) {
    T->PendingError = E;
    T->PendingErrorKind = ErrorKind::Io;
    return WakeWith(Value::unspecified());
  };

  switch (P.Op) {
  case IoOp::ReadLine: {
    std::string Line;
    if (Pt->takeLine(Line))
      return WakeWith(Value::object(H.allocString(Line)));
    if (Pt->closed() || Pt->atEof())
      return WakeWith(EofObj);
    uint64_t NIn = 0;
    Port::Io R = Pt->fillInput(NIn);
    S.BytesRead += NIn;
    if (Pt->takeLine(Line))
      return WakeWith(Value::object(H.allocString(Line)));
    if (R == Port::Io::Eof)
      return WakeWith(EofObj); // No terminated tail either: end of stream.
    if (R == Port::Io::Reset) {
      Rx->repark(P); // Rejoin the port's waiter list; the drop wakes it.
      ioDropPort(Pt, /*Reason=*/2);
      return true;
    }
    if (R == Port::Io::Error)
      return Poison("io-read-line: port " + std::to_string(Pt->id()) + ": " +
                    Pt->lastError());
    Rx->repark(P); // Bytes (or none) but no full line yet.
    return false;
  }
  case IoOp::Write: {
    if (Pt->closed())
      return Poison("io-write: port " + std::to_string(Pt->id()) +
                    " was closed while a write was parked");
    uint64_t NOut = 0;
    Port::Io R = Pt->flushOutput(NOut);
    S.BytesWritten += NOut;
    if (R == Port::Io::Progress)
      return WakeWith(Value::unspecified());
    if (R == Port::Io::Reset) {
      Rx->repark(P);
      ioDropPort(Pt, /*Reason=*/2);
      return true;
    }
    if (R == Port::Io::Error)
      return Poison("io-write: port " + std::to_string(Pt->id()) + ": " +
                    Pt->lastError());
    Rx->repark(P);
    return false;
  }
  case IoOp::Close:
    if (!Pt->closed() && !ioFlush(Pt)) {
      Rx->repark(P);
      return false;
    }
    ioClosePort(Pt); // Wakes whoever else waits on the port.
    return WakeWith(Value::unspecified());
  case IoOp::Accept: {
    if (Pt->closed())
      return WakeWith(EofObj);
    int NewFd = Pt->acceptConn();
    if (NewFd >= 0) {
      uint32_t NewId = Rx->addPort(NewFd, Port::Kind::Stream);
      S.AcceptedConnections += 1;
      S.AcceptBatches += 1;
      OSC_TRACE(&Tr, TraceEvent::Accept, Pt->id(), NewId);
      return WakeWith(Value::fixnum(NewId));
    }
    if (NewFd == -2)
      return Poison("io-accept: port " + std::to_string(Pt->id()) + ": " +
                    Pt->lastError());
    Rx->repark(P);
    return false;
  }
  case IoOp::TakeConn: {
    if (!ConnQ)
      return Poison("io-take-conn: the connection queue was detached while "
                    "a take was parked");
    Value V = ioTryTakeConn();
    if (!V.isEmpty()) {
      // One park-wake that delivered a connection = one batch; handoffs
      // taken without re-parking (the loop in ioTakeConn / the non-empty
      // tries above) ride the same batch, so Accepted/Batches measures
      // how many fds each wakeup carried.
      if (V.isFixnum())
        S.AcceptBatches += 1;
      return WakeWith(V);
    }
    Rx->repark(P); // Spurious wakeup (another waiter won the race).
    return false;
  }
  case IoOp::Timer: // Never fd-ready; only ever expires.
  case IoOp::Flush: // Handled above.
    break;
  }
  oscUnreachable("bad IoOp");
}

// --- The deadline wheel (timed parks, with-deadline, slow-client reaping) ----

uint64_t VM::msToTicks(int64_t Ms) const {
  int64_t Per = Cfg.PollTickMs > 0 ? Cfg.PollTickMs : 1;
  int64_t T = Ms / Per;
  return T < 1 ? 1 : static_cast<uint64_t>(T);
}

Value VM::deadlinePush(Value MsV, Value Proc) {
  if (!MsV.isFixnum() || MsV.asFixnum() < 0) {
    fail("with-deadline: milliseconds must be a non-negative fixnum, got " +
         writeToString(MsV));
    return Value::unspecified();
  }
  uint64_t Id = ++NextDeadlineId;
  // Outside a green thread there is no park to cancel, so the record is
  // not armed — but a fresh id is still returned so the surrounding
  // dynamic-wind's push/pop stays balanced.
  if (Sched->inThread())
    Sched->current()->Deadlines.push_back(
        {Id, Rx->nowTick() + msToTicks(MsV.asFixnum()), Proc});
  return Value::fixnum(static_cast<int64_t>(Id));
}

Value VM::deadlinePop(Value IdV) {
  Scheduler::Thread *T = Sched->current();
  if (!T || !IdV.isFixnum())
    return Value::boolean(false);
  uint64_t Id = static_cast<uint64_t>(IdV.asFixnum());
  auto &Ds = T->Deadlines;
  // By id, innermost first — never by position, so the pop survives any
  // one-shot escape that already removed or reordered inner extents.
  for (auto It = Ds.end(); It != Ds.begin();) {
    --It;
    if (It->Id == Id) {
      Ds.erase(It);
      return Value::boolean(true);
    }
  }
  return Value::boolean(false);
}

uint64_t VM::currentDeadlineTick() {
  Scheduler::Thread *T = Sched->current();
  if (!T)
    return 0;
  uint64_t Min = 0;
  for (const Scheduler::DeadlineRec &D : T->Deadlines)
    if (!Min || D.Tick < Min)
      Min = D.Tick;
  return Min;
}

void VM::armBlockTimer() {
  uint64_t Tick = currentDeadlineTick();
  if (!Tick)
    return;
  // The thread is about to block on a channel — somewhere the reactor
  // cannot see — under an armed with-deadline.  An fd-less Timer waiter
  // carries the deadline into the poll loop; the park generation lets a
  // timer whose thread already woke through the channel be discarded as
  // stale at expiry (lazy cancellation: timers are never searched for).
  Scheduler::Thread *T = Sched->current();
  T->ParkSeq += 1;
  Rx->parkTimer(T->Id, Tick, T->ParkSeq);
  if (Rx->timedWaiterCount() > S.IoWaitDeadlinePeak)
    S.IoWaitDeadlinePeak = Rx->timedWaiterCount();
}

bool VM::fireThreadDeadline(uint32_t Tid, uint32_t PortId, int OpRaw) {
  Scheduler::Thread *T = Sched->lookup(Tid);
  if (!T || T->State != ThreadState::Blocked)
    return false;
  // The record to honor: earliest expiry tick, innermost extent (highest
  // id) on ties.  It is NOT popped here — the escape thunk unwinds through
  // with-deadline's dynamic-wind, whose after-thunk pops it by id.
  Scheduler::DeadlineRec *R = nullptr;
  for (Scheduler::DeadlineRec &D : T->Deadlines)
    if (D.Tick <= Rx->nowTick() &&
        (!R || D.Tick < R->Tick || (D.Tick == R->Tick && D.Id > R->Id)))
      R = &D;
  S.Timeouts += 1;
  OSC_TRACE(&Tr, TraceEvent::IoTimeout,
            PortId == PendingIo::NoPort ? 0 : PortId,
            static_cast<uint64_t>(OpRaw), Tid);
  // Poison the parked resume point: mark the one-shot shot without
  // reinstating it.  The abandoned suspension can never be resumed (the
  // invoke path rejects shot continuations) and its stack window is
  // reclaimed by GC — the cancellation copies zero words.
  // (The thread-root guard is itself permanently shot, so a degenerate
  // base-frame capture is naturally excluded.)
  if (auto *K = dynObj<Continuation>(T->Resume); K && !K->isShot())
    K->markShot();
  T->Resume = Value();
  // The thread may be parked in a channel's wait queue; nothing must
  // deliver to or wake it after this point.
  Sched->dropFromChannels(Tid);
  if (R) {
    T->EscapeProc = R->Proc;
    Sched->wake(*T, Value::unspecified());
  } else {
    // No armed extent (a bare timed park, or the extents were already
    // popped): surface a trappable run-level timeout instead.
    T->PendingError = "io: deadline expired while parked on " +
                      std::string(ioOpName(static_cast<IoOp>(OpRaw)));
    T->PendingErrorKind = ErrorKind::Timeout;
    Sched->wake(*T, Value::unspecified());
  }
  return true;
}

void VM::ioDropPort(Port *P, uint64_t Reason) {
  if (!P || P->closed())
    return;
  OSC_TRACE(&Tr, TraceEvent::IoDrop, P->id(), Reason);
  S.ConnsReaped += 1;
  if (P->kind() == Port::Kind::Stream)
    S.ConnectionsClosed += 1;
  std::vector<PendingIo> Ws = Rx->takeWaitersFor(P->id());
  P->closeNow();
  // Unlike io-close (whose parked writers get poisoned — closing under a
  // parked write is a program error there), a reaped connection is an
  // expected overload outcome: readers wake with the buffered tail or
  // EOF, writers with #f.
  for (const PendingIo &W : Ws) {
    Scheduler::Thread *T = Sched->lookup(W.Tid);
    if (!T || T->State != ThreadState::Blocked)
      continue;
    S.IoWakes += 1;
    OSC_TRACE(&Tr, TraceEvent::IoReady, W.PortId, static_cast<uint64_t>(W.Op),
              W.Tid);
    if (W.Op == IoOp::Write) {
      Sched->wake(*T, Value::boolean(false));
    } else if (W.Op == IoOp::Close) {
      Sched->wake(*T, Value::unspecified());
    } else {
      std::string Line;
      Sched->wake(*T, P->takeLine(Line) ? Value::object(H.allocString(Line))
                                        : EofObj);
    }
  }
}

bool VM::ioExpire(const PendingIo &P) {
  if (P.Op == IoOp::Timer) {
    // Valid only if its thread is still in the same park it was armed for;
    // otherwise the thread already woke through the channel and this timer
    // is stale (lazily cancelled).
    Scheduler::Thread *T = Sched->lookup(P.Tid);
    if (!T || T->State != ThreadState::Blocked || T->ParkSeq != P.ParkSeq)
      return false;
    return fireThreadDeadline(P.Tid, PendingIo::NoPort,
                              static_cast<int>(P.Op));
  }
  Scheduler::Thread *T = Sched->lookup(P.Tid);
  if (!T || T->State != ThreadState::Blocked || T->ParkSeq != P.ParkSeq)
    return false;
  // An fd wait expired.  An armed with-deadline extent wins (the escape
  // fires and the connection survives); otherwise this was the port's own
  // deadline — slow-client defense — and the connection is reaped.
  bool HasRecord = false;
  for (const Scheduler::DeadlineRec &D : T->Deadlines)
    if (D.Tick <= Rx->nowTick())
      HasRecord = true;
  Port *Pt = Rx->port(P.PortId);
  if (!HasRecord && Pt && Pt->deadlineTicks()) {
    S.Timeouts += 1;
    OSC_TRACE(&Tr, TraceEvent::IoTimeout, P.PortId,
              static_cast<uint64_t>(P.Op), P.Tid);
    Rx->repark(P); // Rejoin the port's waiter list; the drop wakes it.
    ioDropPort(Pt, /*Reason=*/1);
    return true;
  }
  return fireThreadDeadline(P.Tid, P.PortId, static_cast<int>(P.Op));
}

bool VM::ioPollAndWake(int TimeoutMs) {
  auto Start = std::chrono::steady_clock::now();
  while (Rx->waiterCount() > 0) {
    std::vector<PendingIo> Expired;
    std::vector<PendingIo> Ready = Rx->takeReady(TimeoutMs, &Expired);
    bool Woke = false;
    // Readiness first (it beat the deadline inside the batch), then expiry
    // — both lists arrive in the reactor's deterministic order.
    for (const PendingIo &P : Ready)
      Woke |= ioComplete(P);
    for (const PendingIo &P : Expired)
      Woke |= ioExpire(P);
    if (Woke)
      return true;
    if (Ready.empty() && Expired.empty()) {
      if (Rx->timedWaiterCount() == 0)
        return false; // The full-length poll timed out.
      // Deadlines armed: each batch was clamped to one tick, so keep
      // ticking until the configured wall budget is spent.
      auto Spent = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - Start)
                       .count();
      if (TimeoutMs >= 0 && Spent >= TimeoutMs)
        return false;
    }
    // Events that woke nobody (re-parks, stale timers): poll again.
  }
  return false;
}

void VM::ioClosePort(Port *P) {
  if (!P)
    return;
  // Wake everyone parked on this port first: with the fd closed, each
  // completion sees EOF (readers drain any buffered tail), and parked
  // writers are poisoned with a trappable error.
  std::vector<PendingIo> Ws = Rx->takeWaitersFor(P->id());
  if (P->kind() == Port::Kind::Stream && !P->closed())
    S.ConnectionsClosed += 1;
  P->closeNow();
  // A closed port never re-parks: every completion wakes (or the waiter
  // was stale and its thread already gone).
  for (const PendingIo &W : Ws)
    ioComplete(W);
}

void VM::ioClose(Value PortV, Site St) {
  Port *P = PortV.isFixnum() ? Rx->port(PortV.asFixnum()) : nullptr;
  if (!P) {
    fail("io-close: not a port: " + writeToString(PortV));
    return;
  }
  // Queued output goes out before the fd does.  The main computation
  // writes through, so only a thread can find bytes still queued here.
  if (Sched->inThread() && P->outputPending() && !P->closed() &&
      !ioFlush(P)) {
    ioPark(P, static_cast<int>(IoOp::Close), St);
    return;
  }
  ioClosePort(P);
  nativeReturn(Value::unspecified(), St);
}

bool VM::ioFlush(Port *P) {
  uint64_t NOut = 0;
  Port::Io R = P->flushOutput(NOut);
  S.BytesWritten += NOut;
  if (R == Port::Io::WouldBlock)
    return false;
  if (R != Port::Io::Progress)
    ioDropPort(P, /*Reason=*/2); // No writer to poison: reap the port.
  return true;
}

void VM::ioFlushUnsent() {
  for (uint32_t Id : Rx->takeUnsent()) {
    Port *P = Rx->port(Id);
    if (!P->closed() && P->outputPending() && !ioFlush(P))
      Rx->parkFlush(Id);
  }
}

bool VM::ioFlushBlocking() {
  for (const PendingIo &W : Rx->takeWaitersDoing(IoOp::Flush)) {
    Port *P = Rx->port(W.PortId);
    while (!ioFlush(P)) {
      if (!pollOneFd(P->fd(), /*ForWrite=*/true, Cfg.IoPollTimeoutMs)) {
        abortScheduler();
        fail("io-write: timed out waiting on port " + std::to_string(W.PortId),
             ErrorKind::Timeout);
        return false;
      }
    }
  }
  return true;
}

void VM::abortScheduler() {
  Sched->abortRun();
  Rx->clearWaiters(); // Their threads were just dropped.
}

// --- The interpreter loop ---------------------------------------------------------

VM::RunResult VM::run(Code *Toplevel) {
  Failed = false;
  Halted = false;
  ErrMsg.clear();
  ErrKind = ErrorKind::None;
  FinalValue = Value::unspecified();
  Acc = Value::unspecified();
  NumValues = 1;
  Fuel = -1;
  TimerExpired = false;
  TimerHandler = Value();
  PreemptTick = 0;
  PreemptCursor = 0;
  if (Sched->active())
    abortScheduler(); // A previous run died mid-switch; drop its threads.

  try {
    CS.reset();
    CS.beginBaseFrame(std::max(Toplevel->MaxDepth, 2u));
    CS.plantBaseFrame();
    Cur = Toplevel;
    CurCodeVal = Value::object(Toplevel);
    Pc = 1; // Pc 0 holds the entry frame-size word.
    interpLoop();
  } catch (const SegmentAllocFault &F) {
    // An injected allocation failure (FaultPlan::FailSegmentAlloc).  The
    // control stack mutated nothing before throwing, so the next run's
    // reset() starts from a consistent state; only this result is lost.
    fail("stack segment allocation failed (injected fault at request #" +
             std::to_string(F.Ordinal) + ", " +
             std::to_string(F.RequestedWords) + " words)",
         ErrorKind::Fault);
    if (Sched->active())
      abortScheduler();
    Cur = nullptr; // The backtrace walk is not meaningful mid-surgery.
  }

  RunResult R;
  if (Failed) {
    R.Ok = false;
    R.Error = ErrMsg;
    R.Kind = ErrKind == ErrorKind::None ? ErrorKind::Runtime : ErrKind;
    if (Cur)
      R.Backtrace = captureBacktrace();
    return R;
  }
  R.Ok = true;
  R.Val = FinalValue;
  return R;
}


// --- The dispatch loop -------------------------------------------------------
//
// Both loop bodies below are generated from vm/VMDispatch.inc; see that
// file for the shared-handler structure and the mode-invariance rules.

// Computed goto (the GNU labels-as-values extension) backs the threaded
// loop; where it is unavailable — or explicitly disabled with
// -DOSC_NO_COMPUTED_GOTO — both Config::ThreadedDispatch settings run the
// portable switch loop, which is semantically identical.
#if defined(__GNUC__) && !defined(OSC_NO_COMPUTED_GOTO)
#define OSC_COMPUTED_GOTO 1
#else
#define OSC_COMPUTED_GOTO 0
#endif

void VM::interpLoop() {
#if OSC_COMPUTED_GOTO
  if (Cfg.ThreadedDispatch)
    return interpLoopThreaded();
#endif
  interpLoopSwitch();
}

void VM::interpLoopSwitch() {
#define OSC_DISPATCH_THREADED 0
#include "vm/VMDispatch.inc"
#undef OSC_DISPATCH_THREADED
}

#if OSC_COMPUTED_GOTO

void VM::interpLoopThreaded() {
#define OSC_DISPATCH_THREADED 1
#include "vm/VMDispatch.inc"
#undef OSC_DISPATCH_THREADED
}

#else

void VM::interpLoopThreaded() { interpLoopSwitch(); }

#endif
