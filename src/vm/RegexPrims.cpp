//===----------------------------------------------------------------------===//
///
/// \file
/// Scheme bindings for the regex subsystem (src/regex): compilation to a
/// RegexProg heap object, whole-string match/search, and the streaming
/// matcher used by the MATCH/STREAM protocol verb.  All of these are
/// plain natives — the executor never parks — so regex work composes
/// freely with one-shot captures around it (a feed inside a generator
/// body suspends between chunks, not inside the engine).
///
//===----------------------------------------------------------------------===//

#include "vm/VM.h"

#include "regex/Regex.h"
#include "sexp/Printer.h"

#include <string>
#include <vector>

using namespace osc;

namespace {

RegexProg *progArg(Value V) { return dynObj<RegexProg>(V); }

String *stringArg(Value V) { return dynObj<String>(V); }

/// Loads the engine's flat view from a matcher heap object.  Steps is
/// zeroed so the store below can accumulate just this call's work.
regex::Machine loadMachine(RegexStream *S, RegexProg *P) {
  regex::Machine M;
  M.Prog = P->Instrs;
  M.NInstrs = P->NInstrs;
  M.Threads = S->Threads;
  M.NThreads = S->NThreads;
  M.Offset = S->Offset;
  M.BestStart = S->BestStart;
  M.BestEnd = S->BestEnd;
  M.Mode = S->Mode;
  M.Decided = S->Decided;
  M.SpawnDead = S->SpawnDead;
  M.Steps = 0;
  return M;
}

void storeMachine(VM &Vm, RegexStream *S, const regex::Machine &M) {
  S->NThreads = M.NThreads;
  S->Offset = M.Offset;
  S->BestStart = M.BestStart;
  S->BestEnd = M.BestEnd;
  S->Mode = M.Mode;
  S->Decided = M.Decided;
  S->SpawnDead = M.SpawnDead;
  S->Steps += M.Steps;
  Vm.stats().RegexSteps += M.Steps;
}

/// The scalar outcome of a whole-string run (the thread array is gone by
/// the time the caller looks).
struct RunResult {
  uint8_t Decided;
  int64_t Start;
  int64_t End;
};

RunResult runWhole(VM &Vm, RegexProg *P, std::string_view Text,
                   uint8_t Mode) {
  // One thread list per OS thread, grown to the largest program run on
  // it, so a warm whole-string run allocates nothing.
  thread_local std::vector<RegexThread> Threads;
  if (Threads.size() < P->NInstrs)
    Threads.resize(P->NInstrs);
  regex::Machine M;
  M.Prog = P->Instrs;
  M.NInstrs = P->NInstrs;
  M.Threads = Threads.data();
  M.Mode = Mode;
  regex::init(M);
  regex::feed(M, Text);
  regex::finish(M);
  Vm.stats().RegexExecs += 1;
  Vm.stats().RegexBytesScanned += M.Offset;
  Vm.stats().RegexSteps += M.Steps;
  return {M.Decided, M.BestStart, M.BestEnd};
}

/// Renders a settled decision as the Scheme-facing result: a
/// (start . end) pair on a match, the symbol nomatch otherwise.
Value decisionValue(VM &Vm, uint8_t Decided, int64_t Start, int64_t End) {
  if (Decided == regex::Matched)
    return Value::object(
        Vm.heap().allocPair(Value::fixnum(Start), Value::fixnum(End)));
  return Value::object(Vm.heap().intern("nomatch"));
}

Value compileTo(VM &Vm, Value PatV, bool Trappable) {
  auto *Pat = stringArg(PatV);
  if (!Pat)
    return Vm.fail("regex-compile: expects a pattern string, got " +
                   writeToString(PatV));
  regex::ProgramBuffer Buf;
  std::string Err;
  if (!regex::compile(Pat->view(), Buf, Err)) {
    if (!Trappable)
      return Value::falseV();
    return Vm.fail("regex-compile: " + Err + " in pattern \"" +
                   std::string(Pat->view()) + "\"");
  }
  Vm.stats().RegexCompiles += 1;
  return Value::object(Vm.heap().allocRegexProg(PatV, Buf.data(), Buf.size()));
}

Value primRegexCompile(VM &Vm, Value *A, uint32_t) {
  return compileTo(Vm, A[0], /*Trappable=*/true);
}

/// Like regex-compile but yields #f instead of an error — the serving
/// protocol uses this so a client's bad pattern answers ERR rather than
/// unwinding the connection thread.
Value primRegexTryCompile(VM &Vm, Value *A, uint32_t) {
  return compileTo(Vm, A[0], /*Trappable=*/false);
}

Value primRegexP(VM &, Value *A, uint32_t) {
  return isObj<RegexProg>(A[0]) ? Value::trueV() : Value::falseV();
}

Value primRegexProgramSize(VM &Vm, Value *A, uint32_t) {
  auto *P = progArg(A[0]);
  if (!P)
    return Vm.fail("regex-program-size: expects a compiled regex");
  return Value::fixnum(P->NInstrs);
}

Value primRegexMatch(VM &Vm, Value *A, uint32_t) {
  auto *P = progArg(A[0]);
  if (!P)
    return Vm.fail("regex-match: expects a compiled regex");
  auto *S = stringArg(A[1]);
  if (!S)
    return Vm.fail("regex-match: expects a string to match");
  RunResult R = runWhole(Vm, P, S->view(), regex::ModeFull);
  return R.Decided == regex::Matched ? Value::trueV() : Value::falseV();
}

Value primRegexSearch(VM &Vm, Value *A, uint32_t) {
  auto *P = progArg(A[0]);
  if (!P)
    return Vm.fail("regex-search: expects a compiled regex");
  auto *S = stringArg(A[1]);
  if (!S)
    return Vm.fail("regex-search: expects a string to search");
  RunResult R = runWhole(Vm, P, S->view(), regex::ModeSearch);
  if (R.Decided != regex::Matched)
    return Value::falseV();
  return Value::object(
      Vm.heap().allocPair(Value::fixnum(R.Start), Value::fixnum(R.End)));
}

Value primRegexStream(VM &Vm, Value *A, uint32_t) {
  auto *P = progArg(A[0]);
  if (!P)
    return Vm.fail("regex-stream: expects a compiled regex");
  RegexStream *S = Vm.heap().allocRegexStream(A[0], P->NInstrs);
  regex::Machine M = loadMachine(S, P);
  M.Mode = regex::ModeSearch;
  regex::init(M);
  storeMachine(Vm, S, M);
  Vm.stats().RegexExecs += 1;
  return Value::object(S);
}

RegexStream *streamArg(VM &Vm, Value V, const char *Who) {
  auto *S = dynObj<RegexStream>(V);
  if (!S) {
    Vm.fail(std::string(Who) + ": expects a regex stream matcher");
    return nullptr;
  }
  return S;
}

Value primRegexStreamFeed(VM &Vm, Value *A, uint32_t) {
  auto *S = streamArg(Vm, A[0], "regex-stream-feed!");
  if (!S)
    return Value::falseV();
  auto *Chunk = stringArg(A[1]);
  if (!Chunk)
    return Vm.fail("regex-stream-feed!: expects a string chunk");
  auto *P = castObj<RegexProg>(S->Prog);
  regex::Machine M = loadMachine(S, P);
  uint64_t Before = M.Offset;
  regex::feed(M, Chunk->view());
  Vm.stats().RegexStreamFeeds += 1;
  Vm.stats().RegexBytesScanned += M.Offset - Before;
  storeMachine(Vm, S, M);
  if (S->Decided == regex::Undecided)
    return Value::falseV();
  return decisionValue(Vm, S->Decided, S->BestStart, S->BestEnd);
}

Value primRegexStreamEnd(VM &Vm, Value *A, uint32_t) {
  auto *S = streamArg(Vm, A[0], "regex-stream-end!");
  if (!S)
    return Value::falseV();
  auto *P = castObj<RegexProg>(S->Prog);
  regex::Machine M = loadMachine(S, P);
  regex::finish(M);
  storeMachine(Vm, S, M);
  return decisionValue(Vm, S->Decided, S->BestStart, S->BestEnd);
}

Value primRegexStreamDoneP(VM &Vm, Value *A, uint32_t) {
  auto *S = streamArg(Vm, A[0], "regex-stream-done?");
  if (!S)
    return Value::falseV();
  return S->Decided != regex::Undecided ? Value::trueV() : Value::falseV();
}

Value primRegexStreamOffset(VM &Vm, Value *A, uint32_t) {
  auto *S = streamArg(Vm, A[0], "regex-stream-offset");
  if (!S)
    return Value::falseV();
  return Value::fixnum(static_cast<int64_t>(S->Offset));
}

const NativeDef RegexDefs[] = {
    {"regex-compile", primRegexCompile, 1, 1},
    {"regex-try-compile", primRegexTryCompile, 1, 1},
    {"regex?", primRegexP, 1, 1},
    {"regex-program-size", primRegexProgramSize, 1, 1},
    {"regex-match", primRegexMatch, 2, 2},
    {"regex-search", primRegexSearch, 2, 2},
    {"regex-stream", primRegexStream, 1, 1},
    {"regex-stream-feed!", primRegexStreamFeed, 2, 2},
    {"regex-stream-end!", primRegexStreamEnd, 1, 1},
    {"regex-stream-done?", primRegexStreamDoneP, 1, 1},
    {"regex-stream-offset", primRegexStreamOffset, 1, 1},
};

} // namespace

void osc::installRegexPrimitives(VM &Vm) { Vm.defineNatives(RegexDefs); }
