#include "vm/VM.h"

#include "io/Reactor.h"
#include "object/ListUtil.h"
#include "sched/Scheduler.h"
#include "sexp/Printer.h"
#include "sexp/Reader.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>

using namespace osc;

namespace {

// --- Numeric helpers ----------------------------------------------------------

bool isNumber(Value V) { return V.isFixnum() || isObj<Flonum>(V); }

double asDouble(Value V) {
  return V.isFixnum() ? static_cast<double>(V.asFixnum())
                      : castObj<Flonum>(V)->D;
}

Value requireNumber(VM &Vm, Value V, const char *Who) {
  if (!isNumber(V))
    return Vm.fail(std::string(Who) + ": not a number: " + writeToString(V));
  return V;
}

template <typename FixOp, typename FloOp>
Value numFold(VM &Vm, Value *Args, uint32_t N, int64_t Unit, FixOp Fx,
              FloOp Fl, const char *Who) {
  bool AnyFlo = false;
  for (uint32_t I = 0; I != N; ++I) {
    if (!isNumber(Args[I]))
      return Vm.fail(std::string(Who) +
                     ": not a number: " + writeToString(Args[I]));
    AnyFlo |= isObj<Flonum>(Args[I]);
  }
  if (!AnyFlo) {
    int64_t Acc = N ? Args[0].asFixnum() : Unit;
    if (N == 1 && (Who[0] == '-' || Who[0] == '/'))
      return Value::fixnum(Fx(Unit, Acc));
    for (uint32_t I = 1; I < N; ++I)
      Acc = Fx(Acc, Args[I].asFixnum());
    return Value::fixnum(Acc);
  }
  double Acc = N ? asDouble(Args[0]) : static_cast<double>(Unit);
  if (N == 1 && (Who[0] == '-' || Who[0] == '/'))
    return Value::object(Vm.heap().allocFlonum(Fl(Unit, Acc)));
  for (uint32_t I = 1; I < N; ++I)
    Acc = Fl(Acc, asDouble(Args[I]));
  return Value::object(Vm.heap().allocFlonum(Acc));
}

template <typename Cmp>
Value numCompare(VM &Vm, Value *Args, uint32_t N, Cmp C, const char *Who) {
  for (uint32_t I = 0; I != N; ++I)
    if (!isNumber(Args[I]))
      return Vm.fail(std::string(Who) +
                     ": not a number: " + writeToString(Args[I]));
  for (uint32_t I = 0; I + 1 < N; ++I) {
    bool Ok;
    if (Args[I].isFixnum() && Args[I + 1].isFixnum())
      Ok = C(Args[I].asFixnum(), Args[I + 1].asFixnum());
    else
      Ok = C(asDouble(Args[I]), asDouble(Args[I + 1]));
    if (!Ok)
      return Value::falseV();
  }
  return Value::trueV();
}

// --- Numeric primitives ---------------------------------------------------------

Value primAdd(VM &Vm, Value *A, uint32_t N) {
  return numFold(
      Vm, A, N, 0, [](int64_t X, int64_t Y) { return X + Y; },
      [](double X, double Y) { return X + Y; }, "+");
}
Value primSub(VM &Vm, Value *A, uint32_t N) {
  return numFold(
      Vm, A, N, 0, [](int64_t X, int64_t Y) { return X - Y; },
      [](double X, double Y) { return X - Y; }, "-");
}
Value primMul(VM &Vm, Value *A, uint32_t N) {
  return numFold(
      Vm, A, N, 1, [](int64_t X, int64_t Y) { return X * Y; },
      [](double X, double Y) { return X * Y; }, "*");
}
Value primDiv(VM &Vm, Value *A, uint32_t N) {
  double Acc = asDouble(requireNumber(Vm, A[0], "/"));
  if (Vm.failed())
    return Value::unspecified();
  if (N == 1)
    return Value::object(Vm.heap().allocFlonum(1.0 / Acc));
  for (uint32_t I = 1; I != N; ++I) {
    double D = asDouble(requireNumber(Vm, A[I], "/"));
    if (Vm.failed())
      return Value::unspecified();
    Acc /= D;
  }
  return Value::object(Vm.heap().allocFlonum(Acc));
}
Value primQuotient(VM &Vm, Value *A, uint32_t) {
  if (!A[0].isFixnum() || !A[1].isFixnum())
    return Vm.fail("quotient: expects fixnums");
  if (A[1].asFixnum() == 0)
    return Vm.fail("quotient: division by zero");
  return Value::fixnum(A[0].asFixnum() / A[1].asFixnum());
}
Value primRemainder(VM &Vm, Value *A, uint32_t) {
  if (!A[0].isFixnum() || !A[1].isFixnum())
    return Vm.fail("remainder: expects fixnums");
  if (A[1].asFixnum() == 0)
    return Vm.fail("remainder: division by zero");
  return Value::fixnum(A[0].asFixnum() % A[1].asFixnum());
}
Value primModulo(VM &Vm, Value *A, uint32_t) {
  if (!A[0].isFixnum() || !A[1].isFixnum())
    return Vm.fail("modulo: expects fixnums");
  int64_t X = A[0].asFixnum(), Y = A[1].asFixnum();
  if (Y == 0)
    return Vm.fail("modulo: division by zero");
  int64_t M = X % Y;
  if (M != 0 && ((M < 0) != (Y < 0)))
    M += Y;
  return Value::fixnum(M);
}
Value primLt(VM &Vm, Value *A, uint32_t N) {
  return numCompare(Vm, A, N, [](auto X, auto Y) { return X < Y; }, "<");
}
Value primLe(VM &Vm, Value *A, uint32_t N) {
  return numCompare(Vm, A, N, [](auto X, auto Y) { return X <= Y; }, "<=");
}
Value primGt(VM &Vm, Value *A, uint32_t N) {
  return numCompare(Vm, A, N, [](auto X, auto Y) { return X > Y; }, ">");
}
Value primGe(VM &Vm, Value *A, uint32_t N) {
  return numCompare(Vm, A, N, [](auto X, auto Y) { return X >= Y; }, ">=");
}
Value primNumEq(VM &Vm, Value *A, uint32_t N) {
  return numCompare(Vm, A, N, [](auto X, auto Y) { return X == Y; }, "=");
}
Value primAbs(VM &Vm, Value *A, uint32_t) {
  if (A[0].isFixnum())
    return Value::fixnum(std::abs(A[0].asFixnum()));
  if (auto *F = dynObj<Flonum>(A[0]))
    return Value::object(Vm.heap().allocFlonum(std::fabs(F->D)));
  return Vm.fail("abs: not a number: " + writeToString(A[0]));
}
Value primMin(VM &Vm, Value *A, uint32_t N) {
  Value Best = A[0];
  for (uint32_t I = 1; I != N; ++I) {
    requireNumber(Vm, A[I], "min");
    if (Vm.failed())
      return Value::unspecified();
    if (asDouble(A[I]) < asDouble(Best))
      Best = A[I];
  }
  return Best;
}
Value primMax(VM &Vm, Value *A, uint32_t N) {
  Value Best = A[0];
  for (uint32_t I = 1; I != N; ++I) {
    requireNumber(Vm, A[I], "max");
    if (Vm.failed())
      return Value::unspecified();
    if (asDouble(A[I]) > asDouble(Best))
      Best = A[I];
  }
  return Best;
}
Value primEven(VM &Vm, Value *A, uint32_t) {
  if (!A[0].isFixnum())
    return Vm.fail("even?: expects a fixnum");
  return Value::boolean(A[0].asFixnum() % 2 == 0);
}
Value primOdd(VM &Vm, Value *A, uint32_t) {
  if (!A[0].isFixnum())
    return Vm.fail("odd?: expects a fixnum");
  return Value::boolean(A[0].asFixnum() % 2 != 0);
}

// --- Type predicates --------------------------------------------------------------

Value primNumberP(VM &, Value *A, uint32_t) {
  return Value::boolean(isNumber(A[0]));
}
Value primIntegerP(VM &, Value *A, uint32_t) {
  if (A[0].isFixnum())
    return Value::trueV();
  if (auto *F = dynObj<Flonum>(A[0]))
    return Value::boolean(F->D == std::floor(F->D));
  return Value::falseV();
}
Value primBooleanP(VM &, Value *A, uint32_t) {
  return Value::boolean(A[0].isBoolean());
}
Value primSymbolP(VM &, Value *A, uint32_t) {
  return Value::boolean(isObj<Symbol>(A[0]));
}
Value primStringP(VM &, Value *A, uint32_t) {
  return Value::boolean(isObj<String>(A[0]));
}
Value primCharP(VM &, Value *A, uint32_t) {
  return Value::boolean(A[0].isChar());
}
Value primVectorP(VM &, Value *A, uint32_t) {
  return Value::boolean(isObj<Vector>(A[0]));
}
Value primProcedureP(VM &, Value *A, uint32_t) {
  return Value::boolean(isObj<Closure>(A[0]) || isObj<Native>(A[0]) ||
                        isObj<Continuation>(A[0]));
}
Value primListP(VM &, Value *A, uint32_t) {
  return Value::boolean(isProperList(A[0]));
}
Value primEqv(VM &, Value *A, uint32_t) {
  return Value::boolean(schemeEqv(A[0], A[1]));
}
Value primEqual(VM &, Value *A, uint32_t) {
  return Value::boolean(schemeEqual(A[0], A[1]));
}

// --- Pairs and lists ----------------------------------------------------------------

Value primSetCar(VM &Vm, Value *A, uint32_t) {
  if (auto *P = dynObj<Pair>(A[0])) {
    P->Car = A[1];
    return Value::unspecified();
  }
  return Vm.fail("set-car!: not a pair");
}
Value primSetCdr(VM &Vm, Value *A, uint32_t) {
  if (auto *P = dynObj<Pair>(A[0])) {
    P->Cdr = A[1];
    return Value::unspecified();
  }
  return Vm.fail("set-cdr!: not a pair");
}
Value primList(VM &Vm, Value *A, uint32_t N) {
  Value L = Value::nil();
  for (uint32_t I = N; I-- > 0;)
    L = cons(Vm.heap(), A[I], L);
  return L;
}
Value primLength(VM &Vm, Value *A, uint32_t) {
  int64_t N = listLength(A[0]);
  if (N < 0)
    return Vm.fail("length: not a proper list: " + writeToString(A[0]));
  return Value::fixnum(N);
}
Value primAppend(VM &Vm, Value *A, uint32_t N) {
  if (N == 0)
    return Value::nil();
  Value Result = A[N - 1];
  for (uint32_t I = N - 1; I-- > 0;) {
    std::vector<Value> Elems;
    if (!listToVector(A[I], Elems))
      return Vm.fail("append: not a proper list: " + writeToString(A[I]));
    for (auto It = Elems.rbegin(); It != Elems.rend(); ++It)
      Result = cons(Vm.heap(), *It, Result);
  }
  return Result;
}
Value primReverse(VM &Vm, Value *A, uint32_t) {
  Value L = A[0];
  Value R = Value::nil();
  while (isObj<Pair>(L)) {
    R = cons(Vm.heap(), car(L), R);
    L = cdr(L);
  }
  if (!L.isNil())
    return Vm.fail("reverse: not a proper list");
  return R;
}
Value primListTail(VM &Vm, Value *A, uint32_t) {
  if (!A[1].isFixnum())
    return Vm.fail("list-tail: bad index");
  Value L = A[0];
  for (int64_t I = A[1].asFixnum(); I-- > 0;) {
    if (!isObj<Pair>(L))
      return Vm.fail("list-tail: index out of range");
    L = cdr(L);
  }
  return L;
}
Value primListRef(VM &Vm, Value *A, uint32_t N) {
  Value Tail = primListTail(Vm, A, N);
  if (Vm.failed())
    return Tail;
  if (!isObj<Pair>(Tail))
    return Vm.fail("list-ref: index out of range");
  return car(Tail);
}

template <bool UseEqv, bool UseEqual>
Value memGeneric(VM &Vm, Value *A, const char *Who) {
  Value L = A[1];
  while (isObj<Pair>(L)) {
    Value X = car(L);
    bool Hit = UseEqual ? schemeEqual(X, A[0])
                        : (UseEqv ? schemeEqv(X, A[0]) : X.identical(A[0]));
    if (Hit)
      return L;
    L = cdr(L);
  }
  if (!L.isNil())
    return Vm.fail(std::string(Who) + ": not a proper list");
  return Value::falseV();
}
Value primMemq(VM &Vm, Value *A, uint32_t) {
  return memGeneric<false, false>(Vm, A, "memq");
}
Value primMemv(VM &Vm, Value *A, uint32_t) {
  return memGeneric<true, false>(Vm, A, "memv");
}
Value primMember(VM &Vm, Value *A, uint32_t) {
  return memGeneric<false, true>(Vm, A, "member");
}

template <bool UseEqv, bool UseEqual>
Value assGeneric(VM &Vm, Value *A, const char *Who) {
  Value L = A[1];
  while (isObj<Pair>(L)) {
    Value Entry = car(L);
    if (isObj<Pair>(Entry)) {
      Value K = car(Entry);
      bool Hit = UseEqual ? schemeEqual(K, A[0])
                          : (UseEqv ? schemeEqv(K, A[0]) : K.identical(A[0]));
      if (Hit)
        return Entry;
    }
    L = cdr(L);
  }
  if (!L.isNil())
    return Vm.fail(std::string(Who) + ": not a proper list");
  return Value::falseV();
}
Value primAssq(VM &Vm, Value *A, uint32_t) {
  return assGeneric<false, false>(Vm, A, "assq");
}
Value primAssv(VM &Vm, Value *A, uint32_t) {
  return assGeneric<true, false>(Vm, A, "assv");
}
Value primAssoc(VM &Vm, Value *A, uint32_t) {
  return assGeneric<false, true>(Vm, A, "assoc");
}

// --- Vectors --------------------------------------------------------------------------

Value primMakeVector(VM &Vm, Value *A, uint32_t N) {
  if (!A[0].isFixnum() || A[0].asFixnum() < 0)
    return Vm.fail("make-vector: bad length");
  Value Fill = N >= 2 ? A[1] : Value::unspecified();
  return Value::object(
      Vm.heap().allocVector(static_cast<uint32_t>(A[0].asFixnum()), Fill));
}
Value primVector(VM &Vm, Value *A, uint32_t N) {
  Vector *V = Vm.heap().allocVector(N);
  for (uint32_t I = 0; I != N; ++I)
    V->set(I, A[I]);
  return Value::object(V);
}
Value primVectorLength(VM &Vm, Value *A, uint32_t) {
  if (auto *V = dynObj<Vector>(A[0]))
    return Value::fixnum(V->Len);
  return Vm.fail("vector-length: not a vector");
}
Value primVectorRef(VM &Vm, Value *A, uint32_t) {
  auto *V = dynObj<Vector>(A[0]);
  if (!V || !A[1].isFixnum())
    return Vm.fail("vector-ref: bad arguments");
  int64_t I = A[1].asFixnum();
  if (I < 0 || I >= V->Len)
    return Vm.fail("vector-ref: index out of range");
  return V->Elems[I];
}
Value primVectorSet(VM &Vm, Value *A, uint32_t) {
  auto *V = dynObj<Vector>(A[0]);
  if (!V || !A[1].isFixnum())
    return Vm.fail("vector-set!: bad arguments");
  int64_t I = A[1].asFixnum();
  if (I < 0 || I >= V->Len)
    return Vm.fail("vector-set!: index out of range");
  V->Elems[I] = A[2];
  return Value::unspecified();
}
Value primVectorToList(VM &Vm, Value *A, uint32_t) {
  auto *V = dynObj<Vector>(A[0]);
  if (!V)
    return Vm.fail("vector->list: not a vector");
  Value L = Value::nil();
  for (uint32_t I = V->Len; I-- > 0;)
    L = cons(Vm.heap(), V->Elems[I], L);
  return L;
}
Value primListToVector(VM &Vm, Value *A, uint32_t) {
  std::vector<Value> Elems;
  if (!listToVector(A[0], Elems))
    return Vm.fail("list->vector: not a proper list");
  Vector *V = Vm.heap().allocVector(static_cast<uint32_t>(Elems.size()));
  for (uint32_t I = 0; I != Elems.size(); ++I)
    V->set(I, Elems[I]);
  return Value::object(V);
}
Value primVectorFill(VM &Vm, Value *A, uint32_t) {
  auto *V = dynObj<Vector>(A[0]);
  if (!V)
    return Vm.fail("vector-fill!: not a vector");
  for (uint32_t I = 0; I != V->Len; ++I)
    V->Elems[I] = A[1];
  return Value::unspecified();
}

// --- Strings, chars, symbols --------------------------------------------------------------

Value primStringLength(VM &Vm, Value *A, uint32_t) {
  if (auto *S = dynObj<String>(A[0]))
    return Value::fixnum(S->Len);
  return Vm.fail("string-length: not a string");
}
Value primStringAppend(VM &Vm, Value *A, uint32_t N) {
  std::string Out;
  for (uint32_t I = 0; I != N; ++I) {
    auto *S = dynObj<String>(A[I]);
    if (!S)
      return Vm.fail("string-append: not a string");
    Out += S->view();
  }
  return Value::object(Vm.heap().allocString(Out));
}
Value primSubstring(VM &Vm, Value *A, uint32_t) {
  auto *S = dynObj<String>(A[0]);
  if (!S || !A[1].isFixnum() || !A[2].isFixnum())
    return Vm.fail("substring: bad arguments");
  int64_t B = A[1].asFixnum(), E = A[2].asFixnum();
  if (B < 0 || E < B || E > S->Len)
    return Vm.fail("substring: index out of range");
  return Value::object(Vm.heap().allocString(S->view().substr(B, E - B)));
}
Value primStringEq(VM &Vm, Value *A, uint32_t N) {
  for (uint32_t I = 0; I != N; ++I)
    if (!isObj<String>(A[I]))
      return Vm.fail("string=?: not a string");
  for (uint32_t I = 0; I + 1 < N; ++I)
    if (castObj<String>(A[I])->view() != castObj<String>(A[I + 1])->view())
      return Value::falseV();
  return Value::trueV();
}
Value primStringLt(VM &Vm, Value *A, uint32_t) {
  if (!isObj<String>(A[0]) || !isObj<String>(A[1]))
    return Vm.fail("string<?: not a string");
  return Value::boolean(castObj<String>(A[0])->view() <
                        castObj<String>(A[1])->view());
}
Value primStringRef(VM &Vm, Value *A, uint32_t) {
  auto *S = dynObj<String>(A[0]);
  if (!S || !A[1].isFixnum())
    return Vm.fail("string-ref: bad arguments");
  int64_t I = A[1].asFixnum();
  if (I < 0 || I >= S->Len)
    return Vm.fail("string-ref: index out of range");
  return Value::charV(static_cast<unsigned char>(S->Data[I]));
}
Value primStringToSymbol(VM &Vm, Value *A, uint32_t) {
  auto *S = dynObj<String>(A[0]);
  if (!S)
    return Vm.fail("string->symbol: not a string");
  return Value::object(Vm.heap().intern(S->view()));
}
Value primSymbolToString(VM &Vm, Value *A, uint32_t) {
  auto *S = dynObj<Symbol>(A[0]);
  if (!S)
    return Vm.fail("symbol->string: not a symbol");
  return Value::object(Vm.heap().allocString(S->name()));
}
Value primNumberToString(VM &Vm, Value *A, uint32_t) {
  if (A[0].isFixnum()) {
    // The printer's digits without its ostringstream: every EVAL reply,
    // FOUND reply and STREAM part formats its numbers here.
    char Buf[24]; // a sign and 19 digits cover every int64_t
    char *End = std::to_chars(Buf, Buf + sizeof Buf, A[0].asFixnum()).ptr;
    return Value::object(Vm.heap().allocString(
        std::string_view(Buf, static_cast<size_t>(End - Buf))));
  }
  if (!isNumber(A[0]))
    return Vm.fail("number->string: not a number");
  return Value::object(Vm.heap().allocString(writeToString(A[0])));
}
Value primStringToNumber(VM &Vm, Value *A, uint32_t) {
  auto *S = dynObj<String>(A[0]);
  if (!S)
    return Vm.fail("string->number: not a string");
  errno = 0;
  char *End = nullptr;
  long long N = std::strtoll(S->Data, &End, 10);
  if (errno == 0 && End == S->Data + S->Len && S->Len > 0)
    return Value::fixnum(N);
  errno = 0;
  double D = std::strtod(S->Data, &End);
  if (errno == 0 && End == S->Data + S->Len && S->Len > 0)
    return Value::object(Vm.heap().allocFlonum(D));
  return Value::falseV();
}
Value primCharToInteger(VM &Vm, Value *A, uint32_t) {
  if (!A[0].isChar())
    return Vm.fail("char->integer: not a character");
  return Value::fixnum(A[0].asChar());
}
Value primIntegerToChar(VM &Vm, Value *A, uint32_t) {
  if (!A[0].isFixnum() || A[0].asFixnum() < 0)
    return Vm.fail("integer->char: bad code point");
  return Value::charV(static_cast<uint32_t>(A[0].asFixnum()));
}
Value primGensym(VM &Vm, Value *, uint32_t) {
  static uint64_t Counter = 0;
  return Value::object(
      Vm.heap().intern(" gensym" + std::to_string(Counter++)));
}

// --- Output ----------------------------------------------------------------------------------

Value primDisplay(VM &Vm, Value *A, uint32_t) {
  Vm.writeOutput(displayToString(A[0]));
  return Value::unspecified();
}
Value primWrite(VM &Vm, Value *A, uint32_t) {
  Vm.writeOutput(writeToString(A[0]));
  return Value::unspecified();
}
Value primNewline(VM &Vm, Value *, uint32_t) {
  Vm.writeOutput("\n");
  return Value::unspecified();
}
Value primStringToList(VM &Vm, Value *A, uint32_t) {
  auto *S = dynObj<String>(A[0]);
  if (!S)
    return Vm.fail("string->list: not a string");
  Value L = Value::nil();
  for (uint32_t I = S->Len; I-- > 0;)
    L = cons(Vm.heap(), Value::charV(static_cast<unsigned char>(S->Data[I])),
             L);
  return L;
}
Value primListToString(VM &Vm, Value *A, uint32_t) {
  std::vector<Value> Chars;
  if (!listToVector(A[0], Chars))
    return Vm.fail("list->string: not a proper list");
  std::string Out;
  for (Value C : Chars) {
    if (!C.isChar())
      return Vm.fail("list->string: not a character: " + writeToString(C));
    Out.push_back(static_cast<char>(C.asChar()));
  }
  return Value::object(Vm.heap().allocString(Out));
}
/// (sort lst less?) with \p less? restricted to the builtin orderings the
/// VM can call directly (<, >, string<?); general procedures would need a
/// VM re-entry, which natives deliberately cannot do.
Value primSortNumeric(VM &Vm, Value *A, uint32_t) {
  std::vector<Value> Elems;
  if (!listToVector(A[0], Elems))
    return Vm.fail("sort-numbers: not a proper list");
  for (Value V : Elems)
    if (!V.isFixnum() && !isObj<Flonum>(V))
      return Vm.fail("sort-numbers: not a number: " + writeToString(V));
  std::stable_sort(Elems.begin(), Elems.end(), [](Value X, Value Y) {
    double A = X.isFixnum() ? static_cast<double>(X.asFixnum())
                            : castObj<Flonum>(X)->D;
    double B = Y.isFixnum() ? static_cast<double>(Y.asFixnum())
                            : castObj<Flonum>(Y)->D;
    return A < B;
  });
  return listFromVector(Vm.heap(), Elems);
}

// --- Control / meta -----------------------------------------------------------------------------

Value primError(VM &Vm, Value *A, uint32_t N) {
  std::string Msg = "error: ";
  Msg += displayToString(A[0]);
  for (uint32_t I = 1; I != N; ++I)
    Msg += " " + writeToString(A[I]);
  return Vm.fail(Msg);
}
Value primGc(VM &Vm, Value *, uint32_t) {
  Vm.heap().collect();
  return Value::unspecified();
}
Value primContinuationP(VM &, Value *A, uint32_t) {
  return Value::boolean(isObj<Continuation>(A[0]));
}
Value primContinuationOneShotP(VM &Vm, Value *A, uint32_t) {
  auto *K = dynObj<Continuation>(A[0]);
  if (!K)
    return Vm.fail("%continuation-one-shot?: not a continuation");
  return Value::boolean(K->isOneShot());
}
Value primContinuationShotP(VM &Vm, Value *A, uint32_t) {
  auto *K = dynObj<Continuation>(A[0]);
  if (!K)
    return Vm.fail("%continuation-shot?: not a continuation");
  return Value::boolean(K->isShot());
}
Value primSetTimer(VM &Vm, Value *A, uint32_t) {
  if (!A[0].isFixnum() || A[0].asFixnum() <= 0)
    return Vm.fail("%set-timer!: ticks must be a positive fixnum");
  Vm.setTimer(A[0].asFixnum(), A[1]);
  return Value::unspecified();
}
Value primStopTimer(VM &Vm, Value *, uint32_t) {
  return Value::fixnum(Vm.stopTimer());
}
Value primCurrentTimeNs(VM &, Value *, uint32_t) {
  auto Now = std::chrono::steady_clock::now().time_since_epoch();
  return Value::fixnum(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Now).count());
}
Value primVmStat(VM &Vm, Value *A, uint32_t) {
  auto *Sym = dynObj<Symbol>(A[0]);
  if (!Sym)
    return Vm.fail("vm-stat: expects a symbol");
  const Stats &St = Vm.stats();
  std::string_view N = Sym->name();
  uint64_t V;
  if (N == "bytes-allocated")
    V = St.BytesAllocated;
  else if (N == "closures-allocated")
    V = St.ClosuresAllocated;
  else if (N == "gc-count")
    V = St.GcCount;
  else if (N == "segments-allocated")
    V = St.SegmentsAllocated;
  else if (N == "segment-cache-hits")
    V = St.SegmentCacheHits;
  else if (N == "multi-shot-captures")
    V = St.MultiShotCaptures;
  else if (N == "one-shot-captures")
    V = St.OneShotCaptures;
  else if (N == "multi-shot-invokes")
    V = St.MultiShotInvokes;
  else if (N == "one-shot-invokes")
    V = St.OneShotInvokes;
  else if (N == "promotions")
    V = St.Promotions;
  else if (N == "words-copied")
    V = St.WordsCopied;
  else if (N == "underflows")
    V = St.Underflows;
  else if (N == "overflows")
    V = St.Overflows;
  else if (N == "splits")
    V = St.Splits;
  else if (N == "instructions")
    V = St.Instructions;
  else if (N == "procedure-calls")
    V = St.ProcedureCalls;
  else if (N == "cache-hits")
    V = St.CacheHits;
  else if (N == "cache-misses")
    V = St.CacheMisses;
  else if (N == "empty-captures")
    V = St.EmptyCaptures;
  else if (N == "context-switches")
    V = St.ContextSwitches;
  else if (N == "preemptive-switches")
    V = St.PreemptiveSwitches;
  else if (N == "voluntary-yields")
    V = St.VoluntaryYields;
  else if (N == "channel-blocks")
    V = St.ChannelBlocks;
  else if (N == "run-queue-peak")
    V = St.RunQueuePeak;
  else if (N == "thread-slot-peak")
    V = St.ThreadSlotPeak;
  else if (N == "port-slot-peak")
    V = St.PortSlotPeak;
  else if (N == "threads-spawned")
    V = St.ThreadsSpawned;
  else if (N == "channel-messages")
    V = St.ChannelMessages;
  else if (N == "channels-closed")
    V = St.ChannelsClosed;
  else if (N == "io-parks")
    V = St.IoParks;
  else if (N == "io-wakes")
    V = St.IoWakes;
  else if (N == "io-wait-peak")
    V = St.IoWaitPeak;
  else if (N == "bytes-read")
    V = St.BytesRead;
  else if (N == "bytes-written")
    V = St.BytesWritten;
  else if (N == "accepted-connections")
    V = St.AcceptedConnections;
  else if (N == "accept-batches")
    V = St.AcceptBatches;
  else if (N == "connections-closed")
    V = St.ConnectionsClosed;
  else if (N == "requests-served")
    V = St.RequestsServed;
  else if (N == "timeouts")
    V = St.Timeouts;
  else if (N == "requests-shed")
    V = St.RequestsShed;
  else if (N == "conns-reaped")
    V = St.ConnsReaped;
  else if (N == "worker-restarts")
    V = St.WorkerRestarts;
  else if (N == "io-wait-deadline-peak")
    V = St.IoWaitDeadlinePeak;
  else if (N == "prompt-resets")
    V = St.PromptResets;
  else if (N == "slice-captures")
    V = St.SliceCaptures;
  else if (N == "slice-splices")
    V = St.SliceSplices;
  else if (N == "slice-cloned-words")
    V = St.SliceClonedWords;
  else if (N == "handlers-installed")
    V = St.HandlersInstalled;
  else if (N == "performs")
    V = St.Performs;
  else if (N == "nursery-cancels")
    V = St.NurseryCancels;
  else if (N == "regex-compiles")
    V = St.RegexCompiles;
  else if (N == "regex-execs")
    V = St.RegexExecs;
  else if (N == "regex-stream-feeds")
    V = St.RegexStreamFeeds;
  else if (N == "regex-bytes-scanned")
    V = St.RegexBytesScanned;
  else if (N == "regex-steps")
    V = St.RegexSteps;
  else
    return Vm.fail("vm-stat: unknown counter: " + std::string(N));
  return Value::fixnum(static_cast<int64_t>(V));
}
Value primVmResidentStackWords(VM &Vm, Value *, uint32_t) {
  return Value::fixnum(
      static_cast<int64_t>(Vm.control().residentSegmentWords()));
}
Value primVmLiveSegmentWords(VM &Vm, Value *, uint32_t) {
  Vm.heap().collect();
  return Value::fixnum(static_cast<int64_t>(Vm.heap().segmentWordsInHeap()));
}
Value primVmChainLength(VM &Vm, Value *, uint32_t) {
  return Value::fixnum(Vm.control().chainLength());
}
Value primVmCacheSize(VM &Vm, Value *, uint32_t) {
  return Value::fixnum(static_cast<int64_t>(Vm.control().cacheSize()));
}

// --- The event tracer (support/Trace.h) -------------------------------------

Value primTraceStart(VM &Vm, Value *, uint32_t) {
  Vm.trace().start();
  return Value::unspecified();
}
Value primTraceStop(VM &Vm, Value *, uint32_t) {
  Vm.trace().stop();
  return Value::unspecified();
}
Value primTraceDump(VM &Vm, Value *A, uint32_t N) {
  // (trace-dump) or (trace-dump 'text) -> one line per event;
  // (trace-dump 'json) -> Chrome about:tracing JSON.
  bool Json = false;
  if (N == 1) {
    auto *Sym = dynObj<Symbol>(A[0]);
    if (!Sym || (Sym->name() != "text" && Sym->name() != "json"))
      return Vm.fail("trace-dump: expected 'text or 'json");
    Json = Sym->name() == "json";
  }
  // Note: while recording is on, building the string itself emits alloc
  // events (visible in a later dump, not this one); stop first for a
  // stable buffer.
  std::string Dump = Json ? Vm.trace().toChromeJson() : Vm.trace().toString();
  return Value::object(Vm.heap().allocString(Dump));
}
Value primTraceEventCount(VM &Vm, Value *, uint32_t) {
  return Value::fixnum(static_cast<int64_t>(Vm.trace().emitted()));
}
Value primTraceWind(VM &Vm, Value *A, uint32_t) {
  // Called by the prelude's dynamic-wind machinery: 0 = extent entered,
  // nonzero = extent exited.  A plain flag-check native so the wind paths
  // stay pure Scheme while still appearing in the event stream.
  Trace &T = Vm.trace();
  if (T.enabled())
    T.emit(A[0].isFixnum() && A[0].asFixnum() != 0 ? TraceEvent::WindExit
                                                   : TraceEvent::WindEnter);
  return Value::unspecified();
}

// --- Green threads and channels (src/sched) ---------------------------------
//
// Thread and channel handles are fixnum ids into the scheduler's tables:
// cheap and printable.  A detached thread's handle stays valid until the
// thread ends; after that it reads as done, and its slot may be reused
// under a new handle.  The switching operations (%yield, %join, ...) are
// specials dispatched in the VM loop; the ones below never transfer
// control and are ordinary natives.

Value primSpawn(VM &Vm, Value *A, uint32_t) {
  if (!isObj<Closure>(A[0]) && !isObj<Native>(A[0]))
    return Vm.fail("spawn: not a procedure: " + writeToString(A[0]));
  return Vm.spawnThread(A[0]);
}
Value primSpawnDetached(VM &Vm, Value *A, uint32_t) {
  if (!isObj<Closure>(A[0]) && !isObj<Native>(A[0]))
    return Vm.fail("spawn-detached: not a procedure: " + writeToString(A[0]));
  return Vm.spawnThread(A[0], /*Detached=*/true);
}
Value primSelf(VM &Vm, Value *, uint32_t) {
  Scheduler::Thread *T = Vm.scheduler().current();
  return T ? Value::fixnum(static_cast<int64_t>(T->Id)) : Value::falseV();
}
Value primThreadCancel(VM &Vm, Value *A, uint32_t) {
  // Never transfers control (the target is by definition not the running
  // thread), so it stays an ordinary native; the VM does the poisoning.
  return Vm.threadCancel(A[0]);
}
Value primThreadState(VM &Vm, Value *A, uint32_t) {
  Scheduler::Thread *T =
      A[0].isFixnum() ? Vm.scheduler().lookup(A[0].asFixnum()) : nullptr;
  if (!T && A[0].isFixnum() && Vm.scheduler().freed(A[0].asFixnum()))
    return Value::object(Vm.heap().intern(threadStateName(ThreadState::Done)));
  if (!T)
    return Vm.fail("thread-state: not a thread id: " + writeToString(A[0]));
  return Value::object(Vm.heap().intern(threadStateName(T->State)));
}
Value primChanMake(VM &Vm, Value *A, uint32_t) {
  if (!A[0].isFixnum() || A[0].asFixnum() < 0)
    return Vm.fail("make-channel: capacity must be a non-negative fixnum");
  return Value::fixnum(static_cast<int64_t>(
      Vm.scheduler().makeChannel(static_cast<uint32_t>(A[0].asFixnum()))));
}
Value primChanTrySend(VM &Vm, Value *A, uint32_t) {
  Channel *Ch =
      A[0].isFixnum() ? Vm.scheduler().channel(A[0].asFixnum()) : nullptr;
  if (!Ch)
    return Vm.fail("channel-try-send!: not a channel: " + writeToString(A[0]));
  Channel::SendResult R = Ch->trySend(A[1]);
  if (R.K == Channel::SendResult::MustBlock)
    return Value::falseV();
  Vm.stats().ChannelMessages += 1;
  if (R.K == Channel::SendResult::Delivered)
    Vm.scheduler().wake(*Vm.scheduler().lookup(R.WokenReceiver), A[1]);
  return Value::trueV();
}
Value primChanTryRecv(VM &Vm, Value *A, uint32_t) {
  Channel *Ch =
      A[0].isFixnum() ? Vm.scheduler().channel(A[0].asFixnum()) : nullptr;
  if (!Ch)
    return Vm.fail("channel-try-recv: not a channel: " + writeToString(A[0]));
  Channel::RecvResult R = Ch->tryRecv();
  if (R.K == Channel::RecvResult::MustBlock)
    return Value::falseV();
  if (R.WakeSender) {
    Vm.stats().ChannelMessages += 1;
    Vm.scheduler().wake(*Vm.scheduler().lookup(R.WokenSender),
                        Value::unspecified());
  }
  // A #f payload is indistinguishable from "empty"; callers that send #f
  // should wrap it (documented with the prelude shim).
  return R.V;
}
Value primChanLength(VM &Vm, Value *A, uint32_t) {
  Channel *Ch =
      A[0].isFixnum() ? Vm.scheduler().channel(A[0].asFixnum()) : nullptr;
  if (!Ch)
    return Vm.fail("channel-length: not a channel: " + writeToString(A[0]));
  return Value::fixnum(static_cast<int64_t>(Ch->buffered()));
}
Value primChanCapacity(VM &Vm, Value *A, uint32_t) {
  Channel *Ch =
      A[0].isFixnum() ? Vm.scheduler().channel(A[0].asFixnum()) : nullptr;
  if (!Ch)
    return Vm.fail("channel-capacity: not a channel: " + writeToString(A[0]));
  return Value::fixnum(Ch->capacity());
}

Value primChanClose(VM &Vm, Value *A, uint32_t) {
  Channel *Ch =
      A[0].isFixnum() ? Vm.scheduler().channel(A[0].asFixnum()) : nullptr;
  if (!Ch)
    return Vm.fail("channel-close!: not a channel: " + writeToString(A[0]));
  if (Ch->closed())
    return Value::unspecified(); // Idempotent.
  Channel::CloseResult R = Ch->close();
  Vm.stats().ChannelsClosed += 1;
  Trace &T = Vm.trace();
  if (T.enabled())
    T.emit(TraceEvent::ChanClose, Ch->id(), R.Receivers.size(),
           R.Senders.size());
  // Wake everyone parked on the channel, in park order: receivers resume
  // with the EOF sentinel (the values their senders carried are handed
  // out first by the normal refill path, so nothing is reordered), and
  // senders are poisoned with a trappable error — their value has nowhere
  // to go.
  Scheduler &Sc = Vm.scheduler();
  for (Handle Tid : R.Receivers)
    Sc.wake(*Sc.lookup(static_cast<int64_t>(Tid)), Vm.eofObject());
  for (const Channel::PendingSend &P : R.Senders) {
    Scheduler::Thread *St = Sc.lookup(static_cast<int64_t>(P.Tid));
    St->PendingError = "channel-send!: channel " + std::to_string(Ch->id()) +
                       " was closed while a send was parked";
    Sc.wake(*St, Value::unspecified());
  }
  return Value::unspecified();
}
Value primChanClosedP(VM &Vm, Value *A, uint32_t) {
  Channel *Ch =
      A[0].isFixnum() ? Vm.scheduler().channel(A[0].asFixnum()) : nullptr;
  if (!Ch)
    return Vm.fail("channel-closed?: not a channel: " + writeToString(A[0]));
  return Value::boolean(Ch->closed());
}

// --- Ports and the I/O reactor (src/io) --------------------------------------
//
// Port handles are fixnum ids into the reactor's table, mirroring thread
// and channel handles.  A closed stream port's record is freed once its
// buffered input is read; its handle then names a closed, empty port.
// The blocking operations (%io-read-line, %io-write, %io-accept,
// %io-close) are specials dispatched in the VM loop; everything below
// never parks and runs as an ordinary native.

Value primOpenPipe(VM &Vm, Value *, uint32_t) {
  int R = -1, W = -1;
  std::string Err;
  if (!openPipePair(R, W, Err))
    return Vm.fail("open-pipe: " + Err);
  Reactor &Rx = Vm.reactor();
  Handle Rid = Rx.addPort(R, Port::Kind::Stream);
  Handle Wid = Rx.addPort(W, Port::Kind::Stream);
  return cons(Vm.heap(), Value::fixnum(static_cast<int64_t>(Rid)),
              Value::fixnum(static_cast<int64_t>(Wid)));
}
Value primOpenSocketpair(VM &Vm, Value *, uint32_t) {
  int A = -1, B = -1;
  std::string Err;
  if (!openSocketPairFds(A, B, Err))
    return Vm.fail("open-socketpair: " + Err);
  Reactor &Rx = Vm.reactor();
  Handle Aid = Rx.addPort(A, Port::Kind::Stream);
  Handle Bid = Rx.addPort(B, Port::Kind::Stream);
  return cons(Vm.heap(), Value::fixnum(static_cast<int64_t>(Aid)),
              Value::fixnum(static_cast<int64_t>(Bid)));
}
Value primIoListen(VM &Vm, Value *A, uint32_t N) {
  uint16_t Port16 = 0;
  if (N == 1) {
    if (!A[0].isFixnum() || A[0].asFixnum() < 0 || A[0].asFixnum() > 65535)
      return Vm.fail("io-listen: port must be a fixnum in 0..65535");
    Port16 = static_cast<uint16_t>(A[0].asFixnum());
  }
  std::string Err;
  int Fd = openListener(Port16, /*Backlog=*/128, Err);
  if (Fd < 0)
    return Vm.fail("io-listen: " + Err);
  Handle Id = Vm.reactor().addPort(Fd, Port::Kind::Listener);
  Vm.reactor().port(static_cast<int64_t>(Id))->setTcpPort(Port16);
  return Value::fixnum(static_cast<int64_t>(Id));
}
Port *portArg(VM &Vm, const char *Who, Value V) {
  Port *P = V.isFixnum() ? Vm.reactor().port(V.asFixnum()) : nullptr;
  if (!P)
    Vm.fail(std::string(Who) + ": not a port: " + writeToString(V));
  return P;
}
Value primIoTcpPort(VM &Vm, Value *A, uint32_t) {
  Port *P = portArg(Vm, "io-tcp-port", A[0]);
  if (!P)
    return Value::unspecified();
  return Value::fixnum(P->tcpPort());
}
Value primIoClosedP(VM &Vm, Value *A, uint32_t) {
  Port *P = portArg(Vm, "io-closed?", A[0]);
  if (!P)
    return Value::unspecified();
  return Value::boolean(P->closed());
}
Value primIoTryAccept(VM &Vm, Value *A, uint32_t) {
  // (io-try-accept listener): the non-parking half of io-accept — one
  // pending connection's fresh port id, #f when the backlog is empty,
  // the EOF object when the listener is closed.  The ReusePort worker's
  // shutdown path drains its backlog with this before closing the
  // listener, so connections the kernel already completed get served
  // instead of reset.
  Port *P = portArg(Vm, "io-try-accept", A[0]);
  if (!P)
    return Value::unspecified();
  if (P->kind() != Port::Kind::Listener)
    return Vm.fail("io-try-accept: not a listener: " + writeToString(A[0]),
                   ErrorKind::Io);
  if (P->closed())
    return Vm.eofObject();
  int NewFd = P->acceptConn();
  if (NewFd >= 0) {
    Handle NewId = Vm.reactor().addPort(NewFd, Port::Kind::Stream);
    Vm.stats().AcceptedConnections += 1;
    OSC_TRACE(&Vm.trace(), TraceEvent::Accept, P->id(), NewId);
    return Value::fixnum(static_cast<int64_t>(NewId));
  }
  if (NewFd == -2)
    return Vm.fail("io-try-accept: port " + std::to_string(P->id()) + ": " +
                       P->lastError(),
                   ErrorKind::Io);
  return Value::boolean(false);
}
Value primStringToDatum(VM &Vm, Value *A, uint32_t) {
  auto *S = dynObj<String>(A[0]);
  if (!S)
    return Vm.fail("string->datum: not a string: " + writeToString(A[0]));
  ReadResult R = readDatum(Vm.heap(), S->view());
  // Both unreadable text and an empty string read as the EOF object, so
  // protocol code can funnel every malformed request into one branch.
  if (!R.Ok || R.AtEof)
    return Vm.eofObject();
  return R.Datum;
}
Value primServeRequestDone(VM &Vm, Value *, uint32_t) {
  Vm.stats().RequestsServed += 1;
  return Value::unspecified();
}
Value primServeShed(VM &Vm, Value *A, uint32_t) {
  // Admission control: the caller is about to refuse this connection with
  // a fast BUSY reply.  Only the bookkeeping lives here; writing the reply
  // and closing stay in Scheme so protocols can shape their own refusal.
  Port *P = portArg(Vm, "serve-shed!", A[0]);
  if (!P)
    return Value::unspecified();
  Vm.stats().RequestsShed += 1;
  OSC_TRACE(&Vm.trace(), TraceEvent::Shed, P->id());
  return Value::unspecified();
}
Value primIoSetDeadline(VM &Vm, Value *A, uint32_t) {
  // (io-set-deadline! port ms): every subsequent park on the port must
  // wake within ms (measured in virtual poll ticks) or the connection is
  // reaped.  0 clears the deadline.
  Port *P = portArg(Vm, "io-set-deadline!", A[0]);
  if (!P)
    return Value::unspecified();
  if (!A[1].isFixnum() || A[1].asFixnum() < 0)
    return Vm.fail("io-set-deadline!: milliseconds must be a non-negative "
                   "fixnum, got " +
                   writeToString(A[1]));
  int64_t Ms = A[1].asFixnum();
  if (!P->closed()) // Nothing parks on a closed port.
    P->setDeadlineTicks(Ms == 0 ? 0 : Vm.msToTicks(Ms));
  return Value::unspecified();
}
Value primDeadlinePush(VM &Vm, Value *A, uint32_t) {
  return Vm.deadlinePush(A[0], A[1]);
}
Value primDeadlinePop(VM &Vm, Value *A, uint32_t) {
  return Vm.deadlinePop(A[0]);
}
Value primSchedStats(VM &Vm, Value *, uint32_t) {
  const Stats &St = Vm.stats();
  Heap &H = Vm.heap();
  Value L = Value::nil();
  auto Add = [&](const char *Name, uint64_t V) {
    Value P = cons(H, Value::object(H.intern(Name)),
                   Value::fixnum(static_cast<int64_t>(V)));
    L = cons(H, P, L);
  };
  // Pushed in reverse so the alist reads front-to-back in this order.
  Add("io-wait-deadline-peak", St.IoWaitDeadlinePeak);
  Add("worker-restarts", St.WorkerRestarts);
  Add("conns-reaped", St.ConnsReaped);
  Add("requests-shed", St.RequestsShed);
  Add("timeouts", St.Timeouts);
  Add("words-copied", St.WordsCopied);
  Add("one-shot-invokes", St.OneShotInvokes);
  Add("one-shot-captures", St.OneShotCaptures);
  Add("bytes-written", St.BytesWritten);
  Add("bytes-read", St.BytesRead);
  Add("requests-served", St.RequestsServed);
  Add("connections-closed", St.ConnectionsClosed);
  Add("accept-batches", St.AcceptBatches);
  Add("accepted-connections", St.AcceptedConnections);
  Add("io-wait-peak", St.IoWaitPeak);
  Add("io-wakes", St.IoWakes);
  Add("io-parks", St.IoParks);
  Add("run-queue-peak", St.RunQueuePeak);
  Add("channels-closed", St.ChannelsClosed);
  Add("channel-messages", St.ChannelMessages);
  Add("channel-blocks", St.ChannelBlocks);
  Add("voluntary-yields", St.VoluntaryYields);
  Add("preemptive-switches", St.PreemptiveSwitches);
  Add("context-switches", St.ContextSwitches);
  Add("threads-spawned", St.ThreadsSpawned);
  return L;
}

Value noFn(VM &Vm, Value *, uint32_t) {
  return Vm.fail("special native invoked outside the dispatch loop");
}

} // namespace

// Specials are dispatched in the VM loop, never via Fn (noFn is a guard):
// the control operators, plus every scheduler/reactor operation that may
// park the calling computation and reinstate another green thread.
static const NativeDef SpecialDefs[] = {
    // Control.
    {"apply", noFn, 2, -1, NativeSpecial::Apply},
    {"%call/cc", noFn, 1, 1, NativeSpecial::CallCC},
    {"%call/1cc", noFn, 1, 1, NativeSpecial::Call1CC},
    {"%call-with-values", noFn, 2, 2, NativeSpecial::CallWithValues},
    {"values", noFn, 0, -1, NativeSpecial::Values},
    // Scheduler.
    {"%sched-run", noFn, 1, 1, NativeSpecial::SchedRun},
    {"%yield", noFn, 0, 0, NativeSpecial::SchedYield},
    {"%thread-exit", noFn, 1, 1, NativeSpecial::SchedExit},
    {"%join", noFn, 1, 1, NativeSpecial::SchedJoin},
    {"%sleep", noFn, 1, 1, NativeSpecial::SchedSleep},
    {"%chan-send", noFn, 2, 2, NativeSpecial::ChanSend},
    {"%chan-recv", noFn, 1, 1, NativeSpecial::ChanRecv},
    // I/O: may park the calling thread on fd readiness (or, for
    // take-conn, on the pool's handoff wakeup).
    {"%io-read-line", noFn, 1, 1, NativeSpecial::IoReadLine},
    {"%io-write", noFn, 2, 2, NativeSpecial::IoWrite},
    {"%io-accept", noFn, 1, 1, NativeSpecial::IoAccept},
    {"%io-take-conn", noFn, 0, 0, NativeSpecial::IoTakeConn},
    {"%io-close", noFn, 1, 1, NativeSpecial::IoClose},
    // Delimited control (src/control): tagged prompts and one-shot slices.
    {"%reset", noFn, 2, 2, NativeSpecial::Reset},
    {"%shift", noFn, 2, 2, NativeSpecial::Shift},
    {"%delim-invoke", noFn, 2, 2, NativeSpecial::DelimInvoke},
    // Effect handlers: the veneer over the prompt machinery.
    // (%with-handler tag handler thunk shallow) / (%perform tag receiver).
    {"%with-handler", noFn, 4, 4, NativeSpecial::WithHandler},
    {"%perform", noFn, 2, 2, NativeSpecial::Perform},
};

static const NativeDef PrimDefs[] = {
    // Numbers.
    {"+", primAdd, 0, -1},
    {"-", primSub, 1, -1},
    {"*", primMul, 0, -1},
    {"/", primDiv, 1, -1},
    {"quotient", primQuotient, 2, 2},
    {"remainder", primRemainder, 2, 2},
    {"modulo", primModulo, 2, 2},
    {"<", primLt, 2, -1},
    {"<=", primLe, 2, -1},
    {">", primGt, 2, -1},
    {">=", primGe, 2, -1},
    {"=", primNumEq, 2, -1},
    {"abs", primAbs, 1, 1},
    {"min", primMin, 1, -1},
    {"max", primMax, 1, -1},
    {"even?", primEven, 1, 1},
    {"odd?", primOdd, 1, 1},

    // Predicates.
    {"number?", primNumberP, 1, 1},
    {"integer?", primIntegerP, 1, 1},
    {"boolean?", primBooleanP, 1, 1},
    {"symbol?", primSymbolP, 1, 1},
    {"string?", primStringP, 1, 1},
    {"char?", primCharP, 1, 1},
    {"vector?", primVectorP, 1, 1},
    {"procedure?", primProcedureP, 1, 1},
    {"list?", primListP, 1, 1},
    {"eqv?", primEqv, 2, 2},
    {"equal?", primEqual, 2, 2},

    // Pairs and lists (car/cdr/cons/eq?/null?/pair? are also natives so
    // they exist as first-class procedures; calls are usually open-coded).
    {"car",
     [](VM &Vm, Value *A, uint32_t) {
       if (auto *P = dynObj<Pair>(A[0]))
         return P->Car;
       return Vm.fail("car: not a pair: " + writeToString(A[0]));
     },
     1, 1},
    {"cdr",
     [](VM &Vm, Value *A, uint32_t) {
       if (auto *P = dynObj<Pair>(A[0]))
         return P->Cdr;
       return Vm.fail("cdr: not a pair: " + writeToString(A[0]));
     },
     1, 1},
    {"cons",
     [](VM &Vm, Value *A, uint32_t) { return cons(Vm.heap(), A[0], A[1]); },
     2, 2},
    {"eq?",
     [](VM &, Value *A, uint32_t) {
       return Value::boolean(A[0].identical(A[1]));
     },
     2, 2},
    {"null?",
     [](VM &, Value *A, uint32_t) { return Value::boolean(A[0].isNil()); },
     1, 1},
    {"pair?",
     [](VM &, Value *A, uint32_t) { return Value::boolean(isObj<Pair>(A[0])); },
     1, 1},
    {"not",
     [](VM &, Value *A, uint32_t) { return Value::boolean(A[0].isFalse()); },
     1, 1},
    {"zero?",
     [](VM &Vm, Value *A, uint32_t) {
       if (A[0].isFixnum())
         return Value::boolean(A[0].asFixnum() == 0);
       if (auto *F = dynObj<Flonum>(A[0]))
         return Value::boolean(F->D == 0.0);
       return Vm.fail("zero?: not a number");
     },
     1, 1},
    {"set-car!", primSetCar, 2, 2},
    {"set-cdr!", primSetCdr, 2, 2},
    {"list", primList, 0, -1},
    {"length", primLength, 1, 1},
    {"append", primAppend, 0, -1},
    {"reverse", primReverse, 1, 1},
    {"list-tail", primListTail, 2, 2},
    {"list-ref", primListRef, 2, 2},
    {"memq", primMemq, 2, 2},
    {"memv", primMemv, 2, 2},
    {"member", primMember, 2, 2},
    {"assq", primAssq, 2, 2},
    {"assv", primAssv, 2, 2},
    {"assoc", primAssoc, 2, 2},

    // Vectors.
    {"make-vector", primMakeVector, 1, 2},
    {"vector", primVector, 0, -1},
    {"vector-length", primVectorLength, 1, 1},
    {"vector-ref", primVectorRef, 2, 2},
    {"vector-set!", primVectorSet, 3, 3},
    {"vector->list", primVectorToList, 1, 1},
    {"list->vector", primListToVector, 1, 1},
    {"vector-fill!", primVectorFill, 2, 2},

    // Strings / chars / symbols.
    {"string-length", primStringLength, 1, 1},
    {"string-append", primStringAppend, 0, -1},
    {"substring", primSubstring, 3, 3},
    {"string=?", primStringEq, 2, -1},
    {"string<?", primStringLt, 2, 2},
    {"string-ref", primStringRef, 2, 2},
    {"string->symbol", primStringToSymbol, 1, 1},
    {"symbol->string", primSymbolToString, 1, 1},
    {"number->string", primNumberToString, 1, 1},
    {"string->number", primStringToNumber, 1, 1},
    {"char->integer", primCharToInteger, 1, 1},
    {"integer->char", primIntegerToChar, 1, 1},
    {"gensym", primGensym, 0, 0},
    {"string->list", primStringToList, 1, 1},
    {"list->string", primListToString, 1, 1},
    {"sort-numbers", primSortNumeric, 1, 1},

    // Output.
    {"display", primDisplay, 1, 1},
    {"write", primWrite, 1, 1},
    {"newline", primNewline, 0, 0},

    // Control / meta.
    {"error", primError, 1, -1},
    {"gc", primGc, 0, 0},
    {"continuation?", primContinuationP, 1, 1},
    {"%continuation-one-shot?", primContinuationOneShotP, 1, 1},
    {"%continuation-shot?", primContinuationShotP, 1, 1},
    {"current-time-ns", primCurrentTimeNs, 0, 0},
    {"%set-timer!", primSetTimer, 2, 2},
    {"%stop-timer!", primStopTimer, 0, 0},
    {"vm-stat", primVmStat, 1, 1},
    {"vm-resident-stack-words", primVmResidentStackWords, 0, 0},
    {"vm-live-segment-words", primVmLiveSegmentWords, 0, 0},
    {"vm-chain-length", primVmChainLength, 0, 0},
    {"vm-cache-size", primVmCacheSize, 0, 0},
    {"trace-start!", primTraceStart, 0, 0},
    {"trace-stop!", primTraceStop, 0, 0},
    {"trace-dump", primTraceDump, 0, 1},
    {"trace-event-count", primTraceEventCount, 0, 0},
    {"%trace-wind", primTraceWind, 1, 1},

    // Green threads and channels (non-switching halves).
    {"%spawn", primSpawn, 1, 1},
    {"%spawn-detached", primSpawnDetached, 1, 1},
    {"%thread-cancel!", primThreadCancel, 1, 1},
    {"current-thread", primSelf, 0, 0},
    {"thread-state", primThreadState, 1, 1},
    {"make-channel", primChanMake, 1, 1},
    {"channel-try-send!", primChanTrySend, 2, 2},
    {"channel-try-recv", primChanTryRecv, 1, 1},
    {"channel-length", primChanLength, 1, 1},
    {"channel-capacity", primChanCapacity, 1, 1},
    {"channel-close!", primChanClose, 1, 1},
    {"channel-closed?", primChanClosedP, 1, 1},
    {"sched-stats", primSchedStats, 0, 0},

    // Ports and the I/O reactor (non-parking halves).
    {"open-pipe", primOpenPipe, 0, 0},
    {"open-socketpair", primOpenSocketpair, 0, 0},
    {"io-listen", primIoListen, 0, 1},
    {"io-tcp-port", primIoTcpPort, 1, 1},
    {"io-closed?", primIoClosedP, 1, 1},
    {"io-try-accept", primIoTryAccept, 1, 1},
    {"string->datum", primStringToDatum, 1, 1},
    {"serve-request-done!", primServeRequestDone, 0, 0},
    {"serve-shed!", primServeShed, 1, 1},
    {"io-set-deadline!", primIoSetDeadline, 2, 2},

    // The deadline wheel (with-deadline's push/pop halves).
    {"%deadline-push", primDeadlinePush, 2, 2},
    {"%deadline-pop", primDeadlinePop, 1, 1},
};

void osc::installPrimitives(VM &Vm) {
  Vm.defineNatives(SpecialDefs);
  Vm.defineNatives(PrimDefs);
  installRegexPrimitives(Vm);

  // The EOF sentinel (also what channel-recv yields on a closed channel).
  Vm.defineGlobal("*eof*", Vm.eofObject());
  // The timeout sentinel with-deadline returns when the deadline fires.
  Vm.defineGlobal("*timeout*", Vm.timeoutObject());
}
