#include "object/ListUtil.h"

using namespace osc;

int64_t osc::listLength(Value L) {
  int64_t N = 0;
  // Brent-style cycle guard: bound the walk.
  Value Slow = L;
  bool Step = false;
  while (isObj<Pair>(L)) {
    L = cdr(L);
    ++N;
    if (Step) {
      Slow = cdr(Slow);
      if (Slow.identical(L))
        return -1; // cyclic
    }
    Step = !Step;
  }
  return L.isNil() ? N : -1;
}

bool osc::isProperList(Value L) { return listLength(L) >= 0; }

Value osc::listFromVector(Heap &H, const std::vector<Value> &Elems) {
  Value L = Value::nil();
  for (auto It = Elems.rbegin(); It != Elems.rend(); ++It)
    L = cons(H, *It, L);
  return L;
}

bool osc::listToVector(Value L, std::vector<Value> &Out) {
  while (isObj<Pair>(L)) {
    Out.push_back(car(L));
    L = cdr(L);
  }
  return L.isNil();
}

bool osc::schemeEqv(Value A, Value B) {
  if (A.identical(B))
    return true;
  if (isObj<Flonum>(A) && isObj<Flonum>(B))
    return castObj<Flonum>(A)->D == castObj<Flonum>(B)->D;
  return false;
}

namespace {

/// The comparisons equal? still owes once the values in hand compare
/// equal: the cdrs of the pairs whose cars it went into, and the rest of
/// the vectors it is inside.  The first InlineDepth entries live in the
/// object itself, so a shallow comparison allocates nothing; deeper car
/// or element nesting spills to the heap instead of recursing on the C
/// stack.
class Owed {
public:
  struct Item {
    Value A, B;
    uint32_t Next; ///< Vectors: the element to compare next; 0: A with B.
  };

  bool empty() const { return N == 0; }
  Item &top() { return N <= InlineDepth ? Inline[N - 1] : Spill.back(); }
  void push(const Item &I) {
    if (N < InlineDepth)
      Inline[N] = I;
    else
      Spill.push_back(I);
    ++N;
  }
  void pop() {
    if (N > InlineDepth)
      Spill.pop_back();
    --N;
  }

private:
  static constexpr size_t InlineDepth = 32;
  Item Inline[InlineDepth];
  std::vector<Item> Spill;
  size_t N = 0;
};

} // namespace

bool osc::schemeEqual(Value A, Value B) {
  Owed Rest;
  for (;;) {
    if (!schemeEqv(A, B)) {
      if (isObj<Pair>(A) && isObj<Pair>(B)) {
        // Owe the cdrs and go into the cars: along a list's spine the
        // stack holds one entry, and only car nesting deepens it.
        Rest.push({cdr(A), cdr(B), 0});
        A = car(A);
        B = car(B);
        continue;
      }
      if (isObj<String>(A) && isObj<String>(B)) {
        if (castObj<String>(A)->view() != castObj<String>(B)->view())
          return false;
      } else if (isObj<Vector>(A) && isObj<Vector>(B)) {
        auto *VA = castObj<Vector>(A);
        auto *VB = castObj<Vector>(B);
        if (VA->Len != VB->Len)
          return false;
        if (VA->Len != 0) {
          if (VA->Len > 1)
            Rest.push({A, B, 1});
          A = VA->Elems[0];
          B = VB->Elems[0];
          continue;
        }
      } else {
        return false;
      }
    }
    // A and B are equal: take up the next comparison owed.
    if (Rest.empty())
      return true;
    Owed::Item &T = Rest.top();
    if (T.Next == 0) {
      A = T.A;
      B = T.B;
      Rest.pop();
    } else {
      auto *VA = castObj<Vector>(T.A);
      A = VA->Elems[T.Next];
      B = castObj<Vector>(T.B)->Elems[T.Next];
      if (++T.Next == VA->Len)
        Rest.pop();
    }
  }
}
