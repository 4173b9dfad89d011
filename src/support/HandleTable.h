//===----------------------------------------------------------------------===//
///
/// \file
/// Generation-tagged handle tables: the id space of green threads, channels
/// and ports.
///
/// A handle is what Scheme code holds (a fixnum): the slot index in the low
/// 32 bits and the slot's generation above them.  A slot's first occupant
/// has generation 0, so its handle is just the index — a program that frees
/// nothing sees exactly the dense 0, 1, 2, ... ids it always did.  Freeing
/// an object bumps its slot's generation, so every handle to it goes stale
/// at once: a lookup through it answers null and can never reach the
/// slot's next occupant.  New objects take the most recently freed slot
/// (the free list is a stack), which keeps ids — and with them traces — a
/// pure function of the program's allocations and frees, run to run.
///
/// A freed object stays in its slot until the slot is reused, so a pointer
/// taken before the free still reads the retired record (cleared by its
/// owner) rather than freed memory; the next emplace replaces it.  Memory
/// and every walk over the table are therefore bounded by the high-water
/// mark of objects live at once, not by how many were ever created.
///
//===----------------------------------------------------------------------===//

#ifndef OSC_SUPPORT_HANDLETABLE_H
#define OSC_SUPPORT_HANDLETABLE_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace osc {

/// A table handle: slot index in the low 32 bits, generation above.
using Handle = uint64_t;

template <typename T> class HandleTable {
public:
  /// Generations stay below 2^30, so every handle is a positive fixnum.  A
  /// slot whose generation would pass that is retired instead of reused.
  static constexpr uint64_t MaxGen = (uint64_t{1} << 30) - 1;

  static constexpr uint32_t indexOf(Handle H) {
    return static_cast<uint32_t>(H);
  }
  static constexpr uint64_t genOf(Handle H) { return H >> 32; }
  static constexpr Handle makeHandle(uint32_t Idx, uint64_t Gen) {
    return Gen << 32 | Idx;
  }

  /// Constructs T(handle, Args...) in the most recently freed slot
  /// (appending one when none is free) and returns it.
  template <typename... As> T &emplace(As &&...Args) {
    uint32_t Idx;
    if (!Free.empty()) {
      Idx = Free.back();
      Free.pop_back();
    } else {
      Idx = static_cast<uint32_t>(Slots.size());
      Slots.emplace_back();
    }
    Slot &S = Slots[Idx];
    S.Obj = std::make_unique<T>(makeHandle(Idx, S.Gen),
                                std::forward<As>(Args)...);
    S.Live = true;
    return *S.Obj;
  }

  /// The live object \p H names, or null when \p H is stale, was never
  /// issued, or is not a handle at all (negative).
  T *get(int64_t H) const {
    const Slot *S = slotOf(H);
    return S && S->Live && S->Gen == genOf(static_cast<Handle>(H))
               ? S->Obj.get()
               : nullptr;
  }

  /// True when \p H was issued once and its object has since been freed.
  bool stale(int64_t H) const {
    const Slot *S = slotOf(H);
    return S && genOf(static_cast<Handle>(H)) < S->Gen;
  }

  /// Retires the live object \p H names.  The object stays readable in its
  /// slot until an emplace reuses the slot.
  void free(Handle H) {
    Slot &S = Slots[indexOf(H)];
    S.Live = false;
    if (++S.Gen <= MaxGen)
      Free.push_back(indexOf(H));
  }

  /// Slots ever used.  Since a slot is appended only when none is free,
  /// this is the high-water mark of objects live at once.
  size_t slotCount() const { return Slots.size(); }

  /// Calls \p Fn on every live object, in slot order.
  template <typename F> void forEach(F Fn) const {
    for (const Slot &S : Slots)
      if (S.Live)
        Fn(*S.Obj);
  }

  /// Calls \p Pred on live objects, in slot order, until one answers
  /// true; returns whether one did.
  template <typename F> bool anyOf(F Pred) const {
    for (const Slot &S : Slots)
      if (S.Live && Pred(*S.Obj))
        return true;
    return false;
  }

private:
  struct Slot {
    std::unique_ptr<T> Obj;
    uint64_t Gen = 0;
    bool Live = false;
  };

  const Slot *slotOf(int64_t H) const {
    if (H < 0 || indexOf(static_cast<Handle>(H)) >= Slots.size())
      return nullptr;
    return &Slots[indexOf(static_cast<Handle>(H))];
  }

  std::vector<Slot> Slots;
  std::vector<uint32_t> Free; ///< Freed slots, most recent last.
};

} // namespace osc

#endif // OSC_SUPPORT_HANDLETABLE_H
