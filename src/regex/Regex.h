//===----------------------------------------------------------------------===//
///
/// \file
/// A bytecode-compiled regular-expression engine: pattern parser, compact
/// small-buffer bytecode compiler, and a Pike-style virtual machine that
/// simulates the NFA with thread lists — linear in input length times
/// program size, immune to the exponential blowup a backtracking engine
/// hits on patterns like (a?)^n a^n.
///
/// The executor is *streaming*: input arrives in chunks and the live
/// thread list (plus the best-match-so-far) carries across chunk
/// boundaries, so a matcher can be suspended inside a server-side
/// generator between I/O waits.  The persistent half of that state lives
/// in a RegexStream heap object (object/Objects.h); this header's
/// Machine is the engine's flat working view of it, loaded and stored by
/// the primitives around each feed.
///
/// Supported syntax: literals, '.', character classes [..] (ranges,
/// negation, \d \w \s and their complements), grouping (..),
/// alternation |, the quantifiers * + ? and bounded repetition {m,n}
/// (expanded at compile time, n <= 255), and the anchors ^ (offset 0 of
/// the stream) and $ (end of input).  Matching is leftmost-then-longest:
/// the earliest match start wins, and at that start the longest extent.
///
//===----------------------------------------------------------------------===//

#ifndef OSC_REGEX_REGEX_H
#define OSC_REGEX_REGEX_H

#include "object/Objects.h"

#include <cstdint>
#include <string>
#include <string_view>

namespace osc {
namespace regex {

/// Bytecode: a flat array of 32-bit words, one opcode word followed by
/// its operand words.  Branch targets are absolute word offsets.
enum Op : uint32_t {
  OpChar = 0, ///< [OpChar, byte] — match one exact byte.
  OpAny,      ///< [OpAny] — '.', any byte except '\n'.
  OpClass,    ///< [OpClass, b0..b7] — 256-bit membership bitmap.
  OpMatch,    ///< [OpMatch] — accept here.
  OpJmp,      ///< [OpJmp, t] — continue at t.
  OpSplit,    ///< [OpSplit, t1, t2] — fork; t1 is the preferred branch.
  OpBegin,    ///< [OpBegin] — '^': holds only at stream offset 0.
  OpEnd,      ///< [OpEnd] — '$': holds only at end of input.
};

/// Words each opcode occupies (operand words included).
inline uint32_t opWidth(uint32_t O) {
  switch (O) {
  case OpChar:
    return 2;
  case OpClass:
    return 9;
  case OpJmp:
    return 2;
  case OpSplit:
    return 3;
  default:
    return 1;
  }
}

/// Compile target with crex-style small-buffer storage: programs up to
/// InlineWords words — the common case for protocol-sized patterns —
/// never touch the allocator; larger ones spill to the heap once.
class ProgramBuffer {
public:
  static constexpr uint32_t InlineWords = 56;
  /// Programs are capped at MaxWords: bounded repetition is expanded at
  /// compile time, so without a cap {255,255} nests could multiply a
  /// pattern into an arbitrarily large program.
  static constexpr uint32_t MaxWords = 1u << 16;

  ProgramBuffer() = default;
  ~ProgramBuffer() { delete[] Spill; }
  ProgramBuffer(const ProgramBuffer &) = delete;
  ProgramBuffer &operator=(const ProgramBuffer &) = delete;

  uint32_t size() const { return N; }
  const uint32_t *data() const { return Spill ? Spill : Stack; }
  uint32_t &operator[](uint32_t I) { return (Spill ? Spill : Stack)[I]; }

  /// Appends \p W; returns false once MaxWords is exceeded (the caller
  /// turns that into a "pattern too large" parse error).
  bool push(uint32_t W) {
    if (N == MaxWords)
      return false;
    if (N == Cap)
      grow();
    (Spill ? Spill : Stack)[N++] = W;
    return true;
  }

private:
  void grow();

  uint32_t Stack[InlineWords];
  uint32_t *Spill = nullptr;
  uint32_t N = 0;
  uint32_t Cap = InlineWords;
};

/// Groups may nest this deep.  The parser, the compiler and the parse
/// tree's teardown each recurse once per group level (a run of
/// concatenated or alternated items is a loop), so a deeper pattern is a
/// parse error rather than a stack overflow.
constexpr unsigned MaxGroupDepth = 1000;

/// Compiles \p Pattern into \p Out.  On success returns true; on a parse
/// error returns false with a human-readable message in \p Err.
bool compile(std::string_view Pattern, ProgramBuffer &Out, std::string &Err);

/// What a streaming matcher knows so far.
enum Decision : uint8_t {
  Undecided = 0, ///< More input could still change the answer.
  Matched,       ///< Best is final: no live thread can improve on it.
  NoMatch,       ///< No match exists in any extension of the input.
};

enum Mode : uint8_t {
  ModeSearch = 0, ///< Unanchored: find the leftmost-longest match.
  ModeFull,       ///< Anchored both ends: does the whole input match?
};

/// The engine's flat working view of one matcher: the compiled program,
/// the persistent thread list (capacity == NInstrs; dedup by pc bounds
/// it), and the incremental match state.  The primitives load this from
/// a RegexStream heap object before a feed and store it back after;
/// whole-string match/search stack-allocate one.
struct Machine {
  const uint32_t *Prog = nullptr;
  uint32_t NInstrs = 0;
  RegexThread *Threads = nullptr; ///< Caller-owned, NInstrs entries.
  uint32_t NThreads = 0;
  uint64_t Offset = 0;    ///< Absolute bytes consumed so far.
  int64_t BestStart = -1; ///< Leftmost match start; -1 while none.
  int64_t BestEnd = -1;
  uint8_t Mode = ModeSearch;
  uint8_t Decided = Undecided;
  bool SpawnDead = false; ///< '^'-anchored: spawns past offset 0 die.
  uint64_t Steps = 0;     ///< Thread-state visits (linearity witness).
};

/// Plants the initial thread (offset 0) and its epsilon closure.
void init(Machine &M);

/// Consumes \p Chunk, carrying the thread list across the boundary.
void feed(Machine &M, std::string_view Chunk);

/// Declares end of input: resolves '$' assertions and finalizes Decided
/// (never leaves it Undecided).
void finish(Machine &M);

} // namespace regex
} // namespace osc

#endif // OSC_REGEX_REGEX_H
