//===----------------------------------------------------------------------===//
///
/// \file
/// Bytecode instruction set.
///
/// Instructions are sequences of 32-bit words: one opcode word followed by
/// its operand words.  The Call encoding is load-bearing for the control
/// representation: `Call ci n D` occupies four words and the return pc
/// points *after* D, so `Instrs[RetPc - 1]` is the frame-size word the
/// paper places in the code stream immediately before the return point
/// (§3.1).  Stack walkers (frame splitting, overflow copy-up, continuation
/// resume) rely on exactly this — which is also why every fused call
/// superinstruction below keeps D as its *last* operand word.
///
/// The opcode set is a single X-macro so the enum, the mnemonic table, the
/// operand-count table and the threaded-dispatch label table (VM.cpp) can
/// never drift apart.  Ops that carry an inline-cache slot (GetGlobal,
/// SetGlobal, Call, TailCall and their fusions) always encode the cache
/// index, whether or not Config::InlineCaches is on: the bytecode for a
/// program is a function of the fusion mask only, never of the IC switch.
///
//===----------------------------------------------------------------------===//

#ifndef OSC_COMPILER_BYTECODE_H
#define OSC_COMPILER_BYTECODE_H

#include "object/Objects.h"

#include <cstdint>
#include <string>

namespace osc {

// clang-format off
/// X(Name, Mnemonic, NOperands).  Operand layouts:
///   Const k            acc = Consts[k]
///   GetLocal off       acc = frame[off]
///   GetLocalCell off   acc = cell-at-frame[off].value
///   SetLocalCell off   cell-at-frame[off].value = acc
///   GetGlobal k ci     acc = global of symbol Consts[k]; IC slot ci
///   SetGlobal k ci     global of symbol Consts[k] = acc; IC slot ci
///   DefGlobal k        define global of symbol Consts[k] = acc
///   Push               stack[Top++] = acc
///   MakeCell off       frame[off] = new cell(frame[off])
///   MakeClosure k n    acc = closure of Consts[k] capturing n pushed values
///   Jump t             pc = t
///   JumpIfFalse t      if acc is #f: pc = t
///   SetTop d           Top = Fp + d (leaving a non-tail let scope)
///   Frame              reserve the two callee frame header slots
///   Call ci n D        invoke acc with n args at [Fp+D+2, Fp+D+2+n)
///   TailCall ci n      move n args to Fp+2 and invoke acc, reusing the frame
///   Return             return acc to the frame's return address
///   CwvApply           call-with-values stub resume point
///   PromptPop          prompt stub resume point (pop the PromptRecord)
/// Binary open-coded primitives pop one operand; acc is the right operand
/// and receives the result.  Superinstructions (emitted by the compiler's
/// peephole pass, CodeGen.cpp) concatenate the operand words of the two
/// ops they replace, except that fused conditional branches carry only the
/// branch target.
#define OSC_OPCODES(X)                                                        \
  X(Const,             "const",                 1)                            \
  X(GetLocal,          "get-local",             1)                            \
  X(GetLocalCell,      "get-local-cell",        1)                            \
  X(SetLocalCell,      "set-local-cell",        1)                            \
  X(GetGlobal,         "get-global",            2)                            \
  X(SetGlobal,         "set-global",            2)                            \
  X(DefGlobal,         "def-global",            1)                            \
  X(Push,              "push",                  0)                            \
  X(MakeCell,          "make-cell",             1)                            \
  X(MakeClosure,       "make-closure",          2)                            \
  X(Jump,              "jump",                  1)                            \
  X(JumpIfFalse,       "jump-if-false",         1)                            \
  X(SetTop,            "set-top",               1)                            \
  X(Frame,             "frame",                 0)                            \
  X(Call,              "call",                  3)                            \
  X(TailCall,          "tail-call",             2)                            \
  X(Return,            "return",                0)                            \
  X(CwvApply,          "cwv-apply",             0)                            \
  X(PromptPop,         "prompt-pop",            0)                            \
  X(Add,               "add",                   0)                            \
  X(Sub,               "sub",                   0)                            \
  X(Mul,               "mul",                   0)                            \
  X(NumLt,             "num<",                  0)                            \
  X(NumLe,             "num<=",                 0)                            \
  X(NumGt,             "num>",                  0)                            \
  X(NumGe,             "num>=",                 0)                            \
  X(NumEq,             "num=",                  0)                            \
  X(Cons,              "cons",                  0)                            \
  X(Car,               "car",                   0)                            \
  X(Cdr,               "cdr",                   0)                            \
  X(IsNull,            "null?",                 0)                            \
  X(IsPair,            "pair?",                 0)                            \
  X(Not,               "not",                   0)                            \
  X(IsZero,            "zero?",                 0)                            \
  X(IsEq,              "eq?",                   0)                            \
  /* Superinstructions: the highest-frequency dynamic opcode pairs on the  */ \
  /* bench_dispatch workloads (measured table in INTERNALS.md §13).        */ \
  X(GetLocalPush,      "get-local+push",        1) /* off                  */ \
  X(ConstPush,         "const+push",            1) /* k                    */ \
  X(GetGlobalCall,     "get-global+call",       5) /* k gci ci n D         */ \
  X(GetGlobalTailCall, "get-global+tail-call",  4) /* k gci ci n           */ \
  X(LtJumpIfFalse,     "num<+jump-if-false",    1) /* t                    */ \
  X(LeJumpIfFalse,     "num<=+jump-if-false",   1) /* t                    */ \
  X(GtJumpIfFalse,     "num>+jump-if-false",    1) /* t                    */ \
  X(GeJumpIfFalse,     "num>=+jump-if-false",   1) /* t                    */ \
  X(NumEqJumpIfFalse,  "num=+jump-if-false",    1) /* t                    */ \
  X(ZeroJumpIfFalse,   "zero?+jump-if-false",   1) /* t                    */ \
  X(NullJumpIfFalse,   "null?+jump-if-false",   1) /* t                    */ \
  X(GetLocalReturn,    "get-local+return",      1) /* off                  */
// clang-format on

enum class Op : uint32_t {
#define OSC_OP_ENUM(Name, Mnemonic, NOperands) Name,
  OSC_OPCODES(OSC_OP_ENUM)
#undef OSC_OP_ENUM
};

/// Total opcode count; sizes the threaded-dispatch label table.
constexpr uint32_t NumOpcodes = 0
#define OSC_OP_COUNT(Name, Mnemonic, NOperands) +1
    OSC_OPCODES(OSC_OP_COUNT)
#undef OSC_OP_COUNT
    ;

/// One bit per peephole fusion rule, so Config::Superinstructions can
/// toggle each superinstruction independently.  The bit order matches the
/// fused-opcode order above.
enum FuseRule : uint32_t {
  FuseGetLocalPush = 1u << 0,
  FuseConstPush = 1u << 1,
  FuseGetGlobalCall = 1u << 2,
  FuseGetGlobalTailCall = 1u << 3,
  FuseLtJumpIfFalse = 1u << 4,
  FuseLeJumpIfFalse = 1u << 5,
  FuseGtJumpIfFalse = 1u << 6,
  FuseGeJumpIfFalse = 1u << 7,
  FuseNumEqJumpIfFalse = 1u << 8,
  FuseZeroJumpIfFalse = 1u << 9,
  FuseNullJumpIfFalse = 1u << 10,
  FuseGetLocalReturn = 1u << 11,
  FuseAll = (1u << 12) - 1,
};

/// Number of operand words following each opcode.
unsigned opOperandCount(Op O);

/// Opcode mnemonic for the disassembler.
const char *opName(Op O);

/// Renders \p C's instruction stream, one instruction per line.
std::string disassemble(const Code *C);

} // namespace osc

#endif // OSC_COMPILER_BYTECODE_H
