//===----------------------------------------------------------------------===//
///
/// \file
/// S-expression reader: parses program text into heap-allocated datums.
///
//===----------------------------------------------------------------------===//

#ifndef OSC_SEXP_READER_H
#define OSC_SEXP_READER_H

#include "object/Heap.h"
#include "object/Value.h"

#include <string>
#include <string_view>
#include <vector>

namespace osc {

/// Result of reading one datum.
struct ReadResult {
  bool Ok = false;
  bool AtEof = false; ///< No datum before end of input (not an error).
  Value Datum;
  std::string Error; ///< Message with line info when !Ok.
};

/// A recursive-descent reader over one input buffer.
///
/// Supports: lists (proper and dotted), vectors #(...), fixnums, flonums,
/// #t/#f, characters (#\a, #\space, #\newline, #\tab), strings with escapes,
/// symbols, quote/quasiquote/unquote/unquote-splicing sugar, line comments
/// (;) and datum comments (#;).
///
/// Each nesting level (list, vector, quote sugar, datum comment) is one
/// level of C++ recursion, so a datum nested deeper than MaxDepth is a
/// read error rather than a stack overflow.
class Reader {
public:
  static constexpr unsigned MaxDepth = 1000;

  Reader(Heap &H, std::string_view Input);

  /// Reads the next datum.  AtEof is set when input is exhausted.
  ReadResult read();

  /// Reads all datums until end of input; returns false and sets \p Error
  /// on the first syntax error.
  bool readAll(std::vector<Value> &Out, std::string &Error);

private:
  bool atEnd() const { return Pos >= Input.size(); }
  char peek() const { return Input[Pos]; }
  char advance();
  /// Skips whitespace and comments.  Fails, with the datum's own result,
  /// when the datum of a datum comment does not read.
  ReadResult skipAtmosphere();
  ReadResult error(const std::string &Msg);
  ReadResult readDatum();
  ReadResult readList(char Close);
  ReadResult readVector();
  ReadResult readString();
  ReadResult readHash();
  ReadResult readAtom();
  ReadResult readAbbrev(const char *SymbolName);

  Heap &H;
  std::string_view Input;
  size_t Pos = 0;
  unsigned Line = 1;
  unsigned Depth = 0; ///< readDatum calls in progress.
};

/// Convenience: reads a single datum from \p Text.
ReadResult readDatum(Heap &H, std::string_view Text);

} // namespace osc

#endif // OSC_SEXP_READER_H
