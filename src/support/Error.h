//===----------------------------------------------------------------------===//
///
/// \file
/// Structured errors for the embedding API.
///
/// Every failure surface — Interp::eval and Pool — reports through the
/// same two-field shape: a coarse machine-readable ErrorKind for dispatch
/// ("retry? rephrase? restart the worker?") and the human-readable message.
/// The kind is deliberately coarse: it classifies *which layer* rejected the
/// work, not the exact failure, so embedders can route errors without
/// parsing message strings.
///
//===----------------------------------------------------------------------===//

#ifndef OSC_SUPPORT_ERROR_H
#define OSC_SUPPORT_ERROR_H

#include <cstdint>
#include <ostream>
#include <string>

namespace osc {

/// Which layer rejected the work.
enum class ErrorKind : uint8_t {
  None,          ///< No error (Ok results carry this).
  Parse,         ///< Reader / expander / compiler rejected the source.
  Runtime,       ///< The program itself failed (type error, (error ...), ...).
  Fault,         ///< An injected FaultPlan event fired (tests only).
  Io,            ///< A port / reactor / socket operation failed.
  Timeout,       ///< A deadline expired (with-deadline, timed park, wedge).
  ServerStopped, ///< The server or pool is not running (or was stopped).
};

/// Stable kebab-case kind name ("parse", "server-stopped", ...).
inline const char *errorKindName(ErrorKind K) {
  switch (K) {
  case ErrorKind::None:
    return "ok";
  case ErrorKind::Parse:
    return "parse";
  case ErrorKind::Runtime:
    return "runtime";
  case ErrorKind::Fault:
    return "fault";
  case ErrorKind::Io:
    return "io";
  case ErrorKind::Timeout:
    return "timeout";
  case ErrorKind::ServerStopped:
    return "server-stopped";
  }
  return "?";
}

/// One error: kind + message.  Converts to true when it holds an error, so
/// `if (auto E = pool.handoffTo(...))` reads naturally.
struct Error {
  ErrorKind Kind = ErrorKind::None;
  std::string Message;

  explicit operator bool() const { return Kind != ErrorKind::None; }
  bool ok() const { return Kind == ErrorKind::None; }
};

inline std::ostream &operator<<(std::ostream &OS, const Error &E) {
  return OS << errorKindName(E.Kind) << ": " << E.Message;
}

} // namespace osc

#endif // OSC_SUPPORT_ERROR_H
