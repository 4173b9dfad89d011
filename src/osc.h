//===----------------------------------------------------------------------===//
///
/// \file
/// The single public header for embedding the one-shot-continuation
/// runtime.  Everything a host application needs is reachable from here:
///
///   osc::Config          — control-representation knobs (core/Config.h)
///   osc::Interp          — evaluate Scheme, register natives (vm/Interp.h)
///   osc::NativeDef       — {name, fn, arity} rows for defineNatives
///   osc::Error/ErrorKind — classified failures (support/Error.h)
///   osc::Stats::Snapshot — coherent counter copies (support/Stats.h)
///   osc::ServeOptions    — the serving pool's options
///                          (serve/ServeOptions.h)
///   osc::Pool            — the continuation-per-request serving pool,
///                          sharded over one or more workers
///   osc::Client          — a blocking client for the line protocol
///
/// Embedders should include this header and nothing under src/core,
/// src/object, src/vm or src/io directly; those are internal and move
/// without notice.  See docs/EMBEDDING.md for a guided tour.
///
/// \code
///   #include "osc.h"
///
///   osc::Interp I;
///   auto R = I.eval("(call/1cc (lambda (k) (k 42)))");
///   if (!R.Ok)
///     std::cerr << R.error() << "\n";   // "kind: message"
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef OSC_OSC_H
#define OSC_OSC_H

#include "core/Config.h"
#include "serve/Client.h"
#include "serve/Pool.h"
#include "serve/ServeOptions.h"
#include "support/Error.h"
#include "support/Stats.h"
#include "vm/Interp.h"

#endif // OSC_OSC_H
