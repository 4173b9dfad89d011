#include "support/Diag.h"

#include <cstdio>
#include <cstdlib>

using namespace osc;

// Both flush stdout before aborting: with stdout on a pipe or file it is
// block-buffered, and whatever a program printed before the failure (a
// bench's tables, say) would otherwise die with it.

void osc::oscFatal(const char *Msg) {
  std::fflush(stdout);
  std::fprintf(stderr, "osc fatal error: %s\n", Msg);
  std::abort();
}

void osc::oscUnreachable(const char *Msg) {
  std::fflush(stdout);
  std::fprintf(stderr, "osc unreachable executed: %s\n", Msg);
  std::abort();
}
