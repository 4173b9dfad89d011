// The public-header contract.  The heavy lifting happens at build time:
// tests/CMakeLists.txt generates one TU per public header that includes
// it (twice) with nothing else, so a header that stops being
// self-contained or idempotent breaks the test_headers build.  The
// runtime checks below pin down the API surface those headers promise.

#include "osc.h"

#include <gtest/gtest.h>

#include <type_traits>

using namespace osc;

TEST(Headers, UmbrellaExposesTheEmbeddingSurface) {
  // Everything docs/EMBEDDING.md names must be reachable from osc.h
  // alone.  Compile-time: these types exist and have the promised shape.
  static_assert(std::is_constructible_v<Interp, const Config &>);
  static_assert(std::is_constructible_v<Server, ServeOptions>);
  static_assert(std::is_constructible_v<Pool, ServeOptions>);
  static_assert(std::is_default_constructible_v<Client>);
  static_assert(std::is_default_constructible_v<Stats::Snapshot>);
  static_assert(std::is_default_constructible_v<Error>);
  static_assert(std::is_default_constructible_v<NativeDef>);
  SUCCEED();
}

TEST(Headers, ServeOptionsIsTheOneOptionsSurface) {
  // Both serving fronts take the same struct, and the pool-only knobs
  // have the documented defaults (ReusePort is the default accept path).
  ServeOptions O;
  EXPECT_EQ(O.Workers, 1);
  EXPECT_EQ(O.Mode, ListenMode::ReusePort);
  EXPECT_EQ(O.MaxWorkerRestarts, 3);
  EXPECT_STREQ(listenModeName(ListenMode::ReusePort), "reuseport");
  EXPECT_STREQ(listenModeName(ListenMode::CentralAcceptor), "central");
}

TEST(Headers, ErrorKindNamesAreStable) {
  EXPECT_STREQ(errorKindName(ErrorKind::None), "ok");
  EXPECT_STREQ(errorKindName(ErrorKind::Parse), "parse");
  EXPECT_STREQ(errorKindName(ErrorKind::Runtime), "runtime");
  EXPECT_STREQ(errorKindName(ErrorKind::Fault), "fault");
  EXPECT_STREQ(errorKindName(ErrorKind::Io), "io");
  EXPECT_STREQ(errorKindName(ErrorKind::ServerStopped), "server-stopped");
}

TEST(Headers, SnapshotIsPlainData) {
  // A Snapshot must stay freely copyable plain data — it is the type
  // that crosses threads (pool aggregation) and gets stored in benches.
  static_assert(std::is_trivially_copyable_v<Stats::Snapshot>);
  Stats::Snapshot A;
  A.Instructions = 7;
  Stats::Snapshot B = A;
  B += A;
  EXPECT_EQ(B.Instructions, 14u);
  EXPECT_EQ((B - A).Instructions, 7u);
}
