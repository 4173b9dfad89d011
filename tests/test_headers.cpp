// The public-header contract.  The heavy lifting happens at build time:
// tests/CMakeLists.txt generates one TU per public header that includes
// it (twice) with nothing else, so a header that stops being
// self-contained or idempotent breaks the test_headers build.  The
// runtime checks below pin down the API surface those headers promise,
// and that the generated list covers exactly that surface.

#include "osc.h"

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <type_traits>

using namespace osc;

TEST(Headers, PublicListIsTheUmbrellaAndItsIncludes) {
  // OSC_PUBLIC_HEADERS is the comma-joined list each standalone TU was
  // generated from; osc.h's own quoted includes are the surface it
  // exports.  A header added to one and not the other fails here.
  std::set<std::string> Listed;
  std::stringstream List(OSC_PUBLIC_HEADERS);
  for (std::string H; std::getline(List, H, ',');)
    EXPECT_TRUE(Listed.insert(H).second) << H << " listed twice";

  std::ifstream Umbrella(std::string(OSC_SRC_DIR) + "/osc.h");
  ASSERT_TRUE(Umbrella) << "cannot open " << OSC_SRC_DIR << "/osc.h";
  std::set<std::string> Exported = {"osc.h"};
  const std::string Include = "#include \"";
  for (std::string Line; std::getline(Umbrella, Line);) {
    if (Line.rfind(Include, 0) != 0)
      continue;
    size_t End = Line.find('"', Include.size());
    ASSERT_NE(End, std::string::npos) << Line;
    Exported.insert(Line.substr(Include.size(), End - Include.size()));
  }
  EXPECT_GT(Exported.size(), 1u);
  EXPECT_EQ(Listed, Exported);
}

TEST(Headers, UmbrellaExposesTheEmbeddingSurface) {
  // Everything docs/EMBEDDING.md names must be reachable from osc.h
  // alone.  Compile-time: these types exist and have the promised shape.
  static_assert(std::is_constructible_v<Interp, const Config &>);
  static_assert(std::is_constructible_v<Pool, ServeOptions>);
  static_assert(std::is_default_constructible_v<Client>);
  static_assert(std::is_default_constructible_v<Stats::Snapshot>);
  static_assert(std::is_default_constructible_v<Error>);
  static_assert(std::is_default_constructible_v<NativeDef>);
  SUCCEED();
}

TEST(Headers, ServeOptionsIsTheOneOptionsSurface) {
  // The pool's knobs have the documented defaults.
  ServeOptions O;
  EXPECT_EQ(O.Workers, 1);
  EXPECT_EQ(O.MaxWorkerRestarts, 3);
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
