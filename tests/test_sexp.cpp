// Reader and printer unit tests.

#include "object/Heap.h"
#include "object/ListUtil.h"
#include "sexp/Printer.h"
#include "sexp/Reader.h"
#include "support/Stats.h"

#include <gtest/gtest.h>

using namespace osc;

namespace {

class SexpTest : public ::testing::Test {
protected:
  SexpTest() : H(S) {}

  /// Read one datum and print it back in write form.
  std::string roundTrip(const std::string &In) {
    ReadResult R = readDatum(H, In);
    if (!R.Ok)
      return "error: " + R.Error;
    return writeToString(R.Datum);
  }

  Stats S;
  Heap H;
};

} // namespace

TEST_F(SexpTest, Atoms) {
  EXPECT_EQ(roundTrip("42"), "42");
  EXPECT_EQ(roundTrip("-17"), "-17");
  EXPECT_EQ(roundTrip("+5"), "5");
  EXPECT_EQ(roundTrip("3.25"), "3.25");
  EXPECT_EQ(roundTrip("-0.5"), "-0.5");
  EXPECT_EQ(roundTrip("1e3"), "1000.0");
  EXPECT_EQ(roundTrip("foo"), "foo");
  EXPECT_EQ(roundTrip("set!"), "set!");
  EXPECT_EQ(roundTrip("+"), "+");
  EXPECT_EQ(roundTrip("-"), "-");
  EXPECT_EQ(roundTrip("..."), "...");
  EXPECT_EQ(roundTrip("list->vector"), "list->vector");
  EXPECT_EQ(roundTrip("#t"), "#t");
  EXPECT_EQ(roundTrip("#f"), "#f");
}

TEST_F(SexpTest, Characters) {
  EXPECT_EQ(roundTrip("#\\a"), "#\\a");
  EXPECT_EQ(roundTrip("#\\Z"), "#\\Z");
  EXPECT_EQ(roundTrip("#\\space"), "#\\space");
  EXPECT_EQ(roundTrip("#\\newline"), "#\\newline");
  EXPECT_EQ(roundTrip("#\\tab"), "#\\tab");
  EXPECT_EQ(roundTrip("#\\("), "#\\(");
}

TEST_F(SexpTest, Strings) {
  EXPECT_EQ(roundTrip("\"hello\""), "\"hello\"");
  EXPECT_EQ(roundTrip("\"a\\nb\""), "\"a\\nb\"");
  EXPECT_EQ(roundTrip("\"say \\\"hi\\\"\""), "\"say \\\"hi\\\"\"");
  EXPECT_EQ(roundTrip("\"back\\\\slash\""), "\"back\\\\slash\"");
  EXPECT_EQ(roundTrip("\"\""), "\"\"");
}

TEST_F(SexpTest, Lists) {
  EXPECT_EQ(roundTrip("()"), "()");
  EXPECT_EQ(roundTrip("(1 2 3)"), "(1 2 3)");
  EXPECT_EQ(roundTrip("(1 . 2)"), "(1 . 2)");
  EXPECT_EQ(roundTrip("(1 2 . 3)"), "(1 2 . 3)");
  EXPECT_EQ(roundTrip("((a) (b c) ())"), "((a) (b c) ())");
  EXPECT_EQ(roundTrip("[1 2]"), "(1 2)"); // Brackets accepted.
  EXPECT_EQ(roundTrip("( 1\n\t2 )"), "(1 2)");
}

TEST_F(SexpTest, NestingPastMaxDepthIsAReadError) {
  // The reader recurses once per level (the atom at the bottom counts as
  // one); past Reader::MaxDepth it reports an error instead of running
  // off the C stack.
  const unsigned D = Reader::MaxDepth;
  std::string AtLimit = std::string(D, '(') + std::string(D, ')');
  ReadResult R = readDatum(H, AtLimit);
  EXPECT_TRUE(R.Ok) << R.Error;
  R = readDatum(H, "(" + AtLimit + ")");
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("datum nested deeper than 1000 levels"),
            std::string::npos)
      << R.Error;
  // Quote sugar and datum comments nest through the same funnel.
  EXPECT_TRUE(readDatum(H, std::string(D - 1, '\'') + "x").Ok);
  EXPECT_FALSE(readDatum(H, std::string(D, '\'') + "x").Ok);
  std::string Comments;
  for (int I = 0; I != 100000; ++I)
    Comments += "#;";
  EXPECT_FALSE(readDatum(H, Comments + "x").Ok);
  // Far past the bound, balanced or not, the read still just fails.
  std::string Deep = std::string(100000, '(') + std::string(100000, ')');
  EXPECT_FALSE(readDatum(H, Deep).Ok);
  EXPECT_FALSE(readDatum(H, std::string(100000, '[')).Ok);
  EXPECT_EQ(roundTrip("(a (b (c)))"), "(a (b (c)))");
}

TEST_F(SexpTest, ADatumCommentThatFailsFailsTheRead) {
  // The depth error stops the reader inside a well-formed datum; going on
  // from there would read part of the commented-out datum as live text.
  const unsigned D = Reader::MaxDepth;
  auto Nest = [](unsigned Levels) { // Levels counts the atom.
    return std::string(Levels - 1, '(') + "5" + std::string(Levels - 1, ')');
  };
  auto TooDeep = [&](const std::string &In) {
    return roundTrip(In).find("datum nested deeper than 1000 levels") !=
           std::string::npos;
  };
  EXPECT_TRUE(TooDeep("#;" + Nest(D + 1) + " 7"));
  EXPECT_TRUE(TooDeep("(a #;" + Nest(D + 1) + " 7 b)"));
  // Inside a list or a vector the comment's datum starts a level down.
  EXPECT_TRUE(TooDeep("(a #;" + Nest(D) + " b)"));
  EXPECT_TRUE(TooDeep("#(a #;" + Nest(D) + " b)"));
  EXPECT_TRUE(TooDeep("(a . #;" + Nest(D) + " b)"));
  EXPECT_EQ(roundTrip("#;" + Nest(D) + " 7"), "7");
  EXPECT_EQ(roundTrip("(a #;" + Nest(D - 1) + " b)"), "(a b)");
  // Any other failure inside the comment fails the read too.
  EXPECT_TRUE(roundTrip("#;(1 2").starts_with("error: read error"));
  EXPECT_TRUE(roundTrip("(a #;)").starts_with("error:"));
}

TEST_F(SexpTest, Vectors) {
  EXPECT_EQ(roundTrip("#()"), "#()");
  EXPECT_EQ(roundTrip("#(1 2 3)"), "#(1 2 3)");
  EXPECT_EQ(roundTrip("#(a #(b) ())"), "#(a #(b) ())");
}

TEST_F(SexpTest, QuoteSugar) {
  EXPECT_EQ(roundTrip("'x"), "(quote x)");
  EXPECT_EQ(roundTrip("`x"), "(quasiquote x)");
  EXPECT_EQ(roundTrip(",x"), "(unquote x)");
  EXPECT_EQ(roundTrip(",@x"), "(unquote-splicing x)");
  EXPECT_EQ(roundTrip("'(1 '2)"), "(quote (1 (quote 2)))");
}

TEST_F(SexpTest, Comments) {
  EXPECT_EQ(roundTrip("; hi\n42"), "42");
  EXPECT_EQ(roundTrip("(1 ; mid\n 2)"), "(1 2)");
  EXPECT_EQ(roundTrip("#;(skipped) 7"), "7");
  EXPECT_EQ(roundTrip("#;1 #;2 3"), "3");
}

TEST_F(SexpTest, Errors) {
  EXPECT_TRUE(roundTrip("(1 2").starts_with("error:"));
  EXPECT_TRUE(roundTrip(")").starts_with("error:"));
  EXPECT_TRUE(roundTrip("\"unterminated").starts_with("error:"));
  EXPECT_TRUE(roundTrip("(1 . )").starts_with("error:"));
  EXPECT_TRUE(roundTrip("#q").starts_with("error:"));
  EXPECT_TRUE(roundTrip("(. 2)").starts_with("error:"));
}

TEST_F(SexpTest, ErrorsCarryLineNumbers) {
  ReadResult R = readDatum(H, "\n\n(1 2");
  ASSERT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("line 3"), std::string::npos) << R.Error;
}

TEST_F(SexpTest, ReadAll) {
  Reader Rd(H, "1 (2 3) foo");
  std::vector<Value> Out;
  std::string Err;
  ASSERT_TRUE(Rd.readAll(Out, Err));
  ASSERT_EQ(Out.size(), 3u);
  EXPECT_EQ(writeToString(Out[0]), "1");
  EXPECT_EQ(writeToString(Out[1]), "(2 3)");
  EXPECT_EQ(writeToString(Out[2]), "foo");
}

TEST_F(SexpTest, ReadAllEmpty) {
  Reader Rd(H, "  ; just a comment\n");
  std::vector<Value> Out;
  std::string Err;
  ASSERT_TRUE(Rd.readAll(Out, Err));
  EXPECT_TRUE(Out.empty());
}

TEST_F(SexpTest, SymbolsAreInterned) {
  ReadResult A = readDatum(H, "hello");
  ReadResult B = readDatum(H, "hello");
  ASSERT_TRUE(A.Ok && B.Ok);
  EXPECT_TRUE(A.Datum.identical(B.Datum));
}

TEST_F(SexpTest, DisplayVsWrite) {
  ReadResult R = readDatum(H, "(\"hi\" #\\x)");
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(writeToString(R.Datum), "(\"hi\" #\\x)");
  EXPECT_EQ(displayToString(R.Datum), "(hi x)");
}

TEST_F(SexpTest, DeeplyNested) {
  std::string In, Expect;
  for (int J = 0; J != 200; ++J)
    In += "(";
  In += "x";
  for (int J = 0; J != 200; ++J)
    In += ")";
  EXPECT_EQ(roundTrip(In), In);
}
