// The bytecode regex subsystem (src/regex) end to end: parser errors as
// trappable VM errors, anchoring and character-class edge cases, the
// streaming matcher across arbitrary chunk boundaries, one-shot reuse
// detection on a suspended match resumption, and the MATCH /
// MATCH/STREAM protocol verbs over real loopback TCP on 1- and 3-worker
// Pools — including slow-client reaping with a byte-identical teardown
// trace.
//
// Registered under the ctest label "regex" (the serve-layer tests here
// also answer to -L regex so the subsystem runs in isolation).

#include "osc.h"
#include "regex/Regex.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace osc;

namespace {

class RegexTest : public ::testing::Test {
protected:
  std::string run(const std::string &Src) { return I.evalToString(Src); }
  Interp I;
};

ServeOptions serveOptions() {
  ServeOptions O;
  O.Workers = 1;
  O.MaxInflight = 64;
  return O;
}

void mustStart(Pool &P) {
  ASSERT_TRUE(P.start()) << P.error();
  ASSERT_NE(P.tcpPort(), 0);
}

std::string ask(Client &C, const std::string &Line) {
  std::string Reply;
  if (!C.request(Line, Reply))
    return "<no reply>";
  return Reply;
}

} // namespace

// --- compilation and parse errors --------------------------------------------

TEST_F(RegexTest, CompileYieldsARegexObject) {
  EXPECT_EQ(run("(regex? (regex-compile \"a+b\"))"), "#t");
  EXPECT_EQ(run("(regex? \"a+b\")"), "#f");
  EXPECT_EQ(run("(regex? 42)"), "#f");
  // The program is a compact bytecode buffer, not a tree walk.
  EXPECT_EQ(run("(> (regex-program-size (regex-compile \"a|b|c\")) 0)"), "#t");
}

TEST_F(RegexTest, ParseErrorsAreTrappableAndTheVmSurvives) {
  // Every malformed pattern is an ordinary VM error naming the defect and
  // echoing the pattern; the Interp keeps evaluating afterwards.
  struct Case {
    const char *Pat;
    const char *Defect;
  };
  const Case Cases[] = {
      {"a{3,1}", "reversed repetition bounds"},
      {"*a", "nothing to repeat"},
      {"a**", "nested quantifier"},
      {"(ab", "unmatched '('"},
      {"ab)", "unmatched ')'"},
      {"[z-a]", "reversed class range"},
      {"[abc", "unterminated character class"},
      {"a{2", "unterminated repetition"},
      {"a{999}", "repetition bound exceeds 255"},
      // The engine sees "ab\" and "\q".
      {"ab\\\\", "trailing backslash"},
      {"\\\\q", "bad escape"},
  };
  for (const Case &C : Cases) {
    std::string R =
        run(std::string("(regex-compile \"") + C.Pat + "\")");
    EXPECT_NE(R.find("error:"), std::string::npos) << C.Pat << " => " << R;
    EXPECT_NE(R.find(C.Defect), std::string::npos) << C.Pat << " => " << R;
  }
  EXPECT_EQ(run("(+ 1 2)"), "3"); // the VM is still standing
  EXPECT_EQ(run("(regex-search (regex-compile \"b+\") \"abbbc\")"), "(1 . 4)");
}

TEST(RegexCompile, GroupDepthIsBoundedAndLengthIsALoop) {
  // Parsing, compiling and freeing the tree recurse once per group level,
  // never once per item, so only group depth needs a bound.
  using namespace osc::regex;
  auto Nest = [](unsigned D) {
    return std::string(D, '(') + "a" + std::string(D, ')');
  };
  std::string Err;
  {
    ProgramBuffer B;
    EXPECT_TRUE(compile(Nest(MaxGroupDepth), B, Err)) << Err;
  }
  for (unsigned D : {MaxGroupDepth + 1, 200000u}) {
    ProgramBuffer B;
    Err.clear();
    EXPECT_FALSE(compile(Nest(D), B, Err)) << D;
    EXPECT_EQ(Err, "groups nested too deeply") << D;
  }
  {
    ProgramBuffer B;
    EXPECT_TRUE(compile(std::string(30000, 'a'), B, Err)) << Err;
    EXPECT_EQ(B.size(), 2u * 30000 + 1); // OpChar pairs, then OpMatch.
  }
  {
    // 5000 alternatives: a split per '|', a jump per later choice.
    std::string Alts = "a";
    for (int I = 1; I != 5000; ++I)
      Alts += "|a";
    ProgramBuffer B;
    EXPECT_TRUE(compile(Alts, B, Err)) << Err;
    EXPECT_EQ(B.size(), 3u * 4999 + 2u * 5000 + 2u * 4999 + 1);
  }
  // Past the program cap, long flat patterns fail as too large.
  for (const std::string &Long :
       {std::string(500000, 'a'), std::string(300000, '|')}) {
    ProgramBuffer B;
    Err.clear();
    EXPECT_FALSE(compile(Long, B, Err));
    EXPECT_EQ(Err, "pattern too large");
  }
}

TEST_F(RegexTest, TryCompileTurnsErrorsIntoFalse) {
  EXPECT_EQ(run("(regex-try-compile \"a{3,1}\")"), "#f");
  EXPECT_EQ(run("(regex? (regex-try-compile \"a{1,3}\"))"), "#t");
}

// --- matching semantics ------------------------------------------------------

TEST_F(RegexTest, SearchIsLeftmostLongest) {
  EXPECT_EQ(run("(regex-search (regex-compile \"a+\") \"baaac\")"), "(1 . 4)");
  // Leftmost wins over longer-but-later.
  EXPECT_EQ(run("(regex-search (regex-compile \"a+\") \"abaaa\")"), "(0 . 1)");
  EXPECT_EQ(run("(regex-search (regex-compile \"x\") \"abc\")"), "#f");
  // Alternation takes the longest match at the leftmost start.
  EXPECT_EQ(run("(regex-search (regex-compile \"ab|abc\") \"zabcz\")"),
            "(1 . 4)");
}

TEST_F(RegexTest, FullMatchMustConsumeTheWholeString) {
  EXPECT_EQ(run("(regex-match (regex-compile \"a*b\") \"aaab\")"), "#t");
  EXPECT_EQ(run("(regex-match (regex-compile \"a*b\") \"aaabc\")"), "#f");
  EXPECT_EQ(run("(regex-match (regex-compile \"a*\") \"\")"), "#t");
  EXPECT_EQ(run("(regex-match (regex-compile \"(ab|cd){2}\") \"abcd\")"),
            "#t");
  EXPECT_EQ(run("(regex-match (regex-compile \"(ab|cd){2}\") \"abc\")"),
            "#f");
}

TEST_F(RegexTest, Anchors) {
  EXPECT_EQ(run("(regex-search (regex-compile \"^foo\") \"foobar\")"),
            "(0 . 3)");
  EXPECT_EQ(run("(regex-search (regex-compile \"^foo\") \"barfoo\")"), "#f");
  EXPECT_EQ(run("(regex-search (regex-compile \"foo$\") \"barfoo\")"),
            "(3 . 6)");
  EXPECT_EQ(run("(regex-search (regex-compile \"foo$\") \"fooba\")"), "#f");
  EXPECT_EQ(run("(regex-search (regex-compile \"^ab$\") \"ab\")"), "(0 . 2)");
  EXPECT_EQ(run("(regex-search (regex-compile \"^ab$\") \"xab\")"), "#f");
  // ^ mid-pattern via alternation still only fires at offset zero.
  EXPECT_EQ(run("(regex-search (regex-compile \"^a|b\") \"cab\")"), "(2 . 3)");
  EXPECT_EQ(run("(regex-search (regex-compile \"^$\") \"\")"), "(0 . 0)");
}

TEST_F(RegexTest, CharacterClassEdgeCases) {
  // ']' as the first member is a literal.
  EXPECT_EQ(run("(regex-search (regex-compile \"[]a]+\") \"x]a]y\")"),
            "(1 . 4)");
  // Negation, with '^' only special in first position.
  EXPECT_EQ(run("(regex-search (regex-compile \"[^0-9]+\") \"12ab34\")"),
            "(2 . 4)");
  EXPECT_EQ(run("(regex-search (regex-compile \"[a^]+\") \"z^aq\")"),
            "(1 . 3)");
  // '-' is a literal when leading or trailing.
  EXPECT_EQ(run("(regex-search (regex-compile \"[-az]+\") \"q-a-z\")"),
            "(1 . 5)");
  EXPECT_EQ(run("(regex-search (regex-compile \"[az-]+\") \"qa-z\")"),
            "(1 . 4)");
  // Perl-style class escapes compose inside brackets.
  EXPECT_EQ(run("(regex-search (regex-compile \"[\\\\d_]+\") \"ab1_2c\")"),
            "(2 . 5)");
  EXPECT_EQ(run("(regex-match (regex-compile \"[\\\\w]+\") \"a_9Z\")"), "#t");
  EXPECT_EQ(run("(regex-search (regex-compile \"\\\\s+\") \"ab \\tcd\")"),
            "(2 . 4)");
  EXPECT_EQ(run("(regex-search (regex-compile \"\\\\D+\") \"12ab3\")"),
            "(2 . 4)");
  // A class matches exactly one byte; '.' refuses newline, classes don't.
  EXPECT_EQ(run("(regex-match (regex-compile \"[ab]\") \"ab\")"), "#f");
  EXPECT_EQ(run("(regex-search (regex-compile \".\") \"\\n x\")"), "(1 . 2)");
  EXPECT_EQ(run("(regex-search (regex-compile \"[^x]\") \"\\nx\")"),
            "(0 . 1)");
}

TEST_F(RegexTest, BoundedRepetition) {
  EXPECT_EQ(run("(regex-match (regex-compile \"a{3}\") \"aaa\")"), "#t");
  EXPECT_EQ(run("(regex-match (regex-compile \"a{3}\") \"aa\")"), "#f");
  EXPECT_EQ(run("(regex-match (regex-compile \"a{2,}\") \"aaaaa\")"), "#t");
  EXPECT_EQ(run("(regex-match (regex-compile \"a{2,}\") \"a\")"), "#f");
  EXPECT_EQ(run("(regex-search (regex-compile \"a{2,3}\") \"caaaaat\")"),
            "(1 . 4)");
  EXPECT_EQ(run("(regex-match (regex-compile \"a{0,2}\") \"\")"), "#t");
}

// --- the streaming matcher ---------------------------------------------------

TEST_F(RegexTest, StreamFindsMatchesAcrossChunkBoundaries) {
  // The needle straddles the boundary; state carries across feeds.
  EXPECT_EQ(run("(define st (regex-stream (regex-compile \"needle\")))"
                "(regex-stream-feed! st \"hay nee\")"),
            "#f");
  EXPECT_EQ(run("(regex-stream-feed! st \"dle stack\")"), "(4 . 10)");
  EXPECT_EQ(run("(regex-stream-done? st)"), "#t");
  // Byte-at-a-time chunking decides at exactly the same offsets.
  EXPECT_EQ(run("(define st2 (regex-stream (regex-compile \"needle\")))"
                "(let loop ((i 0) (r #f))"
                "  (if (or r (>= i 10)) r"
                "      (loop (+ i 1)"
                "            (regex-stream-feed!"
                "             st2 (substring \"hay needle\" i (+ i 1))))))"),
            "(4 . 10)");
}

TEST_F(RegexTest, StreamEndDecidesAndNoMatchIsASymbol) {
  EXPECT_EQ(run("(define st (regex-stream (regex-compile \"xyz\")))"
                "(regex-stream-feed! st \"abc\")"),
            "#f");
  EXPECT_EQ(run("(regex-stream-end! st)"), "nomatch");
  EXPECT_EQ(run("(regex-stream-done? st)"), "#t");
  // An end-anchored pattern cannot decide before end-of-input.
  EXPECT_EQ(run("(define st2 (regex-stream (regex-compile \"ab$\")))"
                "(regex-stream-feed! st2 \"zab\")"),
            "#f");
  EXPECT_EQ(run("(regex-stream-end! st2)"), "(1 . 3)");
  // A begin-anchored miss is decided without waiting for more input.
  EXPECT_EQ(run("(define st3 (regex-stream (regex-compile \"^ab\")))"
                "(regex-stream-feed! st3 \"xy\")"),
            "nomatch");
  EXPECT_EQ(run("(regex-stream-offset st3)"), "1");
}

TEST_F(RegexTest, StreamObjectsSurviveGC) {
  // The matcher and program are ordinary heap objects: force collections
  // with live streams in flight and keep matching.
  EXPECT_EQ(run("(define st (regex-stream (regex-compile \"abc+d\")))"
                "(let loop ((i 0))"
                "  (if (< i 50)"
                "      (begin (make-vector 512 i) (gc)"
                "             (regex-stream-feed! st \"abc\")"
                "             (loop (+ i 1)))"
                "      'fed))"),
            "fed");
  EXPECT_EQ(run("(regex-stream-feed! st \"cccd\")"), "(147 . 154)");
}

// --- one-shot discipline around a suspended match ----------------------------

TEST_F(RegexTest, SuspendedMatchResumptionIsOneShot) {
  // A MATCH/STREAM-shaped suspension: feed, park via shift, resume once
  // to finish the match — then prove the stashed continuation is spent.
  EXPECT_EQ(run("(define saved #f)"
                "(define st (regex-stream (regex-compile \"ab\")))"
                "(reset 'p"
                "  (regex-stream-feed! st \"a\")"
                "  (shift 'p k (set! saved k) 'parked)"
                "  (regex-stream-feed! st \"b\"))"),
            "parked");
  EXPECT_EQ(run("(saved 'resume)"), "(0 . 2)");
  std::string Second = run("(saved 'resume)");
  EXPECT_NE(Second.find("delimited continuation invoked a second time"),
            std::string::npos)
      << Second;
  EXPECT_EQ(run("(+ 1 2)"), "3"); // the error unwound cleanly
}

// --- the MATCH and MATCH/STREAM protocol verbs -------------------------------

TEST(RegexServe, MatchVerbOnServer) {
  Pool P(serveOptions());
  mustStart(P);
  Client C;
  std::string E;
  ASSERT_TRUE(C.connect(P.tcpPort(), E)) << E;
  EXPECT_EQ(ask(C, "MATCH b+ abbbc"), "FOUND 1 4");
  EXPECT_EQ(ask(C, "MATCH ^foo barfoo"), "NOMATCH");
  EXPECT_EQ(ask(C, "MATCH [0-9]{3} order 123 shipped"), "FOUND 6 9");
  // The text may contain spaces; a literal space in the pattern is [ ].
  EXPECT_EQ(ask(C, "MATCH a[ ]b x a b y"), "FOUND 2 5");
  // Bad patterns and missing arguments answer ERR, never kill the conn.
  EXPECT_EQ(ask(C, "MATCH a{3,1} text"), "ERR");
  EXPECT_EQ(ask(C, "MATCH loner"), "ERR");
  EXPECT_EQ(ask(C, "PING"), "PONG");
  C.close();
  P.stop();
  EXPECT_TRUE(P.result(0).Ok) << P.result(0).Error;
  Stats::Snapshot D = P.snapshot() - P.baseline();
  EXPECT_GE(D.RegexExecs, 4u);
  EXPECT_GT(D.RegexBytesScanned, 0u);
}

TEST(RegexServe, MatchStreamVerbOnServer) {
  Pool P(serveOptions());
  mustStart(P);
  Client C;
  std::string E;
  ASSERT_TRUE(C.connect(P.tcpPort(), E)) << E;
  // Undecided chunks answer AGAIN; the match lands across a boundary.
  ASSERT_TRUE(C.sendLine("MATCH/STREAM needle"));
  EXPECT_EQ(ask(C, "hay nee"), "AGAIN");
  EXPECT_EQ(ask(C, "dle stack"), "FOUND 4 10");
  // The connection returns to normal dispatch after the verb settles.
  EXPECT_EQ(ask(C, "PING"), "PONG");
  // END forces the decision at end-of-input.
  ASSERT_TRUE(C.sendLine("MATCH/STREAM xyz$"));
  EXPECT_EQ(ask(C, "abxyzc"), "AGAIN");
  EXPECT_EQ(ask(C, "xy"), "AGAIN");
  EXPECT_EQ(ask(C, "z"), "AGAIN");
  EXPECT_EQ(ask(C, "END"), "FOUND 6 9");
  ASSERT_TRUE(C.sendLine("MATCH/STREAM nope"));
  EXPECT_EQ(ask(C, "some text"), "AGAIN");
  EXPECT_EQ(ask(C, "END"), "NOMATCH");
  // A bad pattern is one ERR line; the verb never starts.
  EXPECT_EQ(ask(C, "MATCH/STREAM a{9,1}"), "ERR");
  EXPECT_EQ(ask(C, "EVAL (+ 20 22)"), "42");
  C.close();
  P.stop();
  EXPECT_TRUE(P.result(0).Ok) << P.result(0).Error;
  Stats::Snapshot D = P.snapshot() - P.baseline();
  EXPECT_GE(D.RegexStreamFeeds, 6u);
}

TEST(RegexServe, MatchStreamKeepsTheZeroCopyInvariant) {
  // The generator driving MATCH/STREAM parks once per chunk; in the
  // one-shot steady state not one stack word may move.
  Pool P(serveOptions());
  mustStart(P);
  Client C;
  std::string E;
  ASSERT_TRUE(C.connect(P.tcpPort(), E)) << E;
  ASSERT_EQ(ask(C, "PING"), "PONG"); // warmup park
  ASSERT_TRUE(C.sendLine("MATCH/STREAM zz9"));
  ASSERT_EQ(ask(C, "warm"), "AGAIN");
  uint64_t Fed = 4;
  uint64_t W0 = P.snapshot().WordsCopied;
  for (int K = 0; K < 64; ++K) {
    std::string Chunk = "chunk " + std::to_string(K);
    ASSERT_EQ(ask(C, Chunk), "AGAIN") << K;
    Fed += Chunk.size();
  }
  EXPECT_EQ(ask(C, "zz"), "AGAIN");
  EXPECT_EQ(ask(C, "9 tail"), "FOUND " + std::to_string(Fed) + " " +
                                  std::to_string(Fed + 3));
  EXPECT_EQ(P.snapshot().WordsCopied, W0);
  C.close();
  P.stop();
  EXPECT_TRUE(P.result(0).Ok) << P.result(0).Error;
}

TEST(RegexServe, MatchVerbsOnPool) {
  // Every shard runs the same worker program, so each serves the verbs.
  ServeOptions O;
  O.Workers = 3;
  Pool P(O);
  ASSERT_TRUE(P.start()) << P.error();
  std::vector<Client> Cs(6);
  std::string E;
  for (size_t K = 0; K < Cs.size(); ++K)
    ASSERT_TRUE(Cs[K].connect(P.tcpPort(), E)) << "client " << K << ": " << E;
  for (size_t K = 0; K < Cs.size(); ++K)
    EXPECT_EQ(ask(Cs[K], "MATCH a+b z" + std::string(K + 1, 'a') + "bz"),
              "FOUND 1 " + std::to_string(K + 3))
        << "client " << K;
  // A streaming match on one shard while the others keep answering.
  ASSERT_TRUE(Cs[0].sendLine("MATCH/STREAM end$"));
  EXPECT_EQ(ask(Cs[0], "not yet"), "AGAIN");
  EXPECT_EQ(ask(Cs[1], "MATCH q+ qqq"), "FOUND 0 3");
  EXPECT_EQ(ask(Cs[0], "the end"), "AGAIN");
  EXPECT_EQ(ask(Cs[0], "END"), "FOUND 11 14");
  EXPECT_EQ(ask(Cs[0], "PING"), "PONG");
  for (Client &C : Cs)
    C.close();
  P.stop();
  ASSERT_TRUE(P.error().ok()) << P.error();
  Stats::Snapshot D = P.snapshot() - P.baseline();
  EXPECT_GE(D.RegexExecs, 7u);
  EXPECT_EQ(D.WordsCopied, 0u);
}

// --- slow-client reaping mid-stream ------------------------------------------

TEST(RegexServe, ReapedMidStreamClientUnwindsTheVerb) {
  // A client opens MATCH/STREAM, sends one chunk, then stalls past the
  // connection deadline: the reactor reaps it, the generator's parked
  // read wakes with EOF, and the verb unwinds without copying a word.
  ServeOptions O = serveOptions();
  O.ConnDeadlineMs = 50;
  Pool P(O);
  mustStart(P);
  Client C;
  std::string E;
  ASSERT_TRUE(C.connect(P.tcpPort(), E)) << E;
  ASSERT_TRUE(C.sendLine("MATCH/STREAM needle"));
  ASSERT_EQ(ask(C, "hay nee"), "AGAIN");
  // Stall.  The server must reap us; the socket just goes quiet/EOF.
  std::string L;
  EXPECT_FALSE(C.recvLine(L, 2000));
  C.close();
  P.stop();
  EXPECT_TRUE(P.result(0).Ok) << P.result(0).Error;
  Stats::Snapshot D = P.snapshot() - P.baseline();
  EXPECT_GE(D.ConnsReaped, 1u);
  EXPECT_GE(D.Timeouts, 1u);
  EXPECT_EQ(D.WordsCopied, 0u);
}

TEST(RegexServe, MidStreamReapTraceIsByteIdentical) {
  // The deterministic in-VM copy of the reap: the MATCH/STREAM shape —
  // a generator whose body reads a deadlined port and feeds a regex
  // stream, driven from a conn thread — torn down by the reactor's
  // clock.  Two runs must produce byte-identical traces, and the
  // teardown must not copy stack words.
  auto Run = [](std::string &Dump, Stats::Snapshot &Delta) {
    Interp I;
    Stats::Snapshot B = I.snapshot();
    I.trace().start();
    auto R = I.eval(
        "(define p (open-pipe))"
        "(io-set-deadline! (car p) 5)"
        "(define re (regex-compile \"needle\"))"
        "(define replies '())"
        "(spawn (lambda ()"
        "  (let ((g (make-generator"
        "            (lambda (v)"
        "              (let ((st (regex-stream re)))"
        "                (let loop ()"
        "                  (let ((chunk (io-read-line (car p))))"
        "                    (cond"
        "                      ((eof-object? chunk) 'eof)"
        "                      ((string=? chunk \"END\")"
        "                       (yield (regex-stream-end! st)) 'done)"
        "                      (else"
        "                       (let ((r (regex-stream-feed! st chunk)))"
        "                         (if r (begin (yield r) 'done)"
        "                             (begin (yield 'again) (loop)))))))))))))"
        "    (let drive ()"
        "      (let ((reply (generator-next g)))"
        "        (if (eof-object? reply)"
        "            'reaped"
        "            (begin (set! replies (cons reply replies))"
        "                   (drive))))))))"
        "(spawn (lambda () (io-write (cdr p) \"hay nee\\n\")))"
        "(scheduler-run)"
        "replies");
    ASSERT_TRUE(R.Ok) << R.Error;
    EXPECT_EQ(I.valueToString(R.Val), "(again)");
    I.trace().stop();
    Dump = I.trace().toString();
    Delta = I.snapshot() - B;
  };
  std::string A, B;
  Stats::Snapshot DA, DB;
  Run(A, DA);
  if (::testing::Test::HasFatalFailure())
    return;
  Run(B, DB);
  if (::testing::Test::HasFatalFailure())
    return;
  EXPECT_EQ(DA.Timeouts, 1u);
  EXPECT_EQ(DA.ConnsReaped, 1u);
  EXPECT_EQ(DA.WordsCopied, 0u);
  EXPECT_EQ(DA.RegexStreamFeeds, 1u);
  EXPECT_EQ(A, B) << "mid-stream reap trace differs between identical runs";
  EXPECT_NE(A.find("io-timeout"), std::string::npos) << A;
}

// --- counters ----------------------------------------------------------------

TEST_F(RegexTest, VmStatReportsRegexCounters) {
  run("(regex-search (regex-compile \"a+\") \"caat\")");
  EXPECT_EQ(run("(> (vm-stat 'regex-compiles) 0)"), "#t");
  EXPECT_EQ(run("(> (vm-stat 'regex-execs) 0)"), "#t");
  EXPECT_EQ(run("(>= (vm-stat 'regex-bytes-scanned) 4)"), "#t");
  EXPECT_EQ(run("(> (vm-stat 'regex-steps) 0)"), "#t");
  run("(define st (regex-stream (regex-compile \"q\")))"
      "(regex-stream-feed! st \"zzz\")");
  EXPECT_EQ(run("(> (vm-stat 'regex-stream-feeds) 0)"), "#t");
}
