// Unit tests for src/cnf: literals, formulas, DIMACS I/O, model checking.

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <thread>

#include "src/cnf/dimacs.hpp"
#include "src/cnf/formula.hpp"
#include "src/cnf/model.hpp"
#include "src/cnf/types.hpp"
#include "src/util/temp_file.hpp"

namespace satproof {
namespace {

TEST(Lit, EncodingRoundTrip) {
  const Lit p = Lit::pos(5);
  EXPECT_EQ(p.var(), 5u);
  EXPECT_FALSE(p.negated());
  const Lit n = ~p;
  EXPECT_EQ(n.var(), 5u);
  EXPECT_TRUE(n.negated());
  EXPECT_EQ(~n, p);
  EXPECT_EQ(Lit::from_code(p.code()), p);
}

TEST(Lit, DimacsConversion) {
  EXPECT_EQ(Lit::pos(0).to_dimacs(), 1);
  EXPECT_EQ(Lit::neg(0).to_dimacs(), -1);
  EXPECT_EQ(Lit::pos(41).to_dimacs(), 42);
  EXPECT_EQ(Lit::from_dimacs(42), Lit::pos(41));
  EXPECT_EQ(Lit::from_dimacs(-7), Lit::neg(6));
  for (const std::int64_t d : {1, -1, 5, -5, 1000, -1000}) {
    EXPECT_EQ(Lit::from_dimacs(d).to_dimacs(), d);
  }
}

TEST(Lit, DimacsRangeEndsBeforeTheCodeWraps) {
  constexpr std::int64_t kTop = std::int64_t{kMaxVar} + 1;
  EXPECT_EQ(kTop, 2147483647);
  for (const std::int64_t d :
       {kTop, -kTop, std::int64_t{1}, std::int64_t{-1}}) {
    ASSERT_TRUE(Lit::dimacs_in_range(d)) << d;
    const Lit lit = Lit::from_dimacs(d);
    EXPECT_NE(lit, Lit::invalid());
    EXPECT_EQ(lit.to_dimacs(), d);
  }
  EXPECT_EQ(Lit::from_dimacs(-kTop).var(), kMaxVar);
  for (const std::int64_t d :
       {std::int64_t{0}, kTop + 1, -kTop - 1, std::int64_t{1} << 32,
        std::numeric_limits<std::int64_t>::min(),
        std::numeric_limits<std::int64_t>::max()}) {
    EXPECT_FALSE(Lit::dimacs_in_range(d)) << d;
  }
}

TEST(Lit, OrderingFollowsCodes) {
  EXPECT_LT(Lit::pos(0), Lit::neg(0));
  EXPECT_LT(Lit::neg(0), Lit::pos(1));
}

TEST(Lit, ToStringForms) {
  EXPECT_EQ(to_string(Lit::pos(3)), "x3");
  EXPECT_EQ(to_string(Lit::neg(3)), "~x3");
  EXPECT_EQ(to_string(Lit::invalid()), "<invalid>");
}

TEST(LBool, NegationTable) {
  EXPECT_EQ(~LBool::True, LBool::False);
  EXPECT_EQ(~LBool::False, LBool::True);
  EXPECT_EQ(~LBool::Undef, LBool::Undef);
}

TEST(Formula, AddClauseAssignsSequentialIds) {
  Formula f;
  EXPECT_EQ(f.add_clause({Lit::pos(0)}), 0u);
  EXPECT_EQ(f.add_clause({Lit::neg(1), Lit::pos(2)}), 1u);
  EXPECT_EQ(f.num_clauses(), 2u);
  EXPECT_EQ(f.num_vars(), 3u);
  EXPECT_EQ(f.num_literals(), 3u);
}

TEST(Formula, ClauseAccessPreservesLiterals) {
  Formula f;
  f.add_clause({Lit::pos(2), Lit::neg(0), Lit::pos(1)});
  const auto c = f.clause(0);
  ASSERT_EQ(c.size(), 3u);
  EXPECT_EQ(c[0], Lit::pos(2));
  EXPECT_EQ(c[1], Lit::neg(0));
  EXPECT_EQ(c[2], Lit::pos(1));
}

TEST(Formula, EmptyClauseAllowed) {
  Formula f;
  f.add_clause(std::initializer_list<Lit>{});
  EXPECT_EQ(f.clause(0).size(), 0u);
}

TEST(Formula, InvalidLiteralRejected) {
  Formula f;
  EXPECT_THROW(f.add_clause({Lit::invalid()}), std::invalid_argument);
}

TEST(Formula, OutOfRangeClauseIdThrows) {
  Formula f;
  EXPECT_THROW(f.clause(0), std::out_of_range);
}

TEST(Formula, NumUsedVarsIgnoresDeclaredButUnused) {
  Formula f(10);
  f.add_clause({Lit::pos(0), Lit::neg(9)});
  EXPECT_EQ(f.num_vars(), 10u);
  EXPECT_EQ(f.num_used_vars(), 2u);
}

TEST(Formula, SubformulaSelectsClausesInOrder) {
  Formula f;
  f.add_clause({Lit::pos(0)});
  f.add_clause({Lit::pos(1)});
  f.add_clause({Lit::pos(2)});
  const ClauseId ids[] = {2, 0};
  const Formula sub = f.subformula(ids);
  EXPECT_EQ(sub.num_clauses(), 2u);
  EXPECT_EQ(sub.clause(0)[0], Lit::pos(2));
  EXPECT_EQ(sub.clause(1)[0], Lit::pos(0));
  EXPECT_EQ(sub.num_vars(), f.num_vars());
}

TEST(Dimacs, ParsesStandardFormat) {
  const Formula f = dimacs::parse_string(
      "c a comment\n"
      "p cnf 3 2\n"
      "1 -2 0\n"
      "-1 2 3 0\n");
  EXPECT_EQ(f.num_vars(), 3u);
  ASSERT_EQ(f.num_clauses(), 2u);
  EXPECT_EQ(f.clause(0)[0], Lit::pos(0));
  EXPECT_EQ(f.clause(0)[1], Lit::neg(1));
  EXPECT_EQ(f.clause(1)[2], Lit::pos(2));
}

TEST(Dimacs, ClauseMaySpanLines) {
  const Formula f = dimacs::parse_string("p cnf 2 1\n1\n-2\n0\n");
  ASSERT_EQ(f.num_clauses(), 1u);
  EXPECT_EQ(f.clause(0).size(), 2u);
}

TEST(Dimacs, HonoursDeclaredVarCountAboveUsage) {
  const Formula f = dimacs::parse_string("p cnf 10 1\n1 0\n");
  EXPECT_EQ(f.num_vars(), 10u);
}

TEST(Dimacs, RejectsMissingHeader) {
  EXPECT_THROW(dimacs::parse_string("1 2 0\n"), std::runtime_error);
}

TEST(Dimacs, RejectsLiteralBeyondDeclared) {
  EXPECT_THROW(dimacs::parse_string("p cnf 2 1\n3 0\n"), std::runtime_error);
}

TEST(Dimacs, RejectsUnterminatedClause) {
  EXPECT_THROW(dimacs::parse_string("p cnf 2 1\n1 2\n"), std::runtime_error);
}

TEST(Dimacs, RejectsClauseCountMismatch) {
  EXPECT_THROW(dimacs::parse_string("p cnf 2 2\n1 0\n"), std::runtime_error);
}

TEST(Dimacs, RejectsNonInteger) {
  EXPECT_THROW(dimacs::parse_string("p cnf 2 1\n1 x 0\n"), std::runtime_error);
}

TEST(Dimacs, SatlibTrailerIgnored) {
  // SATLIB benchmark files end with "%\n0\n"; the trailer must not be read
  // as an empty clause.
  const Formula f = dimacs::parse_string("p cnf 2 1\n1 -2 0\n%\n0\n");
  ASSERT_EQ(f.num_clauses(), 1u);
  EXPECT_EQ(f.clause(0).size(), 2u);
}

TEST(Dimacs, WindowsLineEndingsAccepted) {
  const Formula f = dimacs::parse_string("p cnf 2 1\r\n1 -2 0\r\n");
  ASSERT_EQ(f.num_clauses(), 1u);
  EXPECT_EQ(f.num_vars(), 2u);
}

TEST(Dimacs, WriteParseRoundTrip) {
  Formula f(4);
  f.add_clause({Lit::pos(0), Lit::neg(3)});
  f.add_clause({Lit::neg(1)});
  f.add_clause({Lit::pos(2), Lit::pos(1), Lit::neg(0)});
  std::ostringstream out;
  dimacs::write(out, f, "round trip\nsecond line");
  const Formula back = dimacs::parse_string(out.str());
  ASSERT_EQ(back.num_clauses(), f.num_clauses());
  EXPECT_EQ(back.num_vars(), f.num_vars());
  for (ClauseId id = 0; id < f.num_clauses(); ++id) {
    const auto a = f.clause(id), b = back.clause(id);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  }
}

using namespace std::string_literals;

/// "vars=V: <clauses in DIMACS>" for an accepted formula, or the exact
/// what() of the rejection, so one string pins either outcome.
std::string parse_outcome(const std::function<Formula()>& parse) {
  try {
    const Formula f = parse();
    std::string out = "vars=" + std::to_string(f.num_vars()) + ":";
    for (ClauseId id = 0; id < f.num_clauses(); ++id) {
      for (const Lit lit : f.clause(id)) {
        out += ' ' + std::to_string(lit.to_dimacs());
      }
      out += " 0";
    }
    return out;
  } catch (const std::runtime_error& e) {
    return e.what();
  }
}

struct DimacsCase {
  std::string text;
  std::string expected;
};

TEST(Dimacs, PinnedOutcomesOnEveryEntryPoint) {
  // Recorded with the getline + istringstream parser that the text scanner
  // replaced: accepted formulas and diagnostics must stay byte-identical
  // whether the text arrives as a string, a stream or a file.
  const std::string malformed =
      "malformed header (expected 'p cnf <vars> <clauses>')";
  const DimacsCase cases[] = {
      // Line endings, the SATLIB trailer, whitespace and signs.
      {"p cnf 2 2\r\n1 -2 0\r\n2 0\r\n", "vars=2: 1 -2 0 2 0"},
      {"p cnf 2 1\r\r\n1 0\n", "vars=2: 1 0"},
      {"\r\np cnf 1 1\n1 0\n", "vars=1: 1 0"},
      {"\r\r\np cnf 1 1\n1 0\n",
       "dimacs: line 1: literals before 'p cnf' header"},
      {"p cnf 2 1\n1 2 0\n%\n0\n", "vars=2: 1 2 0"},
      {"p cnf 2 1\n1 2 0\n%\n1 0\n", "vars=2: 1 2 0"},
      {"p cnf 2 1\n1 2\n%\n0\n",
       "dimacs: unterminated final clause (missing 0)"},
      {"p\tcnf\t2\t1\n1\t-2\t0\n", "vars=2: 1 -2 0"},
      {"p cnf 1 1\n1\v0\f\n", "vars=1: 1 0"},
      {"p cnf 2 1\n+1 -2 0\n", "vars=2: 1 -2 0"},
      // Tokens that are not (only) integers.
      {"p cnf 2 1\n5x 0\n", "dimacs: line 2: literal exceeds declared vars"},
      {"p cnf 2 1\n1x 0\n", "dimacs: line 2: non-integer token"},
      {"p cnf 2 1\n0x1 0\n", "dimacs: line 2: non-integer token"},
      {"p cnf 2 1\n1 - 0\n", "dimacs: line 2: non-integer token"},
      {"p cnf 2 1\n1 --2 0\n", "dimacs: line 2: non-integer token"},
      {"p cnf 2 1\n1 -\n0\n", "vars=2: 1 0"},
      {"p cnf 1 1\n1 0\0\n"s, "dimacs: line 2: non-integer token"},
      {"p cnf 2 1\n12345678901234567890 0\n",
       "dimacs: line 2: non-integer token"},
      // Clause layout.
      {"p cnf 3 3\n1 2 0 -1 0 3 0\n", "vars=3: 1 2 0 -1 0 3 0"},
      {"p cnf 3 1\n1\n2\n\n3 0\n", "vars=3: 1 2 3 0"},
      {"p cnf 2 1\n1 2 0", "vars=2: 1 2 0"},
      {"p cnf 2 1\n1 2", "dimacs: unterminated final clause (missing 0)"},
      {"p cnf 0 1\n0\n", "vars=1: 0"},
      {"p cnf 0 0\n", "vars=1:"},
      // Whitespace-only lines and comments.
      {"p cnf 2 1\n   \n1 0\n", "vars=2: 1 0"},
      {"p cnf 1 1\n1 0\n\r\r\n", "vars=1: 1 0"},
      {"   \np cnf 2 1\n1 0\n",
       "dimacs: line 1: literals before 'p cnf' header"},
      {" c indented\np cnf 1 1\n1 0\n",
       "dimacs: line 1: literals before 'p cnf' header"},
      // Header: missing, duplicate, malformed, lenient tails.
      {"1 0\n", "dimacs: line 1: literals before 'p cnf' header"},
      {"c only a comment\n", "dimacs: missing 'p cnf' header"},
      {"", "dimacs: missing 'p cnf' header"},
      {"p cnf 2 1\np cnf 2 1\n1 0\n", "dimacs: line 2: duplicate header"},
      {"p cnf 2\n1 0\n", "dimacs: line 1: " + malformed},
      {"p dnf 2 1\n1 0\n", "dimacs: line 1: " + malformed},
      {"pcnf 2 1\n1 0\n", "dimacs: line 1: " + malformed},
      {"p cnf -1 1\n1 0\n", "dimacs: line 1: " + malformed},
      {"p cnf 2 -1\n", "dimacs: line 1: " + malformed},
      {"p cnf 99999999999999999999 1\n1 0\n", "dimacs: line 1: " + malformed},
      {"pfoo cnf 2 1\n1 0\n", "vars=2: 1 0"},
      {"p cnf 2 1 trailing junk\n1 0\n", "vars=2: 1 0"},
      {"p cnf 2 1x\n1 0\n", "vars=2: 1 0"},
      // Counts and ranges.
      {"p cnf 2 2\n1 0\n",
       "dimacs: clause count mismatch: header declares 2, file contains 1"},
      {"p cnf 2 1\n1 0\n2 0\n",
       "dimacs: clause count mismatch: header declares 1, file contains 2"},
      {"p cnf 2 1\n3 0\n", "dimacs: line 2: literal exceeds declared vars"},
      {"p cnf 2 1\n-3 0\n", "dimacs: line 2: literal exceeds declared vars"},
      {"p cnf 2147483647 2\n1 0\n-1 0\n", "vars=2147483647: 1 0 -1 0"},
  };
  util::TempFile tmp("dimacs_pinned");
  for (const DimacsCase& c : cases) {
    SCOPED_TRACE(testing::PrintToString(c.text));
    EXPECT_EQ(parse_outcome([&] { return dimacs::parse_string(c.text); }),
              c.expected);
    EXPECT_EQ(parse_outcome([&] {
                std::istringstream in(c.text);
                return dimacs::parse(in);
              }),
              c.expected);
    {
      std::ofstream out(tmp.path(), std::ios::binary | std::ios::trunc);
      out << c.text;
    }
    EXPECT_EQ(parse_outcome([&] { return dimacs::parse_file(tmp.path()); }),
              c.expected);
  }
}

TEST(Dimacs, RejectsHeaderBeyondMaxVar) {
  // Unchecked, 2^32 wraps the 32-bit variable count to "0 vars" while
  // the clauses still use var 1, and with 2^31 the negative literal of the
  // last variable collides with Lit::invalid().
  for (const char* vars : {"4294967296", "2147483648"}) {
    const std::string text = "p cnf "s + vars + " 2\n1 0\n-1 0\n";
    EXPECT_EQ(parse_outcome([&] { return dimacs::parse_string(text); }),
              "dimacs: line 1: variable count out of range (max 2147483647)")
        << vars;
  }
}

TEST(Dimacs, RejectsLiteralsOutsideInt64OrRange) {
  // -2^63 parses as an integer but has no positive counterpart.
  EXPECT_EQ(parse_outcome([] {
              return dimacs::parse_string(
                  "p cnf 2 1\n1 -9223372036854775808 0\n");
            }),
            "dimacs: line 2: literal exceeds declared vars");
  // A token too long for 64 bits is rejected at the end of a line too,
  // not dropped from its clause.
  EXPECT_EQ(parse_outcome([] {
              return dimacs::parse_string(
                  "p cnf 2 1\n1 12345678901234567890\n0\n");
            }),
            "dimacs: line 2: non-integer token");
}

TEST(Dimacs, ParseFileReadsAFifoAsAStream) {
  // parse_file takes any readable path, `<(...)` process substitution too.
  util::TempFile tmp("dimacs_fifo");
  std::filesystem::remove(tmp.path());
  ASSERT_EQ(::mkfifo(tmp.path().c_str(), 0600), 0);
  std::thread writer([&] {
    std::ofstream out(tmp.path());
    out << "p cnf 2 2\n1 -2 0\n2 0\n";
  });
  const std::string got =
      parse_outcome([&] { return dimacs::parse_file(tmp.path()); });
  writer.join();
  EXPECT_EQ(got, "vars=2: 1 -2 0 2 0");
}

TEST(Dimacs, ParseFileReportsUnopenablePath) {
  const std::string path = "/nonexistent/dir/x.cnf";
  EXPECT_EQ(parse_outcome([&] { return dimacs::parse_file(path); }),
            "dimacs: cannot open " + path);
}

TEST(Model, ValueOfRespectsPhase) {
  Model m(2, LBool::Undef);
  m[0] = LBool::True;
  EXPECT_EQ(value_of(Lit::pos(0), m), LBool::True);
  EXPECT_EQ(value_of(Lit::neg(0), m), LBool::False);
  EXPECT_EQ(value_of(Lit::pos(1), m), LBool::Undef);
  EXPECT_EQ(value_of(Lit::pos(5), m), LBool::Undef);  // out of range
}

TEST(Model, SatisfiesDetectsFalsifiedClause) {
  Formula f;
  f.add_clause({Lit::pos(0), Lit::pos(1)});
  f.add_clause({Lit::neg(0)});
  Model m(2, LBool::False);
  m[0] = LBool::True;
  const auto bad = first_falsified_clause(f, m);
  ASSERT_TRUE(bad.has_value());
  EXPECT_EQ(*bad, 1u);
  EXPECT_FALSE(satisfies(f, m));
}

TEST(Model, UnassignedLiteralDoesNotSatisfy) {
  Formula f;
  f.add_clause({Lit::pos(0)});
  const Model m(1, LBool::Undef);
  EXPECT_FALSE(satisfies(f, m));
}

TEST(Model, SatisfiesAcceptsGoodModel) {
  Formula f;
  f.add_clause({Lit::pos(0), Lit::pos(1)});
  f.add_clause({Lit::neg(1), Lit::pos(0)});
  Model m(2, LBool::Undef);
  m[0] = LBool::True;
  m[1] = LBool::False;
  EXPECT_TRUE(satisfies(f, m));
}

}  // namespace
}  // namespace satproof
