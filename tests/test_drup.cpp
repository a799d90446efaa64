// Tests for DRUP emission and forward DRUP checking — the modern proof
// format descended from the paper's trace, validated side by side with it.

#include <gtest/gtest.h>

#include <sstream>

#include "src/checker/drup.hpp"
#include "src/cnf/dimacs.hpp"
#include "src/encode/pigeonhole.hpp"
#include "src/encode/random_ksat.hpp"
#include "src/encode/suite.hpp"
#include "src/solver/solver.hpp"
#include "src/trace/drup.hpp"
#include "src/util/rng.hpp"

namespace satproof::checker {
namespace {

/// Solves `f` with DRUP emission; expects UNSAT; returns the proof text.
std::string solve_drup(const Formula& f, solver::SolverOptions opts = {}) {
  std::ostringstream out;
  trace::DrupWriter w(out);
  solver::Solver s(opts);
  s.add_formula(f);
  s.set_drup_writer(&w);
  EXPECT_EQ(s.solve(), solver::SolveResult::Unsatisfiable);
  return out.str();
}

TEST(Drup, SuiteProofsVerify) {
  for (const auto& inst : encode::unsat_suite(encode::SuiteScale::Small)) {
    const std::string proof = solve_drup(inst.formula);
    std::istringstream in(proof);
    const DrupCheckResult res = check_drup(inst.formula, in);
    EXPECT_TRUE(res.ok) << inst.name << ": " << res.error;
    EXPECT_GT(res.clauses_checked, 0u) << inst.name;
  }
}

TEST(Drup, DeletionHeavyProofsVerify) {
  solver::SolverOptions opts;
  opts.learned_size_factor = 0.001;  // force aggressive deletion
  const Formula f = encode::pigeonhole(7);
  const std::string proof = solve_drup(f, opts);
  EXPECT_NE(proof.find("d "), std::string::npos)
      << "expected deletion lines in the proof";
  std::istringstream in(proof);
  const DrupCheckResult res = check_drup(f, in);
  EXPECT_TRUE(res.ok) << res.error;
  EXPECT_GT(res.deletions, 0u);
}

TEST(Drup, EndsWithEmptyClause) {
  const std::string proof = solve_drup(encode::pigeonhole(4));
  // The last line is "0".
  const auto pos = proof.rfind('\n', proof.size() - 2);
  EXPECT_EQ(proof.substr(pos + 1), "0\n");
}

TEST(Drup, TrivialContradictionProof) {
  Formula f(1);
  f.add_clause({Lit::pos(0)});
  f.add_clause({Lit::neg(0)});
  const std::string proof = solve_drup(f);
  std::istringstream in(proof);
  const DrupCheckResult res = check_drup(f, in);
  EXPECT_TRUE(res.ok) << res.error;
}

TEST(Drup, CorruptedClauseRejected) {
  const Formula f = encode::pigeonhole(4);
  std::string proof = solve_drup(f);
  // Flip the sign of the first literal of the first added clause.
  const std::size_t pos = proof.find_first_of("-123456789");
  ASSERT_NE(pos, std::string::npos);
  if (proof[pos] == '-') {
    proof.erase(pos, 1);
  } else {
    proof.insert(pos, "-");
  }
  std::istringstream in(proof);
  const DrupCheckResult res = check_drup(f, in);
  // Either the flipped clause is no longer RUP, or some later step fails.
  EXPECT_FALSE(res.ok);
  EXPECT_FALSE(res.error.empty());
}

TEST(Drup, MissingEmptyClauseRejected) {
  const Formula f = encode::pigeonhole(4);
  std::string proof = solve_drup(f);
  proof.resize(proof.rfind("0\n"));  // drop the final empty clause
  std::istringstream in(proof);
  const DrupCheckResult res = check_drup(f, in);
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.error.find("empty clause"), std::string::npos);
}

TEST(Drup, BogusDeletionRejected) {
  const Formula f = encode::pigeonhole(4);
  const std::string proof = "d 1 2 3 4 99 0\n" + solve_drup(f);
  std::istringstream in(proof);
  const DrupCheckResult res = check_drup(f, in);
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.error.find("deletion"), std::string::npos);
}

TEST(Drup, UnterminatedLineRejected) {
  const Formula f = encode::pigeonhole(3);
  std::istringstream in("1 2 3\n");
  const DrupCheckResult res = check_drup(f, in);
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.error.find("terminated"), std::string::npos);
}

TEST(Drup, PinnedStatsOnPigeonhole7) {
  // Pinned: a change to the shared RUP/DRUP engine must not move these.
  const Formula f = encode::pigeonhole(7);
  std::istringstream in(solve_drup(f));
  const DrupCheckResult res = check_drup(f, in);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(res.clauses_checked, 4361u);
  EXPECT_EQ(res.deletions, 2001u);
  EXPECT_EQ(res.propagations, 146072u);
}

TEST(Drup, DeletionsAreHonoured) {
  // (x1) & (-x1 | x2) & (-x2): once (x1) is deleted the empty clause is no
  // longer RUP, and neither is re-adding (x1). Exercises the lazy prefix
  // rebuild after a deletion.
  Formula f(2);
  f.add_clause({Lit::pos(0)});
  f.add_clause({Lit::neg(0), Lit::pos(1)});
  f.add_clause({Lit::neg(1)});
  const auto check = [&f](const std::string& proof) {
    std::istringstream in(proof);
    return check_drup(f, in);
  };
  const DrupCheckResult plain = check("0\n");
  EXPECT_TRUE(plain.ok) << plain.error;
  for (const std::string proof : {"d 1 0\n0\n", "d 1 0\n1 0\n0\n"}) {
    const DrupCheckResult res = check(proof);
    EXPECT_FALSE(res.ok) << proof;
    EXPECT_NE(res.error.find("not RUP"), std::string::npos) << res.error;
    EXPECT_EQ(res.deletions, 1u) << proof;
    EXPECT_EQ(res.clauses_checked, 0u) << proof;
  }
}

/// All four clauses over x1, x2: unsatisfiable, no unit clauses.
Formula all_signs_of_two() {
  Formula f(2);
  f.add_clause({Lit::pos(0), Lit::pos(1)});
  f.add_clause({Lit::pos(0), Lit::neg(1)});
  f.add_clause({Lit::neg(0), Lit::pos(1)});
  f.add_clause({Lit::neg(0), Lit::neg(1)});
  return f;
}

/// The verdict, error and counters of one check, as one comparable string.
std::string outcome(const Formula& f, const std::string& proof) {
  std::istringstream in(proof);
  const DrupCheckResult r = check_drup(f, in);
  return (r.ok ? "ok" : "error '" + r.error + "'") +
         " checked=" + std::to_string(r.clauses_checked) +
         " deletions=" + std::to_string(r.deletions) +
         " props=" + std::to_string(r.propagations);
}

TEST(Drup, PinnedParseOutcomes) {
  // Recorded with the getline + istringstream parser that the text scanner
  // replaced. The unterminated-line error echoes the raw line, '\r' and
  // all.
  const Formula f = all_signs_of_two();
  const std::string not_rup =
      "error 'added clause is not RUP at its position in the proof'";
  const std::pair<std::string, std::string> cases[] = {
      {"1 0\n0\n", "ok checked=2 deletions=0 props=1"},
      {"1 0\r\n0\r\n", "ok checked=2 deletions=0 props=1"},
      {"1\t0\n0\n", "ok checked=2 deletions=0 props=1"},
      {"+1 0\n0\n", "ok checked=2 deletions=0 props=1"},
      {"1 0 junk\n0\n", "ok checked=2 deletions=0 props=1"},
      {"c comment\n1 0\n0\n", "ok checked=2 deletions=0 props=1"},
      {"  d 1 2 0\n1 0\n0\n", not_rup + " checked=0 deletions=1 props=2"},
      {"3 0\n0\n", not_rup + " checked=0 deletions=0 props=1"},
      {"0", not_rup + " checked=0 deletions=0 props=0"},
      {"d 0\n",
       "error 'deletion of a clause not in the database' checked=0 "
       "deletions=0 props=0"},
      {"d 3 0\n",
       "error 'deletion of a clause not in the database' checked=0 "
       "deletions=0 props=0"},
      {"1 0",
       "error 'proof ended without deriving the empty clause' checked=1 "
       "deletions=0 props=1"},
      {"",
       "error 'proof ended without deriving the empty clause' checked=0 "
       "deletions=0 props=0"},
  };
  for (const auto& [proof, expected] : cases) {
    EXPECT_EQ(outcome(f, proof), expected) << testing::PrintToString(proof);
  }
  // Lines rejected as unterminated, each echoed verbatim.
  for (const std::string line :
       {"d1 2 0", "1 2\r", "\r", "  ", " c comment", "d", "1 2 3", "5x 0",
        "99999999999999999999 0", "1 99999999999999999999"}) {
    EXPECT_EQ(outcome(f, line + "\n0\n"),
              "error 'DRUP line not terminated by 0: '" + line +
                  "'' checked=0 deletions=0 props=0")
        << testing::PrintToString(line);
  }
}

TEST(Drup, RejectsLiteralBeyondMaxVar) {
  // Unchecked, 2147483649 wraps onto variable 1 and this proof of an
  // unrelated literal "verifies"; -2^31 and 2^31 reach Lit::invalid().
  const Formula f = all_signs_of_two();
  for (const std::string lit :
       {"2147483649", "-2147483649", "2147483648", "-2147483648",
        "-9223372036854775808"}) {
    EXPECT_EQ(outcome(f, "c fresh\n" + lit + " 0\n0\n"),
              "error 'DRUP line 2: literal out of range: '" + lit +
                  " 0'' checked=0 deletions=0 props=0");
  }
  // A fresh literal inside the range is parsed and correctly not RUP.
  EXPECT_EQ(outcome(f, "3 0\n0\n"),
            "error 'added clause is not RUP at its position in the proof' "
            "checked=0 deletions=0 props=1");
}

TEST(Drup, FreshVariablesDoNotSizeTheEngine) {
  // Sized by the largest variable a proof names, the engine would need
  // 2^32 watch lists for this one line.
  const Formula f = all_signs_of_two();
  EXPECT_EQ(outcome(f, "2147483647 0\n0\n"),
            "error 'added clause is not RUP at its position in the proof' "
            "checked=0 deletions=0 props=1");
  // Fresh variables keep their meaning: x and ~x resolve away, deleting
  // (1 x) by its written name finds the renamed clause, and the counts
  // match the same proof with x named 3, the first index past the formula.
  const auto proof_with = [](const std::string& x) {
    return "1 " + x + " 0\n1 -" + x + " 0\nd " + x + " 1 0\n1 0\n0\n";
  };
  EXPECT_EQ(outcome(f, proof_with("3")), "ok checked=4 deletions=1 props=3");
  EXPECT_EQ(outcome(f, proof_with("2147483647")), outcome(f, proof_with("3")));
}

TEST(Drup, FreshVariablesKeepTheirOrder) {
  // The fresh variables 15 and 9 are first used in descending order.
  // Renumbered in order of first use, 15 would sort before 9 in every
  // canonical clause, change which literals the engine watches, and count
  // 16 propagations. Recorded before any renumbering existed.
  const Formula f = dimacs::parse_string(
      "p cnf 6 7\n6 5 0\n-1 -3 0\n-6 4 0\n6 3 0\n6 -2 0\n-4 -6 -4 0\n"
      "2 2 -5 0\n");
  EXPECT_EQ(outcome(f, "-15 2 0\n3 -9 0\n-9 -15 0\n2 2 0\n0\n"),
            "ok checked=5 deletions=0 props=17");
}

class DrupSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DrupSweep, RandomUnsatInstancesVerify) {
  util::Rng rng(GetParam());
  int done = 0;
  for (int round = 0; round < 16 && done < 5; ++round) {
    const unsigned n = 16 + static_cast<unsigned>(rng.next_below(8));
    const Formula f = encode::random_ksat(
        n, static_cast<unsigned>(n * 5.0), 3, rng.next_u64());
    solver::Solver probe;
    probe.add_formula(f);
    std::ostringstream out;
    trace::DrupWriter w(out);
    probe.set_drup_writer(&w);
    if (probe.solve() != solver::SolveResult::Unsatisfiable) continue;
    ++done;
    std::istringstream in(out.str());
    const DrupCheckResult res = check_drup(f, in);
    EXPECT_TRUE(res.ok) << res.error;
  }
  EXPECT_GT(done, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DrupSweep, ::testing::Values(19, 38, 57));

}  // namespace
}  // namespace satproof::checker
