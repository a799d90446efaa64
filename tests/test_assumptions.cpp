// Tests for solving under assumptions with checkable refutation proofs —
// the validated-incremental-query extension.

#include <gtest/gtest.h>

#include <algorithm>

#include "src/checker/breadth_first.hpp"
#include "src/checker/depth_first.hpp"
#include "src/checker/window.hpp"
#include "src/cnf/model.hpp"
#include "src/encode/pigeonhole.hpp"
#include "src/encode/random_ksat.hpp"
#include "src/solver/solver.hpp"
#include "src/trace/memory.hpp"
#include "src/util/rng.hpp"

namespace satproof {
namespace {

using solver::SolveResult;

/// x0 -> x1 -> x2 chain plus a free variable.
Formula implication_chain() {
  Formula f(4);
  f.add_clause({Lit::neg(0), Lit::pos(1)});
  f.add_clause({Lit::neg(1), Lit::pos(2)});
  return f;
}

TEST(Assumptions, SatWhenConsistent) {
  solver::Solver s;
  s.add_formula(implication_chain());
  const Lit assume[] = {Lit::pos(0), Lit::pos(2)};
  ASSERT_EQ(s.solve(assume), SolveResult::Satisfiable);
  EXPECT_EQ(s.model()[0], LBool::True);
  EXPECT_EQ(s.model()[2], LBool::True);
  EXPECT_TRUE(s.failed_assumptions().empty());
}

TEST(Assumptions, ModelRespectsAssumedPolarity) {
  solver::Solver s;
  s.add_formula(implication_chain());
  const Lit assume[] = {Lit::neg(3)};
  ASSERT_EQ(s.solve(assume), SolveResult::Satisfiable);
  EXPECT_EQ(s.model()[3], LBool::False);
}

TEST(Assumptions, UnsatWithFailedSubset) {
  // Assume x0 and ~x2: the chain forces x2, so both are responsible.
  solver::Solver s;
  s.add_formula(implication_chain());
  const Lit assume[] = {Lit::pos(0), Lit::neg(2)};
  ASSERT_EQ(s.solve(assume), SolveResult::Unsatisfiable);
  const auto& failed = s.failed_assumptions();
  ASSERT_FALSE(failed.empty());
  // Every failed literal is one of the input assumptions.
  for (const Lit l : failed) {
    EXPECT_TRUE(l == Lit::pos(0) || l == Lit::neg(2)) << to_string(l);
  }
  // The failing assumption itself is always included.
  EXPECT_NE(std::find(failed.begin(), failed.end(), Lit::neg(2)),
            failed.end());
}

TEST(Assumptions, AllCheckersValidateTheRefutation) {
  solver::Solver s;
  s.add_formula(implication_chain());
  trace::MemoryTraceWriter w;
  s.set_trace_writer(&w);
  const Lit assume[] = {Lit::pos(0), Lit::neg(2)};
  ASSERT_EQ(s.solve(assume), SolveResult::Unsatisfiable);
  const Formula f = implication_chain();
  const trace::MemoryTrace t = w.take();

  trace::MemoryTraceReader r1(t), r2(t), r3(t);
  const checker::CheckResult df = checker::check_depth_first(f, r1);
  const checker::CheckResult bf = checker::check_breadth_first(f, r2);
  checker::WindowOptions wopts;
  wopts.mem_limit_bytes = 0;
  const checker::CheckResult hy = checker::check_window(f, r3, wopts);
  for (const auto* res : {&df, &bf, &hy}) {
    ASSERT_TRUE(res->ok) << res->error;
    // The derived clause refutes the assumption subset: its literals are
    // negations of assumed literals.
    ASSERT_FALSE(res->failed_assumption_clause.empty());
    for (const Lit l : res->failed_assumption_clause) {
      EXPECT_TRUE(l == Lit::neg(0) || l == Lit::pos(2)) << to_string(l);
    }
  }
  EXPECT_EQ(df.failed_assumption_clause, bf.failed_assumption_clause);
  EXPECT_EQ(df.failed_assumption_clause, hy.failed_assumption_clause);
}

TEST(Assumptions, FailureAtLevelZeroImplication) {
  // x0 is forced false by unit clauses; assuming x0 fails immediately with
  // a proof that resolves down to {~x0}.
  Formula f(1);
  f.add_clause({Lit::neg(0)});
  solver::Solver s;
  s.add_formula(f);
  trace::MemoryTraceWriter w;
  s.set_trace_writer(&w);
  const Lit assume[] = {Lit::pos(0)};
  ASSERT_EQ(s.solve(assume), SolveResult::Unsatisfiable);
  ASSERT_EQ(s.failed_assumptions().size(), 1u);
  EXPECT_EQ(s.failed_assumptions()[0], Lit::pos(0));

  const trace::MemoryTrace t = w.take();
  trace::MemoryTraceReader r(t);
  const checker::CheckResult df = checker::check_depth_first(f, r);
  ASSERT_TRUE(df.ok) << df.error;
  ASSERT_EQ(df.failed_assumption_clause.size(), 1u);
  EXPECT_EQ(df.failed_assumption_clause[0], Lit::neg(0));
}

TEST(Assumptions, UnconditionalUnsatHasEmptyFailedSet) {
  solver::Solver s;
  s.add_formula(encode::pigeonhole(4));
  const Lit assume[] = {Lit::pos(0)};
  ASSERT_EQ(s.solve(assume), SolveResult::Unsatisfiable);
  // The formula is UNSAT regardless of the assumption... unless the
  // search happened to trip over the assumption first. Either way the
  // reported failed set must be consistent with the trace mode.
  if (s.failed_assumptions().empty()) {
    SUCCEED();
  } else {
    EXPECT_EQ(s.failed_assumptions()[0].var(), 0u);
  }
}

TEST(Assumptions, DuplicateVariableRejected) {
  solver::Solver s;
  s.add_formula(implication_chain());
  const Lit assume[] = {Lit::pos(0), Lit::neg(0)};
  EXPECT_THROW((void)s.solve(assume), std::invalid_argument);
  const Lit assume2[] = {Lit::pos(1), Lit::pos(1)};
  solver::Solver s2;
  s2.add_formula(implication_chain());
  EXPECT_THROW((void)s2.solve(assume2), std::invalid_argument);
}

TEST(Assumptions, UnknownVariablesBecomeFresh) {
  Formula f(1);
  f.add_clause({Lit::pos(0)});
  solver::Solver s;
  s.add_formula(f);
  const Lit assume[] = {Lit::neg(7)};
  ASSERT_EQ(s.solve(assume), SolveResult::Satisfiable);
  EXPECT_EQ(s.num_vars(), 8u);
  EXPECT_EQ(s.model()[7], LBool::False);
}

TEST(Assumptions, AssumptionSubsetIsReallyRefuted) {
  // Re-solve with only the failed subset assumed: still UNSAT — the
  // defining property of the failed-assumption set.
  const Formula f = encode::random_ksat(20, 70, 3, 404);
  solver::Solver probe;
  probe.add_formula(f);
  if (probe.solve() != SolveResult::Satisfiable) {
    GTEST_SKIP() << "need a satisfiable base formula";
  }

  // Assume the negation of the found model on the first 6 variables: that
  // exact combination is excluded together with the rest of the model, but
  // alone it may be SAT or UNSAT; try until an UNSAT case shows up.
  util::Rng rng(7);
  for (int round = 0; round < 50; ++round) {
    std::vector<Lit> assume;
    for (Var v = 0; v < 8; ++v) {
      assume.push_back(Lit(v, rng.next_bool()));
    }
    solver::Solver s;
    s.add_formula(f);
    if (s.solve(assume) != SolveResult::Unsatisfiable) continue;
    const std::vector<Lit> failed = s.failed_assumptions();
    ASSERT_FALSE(failed.empty());

    solver::Solver recheck;
    recheck.add_formula(f);
    EXPECT_EQ(recheck.solve(failed), SolveResult::Unsatisfiable);
    return;
  }
  GTEST_SKIP() << "no UNSAT assumption draw found";
}

/// Property sweep: random assumption queries over random formulas, with
/// every UNSAT answer's trace validated by all three checkers and every
/// SAT answer's model honouring the assumptions.
class AssumptionSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AssumptionSweep, TracesValidateAndModelsHonourAssumptions) {
  util::Rng rng(GetParam());
  for (int round = 0; round < 12; ++round) {
    const unsigned n = 15 + static_cast<unsigned>(rng.next_below(10));
    const Formula f = encode::random_ksat(
        n, static_cast<unsigned>(n * 4.0), 3, rng.next_u64());

    std::vector<Var> vars(n);
    for (Var v = 0; v < n; ++v) vars[v] = v;
    rng.shuffle(vars.begin(), vars.end());
    std::vector<Lit> assume;
    const std::size_t k = 1 + rng.next_below(5);
    for (std::size_t i = 0; i < k; ++i) {
      assume.push_back(Lit(vars[i], rng.next_bool()));
    }

    solver::Solver s;
    s.add_formula(f);
    trace::MemoryTraceWriter w;
    s.set_trace_writer(&w);
    const SolveResult res = s.solve(assume);

    if (res == SolveResult::Satisfiable) {
      EXPECT_TRUE(satisfies(f, s.model()));
      for (const Lit a : assume) {
        EXPECT_EQ(value_of(a, s.model()), LBool::True) << to_string(a);
      }
      continue;
    }
    ASSERT_EQ(res, SolveResult::Unsatisfiable);
    const trace::MemoryTrace t = w.take();
    trace::MemoryTraceReader r1(t), r2(t), r3(t);
    const checker::CheckResult df = checker::check_depth_first(f, r1);
    const checker::CheckResult bf = checker::check_breadth_first(f, r2);
    checker::WindowOptions wopts;
    wopts.mem_limit_bytes = 0;
    const checker::CheckResult hy = checker::check_window(f, r3, wopts);
    EXPECT_TRUE(df.ok) << df.error;
    EXPECT_TRUE(bf.ok) << bf.error;
    EXPECT_TRUE(hy.ok) << hy.error;

    // The checker-derived refutation must cover a subset of the negated
    // assumptions, consistent with the solver's own failed set.
    for (const Lit l : df.failed_assumption_clause) {
      const auto hit = std::find_if(
          assume.begin(), assume.end(),
          [l](Lit a) { return a == ~l; });
      EXPECT_NE(hit, assume.end()) << to_string(l);
    }
    if (!df.failed_assumption_clause.empty()) {
      // Negations of the solver's failed set == checker's derived clause,
      // up to ordering.
      std::vector<Lit> negated;
      for (const Lit a : s.failed_assumptions()) negated.push_back(~a);
      std::sort(negated.begin(), negated.end());
      std::vector<Lit> derived = df.failed_assumption_clause;
      std::sort(derived.begin(), derived.end());
      // The checker's clause can be a subset (the solver's marking may
      // over-approximate), never the other way round... both derive from
      // the same antecedent cone, so in practice they coincide; assert
      // subset to stay robust.
      for (const Lit l : derived) {
        EXPECT_TRUE(std::binary_search(negated.begin(), negated.end(), l))
            << to_string(l);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AssumptionSweep,
                         ::testing::Values(21, 42, 63, 84, 105, 126));

}  // namespace
}  // namespace satproof
