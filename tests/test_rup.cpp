// Tests for the RUP cross-checker: it must accept every proof the
// resolution checkers accept, reject corrupted DAGs, and agree with the
// resolution checker across random sweeps.

#include <gtest/gtest.h>

#include "src/encode/pigeonhole.hpp"
#include "src/encode/random_ksat.hpp"
#include "src/encode/suite.hpp"
#include "src/proof/rup.hpp"
#include "src/solver/solver.hpp"
#include "src/trace/memory.hpp"

namespace satproof::proof {
namespace {

struct Solved {
  Formula formula;
  trace::MemoryTrace trace;
};

Solved solve_unsat(Formula f) {
  solver::Solver s;
  s.add_formula(f);
  trace::MemoryTraceWriter w;
  s.set_trace_writer(&w);
  EXPECT_EQ(s.solve(), solver::SolveResult::Unsatisfiable);
  return {std::move(f), w.take()};
}

TEST(Rup, AcceptsSuiteProofs) {
  for (const auto& inst : encode::unsat_suite(encode::SuiteScale::Small)) {
    const Solved su = solve_unsat(inst.formula);
    trace::MemoryTraceReader r(su.trace);
    const checker::DrupCheckResult res = check_trace_rup(su.formula, r);
    EXPECT_TRUE(res.ok) << inst.name << ": " << res.error;
    // Note: propagations may legitimately be zero when the persistent
    // prefix alone already settles every check (propagation-dominated
    // instances like blocks world).
    EXPECT_GT(res.clauses_checked, 0u) << inst.name;
  }
}

TEST(Rup, ChecksEveryDerivedClause) {
  const Solved su = solve_unsat(encode::pigeonhole(5));
  trace::MemoryTraceReader r1(su.trace);
  const ProofDag dag = extract_proof(su.formula, r1);
  const checker::DrupCheckResult res = check_rup(su.formula, dag);
  ASSERT_TRUE(res.ok) << res.error;
  std::size_t derived = 0;
  for (const auto& n : dag.nodes) derived += n.sources.empty() ? 0 : 1;
  EXPECT_EQ(res.clauses_checked, derived);
}

TEST(Rup, PinnedStatsOnPigeonhole7) {
  // Pinned: a change to the shared RUP/DRUP engine must not move these.
  const Solved su = solve_unsat(encode::pigeonhole(7));
  trace::MemoryTraceReader r(su.trace);
  const checker::DrupCheckResult res = check_trace_rup(su.formula, r);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(res.clauses_checked, 4297u);
  EXPECT_EQ(res.propagations, 133486u);
  EXPECT_EQ(res.deletions, 0u);
}

TEST(Rup, RejectsWeakenedDerivedClause) {
  // Corrupt the DAG: flip a literal of some derived clause so it is no
  // longer implied where it sits in the derivation order.
  const Solved su = solve_unsat(encode::pigeonhole(5));
  trace::MemoryTraceReader r(su.trace);
  ProofDag dag = extract_proof(su.formula, r);

  bool corrupted = false;
  for (auto& node : dag.nodes) {
    // Pick the first derived, non-empty clause.
    if (node.sources.empty() || node.lits.empty()) continue;
    node.lits[0] = ~node.lits[0];
    corrupted = true;
    break;
  }
  ASSERT_TRUE(corrupted);
  const checker::DrupCheckResult res = check_rup(su.formula, dag);
  // The flipped clause is (almost surely) not RUP at its position; if the
  // flip happened to produce an implied clause, downstream nodes relying on
  // the original would fail instead. Either way: rejection.
  EXPECT_FALSE(res.ok);
  EXPECT_FALSE(res.error.empty());
}

TEST(Rup, RejectsForeignLeaf) {
  const Solved su = solve_unsat(encode::pigeonhole(4));
  trace::MemoryTraceReader r(su.trace);
  ProofDag dag = extract_proof(su.formula, r);
  // Claim a leaf beyond the original range.
  for (auto& node : dag.nodes) {
    if (node.sources.empty()) {
      node.id = dag.num_original + 100000;
      break;
    }
  }
  const checker::DrupCheckResult res = check_rup(su.formula, dag);
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.error.find("leaf"), std::string::npos);
}

TEST(Rup, TrivialEmptyClauseFormula) {
  Formula f;
  f.add_clause(std::initializer_list<Lit>{});
  const Solved su = solve_unsat(std::move(f));
  trace::MemoryTraceReader r(su.trace);
  const checker::DrupCheckResult res = check_trace_rup(su.formula, r);
  EXPECT_TRUE(res.ok) << res.error;
}

TEST(Rup, AssumptionRefutationsAreRup) {
  Formula f(3);
  f.add_clause({Lit::neg(0), Lit::pos(1)});
  f.add_clause({Lit::neg(1), Lit::pos(2)});
  solver::Solver s;
  s.add_formula(f);
  trace::MemoryTraceWriter w;
  s.set_trace_writer(&w);
  const Lit assume[] = {Lit::pos(0), Lit::neg(2)};
  ASSERT_EQ(s.solve(assume), solver::SolveResult::Unsatisfiable);
  const trace::MemoryTrace t = w.take();
  trace::MemoryTraceReader r(t);
  const checker::DrupCheckResult res = check_trace_rup(f, r);
  EXPECT_TRUE(res.ok) << res.error;
}

TEST(Rup, SatTraceRejectedGracefully) {
  Formula f(2);
  f.add_clause({Lit::pos(0), Lit::pos(1)});
  solver::Solver s;
  s.add_formula(f);
  trace::MemoryTraceWriter w;
  s.set_trace_writer(&w);
  ASSERT_EQ(s.solve(), solver::SolveResult::Satisfiable);
  const trace::MemoryTrace t = w.take();
  trace::MemoryTraceReader r(t);
  const checker::DrupCheckResult res = check_trace_rup(f, r);
  EXPECT_FALSE(res.ok);
  EXPECT_FALSE(res.error.empty());
}

class RupSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RupSweep, AgreesWithResolutionCheckingOnRandomUnsat) {
  util::Rng rng(GetParam());
  for (int round = 0; round < 8; ++round) {
    const unsigned n = 18 + static_cast<unsigned>(rng.next_below(8));
    const Formula f = encode::random_ksat(
        n, static_cast<unsigned>(n * 5.0), 3, rng.next_u64());
    solver::Solver s;
    s.add_formula(f);
    trace::MemoryTraceWriter w;
    s.set_trace_writer(&w);
    if (s.solve() != solver::SolveResult::Unsatisfiable) continue;
    const trace::MemoryTrace t = w.take();
    trace::MemoryTraceReader r(t);
    const checker::DrupCheckResult res = check_trace_rup(f, r);
    EXPECT_TRUE(res.ok) << res.error;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RupSweep, ::testing::Values(31, 62, 93));

}  // namespace
}  // namespace satproof::proof
