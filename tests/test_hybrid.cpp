// Tests for the paper's future-work hybrid checker, which is the window
// checker: it must agree with depth-first on what gets built, with
// breadth-first on what is accepted, and sit at or below depth-first
// memory. Every case runs at budget 0 (one unbounded window — the "hybrid"
// backend) and at a small budget that shifts through many windows.

#include <gtest/gtest.h>

#include "src/checker/breadth_first.hpp"
#include "src/checker/depth_first.hpp"
#include "src/checker/window.hpp"
#include "src/encode/pigeonhole.hpp"
#include "src/encode/random_ksat.hpp"
#include "src/encode/suite.hpp"
#include "src/solver/solver.hpp"
#include "src/trace/fault_injector.hpp"
#include "src/trace/memory.hpp"

namespace satproof::checker {
namespace {

struct SolvedUnsat {
  Formula formula;
  trace::MemoryTrace trace;
  solver::SolverStats stats;
};

SolvedUnsat solve_unsat(Formula f) {
  solver::Solver s;
  s.add_formula(f);
  trace::MemoryTraceWriter w;
  s.set_trace_writer(&w);
  EXPECT_EQ(s.solve(), solver::SolveResult::Unsatisfiable);
  return {std::move(f), w.take(), s.stats()};
}

/// Window budgets every case runs at: one unbounded window, and a budget
/// small enough to split the pigeonhole traces into many windows.
constexpr std::size_t kBudgets[] = {0, 64u << 10};

CheckResult check_at(const Formula& f, const trace::MemoryTrace& t,
                     std::size_t budget) {
  WindowOptions opts;
  opts.mem_limit_bytes = budget;
  trace::MemoryTraceReader r(t);
  return check_window(f, r, opts);
}

TEST(Hybrid, AcceptsGenuineTraces) {
  for (const auto& inst : encode::unsat_suite(encode::SuiteScale::Small)) {
    const SolvedUnsat su = solve_unsat(inst.formula);
    for (const std::size_t budget : kBudgets) {
      const CheckResult wn = check_at(su.formula, su.trace, budget);
      EXPECT_TRUE(wn.ok) << inst.name << " @" << budget << ": " << wn.error;
    }
  }
}

TEST(Hybrid, BuildsExactlyTheDepthFirstSubgraph) {
  const SolvedUnsat su = solve_unsat(encode::pigeonhole(6));
  trace::MemoryTraceReader r1(su.trace);
  const CheckResult df = check_depth_first(su.formula, r1);
  ASSERT_TRUE(df.ok);
  for (const std::size_t budget : kBudgets) {
    const CheckResult wn = check_at(su.formula, su.trace, budget);
    ASSERT_TRUE(wn.ok) << budget << ": " << wn.error;
    EXPECT_EQ(wn.stats.total_derivations, df.stats.total_derivations);
    EXPECT_EQ(wn.stats.clauses_built, df.stats.clauses_built) << budget;
    EXPECT_EQ(wn.stats.resolutions, df.stats.resolutions) << budget;
    EXPECT_EQ(wn.stats.core_original_clauses,
              df.stats.core_original_clauses)
        << budget;
    EXPECT_LT(wn.stats.clauses_built, wn.stats.total_derivations);
  }
}

TEST(Hybrid, MemoryAtOrBelowDepthFirst) {
  const SolvedUnsat su = solve_unsat(encode::pigeonhole(7));
  trace::MemoryTraceReader r1(su.trace);
  const CheckResult df = check_depth_first(su.formula, r1);
  ASSERT_TRUE(df.ok);
  for (const std::size_t budget : kBudgets) {
    // No clause memo: even holding the whole DAG structure (budget 0) it
    // must undercut the depth-first peak.
    const CheckResult wn = check_at(su.formula, su.trace, budget);
    ASSERT_TRUE(wn.ok) << budget << ": " << wn.error;
    EXPECT_LT(wn.stats.peak_mem_bytes, df.stats.peak_mem_bytes) << budget;
  }
}

TEST(Hybrid, AgreesWithBreadthFirstOnResults) {
  const SolvedUnsat su = solve_unsat(encode::pigeonhole(5));
  trace::MemoryTraceReader r1(su.trace);
  const CheckResult bf = check_breadth_first(su.formula, r1);
  ASSERT_TRUE(bf.ok);
  for (const std::size_t budget : kBudgets) {
    const CheckResult wn = check_at(su.formula, su.trace, budget);
    ASSERT_TRUE(wn.ok) << budget << ": " << wn.error;
    // Window replay performs a subset of breadth-first's work.
    EXPECT_LE(wn.stats.resolutions, bf.stats.resolutions);
    EXPECT_LE(wn.stats.clauses_built, bf.stats.clauses_built);
  }
}

TEST(Hybrid, RejectsSatRunTrace) {
  Formula f(2);
  f.add_clause({Lit::pos(0), Lit::pos(1)});
  solver::Solver s;
  s.add_formula(f);
  trace::MemoryTraceWriter w;
  s.set_trace_writer(&w);
  ASSERT_EQ(s.solve(), solver::SolveResult::Satisfiable);
  const trace::MemoryTrace t = w.take();
  for (const std::size_t budget : kBudgets) {
    EXPECT_FALSE(check_at(f, t, budget).ok) << budget;
  }
}

TEST(Hybrid, RejectsCorruptedTraces) {
  const Formula f = encode::pigeonhole(5);
  for (const auto kind :
       {trace::FaultKind::DropSource, trace::FaultKind::WrongSource,
        trace::FaultKind::FlipLevel0Value, trace::FaultKind::DropDerivation,
        trace::FaultKind::TruncateTrace}) {
    bool fired_any = false;
    for (const std::uint64_t target : {5ull, 0ull}) {
      solver::Solver s;
      s.add_formula(f);
      trace::MemoryTraceWriter inner;
      trace::FaultInjector injector(inner, kind, 7, target);
      s.set_trace_writer(&injector);
      ASSERT_EQ(s.solve(), solver::SolveResult::Unsatisfiable);
      if (!injector.fired()) continue;
      fired_any = true;
      const trace::MemoryTrace t = inner.take();
      for (const std::size_t budget : kBudgets) {
        EXPECT_FALSE(check_at(f, t, budget).ok)
            << trace::to_string(kind) << " @" << budget;
      }
      break;
    }
    EXPECT_TRUE(fired_any) << trace::to_string(kind);
  }
}

TEST(Hybrid, TrivialPreprocessingConflictAccepted) {
  Formula f;
  f.add_clause({Lit::pos(0)});
  f.add_clause({Lit::neg(0)});
  const SolvedUnsat su = solve_unsat(std::move(f));
  for (const std::size_t budget : kBudgets) {
    EXPECT_TRUE(check_at(su.formula, su.trace, budget).ok) << budget;
  }
}

TEST(Window, BudgetTheShortfallDiagnosticImpliesSuffices) {
  // A budget too small for the resident index names the index size N;
  // the window gets a quarter of the budget, so a budget B with
  // N + B/4 <= B must then verify. Padding originals make the index
  // (one core byte per original) dwarf the proof: the small budget cuts
  // the proof into several windows, but at B it is one window that pass A
  // keeps loaded — and those bytes are the shifting window, not part of
  // the index.
  Formula f = encode::pigeonhole(5);
  const Var base = f.num_vars();
  for (Var v = 0; v < 30000; ++v) {
    f.add_clause({Lit::pos(base + v), Lit::pos(base + v + 1)});
  }
  const SolvedUnsat su = solve_unsat(std::move(f));
  const CheckResult small = check_at(su.formula, su.trace, 2u << 10);
  ASSERT_FALSE(small.ok);
  const std::string key = "the resident index needs ";
  const auto pos = small.error.find(key);
  ASSERT_NE(pos, std::string::npos) << small.error;
  const std::size_t need = std::stoul(small.error.substr(pos + key.size()));
  const std::size_t budget = (need * 4 + 2) / 3 + 64;
  const CheckResult wn = check_at(su.formula, su.trace, budget);
  EXPECT_TRUE(wn.ok) << budget << ": " << wn.error;
}

/// Property: window replay agrees with both classic checkers across random
/// instances, at both budgets, with depth-first's stats.
class HybridSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HybridSweep, ThreeCheckersAgree) {
  const Formula f = encode::random_ksat(28, 150, 3, GetParam());
  solver::Solver s;
  s.add_formula(f);
  trace::MemoryTraceWriter w;
  s.set_trace_writer(&w);
  if (s.solve() != solver::SolveResult::Unsatisfiable) {
    GTEST_SKIP() << "satisfiable draw";
  }
  const trace::MemoryTrace t = w.take();
  trace::MemoryTraceReader r1(t), r2(t);
  const CheckResult df = check_depth_first(f, r1);
  const CheckResult bf = check_breadth_first(f, r2);
  EXPECT_TRUE(df.ok) << df.error;
  EXPECT_TRUE(bf.ok) << bf.error;
  for (const std::size_t budget : kBudgets) {
    const CheckResult wn = check_at(f, t, budget);
    EXPECT_TRUE(wn.ok) << budget << ": " << wn.error;
    EXPECT_EQ(wn.stats.clauses_built, df.stats.clauses_built) << budget;
    EXPECT_EQ(wn.stats.resolutions, df.stats.resolutions) << budget;
    EXPECT_LE(wn.stats.clauses_built, bf.stats.clauses_built);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HybridSweep,
                         ::testing::Values(5, 23, 71, 400, 1234));

}  // namespace
}  // namespace satproof::checker
