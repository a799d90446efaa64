// Differential fuzzing of the certificate pipeline: every UNSAT instance
// of the 500-instance random-3SAT harness (same seeds and shape as
// test_differential.cpp) is exported to LRAT from both emitting backends
// (depth-first, and window at budgets 0, 1 MiB and 16 KiB; text and binary
// form) and re-verified by the trusted kernel. The kernel's verdict must
// agree with every checker backend, and its step counts must match the
// emitter's — any divergence is a bug in the emitter, the kernel, or a
// checker.
//
// 500 seeded instances split into 10 shards so ctest can run them in
// parallel and a failure names its shard/seed.

#include <gtest/gtest.h>

#include <sstream>

#include "src/cert/kernel.hpp"
#include "src/cert/lrat_emitter.hpp"
#include "src/checker/breadth_first.hpp"
#include "src/checker/depth_first.hpp"
#include "src/checker/drup.hpp"
#include "src/checker/window.hpp"
#include "src/cnf/dimacs.hpp"
#include "src/cnf/model.hpp"
#include "src/encode/random_ksat.hpp"
#include "src/solver/solver.hpp"
#include "src/trace/drup.hpp"
#include "src/trace/memory.hpp"

namespace satproof {
namespace {

constexpr int kInstancesPerShard = 50;  // x 10 shards = 500 instances

struct Export {
  checker::CheckResult check;
  std::string cert;
  std::uint64_t additions = 0;
  std::uint64_t deletions = 0;
  bool finished = false;
};

/// Replays `t` with `check(reader, emitter)` attached to an LRAT emitter
/// writing text or binary records.
template <typename CheckFn>
Export export_with(const Formula& f, const trace::MemoryTrace& t,
                   bool binary, CheckFn check) {
  Export e;
  std::ostringstream sink;
  std::unique_ptr<cert::LratWriter> w;
  if (binary) {
    w = std::make_unique<cert::BinaryLratWriter>(sink);
  } else {
    w = std::make_unique<cert::TextLratWriter>(sink);
  }
  cert::LratEmitter emitter(*w, f.num_clauses());
  trace::MemoryTraceReader r(t);
  e.check = check(r, emitter);
  EXPECT_TRUE(w->ok());
  e.cert = std::move(sink).str();
  e.additions = emitter.additions();
  e.deletions = emitter.deletions();
  e.finished = emitter.finished();
  return e;
}

Export export_df(const Formula& f, const trace::MemoryTrace& t, bool binary) {
  return export_with(f, t, binary,
                     [&](trace::TraceReader& r, cert::LratEmitter& em) {
                       checker::DepthFirstOptions opts;
                       opts.observer = &em;
                       return checker::check_depth_first(f, r, opts);
                     });
}

Export export_window(const Formula& f, const trace::MemoryTrace& t,
                     bool binary, std::size_t budget) {
  return export_with(f, t, binary,
                     [&](trace::TraceReader& r, cert::LratEmitter& em) {
                       checker::WindowOptions opts;
                       opts.mem_limit_bytes = budget;
                       opts.observer = &em;
                       return checker::check_window(f, r, opts);
                     });
}

kern::VerifyResult kernel_verify(const Formula& f, const std::string& cert) {
  std::ostringstream cnf;
  dimacs::write(cnf, f);
  std::istringstream cnf_in(cnf.str());
  std::istringstream cert_in(cert);
  return kern::verify_lrat(cnf_in, cert_in);
}

class CertDifferentialFuzz : public ::testing::TestWithParam<int> {};

TEST_P(CertDifferentialFuzz, KernelAgreesWithAllBackends) {
  const int shard = GetParam();
  int unsat_seen = 0;
  std::uint64_t window_deletions_total = 0;
  for (int i = 0; i < kInstancesPerShard; ++i) {
    const std::uint64_t seed =
        1000 + static_cast<std::uint64_t>(shard) * kInstancesPerShard + i;
    const unsigned n = 12 + static_cast<unsigned>(seed % 14);
    const double ratio = 3.8 + 0.15 * static_cast<double>(i % 9);
    const unsigned m = static_cast<unsigned>(n * ratio);
    const Formula f = encode::random_ksat(n, m, 3, seed);

    solver::Solver s;
    s.add_formula(f);
    trace::MemoryTraceWriter trace_writer;
    s.set_trace_writer(&trace_writer);
    std::ostringstream drup_text;
    trace::DrupWriter drup_writer(drup_text);
    s.set_drup_writer(&drup_writer);
    const solver::SolveResult solved = s.solve();
    const trace::MemoryTrace t = trace_writer.take();
    SCOPED_TRACE("seed=" + std::to_string(seed) + " n=" + std::to_string(n) +
                 " m=" + std::to_string(m));

    if (solved == solver::SolveResult::Satisfiable) {
      // A SAT run must never yield a finished certificate: the observer
      // fires but the empty clause is never derived, so the emitter stays
      // unfinished and whatever partial output exists cannot verify.
      EXPECT_TRUE(satisfies(f, s.model()));
      const Export e = export_df(f, t, /*binary=*/false);
      EXPECT_FALSE(e.check.ok);
      EXPECT_FALSE(e.finished);
      if (!e.cert.empty()) {
        EXPECT_FALSE(kernel_verify(f, e.cert).verified);
      }
      continue;
    }
    ASSERT_EQ(solved, solver::SolveResult::Unsatisfiable);
    ++unsat_seen;

    // The non-emitting backends must still agree the proof is valid.
    trace::MemoryTraceReader r_bf(t);
    const checker::CheckResult bf = checker::check_breadth_first(f, r_bf);
    std::istringstream drup_in(drup_text.str());
    const checker::DrupCheckResult dr = checker::check_drup(f, drup_in);
    EXPECT_TRUE(bf.ok) << bf.error;
    EXPECT_TRUE(dr.ok) << dr.error;

    // Depth-first export, text and binary: both must kernel-verify with
    // the emitter's own step counts.
    const Export df_text = export_df(f, t, /*binary=*/false);
    ASSERT_TRUE(df_text.check.ok) << df_text.check.error;
    ASSERT_TRUE(df_text.finished);
    const kern::VerifyResult kv_df = kernel_verify(f, df_text.cert);
    EXPECT_TRUE(kv_df.verified) << "line " << kv_df.line << ": "
                                << kv_df.error;
    EXPECT_EQ(kv_df.additions, df_text.additions);
    EXPECT_EQ(kv_df.deletions, df_text.deletions);

    const Export df_bin = export_df(f, t, /*binary=*/true);
    ASSERT_TRUE(df_bin.check.ok) << df_bin.check.error;
    const kern::VerifyResult kv_dfb = kernel_verify(f, df_bin.cert);
    EXPECT_TRUE(kv_dfb.verified) << "record " << kv_dfb.line << ": "
                                 << kv_dfb.error;
    // The binary form encodes the same proof: identical step counts.
    EXPECT_EQ(kv_dfb.additions, kv_df.additions);
    EXPECT_EQ(kv_dfb.deletions, kv_df.deletions);
    EXPECT_LT(df_bin.cert.size(), df_text.cert.size() + 16);

    // Window export at every budget: same verdict, and its deletion
    // records (absent from the df path, which releases nothing) must not
    // break verification.
    for (const std::size_t budget :
         {std::size_t{0}, std::size_t{1} << 20, std::size_t{16} << 10}) {
      SCOPED_TRACE("window budget=" + std::to_string(budget));
      const Export wn_text = export_window(f, t, /*binary=*/false, budget);
      ASSERT_TRUE(wn_text.check.ok) << wn_text.check.error;
      ASSERT_TRUE(wn_text.finished);
      const kern::VerifyResult kv_wn = kernel_verify(f, wn_text.cert);
      EXPECT_TRUE(kv_wn.verified) << "line " << kv_wn.line << ": "
                                  << kv_wn.error;
      EXPECT_EQ(kv_wn.additions, wn_text.additions);
      EXPECT_EQ(kv_wn.deletions, wn_text.deletions);
      // Window replays the cones of every pinned level-0 antecedent, df
      // only the memoized final cone — window may emit a superset, never
      // less.
      EXPECT_GE(kv_wn.additions, kv_df.additions);
      window_deletions_total += kv_wn.deletions;

      const Export wn_bin = export_window(f, t, /*binary=*/true, budget);
      ASSERT_TRUE(wn_bin.check.ok) << wn_bin.check.error;
      const kern::VerifyResult kv_wnb = kernel_verify(f, wn_bin.cert);
      EXPECT_TRUE(kv_wnb.verified) << "record " << kv_wnb.line << ": "
                                   << kv_wnb.error;
      EXPECT_EQ(kv_wnb.additions, kv_wn.additions);
      EXPECT_EQ(kv_wnb.deletions, kv_wn.deletions);
    }
  }
  // The ratio sweep straddles the phase transition, so a healthy fraction
  // of every shard must actually exercise the certificate path, and the
  // window runs must exercise deletion records somewhere in the shard.
  EXPECT_GE(unsat_seen, kInstancesPerShard / 5);
  EXPECT_GT(window_deletions_total, 0u);
}

INSTANTIATE_TEST_SUITE_P(Shards, CertDifferentialFuzz,
                         ::testing::Range(0, 10));

}  // namespace
}  // namespace satproof
