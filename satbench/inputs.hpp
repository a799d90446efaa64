#pragma once

// Seeded input generation: UNSAT-by-construction formulas, solved with the
// repository's tracing solver to binary resolution traces (and DRUP proofs),
// a seeded share of traces corrupted by trace::FaultInjector, and ladder
// traces from gen_bigtrace. The program under test only ever sees the files.

#include <cstdint>
#include <string>
#include <vector>

#include "satbench/common.hpp"
#include "src/cnf/formula.hpp"

namespace satbench {

/// One checkable input on disk with its known answer.
struct Input {
  std::string name;
  std::string cnf;
  std::string trace;      ///< binary resolution trace ("" if none)
  std::string drup;       ///< DRUP proof ("" if none)
  bool expect_ok = true;  ///< false: a fault was injected, must be rejected
  std::uint64_t trace_bytes = 0;
};

/// Solver work done while generating inputs (the `solver` layer).
struct SolveTotals {
  double solve_s = 0;
  double trace_mb = 0;
};

/// A named formula before solving.
struct Instance {
  std::string name;
  satproof::Formula formula;
};

/// A few dozen small instances from the Small-scale families with seeded
/// parameters (svc-small).
std::vector<Instance> small_instances(std::uint64_t seed, std::size_t count);

/// The standard-scale hard tail: php 9, seeded tseitin 4x5, bw 8,
/// miter_mult6 and clique 9/8 (check-large, check-stream).
std::vector<Instance> large_instances(std::uint64_t seed);

/// Medium instances: php 7/8, clique 8/7, bw 7, and four seeded draws each
/// of tseitin 3x5 and fpga 16x7 (certify, the DRUP half of check-stream).
std::vector<Instance> medium_instances(std::uint64_t seed);

/// One instance to solve. With `fault_seed` != 0 the trace is corrupted by
/// a seeded FaultInjector that must fire.
struct SolveJob {
  Instance inst;
  bool with_drup = false;
  std::uint64_t fault_seed = 0;
};

/// Solves every job (each must come back UNSAT) on up to four threads,
/// writing `<dir>/<name>.cnf`, a binary trace and, when asked, a DRUP
/// proof. Results keep the order of `jobs`; `totals` sums the solver time
/// of all jobs.
std::vector<Input> solve_all(std::vector<SolveJob> jobs, const fs::path& dir,
                             SolveTotals& totals);

/// Runs gen_bigtrace for a ladder trace of about `bytes` bytes.
Input ladder_trace(const Context& ctx, const fs::path& dir,
                   const std::string& name, std::uint64_t bytes,
                   std::uint64_t seed);

}  // namespace satbench
