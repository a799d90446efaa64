// Tests for the satproof command-line interface, driven in-process.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/cert/kernel.hpp"
#include "src/util/temp_file.hpp"
#include "tools/cli.hpp"

namespace satproof::cli {
namespace {

struct CliRun {
  int exit_code;
  std::string out;
  std::string err;
};

CliRun run(const std::vector<std::string>& args) {
  std::ostringstream out, err;
  const int code = run_cli(args, out, err);
  return {code, out.str(), err.str()};
}

class CliTest : public ::testing::Test {
 protected:
  util::TempFile cnf_{"cli-cnf"};
  util::TempFile aux_{"cli-aux"};
  util::TempFile aux2_{"cli-aux2"};

  std::string cnf() const { return cnf_.path().string(); }
  std::string aux() const { return aux_.path().string(); }
  std::string aux2() const { return aux2_.path().string(); }

  void write_cnf(const std::string& text) {
    std::ofstream(cnf_.path()) << text;
  }

  void gen_php(unsigned holes) {
    const CliRun g =
        run({"gen", "php", std::to_string(holes), "-o", cnf()});
    ASSERT_EQ(g.exit_code, 0) << g.err;
  }
};

TEST_F(CliTest, HelpPrintsUsage) {
  const CliRun r = run({"help"});
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.out.find("satproof solve"), std::string::npos);
}

TEST_F(CliTest, NoArgsFailsWithUsage) {
  const CliRun r = run({});
  EXPECT_EQ(r.exit_code, kExitError);
  EXPECT_NE(r.out.find("usage"), std::string::npos);
}

TEST_F(CliTest, UnknownCommandFails) {
  const CliRun r = run({"frobnicate"});
  EXPECT_EQ(r.exit_code, kExitError);
  EXPECT_NE(r.err.find("unknown command"), std::string::npos);
}

TEST_F(CliTest, SolveSatInstance) {
  write_cnf("p cnf 2 2\n1 2 0\n-1 0\n");
  const CliRun r = run({"solve", cnf(), "--model"});
  EXPECT_EQ(r.exit_code, kExitSat);
  EXPECT_NE(r.out.find("s SATISFIABLE"), std::string::npos);
  EXPECT_NE(r.out.find("v -1 2 0"), std::string::npos);
}

TEST_F(CliTest, SolveUnsatWithChecks) {
  gen_php(5);
  const CliRun r = run({"solve", cnf(), "--check", "both", "--stats"});
  EXPECT_EQ(r.exit_code, kExitUnsat);
  EXPECT_NE(r.out.find("s UNSATISFIABLE"), std::string::npos);
  EXPECT_NE(r.out.find("depth-first check ok"), std::string::npos);
  EXPECT_NE(r.out.find("breadth-first check ok"), std::string::npos);
  EXPECT_NE(r.out.find("conflicts"), std::string::npos);
}

TEST_F(CliTest, SolveTraceThenCheckRoundTrip) {
  gen_php(5);
  const CliRun s = run({"solve", cnf(), "--trace", aux()});
  ASSERT_EQ(s.exit_code, kExitUnsat) << s.err;

  const CliRun c = run({"check", cnf(), aux()});
  EXPECT_EQ(c.exit_code, 0) << c.err;
  EXPECT_NE(c.out.find("VERIFIED"), std::string::npos);

  const CliRun cb = run({"check", "--checker=bf", cnf(), aux()});
  EXPECT_EQ(cb.exit_code, 0) << cb.err;
}

TEST_F(CliTest, BinaryTraceRoundTrip) {
  gen_php(5);
  const CliRun s = run({"solve", cnf(), "--trace", aux(), "--binary"});
  ASSERT_EQ(s.exit_code, kExitUnsat) << s.err;
  const CliRun c = run({"check", cnf(), aux()});
  EXPECT_EQ(c.exit_code, 0) << c.err;
}

TEST_F(CliTest, RupDetectsBinaryTraceByMagic) {
  gen_php(5);
  const CliRun s = run({"solve", cnf(), "--trace", aux(), "--binary"});
  ASSERT_EQ(s.exit_code, kExitUnsat) << s.err;
  const CliRun c = run({"check", cnf(), aux(), "--checker=rup"});
  EXPECT_EQ(c.exit_code, 0) << c.err;
  EXPECT_NE(c.out.find("VERIFIED (RUP)"), std::string::npos);
}

TEST_F(CliTest, CheckStatsReportsArenaTraffic) {
  gen_php(5);
  const CliRun s = run({"solve", cnf(), "--trace", aux(), "--binary"});
  ASSERT_EQ(s.exit_code, kExitUnsat) << s.err;
  const CliRun c = run({"check", "--stats", cnf(), aux()});
  EXPECT_EQ(c.exit_code, 0) << c.err;
  EXPECT_NE(c.out.find("stats: arena "), std::string::npos);
  EXPECT_NE(c.out.find("bytes allocated"), std::string::npos);
  EXPECT_NE(c.out.find("peak total"), std::string::npos);
  // The breadth-first window recycles released blocks; its stats line must
  // be present too (a nonzero recycled figure is exercised in unit tests).
  const CliRun bf = run({"check", "--checker=bf", "--stats", cnf(), aux()});
  EXPECT_EQ(bf.exit_code, 0) << bf.err;
  EXPECT_NE(bf.out.find("stats: arena "), std::string::npos);
}

TEST_F(CliTest, CheckStatsJsonEmitsMachineReadableCounters) {
  gen_php(5);
  const CliRun s = run({"solve", cnf(), "--trace", aux()});
  ASSERT_EQ(s.exit_code, kExitUnsat) << s.err;
  const CliRun c = run({"check", "--stats=json", cnf(), aux()});
  EXPECT_EQ(c.exit_code, 0) << c.err;
  // Human verdict line first, then one JSON object with the counters the
  // service stats reply also serializes.
  EXPECT_NE(c.out.find("VERIFIED"), std::string::npos);
  EXPECT_NE(c.out.find("{\"total_derivations\":"), std::string::npos);
  EXPECT_NE(c.out.find("\"resolutions\":"), std::string::npos);
  EXPECT_NE(c.out.find("\"arena_peak_bytes\":"), std::string::npos);
  // The plain-text stats line must not leak into JSON mode.
  EXPECT_EQ(c.out.find("stats: arena "), std::string::npos);

  const CliRun bad = run({"check", "--stats=yaml", cnf(), aux()});
  EXPECT_EQ(bad.exit_code, kExitError);
  EXPECT_NE(bad.err.find("--stats"), std::string::npos);
}

TEST_F(CliTest, CheckRejectsMismatchedTrace) {
  gen_php(5);
  const CliRun s = run({"solve", cnf(), "--trace", aux()});
  ASSERT_EQ(s.exit_code, kExitUnsat);
  // Check the trace against a different formula.
  const CliRun g2 = run({"gen", "php", "6", "-o", aux2()});
  ASSERT_EQ(g2.exit_code, 0);
  const CliRun c = run({"check", aux2(), aux()});
  EXPECT_EQ(c.exit_code, kExitError);
  EXPECT_NE(c.err.find("CHECK FAILED"), std::string::npos);
}

TEST_F(CliTest, CoreExtractionWritesDimacs) {
  const CliRun g =
      run({"gen", "routing", "8", "3", "12", "5", "-o", cnf()});
  ASSERT_EQ(g.exit_code, 0) << g.err;
  const CliRun r = run({"core", cnf(), "-o", aux()});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("core sizes:"), std::string::npos);

  // The written core must itself be UNSAT.
  const CliRun s = run({"solve", aux()});
  EXPECT_EQ(s.exit_code, kExitUnsat);
}

TEST_F(CliTest, MinimalCoreSmallerOrEqual) {
  const CliRun g =
      run({"gen", "routing", "8", "3", "12", "5", "-o", cnf()});
  ASSERT_EQ(g.exit_code, 0);
  const CliRun r = run({"core", "--minimal", cnf(), "-o", aux()});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("minimal core:"), std::string::npos);
  const CliRun s = run({"solve", aux()});
  EXPECT_EQ(s.exit_code, kExitUnsat);
}

TEST_F(CliTest, ProofExportsWriteFiles) {
  gen_php(4);
  const CliRun r = run({"solve", cnf(), "--proof-dot", aux(),
                        "--tracecheck", aux2()});
  ASSERT_EQ(r.exit_code, kExitUnsat) << r.err;
  EXPECT_NE(r.out.find("proof DAG:"), std::string::npos);
  std::ifstream dot(aux());
  std::string first_line;
  std::getline(dot, first_line);
  EXPECT_EQ(first_line, "digraph proof {");
  EXPECT_GT(std::filesystem::file_size(aux2()), 0u);
}

TEST_F(CliTest, SolverOptionFlagsAccepted) {
  gen_php(5);
  const CliRun r = run({"solve", cnf(), "--minimize", "--luby",
                        "--no-deletion", "--stats"});
  EXPECT_EQ(r.exit_code, kExitUnsat) << r.err;
}

TEST_F(CliTest, BudgetYieldsUnknown) {
  gen_php(7);
  const CliRun r = run({"solve", cnf(), "--budget", "1"});
  EXPECT_EQ(r.exit_code, kExitUnknown);
  EXPECT_NE(r.out.find("s UNKNOWN"), std::string::npos);
}

TEST_F(CliTest, GenValidatesFamilyAndParams) {
  const CliRun bad = run({"gen", "nosuch", "-o", aux()});
  EXPECT_EQ(bad.exit_code, kExitError);
  EXPECT_NE(bad.err.find("unknown family"), std::string::npos);

  const CliRun nan = run({"gen", "php", "abc", "-o", aux()});
  EXPECT_EQ(nan.exit_code, kExitError);
  EXPECT_NE(nan.err.find("expected a number"), std::string::npos);

  const CliRun noout = run({"gen", "php", "4"});
  EXPECT_EQ(noout.exit_code, kExitError);
}

TEST_F(CliTest, GenBmcFamilies) {
  const CliRun rot = run({"gen", "rotator", "4", "5", "-o", cnf()});
  ASSERT_EQ(rot.exit_code, 0) << rot.err;
  EXPECT_EQ(run({"solve", cnf()}).exit_code, kExitUnsat);

  const CliRun cnt = run({"gen", "counter", "4", "3", "2", "-o", cnf()});
  ASSERT_EQ(cnt.exit_code, 0) << cnt.err;
  EXPECT_EQ(run({"solve", cnf()}).exit_code, kExitUnsat);

  const CliRun cnt2 = run({"gen", "counter", "4", "3", "5", "-o", cnf()});
  ASSERT_EQ(cnt2.exit_code, 0) << cnt2.err;
  EXPECT_EQ(run({"solve", cnf()}).exit_code, kExitSat);
}

TEST_F(CliTest, AssumptionsSatAndUnsat) {
  // x0 -> x1 chain.
  write_cnf("p cnf 2 1\n-1 2 0\n");
  const CliRun sat = run({"solve", cnf(), "--assume", "1 2"});
  EXPECT_EQ(sat.exit_code, kExitSat);

  const CliRun unsat =
      run({"solve", cnf(), "--assume", "1 -2", "--check", "both"});
  EXPECT_EQ(unsat.exit_code, kExitUnsat) << unsat.err;
  EXPECT_NE(unsat.out.find("failed assumptions:"), std::string::npos);
  EXPECT_NE(unsat.out.find("depth-first check ok"), std::string::npos);
}

TEST_F(CliTest, AssumptionTraceRoundTripsThroughCheckCommand) {
  write_cnf("p cnf 3 2\n-1 2 0\n-2 3 0\n");
  const CliRun s =
      run({"solve", cnf(), "--assume", "1 -3", "--trace", aux()});
  ASSERT_EQ(s.exit_code, kExitUnsat) << s.err;
  const CliRun c = run({"check", cnf(), aux()});
  EXPECT_EQ(c.exit_code, 0) << c.err;
}

TEST_F(CliTest, AssumeRejectsMalformedInput) {
  write_cnf("p cnf 1 1\n1 0\n");
  EXPECT_EQ(run({"solve", cnf(), "--assume", "0"}).exit_code, kExitError);
  EXPECT_EQ(run({"solve", cnf(), "--assume", "x"}).exit_code, kExitError);
  EXPECT_EQ(run({"solve", cnf(), "--assume", ""}).exit_code, kExitError);
  // Unchecked, 2^31 + 1 wraps onto variable 1.
  const CliRun wrapped = run({"solve", cnf(), "--assume", "2147483649"});
  EXPECT_EQ(wrapped.exit_code, kExitError);
  EXPECT_NE(wrapped.err.find("--assume literal out of range"),
            std::string::npos)
      << wrapped.err;
}

TEST_F(CliTest, SimplifySolveAndTraceCheck) {
  const CliRun g = run({"gen", "rotator", "4", "6", "-o", cnf()});
  ASSERT_EQ(g.exit_code, 0);
  const CliRun s = run({"solve", cnf(), "--simplify", "--trace", aux(),
                        "--check", "both", "--stats"});
  EXPECT_EQ(s.exit_code, kExitUnsat) << s.err;
  EXPECT_NE(s.out.find("c preprocessing:"), std::string::npos);
  // The file trace must also validate standalone.
  const CliRun c = run({"check", cnf(), aux()});
  EXPECT_EQ(c.exit_code, 0) << c.err;
}

TEST_F(CliTest, SimplifySatModelVerified) {
  write_cnf("p cnf 3 3\n1 2 0\n-1 3 0\n-2 -3 0\n");
  const CliRun s = run({"solve", cnf(), "--simplify", "--model"});
  EXPECT_EQ(s.exit_code, kExitSat) << s.err;
  EXPECT_NE(s.out.find("c model verified"), std::string::npos);
}

TEST_F(CliTest, SimplifyWithAssumeRejected) {
  write_cnf("p cnf 1 1\n1 0\n");
  const CliRun s = run({"solve", cnf(), "--simplify", "--assume", "1"});
  EXPECT_EQ(s.exit_code, kExitError);
}

TEST_F(CliTest, SimplifyWithDrupRejected) {
  write_cnf("p cnf 1 1\n1 0\n");
  const CliRun s = run({"solve", cnf(), "--simplify", "--drup", aux()});
  EXPECT_EQ(s.exit_code, kExitError);
}

TEST_F(CliTest, CheckCommandVariants) {
  gen_php(5);
  const CliRun s = run({"solve", cnf(), "--trace", aux()});
  ASSERT_EQ(s.exit_code, kExitUnsat);
  EXPECT_EQ(run({"check", "--checker=hybrid", cnf(), aux()}).exit_code, 0);
  const CliRun rup = run({"check", "--checker=rup", cnf(), aux()});
  EXPECT_EQ(rup.exit_code, 0) << rup.err;
  EXPECT_NE(rup.out.find("VERIFIED (RUP)"), std::string::npos);
  EXPECT_EQ(
      run({"check", "--checker=bf", "--checker=rup", cnf(), aux()}).exit_code,
      kExitError);
}

TEST_F(CliTest, CheckerOptionSelectsBackend) {
  gen_php(5);
  const CliRun s = run({"solve", cnf(), "--trace", aux()});
  ASSERT_EQ(s.exit_code, kExitUnsat);
  for (const char* mode : {"df", "bf", "hybrid", "window"}) {
    const CliRun c = run({"check", "--checker", mode, cnf(), aux()});
    EXPECT_EQ(c.exit_code, 0) << mode << ": " << c.err;
    EXPECT_NE(c.out.find("VERIFIED"), std::string::npos) << mode;
  }
  // --opt=value spelling.
  const CliRun eq = run({"check", "--checker=window", cnf(), aux()});
  EXPECT_EQ(eq.exit_code, 0) << eq.err;
  EXPECT_EQ(run({"check", "--checker", "warp", cnf(), aux()}).exit_code,
            kExitError);
  // The retired shorthands of --checker and the no-op --binary, like the
  // retired parallel backend and its --jobs flag, are ordinary CLI errors.
  for (const char* flag : {"--bf", "--hybrid", "--rup", "--binary"}) {
    const CliRun c = run({"check", cnf(), aux(), flag});
    EXPECT_EQ(c.exit_code, kExitError) << flag;
    EXPECT_NE(c.err.find(std::string("unexpected argument '") + flag + "'"),
              std::string::npos)
        << c.err;
  }
  const CliRun par = run({"check", "--checker=parallel", cnf(), aux()});
  EXPECT_EQ(par.exit_code, kExitError);
  EXPECT_NE(par.err.find("--checker expects"), std::string::npos) << par.err;
  EXPECT_EQ(run({"check", "--jobs=4", cnf(), aux()}).exit_code, kExitError);
  // serve's old --jobs alias of --workers is gone as well.
  const CliRun serve = run({"serve", "--jobs", "2"});
  EXPECT_EQ(serve.exit_code, kExitError);
  EXPECT_NE(serve.err.find("unexpected argument '--jobs'"), std::string::npos)
      << serve.err;
}

TEST_F(CliTest, SolveRejectsRetiredParallelCheck) {
  gen_php(5);
  const CliRun r = run({"solve", cnf(), "--check", "parallel"});
  EXPECT_EQ(r.exit_code, kExitError);
  EXPECT_NE(r.err.find("--check expects"), std::string::npos) << r.err;
  EXPECT_EQ(run({"solve", cnf(), "--check", "df", "--jobs", "2"}).exit_code,
            kExitError);
}

/// The number following `"key":` in a --stats=json line.
std::string json_field(const std::string& out, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = out.find(needle);
  if (pos == std::string::npos) return "<missing>";
  const auto begin = pos + needle.size();
  return out.substr(begin, out.find_first_of(",}", begin) - begin);
}

TEST_F(CliTest, HybridIsWindowWithDepthFirstStats) {
  gen_php(6);
  const CliRun s = run({"solve", cnf(), "--trace", aux()});
  ASSERT_EQ(s.exit_code, kExitUnsat);
  const CliRun df = run({"check", "--stats=json", cnf(), aux()});
  ASSERT_EQ(df.exit_code, 0) << df.err;
  const CliRun hy = run({"check", "--checker=hybrid", "--stats=json", cnf(),
                         aux()});
  ASSERT_EQ(hy.exit_code, 0) << hy.err;
  EXPECT_NE(hy.out.find("\"backend\":\"window\""), std::string::npos)
      << hy.out;
  for (const char* key :
       {"resolutions", "clauses_built", "core_original_clauses"}) {
    EXPECT_EQ(json_field(hy.out, key), json_field(df.out, key)) << key;
  }

  const CliRun ex =
      run({"export-lrat", "--checker=hybrid", cnf(), aux(), "-o", aux2()});
  ASSERT_EQ(ex.exit_code, 0) << ex.err;
  EXPECT_NE(ex.out.find("(window replay)"), std::string::npos) << ex.out;
  std::ifstream cnf_in(cnf_.path());
  std::ifstream cert_in(aux2_.path());
  const kern::VerifyResult kv = kern::verify_lrat(cnf_in, cert_in);
  EXPECT_TRUE(kv.verified) << "line " << kv.line << ": " << kv.error;
  EXPECT_GT(kv.deletions, 0u);
}

TEST_F(CliTest, TrimCommandRoundTrip) {
  gen_php(6);
  const CliRun s = run({"solve", cnf(), "--trace", aux()});
  ASSERT_EQ(s.exit_code, kExitUnsat);
  const CliRun t = run({"trim", aux(), aux2()});
  EXPECT_EQ(t.exit_code, 0) << t.err;
  EXPECT_NE(t.out.find("trimmed"), std::string::npos);
  const CliRun c = run({"check", cnf(), aux2()});
  EXPECT_EQ(c.exit_code, 0) << c.err;
}

TEST_F(CliTest, TrimKeepsBinaryFormat) {
  gen_php(6);
  const CliRun s = run({"solve", cnf(), "--trace", aux(), "--binary"});
  ASSERT_EQ(s.exit_code, kExitUnsat);
  // The input is found to be binary by its magic; there is no --binary.
  const CliRun t = run({"trim", aux(), aux2()});
  ASSERT_EQ(t.exit_code, 0) << t.err;
  EXPECT_NE(t.out.find("trimmed"), std::string::npos);
  std::ifstream trimmed(aux2_.path(), std::ios::binary);
  char magic[4] = {};
  trimmed.read(magic, sizeof magic);
  EXPECT_EQ(std::string(magic, sizeof magic), "SPRF");
  const CliRun c = run({"check", cnf(), aux2()});
  EXPECT_EQ(c.exit_code, 0) << c.err;
  const CliRun flag = run({"trim", aux(), aux2(), "--binary"});
  EXPECT_EQ(flag.exit_code, kExitError);
  EXPECT_NE(flag.err.find("unexpected argument '--binary'"),
            std::string::npos)
      << flag.err;
}

TEST_F(CliTest, DrupEmitAndCheckRoundTrip) {
  gen_php(5);
  const CliRun s = run({"solve", cnf(), "--drup", aux()});
  ASSERT_EQ(s.exit_code, kExitUnsat) << s.err;
  const CliRun c = run({"drup", cnf(), aux()});
  EXPECT_EQ(c.exit_code, 0) << c.err;
  EXPECT_NE(c.out.find("VERIFIED (DRUP)"), std::string::npos);
  // Against the wrong formula the proof must fail.
  const CliRun g2 = run({"gen", "php", "6", "-o", aux2()});
  ASSERT_EQ(g2.exit_code, 0);
  EXPECT_EQ(run({"drup", aux2(), aux()}).exit_code, kExitError);
}

TEST_F(CliTest, InterpolateCommand) {
  gen_php(4);
  // A = the 5 at-least-one clauses, B = the rest.
  const CliRun r =
      run({"interpolate", cnf(), "--split", "5", "-o", aux()});
  EXPECT_EQ(r.exit_code, 0) << r.err;
  EXPECT_NE(r.out.find("verified: A implies I"), std::string::npos);
  std::ifstream dot(aux());
  std::string first;
  std::getline(dot, first);
  EXPECT_EQ(first, "digraph interpolant {");

  // A satisfiable formula has no interpolant.
  write_cnf("p cnf 1 1\n1 0\n");
  const CliRun sat = run({"interpolate", cnf(), "--split", "1"});
  EXPECT_EQ(sat.exit_code, kExitError);
  // Split out of range.
  gen_php(4);
  EXPECT_EQ(run({"interpolate", cnf(), "--split", "999"}).exit_code,
            kExitError);
}

TEST_F(CliTest, SolveMissingFileFails) {
  const CliRun r = run({"solve", "/nonexistent/file.cnf"});
  EXPECT_EQ(r.exit_code, kExitError);
  EXPECT_FALSE(r.err.empty());
}

TEST_F(CliTest, UnexpectedArgumentRejected) {
  gen_php(4);
  const CliRun r = run({"solve", cnf(), "bogus-extra"});
  EXPECT_EQ(r.exit_code, kExitError);
  EXPECT_NE(r.err.find("unexpected argument"), std::string::npos);
}

TEST_F(CliTest, MisplacedFlagIsNamed) {
  gen_php(4);
  const CliRun s = run({"solve", cnf(), "--trace", aux()});
  ASSERT_EQ(s.exit_code, kExitUnsat);
  // An unknown flag is named whether it comes before the positionals or
  // after them; it is never mistaken for a file name.
  for (const auto& args : {std::vector<std::string>{"check", "--foo", cnf(),
                                                    aux()},
                           std::vector<std::string>{"check", cnf(), aux(),
                                                    "--foo"}}) {
    const CliRun r = run(args);
    EXPECT_EQ(r.exit_code, kExitError);
    EXPECT_NE(r.err.find("unexpected argument '--foo'"), std::string::npos)
        << r.err;
  }
}

TEST_F(CliTest, BwGenReportsOptimal) {
  const CliRun g = run({"gen", "bw", "4", "-1", "9", "-o", cnf()});
  ASSERT_EQ(g.exit_code, 0) << g.err;
  EXPECT_EQ(run({"solve", cnf()}).exit_code, kExitUnsat);
}

}  // namespace
}  // namespace satproof::cli
