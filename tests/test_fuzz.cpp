// Robustness fuzzing: checkers and trace readers must survive arbitrary
// corruption of trace bytes and of DIMACS text — either accepting a
// still-valid proof or rejecting with a diagnostic, but never crashing or
// hanging. (A validation tool that can be crashed by the artifact it is
// validating defeats its own purpose.)

#include <gtest/gtest.h>

#include <sstream>

#include "src/checker/breadth_first.hpp"
#include "src/checker/depth_first.hpp"
#include "src/checker/window.hpp"
#include "src/cnf/dimacs.hpp"
#include "src/encode/pigeonhole.hpp"
#include "src/solver/solver.hpp"
#include "src/trace/ascii.hpp"
#include "src/trace/binary.hpp"
#include "src/util/rng.hpp"

namespace satproof {
namespace {

struct BaseTrace {
  Formula formula;
  std::string ascii;
  std::string binary;
};

const BaseTrace& base_trace() {
  static const BaseTrace base = [] {
    BaseTrace b;
    b.formula = encode::pigeonhole(4);
    std::ostringstream ascii, binary;
    trace::AsciiTraceWriter wa(ascii);
    trace::BinaryTraceWriter wb(binary);
    for (trace::TraceWriter* w :
         std::initializer_list<trace::TraceWriter*>{&wa, &wb}) {
      solver::Solver s;
      s.add_formula(b.formula);
      s.set_trace_writer(w);
      EXPECT_EQ(s.solve(), solver::SolveResult::Unsatisfiable);
    }
    b.ascii = ascii.str();
    b.binary = binary.str();
    return b;
  }();
  return base;
}

/// Runs every checker on the (possibly corrupt) trace text; the only
/// acceptable outcomes are a clean accept or a clean reject.
void check_all_survive(const std::string& text, bool binary) {
  const Formula& f = base_trace().formula;
  for (int which = 0; which < 3; ++which) {
    std::istringstream in(text);
    try {
      std::unique_ptr<trace::TraceReader> reader;
      if (binary) {
        reader = std::make_unique<trace::BinaryTraceReader>(in);
      } else {
        reader = std::make_unique<trace::AsciiTraceReader>(in);
      }
      checker::CheckResult res;
      switch (which) {
        case 0:
          res = checker::check_depth_first(f, *reader);
          break;
        case 1:
          res = checker::check_breadth_first(f, *reader);
          break;
        default: {
          checker::WindowOptions opts;
          opts.mem_limit_bytes = 0;
          res = checker::check_window(f, *reader, opts);
          break;
        }
      }
      if (!res.ok) {
        EXPECT_FALSE(res.error.empty());
      }
    } catch (const std::exception&) {
      // Header-parse failures surface as exceptions from the reader
      // constructor; that is a clean reject too.
    }
  }
}

class AsciiFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AsciiFuzz, ByteFlipsNeverCrashCheckers) {
  util::Rng rng(GetParam());
  const std::string& base = base_trace().ascii;
  for (int round = 0; round < 60; ++round) {
    std::string corrupt = base;
    const int flips = 1 + static_cast<int>(rng.next_below(4));
    for (int i = 0; i < flips; ++i) {
      const std::size_t pos = rng.next_below(corrupt.size());
      corrupt[pos] = static_cast<char>(' ' + rng.next_below(95));
    }
    check_all_survive(corrupt, /*binary=*/false);
  }
}

TEST_P(AsciiFuzz, TruncationsNeverCrashCheckers) {
  util::Rng rng(GetParam());
  const std::string& base = base_trace().ascii;
  for (int round = 0; round < 20; ++round) {
    const std::size_t keep = rng.next_below(base.size());
    check_all_survive(base.substr(0, keep), /*binary=*/false);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AsciiFuzz, ::testing::Values(1, 2, 3));

class BinaryFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BinaryFuzz, ByteFlipsNeverCrashCheckers) {
  util::Rng rng(GetParam());
  const std::string& base = base_trace().binary;
  for (int round = 0; round < 60; ++round) {
    std::string corrupt = base;
    const int flips = 1 + static_cast<int>(rng.next_below(4));
    for (int i = 0; i < flips; ++i) {
      const std::size_t pos = rng.next_below(corrupt.size());
      corrupt[pos] = static_cast<char>(rng.next_below(256));
    }
    check_all_survive(corrupt, /*binary=*/true);
  }
}

TEST_P(BinaryFuzz, TruncationsNeverCrashCheckers) {
  util::Rng rng(GetParam());
  const std::string& base = base_trace().binary;
  for (int round = 0; round < 20; ++round) {
    const std::size_t keep = rng.next_below(base.size());
    check_all_survive(base.substr(0, keep), /*binary=*/true);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BinaryFuzz, ::testing::Values(4, 5, 6));

class DimacsFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DimacsFuzz, CorruptedCnfTextNeverCrashesParser) {
  util::Rng rng(GetParam());
  std::ostringstream base_out;
  dimacs::write(base_out, encode::pigeonhole(3));
  const std::string base = base_out.str();
  for (int round = 0; round < 80; ++round) {
    std::string corrupt = base;
    const int flips = 1 + static_cast<int>(rng.next_below(5));
    for (int i = 0; i < flips; ++i) {
      corrupt[rng.next_below(corrupt.size())] =
          static_cast<char>(' ' + rng.next_below(95));
    }
    try {
      const Formula f = dimacs::parse_string(corrupt);
      (void)f.num_clauses();  // parsed fine: the corruption was benign
    } catch (const std::exception& e) {
      EXPECT_NE(std::string(e.what()).find("dimacs"), std::string::npos);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DimacsFuzz, ::testing::Values(7, 8));

}  // namespace
}  // namespace satproof
