// Robustness fuzzing: checkers, trace readers and the certificate kernel
// must survive arbitrary corruption of trace bytes, of DIMACS and DRUP text
// and of LRAT certificates — either accepting a
// still-valid proof or rejecting with a diagnostic, but never crashing or
// hanging. (A validation tool that can be crashed by the artifact it is
// validating defeats its own purpose.)

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "src/cert/kernel.hpp"
#include "src/cert/lrat_emitter.hpp"
#include "src/checker/breadth_first.hpp"
#include "src/checker/drup.hpp"
#include "src/checker/depth_first.hpp"
#include "src/checker/window.hpp"
#include "src/cnf/dimacs.hpp"
#include "src/encode/pigeonhole.hpp"
#include "src/solver/solver.hpp"
#include "src/trace/ascii.hpp"
#include "src/trace/binary.hpp"
#include "src/trace/drup.hpp"
#include "src/trace/memory.hpp"
#include "src/util/rng.hpp"
#include "src/util/temp_file.hpp"

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

/// Applies one seeded mutation to DIMACS or DRUP text: printable-byte
/// replacements, bit flips, a truncation, a digit run extended past the
/// int64 range, or an inserted '\r' or '\0'.
std::string mutate_text(std::string text, util::Rng& rng) {
  const auto any_pos = [&] {
    return text.empty() ? 0 : static_cast<std::size_t>(
                                  rng.next_below(text.size()));
  };
  switch (rng.next_below(6)) {
    case 0:
      for (auto n = 1 + rng.next_below(5); n > 0 && !text.empty(); --n) {
        text[any_pos()] = static_cast<char>(' ' + rng.next_below(95));
      }
      break;
    case 1:
      for (auto n = 1 + rng.next_below(4); n > 0 && !text.empty(); --n) {
        text[any_pos()] ^= static_cast<char>(1u << rng.next_below(8));
      }
      break;
    case 2:
      text.resize(static_cast<std::size_t>(rng.next_below(text.size() + 1)));
      break;
    case 3: {
      // 20 more non-zero leading digits: at least 21, past 2^63.
      const std::size_t at = text.find_first_of("0123456789", any_pos());
      if (at != std::string::npos) {
        text.insert(at, 20, static_cast<char>('1' + rng.next_below(9)));
      }
      break;
    }
    case 4:
      text.insert(any_pos(), 1, '\r');
      break;
    default:
      text.insert(any_pos(), 1, '\0');
      break;
  }
  return text;
}

class DimacsFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DimacsFuzz, CorruptedCnfTextNeverCrashesParser) {
  util::Rng rng(GetParam());
  std::ostringstream base_out;
  dimacs::write(base_out, encode::pigeonhole(3));
  const std::string base = base_out.str();
  util::TempFile tmp("dimacs_fuzz");
  for (int round = 0; round < 160; ++round) {
    const std::string corrupt = mutate_text(base, rng);
    // Half the inputs go through the file entry point.
    const bool via_file = round % 2 == 1;
    if (via_file) {
      std::ofstream out(tmp.path(), std::ios::binary | std::ios::trunc);
      out << corrupt;
    }
    try {
      const Formula f = via_file ? dimacs::parse_file(tmp.path())
                                 : dimacs::parse_string(corrupt);
      (void)f.num_clauses();  // parsed fine: the corruption was benign
    } catch (const std::exception& e) {
      EXPECT_EQ(std::string(e.what()).rfind("dimacs: ", 0), 0u)
          << e.what() << " on " << testing::PrintToString(corrupt);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DimacsFuzz, ::testing::Values(7, 8));

class DrupFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DrupFuzz, CorruptedProofTextNeverCrashesChecker) {
  util::Rng rng(GetParam());
  const Formula f = encode::pigeonhole(4);
  std::ostringstream proof;
  {
    trace::DrupWriter w(proof);
    solver::Solver s;
    s.add_formula(f);
    s.set_drup_writer(&w);
    ASSERT_EQ(s.solve(), solver::SolveResult::Unsatisfiable);
  }
  // A proof this small has no deletions; give every third lemma a
  // deletion and a re-addition, which keeps the proof valid.
  std::string base;
  std::istringstream lines(proof.str());
  int lemma = 0;
  for (std::string line; std::getline(lines, line);) {
    base += line + '\n';
    if (line != "0" && ++lemma % 3 == 0) {
      base += "d " + line + '\n' + line + '\n';
    }
  }
  {
    std::istringstream in(base);
    ASSERT_TRUE(checker::check_drup(f, in).ok);
  }
  int rejected = 0;
  for (int round = 0; round < 160; ++round) {
    const std::string corrupt = mutate_text(base, rng);
    std::istringstream in(corrupt);
    const checker::DrupCheckResult res = checker::check_drup(f, in);
    if (!res.ok) {
      ++rejected;
      EXPECT_FALSE(res.error.empty()) << testing::PrintToString(corrupt);
    }
  }
  EXPECT_GT(rejected, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DrupFuzz, ::testing::Values(9, 10));

/// php4's CNF and its depth-first LRAT certificate, text and binary.
struct KernelBase {
  std::string cnf;
  std::string text;
  std::string binary;
};

const KernelBase& kernel_base() {
  static const KernelBase base = [] {
    KernelBase b;
    const Formula f = encode::pigeonhole(4);
    std::ostringstream cnf;
    dimacs::write(cnf, f);
    b.cnf = cnf.str();
    solver::Solver s;
    s.add_formula(f);
    trace::MemoryTraceWriter trace_writer;
    s.set_trace_writer(&trace_writer);
    EXPECT_EQ(s.solve(), solver::SolveResult::Unsatisfiable);
    const trace::MemoryTrace t = trace_writer.take();
    for (const bool binary : {false, true}) {
      std::ostringstream out;
      std::unique_ptr<cert::LratWriter> w;
      if (binary) {
        w = std::make_unique<cert::BinaryLratWriter>(out);
      } else {
        w = std::make_unique<cert::TextLratWriter>(out);
      }
      cert::LratEmitter emitter(*w, f.num_clauses());
      trace::MemoryTraceReader r(t);
      checker::DepthFirstOptions opts;
      opts.observer = &emitter;
      EXPECT_TRUE(checker::check_depth_first(f, r, opts).ok);
      (binary ? b.binary : b.text) = out.str();
    }
    return b;
  }();
  return base;
}

/// Runs the kernel on one (possibly corrupt) input pair: it must return a
/// verdict rather than throw, and a rejection must carry a diagnostic.
/// Returns whether the pair verified.
bool kernel_survives(const std::string& cnf, const std::string& cert) {
  std::istringstream cnf_in(cnf);
  std::istringstream cert_in(cert);
  kern::VerifyResult r;
  EXPECT_NO_THROW(r = kern::verify_lrat(cnf_in, cert_in))
      << testing::PrintToString(cnf) << testing::PrintToString(cert);
  if (!r.verified) {
    EXPECT_FALSE(r.error.empty())
        << testing::PrintToString(cnf) << testing::PrintToString(cert);
  }
  return r.verified;
}

class KernelFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KernelFuzz, CorruptedTextInputsNeverCrashKernel) {
  util::Rng rng(GetParam());
  const KernelBase& base = kernel_base();
  ASSERT_TRUE(kernel_survives(base.cnf, base.text));
  int rejected = 0;
  for (int round = 0; round < 160; ++round) {
    // Alternate rounds corrupt the certificate and the CNF.
    const bool corrupt_cnf = round % 2 == 1;
    const bool ok =
        corrupt_cnf ? kernel_survives(mutate_text(base.cnf, rng), base.text)
                    : kernel_survives(base.cnf, mutate_text(base.text, rng));
    if (!ok) ++rejected;
  }
  EXPECT_GT(rejected, 0);
}

TEST_P(KernelFuzz, CorruptedBinaryCertificateNeverCrashesKernel) {
  util::Rng rng(GetParam());
  const KernelBase& base = kernel_base();
  ASSERT_TRUE(kernel_survives(base.cnf, base.binary));
  int rejected = 0;
  for (int round = 0; round < 160; ++round) {
    std::string corrupt = base.binary;
    if (round % 4 == 3) {
      corrupt.resize(static_cast<std::size_t>(rng.next_below(corrupt.size())));
    } else {
      for (auto n = 1 + rng.next_below(4); n > 0; --n) {
        corrupt[rng.next_below(corrupt.size())] =
            static_cast<char>(rng.next_below(256));
      }
    }
    if (!kernel_survives(base.cnf, corrupt)) ++rejected;
  }
  EXPECT_GT(rejected, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelFuzz, ::testing::Values(11, 12));

}  // namespace
}  // namespace satproof
