// Micro-benchmarks (google-benchmark) for the hot kernels: resolution
// (reference sorted-merge vs the marker-based ChainResolver), solver BCP,
// trace codecs, DIMACS and DRUP parsing, and the certificate kernel.

#include <benchmark/benchmark.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>

#include "src/cert/kernel.hpp"
#include "src/cert/lrat_emitter.hpp"
#include "src/checker/depth_first.hpp"
#include "src/checker/drup.hpp"
#include "src/checker/resolution.hpp"
#include "src/cnf/dimacs.hpp"
#include "src/circuit/miter.hpp"
#include "src/circuit/tseitin.hpp"
#include "src/circuit/words.hpp"
#include "src/encode/pigeonhole.hpp"
#include "src/encode/random_ksat.hpp"
#include "src/solver/solver.hpp"
#include "src/trace/drup.hpp"
#include "src/trace/memory.hpp"
#include "src/util/rng.hpp"
#include "src/util/temp_file.hpp"
#include "src/util/varint.hpp"

namespace {

using namespace satproof;

/// Builds a resolution chain: a long base clause and `steps` short partner
/// clauses, each clashing on exactly one variable of the running clause.
struct Chain {
  checker::SortedClause base;
  std::vector<checker::SortedClause> partners;
};

Chain make_chain(std::size_t base_len, std::size_t steps) {
  Chain c;
  // Base: ~x0 ... ~x(base_len-1).
  for (Var v = 0; v < base_len; ++v) c.base.push_back(Lit::neg(v));
  // Partner i resolves on x_i and introduces two fresh high literals.
  for (std::size_t i = 0; i < steps; ++i) {
    checker::SortedClause p{Lit::pos(static_cast<Var>(i)),
                            Lit::neg(static_cast<Var>(base_len + 2 * i)),
                            Lit::neg(static_cast<Var>(base_len + 2 * i + 1))};
    std::sort(p.begin(), p.end());
    c.partners.push_back(std::move(p));
  }
  return c;
}

void BM_ResolveSortedMerge(benchmark::State& state) {
  const Chain chain =
      make_chain(static_cast<std::size_t>(state.range(0)), 64);
  checker::SortedClause current, next;
  for (auto _ : state) {
    current = chain.base;
    for (const auto& p : chain.partners) {
      const auto r = checker::resolve(current, p, next);
      if (r.status != checker::ResolveStatus::Ok) state.SkipWithError("bad");
      current.swap(next);
    }
    benchmark::DoNotOptimize(current.data());
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_ResolveSortedMerge)->Arg(64)->Arg(512)->Arg(4096);

void BM_ChainResolver(benchmark::State& state) {
  const Chain chain =
      make_chain(static_cast<std::size_t>(state.range(0)), 64);
  checker::ChainResolver resolver;
  // Warm up to steady state before timing: pre-size the mark table for
  // every variable the chain touches and run one untimed chain, so the
  // first measured iteration doesn't pay the one-time mark-array growth
  // the replay backends amortize with reserve_vars().
  resolver.reserve_vars(static_cast<Var>(state.range(0) + 2 * 64));
  resolver.start(chain.base);
  for (const auto& p : chain.partners) (void)resolver.step(p);
  for (auto _ : state) {
    resolver.start(chain.base);
    for (const auto& p : chain.partners) {
      const auto r = resolver.step(p);
      if (r.status != checker::ResolveStatus::Ok) state.SkipWithError("bad");
    }
    benchmark::DoNotOptimize(resolver.lits().data());
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_ChainResolver)->Arg(64)->Arg(512)->Arg(4096);

void BM_SolverBcpThroughput(benchmark::State& state) {
  // Full solve of a propagation-heavy instance; items = propagations.
  std::uint64_t props = 0;
  for (auto _ : state) {
    solver::Solver s;
    s.add_formula(encode::pigeonhole(6));
    benchmark::DoNotOptimize(s.solve());
    props += s.stats().propagations;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(props));
}
BENCHMARK(BM_SolverBcpThroughput);

void BM_SolveRandomKsat(benchmark::State& state) {
  const Formula f = encode::random_ksat(60, 256, 3, 1234);
  for (auto _ : state) {
    solver::Solver s;
    s.add_formula(f);
    benchmark::DoNotOptimize(s.solve());
  }
}
BENCHMARK(BM_SolveRandomKsat);

void BM_VarintRoundTrip(benchmark::State& state) {
  util::Rng rng(5);
  std::vector<std::uint64_t> values(4096);
  for (auto& v : values) v = rng.next_u64() >> (rng.next_below(60));
  for (auto _ : state) {
    std::vector<std::uint8_t> buf;
    for (const auto v : values) util::append_varint(buf, v);
    std::size_t pos = 0;
    std::uint64_t sum = 0;
    while (pos < buf.size()) sum += util::decode_varint(buf, pos);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(values.size()));
}
BENCHMARK(BM_VarintRoundTrip);

void BM_Canonicalize(benchmark::State& state) {
  util::Rng rng(6);
  std::vector<Lit> lits;
  for (int i = 0; i < 256; ++i) {
    lits.push_back(Lit(static_cast<Var>(rng.next_below(128)),
                       rng.next_bool()));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(checker::canonicalize(lits).data());
  }
}
BENCHMARK(BM_Canonicalize);

void BM_DimacsParse(benchmark::State& state) {
  std::ostringstream out;
  dimacs::write(out, encode::random_ksat(500, 2000, 3, 99));
  const std::string text = out.str();
  for (auto _ : state) {
    benchmark::DoNotOptimize(dimacs::parse_string(text).num_clauses());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_DimacsParse);

/// A gen_bigtrace-shaped CNF (~8 MB): 4 ladders of 65536 rungs, each a
/// unit on rung 0 plus binary implications up and down every adjacent
/// pair, a join clause and its negated output. Written once per process.
const std::string& ladder_cnf_path() {
  static const util::TempFile file = [] {
    constexpr std::int64_t kLadders = 4, kRungs = 1 << 16;
    const auto rung = [](std::int64_t w, std::int64_t i) {
      return w * kRungs + i + 1;
    };
    const std::int64_t z = kLadders * kRungs + 1;
    util::TempFile tmp("ladder_cnf");
    std::ofstream out(tmp.path());
    out << "p cnf " << z << ' ' << kLadders * (2 * kRungs - 1) + 2 << '\n';
    for (std::int64_t w = 0; w < kLadders; ++w) {
      out << rung(w, 0) << " 0\n";
      for (std::int64_t i = 0; i + 1 < kRungs; ++i) {
        out << -rung(w, i) << ' ' << rung(w, i + 1) << " 0\n";
        out << -rung(w, i + 1) << ' ' << rung(w, i) << " 0\n";
      }
    }
    for (std::int64_t w = 0; w < kLadders; ++w) {
      out << -rung(w, kRungs - 1) << ' ';
    }
    out << z << " 0\n-" << z << " 0\n";
    return tmp;
  }();
  static const std::string path = file.path().string();
  return path;
}

void BM_DimacsParseFile(benchmark::State& state) {
  const std::string& path = ladder_cnf_path();
  for (auto _ : state) {
    benchmark::DoNotOptimize(dimacs::parse_file(path).num_clauses());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(
                              std::filesystem::file_size(path)));
}
BENCHMARK(BM_DimacsParseFile)->Unit(benchmark::kMillisecond);

void BM_DrupParse(benchmark::State& state) {
  // php8's DRUP proof with one unterminated line appended: check_drup
  // parses every line and then rejects before indexing or replay, so the
  // loop times the parse stage alone.
  static const std::string proof = [] {
    std::ostringstream out;
    trace::DrupWriter w(out);
    solver::Solver s;
    s.add_formula(encode::pigeonhole(8));
    s.set_drup_writer(&w);
    (void)s.solve();
    return out.str() + "1\n";
  }();
  const Formula f = encode::pigeonhole(8);
  for (auto _ : state) {
    std::istringstream in(proof);
    const checker::DrupCheckResult res = checker::check_drup(f, in);
    if (res.error != "DRUP line not terminated by 0: '1'") {
      state.SkipWithError("unexpected DRUP outcome");
      break;
    }
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(proof.size()));
}
BENCHMARK(BM_DrupParse)->Unit(benchmark::kMillisecond);

/// php8's CNF and its depth-first LRAT certificate, as text (cert[0]) and
/// binary (cert[1]).
struct KernelInput {
  std::string cnf;
  std::string cert[2];
};

const KernelInput& kernel_input() {
  static const KernelInput input = [] {
    KernelInput in;
    const Formula f = encode::pigeonhole(8);
    std::ostringstream cnf;
    dimacs::write(cnf, f);
    in.cnf = cnf.str();
    solver::Solver s;
    s.add_formula(f);
    trace::MemoryTraceWriter trace_writer;
    s.set_trace_writer(&trace_writer);
    (void)s.solve();
    const trace::MemoryTrace t = trace_writer.take();
    for (int binary = 0; binary < 2; ++binary) {
      std::ostringstream out;
      std::unique_ptr<cert::LratWriter> w;
      if (binary != 0) {
        w = std::make_unique<cert::BinaryLratWriter>(out);
      } else {
        w = std::make_unique<cert::TextLratWriter>(out);
      }
      cert::LratEmitter emitter(*w, f.num_clauses());
      trace::MemoryTraceReader r(t);
      checker::DepthFirstOptions opts;
      opts.observer = &emitter;
      (void)checker::check_depth_first(f, r, opts);
      in.cert[binary] = out.str();
    }
    return in;
  }();
  return input;
}

void BM_KernelVerify(benchmark::State& state) {
  // The trusted kernel alone on php8 (Arg 0: text LRAT, 1: binary), both
  // inputs read from in-memory streams as satproofd's certify post-check
  // reads the certificate.
  const KernelInput& in = kernel_input();
  const std::string& cert = in.cert[state.range(0)];
  for (auto _ : state) {
    std::istringstream cnf(in.cnf);
    std::istringstream lrat(cert);
    if (!kern::verify_lrat(cnf, lrat).verified) {
      state.SkipWithError("kernel rejected the php8 certificate");
      break;
    }
  }
  state.SetLabel(state.range(0) != 0 ? "binary" : "text");
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(cert.size()));
}
BENCHMARK(BM_KernelVerify)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_TseitinMultiplierMiter(benchmark::State& state) {
  for (auto _ : state) {
    circuit::Netlist n;
    const auto a = circuit::input_word(n, 8);
    const auto b = circuit::input_word(n, 8);
    const auto m1 = circuit::array_multiplier(n, a, b);
    const auto m2 = circuit::multiplier_commuted(n, a, b);
    const auto m = circuit::build_miter(n, m1, m2);
    benchmark::DoNotOptimize(circuit::miter_to_cnf(n, m).num_clauses());
  }
}
BENCHMARK(BM_TseitinMultiplierMiter);

}  // namespace

BENCHMARK_MAIN();
