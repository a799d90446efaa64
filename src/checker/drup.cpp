#include "src/checker/drup.hpp"

#include <algorithm>
#include <istream>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "src/checker/rup_engine.hpp"
#include "src/obs/trace.hpp"
#include "src/util/byte_source.hpp"
#include "src/util/text_scanner.hpp"

namespace satproof::checker {

DrupCheckResult check_drup(const Formula& f, std::istream& proof) {
  DrupCheckResult result;

  // Parse first into memory-light records. Variables the formula lacks
  // (ours never emits any) are renumbered densely after its own, so the
  // engine is sized by the proof's length, not by the largest index a
  // client wrote.
  std::vector<Var> fresh;
  struct Line {
    bool deletion;
    SortedClause lits;
  };
  std::vector<Line> lines;
  std::vector<Lit> raw;
  obs::Span parse_span_holder("parse");
  util::StreamByteSource src(proof);
  util::LineScanner scanner(src);
  std::string_view text;
  for (;;) {
    try {
      if (!scanner.next(text)) break;
    } catch (const std::runtime_error&) {
      result.error = "DRUP proof stream read error";
      return result;
    }
    if (text.empty() || text[0] == 'c') continue;
    const char* p = text.data();
    const char* const end = p + text.size();
    // A deletion line's first word is exactly "d"; otherwise the whole
    // line is literals.
    Line line{false, {}};
    const char* after_first = p;
    if (util::scan_word(after_first, end) == "d") {
      line.deletion = true;
      p = after_first;
    }
    std::int64_t d = 0;
    bool terminated = false;
    raw.clear();
    while (util::scan_int(p, end, d) == util::IntToken::kOk) {
      if (d == 0) {
        terminated = true;  // anything after the 0 is ignored
        break;
      }
      if (!Lit::dimacs_in_range(d)) {
        result.error = "DRUP line " + std::to_string(scanner.line_no()) +
                       ": literal out of range: '" + std::string(text) + "'";
        return result;
      }
      const Lit lit = Lit::from_dimacs(d);
      if (lit.var() >= f.num_vars()) fresh.push_back(lit.var());
      raw.push_back(lit);
    }
    if (!terminated) {
      result.error =
          "DRUP line not terminated by 0: '" + std::string(text) + "'";
      return result;
    }
    line.lits = canonicalize(raw);
    lines.push_back(std::move(line));
  }
  // The renumbering keeps the fresh variables' order, so every canonical
  // clause keeps its literal order and the engine watches and propagates
  // exactly as it would under the written names.
  std::sort(fresh.begin(), fresh.end());
  fresh.erase(std::unique(fresh.begin(), fresh.end()), fresh.end());
  if (!fresh.empty()) {
    for (Line& line : lines) {
      for (Lit& lit : line.lits) {
        if (lit.var() < f.num_vars()) continue;
        const auto rank = std::lower_bound(fresh.begin(), fresh.end(),
                                           lit.var()) - fresh.begin();
        lit = Lit(f.num_vars() + static_cast<Var>(rank), lit.negated());
      }
    }
  }
  parse_span_holder.finish();

  RupEngine engine(f.num_vars() + static_cast<Var>(fresh.size()));
  {
    obs::Span span("index");
    engine.add_formula(f);
  }

  obs::Span replay_span("replay");
  for (const Line& line : lines) {
    if (line.deletion) {
      if (!engine.delete_clause(line.lits)) {
        result.error = "deletion of a clause not in the database";
        return result;
      }
      ++result.deletions;
      continue;
    }
    if (!engine.rup_check(line.lits, result.propagations)) {
      result.error = "added clause is not RUP at its position in the proof";
      return result;
    }
    ++result.clauses_checked;
    if (line.lits.empty()) {
      result.ok = true;  // empty clause verified: UNSAT proven
      return result;
    }
    engine.add_clause(line.lits);
  }
  result.error = "proof ended without deriving the empty clause";
  return result;
}

}  // namespace satproof::checker
