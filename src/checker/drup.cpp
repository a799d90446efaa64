#include "src/checker/drup.hpp"

#include <algorithm>
#include <istream>
#include <sstream>
#include <vector>

#include "src/checker/rup_engine.hpp"
#include "src/obs/trace.hpp"

namespace satproof::checker {

DrupCheckResult check_drup(const Formula& f, std::istream& proof) {
  DrupCheckResult result;

  // Find the variable bound: the proof may mention fresh variables only if
  // the solver introduced them, which ours does not; still, parse first
  // into memory-light records while tracking the max var.
  Var num_vars = f.num_vars();
  struct Line {
    bool deletion;
    SortedClause lits;
  };
  std::vector<Line> lines;
  std::string text;
  obs::Span parse_span_holder("parse");
  while (std::getline(proof, text)) {
    if (text.empty() || text[0] == 'c') continue;
    std::istringstream ls(text);
    Line line{false, {}};
    std::string first;
    ls >> first;
    if (first == "d") {
      line.deletion = true;
    } else {
      ls.clear();
      ls.seekg(0);
    }
    std::int64_t d = 0;
    bool terminated = false;
    std::vector<Lit> raw;
    while (ls >> d) {
      if (d == 0) {
        terminated = true;
        break;
      }
      raw.push_back(Lit::from_dimacs(d));
      num_vars = std::max(num_vars, raw.back().var() + 1);
    }
    if (!terminated) {
      result.error = "DRUP line not terminated by 0: '" + text + "'";
      return result;
    }
    line.lits = canonicalize(raw);
    lines.push_back(std::move(line));
  }
  parse_span_holder.finish();

  RupEngine engine(num_vars);
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
