#include "src/proof/rup.hpp"

#include <algorithm>
#include <string>

#include "src/checker/rup_engine.hpp"

namespace satproof::proof {

checker::DrupCheckResult check_rup(const Formula& f, const ProofDag& dag) {
  checker::DrupCheckResult result;

  Var num_vars = f.num_vars();
  for (const auto& node : dag.nodes) {
    for (const Lit lit : node.lits) {
      num_vars = std::max(num_vars, lit.var() + 1);
    }
  }
  checker::RupEngine engine(num_vars);
  engine.add_formula(f);

  for (const auto& node : dag.nodes) {
    if (node.sources.empty()) {
      // Leaf: must literally be an original clause.
      if (node.id >= dag.num_original) {
        result.error = "leaf node " + std::to_string(node.id) +
                       " is not an original clause";
        return result;
      }
      continue;
    }
    if (!engine.rup_check(node.lits, result.propagations)) {
      result.error =
          "derived clause " + std::to_string(node.id) +
          " is not RUP: assuming its negation does not propagate to a "
          "conflict";
      return result;
    }
    ++result.clauses_checked;
    engine.add_clause(node.lits);
  }

  result.ok = true;
  return result;
}

checker::DrupCheckResult check_trace_rup(const Formula& f,
                                         trace::TraceReader& reader) {
  try {
    const ProofDag dag = extract_proof(f, reader);
    return check_rup(f, dag);
  } catch (const ProofError& e) {
    checker::DrupCheckResult result;
    result.error = e.what();
    return result;
  }
}

}  // namespace satproof::proof
