#include "src/proof/proof_dag.hpp"

#include <algorithm>

#include "src/checker/depth_first.hpp"

namespace satproof::proof {

namespace {

/// Records the depth-first checker's replay as a ProofDag. Each built
/// clause becomes a node, preceded by a leaf for every original source
/// not yet in the DAG; the final derivation becomes the root. The checker
/// announces sources before their consumers, so nodes come out in
/// topological order.
class DagRecorder final : public checker::CertObserver {
 public:
  DagRecorder(const Formula& f, ProofDag& dag) : formula_(&f), dag_(&dag) {}

  void on_derived(ClauseId id, std::span<const Lit> lits,
                  std::span<const std::uint32_t> sources) override {
    checker::SortedClause sorted(lits.begin(), lits.end());
    std::sort(sorted.begin(), sorted.end());
    add_node(id, {sources.begin(), sources.end()}, std::move(sorted));
  }

  void on_released(ClauseId /*id*/) override {}

  void on_final(ClauseId final_id, std::span<const ClauseId> antecedents,
                std::span<const Lit> clause) override {
    std::vector<ClauseId> sources{final_id};
    sources.insert(sources.end(), antecedents.begin(), antecedents.end());
    // The root's ID is the first one the trace leaves free; the caller
    // learns it from the check result.
    add_node(kInvalidClauseId, std::move(sources),
             {clause.begin(), clause.end()});
  }

 private:
  /// Depth of source `s`, adding its leaf first when it is an original
  /// clause not yet in the DAG.
  unsigned depth_of(ClauseId s) {
    if (s >= depth_.size()) depth_.resize(s + 1, kUnseen);
    if (depth_[s] == kUnseen) {
      depth_[s] = 0;
      dag_->nodes.push_back(
          {s, {}, checker::canonicalize(formula_->clause(s)), 0});
    }
    return depth_[s];
  }

  void add_node(ClauseId id, std::vector<ClauseId> sources,
                checker::SortedClause lits) {
    unsigned depth = 0;
    for (const ClauseId s : sources) depth = std::max(depth, depth_of(s) + 1);
    if (id != kInvalidClauseId) {
      if (id >= depth_.size()) depth_.resize(id + 1, kUnseen);
      depth_[id] = depth;
    }
    dag_->nodes.push_back({id, std::move(sources), std::move(lits), depth});
  }

  static constexpr unsigned kUnseen = ~0u;
  const Formula* formula_;
  ProofDag* dag_;
  std::vector<unsigned> depth_;  ///< by clause ID; kUnseen until added
};

}  // namespace

std::size_t ProofDag::index_of(ClauseId id) const {
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].id == id) return i;
  }
  return ~std::size_t{0};
}

ProofStats compute_stats(const ProofDag& dag) {
  ProofStats st;
  std::size_t derived_width_sum = 0;
  for (const auto& n : dag.nodes) {
    st.max_clause_width = std::max(st.max_clause_width, n.lits.size());
    st.depth = std::max(st.depth, n.depth);
    if (n.sources.empty()) {
      ++st.leaves;
    } else {
      ++st.derived;
      st.resolutions += n.sources.size() - 1;
      derived_width_sum += n.lits.size();
    }
  }
  st.avg_clause_width =
      st.derived == 0 ? 0.0
                      : static_cast<double>(derived_width_sum) /
                            static_cast<double>(st.derived);
  return st;
}

ProofDag extract_proof(const Formula& f, trace::TraceReader& reader) {
  ProofDag dag;
  dag.num_original = reader.num_original();
  DagRecorder recorder(f, dag);
  checker::DepthFirstOptions options;
  options.collect_core = false;
  options.observer = &recorder;
  const checker::CheckResult result =
      checker::check_depth_first(f, reader, options);
  if (!result.ok) throw ProofError(result.error);
  dag.root_id = result.next_free_id;
  dag.nodes.back().id = dag.root_id;
  return dag;
}

}  // namespace satproof::proof
