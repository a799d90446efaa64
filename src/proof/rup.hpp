#pragma once

#include "src/checker/drup.hpp"
#include "src/proof/proof_dag.hpp"
#include "src/trace/events.hpp"

namespace satproof::proof {

/// Verifies every derived clause of `dag` by **reverse unit propagation**:
/// assume the negation of the clause and unit-propagate over the original
/// clauses plus the previously verified derived clauses; a conflict must
/// follow. `clauses_checked` counts derived clauses; `deletions` is always
/// 0 (a DAG deletes nothing).
///
/// This is the verification style of the paper's contemporaries — Van
/// Gelder's checkable proofs (the paper's reference [13]) and Goldberg &
/// Novikov's RUP verification — and the ancestor of today's DRUP/DRAT
/// checking. Every clause our solver derives is produced by input
/// resolution against existing clauses, and input-resolvable clauses are
/// exactly the RUP-checkable ones, so RUP must accept every DAG the
/// resolution checkers accept. Running both gives two *methodologically
/// independent* validations of the same proof: one replays the inference
/// steps, the other re-derives each conclusion semantically.
///
/// RUP-checking a DAG is DRUP checking with no deletions, so it runs on
/// checker::RupEngine, the propagation engine check_drup uses. That engine
/// is independent of the solver's propagation and of resolution replay.
[[nodiscard]] checker::DrupCheckResult check_rup(const Formula& f,
                                                 const ProofDag& dag);

/// Convenience: extract the proof DAG from a trace and RUP-check it.
[[nodiscard]] checker::DrupCheckResult check_trace_rup(
    const Formula& f, trace::TraceReader& reader);

}  // namespace satproof::proof
