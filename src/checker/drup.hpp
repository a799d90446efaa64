#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "src/cnf/formula.hpp"

namespace satproof::checker {

/// Result of forward DRUP checking.
struct DrupCheckResult {
  bool ok = false;
  std::string error;
  std::uint64_t clauses_checked = 0;  ///< added clauses verified RUP
  std::uint64_t deletions = 0;        ///< deletion lines applied
  std::uint64_t propagations = 0;     ///< unit propagations performed
};

/// Forward DRUP proof checking — validating the modern descendant of the
/// paper's trace format.
///
/// The proof stream (see trace::DrupWriter) lists learned clauses by their
/// literals and deletions by `d` lines; no derivation information is
/// recorded. Each added clause is verified by reverse unit propagation
/// against the original formula plus the previously verified (and not yet
/// deleted) clauses; the proof is complete when the empty clause is
/// verified. Deletions are honoured, which is what makes forward DRUP
/// checking faithful: a clause deleted by the solver must not help justify
/// a later one.
///
/// Propagation runs on RupEngine (rup_engine.hpp), whose persistent
/// top-level prefix is rebuilt lazily after deletion batches.
[[nodiscard]] DrupCheckResult check_drup(const Formula& f,
                                         std::istream& proof);

}  // namespace satproof::checker
