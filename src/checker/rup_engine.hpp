#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/checker/resolution.hpp"
#include "src/cnf/formula.hpp"
#include "src/util/arena.hpp"

namespace satproof::checker {

/// The reverse-unit-propagation engine behind both forward DRUP checking
/// (check_drup) and the RUP cross-check of resolution traces
/// (proof::check_rup, which is DRUP with no deletions). It shares no code
/// with the solver's propagation or with resolution replay.
///
/// Watched literals over live clauses; implied-at-top-level literals
/// accumulate on a *persistent* trail prefix — re-propagating them per
/// check would make a whole proof quadratic — which is rebuilt lazily
/// after deletions (deleting a clause can invalidate implied top-level
/// literals). Each rup_check() assumes the clause negation on top of that
/// prefix, propagates, and rolls back to the prefix.
class RupEngine {
 public:
  explicit RupEngine(Var num_vars)
      : assign_(num_vars, LBool::Undef), watches_(2 * num_vars) {}

  /// Adds every original clause of `f` (tautologies are permanently
  /// satisfied and contribute nothing to propagation).
  void add_formula(const Formula& f);

  /// Adds a clause (`lits` canonical) to the live database.
  void add_clause(const SortedClause& lits);

  /// Deletes one live clause with exactly these literals (as a set;
  /// `lits` canonical); returns false if none exists.
  bool delete_clause(const SortedClause& lits);

  /// True when assuming the negation of `lits` propagates to a conflict
  /// against the current live database; adds the literals propagated to
  /// `propagations`.
  [[nodiscard]] bool rup_check(const SortedClause& lits,
                               std::uint64_t& propagations);

 private:
  struct Clause {
    /// The clause's arena block. Blocks never move, so the watcher loop
    /// reads this view instead of resolving `ref` through the chunk table
    /// on every visit.
    std::span<Lit> lits;
    util::ClauseArena::Ref ref;  ///< for release()
    bool live;
  };

  // Defined in the class so the propagation loop inlines them.
  [[nodiscard]] LBool value(Lit p) const {
    const LBool v = assign_[p.var()];
    if (v == LBool::Undef) return LBool::Undef;
    return p.negated() ? ~v : v;
  }

  /// Returns false on conflict with the current assignment.
  bool enqueue(Lit p) {
    const LBool v = value(p);
    if (v == LBool::False) return false;
    if (v == LBool::True) return true;
    assign_[p.var()] = p.negated() ? LBool::False : LBool::True;
    trail_.push_back(p);
    return true;
  }

  void settle_clause(std::uint32_t index);
  void rebuild_prefix(std::uint64_t& propagations);
  bool propagate(std::uint64_t& propagations);

  std::vector<LBool> assign_;
  std::vector<std::vector<std::uint32_t>> watches_;  // by Lit::code()
  util::ClauseArena arena_;
  std::vector<Clause> clauses_;
  std::vector<std::uint32_t> units_;
  /// Content-hash deletion index, built on the first delete_clause():
  /// RUP checking never deletes, so it never pays for the map. Until then
  /// the clause hashes wait in pending_hashes_ (by clause index).
  std::unordered_multimap<std::size_t, std::uint32_t> by_hash_;
  std::vector<std::size_t> pending_hashes_;
  bool indexed_ = false;
  std::vector<Lit> trail_;
  std::size_t qhead_ = 0;
  std::size_t persistent_size_ = 0;  ///< trail prefix that never rolls back
  bool prefix_dirty_ = false;  ///< a deletion happened since the last build
  bool has_conflict_ = false;  ///< persistent prefix already conflicts
  bool has_empty_ = false;     ///< the empty clause is in the database
};

}  // namespace satproof::checker
