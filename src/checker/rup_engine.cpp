#include "src/checker/rup_engine.hpp"

#include <span>
#include <utility>

namespace satproof::checker {

namespace {

/// Hash of a canonical clause, for deletion lookup by content.
std::size_t clause_hash(const SortedClause& c) {
  std::size_t h = 0x9e3779b97f4a7c15ULL;
  for (const Lit lit : c) {
    h ^= lit.code() + 0x9e3779b9 + (h << 6) + (h >> 2);
  }
  return h;
}

}  // namespace

void RupEngine::add_formula(const Formula& f) {
  for (ClauseId id = 0; id < f.num_clauses(); ++id) {
    const SortedClause canon = canonicalize(f.clause(id));
    if (!is_tautology(canon)) add_clause(canon);
  }
}

void RupEngine::add_clause(const SortedClause& lits) {
  const std::uint32_t index = static_cast<std::uint32_t>(clauses_.size());
  // Clauses live in the arena; deleted clauses release their block, so a
  // proof with interleaved additions and deletions recycles space.
  const util::ClauseArena::Ref ref = arena_.put(lits);
  const std::span<Lit> stored = arena_.mutable_view(ref);
  clauses_.push_back({stored, ref, true});
  if (indexed_) {
    by_hash_.emplace(clause_hash(lits), index);
  } else {
    pending_hashes_.push_back(clause_hash(lits));
  }
  if (stored.empty()) {
    has_empty_ = true;
    return;
  }
  if (stored.size() == 1) {
    units_.push_back(index);
    if (!prefix_dirty_) settle_clause(index);
    return;
  }
  // Watch two non-false literals where possible; a clause that is unit
  // (or conflicting) under the persistent prefix is settled into the
  // prefix instead, so the two-watch invariant holds for every live
  // multi-literal clause. (After a prefix rebuild all assignments reset,
  // so any watch positions become valid again.)
  if (!prefix_dirty_) {
    std::size_t non_false = 0;
    for (std::size_t i = 0; i < stored.size() && non_false < 2; ++i) {
      if (value(stored[i]) != LBool::False) {
        std::swap(stored[non_false], stored[i]);
        ++non_false;
      }
    }
  }
  watches_[(~stored[0]).code()].push_back(index);
  watches_[(~stored[1]).code()].push_back(index);
  if (!prefix_dirty_) settle_clause(index);
}

bool RupEngine::delete_clause(const SortedClause& lits) {
  if (!indexed_) {
    // Every clause is still live: index them in insertion order, exactly
    // as eager indexing would have.
    for (std::uint32_t i = 0; i < pending_hashes_.size(); ++i) {
      by_hash_.emplace(pending_hashes_[i], i);
    }
    pending_hashes_ = {};
    indexed_ = true;
  }
  const auto [lo, hi] = by_hash_.equal_range(clause_hash(lits));
  for (auto it = lo; it != hi; ++it) {
    Clause& c = clauses_[it->second];
    // The engine reorders literals while propagating; compare as sets.
    if (c.live && canonicalize(c.lits) == lits) {
      c.live = false;
      // Dead clauses are never read again (every access is guarded by
      // `live`), so the block can back a future addition.
      arena_.release(c.ref);
      by_hash_.erase(it);
      // Top-level implications may have depended on this clause.
      prefix_dirty_ = true;
      return true;
    }
  }
  return false;
}

bool RupEngine::rup_check(const SortedClause& lits,
                          std::uint64_t& propagations) {
  if (prefix_dirty_) rebuild_prefix(propagations);
  if (has_conflict_ || has_empty_) return true;
  bool conflict = false;
  for (const Lit lit : lits) {
    if (!enqueue(~lit)) {
      conflict = true;
      break;
    }
  }
  if (!conflict) conflict = propagate(propagations);
  // Roll back to the persistent prefix.
  while (trail_.size() > persistent_size_) {
    assign_[trail_.back().var()] = LBool::Undef;
    trail_.pop_back();
  }
  qhead_ = persistent_size_;
  return conflict;
}

/// Extends the persistent prefix with the effects of a new clause.
void RupEngine::settle_clause(std::uint32_t index) {
  const std::span<const Lit> lits = clauses_[index].lits;
  if (lits.empty()) return;
  // Unit under the prefix?
  Lit unassigned = Lit::invalid();
  std::size_t free_count = 0;
  for (const Lit lit : lits) {
    const LBool v = value(lit);
    if (v == LBool::True) return;  // satisfied: nothing to settle
    if (v == LBool::Undef) {
      unassigned = lit;
      ++free_count;
      if (free_count > 1) return;  // two free literals: watches handle it
    }
  }
  std::uint64_t sink = 0;
  if (free_count == 0) {
    has_conflict_ = true;
  } else if (!enqueue(unassigned) || propagate(sink)) {
    has_conflict_ = true;
  }
  persistent_size_ = trail_.size();
  qhead_ = persistent_size_;
}

/// Recomputes the persistent prefix from scratch (after deletions).
void RupEngine::rebuild_prefix(std::uint64_t& propagations) {
  for (const Lit lit : trail_) assign_[lit.var()] = LBool::Undef;
  trail_.clear();
  qhead_ = 0;
  has_conflict_ = false;
  bool conflict = false;
  for (const std::uint32_t ui : units_) {
    if (clauses_[ui].live && !enqueue(clauses_[ui].lits[0])) {
      conflict = true;
      break;
    }
  }
  if (!conflict) conflict = propagate(propagations);
  has_conflict_ = conflict;
  persistent_size_ = trail_.size();
  qhead_ = persistent_size_;
  prefix_dirty_ = false;
}

/// Standard watched-literal BCP; true when a conflict was found.
bool RupEngine::propagate(std::uint64_t& propagations) {
  while (qhead_ < trail_.size()) {
    const Lit p = trail_[qhead_++];
    ++propagations;
    auto& ws = watches_[p.code()];
    std::size_t i = 0, j = 0;
    while (i < ws.size()) {
      const std::uint32_t ci = ws[i];
      Clause& entry = clauses_[ci];
      if (!entry.live) {
        ++i;  // drop the stale watcher
        continue;
      }
      const std::span<Lit> c = entry.lits;
      const Lit false_lit = ~p;
      if (c[0] == false_lit) std::swap(c[0], c[1]);
      ++i;
      if (value(c[0]) == LBool::True) {
        ws[j++] = ci;
        continue;
      }
      bool moved = false;
      for (std::size_t k = 2; k < c.size(); ++k) {
        if (value(c[k]) != LBool::False) {
          std::swap(c[1], c[k]);
          watches_[(~c[1]).code()].push_back(ci);
          moved = true;
          break;
        }
      }
      if (moved) continue;
      ws[j++] = ci;
      if (!enqueue(c[0])) {
        while (i < ws.size()) ws[j++] = ws[i++];
        ws.resize(j);
        return true;
      }
    }
    ws.resize(j);
  }
  return false;
}

}  // namespace satproof::checker
