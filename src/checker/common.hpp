#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/checker/resolution.hpp"
#include "src/cnf/formula.hpp"
#include "src/trace/events.hpp"
#include "src/util/arena.hpp"
#include "src/util/mem_tracker.hpp"

namespace satproof::checker {

/// Counters shared by both checker implementations; the raw material of the
/// paper's Table 2.
struct CheckStats {
  /// Derivation records in the trace (learned clauses the solver reported).
  std::uint64_t total_derivations = 0;
  /// Learned clauses whose literals were actually constructed. For the
  /// depth-first checker this is the "Num. Cls Built" column (19-90% of the
  /// total in the paper); the breadth-first checker always builds all.
  std::uint64_t clauses_built = 0;
  /// Individual resolution steps performed (including the final
  /// empty-clause derivation).
  std::uint64_t resolutions = 0;
  /// Peak accounted memory: clauses held plus, for the depth-first checker,
  /// the in-memory trace (Section 3.2: "the checker needs to read in the
  /// entire trace file into main memory").
  std::size_t peak_mem_bytes = 0;
  /// Distinct original clauses used by the proof (depth-first only); the
  /// size of the unsatisfiable core of Table 3.
  std::uint64_t core_original_clauses = 0;
  /// Clause-arena traffic: cumulative bytes handed out, cumulative bytes
  /// served from free lists instead of fresh space, and the high-water
  /// mark of live clause bytes. Deterministic for a given trace.
  std::size_t arena_allocated_bytes = 0;
  std::size_t arena_recycled_bytes = 0;
  std::size_t arena_peak_bytes = 0;
};

/// Outcome of a checking run.
struct CheckResult {
  /// True when the trace constitutes a valid resolution proof of
  /// unsatisfiability of the formula.
  bool ok = false;
  /// Diagnostic for the first failed check ("as much information as
  /// possible about the failure to help debug the solver", Section 3.2).
  std::string error;
  CheckStats stats;
  /// Depth-first with collect_core: sorted IDs of the original clauses that
  /// appear as leaves of the resolution proof — an unsatisfiable core.
  std::vector<ClauseId> core;
  /// For traces of UNSAT-under-assumptions runs: the validated derived
  /// clause, whose literals are all negations of assumed literals (the
  /// formula implies it, refuting that assumption subset). Empty for
  /// unconditional unsatisfiability proofs.
  std::vector<Lit> failed_assumption_clause;
  /// One past the highest clause ID the trace numbers (its originals and
  /// every derivation record, reachable or not): the first ID free for a
  /// clause the trace itself does not contain, such as the proof DAG's
  /// empty-clause root.
  ClauseId next_free_id = 0;

  /// Convenience: true iff the check succeeded.
  explicit operator bool() const { return ok; }
};

/// Failure raised internally by checker components; converted into a
/// CheckResult with ok == false at the API boundary.
class CheckFailure : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A read-only view of a canonical clause (sorted, duplicate-free
/// literals). Checker clauses live in a ClauseArena; views are how they
/// travel between components without copies.
using ClauseView = std::span<const Lit>;

/// ID-addressed clause storage shared by the replay backends: a
/// ClauseArena for the literal blocks plus a flat, ID-indexed ref table
/// (replacing the per-backend std::unordered_map<ClauseId, SortedClause>).
/// IDs are solver-assigned and dense (originals first, then one fresh ID
/// per learned clause), so a flat table is both smaller and faster than a
/// hash map: contains/view are two array loads, no hashing, no node
/// chasing.
class ClauseStore {
 public:
  /// Owns a private arena (the default, used by one-shot CLI checks).
  ClauseStore() : arena_(&owned_) {}

  /// Borrows `external` for clause storage instead of owning one
  /// (nullptr = own a private arena). The satproofd worker pool passes a
  /// per-worker arena here (reset() between jobs) so repeated checks reuse
  /// already-mapped chunks and concurrent workers never share an
  /// allocator. `external` must outlive the store.
  explicit ClauseStore(util::ClauseArena* external)
      : arena_(external != nullptr ? external : &owned_) {}

  ClauseStore(const ClauseStore&) = delete;
  ClauseStore& operator=(const ClauseStore&) = delete;

  /// Pre-sizes the ref table for IDs in [0, num_ids). put() grows it on
  /// demand, so this is an optimization, not a requirement.
  void reserve(std::size_t num_ids) {
    if (num_ids > refs_.size()) {
      refs_.resize(num_ids, util::ClauseArena::kNullRef);
    }
  }

  [[nodiscard]] bool contains(ClauseId id) const {
    return id < refs_.size() && refs_[id] != util::ClauseArena::kNullRef;
  }

  /// View of the stored clause; `id` must be contains().
  [[nodiscard]] ClauseView view(ClauseId id) const {
    return arena_->view(refs_[id]);
  }

  /// Copies `lits` into the arena under `id` (which must not be stored).
  void put(ClauseId id, ClauseView lits) {
    if (id >= refs_.size()) {
      refs_.resize(id + 1, util::ClauseArena::kNullRef);
    }
    refs_[id] = arena_->put(lits);
  }

  /// Releases `id`'s block for reuse; `id` must be contains().
  void release(ClauseId id) {
    arena_->release(refs_[id]);
    refs_[id] = util::ClauseArena::kNullRef;
  }

  /// Hints the cache to load `id`'s clause block; a no-op when `id` is not
  /// stored (replay prefetches a couple of derivations ahead, where a
  /// source may still be under construction).
  void prefetch(ClauseId id) const {
    if (contains(id)) arena_->prefetch(refs_[id]);
  }

  [[nodiscard]] util::ClauseArena& arena() { return *arena_; }
  [[nodiscard]] const util::ClauseArena& arena() const { return *arena_; }

  /// One past the highest ID the ref table covers.
  [[nodiscard]] std::size_t id_limit() const { return refs_.size(); }

 private:
  util::ClauseArena owned_;     ///< backing store for the default ctor
  util::ClauseArena* arena_;    ///< &owned_, or the borrowed external arena
  std::vector<util::ClauseArena::Ref> refs_;
};

/// Accounted footprint of one loaded derivation record: the source IDs in
/// the pool (stored narrowed to 32 bits — see DerivationIndex) plus the
/// per-record index entry. Shared by the depth-first and window checkers
/// (the latter sizes its windows by it).
[[nodiscard]] inline std::size_t derivation_record_bytes(
    std::size_t num_sources) {
  return num_sources * sizeof(std::uint32_t) + 8;
}

/// The final-trail assignment table reconstructed from the trace's Level0
/// and Assumption records (Section 3.1, item 3; assumptions are the
/// incremental-query extension). Implied variables carry an antecedent
/// clause ID; assumption decisions do not.
class Level0Table {
 public:
  /// Prepares a table for `num_vars` variables.
  explicit Level0Table(Var num_vars);

  /// Registers one Level0 (implied assignment) record. Throws CheckFailure
  /// on a repeated or out-of-range variable.
  void add(Var var, bool value, ClauseId antecedent);

  /// Registers one Assumption record: `var` was assumed to take `value`.
  /// If the variable has no trail entry yet, this also becomes its trail
  /// entry (an assumption decision); if it does (the failed assumption is
  /// implied to the *opposite* value before its enqueue), only the
  /// assumed-polarity bookkeeping is added. Throws CheckFailure on a
  /// repeated assumption or out-of-range variable.
  void add_assumption(Var var, bool value);

  [[nodiscard]] bool assigned(Var v) const { return v < entries_.size() && entries_[v].assigned; }
  [[nodiscard]] bool value(Var v) const { return entries_[v].value; }
  [[nodiscard]] ClauseId antecedent(Var v) const { return entries_[v].antecedent; }
  /// True when `v` is assigned with an antecedent (resolvable).
  [[nodiscard]] bool implied(Var v) const {
    return assigned(v) && entries_[v].antecedent != kInvalidClauseId;
  }
  /// Chronological rank of the assignment (0 = first on the trail).
  [[nodiscard]] std::uint32_t order(Var v) const { return entries_[v].order; }
  [[nodiscard]] std::size_t size() const { return count_; }
  /// The variable universe the table was sized for.
  [[nodiscard]] Var num_vars() const { return static_cast<Var>(entries_.size()); }

  /// Assumption bookkeeping.
  [[nodiscard]] bool has_assumptions() const { return num_assumed_ > 0; }
  [[nodiscard]] bool is_assumed(Var v) const {
    return v < entries_.size() && entries_[v].assumed;
  }
  [[nodiscard]] bool assumed_value(Var v) const {
    return entries_[v].assumed_value;
  }

  /// Value of `lit` under the table: False, True, or Undef if unassigned.
  [[nodiscard]] LBool lit_value(Lit lit) const;

 private:
  struct Entry {
    bool assigned = false;
    bool value = false;
    bool assumed = false;
    bool assumed_value = false;
    ClauseId antecedent = kInvalidClauseId;
    std::uint32_t order = 0;
  };
  std::vector<Entry> entries_;
  std::size_t count_ = 0;
  std::size_t num_assumed_ = 0;
};

/// What a structural scan of the whole trace learned (see scan_trace).
struct TraceShape {
  /// The final conflicting clause; nullopt when the trace claims no
  /// unsatisfiability.
  std::optional<ClauseId> final_id;
  /// One past the last (= highest) derivation ID; num_original when the
  /// trace derives nothing.
  ClauseId next_free_id = 0;
  /// Level0 plus Assumption records.
  std::uint64_t trail_records = 0;
  /// Position just past the end record, in the units of DerivationSink's
  /// `pos`.
  std::uint64_t end_pos = 0;
};

/// Called once per derivation record, after it passed the structural
/// checks, with the record, its ordinal `index` among all the trace's
/// records, and its position `pos`: the reader's tell() before the record
/// when the reader is seekable, else `index`.
using DerivationSink = std::function<void(
    const trace::Record& rec, std::uint64_t index, std::uint64_t pos)>;

/// The one structural pass over a trace, shared by every replay backend
/// (TRACE_FORMAT.md's validity rules). Rewinds `reader` and reads it to
/// the end record. Each derivation must carry a fresh ID (not an
/// original's), strictly greater than the previous derivation's, at least
/// two sources, every source preceding it, and an ID within 2^32; valid
/// ones are counted in `stats.total_derivations` and handed to `sink`
/// (which may be empty). Level0 and Assumption records fill `level0`.
/// Throws CheckFailure on a violation, a second final conflict record, or
/// a missing end record.
TraceShape scan_trace(trace::TraceReader& reader, Level0Table& level0,
                      CheckStats& stats, const DerivationSink& sink);

/// Canonicalizes original clause `id` of `f` into `scratch` (sorted,
/// duplicate-free; the buffer's capacity is reused across the many
/// original fetches of a replay) and returns a view of it, valid until
/// `scratch` changes. Throws CheckFailure on a tautological original,
/// which cannot be a resolution source.
inline ClauseView canonical_original(const Formula& f, ClauseId id,
                                     SortedClause& scratch) {
  const ClauseView raw = f.clause(id);
  scratch.assign(raw.begin(), raw.end());
  std::sort(scratch.begin(), scratch.end());
  scratch.erase(std::unique(scratch.begin(), scratch.end()), scratch.end());
  if (is_tautology(scratch)) {
    throw CheckFailure("original clause " + std::to_string(id) +
                       " is tautological and cannot be a resolution source");
  }
  return scratch;
}

/// Clause fetch of the streaming backends, which keep only live derived
/// clauses: an original comes from canonical_original(); a derived clause
/// must still be in `store`. The view is valid until the next fetch.
inline ClauseView fetch_live_clause(const Formula& f, const ClauseStore& store,
                                    ClauseId id, SortedClause& scratch) {
  if (id < f.num_clauses()) return canonical_original(f, id, scratch);
  if (!store.contains(id)) {
    throw CheckFailure(
        "clause " + std::to_string(id) +
        " is not available: it was never derived, or its use count was "
        "exhausted earlier than the trace implies");
  }
  return store.view(id);
}

/// Throws fold_derivation's diagnostic; out of line so the fold stays
/// small enough to inline into the replay loops.
[[noreturn]] void throw_failed_step(ClauseId id, ClauseId source,
                                    std::size_t step, ResolveStatus status);

/// Replays derivation `id`: left-folds resolution over `sources` (trace
/// order) into `chain`, counting each step in `stats.resolutions`.
/// `fetch` maps a source ID to its clause view; it is a template parameter
/// so the replay hot loop inlines it. Throws CheckFailure naming the
/// source and step of the first resolution without exactly one clashing
/// variable.
template <typename Sources, typename Fetch>
inline void fold_derivation(ChainResolver& chain, ClauseId id,
                            const Sources& sources, Fetch&& fetch,
                            CheckStats& stats) {
  chain.start(fetch(sources[0]));
  for (std::size_t i = 1; i < sources.size(); ++i) {
    const ResolveResult r = chain.step(fetch(sources[i]));
    ++stats.resolutions;
    if (r.status != ResolveStatus::Ok) {
      throw_failed_step(id, sources[i], i, r.status);
    }
  }
}

/// Validates that `clause` really is the antecedent of `var` under the
/// level-0 assignment: it contains the literal that makes `var` true, and
/// every other literal is false and was assigned strictly earlier. This is
/// the paper's "whether the clause is really the antecedent of the
/// variable" check. Throws CheckFailure with a diagnostic otherwise.
/// `what` names the clause in diagnostics (e.g. "clause 42").
void check_antecedent(ClauseView clause, Var var, const Level0Table& table,
                      const std::string& what);

/// Callback that produces the canonical clause for an ID, or throws
/// CheckFailure. The depth-first checker builds on demand; the breadth-first
/// checker looks up its live window. The returned view stays valid until
/// the next fetch.
using ClauseFetcher = std::function<ClauseView(ClauseId)>;

/// Observer of replay-order derivation events, the hook the certificate
/// emitter (src/cert) attaches to. Declared here so the checkers need no
/// dependency on the cert subsystem: backends that support emission hold a
/// nullable pointer (null = no observer, the default) and call out only on
/// the slow side of each derivation — after a whole chain has been folded —
/// so the resolution hot loop is untouched.
///
/// Contract the checkers guarantee to observers:
///  - on_derived() fires once per clause actually built, in replay order;
///    every source of a derivation has been announced (as an original ID or
///    an earlier on_derived) before the derivation that consumes it.
///  - on_released() fires when a derived clause provably has no remaining
///    uses (window use-count exhaustion); it never precedes a later fetch,
///    nor the on_derived() of the chain whose decrements triggered it.
///  - on_final() fires once, after the final derivation succeeds, with
///    the antecedents in the order they were resolved against the final
///    conflicting clause and the resulting clause: empty for an
///    unsatisfiability proof, else the assumption clause (which the
///    checker validates after the call).
class CertObserver {
 public:
  virtual ~CertObserver() = default;

  /// Derived clause `id` was built by left-folding resolution over
  /// `sources` (in trace order); `lits` is the resulting clause,
  /// duplicate-free, in ChainResolver order.
  virtual void on_derived(ClauseId id, std::span<const Lit> lits,
                          std::span<const std::uint32_t> sources) = 0;

  /// Derived clause `id` has no remaining uses in the replay.
  virtual void on_released(ClauseId id) = 0;

  /// The final derivation succeeded: the final conflicting clause
  /// `final_id` was resolved against `antecedents` in order, leaving
  /// `clause` (sorted; empty unless the trace has assumptions).
  virtual void on_final(ClauseId final_id,
                        std::span<const ClauseId> antecedents,
                        std::span<const Lit> clause) = 0;
};

/// Derives the trace's final clause, exactly as in the proof of
/// Proposition 3: starting from the final conflicting clause, repeatedly
/// resolve on the *most recently assigned* remaining implied variable
/// using its antecedent, until only unresolvable literals remain. Choosing
/// literals in reverse chronological order guarantees no variable is
/// chosen twice, so the loop performs at most |trail| resolutions.
///
/// Without assumptions the result must be the empty clause (checked here:
/// every final-clause literal must be false and implied). With assumptions
/// the remaining literals are returned for validation against the assumed
/// set (validate_assumption_clause). Throws CheckFailure on any invalid
/// step; increments `stats.resolutions`. When `used_antecedents` is
/// non-null it receives the antecedent IDs in resolution order (the hint
/// material for CertObserver::on_final).
[[nodiscard]] SortedClause derive_final_clause(
    ClauseId final_id, const ClauseFetcher& fetch, const Level0Table& table,
    CheckStats& stats, std::vector<ClauseId>* used_antecedents = nullptr);

/// Validates the outcome of derive_final_clause: empty is always fine
/// (unconditional unsatisfiability); otherwise every literal must be the
/// negation of a recorded assumption, making the clause a proof that the
/// formula refutes that assumption subset. Throws CheckFailure otherwise.
void validate_assumption_clause(const SortedClause& clause,
                                const Level0Table& table);

/// Validates the trace header against the formula (the ID contract of
/// Section 3.1). Throws CheckFailure on mismatch.
void check_header(const Formula& f, Var trace_vars, ClauseId trace_original);

}  // namespace satproof::checker
