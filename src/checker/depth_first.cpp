#include "src/checker/depth_first.hpp"

#include <algorithm>
#include <limits>
#include <optional>

#include "src/obs/trace.hpp"

namespace satproof::checker {

namespace {

/// The derivation DAG of a trace, whole and resident: source lists packed
/// into one pool, indexed by a flat ordinal-indexed table (ordinal = id -
/// num_original). Records arrive already validated by scan_trace.
///
/// The pool stores source IDs narrowed to 32 bits (scan_trace bounds
/// every ID by 2^32). Halving the per-source footprint matters because the
/// loaded trace rivals the memoized clauses for the depth-first checker's
/// peak (Section 3.2 reads the entire trace into main memory).
class DerivationIndex {
 public:
  explicit DerivationIndex(ClauseId num_original)
      : num_original_(num_original) {}

  /// Stores one derivation record. Throws CheckFailure when the pool would
  /// outgrow its 32-bit offsets.
  void add(ClauseId id, std::span<const ClauseId> sources) {
    if (pool_.size() + sources.size() >
        std::numeric_limits<std::uint32_t>::max()) {
      throw CheckFailure(
          "trace too large: derivation source pool exceeds 2^32");
    }
    const ClauseId ord = id - num_original_;
    if (ord >= entries_.size()) entries_.resize(ord + 1);
    entries_[ord] = {static_cast<std::uint32_t>(pool_.size()),
                     static_cast<std::uint32_t>(sources.size())};
    for (const ClauseId s : sources) {
      pool_.push_back(static_cast<std::uint32_t>(s));
    }
  }

  /// Source list of `id` (32-bit IDs; they widen losslessly to ClauseId).
  /// Throws CheckFailure ("referenced but never derived") when absent.
  /// Inline: the replay loop calls this once per derivation (plan, fold,
  /// prefetch), so the lookup must reduce to two loads and a compare.
  [[nodiscard]] std::span<const std::uint32_t> sources_of(ClauseId id) const {
    const ClauseId ord = id - num_original_;
    if (id < num_original_ || ord >= entries_.size() ||
        entries_[ord].len == 0) {
      throw_never_derived(id);
    }
    const Entry& e = entries_[ord];
    return {pool_.data() + e.begin, e.len};
  }

 private:
  struct Entry {
    std::uint32_t begin = 0;  ///< offset into pool_
    std::uint32_t len = 0;    ///< 0 = not derived (real records have >= 2)
  };

  [[noreturn]] static void throw_never_derived(ClauseId id) {
    throw CheckFailure("clause " + std::to_string(id) +
                       " is referenced but never derived in the trace");
  }

  ClauseId num_original_;
  std::vector<std::uint32_t> pool_;
  std::vector<Entry> entries_;  ///< by ordinal
};

class DepthFirstChecker {
 public:
  DepthFirstChecker(const Formula& f, trace::TraceReader& reader,
                    util::ClauseArena* recycle_arena)
      : formula_(&f),
        reader_(&reader),
        level0_(reader.num_vars()),
        derivations_(reader.num_original()),
        store_(recycle_arena) {}

  CheckResult run(const DepthFirstOptions& options) {
    CheckResult result;
    try {
      check_header(*formula_, reader_->num_vars(), reader_->num_original());
      {
        // Parsing and derivation-index construction share the one
        // streaming scan, so one span covers both.
        obs::Span span("parse");
        const TraceShape shape = scan_trace(
            *reader_, level0_, stats_,
            [this](const trace::Record& rec, std::uint64_t, std::uint64_t) {
              derivations_.add(rec.id, rec.sources);
              mem_.add(derivation_record_bytes(rec.sources.size()));
            });
        mem_.add(shape.trail_records * 16);
        final_id_ = shape.final_id;
        result.next_free_id = shape.next_free_id;
      }
      if (!final_id_.has_value()) {
        throw CheckFailure(
            "trace has no final conflicting clause; it does not claim "
            "unsatisfiability");
      }
      observer_ = options.observer;
      chain_.reserve_vars(reader_->num_vars());
      {
        obs::Span span("index");
        store_.reserve(result.next_free_id);
        if (options.streaming_replay) {
          planned_.assign(store_.id_limit(), 0);
          plan_.reserve(stats_.total_derivations);
          plan_cone(*final_id_);
        }
      }
      {
        // Linear sweep over the planned cone: clauses are built in
        // first-use order, so arena writes stream and the sources of the
        // next derivations are prefetched while the current one folds.
        obs::Span replay_span("replay");
        execute_plan();
      }
      const ClauseFetcher fetch =
          options.streaming_replay
              ? ClauseFetcher([this](ClauseId id) { return fetch_streamed(id); })
              : ClauseFetcher([this](ClauseId id) { return build(id); });
      SortedClause remaining;
      {
        // With streaming_replay the trail-antecedent cones outside the
        // final-conflict cone are planned and streamed here, on first
        // fetch — the same schedule-then-sweep discipline as the replay
        // span, building exactly the clauses the lazy walk would.
        obs::Span final_span("final_derivation");
        std::vector<ClauseId> final_antecedents;
        remaining = derive_final_clause(
            *final_id_, fetch, level0_, stats_,
            observer_ != nullptr ? &final_antecedents : nullptr);
        if (observer_ != nullptr) {
          observer_->on_final(*final_id_, final_antecedents, remaining);
        }
      }
      planned_ = {};  // plan bookkeeping is dead weight past this point
      if (!remaining.empty()) {
        validate_assumption_clause(remaining, level0_);
        result.failed_assumption_clause = std::move(remaining);
      }
      result.ok = true;
    } catch (const CheckFailure& e) {
      result.ok = false;
      result.error = e.what();
    } catch (const std::runtime_error& e) {
      result.ok = false;
      result.error = std::string("trace error: ") + e.what();
    }
    const util::ClauseArena& arena = store_.arena();
    stats_.peak_mem_bytes = mem_.peak_bytes() + arena.peak_bytes();
    stats_.arena_allocated_bytes = arena.allocated_bytes();
    stats_.arena_recycled_bytes = arena.recycled_bytes();
    stats_.arena_peak_bytes = arena.peak_bytes();
    obs::Span core_span("core");
    // The ref table is ID-ordered, so one ascending scan of the original-ID
    // prefix yields the core already sorted.
    const ClauseId originals =
        std::min<ClauseId>(num_original(), store_.id_limit());
    for (ClauseId id = 0; id < originals; ++id) {
      if (store_.contains(id)) ++stats_.core_original_clauses;
    }
    result.stats = stats_;
    if (result.ok && options.collect_core) {
      result.core.reserve(stats_.core_original_clauses);
      for (ClauseId id = 0; id < originals; ++id) {
        if (store_.contains(id)) result.core.push_back(id);
      }
    }
    return result;
  }

 private:
  [[nodiscard]] ClauseId num_original() const {
    return reader_->num_original();
  }

  /// Returns the canonical clause for `id`, building it (and, recursively,
  /// its sources) on demand — recursive_build() of Fig. 3, with an explicit
  /// stack so pathological traces cannot overflow the call stack.
  ClauseView build(ClauseId id) {
    if (store_.contains(id)) return store_.view(id);
    if (id < num_original()) return build_original(id);

    struct Frame {
      ClauseId id;
      std::span<const std::uint32_t> sources;
      std::size_t scan = 0;
    };
    std::vector<Frame> stack;
    stack.push_back({id, derivations_.sources_of(id)});
    while (!stack.empty()) {
      Frame& f = stack.back();
      bool descended = false;
      while (f.scan < f.sources.size()) {
        const ClauseId s = f.sources[f.scan];
        if (store_.contains(s)) {
          ++f.scan;
          continue;
        }
        if (s < num_original()) {
          build_original(s);
          ++f.scan;
          continue;
        }
        // Sources strictly precede the derived ID (validated at load), so
        // this descent terminates.
        stack.push_back({s, derivations_.sources_of(s)});
        descended = true;
        break;
      }
      if (descended) continue;
      fold_sources(f.id, f.sources);
      stack.pop_back();
    }
    return store_.view(id);
  }

  /// Plans the exact traversal build(root) would perform — same explicit
  /// stack, same skip rules, with a planned bitmap standing in for the
  /// (still empty) store — and records it as a flat build schedule.
  /// Structural errors (unknown sources) surface here with the same
  /// diagnostics the lazy walk raises; content errors (tautological
  /// originals, failed resolutions) surface when the schedule runs.
  /// Cones planned earlier are skipped, so repeated calls (one per
  /// trail-antecedent fetch during the final derivation) schedule each
  /// clause exactly once across the whole run.
  void plan_cone(ClauseId root) {
    if (root < planned_.size() && planned_[root] != 0) return;
    if (root < num_original()) {
      plan_.push_back(root);
      planned_[root] = 1;
      return;
    }
    struct PlanFrame {
      ClauseId id;
      std::span<const std::uint32_t> sources;
      std::size_t scan = 0;
    };
    std::vector<PlanFrame> stack;
    stack.push_back({root, derivations_.sources_of(root)});
    while (!stack.empty()) {
      PlanFrame& f = stack.back();
      bool descended = false;
      while (f.scan < f.sources.size()) {
        const ClauseId s = f.sources[f.scan];
        if (planned_[s] != 0) {
          ++f.scan;
          continue;
        }
        if (s < num_original()) {
          plan_.push_back(s);
          planned_[s] = 1;
          ++f.scan;
          continue;
        }
        stack.push_back({s, derivations_.sources_of(s)});
        descended = true;
        break;
      }
      if (descended) continue;
      plan_.push_back(f.id);
      planned_[f.id] = 1;
      stack.pop_back();
    }
  }

  /// Runs the build schedule as one linear sweep. Every entry's sources
  /// precede it in the plan (DFS postorder), so each step is a plain fold
  /// over already-stored clauses; the next entries' first sources are
  /// prefetched while this one resolves.
  void execute_plan() {
    const std::size_t n = plan_.size();
    for (std::size_t k = 0; k < n; ++k) {
      if (k + 2 < n) prefetch_sources(plan_[k + 2]);
      const ClauseId id = plan_[k];
      if (id < num_original()) {
        build_original(id);
        continue;
      }
      fold_sources(id, derivations_.sources_of(id));
    }
    plan_.clear();  // consumed; later plan_cone calls start fresh
  }

  /// Streaming-mode fetcher for derive_final_clause: a planned clause is
  /// already stored; anything else (a trail-antecedent cone disjoint from
  /// the final-conflict cone) is planned and streamed on the spot. Builds
  /// the same clause set, in the same order, with the same diagnostics as
  /// the lazy build() fallback.
  ClauseView fetch_streamed(ClauseId id) {
    if (id < planned_.size() && planned_[id] != 0) return store_.view(id);
    plan_cone(id);
    execute_plan();
    return store_.view(id);
  }

  /// Warms the cache lines of `id`'s leading source blocks ahead of its
  /// fold. A source still being built right now is simply skipped.
  /// (A wider window was tried and measured slower: issuing a prefetch
  /// per source costs a ref decode each, and on the short-chain instances
  /// the data is usually still warm from the postorder sweep.)
  void prefetch_sources(ClauseId id) {
    if (id < num_original()) return;
    const std::span<const std::uint32_t> srcs = derivations_.sources_of(id);
    store_.prefetch(srcs[0]);
    if (srcs.size() > 1) store_.prefetch(srcs[1]);
  }

  ClauseView build_original(ClauseId id) {
    store_.put(id, canonical_original(*formula_, id, scratch_));
    return store_.view(id);
  }

  /// Replays one derivation over sources that are all stored by now.
  void fold_sources(ClauseId id, std::span<const std::uint32_t> sources) {
    fold_derivation(
        chain_, id, sources,
        [this](ClauseId s) { return store_.view(s); }, stats_);
    // Copy the resolver's buffer straight into the arena, unsorted:
    // nothing downstream needs stored clauses ordered (resolution is
    // set-based and the failed-assumption clause is sorted where it is
    // produced), and skipping the per-derivation sort is a measurable
    // slice of replay time.
    store_.put(id, chain_.lits());
    ++stats_.clauses_built;
    if (observer_ != nullptr) observer_->on_derived(id, chain_.lits(), sources);
  }

  const Formula* formula_;
  trace::TraceReader* reader_;
  Level0Table level0_;
  std::optional<ClauseId> final_id_;
  DerivationIndex derivations_;
  ClauseStore store_;
  ChainResolver chain_;
  CertObserver* observer_ = nullptr;
  util::MemTracker mem_;
  CheckStats stats_;
  std::vector<ClauseId> plan_;          ///< build schedule, first-use order
  std::vector<std::uint8_t> planned_;   ///< per-ID scheduled bits (streaming)
  SortedClause scratch_;                ///< build_original's canonical buffer
};

}  // namespace

CheckResult check_depth_first(const Formula& f, trace::TraceReader& reader,
                              const DepthFirstOptions& options) {
  DepthFirstChecker checker(f, reader, options.recycle_arena);
  return checker.run(options);
}

}  // namespace satproof::checker
