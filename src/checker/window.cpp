#include "src/checker/window.hpp"

#include <algorithm>
#include <limits>
#include <optional>

#include "src/checker/use_count.hpp"
#include "src/obs/trace.hpp"

namespace satproof::checker {

namespace {

class WindowChecker {
 public:
  WindowChecker(const Formula& f, trace::TraceReader& reader,
                const WindowOptions& options)
      : formula_(&f),
        reader_(&reader),
        options_(options),
        level0_(reader.num_vars()),
        store_(options.recycle_arena),
        observer_(options.observer) {}

  CheckResult run() {
    CheckResult result;
    try {
      check_header(*formula_, reader_->num_vars(), reader_->num_original());
      window_budget_ = options_.mem_limit_bytes == 0
                           ? std::numeric_limits<std::size_t>::max()
                           : std::max<std::size_t>(
                                 options_.mem_limit_bytes / 4, 1024);
      {
        obs::Span span("parse");
        result.next_free_id = scan_and_partition();
      }
      if (!final_id_.has_value()) {
        throw CheckFailure(
            "trace has no final conflicting clause; it does not claim "
            "unsatisfiability");
      }
      {
        obs::Span span("index");
        mark_reachable_and_count();
      }
      chain_.reserve_vars(reader_->num_vars());
      {
        obs::Span span("replay");
        replay_windows();
      }
      const ClauseFetcher fetch = [this](ClauseId id) {
        return fetch_clause(id);
      };
      SortedClause remaining;
      std::vector<ClauseId> used_antecedents;
      std::uint64_t final_resolutions = 0;
      {
        obs::Span span("final_derivation");
        const std::uint64_t before = stats_.resolutions;
        remaining = derive_final_clause(*final_id_, fetch, level0_, stats_,
                                        &used_antecedents);
        final_resolutions = stats_.resolutions - before;
        if (observer_ != nullptr) {
          observer_->on_final(*final_id_, used_antecedents, remaining);
        }
      }
      if (!remaining.empty()) {
        validate_assumption_clause(remaining, level0_);
        result.failed_assumption_clause = std::move(remaining);
      }
      {
        // The replay above covered the cones of *every* implied
        // antecedent (only known to be a superset of what the final
        // derivation would use). When the final derivation used them all,
        // the replay-tracked numbers are already the depth-first
        // checker's; otherwise recompute the exact depth-first cone with
        // one more backward windowed sweep over the structure.
        obs::Span span("core");
        std::sort(used_antecedents.begin(), used_antecedents.end());
        used_antecedents.erase(
            std::unique(used_antecedents.begin(), used_antecedents.end()),
            used_antecedents.end());
        if (used_antecedents != implied_ants_) {
          recompute_exact_cone(used_antecedents, final_resolutions);
        }
      }
      result.ok = true;
    } catch (const CheckFailure& e) {
      result.ok = false;
      result.error = e.what();
    } catch (const std::runtime_error& e) {
      result.ok = false;
      result.error = std::string("trace error: ") + e.what();
    }
    // The resident index only grows and the clause frontier lives entirely
    // in the arena, so the two peaks compose additively.
    const util::ClauseArena& arena = store_.arena();
    stats_.peak_mem_bytes = mem_.peak_bytes() + arena.peak_bytes();
    stats_.arena_allocated_bytes = arena.allocated_bytes();
    stats_.arena_recycled_bytes = arena.recycled_bytes();
    stats_.arena_peak_bytes = arena.peak_bytes();
    stats_.core_original_clauses = core_count_;
    result.stats = stats_;
    if (result.ok && options_.collect_core) {
      result.core.reserve(core_count_);
      for (ClauseId id = 0; id < core_seen_.size(); ++id) {
        if (core_seen_[id] != 0) result.core.push_back(id);
      }
    }
    return result;
  }

 private:
  /// One derivation window: a contiguous run of derivation records whose
  /// source lists fit the window budget together.
  struct Window {
    std::uint64_t pos = 0;           ///< reader position of the first record
    std::uint64_t record_index = 0;  ///< records preceding it (seek fallback)
    std::size_t first = 0;           ///< index into ids_ of its first deriv
    std::uint32_t count = 0;         ///< derivations it covers
  };

  [[nodiscard]] ClauseId num_original() const {
    return reader_->num_original();
  }

  [[nodiscard]] std::uint64_t ordinal(ClauseId id) const {
    return id - num_original();
  }

  /// Index of a learned clause in ids_, or ~0 when absent. IDs are usually
  /// consecutive (solvers assign them densely), which pass A detects so
  /// the replay's id->index mapping is a subtraction, not a binary search.
  [[nodiscard]] std::size_t index_of(ClauseId id) const {
    if (dense_ids_) {
      if (ids_.empty() || id < ids_.front() || id > ids_.back()) {
        return ~std::size_t{0};
      }
      return static_cast<std::size_t>(id - ids_.front());
    }
    const std::uint32_t needle = static_cast<std::uint32_t>(id);
    const auto it = std::lower_bound(ids_.begin(), ids_.end(), needle);
    if (it == ids_.end() || *it != needle) return ~std::size_t{0};
    return static_cast<std::size_t>(it - ids_.begin());
  }

  [[noreturn]] void fail_budget_record(ClauseId id, std::size_t need) const {
    throw CheckFailure(
        "mem limit " + std::to_string(options_.mem_limit_bytes) +
        " bytes is too small: derivation of clause " + std::to_string(id) +
        " alone needs " + std::to_string(need) +
        " bytes of window structure, but the window budget is " +
        std::to_string(window_budget_) + " bytes; increase --mem-limit");
  }

  /// Pass A: the structural scan, keeping only the derivation IDs
  /// resident and recording window boundaries so that each window's
  /// source lists fit the window budget. While the trace is still one
  /// window its source lists are kept in the window CSR, so a
  /// single-window trace (always, at budget 0) is read exactly once.
  /// Returns one past the last derivation ID.
  ClauseId scan_and_partition() {
    seekable_ = reader_->seekable();
    std::size_t cur_window_bytes = 0;
    const TraceShape shape = scan_trace(
        *reader_, level0_, stats_,
        [&](const trace::Record& rec, std::uint64_t index,
            std::uint64_t pos) {
          const std::size_t cost =
              derivation_record_bytes(rec.sources.size());
          if (cost > window_budget_) fail_budget_record(rec.id, cost);
          if (windows_.empty() ||
              cur_window_bytes + cost > window_budget_) {
            windows_.push_back({pos, index, ids_.size(), 0});
            cur_window_bytes = 0;
            clear_window();
          }
          cur_window_bytes += cost;
          ++windows_.back().count;
          if (windows_.size() == 1) {
            if (win_pool_.size() + rec.sources.size() >
                std::numeric_limits<std::uint32_t>::max()) {
              throw CheckFailure(
                  "trace too large: window source pool exceeds 2^32");
            }
            push_window_sources(rec.sources);
          }
          if (dense_ids_ && !ids_.empty() &&
              rec.id != static_cast<ClauseId>(ids_.back()) + 1) {
            dense_ids_ = false;
          }
          ids_.push_back(static_cast<std::uint32_t>(rec.id));
        });
    final_id_ = shape.final_id;
    end_pos_ = shape.end_pos;
    mem_.add(ids_.size() * sizeof(std::uint32_t) +
             windows_.size() * sizeof(Window));
    if (windows_.size() == 1) {
      account_window();
      loaded_ = 0;
    }
    return shape.next_free_id;
  }

  /// Pass B: backward sweep over the windows settling reachability and use
  /// counts. Sources always precede their consumers, so visiting windows
  /// last-to-first (and derivations in reverse within each) means every
  /// derivation's reachability is final before its own sources are walked
  /// — one fused sweep, no global source pool.
  void mark_reachable_and_count() {
    reachable_.assign(ids_.size(), false);
    mem_.add(ids_.size() / 8 + 16);

    const auto seed = [this](ClauseId id, const std::string& what) {
      if (id < num_original()) return;
      const std::size_t idx = index_of(id);
      if (idx == ~std::size_t{0}) {
        throw CheckFailure(what + " " + std::to_string(id) +
                           " is never derived in the trace");
      }
      reachable_[idx] = true;
    };
    seed(*final_id_, "final conflicting clause");
    for (Var v = 0; v < reader_->num_vars(); ++v) {
      if (level0_.implied(v)) {
        seed(level0_.antecedent(v), "level-0 antecedent");
        implied_ants_.push_back(level0_.antecedent(v));
      }
    }
    std::sort(implied_ants_.begin(), implied_ants_.end());
    implied_ants_.erase(
        std::unique(implied_ants_.begin(), implied_ants_.end()),
        implied_ants_.end());

    const std::uint64_t slots =
        ids_.empty() ? 0 : ordinal(ids_.back()) + 1;
    counts_.resize(slots);
    mem_.add(counts_.memory_bytes());
    mem_.add(level0_.size() * 16);
    core_seen_.assign(num_original(), 0);
    mem_.add(core_seen_.size());

    // The resident index is now complete; a budget it already exceeds
    // (plus one window) can never be honored — fail before doing the
    // expensive passes, with the shortfall spelled out. A window pass A
    // left loaded is that one window, not part of the index.
    const std::size_t index_bytes = mem_.current_bytes() - win_bytes_;
    if (options_.mem_limit_bytes != 0 &&
        index_bytes + window_budget_ > options_.mem_limit_bytes) {
      throw CheckFailure(
          "mem limit " + std::to_string(options_.mem_limit_bytes) +
          " bytes is too small for this trace: the resident index needs " +
          std::to_string(index_bytes) + " bytes plus a " +
          std::to_string(window_budget_) +
          "-byte shifting window; increase --mem-limit");
    }

    for (std::size_t w = windows_.size(); w-- > 0;) {
      load_window(w);
      const Window& win = windows_[w];
      for (std::uint32_t i = win.count; i-- > 0;) {
        if (!reachable_[win.first + i]) continue;
        for (const std::uint32_t s : window_sources(i)) {
          if (s < num_original()) continue;
          const std::size_t idx = index_of(s);
          if (idx == ~std::size_t{0}) {
            throw CheckFailure("clause " + std::to_string(s) +
                               " is referenced but never derived in the "
                               "trace");
          }
          reachable_[idx] = true;
          counts_.increment(ordinal(s));
        }
      }
      release_window(w);
    }

    // Pin what the final derivation needs.
    if (*final_id_ >= num_original()) counts_.increment(ordinal(*final_id_));
    for (Var v = 0; v < reader_->num_vars(); ++v) {
      if (level0_.implied(v) && level0_.antecedent(v) >= num_original()) {
        counts_.increment(ordinal(level0_.antecedent(v)));
      }
    }
  }

  /// Pass C: forward replay, window by window. Pass B leaves window 0
  /// loaded and each later window is read sequentially after it (a
  /// single window is never re-read), folding
  /// each reachable derivation against the frontier and releasing clauses
  /// (and shifted-past trace pages) as soon as their reachable uses are
  /// exhausted.
  void replay_windows() {
    for (std::size_t w = 0; w < windows_.size(); ++w) {
      load_window(w);
      const Window& win = windows_[w];
      for (std::uint32_t i = 0; i < win.count; ++i) {
        if (reachable_[win.first + i]) {
          replay_derivation(ids_[win.first + i], window_sources(i));
        }
      }
      release_window(w);
    }
  }

  void replay_derivation(ClauseId id, std::span<const std::uint32_t> sources) {
    fold_derivation(
        chain_, id, sources,
        [this](ClauseId s) { return fetch_clause(s); }, stats_);
    ++stats_.clauses_built;
    // Announced before the decrements below so a certificate's deletion
    // records always trail the addition whose hints they retire.
    if (observer_ != nullptr) observer_->on_derived(id, chain_.lits(), sources);
    // One batched decrement per chain; exhausted ordinals come back in
    // decrement order, so release order — and hence the free-list state
    // and recycled-bytes counter — matches the per-antecedent loop.
    ord_scratch_.clear();
    for (const std::uint32_t s : sources) {
      if (s >= num_original()) ord_scratch_.push_back(ordinal(s));
    }
    exhausted_scratch_.clear();
    counts_.decrement_batch(ord_scratch_, exhausted_scratch_);
    for (const std::uint64_t ord : exhausted_scratch_) {
      const ClauseId victim = static_cast<ClauseId>(ord) + num_original();
      if (store_.contains(victim)) {
        store_.release(victim);
        if (observer_ != nullptr) observer_->on_released(victim);
      }
    }
    if (counts_.get(ordinal(id)) > 0) store_.put(id, chain_.lits());
  }

  /// The final derivation may use fewer antecedents than were pinned, in
  /// which case the depth-first checker would have built a smaller cone.
  /// Recompute that exact cone — clauses_built, resolutions, core — with
  /// one more backward windowed sweep over the structure (no literals are
  /// touched; the verdict is already settled).
  void recompute_exact_cone(const std::vector<ClauseId>& used,
                            std::uint64_t final_resolutions) {
    reachable_.assign(ids_.size(), false);
    core_seen_.assign(core_seen_.size(), 0);
    core_count_ = 0;
    const auto seed = [this](ClauseId id) {
      if (id < num_original()) {
        mark_core(id);
        return;
      }
      reachable_[index_of(id)] = true;  // seeded ids were validated earlier
    };
    seed(*final_id_);
    for (const ClauseId a : used) seed(a);

    std::uint64_t built = 0;
    std::uint64_t resolutions = final_resolutions;
    for (std::size_t w = windows_.size(); w-- > 0;) {
      load_window(w);
      const Window& win = windows_[w];
      for (std::uint32_t i = win.count; i-- > 0;) {
        if (!reachable_[win.first + i]) continue;
        const auto sources = window_sources(i);
        ++built;
        resolutions += sources.size() - 1;
        for (const std::uint32_t s : sources) {
          if (s < num_original()) {
            mark_core(s);
          } else {
            reachable_[index_of(s)] = true;
          }
        }
      }
      release_window(w);
    }
    stats_.clauses_built = built;
    stats_.resolutions = resolutions;
  }

  /// Loads window `w`'s derivation source lists into the (reused) window
  /// CSR. A no-op when `w` is already loaded; reads on without seeking
  /// when the reader sits just past window w-1. Otherwise seeks, or for
  /// non-seekable readers rewinds and skips — a correctness fallback for
  /// tests; file-backed traces seek directly.
  void load_window(std::size_t w) {
    if (w == loaded_) return;
    const Window& win = windows_[w];
    if (w != next_in_stream_) {
      if (seekable_) {
        reader_->seek(win.pos);
      } else {
        reader_->rewind();
        trace::Record skip;
        for (std::uint64_t i = 0; i < win.record_index; ++i) {
          if (!reader_->next(skip)) break;
        }
      }
    }
    clear_window();
    std::uint32_t seen = 0;
    trace::Record rec;
    while (seen < win.count && reader_->next(rec)) {
      if (rec.kind != trace::RecordKind::Derivation) continue;
      push_window_sources(rec.sources);
      ++seen;
    }
    if (seen < win.count) {
      throw CheckFailure("trace shrank between checking passes");
    }
    account_window();
    loaded_ = w;
    next_in_stream_ = w + 1;
  }

  void clear_window() {
    win_offset_.clear();
    win_pool_.clear();
    win_offset_.push_back(0);
  }

  void push_window_sources(std::span<const ClauseId> sources) {
    for (const ClauseId s : sources) {
      win_pool_.push_back(static_cast<std::uint32_t>(s));
    }
    win_offset_.push_back(static_cast<std::uint32_t>(win_pool_.size()));
  }

  /// Charges the loaded window CSR to the memory tracker.
  void account_window() {
    mem_.remove(win_bytes_);
    win_bytes_ = (win_pool_.size() + win_offset_.size()) *
                 sizeof(std::uint32_t);
    mem_.add(win_bytes_);
  }

  /// Source list of the i-th derivation of the currently loaded window.
  [[nodiscard]] std::span<const std::uint32_t> window_sources(
      std::uint32_t i) const {
    return {win_pool_.data() + win_offset_[i],
            win_offset_[i + 1] - win_offset_[i]};
  }

  /// Drops window `w`'s trace pages from memory after a backward-sweep
  /// visit; the next pass faults them back in on demand.
  void release_window(std::size_t w) {
    if (!seekable_) return;
    const std::uint64_t end =
        w + 1 < windows_.size() ? windows_[w + 1].pos : end_pos_;
    reader_->release_hint(windows_[w].pos, end);
  }

  void mark_core(ClauseId original) {
    if (core_seen_[original] == 0) {
      core_seen_[original] = 1;
      ++core_count_;
    }
  }

  ClauseView fetch_clause(ClauseId id) {
    if (id < num_original()) mark_core(id);
    return fetch_live_clause(*formula_, store_, id, scratch_);
  }

  const Formula* formula_;
  trace::TraceReader* reader_;
  WindowOptions options_;
  Level0Table level0_;
  InMemoryUseCounts counts_;
  std::optional<ClauseId> final_id_;

  // Resident index (pass A): derivation IDs (32-bit, bounded at scan
  // time) and the window table — a few bytes per derivation, never the
  // source lists.
  std::vector<std::uint32_t> ids_;
  std::vector<Window> windows_;
  std::vector<bool> reachable_;
  bool dense_ids_ = true;
  bool seekable_ = false;
  std::uint64_t end_pos_ = 0;
  std::size_t window_budget_ = 0;

  // One window's source lists (reused CSR buffers). `loaded_` is the
  // window they hold; `next_in_stream_` the window whose first derivation
  // the reader reaches next without seeking (none after pass A's scan).
  static constexpr std::size_t kNone = ~std::size_t{0};
  std::vector<std::uint32_t> win_offset_;
  std::vector<std::uint32_t> win_pool_;
  std::size_t win_bytes_ = 0;
  std::size_t loaded_ = kNone;
  std::size_t next_in_stream_ = kNone;

  std::vector<ClauseId> implied_ants_;  ///< sorted unique pinned antecedents
  std::vector<std::uint8_t> core_seen_;  ///< per-original core membership
  std::uint64_t core_count_ = 0;

  ClauseStore store_;
  SortedClause scratch_;
  std::vector<std::uint64_t> ord_scratch_;        ///< per-chain ordinals
  std::vector<std::uint64_t> exhausted_scratch_;  ///< zeroed this chain
  ChainResolver chain_;
  util::MemTracker mem_;
  CheckStats stats_;
  CertObserver* observer_ = nullptr;
};

}  // namespace

CheckResult check_window(const Formula& f, trace::TraceReader& reader,
                         const WindowOptions& options) {
  WindowChecker checker(f, reader, options);
  return checker.run();
}

}  // namespace satproof::checker
