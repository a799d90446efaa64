#pragma once

#include "src/checker/common.hpp"

namespace satproof::checker {

/// Options for the window-shifting checker.
struct WindowOptions {
  /// Memory budget in bytes for the checker's trace-derived structures:
  /// the resident index (derivation IDs, use counts, reachability bits,
  /// the level-0 table) plus one shifting window of derivation source
  /// lists. The budget decides how the trace is partitioned into windows;
  /// a budget the resident index alone exceeds fails gracefully with a
  /// diagnostic naming the shortfall. The live-clause frontier is the
  /// proof's own working set (the same bound the breadth-first checker
  /// carries) and is not charged against the budget. 0 = unlimited: one
  /// window holding the whole DAG structure, read from the trace once —
  /// the memory contract of the paper's hybrid checker (the "hybrid"
  /// backend name selects this).
  std::size_t mem_limit_bytes = 256u << 20;

  /// When non-null, clause storage borrows this arena instead of growing a
  /// private one (see DepthFirstOptions::recycle_arena).
  util::ClauseArena* recycle_arena = nullptr;

  /// When true and the check succeeds, CheckResult::core is filled with
  /// the sorted original-clause IDs of the unsatisfiable core —
  /// byte-identical to the depth-first checker's core for the same trace.
  bool collect_core = false;

  /// When non-null, receives replay-order derivation events, including
  /// on_released() when a clause's reachable use count exhausts (the
  /// emitter turns those into LRAT deletion records). See
  /// DepthFirstOptions::observer.
  CertObserver* observer = nullptr;
};

/// Window-shifting proof checking (Chen, "Fast Verifying Proofs of
/// Propositional Unsatisfiability via Window Shifting"): most of the
/// depth-first checker's speed at a fixed memory budget, for traces far
/// larger than RAM. It is also the checker the paper's conclusion asks
/// for — "the advantage of both the depth-first and breadth-first
/// approaches": like depth-first it builds only the clauses reachable from
/// the final conflict; like breadth-first it releases each clause the
/// moment its (reachable) use count exhausts instead of memoizing it.
///
/// Only a few bytes per derivation stay resident (its ID, its use count,
/// one reachability bit); the source lists are partitioned into *windows*
/// sized to the budget:
///
///   A. stream the trace once, validating structure and recording window
///      boundaries so each window's source lists fit the budget (the last
///      window's lists stay loaded);
///   B. sweep the windows backward — seek to each window, reload just its
///      source lists, and settle reachability + use counts (sources always
///      precede consumers, so one reverse sweep suffices) — releasing each
///      window's trace pages as the sweep shifts past them;
///   C. replay the windows forward, building reachable derivations against
///      the frontier of clauses still referenced by later windows (clauses
///      leave the arena the moment their reachable uses are behind),
///      releasing trace pages as the window shifts.
///
/// With budget 0 there is one window: passes B and C run on the lists
/// pass A kept, and the trace is read exactly once.
///
/// Verdicts, cores, and stats match the depth-first checker: when the
/// final derivation used antecedents differ from the pinned set, a last
/// backward structural sweep (same windowed discipline) recomputes the
/// exact depth-first cone for clauses_built / resolutions / core.
///
/// Peak memory: resident index + one window + the clause frontier —
/// independent of trace length for a fixed budget and frontier.
[[nodiscard]] CheckResult check_window(const Formula& f,
                                       trace::TraceReader& reader,
                                       const WindowOptions& options = {});

}  // namespace satproof::checker
