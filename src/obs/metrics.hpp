#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>

namespace satproof::obs {

/// Monotonically increasing counter. Counters are created once via
/// `MetricsRegistry::counter` and bumped lock-free afterwards.
class Counter {
 public:
  Counter(std::string name, std::string help)
      : name_(std::move(name)), help_(std::move(help)) {}

  void inc(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::string& help() const { return help_; }

 private:
  const std::string name_;
  const std::string help_;
  std::atomic<std::uint64_t> value_{0};
};

/// Process-global registry of checker counters, rendered by satproofd's
/// Prometheus endpoint after its own `satproofd_*` series.
///
/// Counter names follow Prometheus conventions: `snake_case`, a
/// `satproof_` prefix, `_total` suffix for counters, unit suffixes
/// (`_bytes`) where applicable.
class MetricsRegistry {
 public:
  static MetricsRegistry& instance();

  /// Finds or creates the named counter. The returned reference is stable
  /// for the process lifetime — cache it, don't re-look-up on hot paths.
  Counter& counter(const std::string& name, const std::string& help);

  /// Prometheus text exposition (HELP/TYPE comments + samples).
  [[nodiscard]] std::string render_prometheus() const;

 private:
  mutable std::mutex mu_;
  std::deque<Counter> counters_;  // deque: stable addresses on growth
};

/// Prometheus text exposition, shared by the registry and satproofd's
/// metrics. Appends the `# HELP` and `# TYPE` lines of one metric family.
void append_header(std::string& out, std::string_view name,
                   std::string_view help, std::string_view type);

/// Appends one sample line, `name value`, or `name{label="value"} value`
/// when `label` is non-empty. Whole non-negative values print as integers,
/// anything else with `%.17g`.
void append_sample(std::string& out, std::string_view name, double value,
                   std::string_view label = {},
                   std::string_view label_value = {});

/// Well-known counters bumped by the checking paths. Grouped here so the
/// names stay consistent between backends, docs, and tests.
struct CheckerCounters {
  Counter& derivations;
  Counter& clauses_built;
  Counter& resolutions;
  Counter& arena_allocated_bytes;
  Counter& drup_propagations;
  Counter& checks_total;

  static CheckerCounters& get();
};

}  // namespace satproof::obs
