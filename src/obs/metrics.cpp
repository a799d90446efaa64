#include "src/obs/metrics.hpp"

#include <cstdio>

namespace satproof::obs {

/// Prometheus sample values are floats; counters here are u64, which stays
/// exact up to 2^53 — plenty for span/resolution counts.
void append_sample(std::string& out, std::string_view name, double value,
                   std::string_view label, std::string_view label_value) {
  out += name;
  if (!label.empty()) {
    out += '{';
    out += label;
    out += "=\"";
    out += label_value;
    out += "\"}";
  }
  out += ' ';
  // Range check first: casting a negative or >= 2^64 double to u64 is UB.
  if (value >= 0 && value < 0x1p64 &&
      value == static_cast<double>(static_cast<std::uint64_t>(value))) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(value));
    out += buf;
  } else {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out += buf;
  }
  out += '\n';
}

void append_header(std::string& out, std::string_view name,
                   std::string_view help, std::string_view type) {
  out += "# HELP ";
  out += name;
  out += ' ';
  out += help;
  out += "\n# TYPE ";
  out += name;
  out += ' ';
  out += type;
  out += '\n';
}

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry registry;
  return registry;
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  for (Counter& c : counters_) {
    if (c.name() == name) return c;
  }
  counters_.emplace_back(name, help);
  return counters_.back();
}

std::string MetricsRegistry::render_prometheus() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const Counter& c : counters_) {
    append_header(out, c.name(), c.help(), "counter");
    append_sample(out, c.name(), static_cast<double>(c.value()));
  }
  return out;
}

CheckerCounters& CheckerCounters::get() {
  static CheckerCounters counters{
      MetricsRegistry::instance().counter(
          "satproof_derivations_total",
          "Trace derivation records processed by checker runs."),
      MetricsRegistry::instance().counter(
          "satproof_clauses_built_total",
          "Clauses materialized while replaying resolution proofs."),
      MetricsRegistry::instance().counter(
          "satproof_resolutions_total",
          "Pairwise resolution operations performed by checker runs."),
      MetricsRegistry::instance().counter(
          "satproof_arena_allocated_bytes_total",
          "Bytes handed out by clause arenas across checker runs."),
      MetricsRegistry::instance().counter(
          "satproof_drup_propagations_total",
          "Unit propagations performed by DRUP (RUP) checks."),
      MetricsRegistry::instance().counter(
          "satproof_checks_total", "Proof-check runs completed."),
  };
  return counters;
}

}  // namespace satproof::obs
