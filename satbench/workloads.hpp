#pragma once

#include <cstddef>
#include <vector>

#include "satbench/common.hpp"
#include "satbench/inputs.hpp"

namespace satbench {

/// One kind of op a workload issues: which input, through which checker.
struct Op {
  const Input* in = nullptr;
  bool drup = false;          ///< DRUP check of the input's DRUP proof
  std::size_t mem_limit = 0;  ///< `check --mem-limit`; 0 = default DF
  bool certify = false;       ///< certify job (DF + LRAT + kernel)
};

/// Everything the traced run reports besides error_rate. Layer times are
/// means over the workload's op kinds, each kind counted once; a layer the
/// workload's ops never reach reports 0.
struct LayerReport {
  // Filled by probe_layers (in-process calls into each layer).
  double parse_ms = 0;
  double run_check_ms = 0;
  double decode_ms = 0;
  double records_per_s = 0;
  double df_ms = 0;
  double reject_ms = 0;
  double replay_ms = 0;
  double resolutions_per_s = 0;
  double built_frac = 0;
  double df_peak_mb = 0;
  double arena_recycled_frac = 0;
  double window_ms = 0;
  double window_peak_mb = 0;
  double mix_df = 0;
  double mix_hybrid = 0;
  double mix_window = 0;
  double drup_ms = 0;
  double drup_props_per_s = 0;
  double emit_ms = 0;
  double emit_ratio = 0;
  double kernel_ms = 0;
  // Filled by the workload from its traced ops.
  double roundtrip_ms = 0;    ///< service workloads: send to RESULT
  double cli_latency_ms = 0;  ///< CLI workloads: spawn to exit
  double queue_depth_max = 0;
  double steals = 0;
  double stats_ms = 0;
  double cert_bytes = 0;
  double solve_s = 0;
  double trace_mb = 0;
  double overhead_frac = 0;
};

/// Calls each layer's public functions in-process on every op kind in
/// `ops`, inside tracer spans, and fills the probe half of `out`.
void probe_layers(const std::vector<Op>& ops, Tracer& tracer,
                  LayerReport& out);

/// Appends every per-layer metric, in BENCHMARK.json order.
void add_layer_metrics(RunResult& r, const LayerReport& l);

/// Runs ctx.workload and fills the result metrics (end-to-end ones, or
/// per-layer ones when ctx.trace).
RunResult run_workload(const Context& ctx, Tracer& tracer);

}  // namespace satbench
