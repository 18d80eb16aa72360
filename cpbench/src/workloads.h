// The benchmark's workloads and the run that measures one of them.
//
//   peak_churn  default-QoS bearer churn at the trace's diurnal-peak rate
//   gbr_churn   the same schedule with reserving (GBR) bearers, at a
//               reduced bearer rate
//   discovery   the 48 h paper-scale scenario build, then hierarchy-wide
//               link-discovery rounds on the sharded engine
//
// See cpbench/README.md for why each workload exists and which metric each
// layer is expected to move.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "generator.h"
#include "spans.h"
#include "stats.h"
#include "topo/scenario.h"

namespace cpbench {

struct WorkloadSpec {
  std::string name;
  bool churn = true;                ///< false: discovery rounds on the engine
  std::size_t trace_minutes = 900;  ///< trace length the scenario synthesizes
  GeneratorParams gen;              ///< churn schedule (seed set per run)
  double gbr_floor_kbps = 0;        ///< PathConstraints::min_bandwidth_kbps of GBR bearers
  double gbr_max_latency_us = 0;    ///< PathConstraints::max_latency_us of GBR bearers
  std::uint32_t resident_ues = 1'000'000;
  /// Operations per second of `--seconds`: a window runs seconds x this
  /// many, about what a shared 4-vCPU host does, so it lasts about
  /// `--seconds` there.
  double window_ops_per_s = 1000;
};

[[nodiscard]] const std::vector<WorkloadSpec>& workloads();
[[nodiscard]] std::optional<WorkloadSpec> find_workload(const std::string& name);

/// The §7.1 paper-scale scenario (321 switches, 1,000 base stations, four
/// leaves under a root, 8 egress points, 11,590 prefixes) with a trace of
/// `minutes` minutes, built the way the figure benches build it.
[[nodiscard]] softmow::topo::ScenarioParams paper_scale_params(std::uint64_t seed,
                                                               std::size_t minutes);

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10;        ///< sizes the window: seconds x WorkloadSpec::window_ops_per_s ops
  bool trace = false;         ///< traced run: per-layer metrics
  std::size_t setups = 3;     ///< setups timed per run; setup_s is their median
  /// Scenario override (tests use small_scenario_params); unset = paper scale.
  std::optional<softmow::topo::ScenarioParams> scenario;
  /// The measured window's op count, overriding the one `seconds` gives
  /// (0 = no override; tests use it on small scenarios).
  std::uint64_t max_ops = 0;
  std::string span_csv;       ///< traced run: where the spans are written ("" = nowhere)
  bool quiet = false;         ///< no human-readable report on stdout
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;        ///< end-to-end (untraced) or per-layer (traced)
  std::vector<std::string> problems;  ///< why `correct` is false
  std::string digest;                 ///< outcome digest of the ops run
  std::uint64_t digest_ops = 0;       ///< ops covered by `digest`
  std::string warmup_digest;          ///< digest of the (time-fixed) warm-up
  std::string checkpoint_digest;      ///< digest at a fixed op count past the warm-up
};

/// Runs `spec` once: setup, warm-up, the measured window(s), the checks.
RunResult run_workload(const WorkloadSpec& spec, const RunOptions& options);

/// The end-to-end and per-layer metric names every run reports.
[[nodiscard]] const std::vector<std::string>& end_to_end_metric_names();
[[nodiscard]] const std::vector<std::string>& per_layer_metric_names();

}  // namespace cpbench
