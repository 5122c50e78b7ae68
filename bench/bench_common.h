// Shared helpers for the per-figure bench harnesses.
//
// Every harness prints a header naming the paper artifact it regenerates,
// the parameters in effect, and then the table/series in a stable, aligned
// format so runs can be diffed and compared against EXPERIMENTS.md.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/online/policy.h"
#include "sim/des.h"
#include "stats/cdf.h"
#include "trace/google.h"
#include "util/flags.h"

namespace tsf::bench {

// Prints the standard harness banner.
void PrintHeader(const std::string& artifact, const std::string& description);

// Prints a labelled sub-section.
void PrintSection(const std::string& title);

// The six policies of Sec. VI-B, in the paper's order.
std::vector<OnlinePolicy> EvaluationPolicies();

// The five fair-sharing policies (no FIFO); TSF last.
std::vector<OnlinePolicy> FairPolicies();

// Flags shared by the trace-driven (macro) benches. All have TSF_<NAME>
// environment fallbacks, so e.g. TSF_SEEDS=50 rescales the whole suite.
struct MacroConfig {
  std::size_t machines = 1000;
  std::size_t jobs = 4500;
  std::size_t seeds = 5;
  std::uint64_t first_seed = 1;
  double tightness = 1.0;
  std::size_t threads = 0;  // 0 = hardware concurrency

  // Telemetry (see src/telemetry/): when telemetry_dir is non-empty the
  // metrics registry is enabled for the whole run and a metrics.jsonl
  // snapshot lands there at exit; --trace additionally opens a tracer
  // session whose Chrome trace_event JSON (trace.json) is written at exit.
  std::string telemetry_dir;
  bool trace = false;
  // Virtual-time fairness sampling period for RunSeeds benches; defaults to
  // 10 simulated seconds when telemetry_dir is set, otherwise off.
  double fairness_interval = 0.0;

  // SimOptions carrying the fairness sampling period into Simulate/RunSeeds.
  SimOptions sim_options() const {
    SimOptions options;
    options.fairness_sample_interval = fairness_interval;
    return options;
  }
};

// Declares and parses --machines/--jobs/--seeds/--first-seed/--tightness/
// --threads plus the telemetry trio --telemetry_dir/--trace/
// --fairness-interval. Extra flags may be appended by the caller. When
// --telemetry_dir is given this also enables telemetry and registers an
// atexit hook that writes the metrics snapshot (and the trace, with
// --trace) into that directory.
MacroConfig ParseMacroFlags(
    int argc, char** argv,
    std::vector<std::pair<std::string, std::string>> extra_flags = {},
    const Flags** flags_out = nullptr);

// Writes fairness_<policy>.jsonl under config.telemetry_dir for the
// representative seed (config.first_seed); no-op for other seeds or when
// telemetry/sampling is off. Call from a RunSeeds reducer.
void MaybeWriteFairnessTimelines(const MacroConfig& config,
                                 const std::vector<OnlinePolicy>& policies,
                                 std::uint64_t seed,
                                 const std::vector<SimResult>& results);

// Builds the Google-like workload for one seed under a macro config.
trace::GoogleTraceConfig MakeTraceConfig(const MacroConfig& config,
                                         std::uint64_t seed);

// Prints a side-by-side CDF table: one column of values per labelled
// series, rows at the given quantiles.
void PrintCdfComparison(const std::string& x_label,
                        const std::vector<std::string>& labels,
                        const std::vector<EmpiricalCdf>& cdfs,
                        const std::vector<double>& quantiles);

// Standard quantile grid used by the CDF figures.
std::vector<double> FigureQuantiles();

}  // namespace tsf::bench
