#include "bench_common.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "stats/table.h"
#include "telemetry/telemetry.h"
#include "util/check.h"
#include "util/log.h"

namespace tsf::bench {

void PrintHeader(const std::string& artifact, const std::string& description) {
  std::printf("================================================================\n");
  std::printf("%s\n", artifact.c_str());
  std::printf("%s\n", description.c_str());
  std::printf("================================================================\n");
}

void PrintSection(const std::string& title) {
  std::printf("\n--- %s ---\n", title.c_str());
}

std::vector<OnlinePolicy> EvaluationPolicies() {
  return {OnlinePolicy::Fifo(), OnlinePolicy::Drf(),  OnlinePolicy::Cdrf(),
          OnlinePolicy::Cmmf(0, "CPU"), OnlinePolicy::Cmmf(1, "Mem"),
          OnlinePolicy::Tsf()};
}

std::vector<OnlinePolicy> FairPolicies() {
  return {OnlinePolicy::Drf(), OnlinePolicy::Cdrf(), OnlinePolicy::Cmmf(0, "CPU"),
          OnlinePolicy::Cmmf(1, "Mem"), OnlinePolicy::Tsf()};
}

namespace {

// Owned by the atexit hook below; set once per process by ParseMacroFlags.
std::string* g_telemetry_dir = nullptr;

void WriteTelemetryArtifacts() {
  if (g_telemetry_dir == nullptr) return;
  const std::string metrics_path = *g_telemetry_dir + "/metrics.jsonl";
  if (!telemetry::Registry::Get().WriteJsonlSnapshot(metrics_path))
    std::fprintf(stderr, "telemetry: cannot write %s\n", metrics_path.c_str());
  else
    std::fprintf(stderr, "telemetry: wrote %s\n", metrics_path.c_str());
  if (telemetry::TraceActive()) {
    telemetry::Tracer::Get().Stop();
    const std::string trace_path = *g_telemetry_dir + "/trace.json";
    if (!telemetry::Tracer::Get().WriteChromeTrace(trace_path))
      std::fprintf(stderr, "telemetry: cannot write %s\n", trace_path.c_str());
    else
      std::fprintf(stderr,
                   "telemetry: wrote %s (open in https://ui.perfetto.dev "
                   "or chrome://tracing)\n",
                   trace_path.c_str());
  }
}

}  // namespace

MacroConfig ParseMacroFlags(
    int argc, char** argv,
    std::vector<std::pair<std::string, std::string>> extra_flags,
    const Flags** flags_out) {
  std::vector<std::pair<std::string, std::string>> allowed = {
      {"machines", "cluster size (paper: 1000)"},
      {"jobs", "number of jobs (paper: 4500)"},
      {"seeds", "simulation repetitions (paper: 50; default 5)"},
      {"first-seed", "first RNG seed (default 1)"},
      {"tightness", "constraint tightness multiplier (default 1.0)"},
      {"threads", "worker threads (default: hardware)"},
      {"telemetry_dir", "directory for metrics/trace/timeline output "
                        "(enables telemetry)"},
      {"trace", "record a Chrome trace_event JSON (needs --telemetry_dir)"},
      {"fairness-interval", "fairness sampling period in simulated seconds "
                            "(default 10 when telemetry is on)"},
  };
  for (auto& flag : extra_flags) allowed.push_back(std::move(flag));

  static const Flags* parsed = nullptr;  // owned for the process lifetime
  auto* flags = new Flags(argc, argv, allowed);
  parsed = flags;
  if (flags_out != nullptr) *flags_out = parsed;

  MacroConfig config;
  config.machines = static_cast<std::size_t>(flags->GetInt("machines", 1000));
  config.jobs = static_cast<std::size_t>(flags->GetInt("jobs", 4500));
  config.seeds = static_cast<std::size_t>(flags->GetInt("seeds", 5));
  config.first_seed = static_cast<std::uint64_t>(flags->GetInt("first-seed", 1));
  config.tightness = flags->GetDouble("tightness", 1.0);
  config.threads = static_cast<std::size_t>(flags->GetInt("threads", 0));
  config.telemetry_dir = flags->GetString("telemetry_dir", "");
  config.trace = flags->GetBool("trace", false);
  config.fairness_interval = flags->GetDouble(
      "fairness-interval", config.telemetry_dir.empty() ? 0.0 : 10.0);
  TSF_CHECK_GT(config.machines, 0u);
  TSF_CHECK_GT(config.jobs, 0u);
  TSF_CHECK_GT(config.seeds, 0u);

  if (!config.telemetry_dir.empty()) {
    std::error_code error;
    std::filesystem::create_directories(config.telemetry_dir, error);
    if (error) {
      std::fprintf(stderr, "error: cannot create --telemetry_dir %s: %s\n",
                   config.telemetry_dir.c_str(), error.message().c_str());
      std::exit(2);
    }
    telemetry::SetEnabled(true);
    if (config.trace) telemetry::Tracer::Get().Start();
    g_telemetry_dir = new std::string(config.telemetry_dir);
    std::atexit(WriteTelemetryArtifacts);
  } else if (config.trace) {
    TSF_LOG(WARN) << "--trace without --telemetry_dir has no effect";
  }

  std::printf("config: machines=%zu jobs=%zu seeds=%zu first-seed=%llu "
              "tightness=%.2f%s%s\n\n",
              config.machines, config.jobs, config.seeds,
              static_cast<unsigned long long>(config.first_seed),
              config.tightness,
              config.telemetry_dir.empty()
                  ? ""
                  : (" telemetry_dir=" + config.telemetry_dir).c_str(),
              config.trace ? " trace=on" : "");
  return config;
}

void MaybeWriteFairnessTimelines(const MacroConfig& config,
                                 const std::vector<OnlinePolicy>& policies,
                                 std::uint64_t seed,
                                 const std::vector<SimResult>& results) {
  if (config.telemetry_dir.empty() || config.fairness_interval <= 0.0) return;
  if (seed != config.first_seed) return;  // one representative seed
  TSF_CHECK_EQ(policies.size(), results.size());
  for (std::size_t p = 0; p < policies.size(); ++p) {
    const std::string stem =
        config.telemetry_dir + "/fairness_" + policies[p].name;
    if (!telemetry::WriteFairnessJsonl(stem + ".jsonl", policies[p].name,
                                       results[p].fairness_timeline))
      std::fprintf(stderr, "telemetry: cannot write %s.jsonl\n", stem.c_str());
  }
}

trace::GoogleTraceConfig MakeTraceConfig(const MacroConfig& config,
                                         std::uint64_t seed) {
  trace::GoogleTraceConfig trace_config;
  trace_config.num_machines = config.machines;
  trace_config.num_jobs = config.jobs;
  trace_config.constraint_tightness = config.tightness;
  trace_config.seed = seed;
  return trace_config;
}

std::vector<double> FigureQuantiles() {
  return {0.10, 0.25, 0.40, 0.50, 0.60, 0.75, 0.90, 0.95, 0.99};
}

void PrintCdfComparison(const std::string& x_label,
                        const std::vector<std::string>& labels,
                        const std::vector<EmpiricalCdf>& cdfs,
                        const std::vector<double>& quantiles) {
  TSF_CHECK_EQ(labels.size(), cdfs.size());
  std::vector<std::string> header = {"quantile"};
  for (const std::string& label : labels) header.push_back(label);
  TextTable table(std::move(header));
  for (const double q : quantiles) {
    std::vector<std::string> row = {TextTable::Percent(q, 0)};
    for (const EmpiricalCdf& cdf : cdfs)
      row.push_back(cdf.empty() ? "-" : TextTable::Num(cdf.Quantile(q), 1));
    table.AddRow(std::move(row));
  }
  std::printf("%s (rows: CDF quantiles)\n%s", x_label.c_str(),
              table.Format().c_str());
}

}  // namespace tsf::bench
