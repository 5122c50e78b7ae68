// perfbench: runs one benchmark workload in this process for a fixed
// time and prints its metrics as one JSON object on the last line.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans <path>]
//   perfbench --selftest
//
// Workloads (inputs are derived from --seed only):
//   paper_trace      eight paper-profile Google traces (1000 machines)
//                    under the six evaluation policies
//   offline_tsf      48 offline TSF problems cut from the paper-profile
//                    generator (24 users x 48 machines)
//   overload_stream  48 open-loop Poisson streams at 2 jobs/s over 300
//                    virtual seconds on 60 machines, through the DES and the
//                    Mesos master under TSF
//
// The untraced run (--trace 0) sets up at least three times and for at
// least a second (set-up time is the median), then cycles through the
// inputs, one operation at a time, until every input has run once and
// --seconds have passed. Every output of an input's first run is checked;
// later runs must reproduce its fingerprints. The traced run (--trace 1)
// sets up once, records a span around every library call, and ends with
// two counting passes that read the library's telemetry counters with
// telemetry enabled, each after a reference pass with telemetry off.
#include <malloc.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "checks.h"
#include "core/cluster.h"
#include "core/offline/policies.h"
#include "load/driver.h"
#include "load/stream.h"
#include "mesos/mesos.h"
#include "sim/des.h"
#include "spans.h"
#include "telemetry/metrics.h"
#include "trace/google.h"
#include "util/rng.h"

namespace perfbench {
namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
};

using Metrics = std::map<std::string, double>;

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Sum(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum;
}

double Mean(const std::vector<double>& values) {
  return values.empty() ? 0.0
                        : Sum(values) / static_cast<double>(values.size());
}

double Ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

// Input k of a workload: input 0 uses the run's seed itself.
std::uint64_t SubSeed(std::uint64_t seed, std::size_t k) {
  if (k == 0) return seed;
  std::uint64_t state = seed ^ (0x9e3779b97f4a7c15ULL * k);
  return tsf::SplitMix64(state);
}

std::string Hex(std::uint64_t value) {
  char buffer[19];
  std::snprintf(buffer, sizeof(buffer), "%016" PRIx64, value);
  return buffer;
}

// Operation accounting shared by every workload: one Simulate, SolveTsf or
// load run is one operation. An input's first run checks each output and
// prints its fingerprint; any later run of the same operation must
// reproduce it.
class Ledger {
 public:
  Ledger(const Options& options, SpanRecorder& spans)
      : options_(options), spans_(spans) {}

  // `verdict` is "" for a passing output.
  void Check(const std::string& op, const std::string& verdict) {
    ++attempted_;
    if (!verdict.empty()) Fail(op, verdict);
  }

  // Records the first fingerprint of `op`, or compares a repeat against it.
  // A repeat is an operation of its own.
  void Fingerprint(const std::string& op, std::uint64_t fingerprint) {
    const auto [it, first] = fingerprints_.emplace(op, fingerprint);
    if (first) {
      std::printf("fingerprint workload=%s seed=%" PRIu64 " op=%s fnv=%s\n",
                  options_.workload.c_str(), options_.seed, op.c_str(),
                  Hex(fingerprint).c_str());
      return;
    }
    ++attempted_;
    if (it->second != fingerprint)
      Fail(op, "fingerprint " + Hex(fingerprint) + " differs from the first " +
                   Hex(it->second));
  }

  void Fail(const std::string& op, const std::string& why) {
    ++failed_;
    std::fprintf(stderr, "FAILED %s: %s\n", op.c_str(), why.c_str());
  }

  long attempted() const { return attempted_; }
  long failed() const { return failed_; }
  SpanRecorder& spans() { return spans_; }
  const Options& options() const { return options_; }

 private:
  const Options& options_;
  SpanRecorder& spans_;
  std::map<std::string, std::uint64_t> fingerprints_;
  long attempted_ = 0;
  long failed_ = 0;
};

// One benchmark workload over a fixed number of inputs derived from the
// seed. Setup() builds the inputs (and may be called again to rebuild
// them) and sets each input's units of work with SetUnits(), RunInput()
// runs the timed operation of one input and records the time of each of
// its `parts` library calls with RecordOp(), CountingPass() reruns the
// operations of the first few inputs.
class Workload {
 public:
  Workload(std::size_t inputs, std::size_t parts)
      : parts_(parts), units_(inputs, 1.0), op_s_(inputs * parts) {}
  virtual ~Workload() = default;
  virtual void Setup() = 0;
  // `first` is set for the input's first run, whose outputs are checked.
  virtual void RunInput(std::size_t k, bool first) = 0;
  virtual void CountingPass() = 0;
  // Workload-specific traced-run metrics (set-up and per-pass span times,
  // input properties).
  virtual void TraceMetrics(Metrics* out) const = 0;

  std::size_t inputs() const { return op_s_.size() / parts_; }

  // Seconds of all inputs' timed operations, each library call taken at its
  // fastest run. Other tenants of the host only ever slow a call down, and
  // they do so in stretches of seconds, so the fastest of several runs
  // spread over the timed phase is the least disturbed.
  double FastestSeconds() const {
    double sum = 0.0;
    for (const std::vector<double>& samples : op_s_)
      sum += *std::min_element(samples.begin(), samples.end());
    return sum;
  }

  // unit_cost_us: FastestSeconds() in microseconds per unit of work. A
  // unit is one task through one library call on the task workloads, so
  // that a seed whose traces hold more tasks does not read as slower, and
  // one SolveTsf on offline_tsf, whose problems all have one size.
  double UnitCostMicros() const {
    return 1e6 * FastestSeconds() / Sum(units_);
  }

 protected:
  void SetUnits(std::size_t input, double units) { units_[input] = units; }

  void RecordOp(std::size_t input, std::size_t part, double seconds) {
    op_s_[input * parts_ + part].push_back(seconds);
  }

 private:
  std::size_t parts_;
  std::vector<double> units_;              // per input
  std::vector<std::vector<double>> op_s_;  // per input and part, per run
};

// Time of `f` in seconds, under a span of the given layer.
template <typename F>
double TimedCall(SpanRecorder& spans, const std::string& name,
                 const std::string& layer, F&& f) {
  ScopedSpan span(spans, name, layer);
  return TimeSeconds(std::forward<F>(f));
}

struct ClassProfile {
  double machines = 0.0;
  double classes = 0.0;
  double singletons = 0.0;
  double build_s = 0.0;
};

ClassProfile ProfileClasses(SpanRecorder& spans, const tsf::Cluster& cluster) {
  ClassProfile profile;
  std::unique_ptr<tsf::MachineClassIndex> index;
  profile.build_s = TimedCall(spans, "core.MachineClassIndex", "core", [&] {
    index = std::make_unique<tsf::MachineClassIndex>(cluster);
  });
  profile.machines = static_cast<double>(cluster.num_machines());
  profile.classes = static_cast<double>(index->num_classes());
  for (std::size_t c = 0; c < index->num_classes(); ++c)
    if (index->class_size(c) == 1) profile.singletons += 1.0;
  return profile;
}

void AddClassMetrics(const ClassProfile& profile, Metrics* out) {
  (*out)["core.class_index_s"] = profile.build_s;
  (*out)["core.machines"] = profile.machines;
  (*out)["core.machine_classes"] = profile.classes;
  (*out)["core.singleton_classes"] = profile.singletons;
  (*out)["core.singleton_class_frac"] =
      Ratio(profile.singletons, profile.classes);
}

std::string PolicyLabel(const tsf::OnlinePolicy& policy) {
  return policy.kind == tsf::OnlinePolicy::Kind::kCmmf ? "CMMF-" + policy.name
                                                       : policy.name;
}

// The six policies of the paper's Sec. VI-B, in its order. Listed here
// rather than taken from the bench harnesses so that the benchmark's inputs
// cannot change with them.
std::vector<tsf::OnlinePolicy> EvaluationPolicies() {
  return {tsf::OnlinePolicy::Fifo(),        tsf::OnlinePolicy::Drf(),
          tsf::OnlinePolicy::Cdrf(),        tsf::OnlinePolicy::Cmmf(0, "CPU"),
          tsf::OnlinePolicy::Cmmf(1, "Mem"), tsf::OnlinePolicy::Tsf()};
}

// --- paper_trace ------------------------------------------------------------

// Trace-driven DES: kTraces paper-profile traces, each simulated under the
// six evaluation policies. Each Simulate is checked; the timed operation of
// an input is its sweep over all policies (the paper's per-trace
// experiment). The counting pass sweeps the first trace.
class PaperTraceWorkload : public Workload {
 public:
  static constexpr std::size_t kTraces = 8;

  explicit PaperTraceWorkload(Ledger& ledger)
      : Workload(kTraces, EvaluationPolicies().size()),
        ledger_(ledger),
        policies_(EvaluationPolicies()) {}

  void Setup() override {
    SpanRecorder& spans = ledger_.spans();
    workloads_.clear();
    synthesize_s_ = 0.0;
    for (std::size_t k = 0; k < inputs(); ++k) {
      tsf::trace::GoogleTraceConfig config;
      config.seed = SubSeed(ledger_.options().seed, k);
      synthesize_s_ += TimedCall(spans, "trace.SynthesizeGoogleWorkload",
                                 "trace", [&] {
        workloads_.push_back(tsf::trace::SynthesizeGoogleWorkload(config));
      });
      SetUnits(k, static_cast<double>(workloads_[k].TotalTasks() *
                                       policies_.size()));
    }
    if (spans.enabled())
      classes_ = ProfileClasses(spans, workloads_[0].cluster);
  }

  void RunInput(std::size_t k, bool first) override {
    SpanRecorder& spans = ledger_.spans();
    for (std::size_t p = 0; p < policies_.size(); ++p) {
      const tsf::OnlinePolicy& policy = policies_[p];
      const std::string label = PolicyLabel(policy);
      tsf::SimResult result;
      const double seconds = TimedCall(spans, "sim.Simulate/" + label, "sim",
                                       [&] {
        result = tsf::Simulate(workloads_[k], policy);
      });
      RecordOp(k, p, seconds);
      policy_s_[label].push_back(seconds);
      sim_s_ += seconds;
      sim_tasks_ += static_cast<double>(result.tasks.size());
      const std::string op = "input" + std::to_string(k) + "/" + label;
      ScopedSpan span(spans, "check.Simulate", "check");
      if (first) ledger_.Check(op, CheckSimResult(workloads_[k], result));
      ledger_.Fingerprint(op, FingerprintSim(result));
    }
  }

  void CountingPass() override {
    for (const tsf::OnlinePolicy& policy : policies_) {
      const tsf::SimResult result = tsf::Simulate(workloads_[0], policy);
      ledger_.Fingerprint("input0/" + PolicyLabel(policy),
                          FingerprintSim(result));
    }
  }

  void TraceMetrics(Metrics* out) const override {
    (*out)["trace.synthesize_s"] = synthesize_s_;
    (*out)["des.tasks_per_s"] = Ratio(sim_tasks_, sim_s_);
    AddClassMetrics(classes_, out);
    std::vector<double> all;
    for (const auto& [label, samples] : policy_s_) {
      (*out)["sim.simulate_s." + label] = Mean(samples);
      all.insert(all.end(), samples.begin(), samples.end());
    }
    (*out)["sim.simulate_s"] = Mean(all);
  }

 private:
  Ledger& ledger_;
  std::vector<tsf::OnlinePolicy> policies_;
  std::vector<tsf::Workload> workloads_;
  std::map<std::string, std::vector<double>> policy_s_;
  double sim_s_ = 0.0;
  double sim_tasks_ = 0.0;
  double synthesize_s_ = 0.0;
  ClassProfile classes_;
};

// --- offline_tsf ------------------------------------------------------------

// Offline TSF (Algorithm 1) on problems cut from the paper-profile trace
// generator: the first kUsers jobs that have an eligible machine, with
// their real attribute constraints, over a sampled fleet of kMachines. The
// timed operation is one SolveTsf; the counting pass solves the first
// kCountedInstances problems.
class OfflineTsfWorkload : public Workload {
 public:
  static constexpr std::size_t kInstances = 48;
  static constexpr std::size_t kCountedInstances = 12;
  static constexpr std::size_t kUsers = 24;
  static constexpr std::size_t kMachines = 48;

  explicit OfflineTsfWorkload(Ledger& ledger)
      : Workload(kInstances, 1), ledger_(ledger) {}

  void Setup() override {
    SpanRecorder& spans = ledger_.spans();
    problems_.clear();
    denominators_.clear();
    synthesize_s_ = compile_s_ = 0.0;
    for (std::size_t k = 0; k < kInstances; ++k) {
      tsf::trace::GoogleTraceConfig config;
      config.num_machines = kMachines;
      config.num_jobs = 20 * kUsers;
      config.seed = SubSeed(ledger_.options().seed, k);
      tsf::SharingProblem problem;
      synthesize_s_ += TimedCall(spans, "trace.SynthesizeGoogleWorkload",
                                 "trace", [&] {
        tsf::Workload trace = tsf::trace::SynthesizeGoogleWorkload(config);
        problem.cluster = trace.cluster;
        for (const tsf::SimJob& job : trace.jobs) {
          if (!trace.cluster.Eligibility(job.spec.constraint).Any()) continue;
          tsf::JobSpec spec = job.spec;
          spec.id = problem.jobs.size();
          problem.jobs.push_back(spec);
          if (problem.jobs.size() == kUsers) break;
        }
      });
      if (problem.jobs.size() < kUsers)
        ledger_.Fail("setup", "instance " + std::to_string(k) +
                                  " has only " +
                                  std::to_string(problem.jobs.size()) +
                                  " users");
      compile_s_ += TimedCall(spans, "core.Compile", "core", [&] {
        problems_.push_back(tsf::Compile(problem));
      });
      denominators_.push_back(tsf::TsfDenominator(problems_.back()));
    }
  }

  void RunInput(std::size_t k, bool first) override {
    SpanRecorder& spans = ledger_.spans();
    tsf::FillingResult result;
    const double seconds = TimedCall(spans, "core_offline.SolveTsf",
                                     "core/offline", [&] {
      result = tsf::SolveTsf(problems_[k]);
    });
    RecordOp(k, 0, seconds);
    const std::string op = "instance" + std::to_string(k) + "/SolveTsf";
    ScopedSpan span(spans, "check.SolveTsf", "check");
    if (first) {
      ledger_.Check(op, CheckFilling(problems_[k], denominators_[k], result));
      if (k < kCountedInstances)
        rounds_ += static_cast<double>(result.round_levels.size());
    }
    ledger_.Fingerprint(op, FingerprintFilling(result));
  }

  void CountingPass() override {
    for (std::size_t k = 0; k < kCountedInstances; ++k)
      ledger_.Fingerprint("instance" + std::to_string(k) + "/SolveTsf",
                          FingerprintFilling(tsf::SolveTsf(problems_[k])));
  }

  // filling.rounds, like the counting pass, covers the counted instances.
  void TraceMetrics(Metrics* out) const override {
    (*out)["trace.synthesize_s"] = synthesize_s_;
    (*out)["core.compile_s"] = compile_s_;
    (*out)["core_offline.solve_s"] =
        FastestSeconds() / static_cast<double>(kInstances);
    (*out)["filling.solves"] = static_cast<double>(kCountedInstances);
    (*out)["filling.rounds"] = rounds_;
  }

 private:
  Ledger& ledger_;
  std::vector<tsf::CompiledProblem> problems_;
  std::vector<std::vector<double>> denominators_;
  double rounds_ = 0.0;
  double synthesize_s_ = 0.0;
  double compile_s_ = 0.0;
};

// --- overload_stream --------------------------------------------------------

// Open-loop streams above the saturation knee, each run through the DES
// (RunDesLoad) and the Mesos master (RunMesosLoad) under TSF. The traced run
// also calls Simulate and mesos::RunCluster directly on the same inputs, so
// the load driver's own derivation cost shows as a difference.
class OverloadStreamWorkload : public Workload {
 public:
  static constexpr std::size_t kStreams = 48;
  static constexpr std::size_t kCountedStreams = 8;
  static constexpr std::size_t kMachines = 60;
  static constexpr double kRate = 2.0;
  static constexpr double kDuration = 300.0;

  explicit OverloadStreamWorkload(Ledger& ledger)
      : Workload(kStreams, 2), ledger_(ledger) {}

  void Setup() override {
    SpanRecorder& spans = ledger_.spans();
    configs_.clear();
    streams_.clear();
    frameworks_.clear();
    generate_s_ = 0.0;
    for (std::size_t k = 0; k < kStreams; ++k) {
      tsf::load::DriverConfig config;
      config.num_machines = kMachines;
      config.stream.rate = kRate;
      config.stream.duration = kDuration;
      config.stream.seed = SubSeed(ledger_.options().seed, k);
      configs_.push_back(config);
      generate_s_ += TimedCall(spans, "load.GenerateArrivals", "load", [&] {
        streams_.push_back(
            tsf::load::GenerateArrivals(config.stream, kMachines));
      });
      double tasks = 0.0;
      for (const tsf::SimJob& job : streams_.back().jobs)
        tasks += static_cast<double>(job.task_runtimes.size());
      SetUnits(k, 2.0 * tasks);  // placed once by each substrate
      if (spans.enabled()) {
        ScopedSpan span(spans, "load.ToFrameworks", "load");
        frameworks_.push_back(tsf::load::ToFrameworks(streams_.back()));
      }
    }
    if (spans.enabled())
      classes_ = ProfileClasses(spans, tsf::load::MakeLoadCluster(kMachines));
  }

  void RunInput(std::size_t k, bool first) override {
    SpanRecorder& spans = ledger_.spans();
    const std::string id = "stream" + std::to_string(k);
    tsf::load::LoadReport des;
    tsf::load::LoadReport mesos;
    const double des_s = TimedCall(spans, "load.RunDesLoad", "load", [&] {
      des = tsf::load::RunDesLoad(configs_[k], tsf::OnlinePolicy::Tsf());
    });
    const double mesos_s = TimedCall(spans, "load.RunMesosLoad", "load", [&] {
      mesos = tsf::load::RunMesosLoad(configs_[k],
                                      tsf::mesos::AllocatorPolicy::kTsf);
    });
    des_s_.push_back(des_s);
    mesos_s_.push_back(mesos_s);
    RecordOp(k, 0, des_s);
    RecordOp(k, 1, mesos_s);
    des_tasks_ += static_cast<double>(des.placements);
    mesos_tasks_ += static_cast<double>(mesos.placements);
    {
      ScopedSpan span(spans, "check.LoadReport", "check");
      if (first) {
        ledger_.Check(id + "/RunDesLoad", CheckLoadReport(streams_[k], des));
        ledger_.Check(id + "/RunMesosLoad",
                      CheckLoadReport(streams_[k], mesos));
      }
      ledger_.Fingerprint(id + "/RunDesLoad", des.placement_hash);
      ledger_.Fingerprint(id + "/RunMesosLoad", mesos.placement_hash);
    }
    if (spans.enabled()) DirectCalls(k, first);
  }

  void CountingPass() override {
    for (std::size_t k = 0; k < kCountedStreams; ++k) {
      const std::string id = "stream" + std::to_string(k);
      const tsf::load::LoadReport des =
          tsf::load::RunDesLoad(configs_[k], tsf::OnlinePolicy::Tsf());
      const tsf::load::LoadReport mesos = tsf::load::RunMesosLoad(
          configs_[k], tsf::mesos::AllocatorPolicy::kTsf);
      ledger_.Fingerprint(id + "/RunDesLoad", des.placement_hash);
      ledger_.Fingerprint(id + "/RunMesosLoad", mesos.placement_hash);
    }
  }

  void TraceMetrics(Metrics* out) const override {
    (*out)["load.generate_s"] = generate_s_;
    AddClassMetrics(classes_, out);
    const double des = Mean(des_s_);
    const double mesos = Mean(mesos_s_);
    const double direct_sim = Mean(direct_sim_s_);
    const double direct_mesos = Mean(direct_mesos_s_);
    (*out)["load.des_run_s"] = des;
    (*out)["load.mesos_run_s"] = mesos;
    (*out)["sim.simulate_s"] = direct_sim;
    (*out)["mesos.run_cluster_s"] = direct_mesos;
    (*out)["load.derive_des_s"] = des - direct_sim;
    (*out)["load.derive_mesos_s"] = mesos - direct_mesos;
    (*out)["des.tasks_per_s"] = Ratio(des_tasks_, Sum(des_s_));
    (*out)["mesos.tasks_per_s"] = Ratio(mesos_tasks_, Sum(mesos_s_));
    (*out)["mesos.rounds"] = static_cast<double>(stats_.rounds);
    (*out)["mesos.probes"] = static_cast<double>(stats_.probes);
    const auto accepted = static_cast<double>(stats_.offers_accepted);
    const auto declined = static_cast<double>(stats_.offers_declined);
    (*out)["mesos.offers_accepted"] = accepted;
    (*out)["mesos.offers_declined"] = declined;
    (*out)["mesos.probes_per_launch"] =
        Ratio(static_cast<double>(stats_.probes), accepted);
    (*out)["mesos.decline_ratio"] = Ratio(declined, accepted + declined);
  }

 private:
  // The substrates without the load driver around them: Simulate with a
  // stream recorder, and the Mesos master configured as RunMesosLoad does.
  void DirectCalls(std::size_t k, bool first) {
    SpanRecorder& spans = ledger_.spans();
    const tsf::Workload workload{tsf::load::MakeLoadCluster(kMachines),
                                 streams_[k].jobs};
    std::vector<tsf::SimStreamEvent> sim_events;
    tsf::SimOptions sim_options;
    sim_options.stream = &sim_events;
    tsf::SimResult result;
    direct_sim_s_.push_back(TimedCall(spans, "sim.Simulate/TSF", "sim", [&] {
      result = tsf::Simulate(workload, tsf::OnlinePolicy::Tsf(),
                             tsf::SimCore::kIncremental, sim_options);
    }));
    tsf::mesos::ClusterConfig cluster;
    cluster.slaves = tsf::load::MakeLoadSlaves(kMachines);
    cluster.policy = tsf::mesos::AllocatorPolicy::kTsf;
    cluster.seed = configs_[k].stream.seed;
    cluster.sample_interval = 0.0;
    std::vector<tsf::mesos::MasterEvent> master_events;
    tsf::mesos::RunOptions run_options;
    run_options.stream = &master_events;
    tsf::mesos::SimOutcome outcome;
    const std::vector<tsf::mesos::FrameworkSpec>& frameworks = frameworks_[k];
    direct_mesos_s_.push_back(
        TimedCall(spans, "mesos.RunCluster", "mesos", [&] {
          outcome = tsf::mesos::RunCluster(cluster, frameworks, run_options);
        }));
    if (!first) return;
    ScopedSpan span(spans, "check.Simulate", "check");
    ledger_.Check("stream" + std::to_string(k) + "/Simulate",
                  CheckSimResult(workload, result));
    stats_.rounds += outcome.stats.rounds;
    stats_.probes += outcome.stats.probes;
    stats_.offers_accepted += outcome.stats.offers_accepted;
    stats_.offers_declined += outcome.stats.offers_declined;
  }

  Ledger& ledger_;
  std::vector<tsf::load::DriverConfig> configs_;
  std::vector<tsf::load::GeneratedStream> streams_;
  std::vector<std::vector<tsf::mesos::FrameworkSpec>> frameworks_;
  std::vector<double> des_s_, mesos_s_, direct_sim_s_, direct_mesos_s_;
  double des_tasks_ = 0.0;
  double mesos_tasks_ = 0.0;
  double generate_s_ = 0.0;
  tsf::mesos::AllocatorStats stats_;
  ClassProfile classes_;
};

// --- counting pass ----------------------------------------------------------

// Registry counts taken across one counting pass.
struct Counts {
  std::map<std::string, std::int64_t> counters;
  std::map<std::string, tsf::telemetry::HistogramSnapshot> histograms;
};

Counts Snapshot() {
  const tsf::telemetry::MetricsSnapshot snapshot =
      tsf::telemetry::Registry::Get().Snapshot();
  Counts counts;
  for (const auto& [name, value] : snapshot.counters)
    counts.counters[name] = value;
  for (const auto& [name, hist] : snapshot.histograms)
    counts.histograms[name] = hist;
  return counts;
}

// What `after` holds beyond `before`. Counter and bucket deltas are exact;
// the histogram moments are only meaningful for the first pass, whose
// `before` is empty.
Counts Delta(const Counts& before, const Counts& after) {
  Counts delta = after;
  for (auto& [name, value] : delta.counters) {
    const auto it = before.counters.find(name);
    if (it != before.counters.end()) value -= it->second;
  }
  for (auto& [name, hist] : delta.histograms) {
    const auto it = before.histograms.find(name);
    if (it == before.histograms.end()) continue;
    hist.count -= it->second.count;
    for (std::size_t b = 0; b < hist.buckets.size(); ++b)
      hist.buckets[b] -= it->second.buckets[b];
  }
  return delta;
}

// Counters, histogram counts, and the buckets of every histogram not
// measured in wall-clock microseconds must repeat exactly.
bool SameCounts(const Counts& a, const Counts& b, std::string* why) {
  if (a.counters != b.counters) {
    *why = "counter totals differ between counting passes";
    return false;
  }
  for (const auto& [name, hist] : a.histograms) {
    const auto it = b.histograms.find(name);
    const bool wall_clock =
        name.size() > 3 && name.substr(name.size() - 3) == "_us";
    if (it == b.histograms.end() || it->second.count != hist.count ||
        (!wall_clock && it->second.buckets != hist.buckets)) {
      *why = "histogram " + name + " differs between counting passes";
      return false;
    }
  }
  return true;
}

void AddCountMetrics(const Counts& counts, Metrics* out) {
  const auto counter = [&](const std::string& name) {
    const auto it = counts.counters.find(name);
    return it == counts.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  const auto hist = [&](const std::string& name) {
    const auto it = counts.histograms.find(name);
    return it == counts.histograms.end() ? tsf::telemetry::HistogramSnapshot{}
                                         : it->second;
  };
  for (const char* name :
       {"des.batches", "des.task_finishes", "des.arrivals",
        "des.eligibility_memo.hits", "des.eligibility_memo.misses",
        "des.collapsed_runs", "scheduler.serve_machine.calls",
        "scheduler.serve_machine.placements",
        "scheduler.serve_machine.heap_pops",
        "scheduler.serve_machine.stale_entries", "scheduler.greedy.class_skips",
        "scheduler.greedy.ub_tightened", "scheduler.interleave.placements",
        "filling.probes", "lp.iterations", "lp.cold_solves", "lp.warm_hits",
        "lp.warm_fallbacks", "lp.dense_fallbacks", "lp.phase1_skipped"})
    (*out)[name] = counter(name);

  Metrics& m = *out;
  m["des.eligibility_memo.hit_ratio"] =
      Ratio(m["des.eligibility_memo.hits"],
            m["des.eligibility_memo.hits"] + m["des.eligibility_memo.misses"]);
  m["scheduler.serve_machine.placements_per_call"] =
      Ratio(m["scheduler.serve_machine.placements"],
            m["scheduler.serve_machine.calls"]);
  m["scheduler.serve_machine.stale_ratio"] =
      Ratio(m["scheduler.serve_machine.stale_entries"],
            m["scheduler.serve_machine.heap_pops"]);
  m["filling.probes_per_round"] =
      Ratio(m["filling.probes"], m["filling.rounds"]);
  m["lp.solves"] = m["lp.cold_solves"] + m["lp.warm_hits"];
  m["lp.iterations_per_solve"] = Ratio(m["lp.iterations"], m["lp.solves"]);
  m["lp.warm_hit_ratio"] =
      Ratio(m["lp.warm_hits"], m["lp.warm_hits"] + m["lp.warm_fallbacks"]);

  const tsf::telemetry::HistogramSnapshot heap = hist("des.event_heap_depth");
  m["des.event_heap_depth.count"] = static_cast<double>(heap.count);
  m["des.event_heap_depth.mean"] = heap.mean;
  m["des.event_heap_depth.max"] = heap.max;
  const tsf::telemetry::HistogramSnapshot serve = hist("des.serve_round_us");
  m["des.serve_round_us.count"] = static_cast<double>(serve.count);
  m["des.serve_round_us.mean"] = serve.mean;
  m["des.serve_round_us.max"] = serve.max;
  const tsf::telemetry::HistogramSnapshot wait =
      hist("scheduler.serve_machine.wait_list");
  m["scheduler.serve_machine.wait_list.count"] =
      static_cast<double>(wait.count);
  m["scheduler.serve_machine.wait_list.mean"] = wait.mean;
}

// --- harness ----------------------------------------------------------------

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       Ledger& ledger) {
  if (name == "paper_trace")
    return std::make_unique<PaperTraceWorkload>(ledger);
  if (name == "offline_tsf")
    return std::make_unique<OfflineTsfWorkload>(ledger);
  if (name == "overload_stream")
    return std::make_unique<OverloadStreamWorkload>(ledger);
  return nullptr;
}

// Span layers, in report order. "bench" is the harness's own structure (set-up
// and timed loops): its self time is the unattributed remainder.
const std::vector<std::string>& Layers() {
  static const std::vector<std::string> layers = {
      "trace", "load", "core", "core/offline", "sim", "mesos",
      "telemetry", "check", "bench"};
  return layers;
}

// Layers whose spans can sit inside the timed phase (the others are set-up
// or counting-pass layers).
bool InPassLayer(const std::string& layer) {
  return layer != "trace" && layer != "core" && layer != "telemetry";
}

std::string MetricLayerName(std::string layer) {
  std::replace(layer.begin(), layer.end(), '/', '_');
  return layer;
}

// Layer self times of the traced run. `passes` is the number of timed
// operations over the number of inputs; per-pass figures divide the timed
// phase by it.
void AddSpanMetrics(const SpanRecorder& spans, double passes, Ledger& ledger,
                    Metrics* out) {
  std::string error;
  if (!spans.WellNested(&error)) ledger.Fail("span accounting", error);
  const std::vector<Span>& all = spans.spans();
  const std::vector<double> self = spans.SelfSeconds();
  // Parents precede their children, so one forward sweep marks the timed
  // phase's subtree.
  std::vector<bool> timed(all.size(), false);
  std::map<std::string, double> run_self, timed_self;
  double self_sum = 0.0;
  double timed_wall = 0.0;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const int parent = all[i].parent;
    if (all[i].name == "bench.timed") {
      timed[i] = true;
      timed_wall = static_cast<double>(all[i].end_ns - all[i].start_ns) * 1e-9;
    } else if (parent >= 0) {
      timed[i] = timed[static_cast<std::size_t>(parent)];
    }
    run_self[all[i].layer] += self[i];
    if (timed[i]) timed_self[all[i].layer] += self[i];
    self_sum += self[i];
  }
  const double wall =
      static_cast<double>(all[0].end_ns - all[0].start_ns) * 1e-9;
  const double error_s = std::abs(self_sum - wall);
  if (error_s > 1e-6 * std::max(1.0, wall))
    ledger.Fail("span accounting", "self times sum to " +
                                       std::to_string(self_sum) + "s of " +
                                       std::to_string(wall) + "s");
  for (const std::string& layer : Layers()) {
    const std::string name = MetricLayerName(layer);
    (*out)["layer." + name + ".self_s"] = run_self[layer];
    if (InPassLayer(layer))
      (*out)["layer." + name + ".pass_self_s"] =
          Ratio(timed_self[layer], passes);
  }
  (*out)["bench.wall_s"] = wall;
  (*out)["bench.unattributed_s"] = run_self["bench"];
  (*out)["bench.unattributed_frac"] = Ratio(run_self["bench"], wall);
  (*out)["bench.accounting_error_s"] = error_s;
  (*out)["bench.spans"] = static_cast<double>(all.size());
  (*out)["bench.passes"] = passes;
  (*out)["bench.pass_s"] = Ratio(timed_wall, passes);
}

void PrintResult(const Ledger& ledger, const Metrics& metrics) {
  std::printf(
      "{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
      "\"metrics\": {",
              ledger.failed() == 0 ? "true" : "false", ledger.attempted(),
              ledger.failed());
  bool first = true;
  for (const auto& [name, value] : metrics) {
    std::printf("%s\"%s\": %.17g", first ? "" : ", ", name.c_str(), value);
    first = false;
  }
  std::printf("}}\n");
}

int Run(const Options& options) {
  SpanRecorder spans(options.trace);
  Ledger ledger(options, spans);
  std::unique_ptr<Workload> workload = MakeWorkload(options.workload, ledger);
  if (!workload) {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }
  Metrics metrics;
  const int root = spans.Begin("bench.run", "bench");
  {
    ScopedSpan span(spans, "check.selftest", "check");
    std::vector<std::string> log;
    if (!RunCheckSelfTest(&log))
      ledger.Fail("check self-test",
                  "a check misbehaved; see run.py --selftest");
  }

  // The untraced run repeats set-up at least three times and for at least a
  // second, so that set-ups of a few milliseconds get enough repeats; the
  // median is setup_s.
  std::vector<double> setup_s;
  double setup_total_s = 0.0;
  do {
    ScopedSpan span(spans, "bench.setup", "bench");
    setup_s.push_back(TimeSeconds([&] { workload->Setup(); }));
    setup_total_s += setup_s.back();
  } while (!options.trace && (setup_s.size() < 3 || setup_total_s < 1.0));

  // The timed phase cycles through the inputs one operation at a time until
  // every input has run once and --seconds have passed.
  std::size_t ops = 0;
  {
    ScopedSpan span(spans, "bench.timed", "bench");
    const std::int64_t start = NowNs();
    const std::size_t inputs = workload->inputs();
    do {
      workload->RunInput(ops % inputs, ops < inputs);
      ++ops;
    } while (ops < inputs ||
             static_cast<double>(NowNs() - start) * 1e-9 < options.seconds);
  }
  const double passes =
      static_cast<double>(ops) / static_cast<double>(workload->inputs());

  if (options.trace) {
    // Two counting passes with the registry enabled; their counts must
    // repeat exactly. Each follows a reference pass over the same
    // operations with telemetry off, so the overhead compares neighbours in
    // time. Library spans are muted: both passes belong to the telemetry
    // layer.
    Counts counts[2];
    std::vector<double> reference_s, counting_s;
    for (int c = 0; c < 2; ++c) {
      {
        ScopedSpan span(spans, "telemetry.reference_pass", "telemetry");
        spans.set_muted(true);
        reference_s.push_back(TimeSeconds([&] { workload->CountingPass(); }));
        spans.set_muted(false);
      }
      ScopedSpan span(spans, "telemetry.counting_pass", "telemetry");
      spans.set_muted(true);
      const Counts before = Snapshot();
      tsf::telemetry::SetEnabled(true);
      counting_s.push_back(TimeSeconds([&] { workload->CountingPass(); }));
      tsf::telemetry::SetEnabled(false);
      counts[c] = Delta(before, Snapshot());
      spans.set_muted(false);
    }
    std::string why;
    const bool exact = SameCounts(counts[0], counts[1], &why);
    if (!exact) ledger.Fail("counting pass", why);
    metrics["counting.repeat_exact"] = exact ? 1.0 : 0.0;
    metrics["counting.counters"] =
        static_cast<double>(counts[0].counters.size());
    const double untraced = Median(reference_s);
    const double counted = Median(counting_s);
    metrics["telemetry.counting_pass_s"] = counted;
    metrics["telemetry.untraced_pass_s"] = untraced;
    metrics["telemetry.enabled_overhead_pct"] =
        100.0 * (Ratio(counted, untraced) - 1.0);
    workload->TraceMetrics(&metrics);
    AddCountMetrics(counts[0], &metrics);
  }
  spans.End(root);

  if (options.trace) {
    AddSpanMetrics(spans, passes, ledger, &metrics);
    if (!options.spans_path.empty() &&
        !spans.WriteChromeTrace(options.spans_path))
      std::fprintf(stderr, "cannot write spans to %s\n",
                   options.spans_path.c_str());
  } else {
    metrics["setup_s"] = Median(setup_s);
    metrics["unit_cost_us"] = workload->UnitCostMicros();
  }
  if (ledger.attempted() == 0) ledger.Fail("run", "no operation ran");
  PrintResult(ledger, metrics);
  return 0;
}

int SelfTest() {
  std::vector<std::string> log;
  const bool ok = RunCheckSelfTest(&log);
  for (const std::string& line : log) std::printf("%s\n", line.c_str());
  std::printf("selftest: %s\n", ok ? "every check fires on its corruption"
                                   : "FAILED");
  return ok ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans <path>]\n"
               "       perfbench --selftest\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // glibc raises its mmap and trim thresholds as large blocks are freed, so
  // by default peak RSS depends on the order in which large blocks happen
  // to be freed and reused. Fixed thresholds return every large block when
  // it is freed, so peak RSS follows the live data.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  mallopt(M_TRIM_THRESHOLD, 128 * 1024);
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") return perfbench::SelfTest();
    if (i + 1 >= argc) return perfbench::Usage();
    const std::string value = argv[++i];
    if (flag == "--workload") options.workload = value;
    else if (flag == "--seed")
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds")
      options.seconds = std::strtod(value.c_str(), nullptr);
    else if (flag == "--trace") options.trace = value == "1";
    else if (flag == "--spans") options.spans_path = value;
    else return perfbench::Usage();
  }
  if (options.workload.empty()) return perfbench::Usage();
  return perfbench::Run(options);
}
