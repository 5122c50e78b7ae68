#include "load/driver.h"

#include <bit>
#include <chrono>
#include <deque>
#include <utility>

#include "util/check.h"

namespace tsf::load {

namespace {

constexpr double kMsPerSecond = 1000.0;

std::uint64_t FnvMix(std::uint64_t hash, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xffU;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::uint64_t FnvMix(std::uint64_t hash, double value) {
  return FnvMix(hash, std::bit_cast<std::uint64_t>(value));
}

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

// The Mesos placement hash mixes each kind as the ordinal the master's own
// event type once gave it (register, disconnect, reregister, launch, finish,
// kill, fail, crash, restart), indexed here by StreamEvent::Kind, so the
// pinned `mesos-load` hashes keep their values.
constexpr std::uint64_t kMesosKindOrdinal[] = {0, 3, 4, 5, 6, 7, 8, 1, 2};

// Emits queue-depth samples at t = 0, interval, 2*interval, ... each
// reflecting the depth just before the events at that instant apply.
class QueueSampler {
 public:
  QueueSampler(double interval, std::vector<QueueSample>* out)
      : interval_(interval), out_(out) {}

  // Called with the (nondecreasing) time of the next event before its depth
  // delta is applied.
  void AdvanceTo(double time) {
    if (interval_ <= 0.0) return;
    while (next_ < time) {
      out_->push_back({next_, depth_});
      next_ += interval_;
    }
  }

  void Apply(long delta) { depth_ += delta; }

  // Emits the trailing samples up to and including the makespan instant.
  void Finish(double makespan) {
    if (interval_ <= 0.0) return;
    while (next_ <= makespan) {
      out_->push_back({next_, depth_});
      next_ += interval_;
    }
  }

  long depth() const { return depth_; }

 private:
  double interval_;
  std::vector<QueueSample>* out_;
  double next_ = 0.0;
  long depth_ = 0;
};

LoadReport InitReport(const DriverConfig& config, const GeneratedStream& stream,
                      std::string substrate, std::string policy) {
  LoadReport report;
  report.substrate = std::move(substrate);
  report.policy = std::move(policy);
  report.rate = config.stream.rate;
  report.total_jobs = stream.jobs.size();
  report.all.label = "all";
  report.per_class.resize(stream.class_names.size());
  for (std::size_t c = 0; c < stream.class_names.size(); ++c)
    report.per_class[c].label = stream.class_names[c];
  return report;
}

}  // namespace

LoadReport RunDesLoad(const DriverConfig& config, const OnlinePolicy& policy,
                      std::vector<SimFault> faults) {
  const GeneratedStream stream =
      GenerateArrivals(config.stream, config.num_machines);
  LoadReport report = InitReport(config, stream, "des", policy.name);

  // Global task slots are dense over (job, task index), matching the
  // simulator's numbering.
  std::vector<std::size_t> slot_base(stream.jobs.size() + 1, 0);
  for (std::size_t j = 0; j < stream.jobs.size(); ++j)
    slot_base[j + 1] =
        slot_base[j] + static_cast<std::size_t>(stream.jobs[j].spec.num_tasks);
  const std::size_t total_tasks = slot_base.back();
  report.total_tasks = total_tasks;

  // pending_since[slot]: when the task last became pending. All of a job's
  // tasks are submitted at its arrival; kills and failures re-arm the clock.
  std::vector<double> pending_since(total_tasks, 0.0);
  for (std::size_t j = 0; j < stream.jobs.size(); ++j)
    for (std::size_t s = slot_base[j]; s < slot_base[j + 1]; ++s)
      pending_since[s] = stream.jobs[j].spec.arrival_time;

  std::vector<StreamEvent> events;
  Workload workload{MakeLoadCluster(config.num_machines), stream.jobs};
  SimOptions options;
  options.stream = &events;
  options.faults = std::move(faults);

  // wall_seconds is a reporting-only measurement; every placement-affecting
  // quantity below derives from virtual-time events.
  // NOLINT-determinism(reporting-only wall-clock measurement)
  const auto wall_start = std::chrono::steady_clock::now();
  const SimResult result =
      Simulate(workload, policy, SimCore::kIncremental, options);
  report.wall_seconds =
      // NOLINT-determinism(reporting-only wall-clock measurement)
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  report.makespan = result.makespan;

  QueueSampler sampler(config.queue_sample_interval, &report.queue_depth);
  std::uint64_t hash = kFnvOffset;
  for (const StreamEvent& event : events) {
    hash = FnvMix(hash, static_cast<std::uint64_t>(event.kind));
    hash = FnvMix(hash, event.time);
    hash = FnvMix(hash, (static_cast<std::uint64_t>(event.user) << 32) |
                            event.task);
    hash = FnvMix(hash, (static_cast<std::uint64_t>(event.machine) << 32) |
                            event.attempt);
    sampler.AdvanceTo(event.time);
    switch (event.kind) {
      case StreamEvent::Kind::kArrive:
        sampler.Apply(stream.jobs.at(event.user).spec.num_tasks);
        break;
      case StreamEvent::Kind::kPlace: {
        const double ttp_ms =
            (event.time - pending_since.at(event.task)) * kMsPerSecond;
        report.all.ttp_ms.Record(ttp_ms);
        report.per_class.at(stream.class_of.at(event.user))
            .ttp_ms.Record(ttp_ms);
        ++report.placements;
        sampler.Apply(-1);
        break;
      }
      case StreamEvent::Kind::kKill:
      case StreamEvent::Kind::kFail:
        pending_since.at(event.task) = event.time;
        ++report.requeues;
        sampler.Apply(+1);
        break;
      case StreamEvent::Kind::kFinish:
      case StreamEvent::Kind::kCrash:
      case StreamEvent::Kind::kRestart:
      case StreamEvent::Kind::kDisconnect:
      case StreamEvent::Kind::kReregister:
        break;
    }
  }
  sampler.Finish(report.makespan);
  TSF_CHECK(sampler.depth() == 0) << "run ended with pending tasks";
  report.placement_hash = hash;
  return report;
}

LoadReport RunMesosLoad(const DriverConfig& config,
                        mesos::AllocatorPolicy policy,
                        std::vector<mesos::Fault> faults) {
  const GeneratedStream stream =
      GenerateArrivals(config.stream, config.num_machines);
  LoadReport report = InitReport(
      config, stream, "mesos",
      policy == mesos::AllocatorPolicy::kTsf ? "TSF" : "DRF");

  const std::vector<mesos::FrameworkSpec> frameworks = ToFrameworks(stream);
  std::uint64_t total_tasks = 0;
  for (const mesos::FrameworkSpec& fw : frameworks)
    total_tasks += static_cast<std::uint64_t>(fw.num_tasks);
  report.total_tasks = total_tasks;

  mesos::ClusterConfig cluster;
  cluster.slaves = MakeLoadSlaves(config.num_machines);
  cluster.policy = policy;
  cluster.seed = config.stream.seed;
  cluster.sample_interval = 0.0;

  std::vector<StreamEvent> events;
  mesos::RunOptions options;
  options.faults = std::move(faults);
  options.stream = &events;

  // wall_seconds is a reporting-only measurement; every placement-affecting
  // quantity below derives from virtual-time events.
  // NOLINT-determinism(reporting-only wall-clock measurement)
  const auto wall_start = std::chrono::steady_clock::now();
  const mesos::SimOutcome outcome =
      mesos::RunCluster(cluster, frameworks, options);
  report.wall_seconds =
      // NOLINT-determinism(reporting-only wall-clock measurement)
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  report.makespan = outcome.makespan;

  // The Mesos substrate assigns a fresh launch id per (re)launch, so pending
  // times are matched FIFO per framework: registration enqueues one entry
  // per task, a launch consumes the oldest, kills/failures re-enqueue.
  std::vector<std::deque<double>> pending_since(frameworks.size());

  QueueSampler sampler(config.queue_sample_interval, &report.queue_depth);
  std::uint64_t hash = kFnvOffset;
  for (const StreamEvent& event : events) {
    hash = FnvMix(hash,
                  kMesosKindOrdinal[static_cast<std::size_t>(event.kind)]);
    hash = FnvMix(hash, event.time);
    hash = FnvMix(hash, (static_cast<std::uint64_t>(event.user) << 32) |
                            event.task);
    hash = FnvMix(hash, static_cast<std::uint64_t>(event.machine));
    sampler.AdvanceTo(event.time);
    std::deque<double>& queue = pending_since.at(event.user);
    switch (event.kind) {
      case StreamEvent::Kind::kArrive: {
        const long n = frameworks.at(event.user).num_tasks;
        for (long t = 0; t < n; ++t) queue.push_back(event.time);
        sampler.Apply(n);
        break;
      }
      case StreamEvent::Kind::kPlace: {
        TSF_CHECK(!queue.empty()) << "launch with no pending task";
        const double ttp_ms = (event.time - queue.front()) * kMsPerSecond;
        queue.pop_front();
        report.all.ttp_ms.Record(ttp_ms);
        report.per_class.at(stream.class_of.at(event.user))
            .ttp_ms.Record(ttp_ms);
        ++report.placements;
        sampler.Apply(-1);
        break;
      }
      case StreamEvent::Kind::kKill:
      case StreamEvent::Kind::kFail:
        queue.push_back(event.time);
        ++report.requeues;
        sampler.Apply(+1);
        break;
      case StreamEvent::Kind::kFinish:
      case StreamEvent::Kind::kCrash:
      case StreamEvent::Kind::kRestart:
      case StreamEvent::Kind::kDisconnect:
      case StreamEvent::Kind::kReregister:
        break;
    }
  }
  sampler.Finish(report.makespan);
  TSF_CHECK(sampler.depth() == 0) << "run ended with pending tasks";
  report.placement_hash = hash;
  return report;
}

}  // namespace tsf::load
