// Golden determinism tests: the placement streams of fixed (policy, seed)
// chaos scenarios are pinned by FNV-1a hash in tests/golden/, plus one
// fully-expanded stream for first-divergence diffing. Any change to
// scheduler tie-breaking, event ordering, or fault semantics shows up here
// as an exact diff instead of a silent behavior shift.
//
// To bless intentional changes:  TSF_UPDATE_GOLDEN=1 ctest -R GoldenStream
// (rewrites the files under tests/golden/, then commit the diff).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "chaos/invariants.h"
#include "chaos/scenario.h"
#include "load/driver.h"
#include "load/stream.h"
#include "sim/des.h"
#include "trace/google.h"

namespace tsf::chaos {
namespace {

constexpr std::uint64_t kSeeds[] = {1, 2, 3, 4};
constexpr const char* kHashFile = TSF_GOLDEN_DIR "/stream_hashes.txt";
// The fully-expanded stream kept for first-divergence diffs.
constexpr const char* kStreamFile = TSF_GOLDEN_DIR "/des_TSF_seed1.stream";

bool UpdateMode() { return std::getenv("TSF_UPDATE_GOLDEN") != nullptr; }

std::string HashHex(std::uint64_t hash) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(hash));
  return buffer;
}

// The overload regime of the Mesos master: a rate-2 Poisson stream on the
// 60-machine load fleet for 300 virtual seconds, well past the saturation
// knee, so hundreds of frameworks sit in a long decline backlog.
load::DriverConfig OverloadConfig(std::uint64_t seed) {
  load::DriverConfig config;
  config.stream.rate = 2.0;
  config.stream.duration = 300.0;
  config.stream.seed = seed;
  config.num_machines = 60;
  return config;
}

// One of every Mesos fault kind, struck while the backlog is deep. Each
// framework target is the largest job arriving in the 20 s before its
// fault: registered by then, and (on seed 1) still launching tasks until
// the backlog drains long after the arrival window closes.
std::vector<mesos::Fault> OverloadFaults(const load::DriverConfig& config) {
  const load::GeneratedStream stream =
      load::GenerateArrivals(config.stream, config.num_machines);
  auto backlog = [&](double time) {
    std::size_t largest = 0;
    long most = -1;
    for (std::size_t j = 0; j < stream.jobs.size(); ++j) {
      const JobSpec& spec = stream.jobs[j].spec;
      if (spec.arrival_time < time - 20.0 || spec.arrival_time >= time - 1.0)
        continue;
      if (spec.num_tasks > most) {
        most = spec.num_tasks;
        largest = j;
      }
    }
    return largest;
  };
  using Kind = mesos::Fault::Kind;
  const std::size_t disconnected = backlog(150.0);
  return {{60.0, Kind::kOfferDrop, backlog(60.0), 3.0},
          {80.0, Kind::kSlaveCrash, 7, 0.0},
          {95.0, Kind::kTaskFailure, 12, 0.0},
          {110.0, Kind::kOfferRescind, backlog(110.0), 0.0},
          {120.0, Kind::kSlaveRestart, 7, 0.0},
          {130.0, Kind::kDeclineTimeout, backlog(130.0), 15.0},
          {150.0, Kind::kFrameworkDisconnect, disconnected, 0.0},
          {175.0, Kind::kFrameworkReregister, disconnected, 0.0},
          {190.0, Kind::kTaskFailure, 3, 0.0},
          {200.0, Kind::kSlaveCrash, 20, 0.0},
          {230.0, Kind::kSlaveRestart, 20, 0.0}};
}

// FNV-1a over the bytes of one 64-bit value.
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

// Everything trace synthesis decides: each machine's capacity and
// attributes, and each job's constraint, demand, arrival and task runtimes.
std::uint64_t HashWorkload(const Workload& workload) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const Machine& machine : workload.cluster.machines()) {
    for (std::size_t r = 0; r < machine.capacity.dimension(); ++r)
      hash = FnvMix(hash, machine.capacity[r]);
    hash = FnvMix(hash, std::uint64_t{machine.attributes.size()});
    for (const AttributeId id : machine.attributes.ids())
      hash = FnvMix(hash, std::uint64_t{id});
  }
  for (const SimJob& job : workload.jobs) {
    const Constraint& constraint = job.spec.constraint;
    hash = FnvMix(hash, static_cast<std::uint64_t>(constraint.kind()));
    hash = FnvMix(hash, std::uint64_t{constraint.required_attributes().size()});
    for (const AttributeId id : constraint.required_attributes().ids())
      hash = FnvMix(hash, std::uint64_t{id});
    hash = FnvMix(hash, std::uint64_t{constraint.machine_list().size()});
    for (const MachineId m : constraint.machine_list())
      hash = FnvMix(hash, std::uint64_t{m});
    for (std::size_t r = 0; r < job.spec.demand.dimension(); ++r)
      hash = FnvMix(hash, job.spec.demand[r]);
    hash = FnvMix(hash, job.spec.arrival_time);
    hash = FnvMix(hash, static_cast<std::uint64_t>(job.spec.num_tasks));
    for (const double runtime : job.task_runtimes)
      hash = FnvMix(hash, runtime);
  }
  return hash;
}

// The paper's workload shape (1,000 machines with i.i.d. attributes, ~4,500
// jobs whose constraints are attribute requirements), with task counts cut
// to a tenth for tier-1 time and runtimes stretched so the fleet still
// queues and DRF, TSF and FIFO place differently. Nearly every machine is
// its own class, so the DES runs its flat engine against hundreds of
// distinct constraints.
trace::GoogleTraceConfig ScaledPaperTrace() {
  trace::GoogleTraceConfig config;
  config.seed = 1;
  config.job_size_scale = 0.1;
  config.runtime_scale = 20.0;
  return config;
}

// key -> hash, where key is "des <policy> seed=<s>", "des-collapsed
// <policy> seed=<s>", "des-trace <policy> seed=<s>", "mesos seed=<s>",
// "mesos-load <lane> seed=<s>", or "trace <fleet> seed=<s>".
std::map<std::string, std::string> ComputeHashes() {
  std::map<std::string, std::string> hashes;
  for (const std::uint64_t seed : kSeeds) {
    const DesScenario scenario = RandomDesScenario(seed);
    for (const OnlinePolicy& policy : AllOnlinePolicies()) {
      const ScenarioReport report =
          RunDesScenario(scenario.workload, policy, scenario.plan);
      EXPECT_TRUE(report.ok())
          << policy.name << " seed " << seed << ": "
          << ToString(report.violations.front());
      hashes["des " + policy.name + " seed=" + std::to_string(seed)] =
          HashHex(report.stream_hash);
    }
    // Collapsed-cluster scenarios: the uniform workloads collapse into a
    // few multi-member equivalence classes. The forced-collapsed stream is
    // the pinned golden; the forced-flat run must match it exactly (the
    // bit-identity contract of the class engine, checked here on every run).
    const DesScenario uniform = RandomUniformDesScenario(seed);
    for (const OnlinePolicy& policy : AllOnlinePolicies()) {
      const ScenarioReport collapsed =
          RunDesScenario(uniform.workload, policy, uniform.plan,
                         SimCore::kIncremental, ClusterMode::kCollapsed);
      const ScenarioReport flat =
          RunDesScenario(uniform.workload, policy, uniform.plan,
                         SimCore::kIncremental, ClusterMode::kFlat);
      EXPECT_TRUE(collapsed.ok())
          << "collapsed " << policy.name << " seed " << seed << ": "
          << ToString(collapsed.violations.front());
      EXPECT_EQ(collapsed.stream_hash, flat.stream_hash)
          << "collapsed and flat streams diverged for " << policy.name
          << " seed " << seed;
      hashes["des-collapsed " + policy.name + " seed=" + std::to_string(seed)] =
          HashHex(collapsed.stream_hash);
    }
    const ScenarioReport mesos = RunMesosScenario(RandomMesosScenario(seed));
    EXPECT_TRUE(mesos.ok())
        << "mesos seed " << seed << ": " << ToString(mesos.violations.front());
    hashes["mesos seed=" + std::to_string(seed)] = HashHex(mesos.stream_hash);
  }
  // Overload lanes through the load driver: the Mesos placement stream of
  // a long decline backlog, fault-free under both allocators and with one
  // of every fault kind under TSF.
  for (const std::uint64_t seed : {1, 2}) {
    const load::DriverConfig config = OverloadConfig(seed);
    for (const mesos::AllocatorPolicy policy :
         {mesos::AllocatorPolicy::kTsf, mesos::AllocatorPolicy::kDrf}) {
      const load::LoadReport report = load::RunMesosLoad(config, policy);
      EXPECT_EQ(report.placements, report.total_tasks);
      hashes["mesos-load " + report.policy + " seed=" +
             std::to_string(seed)] = HashHex(report.placement_hash);
    }
  }
  const load::DriverConfig config = OverloadConfig(1);
  const load::LoadReport faulted = load::RunMesosLoad(
      config, mesos::AllocatorPolicy::kTsf, OverloadFaults(config));
  EXPECT_GT(faulted.requeues, 0u);
  hashes["mesos-load TSF+faults seed=1"] = HashHex(faulted.placement_hash);

  // Trace synthesis: the paper fleet (1,000 machines, i.i.d. attributes)
  // and a 10k-machine fleet drawn from 8 attribute profiles.
  for (const std::uint64_t seed : {1, 2}) {
    trace::GoogleTraceConfig paper;
    paper.seed = seed;
    hashes["trace paper seed=" + std::to_string(seed)] =
        HashHex(HashWorkload(trace::SynthesizeGoogleWorkload(paper)));
  }
  trace::GoogleTraceConfig profiled;
  profiled.num_machines = 10000;
  profiled.num_attribute_profiles = 8;
  hashes["trace profiles=8 machines=10000 seed=1"] =
      HashHex(HashWorkload(trace::SynthesizeGoogleWorkload(profiled)));

  // Placement streams of the scaled paper trace on the flat DES engine.
  const Workload paper_trace = trace::SynthesizeGoogleWorkload(ScaledPaperTrace());
  EXPECT_GT(2 * MachineClassIndex::CountClasses(paper_trace.cluster),
            paper_trace.cluster.num_machines())
      << "the paper trace must stay on the flat engine";
  for (const OnlinePolicy& policy :
       {OnlinePolicy::Fifo(), OnlinePolicy::Drf(), OnlinePolicy::Tsf()}) {
    std::vector<StreamEvent> stream;
    SimOptions options;
    options.stream = &stream;
    Simulate(paper_trace, policy, SimCore::kIncremental, options);
    hashes["des-trace " + policy.name + " seed=1"] =
        HashHex(HashStream(stream));
  }
  return hashes;
}

TEST(GoldenStreamTest, HashesMatchGolden) {
  const std::map<std::string, std::string> hashes = ComputeHashes();

  if (UpdateMode()) {
    std::ofstream out(kHashFile);
    ASSERT_TRUE(out.good()) << "cannot write " << kHashFile;
    out << "# (policy, seed) -> FNV-1a stream hash; regenerate with\n"
        << "# TSF_UPDATE_GOLDEN=1 ctest -R GoldenStream\n";
    for (const auto& [key, hash] : hashes) out << key << " " << hash << "\n";
    GTEST_SKIP() << "golden hashes rewritten (" << hashes.size()
                 << " entries)";
  }

  std::ifstream in(kHashFile);
  ASSERT_TRUE(in.good()) << "missing " << kHashFile
                         << "; run once with TSF_UPDATE_GOLDEN=1";
  std::map<std::string, std::string> golden;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line.front() == '#') continue;
    const std::size_t split = line.rfind(' ');
    ASSERT_NE(split, std::string::npos) << "malformed golden line: " << line;
    golden[line.substr(0, split)] = line.substr(split + 1);
  }

  EXPECT_EQ(golden.size(), hashes.size());
  for (const auto& [key, hash] : hashes) {
    const auto it = golden.find(key);
    if (it == golden.end()) {
      ADD_FAILURE() << "no golden entry for '" << key << "'";
      continue;
    }
    EXPECT_EQ(it->second, hash)
        << "stream hash changed for '" << key
        << "' — a deliberate behavior change needs TSF_UPDATE_GOLDEN=1";
  }
}

TEST(GoldenStreamTest, FullStreamMatchesWithFirstDivergenceDiff) {
  const DesScenario scenario = RandomDesScenario(1);
  const ScenarioReport report =
      RunDesScenario(scenario.workload, OnlinePolicy::Tsf(), scenario.plan);
  std::vector<std::string> lines;
  for (const StreamEvent& event : report.stream)
    lines.push_back(FormatStreamEvent(event));

  if (UpdateMode()) {
    std::ofstream out(kStreamFile);
    ASSERT_TRUE(out.good()) << "cannot write " << kStreamFile;
    for (const std::string& line : lines) out << line << "\n";
    GTEST_SKIP() << "golden stream rewritten (" << lines.size() << " events)";
  }

  std::ifstream in(kStreamFile);
  ASSERT_TRUE(in.good()) << "missing " << kStreamFile
                         << "; run once with TSF_UPDATE_GOLDEN=1";
  std::vector<std::string> golden;
  std::string line;
  while (std::getline(in, line)) golden.push_back(line);

  const std::size_t n = std::min(golden.size(), lines.size());
  for (std::size_t i = 0; i < n; ++i)
    ASSERT_EQ(lines[i], golden[i])
        << "first divergence at event #" << i << " of " << lines.size();
  EXPECT_EQ(lines.size(), golden.size())
      << "streams agree on the first " << n << " events but lengths differ";
}

}  // namespace
}  // namespace tsf::chaos
