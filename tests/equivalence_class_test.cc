// Differential tests for the equivalence-class (collapsed) cluster engine:
// the collapsed OnlineScheduler must emit placement streams bit-identical
// to the legacy flat path and to the ReferenceScheduler, across every
// policy, under fault injection (machine crashes and restores landing
// inside populated classes), and on trace-profile workloads. Any deviation
// is reported at the first diverging event, not as a bare hash mismatch.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "chaos/scenario.h"
#include "core/cluster.h"
#include "sim/des.h"
#include "trace/google.h"

namespace tsf::chaos {
namespace {

// First-divergence comparison of two checked scenario runs.
void ExpectSameStream(const ScenarioReport& flat,
                      const ScenarioReport& collapsed,
                      const std::string& label) {
  const std::size_t n = std::min(flat.stream.size(), collapsed.stream.size());
  for (std::size_t i = 0; i < n; ++i)
    ASSERT_EQ(FormatStreamEvent(flat.stream[i]),
              FormatStreamEvent(collapsed.stream[i]))
        << label << ": first divergence at event #" << i << " of "
        << flat.stream.size();
  EXPECT_EQ(flat.stream.size(), collapsed.stream.size())
      << label << ": streams agree on the first " << n
      << " events but lengths differ";
  EXPECT_EQ(flat.stream_hash, collapsed.stream_hash) << label;
}

// The core contract: collapsed == flat for all six policies, across seeds,
// with fault plans whose crash/restore events hit machines in populated
// equivalence classes (RandomUniformChaosWorkload guarantees multi-member
// classes; whitelisted jobs split them).
TEST(EquivalenceClassTest, CollapsedMatchesFlatAcrossPoliciesSeedsAndFaults) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const DesScenario scenario = RandomUniformDesScenario(seed);
    // The generator must actually produce collapsible clusters, or this
    // test exercises nothing.
    ASSERT_LT(MachineClassIndex::CountClasses(scenario.workload.cluster),
              scenario.workload.cluster.num_machines())
        << "seed " << seed << " produced an uncollapsible cluster";
    for (const OnlinePolicy& policy : AllOnlinePolicies()) {
      std::ostringstream label;
      label << policy.name << " seed=" << seed;
      const ScenarioReport flat =
          RunDesScenario(scenario.workload, policy, scenario.plan,
                         SimCore::kIncremental, ClusterMode::kFlat);
      const ScenarioReport collapsed =
          RunDesScenario(scenario.workload, policy, scenario.plan,
                         SimCore::kIncremental, ClusterMode::kCollapsed);
      EXPECT_TRUE(flat.ok())
          << label.str() << " (flat): " << ToString(flat.violations.front());
      EXPECT_TRUE(collapsed.ok()) << label.str() << " (collapsed): "
                                  << ToString(collapsed.violations.front());
      ExpectSameStream(flat, collapsed, label.str());
    }
  }
}

// The collapsed production core must also match the retained linear-scan
// ReferenceScheduler (always flat — it is the executable spec).
TEST(EquivalenceClassTest, CollapsedMatchesReferenceScheduler) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const DesScenario scenario = RandomUniformDesScenario(seed);
    for (const OnlinePolicy& policy : AllOnlinePolicies()) {
      std::ostringstream label;
      label << policy.name << " seed=" << seed << " (vs reference)";
      const ScenarioReport reference =
          RunDesScenario(scenario.workload, policy, scenario.plan,
                         SimCore::kReference, ClusterMode::kFlat);
      const ScenarioReport collapsed =
          RunDesScenario(scenario.workload, policy, scenario.plan,
                         SimCore::kIncremental, ClusterMode::kCollapsed);
      EXPECT_TRUE(reference.ok()) << label.str() << ": "
                                  << ToString(reference.violations.front());
      ExpectSameStream(reference, collapsed, label.str());
    }
  }
}

// kAuto must agree with both forced modes (it only picks between them).
TEST(EquivalenceClassTest, AutoModeMatchesForcedModes) {
  const DesScenario scenario = RandomUniformDesScenario(11);
  const OnlinePolicy policy = OnlinePolicy::Tsf();
  const ScenarioReport auto_mode =
      RunDesScenario(scenario.workload, policy, scenario.plan,
                     SimCore::kIncremental, ClusterMode::kAuto);
  const ScenarioReport flat =
      RunDesScenario(scenario.workload, policy, scenario.plan,
                     SimCore::kIncremental, ClusterMode::kFlat);
  EXPECT_TRUE(auto_mode.ok());
  ExpectSameStream(flat, auto_mode, "kAuto vs kFlat");
}

// Trace-profile workloads (GoogleTraceConfig::num_attribute_profiles) are
// the trace-scale shape bench_scale runs: many machines per class, jobs
// with attribute constraints. Raw simulator streams must be identical and
// the derived task records must agree task-for-task.
TEST(EquivalenceClassTest, TraceProfileWorkloadCollapsedMatchesFlat) {
  trace::GoogleTraceConfig config;
  config.num_machines = 80;
  config.num_jobs = 60;
  config.num_attribute_profiles = 2;
  config.seed = 7;
  const Workload workload = trace::SynthesizeGoogleWorkload(config);
  ASSERT_LE(2 * MachineClassIndex::CountClasses(workload.cluster),
            workload.cluster.num_machines())
      << "profile menu failed to collapse the fleet";

  auto run = [&](ClusterMode mode, std::vector<StreamEvent>* stream) {
    SimOptions options;
    options.cluster_mode = mode;
    options.stream = stream;
    return Simulate(workload, OnlinePolicy::Tsf(), SimCore::kIncremental,
                    options);
  };
  std::vector<StreamEvent> flat_stream, collapsed_stream;
  const SimResult flat = run(ClusterMode::kFlat, &flat_stream);
  const SimResult collapsed = run(ClusterMode::kCollapsed, &collapsed_stream);

  EXPECT_EQ(flat.makespan, collapsed.makespan);
  ASSERT_EQ(flat_stream.size(), collapsed_stream.size());
  for (std::size_t i = 0; i < flat_stream.size(); ++i) {
    ASSERT_TRUE(flat_stream[i] == collapsed_stream[i])
        << "first divergence at event #" << i;
  }
  ASSERT_EQ(flat.tasks.size(), collapsed.tasks.size());
  for (std::size_t t = 0; t < flat.tasks.size(); ++t) {
    EXPECT_EQ(flat.tasks[t].machine, collapsed.tasks[t].machine) << "task " << t;
    EXPECT_EQ(flat.tasks[t].schedule, collapsed.tasks[t].schedule) << "task " << t;
    EXPECT_EQ(flat.tasks[t].finish, collapsed.tasks[t].finish) << "task " << t;
  }
}

// A hand-built crash/restore pair inside a populated class: 6 machines in
// 2 classes; a member of the loaded class goes down mid-flight (killing
// in-flight tasks) and comes back. The class upper bound goes stale-high
// during the outage — streams must still match exactly.
TEST(EquivalenceClassTest, CrashAndRestoreInsidePopulatedClass) {
  Workload workload;
  for (int m = 0; m < 4; ++m)
    workload.cluster.AddMachine(
        ResourceVector(std::vector<double>{4.0, 4.0}),
        AttributeSet(std::vector<AttributeId>{0}));
  for (int m = 0; m < 2; ++m)
    workload.cluster.AddMachine(
        ResourceVector(std::vector<double>{8.0, 2.0}),
        AttributeSet(std::vector<AttributeId>{1}));
  for (UserId i = 0; i < 3; ++i) {
    JobSpec spec;
    spec.id = i;
    spec.name = "j" + std::to_string(i);
    spec.demand = ResourceVector(std::vector<double>{1.0, 0.5 + 0.5 * i});
    spec.arrival_time = static_cast<double>(i);
    spec.num_tasks = 12;
    if (i == 1)
      spec.constraint =
          Constraint::RequireAttributes(AttributeSet(std::vector<AttributeId>{0}));
    workload.jobs.push_back(MakeJitteredJob(std::move(spec), 10.0, 0.2, 17 + i));
  }

  FaultPlan plan;
  plan.events.push_back({5.0, FaultKind::kMachineCrash, 1, 0.0});
  plan.events.push_back({7.0, FaultKind::kTaskFailure, 2, 0.0});
  plan.events.push_back({12.0, FaultKind::kMachineRestart, 1, 0.0});

  for (const OnlinePolicy& policy : AllOnlinePolicies()) {
    const ScenarioReport flat = RunDesScenario(
        workload, policy, plan, SimCore::kIncremental, ClusterMode::kFlat);
    const ScenarioReport collapsed = RunDesScenario(
        workload, policy, plan, SimCore::kIncremental, ClusterMode::kCollapsed);
    EXPECT_TRUE(collapsed.ok())
        << policy.name << ": " << ToString(collapsed.violations.front());
    ExpectSameStream(flat, collapsed, policy.name);
  }
}

// The Mesos substrate has its own master/allocator and never collapses;
// this PR must leave it fully deterministic and invariant-clean.
TEST(EquivalenceClassTest, MesosSubstrateStaysDeterministic) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const MesosScenario scenario = RandomMesosScenario(seed);
    const ScenarioReport first = RunMesosScenario(scenario);
    const ScenarioReport second = RunMesosScenario(scenario);
    EXPECT_TRUE(first.ok()) << "mesos seed " << seed << ": "
                            << ToString(first.violations.front());
    EXPECT_EQ(first.stream_hash, second.stream_hash) << "mesos seed " << seed;
  }
}

}  // namespace
}  // namespace tsf::chaos
