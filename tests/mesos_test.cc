// Tests for the Mesos-like offer substrate, including the Fig. 5 share
// plateaus the paper derives analytically for the Table II micro-benchmark.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>

#include "load/stream.h"
#include "mesos/mesos.h"

namespace tsf::mesos {
namespace {

TEST(PaperFleet, MatchesExperimentSetup) {
  const std::vector<SlaveSpec> fleet = PaperFleet();
  ASSERT_EQ(fleet.size(), 50u);
  for (int n = 0; n < 25; ++n) {
    EXPECT_DOUBLE_EQ(fleet[n].capacity[0], 1.0);
    EXPECT_DOUBLE_EQ(fleet[n].capacity[1], 1024.0);
  }
  for (int n = 25; n < 50; ++n) EXPECT_DOUBLE_EQ(fleet[n].capacity[0], 2.0);
}

TEST(TableTwoJobs, MonopolyTaskCountsMatchTableII) {
  // Table II's h_i row: 75, 100, 100, 75 (CPU-bound for jobs 1 and 4,
  // memory caps jobs 2 and 3 at two 512 MB tasks per 1 GB node).
  const std::vector<SlaveSpec> fleet = PaperFleet();
  const std::vector<FrameworkSpec> jobs = TableTwoJobs();
  const double expected_h[] = {75.0, 100.0, 100.0, 75.0};
  for (std::size_t f = 0; f < jobs.size(); ++f) {
    double h = 0.0;
    for (const SlaveSpec& slave : fleet)
      h += slave.capacity.DivisibleTaskCount(jobs[f].demand);
    EXPECT_NEAR(h, expected_h[f], 1e-9) << jobs[f].name;
  }
}

TEST(RunCluster, SingleFrameworkMonopolizes) {
  ClusterConfig config;
  config.slaves = {{ResourceVector{2.0, 1024.0}, "n1"},
                   {ResourceVector{2.0, 1024.0}, "n2"}};
  config.sample_interval = 0.0;
  FrameworkSpec fw{.name = "solo", .start_time = 0.0, .num_tasks = 8,
                   .demand = ResourceVector{1.0, 256.0}, .mean_runtime = 10.0,
                   .runtime_jitter = 0.0};
  const SimOutcome outcome = RunCluster(config, {fw});
  ASSERT_EQ(outcome.frameworks.size(), 1u);
  EXPECT_EQ(outcome.frameworks[0].tasks_run, 8);
  // 4 concurrent slots → two waves of 10 s.
  EXPECT_NEAR(outcome.frameworks[0].completion_time, 20.0, 1e-9);
}

TEST(RunCluster, WhitelistIsHonored) {
  ClusterConfig config;
  config.slaves = {{ResourceVector{4.0, 1024.0}, "n1"},
                   {ResourceVector{4.0, 1024.0}, "n2"}};
  config.sample_interval = 0.0;
  FrameworkSpec fw{.name = "pinned", .start_time = 0.0, .num_tasks = 8,
                   .demand = ResourceVector{1.0, 128.0}, .mean_runtime = 5.0,
                   .runtime_jitter = 0.0, .whitelist = {1}};
  const SimOutcome outcome = RunCluster(config, {fw});
  // Only node 2's four slots usable → two waves.
  EXPECT_NEAR(outcome.frameworks[0].completion_time, 10.0, 1e-9);
}

TEST(RunCluster, TsfSharesCapacityByTaskShare) {
  // Two identical frameworks on one 4-slot node: each runs two at a time.
  ClusterConfig config;
  config.slaves = {{ResourceVector{4.0, 2048.0}, "n1"}};
  config.sample_interval = 0.0;
  std::vector<FrameworkSpec> fws(2);
  for (int f = 0; f < 2; ++f)
    fws[f] = {.name = "fw" + std::to_string(f), .start_time = 0.0,
              .num_tasks = 10, .demand = ResourceVector{1.0, 256.0},
              .mean_runtime = 4.0, .runtime_jitter = 0.0};
  const SimOutcome outcome = RunCluster(config, fws);
  // 20 tasks, 4 slots, 4 s each → makespan 20 s, both finish together.
  EXPECT_NEAR(outcome.frameworks[0].completion_time,
              outcome.frameworks[1].completion_time, 4.0 + 1e-9);
}

// The analytically derived share plateaus of Fig. 5 (Sec. VI-A2), with
// runtime jitter disabled for exactness:
//   t in (10, ~job2 done): job2 runs 50 tasks on nodes 1-25 (share 1/2),
//                          job1 runs 50 on nodes 26-50 (share 2/3).
//   t in (150+, job4 done): jobs 3 & 4 split the 20 whitelisted nodes
//                          (share 1/5 each); job1 holds 30 nodes (3/5).
TEST(RunCluster, Fig5SharePlateausMatchPaper) {
  ClusterConfig config;
  config.slaves = PaperFleet();
  config.sample_interval = 1.0;
  config.seed = 3;
  std::vector<FrameworkSpec> jobs = TableTwoJobs();
  for (FrameworkSpec& job : jobs) job.runtime_jitter = 0.0;
  // Stretch runtimes so plateaus are long and sampling is unambiguous.
  const SimOutcome outcome = RunCluster(config, jobs);

  auto share_at = [&](double time, std::size_t framework) {
    double best_delta = 1e18;
    double value = -1.0;
    for (const SharePoint& point : outcome.timeline) {
      const double delta = std::abs(point.time - time);
      if (delta < best_delta) {
        best_delta = delta;
        value = point.task_share[framework];
      }
    }
    return value;
  };

  // Before job2 arrives, job1 monopolizes: 75 slots for 1000 tasks, share
  // 75/75 = 1.
  EXPECT_NEAR(share_at(5.0, 0), 1.0, 0.05);
  // Job2's plateau. Slots hand over as job1 tasks finish (mean 23.2 s), so
  // sample after the transition settles: job2 at 1/2, job1 at 2/3.
  EXPECT_NEAR(share_at(45.0, 1), 0.5, 0.06);
  EXPECT_NEAR(share_at(45.0, 0), 2.0 / 3.0, 0.06);
  // Jobs 3 & 4 arrive at t=150 and split the 20 whitelisted nodes once
  // job1's tasks there drain; the paper reports both plateaus at 1/5 (the
  // exact level depends on the integer packing mix, so allow a band) and
  // job1 at 3/5.
  EXPECT_NEAR(share_at(200.0, 2), 0.21, 0.05);
  EXPECT_NEAR(share_at(200.0, 3), 0.21, 0.05);
  EXPECT_NEAR(std::abs(share_at(200.0, 2) - share_at(200.0, 3)), 0.0, 0.06);
  EXPECT_NEAR(share_at(200.0, 0), 0.6, 0.05);
}

TEST(RunCluster, DrfAllocatorUsesDominantShares) {
  // Node <8 CPU, 8192 MB>; fw A <4,512> has dominant share 1/2 per task,
  // fw B <1,512> has 1/8. DRF equalizes n_A/2 = n_B/8 → steady state is
  // 1 A + 4 B concurrently (CPU exactly full). With 40 A-tasks and 160
  // B-tasks both finish after 40 waves of 10 s.
  ClusterConfig config;
  config.slaves = {{ResourceVector{8.0, 8192.0}, "n1"}};
  config.policy = AllocatorPolicy::kDrf;
  config.sample_interval = 0.0;
  std::vector<FrameworkSpec> fws(2);
  fws[0] = {.name = "big", .start_time = 0.0, .num_tasks = 40,
            .demand = ResourceVector{4.0, 512.0}, .mean_runtime = 10.0,
            .runtime_jitter = 0.0};
  fws[1] = {.name = "small", .start_time = 0.0, .num_tasks = 160,
            .demand = ResourceVector{1.0, 512.0}, .mean_runtime = 10.0,
            .runtime_jitter = 0.0};
  const SimOutcome outcome = RunCluster(config, fws);
  EXPECT_NEAR(outcome.frameworks[0].completion_time, 400.0, 10.0 + 1e-9);
  EXPECT_NEAR(outcome.frameworks[1].completion_time, 400.0, 10.0 + 1e-9);
}

TEST(RunCluster, TimelineSamplesCoverTheRun) {
  ClusterConfig config;
  config.slaves = {{ResourceVector{2.0, 1024.0}, "n1"}};
  config.sample_interval = 2.0;
  FrameworkSpec fw{.name = "solo", .start_time = 0.0, .num_tasks = 6,
                   .demand = ResourceVector{1.0, 256.0}, .mean_runtime = 10.0,
                   .runtime_jitter = 0.0};
  const SimOutcome outcome = RunCluster(config, {fw});
  ASSERT_FALSE(outcome.timeline.empty());
  EXPECT_DOUBLE_EQ(outcome.timeline.front().time, 0.0);
  EXPECT_GE(outcome.timeline.back().time, outcome.makespan - 2.0);
  for (std::size_t k = 1; k < outcome.timeline.size(); ++k)
    EXPECT_GT(outcome.timeline[k].time, outcome.timeline[k - 1].time);
}

TEST(RunCluster, LateStartersWaitUntilRegistered) {
  ClusterConfig config;
  config.slaves = {{ResourceVector{4.0, 4096.0}, "n1"}};
  config.sample_interval = 0.0;
  std::vector<FrameworkSpec> fws(2);
  // Five slots; "early" takes four, leaving one free for the late arrival.
  fws[0] = {.name = "early", .start_time = 0.0, .num_tasks = 4,
            .demand = ResourceVector{0.8, 512.0}, .mean_runtime = 100.0,
            .runtime_jitter = 0.0};
  fws[1] = {.name = "late", .start_time = 50.0, .num_tasks = 1,
            .demand = ResourceVector{0.5, 512.0}, .mean_runtime = 10.0,
            .runtime_jitter = 0.0};
  const SimOutcome outcome = RunCluster(config, fws);
  EXPECT_DOUBLE_EQ(outcome.frameworks[1].first_task_time, 50.0);
}

TEST(RunClusterDeathTest, RejectsImpossibleFramework) {
  ClusterConfig config;
  config.slaves = {{ResourceVector{1.0, 128.0}, "n1"}};
  FrameworkSpec fw{.name = "huge", .start_time = 0.0, .num_tasks = 1,
                   .demand = ResourceVector{4.0, 4096.0}};
  EXPECT_DEATH(RunCluster(config, {fw}), "no slave fits");
}


// --- offer-path regression + fault injection --------------------------------

TEST(RunCluster, ExactlyFullSlavesAreSkippedNotOffered) {
  // Regression: a slave whose free capacity hits exactly zero mid-round
  // used to reach the fit probe and produce empty offers the framework
  // could only decline; the allocator now short-circuits it.
  ClusterConfig config;
  config.slaves = {{ResourceVector{2.0, 512.0}, "n1"},
                   {ResourceVector{2.0, 512.0}, "n2"}};
  config.sample_interval = 0.0;
  // Demand {1 CPU, 256 MB} on {2, 512} slaves: two tasks leave free
  // capacity at exactly <0, 0>.
  FrameworkSpec fw{.name = "fill", .start_time = 0.0, .num_tasks = 12,
                   .demand = ResourceVector{1.0, 256.0}, .mean_runtime = 4.0,
                   .runtime_jitter = 0.0};
  const SimOutcome outcome = RunCluster(config, {fw});
  EXPECT_EQ(outcome.frameworks[0].tasks_run, 12);
  EXPECT_EQ(outcome.stats.offers_accepted, 12);
  EXPECT_GT(outcome.stats.zero_slave_skips, 0);
  EXPECT_EQ(outcome.stats.down_slave_skips, 0);
}

long CountKind(const std::vector<StreamEvent>& stream,
               StreamEvent::Kind kind) {
  long count = 0;
  for (const StreamEvent& event : stream) count += event.kind == kind;
  return count;
}

TEST(RunCluster, SlaveCrashReschedulesKilledTasks) {
  ClusterConfig config;
  config.slaves = {{ResourceVector{2.0, 512.0}, "n1"},
                   {ResourceVector{2.0, 512.0}, "n2"}};
  config.sample_interval = 0.0;
  FrameworkSpec fw{.name = "f", .start_time = 0.0, .num_tasks = 8,
                   .demand = ResourceVector{1.0, 128.0}, .mean_runtime = 4.0,
                   .runtime_jitter = 0.0};
  RunOptions options;
  options.faults = {{2.0, Fault::Kind::kSlaveCrash, 1},
                    {3.0, Fault::Kind::kSlaveRestart, 1}};
  std::vector<StreamEvent> stream;
  options.stream = &stream;
  const SimOutcome outcome = RunCluster(config, {fw}, options);

  // The two tasks killed on slave 1 relaunch (fresh launch ids) and every
  // logical task still completes exactly once.
  EXPECT_EQ(outcome.frameworks[0].tasks_run, 8);
  EXPECT_EQ(CountKind(stream, StreamEvent::Kind::kKill), 2);
  EXPECT_EQ(CountKind(stream, StreamEvent::Kind::kCrash), 1);
  EXPECT_EQ(CountKind(stream, StreamEvent::Kind::kRestart), 1);
  EXPECT_EQ(CountKind(stream, StreamEvent::Kind::kPlace), 10);
  EXPECT_EQ(CountKind(stream, StreamEvent::Kind::kFinish), 8);
  EXPECT_GT(outcome.stats.down_slave_skips, 0);
}

TEST(RunCluster, DisconnectPausesOffersUntilReregister) {
  ClusterConfig config;
  config.slaves = {{ResourceVector{1.0, 256.0}, "n1"}};
  config.sample_interval = 0.0;
  FrameworkSpec fw{.name = "f", .start_time = 0.0, .num_tasks = 4,
                   .demand = ResourceVector{1.0, 128.0}, .mean_runtime = 2.0,
                   .runtime_jitter = 0.0};
  RunOptions options;
  options.faults = {{1.0, Fault::Kind::kFrameworkDisconnect, 0},
                    {9.0, Fault::Kind::kFrameworkReregister, 0}};
  const SimOutcome outcome = RunCluster(config, {fw}, options);

  // Task 1 (launched at t=0) keeps running through the disconnect and
  // finishes at t=2; the remaining three wait for the t=9 re-register:
  // 9-11, 11-13, 13-15.
  EXPECT_EQ(outcome.frameworks[0].tasks_run, 4);
  EXPECT_NEAR(outcome.frameworks[0].completion_time, 15.0, 1e-9);
}

TEST(RunCluster, DeclineTimeoutBlacksOutOffers) {
  ClusterConfig config;
  config.slaves = {{ResourceVector{1.0, 256.0}, "n1"}};
  config.sample_interval = 0.0;
  FrameworkSpec fw{.name = "f", .start_time = 0.0, .num_tasks = 2,
                   .demand = ResourceVector{1.0, 128.0}, .mean_runtime = 2.0,
                   .runtime_jitter = 0.0};
  RunOptions options;
  // At t=2 the first task finishes; the blackout window [2, 8) makes the
  // framework decline until the nudge at t=8: second task runs 8-10.
  options.faults = {{2.0, Fault::Kind::kDeclineTimeout, 0, 6.0}};
  const SimOutcome outcome = RunCluster(config, {fw}, options);
  EXPECT_EQ(outcome.frameworks[0].tasks_run, 2);
  EXPECT_NEAR(outcome.frameworks[0].completion_time, 10.0, 1e-9);
  EXPECT_GT(outcome.stats.blackout_declines, 0);
}

// A drop or rescind that eats the last offer before the event queue drains
// is re-offered at the drain instant. Here the task finishing at t=2 frees
// the only slave, its offer to f is lost, and nothing else is queued; the
// second task must still run 2-4.
TEST(RunCluster, OfferLostAtTheDrainIsReoffered) {
  ClusterConfig config;
  config.slaves = {{ResourceVector{1.0, 256.0}, "n1"}};
  config.sample_interval = 0.0;
  FrameworkSpec fw{.name = "f", .start_time = 0.0, .num_tasks = 2,
                   .demand = ResourceVector{1.0, 256.0}, .mean_runtime = 2.0,
                   .runtime_jitter = 0.0};
  for (const Fault::Kind kind :
       {Fault::Kind::kOfferRescind, Fault::Kind::kOfferDrop}) {
    RunOptions options;
    // Two drops in a row (param 2): each lost offer earns one more re-offer.
    options.faults = {{1.0, kind, 0, 2.0}};
    const SimOutcome outcome = RunCluster(config, {fw}, options);
    EXPECT_EQ(outcome.frameworks[0].tasks_run, 2);
    EXPECT_NEAR(outcome.frameworks[0].completion_time, 4.0, 1e-9);
    EXPECT_EQ(outcome.stats.offers_rescinded + outcome.stats.offers_dropped,
              kind == Fault::Kind::kOfferDrop ? 2 : 1);
  }
}

// --- declines that wait for capacity -----------------------------------------
//
// Each test below puts a framework into a decline backlog and asserts the
// exact instant and slave of its first launch once a slave it may use gains
// capacity. One-slot slaves: every demand is the whole <1 CPU, 256 MB> node.

// The first launch of `framework` in `stream`, or nullptr.
const StreamEvent* FirstLaunch(const std::vector<StreamEvent>& stream,
                               std::uint32_t framework) {
  for (const StreamEvent& event : stream)
    if (event.kind == StreamEvent::Kind::kPlace &&
        event.user == framework)
      return &event;
  return nullptr;
}

TEST(RunClusterDeathTest, NeverFinishingFrameworkAbortsWithTimelineOn) {
  // The framework disconnects at t=1 and never re-registers, so its second
  // task can never launch. With the share timeline on (the default), the
  // run must still drain and reach the "did not finish" check instead of
  // sampling forever.
  ClusterConfig config;
  config.slaves = {{ResourceVector{1.0, 256.0}, "n1"}};
  ASSERT_GT(config.sample_interval, 0.0);
  FrameworkSpec fw{.name = "f", .start_time = 0.0, .num_tasks = 2,
                   .demand = ResourceVector{1.0, 256.0}, .mean_runtime = 5.0,
                   .runtime_jitter = 0.0};
  RunOptions options;
  options.faults = {{1.0, Fault::Kind::kFrameworkDisconnect, 0}};
  // A run that never drains grows its timeline by hundreds of MB a second;
  // the alarm ends such a child within a second, so the test fails (no
  // "did not finish") instead of exhausting memory.
  EXPECT_DEATH(
      {
        alarm(1);
        RunCluster(config, {fw}, options);
      },
      "did not finish");
}

ClusterConfig OneSlotSlaves(std::size_t count) {
  ClusterConfig config;
  for (std::size_t s = 0; s < count; ++s)
    config.slaves.push_back(
        {ResourceVector{1.0, 256.0}, "n" + std::to_string(s)});
  config.sample_interval = 0.0;
  return config;
}

// A framework of <1 CPU, 256 MB> tasks with exact runtimes.
FrameworkSpec UnitFramework(std::string name, double start, long tasks,
                            double runtime,
                            std::vector<std::size_t> whitelist) {
  return {.name = std::move(name), .start_time = start, .num_tasks = tasks,
          .demand = ResourceVector{1.0, 256.0}, .mean_runtime = runtime,
          .runtime_jitter = 0.0, .whitelist = std::move(whitelist)};
}

TEST(DeclineBacklog, TaskFailureOffersTheFreedSlaveAtOnce) {
  // "pinned" may only use slave 0, which "hog" holds until t=100. It
  // declines at t=1 and in every round that "churn" (slave 1, one task per
  // second) triggers. The failure at t=5.5 frees slave 0; pinned has the
  // lower id at an equal key, so it launches there at that instant.
  const ClusterConfig config = OneSlotSlaves(2);
  const std::vector<FrameworkSpec> fws = {
      UnitFramework("pinned", 1.0, 1, 2.0, {0}),
      UnitFramework("hog", 0.0, 1, 100.0, {0}),
      UnitFramework("churn", 0.0, 10, 1.0, {1})};
  RunOptions options;
  options.faults = {{5.5, Fault::Kind::kTaskFailure, 0}};
  std::vector<StreamEvent> stream;
  options.stream = &stream;
  const SimOutcome outcome = RunCluster(config, fws, options);

  const StreamEvent* launch = FirstLaunch(stream, 0);
  ASSERT_NE(launch, nullptr);
  EXPECT_DOUBLE_EQ(launch->time, 5.5);
  EXPECT_EQ(launch->machine, 0u);
  EXPECT_GT(outcome.stats.offers_declined, 4);
  // The failed hog task relaunches once pinned's task finishes.
  EXPECT_DOUBLE_EQ(outcome.frameworks[1].completion_time, 107.5);
}

TEST(DeclineBacklog, DeclineDuringOutageLaunchesAtRestart) {
  // Slave 0 is down over [1, 6). "pinned" registers at t=2 and declines
  // through the outage while "churn" keeps rounds coming on slave 1.
  const ClusterConfig config = OneSlotSlaves(2);
  const std::vector<FrameworkSpec> fws = {
      UnitFramework("pinned", 2.0, 1, 3.0, {0}),
      UnitFramework("churn", 0.0, 10, 1.0, {1})};
  RunOptions options;
  options.faults = {{1.0, Fault::Kind::kSlaveCrash, 0},
                    {6.0, Fault::Kind::kSlaveRestart, 0}};
  std::vector<StreamEvent> stream;
  options.stream = &stream;
  const SimOutcome outcome = RunCluster(config, fws, options);

  const StreamEvent* launch = FirstLaunch(stream, 0);
  ASSERT_NE(launch, nullptr);
  EXPECT_DOUBLE_EQ(launch->time, 6.0);
  EXPECT_EQ(launch->machine, 0u);
  EXPECT_DOUBLE_EQ(outcome.frameworks[0].completion_time, 9.0);
  EXPECT_GT(outcome.stats.down_slave_skips, 0);
}

TEST(DeclineBacklog, DisconnectAndReregisterMidBacklog) {
  // One slot. "a" (id 0) wins the key tie at t=0 and runs 0-4 and 4-8; "b"
  // declines at t=0 and disconnects at t=1 with both tasks pending.
  auto run = [](double reregister) {
    const ClusterConfig config = OneSlotSlaves(1);
    const std::vector<FrameworkSpec> fws = {
        UnitFramework("a", 0.0, 2, 4.0, {}),
        UnitFramework("b", 0.0, 2, 1.0, {})};
    RunOptions options;
    options.faults = {{1.0, Fault::Kind::kFrameworkDisconnect, 1},
                      {reregister, Fault::Kind::kFrameworkReregister, 1}};
    std::vector<StreamEvent> stream;
    options.stream = &stream;
    const SimOutcome outcome = RunCluster(config, fws, options);
    const StreamEvent* launch = FirstLaunch(stream, 1);
    EXPECT_NE(launch, nullptr);
    return std::make_pair(launch == nullptr ? -1.0 : launch->time,
                          outcome.frameworks[1].completion_time);
  };
  // Back while the slot is busy: declines at t=6, launches when a's
  // second task frees the slot at t=8.
  EXPECT_EQ(run(6.0), std::make_pair(8.0, 10.0));
  // Back after the slot went idle at t=8: launches at the re-register.
  EXPECT_EQ(run(10.0), std::make_pair(10.0, 12.0));
}

// Restores the injected-bug switch when a test ends, pass or fail.
struct InjectedBugGuard {
  explicit InjectedBugGuard(InjectedBug bug) { SetInjectedBugForTesting(bug); }
  ~InjectedBugGuard() { SetInjectedBugForTesting(InjectedBug::kNone); }
  InjectedBugGuard(const InjectedBugGuard&) = delete;
  InjectedBugGuard& operator=(const InjectedBugGuard&) = delete;
};

TEST(DeclineBacklog, LeakedFinishOnDownSlaveIsNeverOffered) {
  // The planted leak bug keeps "leaker"'s task alive through slave 0's
  // crash at t=2; its finish at t=5 frees capacity on a slave that is
  // still down. "pinned" must not be offered it and launches only at the
  // t=9 restart.
  const InjectedBugGuard guard(InjectedBug::kLeakTaskOnCrash);
  const ClusterConfig config = OneSlotSlaves(2);
  const std::vector<FrameworkSpec> fws = {
      UnitFramework("leaker", 0.0, 1, 5.0, {0}),
      UnitFramework("pinned", 1.0, 1, 1.0, {0}),
      UnitFramework("churn", 0.0, 12, 1.0, {1})};
  RunOptions options;
  options.faults = {{2.0, Fault::Kind::kSlaveCrash, 0},
                    {9.0, Fault::Kind::kSlaveRestart, 0}};
  std::vector<StreamEvent> stream;
  options.stream = &stream;
  const SimOutcome outcome = RunCluster(config, fws, options);

  const StreamEvent* launch = FirstLaunch(stream, 1);
  ASSERT_NE(launch, nullptr);
  EXPECT_DOUBLE_EQ(launch->time, 9.0);
  EXPECT_EQ(launch->machine, 0u);
  EXPECT_DOUBLE_EQ(outcome.frameworks[1].completion_time, 10.0);
}

TEST(DeclineBacklog, OverloadStreamProbesStayBoundedPerLaunch) {
  // The default-mix overload stream (2 jobs/s for 300 s on 60 machines):
  // hundreds of frameworks decline in every round. A declined framework is
  // re-probed only on slaves that gained capacity since its last decline,
  // so the probe count stays a small multiple of the launch count.
  load::StreamSpec spec;
  spec.rate = 2.0;
  spec.duration = 300.0;
  spec.seed = 1;
  const load::GeneratedStream stream = load::GenerateArrivals(spec, 60);
  ClusterConfig config;
  config.slaves = load::MakeLoadSlaves(60);
  config.seed = spec.seed;
  config.sample_interval = 0.0;
  const SimOutcome outcome =
      RunCluster(config, load::ToFrameworks(stream), RunOptions{});
  EXPECT_GT(outcome.stats.offers_declined, 10 * outcome.stats.offers_accepted);
  EXPECT_LT(outcome.stats.probes, 100 * outcome.stats.offers_accepted);
}

// --- the fault victim rule ------------------------------------------------

TEST(RunCluster, TaskFailureHitsTheBackOfTheRunningList) {
  // A slave's running tasks sit in launch order, and a finish moves the
  // last entry into the finished task's slot. "a", "b", "c" launch in that
  // order on one 3-slot slave; a finishes at t=1, moving c ahead of b, so
  // the t=2 failure hits b (the second launch), not c (the latest).
  ClusterConfig config;
  config.slaves = {{ResourceVector{3.0, 768.0}, "n1"}};
  config.sample_interval = 0.0;
  const std::vector<FrameworkSpec> fws = {UnitFramework("a", 0.0, 1, 1.0, {}),
                                          UnitFramework("b", 0.0, 1, 10.0, {}),
                                          UnitFramework("c", 0.0, 1, 10.0, {})};
  RunOptions options;
  options.faults = {{2.0, Fault::Kind::kTaskFailure, 0}};
  std::vector<StreamEvent> stream;
  options.stream = &stream;
  const SimOutcome outcome = RunCluster(config, fws, options);

  std::vector<std::uint32_t> launch_order;
  for (const StreamEvent& event : stream)
    if (event.kind == StreamEvent::Kind::kPlace && event.time == 0.0)
      launch_order.push_back(event.user);
  EXPECT_EQ(launch_order, (std::vector<std::uint32_t>{0, 1, 2}));
  ASSERT_EQ(CountKind(stream, StreamEvent::Kind::kFail), 1);
  for (const StreamEvent& event : stream)
    if (event.kind == StreamEvent::Kind::kFail) {
      EXPECT_EQ(event.user, 1u);
      EXPECT_EQ(event.task, 1u);
      EXPECT_DOUBLE_EQ(event.time, 2.0);
    }
  // b relaunches on the spot: 2 + 10.
  EXPECT_DOUBLE_EQ(outcome.frameworks[1].completion_time, 12.0);
  EXPECT_DOUBLE_EQ(outcome.frameworks[2].completion_time, 10.0);
}

}  // namespace
}  // namespace tsf::mesos
