// Tests for the discrete-event simulator: conservation, timing, policy
// behaviour on hand-checkable workloads.
#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "sim/des.h"
#include "sim/runner.h"

namespace tsf {
namespace {

Cluster SmallCluster(std::size_t machines, double cores, double ram) {
  Cluster cluster;
  for (std::size_t m = 0; m < machines; ++m)
    cluster.AddMachine(ResourceVector{cores, ram});
  return cluster;
}

TEST(Des, SingleJobRunsToCompletion) {
  Workload workload;
  workload.cluster = SmallCluster(2, 4.0, 4.0);
  JobSpec spec{.id = 0, .name = "j", .demand = {1.0, 1.0}};
  spec.num_tasks = 8;  // exactly fills both machines
  workload.jobs.push_back(MakeUniformJob(spec, 10.0));

  const SimResult result = Simulate(workload, OnlinePolicy::Tsf());
  ASSERT_EQ(result.tasks.size(), 8u);
  // All 8 tasks start at t=0 and finish at t=10.
  for (const TaskRecord& task : result.tasks) {
    EXPECT_DOUBLE_EQ(task.schedule, 0.0);
    EXPECT_DOUBLE_EQ(task.finish, 10.0);
  }
  EXPECT_DOUBLE_EQ(result.jobs[0].QueueingDelay(), 0.0);
  EXPECT_DOUBLE_EQ(result.jobs[0].CompletionTime(), 10.0);
  EXPECT_DOUBLE_EQ(result.makespan, 10.0);
}

TEST(Des, QueuedTasksWaitForCapacity) {
  Workload workload;
  workload.cluster = SmallCluster(1, 1.0, 1.0);
  JobSpec spec{.id = 0, .name = "j", .demand = {1.0, 1.0}};
  spec.num_tasks = 3;  // machine holds one at a time
  workload.jobs.push_back(MakeUniformJob(spec, 5.0));

  const SimResult result = Simulate(workload, OnlinePolicy::Tsf());
  ASSERT_EQ(result.tasks.size(), 3u);
  EXPECT_DOUBLE_EQ(result.tasks[0].schedule, 0.0);
  EXPECT_DOUBLE_EQ(result.tasks[1].schedule, 5.0);
  EXPECT_DOUBLE_EQ(result.tasks[2].schedule, 10.0);
  EXPECT_DOUBLE_EQ(result.jobs[0].CompletionTime(), 15.0);
}

TEST(Des, ConstraintsRestrictPlacement) {
  Workload workload;
  workload.cluster = SmallCluster(2, 2.0, 2.0);
  JobSpec spec{.id = 0, .name = "pinned", .demand = {1.0, 1.0}};
  spec.num_tasks = 4;
  spec.constraint = Constraint::Whitelist({1});
  workload.jobs.push_back(MakeUniformJob(spec, 7.0));

  const SimResult result = Simulate(workload, OnlinePolicy::Tsf());
  // Only machine 1 usable → 2 at a time → waves at t=0 and t=7.
  EXPECT_DOUBLE_EQ(result.jobs[0].CompletionTime(), 14.0);
}

TEST(Des, LateArrivalWaitsForArrivalTime) {
  Workload workload;
  workload.cluster = SmallCluster(1, 4.0, 4.0);
  JobSpec spec{.id = 0, .name = "late", .demand = {1.0, 1.0}};
  spec.num_tasks = 1;
  spec.arrival_time = 100.0;
  workload.jobs.push_back(MakeUniformJob(spec, 2.0));

  const SimResult result = Simulate(workload, OnlinePolicy::Drf());
  EXPECT_DOUBLE_EQ(result.tasks[0].schedule, 100.0);
  EXPECT_DOUBLE_EQ(result.tasks[0].QueueingDelay(), 0.0);
}

TEST(Des, FifoStarvesLaterJobsUnderContention) {
  // Job A (1000 short tasks) then job B at t=1: FIFO makes B wait for A's
  // backlog; TSF serves B immediately as capacity frees.
  Workload workload;
  workload.cluster = SmallCluster(2, 1.0, 1.0);
  JobSpec a{.id = 0, .name = "A", .demand = {1.0, 1.0}};
  a.num_tasks = 100;
  workload.jobs.push_back(MakeUniformJob(a, 10.0));
  JobSpec b{.id = 1, .name = "B", .demand = {1.0, 1.0}};
  b.num_tasks = 2;
  b.arrival_time = 1.0;
  workload.jobs.push_back(MakeUniformJob(b, 10.0));

  const SimResult fifo = Simulate(workload, OnlinePolicy::Fifo());
  const SimResult tsf = Simulate(workload, OnlinePolicy::Tsf());
  // Under FIFO, B's first task waits until all of A's 100 are done.
  EXPECT_GT(fifo.jobs[1].QueueingDelay(), 400.0);
  // Under TSF, B has the lowest share after the first completions.
  EXPECT_LT(tsf.jobs[1].QueueingDelay(), 20.0);
}

TEST(Des, TsfEqualizesTaskSharesUnderSaturation) {
  // Two long-running jobs, identical demands/constraints, equal h: steady
  // state splits capacity evenly.
  Workload workload;
  workload.cluster = SmallCluster(4, 2.0, 2.0);
  for (UserId i = 0; i < 2; ++i) {
    JobSpec spec{.id = i, .name = "j" + std::to_string(i),
                 .demand = {1.0, 1.0}};
    spec.num_tasks = 100;
    workload.jobs.push_back(MakeUniformJob(spec, 3.0));
  }
  const SimResult result = Simulate(workload, OnlinePolicy::Tsf());
  // With equal shares, completion times are within one wave of each other.
  EXPECT_NEAR(result.jobs[0].CompletionTime(), result.jobs[1].CompletionTime(),
              3.0 + 1e-9);
}

TEST(Des, TaskIdentityStableAcrossPolicies) {
  // Same workload under two policies: tasks (job, index) align 1:1 with
  // identical runtimes, enabling per-task speedup comparisons.
  Workload workload;
  workload.cluster = SmallCluster(2, 2.0, 2.0);
  JobSpec spec{.id = 0, .name = "j", .demand = {1.0, 1.0}};
  spec.num_tasks = 20;
  workload.jobs.push_back(MakeJitteredJob(spec, 5.0, 0.2, 7));

  const SimResult a = Simulate(workload, OnlinePolicy::Tsf());
  const SimResult b = Simulate(workload, OnlinePolicy::Fifo());
  ASSERT_EQ(a.tasks.size(), b.tasks.size());
  for (std::size_t t = 0; t < a.tasks.size(); ++t) {
    EXPECT_EQ(a.tasks[t].job, b.tasks[t].job);
    EXPECT_EQ(a.tasks[t].index, b.tasks[t].index);
    EXPECT_NEAR(a.tasks[t].finish - a.tasks[t].schedule,
                b.tasks[t].finish - b.tasks[t].schedule, 1e-9);
  }
}

TEST(Des, MetricsVectorsMatchCounts) {
  Workload workload;
  workload.cluster = SmallCluster(2, 2.0, 2.0);
  for (UserId i = 0; i < 3; ++i) {
    JobSpec spec{.id = i, .name = "j" + std::to_string(i),
                 .demand = {1.0, 1.0}};
    spec.num_tasks = 4;
    spec.arrival_time = static_cast<double>(i);
    workload.jobs.push_back(MakeUniformJob(spec, 2.0));
  }
  const SimResult result = Simulate(workload, OnlinePolicy::Cdrf());
  EXPECT_EQ(result.JobQueueingDelays().size(), 3u);
  EXPECT_EQ(result.JobCompletionTimes().size(), 3u);
  EXPECT_EQ(result.TaskQueueingDelays().size(), 12u);
  for (const double d : result.TaskQueueingDelays()) EXPECT_GE(d, 0.0);
}

TEST(Des, WorkConservationNoIdleWithPendingEligible) {
  // At every schedule event, verify the invariant indirectly: total busy
  // time equals sum of task runtimes (no task lost or double-counted).
  Workload workload;
  workload.cluster = SmallCluster(3, 2.0, 4.0);
  for (UserId i = 0; i < 4; ++i) {
    JobSpec spec{.id = i, .name = "j" + std::to_string(i),
                 .demand = {1.0, 1.0}};
    spec.num_tasks = 10;
    spec.arrival_time = static_cast<double>(i) * 3.0;
    workload.jobs.push_back(MakeJitteredJob(spec, 4.0, 0.2, 17 + i));
  }
  const SimResult result = Simulate(workload, OnlinePolicy::Tsf());
  double runtime_sum = 0.0;
  for (const SimJob& job : workload.jobs)
    for (const double r : job.task_runtimes) runtime_sum += r;
  double busy_sum = 0.0;
  for (const TaskRecord& task : result.tasks)
    busy_sum += task.finish - task.schedule;
  EXPECT_NEAR(busy_sum, runtime_sum, 1e-6);
}

TEST(Runner, ReducerSeesEverySeedOnce) {
  ThreadPool pool(2);
  std::vector<int> seen(5, 0);
  const WorkloadFactory factory = [](std::uint64_t seed) {
    Workload workload;
    workload.cluster = SmallCluster(1, 2.0, 2.0);
    JobSpec spec{.id = 0, .name = "j", .demand = {1.0, 1.0}};
    spec.num_tasks = static_cast<long>(1 + seed % 3);
    workload.jobs.push_back(MakeUniformJob(spec, 1.0));
    return workload;
  };
  RunSeeds(factory, {OnlinePolicy::Tsf(), OnlinePolicy::Fifo()}, 10, 5, pool,
           [&](std::uint64_t seed, const std::vector<SimResult>& results) {
             ASSERT_EQ(results.size(), 2u);
             EXPECT_EQ(results[0].policy, "TSF");
             EXPECT_EQ(results[1].policy, "FIFO");
             EXPECT_EQ(results[0].tasks.size(), 1 + seed % 3);
             ++seen[seed - 10];
           });
  for (const int count : seen) EXPECT_EQ(count, 1);
}


// --- fault injection (chaos hooks) ------------------------------------------

long CountKind(const std::vector<StreamEvent>& stream,
               StreamEvent::Kind kind) {
  long count = 0;
  for (const StreamEvent& event : stream) count += event.kind == kind;
  return count;
}

TEST(DesFaults, CrashKillsRequeuesAndCompletes) {
  Workload workload;
  workload.cluster = SmallCluster(2, 2.0, 2.0);
  JobSpec spec{.id = 0, .name = "j", .demand = {1.0, 1.0}};
  spec.num_tasks = 8;  // 4 slots -> two 10 s waves, fault lands mid-wave
  workload.jobs.push_back(MakeUniformJob(spec, 10.0));

  SimOptions options;
  options.faults = {{5.0, SimFault::Kind::kMachineCrash, 1},
                    {12.0, SimFault::Kind::kMachineRestart, 1}};
  std::vector<StreamEvent> stream;
  options.stream = &stream;
  const SimResult result =
      Simulate(workload, OnlinePolicy::Tsf(), SimCore::kIncremental, options);

  // Every task still completes; the two killed on machine 1 at t=5 rerun
  // from scratch with their pre-sampled runtimes (task identity preserved).
  ASSERT_EQ(result.tasks.size(), 8u);
  long retried = 0;
  for (const TaskRecord& task : result.tasks) {
    EXPECT_GE(task.attempts, 1);
    retried += task.attempts > 1 ? 1 : 0;
  }
  EXPECT_EQ(retried, 2);
  EXPECT_EQ(CountKind(stream, StreamEvent::Kind::kKill), 2);
  EXPECT_EQ(CountKind(stream, StreamEvent::Kind::kCrash), 1);
  EXPECT_EQ(CountKind(stream, StreamEvent::Kind::kRestart), 1);
  // 8 first placements + 2 retries.
  EXPECT_EQ(CountKind(stream, StreamEvent::Kind::kPlace), 10);
  EXPECT_EQ(CountKind(stream, StreamEvent::Kind::kFinish), 8);
  // Lost work stretches the run: 2 slots carry the tail.
  EXPECT_GT(result.makespan, 20.0);
}

TEST(DesFaults, TaskFailureRetriesOnTheSpot) {
  Workload workload;
  workload.cluster = SmallCluster(1, 2.0, 2.0);
  JobSpec spec{.id = 0, .name = "j", .demand = {1.0, 1.0}};
  spec.num_tasks = 2;
  workload.jobs.push_back(MakeUniformJob(spec, 5.0));

  SimOptions options;
  options.faults = {{2.0, SimFault::Kind::kTaskFailure, 0}};
  std::vector<StreamEvent> stream;
  options.stream = &stream;
  const SimResult result =
      Simulate(workload, OnlinePolicy::Tsf(), SimCore::kIncremental, options);

  // The victim re-enters the pending pool and is placed again immediately
  // (the machine stayed up with a free slot): 2 + 5 = 7 s makespan.
  ASSERT_EQ(result.tasks.size(), 2u);
  EXPECT_EQ(CountKind(stream, StreamEvent::Kind::kFail), 1);
  EXPECT_EQ(result.tasks[0].attempts + result.tasks[1].attempts, 3);
  EXPECT_DOUBLE_EQ(result.makespan, 7.0);
}

TEST(DesFaults, TaskFailureHitsTheBackOfTheRunningList) {
  // A machine's running tasks sit in placement order, and a finish moves
  // the last entry into the finished task's slot. Jobs a, b, c place in
  // that order on one 3-slot machine; a finishes at t=1, moving c ahead of
  // b, so the t=2 failure hits b (the second placement), not c (the latest).
  Workload workload;
  workload.cluster = SmallCluster(1, 3.0, 3.0);
  const double runtimes[] = {1.0, 10.0, 10.0};
  for (UserId j = 0; j < 3; ++j) {
    JobSpec spec;
    spec.id = j;
    spec.name = std::string(1, static_cast<char>('a' + j));
    spec.demand = {1.0, 1.0};
    spec.num_tasks = 1;
    workload.jobs.push_back(MakeUniformJob(spec, runtimes[j]));
  }

  SimOptions options;
  options.faults = {{2.0, SimFault::Kind::kTaskFailure, 0}};
  std::vector<StreamEvent> stream;
  options.stream = &stream;
  const SimResult result =
      Simulate(workload, OnlinePolicy::Tsf(), SimCore::kIncremental, options);

  std::vector<std::uint32_t> place_order;
  for (const StreamEvent& event : stream)
    if (event.kind == StreamEvent::Kind::kPlace && event.time == 0.0)
      place_order.push_back(event.user);
  EXPECT_EQ(place_order, (std::vector<std::uint32_t>{0, 1, 2}));
  ASSERT_EQ(CountKind(stream, StreamEvent::Kind::kFail), 1);
  for (const StreamEvent& event : stream)
    if (event.kind == StreamEvent::Kind::kFail) {
      EXPECT_EQ(event.user, 1u);
      EXPECT_DOUBLE_EQ(event.time, 2.0);
    }
  // b is placed again on the spot: 2 + 10.
  EXPECT_DOUBLE_EQ(result.jobs[1].CompletionTime(), 12.0);
  EXPECT_DOUBLE_EQ(result.jobs[2].CompletionTime(), 10.0);
}

TEST(DesFaults, TimelineCountsARequeuedTaskAsPending) {
  // Two unit machines, one 4-task job. Machine 0 crashes at t=1 and comes
  // back at t=5; its killed task waits for it in the pending pool.
  Workload workload;
  workload.cluster = SmallCluster(2, 1.0, 1.0);
  JobSpec spec{.id = 0, .name = "j", .demand = {1.0, 1.0}};
  spec.num_tasks = 4;
  workload.jobs.push_back(MakeUniformJob(spec, 10.0));

  SimOptions options;
  options.fairness_sample_interval = 1.0;
  options.faults = {{1.0, SimFault::Kind::kMachineCrash, 0},
                    {5.0, SimFault::Kind::kMachineRestart, 0}};
  const SimResult result =
      Simulate(workload, OnlinePolicy::Tsf(), SimCore::kIncremental, options);

  // A sample shows the state just before the events at its instant apply:
  // the job's arrival first shows at t=1, the kill at t=1 at t=2, and the
  // re-placement at t=5 at t=6.
  std::map<double, telemetry::FairnessSample> at;
  for (const telemetry::FairnessSample& sample : result.fairness_timeline)
    at[sample.time] = sample;
  for (const double t : {1.0, 2.0, 3.0, 4.0, 5.0, 6.0}) {
    ASSERT_EQ(at.count(t), 1u) << "t=" << t;
    const bool down = t >= 2.0 && t <= 5.0;
    EXPECT_EQ(at[t].running, down ? 1u : 2u) << "t=" << t;
    EXPECT_EQ(at[t].pending, down ? 3u : 2u) << "t=" << t;
  }
}

TEST(DesFaults, FaultsPreserveDifferentialStreamEquality) {
  Workload workload;
  workload.cluster = SmallCluster(2, 3.0, 3.0);
  JobSpec spec{.id = 0, .name = "a", .demand = {1.0, 1.0}};
  spec.num_tasks = 9;
  workload.jobs.push_back(MakeUniformJob(spec, 4.0));
  JobSpec other{.id = 1, .name = "b", .demand = {1.0, 2.0}};
  other.num_tasks = 5;
  workload.jobs.push_back(MakeUniformJob(other, 3.0));

  SimOptions incremental_options;
  incremental_options.faults = {{2.0, SimFault::Kind::kMachineCrash, 0},
                                {3.5, SimFault::Kind::kTaskFailure, 1},
                                {6.0, SimFault::Kind::kMachineRestart, 0}};
  SimOptions reference_options = incremental_options;
  std::vector<StreamEvent> incremental_stream, reference_stream;
  incremental_options.stream = &incremental_stream;
  reference_options.stream = &reference_stream;
  Simulate(workload, OnlinePolicy::Tsf(), SimCore::kIncremental,
           incremental_options);
  Simulate(workload, OnlinePolicy::Tsf(), SimCore::kReference,
           reference_options);

  ASSERT_EQ(incremental_stream.size(), reference_stream.size());
  for (std::size_t i = 0; i < incremental_stream.size(); ++i) {
    EXPECT_EQ(incremental_stream[i].kind, reference_stream[i].kind) << i;
    EXPECT_EQ(incremental_stream[i].task, reference_stream[i].task) << i;
    EXPECT_EQ(incremental_stream[i].machine, reference_stream[i].machine) << i;
  }
}

}  // namespace
}  // namespace tsf
