// Unit tests for the chaos harness itself (src/chaos): fault-plan
// generation/validation/serialization, the stream invariant checkers
// (fed hand-made violating streams), the atom-based ddmin shrinker, and
// repro round-trips.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "chaos/fault_plan.h"
#include "chaos/invariants.h"
#include "chaos/repro.h"
#include "chaos/scenario.h"
#include "chaos/shrink.h"
#include "util/check.h"

namespace tsf::chaos {
namespace {

using Kind = StreamEvent::Kind;

// --- fault plans ------------------------------------------------------------

TEST(FaultPlanTest, RandomDesPlansAreWellFormedAndRoundTrip) {
  FaultPlanShape shape;
  shape.num_machines = 4;
  shape.horizon = 50.0;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const FaultPlan plan = RandomFaultPlan(shape, seed);
    EXPECT_EQ(ValidateFaultPlan(plan, shape.num_machines, 0), "")
        << "seed " << seed;
    EXPECT_EQ(ParseFaultPlan(SerializeFaultPlan(plan)), plan)
        << "seed " << seed;
    // DES plans must compile (no Mesos-only kinds generated).
    EXPECT_EQ(CompileForDes(plan).size(), plan.events.size());
  }
}

TEST(FaultPlanTest, RandomMesosPlansAreWellFormedAndRoundTrip) {
  FaultPlanShape shape;
  shape.num_machines = 3;
  shape.num_frameworks = 4;
  shape.earliest = 5.0;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const FaultPlan plan = RandomFaultPlan(shape, seed);
    EXPECT_EQ(ValidateFaultPlan(plan, shape.num_machines, shape.num_frameworks),
              "")
        << "seed " << seed;
    EXPECT_EQ(ParseFaultPlan(SerializeFaultPlan(plan)), plan)
        << "seed " << seed;
    EXPECT_EQ(CompileForMesos(plan).size(), plan.events.size());
    for (const FaultSpec& event : plan.events)
      EXPECT_GE(event.time, shape.earliest);
  }
}

TEST(FaultPlanTest, RandomPlansAreSeedDeterministic) {
  FaultPlanShape shape;
  shape.num_machines = 4;
  shape.num_frameworks = 2;
  EXPECT_EQ(RandomFaultPlan(shape, 7), RandomFaultPlan(shape, 7));
  // Different seeds eventually differ (not a fixed plan).
  bool any_different = false;
  for (std::uint64_t seed = 1; seed <= 10 && !any_different; ++seed)
    any_different = !(RandomFaultPlan(shape, seed) == RandomFaultPlan(shape, 7));
  EXPECT_TRUE(any_different);
}

TEST(FaultPlanTest, ValidateRejectsMalformedPlans) {
  const auto spec = [](double time, FaultKind kind, std::size_t target,
                       double param = 0.0) {
    return FaultSpec{time, kind, target, param};
  };
  // Unsorted times.
  EXPECT_NE(ValidateFaultPlan(
                {{spec(5, FaultKind::kMachineCrash, 0),
                  spec(2, FaultKind::kMachineRestart, 0)}},
                2, 0),
            "");
  // Crash never lifted.
  EXPECT_NE(ValidateFaultPlan({{spec(1, FaultKind::kMachineCrash, 0)}}, 2, 0),
            "");
  // Restart of a machine that is up.
  EXPECT_NE(ValidateFaultPlan({{spec(1, FaultKind::kMachineRestart, 0)}}, 2, 0),
            "");
  // Double crash of the same target.
  EXPECT_NE(ValidateFaultPlan(
                {{spec(1, FaultKind::kMachineCrash, 0),
                  spec(2, FaultKind::kMachineCrash, 0),
                  spec(3, FaultKind::kMachineRestart, 0)}},
                2, 0),
            "");
  // Target out of range.
  EXPECT_NE(ValidateFaultPlan({{spec(1, FaultKind::kTaskFailure, 9)}}, 2, 0),
            "");
  // Mesos-only kind in a DES plan (num_frameworks == 0).
  EXPECT_NE(ValidateFaultPlan({{spec(1, FaultKind::kOfferDrop, 0, 1)}}, 2, 0),
            "");
  // Non-positive decline-timeout window.
  EXPECT_NE(ValidateFaultPlan(
                {{spec(1, FaultKind::kDeclineTimeout, 0, 0.0)}}, 2, 2),
            "");
  // Disconnect never re-registered.
  EXPECT_NE(ValidateFaultPlan(
                {{spec(1, FaultKind::kFrameworkDisconnect, 1)}}, 2, 2),
            "");
  // The fixed versions all pass.
  EXPECT_EQ(ValidateFaultPlan(
                {{spec(1, FaultKind::kMachineCrash, 0),
                  spec(2, FaultKind::kMachineRestart, 0),
                  spec(3, FaultKind::kTaskFailure, 1),
                  spec(4, FaultKind::kDeclineTimeout, 0, 2.5),
                  spec(5, FaultKind::kFrameworkDisconnect, 1),
                  spec(6, FaultKind::kFrameworkReregister, 1)}},
                2, 2),
            "");
}

TEST(FaultPlanTest, KindTokensRoundTrip) {
  for (const FaultKind kind :
       {FaultKind::kMachineCrash, FaultKind::kMachineRestart,
        FaultKind::kTaskFailure, FaultKind::kOfferDrop,
        FaultKind::kOfferRescind, FaultKind::kDeclineTimeout,
        FaultKind::kFrameworkDisconnect, FaultKind::kFrameworkReregister})
    EXPECT_EQ(FaultKindFromString(ToString(kind)), kind);
}

// --- invariant checkers -----------------------------------------------------

// A 2-machine, 2-user scenario view: machine capacity (1,1) each, user 0
// demands (0.4,0.4) anywhere, user 1 demands (0.6,0.6) on machine 0 only.
ScenarioView TwoUserView() {
  ScenarioView view;
  view.capacity = {ResourceVector{1.0, 1.0}, ResourceVector{1.0, 1.0}};
  view.demand = {ResourceVector{0.4, 0.4}, ResourceVector{0.6, 0.6}};
  view.allowed = {{true, true}, {true, false}};
  view.num_tasks = {1, 1};
  return view;
}

StreamEvent Ev(double time, Kind kind, std::uint32_t user, std::uint32_t task,
               std::uint32_t machine) {
  StreamEvent event;
  event.time = time;
  event.kind = kind;
  event.user = user;
  event.task = task;
  event.machine = machine;
  return event;
}

std::vector<std::string> Invariants(const std::vector<Violation>& violations) {
  std::vector<std::string> ids;
  for (const Violation& violation : violations)
    ids.push_back(violation.invariant);
  return ids;
}

bool Contains(const std::vector<Violation>& violations,
              const std::string& invariant) {
  const std::vector<std::string> ids = Invariants(violations);
  return std::find(ids.begin(), ids.end(), invariant) != ids.end();
}

TEST(InvariantsTest, CleanStreamHasNoViolations) {
  const std::vector<StreamEvent> stream = {
      Ev(0, Kind::kArrive, 0, 0, 0),  Ev(0, Kind::kArrive, 1, 0, 0),
      Ev(0, Kind::kPlace, 0, 0, 1),   Ev(0, Kind::kPlace, 1, 1, 0),
      Ev(3, Kind::kFinish, 0, 0, 1),  Ev(5, Kind::kFinish, 1, 1, 0),
  };
  EXPECT_TRUE(CheckStream(TwoUserView(), stream).empty());
}

TEST(InvariantsTest, CatchesClockRegression) {
  const std::vector<StreamEvent> stream = {
      Ev(2, Kind::kArrive, 0, 0, 0), Ev(1, Kind::kArrive, 1, 0, 0)};
  EXPECT_TRUE(Contains(CheckStream(TwoUserView(), stream), "clock_regression"));
}

TEST(InvariantsTest, CatchesWhitelistViolation) {
  // User 1 may only use machine 0; placing it on machine 1 must trip.
  const std::vector<StreamEvent> stream = {
      Ev(0, Kind::kArrive, 0, 0, 0), Ev(0, Kind::kArrive, 1, 0, 0),
      Ev(0, Kind::kPlace, 1, 0, 1),  Ev(1, Kind::kFinish, 1, 0, 1),
      Ev(1, Kind::kPlace, 0, 1, 0),  Ev(2, Kind::kFinish, 0, 1, 0)};
  EXPECT_TRUE(
      Contains(CheckStream(TwoUserView(), stream), "whitelist_violation"));
}

TEST(InvariantsTest, CatchesOversubscription) {
  // Two 0.6-demand tasks on one (1,1) machine.
  ScenarioView view = TwoUserView();
  view.num_tasks = {0, 2};
  const std::vector<StreamEvent> stream = {
      Ev(0, Kind::kArrive, 0, 0, 0), Ev(0, Kind::kArrive, 1, 0, 0),
      Ev(0, Kind::kPlace, 1, 0, 0),  Ev(0, Kind::kPlace, 1, 1, 0),
      Ev(1, Kind::kFinish, 1, 0, 0), Ev(1, Kind::kFinish, 1, 1, 0)};
  EXPECT_TRUE(Contains(CheckStream(view, stream), "oversubscription"));
}

TEST(InvariantsTest, CatchesDuplicateTaskIdAndGhostTask) {
  ScenarioView view = TwoUserView();
  view.num_tasks = {2, 0};
  const std::vector<StreamEvent> stream = {
      Ev(0, Kind::kArrive, 0, 0, 0), Ev(0, Kind::kArrive, 1, 0, 0),
      // Task id 0 live twice.
      Ev(0, Kind::kPlace, 0, 0, 0), Ev(0, Kind::kPlace, 0, 0, 1),
      // Finish of a task id never placed.
      Ev(1, Kind::kFinish, 0, 7, 0)};
  const std::vector<Violation> violations = CheckStream(view, stream);
  EXPECT_TRUE(Contains(violations, "duplicate_task_id"));
  EXPECT_TRUE(Contains(violations, "ghost_task"));
}

TEST(InvariantsTest, CatchesTaskSurvivingCrash) {
  // Machine 0 crashes while task 0 is still live on it — the stream shows
  // no kKill first, which is exactly the leak the injected bug plants.
  const std::vector<StreamEvent> stream = {
      Ev(0, Kind::kArrive, 0, 0, 0), Ev(0, Kind::kArrive, 1, 0, 0),
      Ev(0, Kind::kPlace, 0, 0, 0),  Ev(1, Kind::kCrash, 0, 0, 0)};
  EXPECT_TRUE(
      Contains(CheckStream(TwoUserView(), stream), "task_survived_crash"));
}

TEST(InvariantsTest, CrashKillRestartCycleIsClean) {
  const std::vector<StreamEvent> stream = {
      Ev(0, Kind::kArrive, 0, 0, 0), Ev(0, Kind::kArrive, 1, 0, 0),
      Ev(0, Kind::kPlace, 0, 0, 0),  Ev(0, Kind::kPlace, 1, 1, 0),
      Ev(1, Kind::kKill, 1, 1, 0),   Ev(1, Kind::kKill, 0, 0, 0),
      Ev(1, Kind::kCrash, 0, 0, 0),  Ev(2, Kind::kRestart, 0, 0, 0),
      Ev(2, Kind::kPlace, 0, 0, 0),  Ev(2, Kind::kPlace, 1, 1, 0),
      Ev(3, Kind::kFinish, 0, 0, 0), Ev(4, Kind::kFinish, 1, 1, 0)};
  ScenarioView view = TwoUserView();
  view.num_tasks = {1, 1};
  EXPECT_TRUE(CheckStream(view, stream).empty());
}

TEST(InvariantsTest, CatchesPlacementOnDownMachine) {
  const std::vector<StreamEvent> stream = {
      Ev(0, Kind::kArrive, 0, 0, 0), Ev(0, Kind::kArrive, 1, 0, 0),
      Ev(1, Kind::kCrash, 0, 0, 1),  Ev(1, Kind::kPlace, 0, 0, 1),
      Ev(2, Kind::kFinish, 0, 0, 1), Ev(3, Kind::kRestart, 0, 0, 1),
      Ev(3, Kind::kPlace, 1, 1, 0),  Ev(4, Kind::kFinish, 1, 1, 0)};
  EXPECT_TRUE(
      Contains(CheckStream(TwoUserView(), stream), "place_on_down_machine"));
}

TEST(InvariantsTest, CatchesPlacementWhileDisconnected) {
  const std::vector<StreamEvent> stream = {
      Ev(0, Kind::kArrive, 0, 0, 0),     Ev(0, Kind::kArrive, 1, 0, 0),
      Ev(1, Kind::kDisconnect, 0, 0, 0), Ev(1, Kind::kPlace, 0, 0, 0),
      Ev(2, Kind::kFinish, 0, 0, 0),     Ev(3, Kind::kReregister, 0, 0, 0),
      Ev(3, Kind::kPlace, 1, 1, 0),      Ev(4, Kind::kFinish, 1, 1, 0)};
  EXPECT_TRUE(Contains(CheckStream(TwoUserView(), stream),
                       "place_while_disconnected"));
}

TEST(InvariantsTest, FinalizeCatchesLeakAndShortfall) {
  // Task 0 of user 0 never finishes; user 1 never runs its task.
  const std::vector<StreamEvent> stream = {
      Ev(0, Kind::kArrive, 0, 0, 0), Ev(0, Kind::kArrive, 1, 0, 0),
      Ev(0, Kind::kPlace, 0, 0, 0)};
  const std::vector<Violation> violations =
      CheckStream(TwoUserView(), stream);
  EXPECT_TRUE(Contains(violations, "leaked_task"));
  EXPECT_TRUE(Contains(violations, "incomplete_user"));
}

TEST(InvariantsTest, LeakedTaskSweepReportsInSortedTaskIdOrder) {
  // Regression for a real nondeterminism hazard: the checker's live-task
  // shadow map used to be a std::unordered_map, so the leaked-task and
  // crash-survivor sweeps emitted violations in hash order — and violation
  // order is part of the harness's deterministic contract (shrink predicates
  // and committed repros match on the violation list). Place tasks with
  // deliberately non-sorted ids and require the sweep to report them in
  // ascending task-id order regardless of insertion order.
  ScenarioView view = TwoUserView();
  view.num_tasks = {3, 0};
  const std::vector<StreamEvent> stream = {
      Ev(0, Kind::kArrive, 0, 0, 0), Ev(0, Kind::kArrive, 1, 0, 0),
      Ev(0, Kind::kPlace, 0, 9, 0),  Ev(0, Kind::kPlace, 0, 2, 1),
      Ev(1, Kind::kPlace, 0, 7, 0)};
  const std::vector<Violation> violations = CheckStream(view, stream);
  std::vector<std::string> leaked;
  for (const Violation& violation : violations)
    if (violation.invariant == "leaked_task")
      leaked.push_back(violation.detail);
  ASSERT_EQ(leaked.size(), 3u);
  EXPECT_NE(leaked[0].find("task 2 "), std::string::npos) << leaked[0];
  EXPECT_NE(leaked[1].find("task 7 "), std::string::npos) << leaked[1];
  EXPECT_NE(leaked[2].find("task 9 "), std::string::npos) << leaked[2];
}

TEST(InvariantsTest, CrashSurvivorSweepReportsInSortedTaskIdOrder) {
  // Same contract for the crash-time sweep: survivors of a crashed machine
  // are reported in task-id order, not insertion order.
  ScenarioView view = TwoUserView();
  view.num_tasks = {2, 0};
  const std::vector<StreamEvent> stream = {
      Ev(0, Kind::kArrive, 0, 0, 0), Ev(0, Kind::kArrive, 1, 0, 0),
      Ev(0, Kind::kPlace, 0, 8, 1),  Ev(0, Kind::kPlace, 0, 3, 1),
      Ev(1, Kind::kCrash, 0, 0, 1)};
  const std::vector<Violation> violations = CheckStream(view, stream);
  std::vector<std::string> survivors;
  for (const Violation& violation : violations)
    if (violation.invariant == "task_survived_crash")
      survivors.push_back(violation.detail);
  ASSERT_EQ(survivors.size(), 2u);
  EXPECT_NE(survivors[0].find("task 3 "), std::string::npos) << survivors[0];
  EXPECT_NE(survivors[1].find("task 8 "), std::string::npos) << survivors[1];
}

TEST(InvariantsTest, FinalizeCatchesMachineLeftDown) {
  const std::vector<StreamEvent> stream = {
      Ev(0, Kind::kArrive, 0, 0, 0), Ev(0, Kind::kArrive, 1, 0, 0),
      Ev(0, Kind::kPlace, 0, 0, 1),  Ev(1, Kind::kFinish, 0, 0, 1),
      Ev(1, Kind::kPlace, 1, 1, 0),  Ev(2, Kind::kFinish, 1, 1, 0),
      Ev(3, Kind::kCrash, 0, 0, 1)};
  EXPECT_TRUE(
      Contains(CheckStream(TwoUserView(), stream), "machine_left_down"));
}

// --- stream formatting / hashing --------------------------------------------

TEST(StreamHashTest, FormatIsStable) {
  StreamEvent retry = Ev(1.5, Kind::kPlace, 2, 7, 1);
  EXPECT_EQ(FormatStreamEvent(retry), "t=1.5 place user=2 task=7 machine=1");
  // The attempt is not printed, so it never moves a golden hash.
  retry.attempt = 3;
  EXPECT_EQ(FormatStreamEvent(retry), "t=1.5 place user=2 task=7 machine=1");
}

TEST(StreamHashTest, HashIsOrderAndContentSensitive) {
  const std::vector<StreamEvent> a = {Ev(0, Kind::kArrive, 0, 0, 0),
                                      Ev(1, Kind::kPlace, 0, 0, 1)};
  std::vector<StreamEvent> b = a;
  b[1].machine = 0;
  std::vector<StreamEvent> c = {a[1], a[0]};
  EXPECT_NE(HashStream(a), HashStream(b));
  EXPECT_NE(HashStream(a), HashStream(c));
  EXPECT_EQ(HashStream(a), HashStream(a));
  EXPECT_NE(HashStream({}), 0u);  // FNV offset basis, not zero
}

// --- checker mutation -------------------------------------------------------
//
// Every violation id fires on a minimal bad log: one edit to a clean log
// recorded from a substrate. Both substrates record the same event type, so
// one mutator serves both.

struct RecordedLog {
  ScenarioView view;
  std::vector<StreamEvent> log;
};

// A clean faulted DES log. Two unit machines, one 4-task job of 10 s tasks;
// machine 0 crashes at t=1 (killing its task) and restarts at t=5, where
// the killed task is placed again.
RecordedLog CleanDesLog() {
  Workload workload;
  workload.cluster.AddMachine(ResourceVector{1.0, 1.0});
  workload.cluster.AddMachine(ResourceVector{1.0, 1.0});
  JobSpec spec{.id = 0, .name = "j", .demand = {1.0, 1.0}};
  spec.num_tasks = 4;
  workload.jobs.push_back(MakeUniformJob(spec, 10.0));
  RecordedLog recorded;
  recorded.view = ViewOfWorkload(workload);
  SimOptions options;
  options.faults = {{1.0, SimFault::Kind::kMachineCrash, 0},
                    {5.0, SimFault::Kind::kMachineRestart, 0}};
  options.stream = &recorded.log;
  Simulate(workload, OnlinePolicy::Tsf(), SimCore::kIncremental, options);
  return recorded;
}

// A clean Mesos log. One unit slave, one 4-task framework of 2 s tasks that
// disconnects at t=1 and re-registers at t=3.
RecordedLog CleanMesosLog() {
  mesos::ClusterConfig config;
  config.slaves = {{ResourceVector{1.0, 256.0}, "n1"}};
  config.sample_interval = 0.0;
  const std::vector<mesos::FrameworkSpec> frameworks = {
      {.name = "f", .start_time = 0.0, .num_tasks = 4,
       .demand = ResourceVector{1.0, 256.0}, .mean_runtime = 2.0,
       .runtime_jitter = 0.0}};
  RecordedLog recorded;
  recorded.view = ViewOfMesos(config, frameworks);
  mesos::RunOptions options;
  options.faults = {{1.0, mesos::Fault::Kind::kFrameworkDisconnect, 0},
                    {3.0, mesos::Fault::Kind::kFrameworkReregister, 0}};
  options.stream = &recorded.log;
  mesos::RunCluster(config, frameworks, options);
  return recorded;
}

enum class Edit { kDrop, kDuplicate, kSwapWithNext, kSetUser, kSetMachine };

// Applies one edit to the first (or, with `last`, the final) event of
// `kind`; `value` is the new user or machine of kSetUser/kSetMachine.
std::vector<StreamEvent> Mutate(std::vector<StreamEvent> log, Kind kind,
                                bool last, Edit edit, std::uint32_t value) {
  std::size_t index = log.size();
  for (std::size_t i = 0; i < log.size(); ++i)
    if (log[i].kind == kind && (last || index == log.size())) index = i;
  TSF_CHECK_LT(index, log.size()) << "no " << ToString(kind) << " event";
  switch (edit) {
    case Edit::kDrop:
      log.erase(log.begin() + static_cast<std::ptrdiff_t>(index));
      break;
    case Edit::kDuplicate: {
      const StreamEvent copy = log[index];
      log.insert(log.begin() + static_cast<std::ptrdiff_t>(index), copy);
      break;
    }
    case Edit::kSwapWithNext:
      TSF_CHECK_LT(index + 1, log.size());
      std::swap(log[index], log[index + 1]);
      break;
    case Edit::kSetUser:
      log[index].user = value;
      break;
    case Edit::kSetMachine:
      log[index].machine = value;
      break;
  }
  return log;
}

TEST(CheckerMutationTest, CleanRecordedLogsHaveNoViolations) {
  for (const RecordedLog& recorded : {CleanDesLog(), CleanMesosLog()}) {
    const std::vector<Violation> violations =
        CheckStream(recorded.view, recorded.log);
    EXPECT_TRUE(violations.empty()) << ToString(violations.front());
  }
}

TEST(CheckerMutationTest, EveryViolationFiresOnOneEdit) {
  struct Case {
    const char* invariant;
    bool mesos;
    Kind kind;
    bool last;
    Edit edit;
    std::uint32_t value = 0;
  };
  const Case cases[] = {
      {"duplicate_arrival", false, Kind::kArrive, false, Edit::kDuplicate},
      {"place_before_arrival", false, Kind::kArrive, false, Edit::kDrop},
      // The first finish is machine 1's task; it is not live on machine 0.
      {"task_identity_mismatch", false, Kind::kFinish, false,
       Edit::kSetMachine, 0},
      // Without the restart, machine 0's retried task runs on a down machine.
      {"finish_on_down_machine", false, Kind::kRestart, false, Edit::kDrop},
      // Placed before the restart, the retried task is freed on top of the
      // capacity the restart already restored.
      {"free_capacity_overflow", false, Kind::kRestart, false,
       Edit::kSwapWithNext},
      {"crash_of_down_machine", false, Kind::kCrash, false, Edit::kDuplicate},
      {"restart_of_up_machine", false, Kind::kRestart, false,
       Edit::kDuplicate},
      {"duplicate_disconnect", true, Kind::kDisconnect, false,
       Edit::kDuplicate},
      {"reregister_while_connected", true, Kind::kReregister, false,
       Edit::kDuplicate},
      {"unknown_user", true, Kind::kArrive, false, Edit::kSetUser, 1},
      {"unknown_machine", true, Kind::kPlace, false, Edit::kSetMachine, 1},
      {"conservation", true, Kind::kFinish, true, Edit::kDrop},
  };
  const RecordedLog des = CleanDesLog();
  const RecordedLog mesos = CleanMesosLog();
  for (const Case& c : cases) {
    const RecordedLog& clean = c.mesos ? mesos : des;
    const std::vector<Violation> violations = CheckStream(
        clean.view, Mutate(clean.log, c.kind, c.last, c.edit, c.value));
    EXPECT_TRUE(Contains(violations, c.invariant))
        << c.invariant << " not among " << testing::PrintToString(
               Invariants(violations));
  }
}

// --- shrinker ---------------------------------------------------------------

FaultPlan SixAtomPlan() {
  FaultPlan plan;
  const auto add = [&](double time, FaultKind kind, std::size_t target) {
    plan.events.push_back(FaultSpec{time, kind, target, 0.0});
  };
  add(1, FaultKind::kTaskFailure, 0);
  add(2, FaultKind::kMachineCrash, 0);
  add(3, FaultKind::kMachineCrash, 1);
  add(4, FaultKind::kMachineRestart, 0);
  add(5, FaultKind::kTaskFailure, 2);
  add(6, FaultKind::kMachineRestart, 1);
  add(7, FaultKind::kMachineCrash, 2);
  add(8, FaultKind::kMachineRestart, 2);
  add(9, FaultKind::kTaskFailure, 1);
  return plan;
}

bool HasEvent(const FaultPlan& plan, FaultKind kind, std::size_t target) {
  return std::any_of(plan.events.begin(), plan.events.end(),
                     [&](const FaultSpec& event) {
                       return event.kind == kind && event.target == target;
                     });
}

TEST(ShrinkTest, ReducesToSingleCulpritAtom) {
  // Failure caused by the crash of machine 1 alone: ddmin must come back
  // with exactly that crash and its paired restart.
  const ShrinkResult result =
      ShrinkFaultPlan(SixAtomPlan(), [](const FaultPlan& candidate) {
        return HasEvent(candidate, FaultKind::kMachineCrash, 1);
      });
  ASSERT_EQ(result.plan.events.size(), 2u);
  EXPECT_EQ(result.plan.events[0].kind, FaultKind::kMachineCrash);
  EXPECT_EQ(result.plan.events[0].target, 1u);
  EXPECT_EQ(result.plan.events[1].kind, FaultKind::kMachineRestart);
  EXPECT_EQ(result.plan.events[1].target, 1u);
  EXPECT_GT(result.predicate_calls, 0u);
  // Every candidate the shrinker produced was well-formed by construction;
  // so is the minimum.
  EXPECT_EQ(ValidateFaultPlan(result.plan, 3, 0), "");
}

TEST(ShrinkTest, KeepsConjunctionOfTwoAtoms) {
  // Failure needs BOTH the machine-1 crash and the task failure on machine
  // 2 — 1-minimality keeps the pair plus the single event, nothing else.
  const ShrinkResult result =
      ShrinkFaultPlan(SixAtomPlan(), [](const FaultPlan& candidate) {
        return HasEvent(candidate, FaultKind::kMachineCrash, 1) &&
               HasEvent(candidate, FaultKind::kTaskFailure, 2);
      });
  ASSERT_EQ(result.plan.events.size(), 3u);
  EXPECT_TRUE(HasEvent(result.plan, FaultKind::kMachineCrash, 1));
  EXPECT_TRUE(HasEvent(result.plan, FaultKind::kMachineRestart, 1));
  EXPECT_TRUE(HasEvent(result.plan, FaultKind::kTaskFailure, 2));
  // Time order preserved.
  for (std::size_t i = 1; i < result.plan.events.size(); ++i)
    EXPECT_LE(result.plan.events[i - 1].time, result.plan.events[i].time);
}

TEST(ShrinkTest, AlwaysFailingPlanShrinksToOneAtom) {
  const ShrinkResult result =
      ShrinkFaultPlan(SixAtomPlan(), [](const FaultPlan&) { return true; });
  // 1-minimal for a constant-true predicate is a single atom (1 or 2 events).
  EXPECT_LE(result.plan.events.size(), 2u);
  EXPECT_GE(result.plan.events.size(), 1u);
}

// --- repro round-trip -------------------------------------------------------

TEST(ReproTest, SerializeParseRoundTrips) {
  Repro repro;
  repro.substrate = "mesos";
  repro.scenario_seed = 42;
  repro.policy = "TSF";
  repro.injected_bug = "leak_task_on_crash";
  repro.violation = "[task_survived_crash] t=9.87 task 5 still live";
  FaultPlanShape shape;
  shape.num_machines = 3;
  shape.num_frameworks = 2;
  repro.plan = RandomFaultPlan(shape, 9);
  EXPECT_EQ(ParseRepro(SerializeRepro(repro)), repro);
}

TEST(ReproTest, DesReproRoundTripsWithEmptyViolation) {
  Repro repro;
  repro.substrate = "des";
  repro.scenario_seed = 3;
  repro.policy = "CDRF";
  FaultPlanShape shape;
  shape.num_machines = 2;
  repro.plan = RandomFaultPlan(shape, 4);
  EXPECT_EQ(ParseRepro(SerializeRepro(repro)), repro);
}

// --- scenario generators ----------------------------------------------------

TEST(ScenarioTest, RandomScenariosAreSeedDeterministic) {
  const DesScenario a = RandomDesScenario(11);
  const DesScenario b = RandomDesScenario(11);
  EXPECT_EQ(a.plan, b.plan);
  EXPECT_EQ(a.workload.jobs.size(), b.workload.jobs.size());
  EXPECT_EQ(a.workload.cluster.num_machines(),
            b.workload.cluster.num_machines());
  const ScenarioReport ra =
      RunDesScenario(a.workload, OnlinePolicy::Tsf(), a.plan);
  const ScenarioReport rb =
      RunDesScenario(b.workload, OnlinePolicy::Tsf(), b.plan);
  EXPECT_EQ(ra.stream_hash, rb.stream_hash);
  EXPECT_TRUE(ra.ok()) << ToString(ra.violations.front());
}

TEST(ScenarioTest, MesosScenarioRunsCleanAndDeterministic) {
  const MesosScenario scenario = RandomMesosScenario(5);
  const ScenarioReport a = RunMesosScenario(scenario);
  const ScenarioReport b = RunMesosScenario(scenario);
  EXPECT_EQ(a.stream_hash, b.stream_hash);
  EXPECT_TRUE(a.ok()) << ToString(a.violations.front());
  EXPECT_FALSE(a.stream.empty());
}

// Each of these seeds loses an offer to a drop or rescind in the last
// allocation cycle before the event queue drains; without a re-offer at the
// drain, a framework starved and the run aborted.
TEST(ScenarioTest, MesosOfferLostAtTheDrainStillFinishes) {
  for (const std::uint64_t seed : {280, 348, 378, 464, 1282, 1799}) {
    const ScenarioReport report = RunMesosScenario(RandomMesosScenario(seed));
    EXPECT_TRUE(report.ok())
        << "seed " << seed << ": " << ToString(report.violations.front());
  }
}

// The DES fairness timeline agrees with its own log: every sample's running
// and pending counts equal those derived from the events recorded before
// the sample's instant (a sample shows the state just before the events at
// its instant apply), including while a killed or failed task waits to be
// placed again.
TEST(ScenarioTest, DesFairnessSamplesMatchTheLog) {
  constexpr double kInterval = 0.5;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const DesScenario scenario = RandomDesScenario(seed);
    std::vector<StreamEvent> log;
    SimOptions options;
    options.faults = CompileForDes(scenario.plan);
    options.stream = &log;
    options.fairness_sample_interval = kInterval;
    const std::vector<telemetry::FairnessSample> timeline =
        Simulate(scenario.workload, OnlinePolicy::Tsf(),
                 SimCore::kIncremental, options)
            .fairness_timeline;
    ASSERT_FALSE(log.empty());

    const std::size_t users = scenario.workload.jobs.size();
    std::vector<long> running(users, 0), pending(users, 0);
    std::size_t next_event = 0;
    std::size_t next_sample = 0;
    for (double t = 0.0; t <= log.back().time; t += kInterval) {
      for (; next_event < log.size() && log[next_event].time < t;
           ++next_event) {
        const StreamEvent& event = log[next_event];
        switch (event.kind) {
          case Kind::kArrive:
            pending[event.user] +=
                scenario.workload.jobs[event.user].spec.num_tasks;
            break;
          case Kind::kPlace:
            --pending[event.user];
            ++running[event.user];
            break;
          case Kind::kFinish:
            --running[event.user];
            break;
          case Kind::kKill:
          case Kind::kFail:
            --running[event.user];
            ++pending[event.user];
            break;
          default:
            break;
        }
      }
      // One sample per user with work left, in user order.
      for (std::size_t u = 0; u < users; ++u) {
        if (running[u] == 0 && pending[u] == 0) continue;
        ASSERT_LT(next_sample, timeline.size()) << "seed " << seed;
        const telemetry::FairnessSample& sample = timeline[next_sample++];
        ASSERT_EQ(sample.time, t) << "seed " << seed << " user " << u;
        ASSERT_EQ(sample.user, u) << "seed " << seed << " t=" << t;
        EXPECT_EQ(sample.running, running[u])
            << "seed " << seed << " t=" << t << " user " << u;
        EXPECT_EQ(sample.pending, pending[u])
            << "seed " << seed << " t=" << t << " user " << u;
      }
    }
    EXPECT_EQ(next_sample, timeline.size()) << "seed " << seed;
  }
}

TEST(ScenarioTest, AllOnlinePoliciesHasCanonicalOrder) {
  const std::vector<OnlinePolicy> policies = AllOnlinePolicies();
  ASSERT_EQ(policies.size(), 6u);
  EXPECT_EQ(policies.front().name, "FIFO");
  EXPECT_EQ(policies.back().name, "TSF");
}

}  // namespace
}  // namespace tsf::chaos
