#include "sim/des.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <optional>
#include <type_traits>

#include "core/eligibility.h"
#include "core/online/reference_scheduler.h"
#include "core/online/scheduler.h"
#include "telemetry/telemetry.h"
#include "util/check.h"

namespace tsf {

std::vector<double> SimResult::JobQueueingDelays() const {
  std::vector<double> delays;
  delays.reserve(jobs.size());
  for (const JobRecord& job : jobs) delays.push_back(job.QueueingDelay());
  return delays;
}

std::vector<double> SimResult::JobCompletionTimes() const {
  std::vector<double> times;
  times.reserve(jobs.size());
  for (const JobRecord& job : jobs) times.push_back(job.CompletionTime());
  return times;
}

std::vector<double> SimResult::TaskQueueingDelays() const {
  std::vector<double> delays;
  delays.reserve(tasks.size());
  for (const TaskRecord& task : tasks) delays.push_back(task.QueueingDelay());
  return delays;
}

namespace {

// Task-finish event, 32 bytes. Arrivals never enter the queue (the job
// list is already sorted by arrival time and is merged in as a second
// stream, as are injected faults), and finishes sharing a timestamp are
// applied as one batch whose internal order is immaterial — capacity frees
// commute and the freed machine set is sorted before serving — so no
// sequence tie-break or event kind is needed. The narrow fields bound the
// workload at 2^32 jobs/machines/tasks, checked at simulation entry.
// `attempt` is the task slot's placement generation: a crash or failure
// bumps the slot's generation, voiding the queued finish event (lazy
// cancellation — the event pops and is skipped).
struct Event {
  double time = 0.0;
  std::uint32_t job = 0;
  std::uint32_t machine = 0;
  std::uint32_t task_slot = 0;  // index into result.tasks
  std::uint32_t attempt = 0;
};

// 4-ary min-heap on time. Heap churn dominates the event loop (one push
// and one pop per task), and against std::priority_queue's binary heap
// this halves the sift depth while keeping all four children of a node in
// one cache line; sifting moves a hole instead of swapping.
class EventQueue {
 public:
  void Reserve(std::size_t n) { events_.reserve(n); }
  bool Empty() const { return events_.empty(); }
  std::size_t Size() const { return events_.size(); }
  const Event& Top() const { return events_.front(); }

  void Push(const Event& e) {
    std::size_t i = events_.size();
    events_.push_back(e);
    while (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (e.time >= events_[parent].time) break;
      events_[i] = events_[parent];
      i = parent;
    }
    events_[i] = e;
  }

  void Pop() {
    const Event moved = events_.back();
    events_.pop_back();
    const std::size_t n = events_.size();
    if (n == 0) return;
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = 4 * i + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t last = std::min(first + 4, n);
      for (std::size_t c = first + 1; c < last; ++c)
        if (events_[c].time < events_[best].time) best = c;
      if (events_[best].time >= moved.time) break;
      events_[i] = events_[best];
      i = best;
    }
    events_[i] = moved;
  }

 private:
  std::vector<Event> events_;
};

// Machines grouped by identical normalized capacity vector. The Google
// config mix has only a handful of distinct shapes, so the per-arrival
// monopoly-count sweep (h_i over all machines, g_i over the eligible set)
// collapses from O(machines) DivisibleTaskCount calls to O(distinct
// configs) calls plus one AND-popcount per config.
struct CapacityGroup {
  ResourceVector capacity;  // normalized, shared by all members
  DynamicBitset members;    // over the cluster's machines
  double count = 0.0;       // members.Count(), as the multiplier
};

std::vector<CapacityGroup> GroupByCapacity(
    const std::vector<ResourceVector>& capacity) {
  std::vector<CapacityGroup> groups;
  for (std::size_t m = 0; m < capacity.size(); ++m) {
    CapacityGroup* group = nullptr;
    for (CapacityGroup& g : groups)
      if (g.capacity == capacity[m]) {
        group = &g;
        break;
      }
    if (group == nullptr) {
      groups.push_back(CapacityGroup{capacity[m],
                                     DynamicBitset(capacity.size()), 0.0});
      group = &groups.back();
    }
    group->members.Set(m);
    group->count += 1.0;
  }
  return groups;
}

template <class Scheduler>
SimResult SimulateWith(const Workload& workload, const OnlinePolicy& policy,
                       const SimOptions& options) {
  TSF_TRACE_SCOPE("sim", "Simulate");
  const Cluster& cluster = workload.cluster;
  TSF_CHECK_GT(cluster.num_machines(), 0u);
  for (std::size_t j = 1; j < workload.jobs.size(); ++j)
    TSF_CHECK_LE(workload.jobs[j - 1].spec.arrival_time,
                 workload.jobs[j].spec.arrival_time)
        << "jobs must be sorted by arrival";

  SimResult result;
  result.policy = policy.name;
  result.jobs.resize(workload.jobs.size());
  // Tasks are written straight into their (job, index) slot as they are
  // scheduled, so the result needs no final sort to align across policies.
  std::size_t total_tasks = 0;
  std::vector<std::size_t> job_task_offset(workload.jobs.size(), 0);
  for (std::size_t j = 0; j < workload.jobs.size(); ++j) {
    const SimJob& job = workload.jobs[j];
    TSF_CHECK_EQ(static_cast<std::size_t>(job.spec.num_tasks),
                 job.task_runtimes.size());
    job_task_offset[j] = total_tasks;
    total_tasks += job.task_runtimes.size();
  }
  result.tasks.resize(total_tasks);

  // Chaos hooks: faults merge into the batch loop as a third time-sorted
  // stream; the optional stream recorder sees every state transition.
  const std::vector<SimFault>& faults = options.faults;
  for (std::size_t f = 1; f < faults.size(); ++f)
    TSF_CHECK_LE(faults[f - 1].time, faults[f].time)
        << "faults must be sorted by time";
  const bool chaos = !faults.empty();
  // Fault bookkeeping, sized only when faults are present: which machines
  // are up, which task slots run on each machine (so a crash can kill
  // them), the per-slot attempt generation (lazy finish-event
  // cancellation), and per-job requeued slots awaiting re-placement (so a
  // retried task keeps its identity and its pre-sampled runtime).
  std::vector<bool> machine_up(cluster.num_machines(), true);
  std::vector<std::vector<std::uint32_t>> running_on(
      chaos ? cluster.num_machines() : 0);
  std::vector<std::uint32_t> attempt(chaos ? total_tasks : 0, 0);
  std::vector<std::vector<std::uint32_t>> requeued(
      chaos ? workload.jobs.size() : 0);
  auto emit = [&](StreamEvent::Kind kind, double time, std::size_t job,
                  std::size_t task, std::size_t machine,
                  std::uint32_t generation) {
    if (options.stream == nullptr) return;
    options.stream->push_back(
        StreamEvent{time, kind, static_cast<std::uint32_t>(job),
                    static_cast<std::uint32_t>(task),
                    static_cast<std::uint32_t>(machine), generation});
  };

  // Class-collapse decision: only the incremental core has a collapsed
  // engine; the reference core is the flat executable spec. kAuto counts
  // classes with the cheap hash-only pass (no member bitsets) so degenerate
  // clusters — every machine distinct — skip index construction entirely.
  bool collapsed = false;
  if constexpr (std::is_same_v<Scheduler, OnlineScheduler>) {
    switch (options.cluster_mode) {
      case ClusterMode::kFlat:
        break;
      case ClusterMode::kCollapsed:
        collapsed = true;
        break;
      case ClusterMode::kAuto:
        collapsed =
            2 * MachineClassIndex::CountClasses(cluster) <= cluster.num_machines();
        break;
    }
  }
  std::optional<MachineClassIndex> class_index;
  std::optional<EligibilityPool> elig_pool;
  // Classes of each capacity group, for the collapsed monopoly sweep.
  std::vector<std::vector<std::uint32_t>> group_classes;
  if (collapsed) {
    class_index.emplace(cluster);
    elig_pool.emplace(cluster, *class_index);
    group_classes.resize(class_index->num_capacity_groups());
    for (std::size_t c = 0; c < class_index->num_classes(); ++c)
      group_classes[class_index->group_of_class(c)].push_back(
          static_cast<std::uint32_t>(c));
    TSF_COUNTER_ADD("des.collapsed_runs", 1);
  }

  std::vector<ResourceVector> capacity;
  capacity.reserve(cluster.num_machines());
  for (MachineId m = 0; m < cluster.num_machines(); ++m)
    capacity.push_back(cluster.NormalizedCapacity(m));
  // Flat-mode monopoly sweep inputs; the collapsed sweep reads the class
  // index's identical (order and all) capacity groups instead.
  const std::vector<CapacityGroup> config_groups =
      collapsed ? std::vector<CapacityGroup>{} : GroupByCapacity(capacity);
  Scheduler scheduler = [&] {
    if constexpr (std::is_same_v<Scheduler, OnlineScheduler>) {
      return Scheduler(std::move(capacity), policy,
                       collapsed ? &*class_index : nullptr);
    } else {
      return Scheduler(std::move(capacity), policy);
    }
  }();

  // Per-job simulation state.
  struct JobState {
    UserId user = 0;          // scheduler id, assigned at arrival
    long next_task = 0;       // next runtime index to schedule
    long finished = 0;
    bool arrived = false;
    // Fairness-sampler inputs, fixed at arrival.
    double dominant_demand = 0.0;  // max normalized demand component
    double inv_hw = 0.0;           // 1 / (h_i * w_i)
  };
  std::vector<JobState> state(workload.jobs.size());

  // One finish event per task is ever queued; arrivals stream from the
  // (sorted) job list instead of transiting the heap.
  TSF_CHECK_LT(workload.jobs.size() + total_tasks, std::size_t{UINT32_MAX});
  EventQueue events;
  events.Reserve(total_tasks);
  for (std::size_t j = 0; j < workload.jobs.size(); ++j) {
    result.jobs[j].arrival = workload.jobs[j].spec.arrival_time;
    result.jobs[j].num_tasks = workload.jobs[j].spec.num_tasks;
  }

  // The batch clock; declared ahead of the callbacks below so they can
  // capture it by reference and be constructed once instead of per event.
  double now = 0.0;
  std::size_t tasks_placed = 0;

  // Places one task of job j on machine m at `now`: records metrics and
  // enqueues its completion. The scheduler has already debited resources.
  auto record_placement = [&](std::size_t j, MachineId m) {
    JobState& js = state[j];
    const SimJob& job = workload.jobs[j];
    // Requeued slots (crash/failure retries) are re-placed before fresh
    // ones so a retried task keeps its identity and pre-sampled runtime.
    std::size_t slot;
    if (chaos && !requeued[j].empty()) {
      slot = requeued[j].back();
      requeued[j].pop_back();
    } else {
      TSF_CHECK_LT(static_cast<std::size_t>(js.next_task),
                   job.task_runtimes.size());
      slot = job_task_offset[j] + static_cast<std::size_t>(js.next_task++);
    }
    const long index = static_cast<long>(slot - job_task_offset[j]);
    TaskRecord& task = result.tasks[slot];
    task.job = j;
    task.index = index;
    task.submit = job.spec.arrival_time;
    task.schedule = now;
    task.finish = now + job.task_runtimes[static_cast<std::size_t>(index)];
    task.machine = m;
    ++task.attempts;
    ++tasks_placed;
    result.jobs[j].first_schedule = std::min(result.jobs[j].first_schedule, now);
    const std::uint32_t generation = chaos ? attempt[slot] : 0;
    if (chaos) running_on[m].push_back(static_cast<std::uint32_t>(slot));
    emit(StreamEvent::Kind::kPlace, now, j, slot, m, generation);
    events.Push(Event{task.finish, static_cast<std::uint32_t>(j),
                      static_cast<std::uint32_t>(m),
                      static_cast<std::uint32_t>(slot), generation});
  };

  // Scheduler user id → job index (users are added in arrival order).
  std::vector<std::size_t> user_to_job;
  user_to_job.reserve(workload.jobs.size());

  // Constructed once; `now` is captured by reference (see above).
  const std::function<void(UserId, MachineId)> on_place =
      [&](UserId user, MachineId machine) {
        record_placement(user_to_job[user], machine);
      };

  // Events sharing a timestamp are applied as a batch before any
  // scheduling: otherwise jobs submitted "at the same time" would be
  // allocated one after another and the first would monopolize the idle
  // cluster for a whole (non-preemptible) task wave. Arrivals merge in
  // from the sorted job list; batch-mates register (in arrival order)
  // before any finish is applied, matching the former single-queue order.
  // Fairness timeline sampler (see SimOptions): walks every sample instant
  // in (previous now, now] before the batch at `now` applies, so each sample
  // reflects the cluster state that held over that interval.
  const double sample_interval = options.fairness_sample_interval;
  double next_sample = 0.0;
  auto take_sample = [&](double t) {
    for (const std::size_t j : user_to_job) {
      const JobState& js = state[j];
      // A killed or failed slot waits in requeued[j] until re-placed: it
      // is pending, not running.
      const long retrying =
          chaos ? static_cast<long>(requeued[j].size()) : 0;
      const long running = js.next_task - js.finished - retrying;
      const long queued =
          workload.jobs[j].spec.num_tasks - js.next_task + retrying;
      if (running <= 0 && queued <= 0) continue;  // job already done
      telemetry::FairnessSample sample;
      sample.time = t;
      sample.user = static_cast<std::uint32_t>(js.user);
      sample.running = static_cast<std::uint32_t>(running);
      sample.pending = static_cast<std::uint32_t>(queued);
      sample.dominant_share = static_cast<double>(running) * js.dominant_demand;
      sample.task_share = static_cast<double>(running) * js.inv_hw;
      result.fairness_timeline.push_back(sample);
    }
  };

  std::vector<MachineId> freed_machines;
  std::vector<UserId> arrived_users;
  std::size_t next_arrival = 0;
  std::size_t next_fault = 0;
  while (next_arrival < workload.jobs.size() || !events.Empty() ||
         next_fault < faults.size()) {
    now = std::numeric_limits<double>::infinity();
    if (next_arrival < workload.jobs.size())
      now = workload.jobs[next_arrival].spec.arrival_time;
    if (!events.Empty()) now = std::min(now, events.Top().time);
    if (next_fault < faults.size())
      now = std::min(now, faults[next_fault].time);
    if (sample_interval > 0.0)
      while (next_sample <= now) {
        take_sample(next_sample);
        next_sample += sample_interval;
      }
    TSF_COUNTER_ADD("des.batches", 1);
    TSF_HISTOGRAM_RECORD("des.event_heap_depth", events.Size());
    TSF_TRACE_COUNTER("des", "event_heap_depth", events.Size());
    freed_machines.clear();
    arrived_users.clear();

    while (next_arrival < workload.jobs.size() &&
           workload.jobs[next_arrival].spec.arrival_time == now) {
      const std::size_t j = next_arrival++;
      const SimJob& job = workload.jobs[j];
      OnlineUserSpec spec;
      spec.demand = cluster.NormalizedDemand(job.spec.demand);
      spec.weight = job.spec.weight;
      spec.h = 0.0;
      spec.g = 0.0;
      if (collapsed) {
        spec.eligible_set = elig_pool->Intern(job.spec.constraint);
        const EligibilitySet& elig = *spec.eligible_set;
        TSF_CHECK(elig.machines.Any())
            << "job " << job.spec.name << " has no eligible machine";
        // Capacity is class-uniform: probing one representative per eligible
        // class decides the same predicate as the flat per-machine scan.
        const bool fits_somewhere =
            elig.classes.ForEachSetUntil([&](std::size_t c) {
              return cluster.machine(class_index->representative(c))
                  .capacity.Fits(job.spec.demand);
            });
        TSF_CHECK(fits_somewhere)
            << "job " << job.spec.name
            << ": no eligible machine can hold one task — it would never finish";
        // Identical group partition, order, and arithmetic as the flat
        // sweep below: per-group eligible counts are exact integer sums of
        // the per-class counts, so h and g come out bitwise equal.
        for (std::size_t g = 0; g < group_classes.size(); ++g) {
          const double tasks =
              class_index->group_capacity(g).DivisibleTaskCount(spec.demand);
          spec.h += class_index->group_machine_count(g) * tasks;
          std::uint64_t eligible_members = 0;
          for (const std::uint32_t c : group_classes[g])
            eligible_members += elig.class_count[c];
          if (eligible_members > 0)
            spec.g += static_cast<double>(eligible_members) * tasks;
        }
      } else {
        spec.eligible = cluster.Eligibility(job.spec.constraint);
        TSF_CHECK(spec.eligible.Any())
            << "job " << job.spec.name << " has no eligible machine";
        const bool fits_somewhere =
            spec.eligible.ForEachSetUntil([&](std::size_t m) {
              return cluster.machine(m).capacity.Fits(job.spec.demand);
            });
        TSF_CHECK(fits_somewhere)
            << "job " << job.spec.name
            << ": no eligible machine can hold one task — it would never finish";
        for (const CapacityGroup& group : config_groups) {
          const double tasks = group.capacity.DivisibleTaskCount(spec.demand);
          spec.h += group.count * tasks;
          const auto eligible_members =
              static_cast<double>(spec.eligible.CountAnd(group.members));
          if (eligible_members > 0.0) spec.g += eligible_members * tasks;
        }
      }
      spec.pending = job.spec.num_tasks;
      JobState& js = state[j];
      js.dominant_demand = spec.demand.MaxComponent();
      js.inv_hw = 1.0 / (spec.h * job.spec.weight);
      js.user = scheduler.AddUser(std::move(spec));
      js.arrived = true;
      user_to_job.push_back(j);
      TSF_CHECK_EQ(user_to_job.size(), js.user + 1);
      arrived_users.push_back(js.user);
      emit(StreamEvent::Kind::kArrive, now, j, 0, 0, 0);
      TSF_COUNTER_ADD("des.arrivals", 1);
    }

    while (!events.Empty() && events.Top().time == now) {
      // Task completion: free resources now, schedule after the batch.
      const Event event = events.Top();
      events.Pop();
      // Lazy cancellation: a crash or failure bumped the slot's generation,
      // so this finish belongs to a placement that no longer exists.
      if (chaos && event.attempt != attempt[event.task_slot]) {
        TSF_COUNTER_ADD("chaos.des.stale_finish_events", 1);
        continue;
      }
      const std::size_t j = event.job;
      JobState& js = state[j];
      scheduler.OnTaskFinish(js.user, event.machine);
      ++js.finished;
      result.makespan = std::max(result.makespan, now);
      if (chaos) {
        std::vector<std::uint32_t>& on = running_on[event.machine];
        const auto it = std::find(on.begin(), on.end(), event.task_slot);
        TSF_CHECK(it != on.end());
        *it = on.back();
        on.pop_back();
      }
      emit(StreamEvent::Kind::kFinish, now, j, event.task_slot,
           event.machine, event.attempt);
      if (js.finished == workload.jobs[j].spec.num_tasks) {
        result.jobs[j].completion = now;
        scheduler.Retire(js.user);
      }
      freed_machines.push_back(event.machine);
      TSF_COUNTER_ADD("des.task_finishes", 1);
    }

    // Fault batch: applied after finishes (a task completing at the crash
    // instant counts as finished, matching "crash strikes the open
    // interval") and before any scheduling at this instant.
    bool requeued_any = false;
    while (next_fault < faults.size() && faults[next_fault].time == now) {
      const SimFault& fault = faults[next_fault++];
      const MachineId m = fault.machine;
      TSF_CHECK_LT(m, cluster.num_machines());
      // Kills the slot's current placement and returns it to the pending
      // pool; the finish event already queued for it dies by generation.
      auto requeue_task = [&](std::uint32_t slot) {
        ++attempt[slot];
        const std::size_t j = result.tasks[slot].job;
        scheduler.OnTaskFinish(state[j].user, m);
        scheduler.AddPending(state[j].user, 1);
        requeued[j].push_back(slot);
        requeued_any = true;
      };
      switch (fault.kind) {
        case SimFault::Kind::kMachineCrash: {
          TSF_CHECK(machine_up[m]) << "crash of already-down machine " << m;
          // Kill order is immaterial for state (frees commute) but the
          // stream records it, so it is fixed: from the back of the running
          // list to its front (see SimFault::Kind::kTaskFailure).
          std::vector<std::uint32_t>& on = running_on[m];
          for (std::size_t r = on.size(); r-- > 0;) {
            emit(StreamEvent::Kind::kKill, now, result.tasks[on[r]].job,
                 on[r], m, attempt[on[r]]);
            requeue_task(on[r]);
          }
          on.clear();
          scheduler.CrashMachine(m);
          machine_up[m] = false;
          emit(StreamEvent::Kind::kCrash, now, 0, 0, m, 0);
          TSF_COUNTER_ADD("chaos.des.machine_crashes", 1);
          break;
        }
        case SimFault::Kind::kMachineRestart: {
          TSF_CHECK(!machine_up[m]) << "restart of up machine " << m;
          scheduler.RestoreMachine(m);
          machine_up[m] = true;
          emit(StreamEvent::Kind::kRestart, now, 0, 0, m, 0);
          freed_machines.push_back(m);
          TSF_COUNTER_ADD("chaos.des.machine_restarts", 1);
          break;
        }
        case SimFault::Kind::kTaskFailure: {
          // Fails the task at the back of the machine's running list (see
          // SimFault::Kind::kTaskFailure); a no-op on a down or idle
          // machine (the plan generator does not coordinate failure
          // targets with the schedule).
          if (!machine_up[m] || running_on[m].empty()) {
            TSF_COUNTER_ADD("chaos.des.task_failures_skipped", 1);
            break;
          }
          const std::uint32_t slot = running_on[m].back();
          running_on[m].pop_back();
          emit(StreamEvent::Kind::kFail, now, result.tasks[slot].job, slot,
               m, attempt[slot]);
          requeue_task(slot);
          freed_machines.push_back(m);
          TSF_COUNTER_ADD("chaos.des.task_failures", 1);
          break;
        }
      }
    }

    // Scheduling phase. Freed machines are re-offered to everyone eligible
    // (arrivals included — they are registered by now); remaining idle
    // capacity is then handed to the arrival batch in key order. Other
    // pending users need no consideration: they could not place before
    // this instant and no other machine gained capacity — unless a fault
    // requeued tasks, which breaks that work-conservation argument (the
    // requeued user may fit on machines that were idle all along), so a
    // requeue re-offers every up machine in index order.
#if defined(TSF_TELEMETRY)
    // Per-round serve latency (host wall time of one scheduling phase).
    // Informational only — wall time is machine-dependent, so nothing
    // deterministic is derived from it. The clock reads are skipped
    // entirely unless telemetry is enabled.
    const bool tm_round =
        telemetry::Enabled() &&
        (scheduler.HasPendingUsers() || !arrived_users.empty());
    const auto tm_round_start = tm_round
                                    ? std::chrono::steady_clock::now()
                                    : std::chrono::steady_clock::time_point{};
#endif
    if (scheduler.HasPendingUsers()) {
      if (requeued_any) {
        for (MachineId m = 0; m < cluster.num_machines(); ++m)
          if (machine_up[m]) scheduler.ServeMachine(m, on_place);
      } else {
        std::sort(freed_machines.begin(), freed_machines.end());
        freed_machines.erase(
            std::unique(freed_machines.begin(), freed_machines.end()),
            freed_machines.end());
        for (const MachineId m : freed_machines)
          if (machine_up[m]) scheduler.ServeMachine(m, on_place);
      }
    }
    if (!arrived_users.empty())
      scheduler.PlaceUsersInterleaved(arrived_users, on_place);
#if defined(TSF_TELEMETRY)
    if (tm_round) {
      const std::chrono::duration<double, std::micro> tm_round_us =
          std::chrono::steady_clock::now() - tm_round_start;
      TSF_HISTOGRAM_RECORD("des.serve_round_us", tm_round_us.count());
    }
#endif
  }

  // Retries make placements exceed the task count; the per-job finished
  // check below still guarantees completion either way.
  if (!chaos) TSF_CHECK_EQ(tasks_placed, total_tasks);
  for (std::size_t j = 0; j < workload.jobs.size(); ++j)
    TSF_CHECK_EQ(state[j].finished, workload.jobs[j].spec.num_tasks)
        << "job " << j << " did not finish";
  return result;
}

}  // namespace

SimResult Simulate(const Workload& workload, const OnlinePolicy& policy,
                   SimCore core, const SimOptions& options) {
  return core == SimCore::kReference
             ? SimulateWith<ReferenceScheduler>(workload, policy, options)
             : SimulateWith<OnlineScheduler>(workload, policy, options);
}

}  // namespace tsf
