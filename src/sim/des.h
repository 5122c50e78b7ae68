// Trace-driven discrete-event cluster simulator (the macro-benchmark
// substrate of Sec. VI-B).
//
// Two event kinds drive the run — job arrival and task completion — with the
// online scheduler invoked after each, exactly as Sec. V-D prescribes:
// arrivals greedily take whatever idle resources fit; every completion
// re-offers the freed machine to eligible users in ascending share order.
// Tasks are never preempted.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/online/policy.h"
#include "core/stream_event.h"
#include "sim/workload.h"
#include "telemetry/timeline.h"

namespace tsf {

struct JobRecord {
  double arrival = 0.0;
  double first_schedule = std::numeric_limits<double>::infinity();
  double completion = 0.0;
  long num_tasks = 0;

  // Job queueing delay: arrival to first task scheduled (Fig. 9a).
  double QueueingDelay() const { return first_schedule - arrival; }
  // Job completion time: arrival to last task finished (Fig. 9b).
  double CompletionTime() const { return completion - arrival; }
};

struct TaskRecord {
  std::size_t job = 0;
  long index = 0;        // task index within the job
  double submit = 0.0;   // == job arrival (all tasks submitted with the job)
  double schedule = 0.0;
  double finish = 0.0;
  std::size_t machine = 0;  // machine of the (last) placement
  long attempts = 0;        // placements incl. fault-driven retries (>=1)

  // Task queueing delay: submission to scheduling (Fig. 11a).
  double QueueingDelay() const { return schedule - submit; }
};

struct SimResult {
  std::string policy;
  std::vector<JobRecord> jobs;
  std::vector<TaskRecord> tasks;  // ordered by (job, task index)
  double makespan = 0.0;
  // Filled when SimOptions::fairness_sample_interval > 0: every live user's
  // shares at each sample instant, ordered by (time, user).
  std::vector<telemetry::FairnessSample> fairness_timeline;

  std::vector<double> JobQueueingDelays() const;
  std::vector<double> JobCompletionTimes() const;
  std::vector<double> TaskQueueingDelays() const;
};

// --- chaos hooks (src/chaos fault injection) --------------------------------

// One fault, applied at a virtual-clock instant. Faults are the DES subset of
// the chaos subsystem's FaultPlan (src/chaos/fault_plan.h compiles plans down
// to this form); offer- and framework-level faults exist only in the Mesos
// substrate (mesos/mesos.h).
struct SimFault {
  enum class Kind {
    kMachineCrash,    // machine goes down; its running tasks are killed,
                      // from the back of the running list to its front (see
                      // kTaskFailure), and re-enter the pending pool (same
                      // task identity/runtime)
    kMachineRestart,  // machine comes back, empty
    kTaskFailure,     // the task at the back of the machine's running list
                      // fails and re-enters the pending pool (no-op if
                      // none running). The list is in placement order
                      // except that a finish moves the last entry into the
                      // finished task's place, so after an out-of-order
                      // finish the victim need not be the latest placement.
  };
  double time = 0.0;
  Kind kind = Kind::kMachineCrash;
  MachineId machine = 0;
};

// The former name of StreamEvent, kept only because perfbench/main.cc still
// spells it; nothing else may use it.
using SimStreamEvent = StreamEvent;

// How the simulator models the machine set. kAuto collapses identical
// machines into equivalence classes (core/cluster.h MachineClassIndex) when
// that pays off — 2 * classes <= machines — and stays flat otherwise;
// kFlat forces the legacy per-machine structures (the A/B baseline behind
// bench_scale's --flat_cluster); kCollapsed forces the class-level engine.
// The emitted placement stream is bit-identical across all three — only
// the work spent per scheduling decision changes. The reference core
// (SimCore::kReference) is always flat: it is the executable spec.
enum class ClusterMode { kAuto, kFlat, kCollapsed };

// Optional observability knobs; the default runs exactly as before.
struct SimOptions {
  // Virtual-time period of the fairness timeline sampler (seconds); 0
  // disables sampling. Samples are taken at t = 0, interval, 2*interval, ...
  // up to the makespan, each reflecting the state just before the events at
  // that instant apply.
  double fairness_sample_interval = 0.0;

  // Fault events to inject, sorted by time (checked). Plans must be
  // well-formed — crash/restart strictly alternating per machine with every
  // crash eventually restarted (chaos::ValidateFaultPlan enforces this) —
  // otherwise the run can end with unfinished jobs, which is fatal.
  std::vector<SimFault> faults;

  // When set, every state transition is appended here (the placement stream
  // of the golden-determinism tests, the chaos invariant checkers and the
  // load driver). `user` is the job index, `task` the global task slot
  // (dense over (job, index)) and `attempt` the slot's placement generation.
  std::vector<StreamEvent>* stream = nullptr;

  // Machine-set representation (see ClusterMode above).
  ClusterMode cluster_mode = ClusterMode::kAuto;
};

// Which scheduling core drives the simulation. kIncremental is the
// heap-based production core; kReference is the retained linear-scan
// implementation (core/online/reference_scheduler.h) used by the
// differential tests — both must emit identical placement streams.
enum class SimCore { kIncremental, kReference };

// Runs `workload` to completion under `policy`. Jobs must be sorted by
// arrival time. The result's tasks vector is indexed consistently across
// policies (same workload → same task identity), enabling per-task speedup
// comparisons.
SimResult Simulate(const Workload& workload, const OnlinePolicy& policy,
                   SimCore core = SimCore::kIncremental,
                   const SimOptions& options = {});

}  // namespace tsf
