// In-process Mesos-like cluster manager (the Sec. VI-A prototype
// substitute).
//
// Apache Mesos mediates sharing through *resource offers*: each node runs a
// slave that reports its free resources to the master; the master's
// allocator picks the framework (job) that is furthest below its fair share
// and offers it a node's free resources; the framework launches as many
// tasks as fit and implicitly declines the rest, which the master then
// offers to the next framework. The paper plugs TSF into this loop by
// sorting frameworks by task share and adds a whitelist/blacklist interface
// for placement constraints.
//
// This module reproduces that control flow against a virtual clock: slaves,
// frameworks, the offer cycle, the pluggable allocator order (TSF or DRF),
// node whitelists, and a share-timeline sampler — everything Figs. 5–7 and
// Table II measure. What it deliberately omits is the distributed-systems
// plumbing (RPC, failover, executors), which the paper's experiments do not
// exercise.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/resource.h"
#include "core/stream_event.h"

namespace tsf::mesos {

struct SlaveSpec {
  ResourceVector capacity;  // raw units, e.g. <1 core, 1024 MB>
  std::string name;
};

struct FrameworkSpec {
  std::string name;
  double start_time = 0.0;
  long num_tasks = 0;
  ResourceVector demand;       // per-task, raw units
  double mean_runtime = 10.0;  // seconds
  double runtime_jitter = 0.2; // +/- fraction around the mean (Sec. VI-A1)
  // Nodes this framework's tasks may run on (slave indices); empty = all.
  std::vector<std::size_t> whitelist;
  double weight = 1.0;
};

enum class AllocatorPolicy {
  kTsf,  // ascending task share n_i / (h_i w_i) — the paper's plugin
  kDrf,  // ascending global dominant share — stock Mesos allocator
};

struct ClusterConfig {
  std::vector<SlaveSpec> slaves;
  AllocatorPolicy policy = AllocatorPolicy::kTsf;
  std::uint64_t seed = 1;
  // Timeline sampling period for the share curves of Fig. 5 (seconds);
  // 0 disables sampling.
  double sample_interval = 1.0;
};

// One sample of every framework's resource/task shares (Fig. 5's y-axes).
struct SharePoint {
  double time = 0.0;
  std::vector<double> cpu_share;   // fraction of cluster CPU in use
  std::vector<double> mem_share;   // fraction of cluster memory in use
  std::vector<double> task_share;  // n_i(t) / (h_i w_i)
};

struct FrameworkStats {
  std::string name;
  double start_time = 0.0;
  double first_task_time = 0.0;
  double completion_time = 0.0;  // last task finished
  long tasks_run = 0;
  double h = 0.0;  // unconstrained monopoly task count (Table II's h_i)

  double CompletionDuration() const { return completion_time - start_time; }
};

// Plain counters of the master's offer machinery, filled on every run (no
// telemetry build flag needed — regression tests assert on these).
struct AllocatorStats {
  long rounds = 0;            // allocation cycles run
  long probes = 0;            // slave fit probes made across all cycles (a
                              // framework with a cached decline probes only
                              // the slaves that gained capacity since)
  long full_scans = 0;        // probe passes over a framework's whole
                              // whitelist (no cached decline, or more
                              // logged slaves than the fleet has)
  long zero_slave_skips = 0;  // probes short-circuited: free capacity is
                              // exactly zero (pre-fix these emitted empty
                              // offers the framework could only decline)
  long down_slave_skips = 0;  // probes short-circuited: slave is down
  long offers_accepted = 0;
  long offers_declined = 0;   // nothing the framework may use fits
  long round_start_declines = 0;  // of offers_declined: decided when the
                                  // cycle is built (no slave logged since
                                  // the framework's last decline fits), so
                                  // the framework never entered the heap
  long offers_dropped = 0;    // master dropped the offer (injected fault)
  long offers_rescinded = 0;  // master rescinded the offer (injected fault)
  long blackout_declines = 0; // framework inside a decline-timeout window
};

struct SimOutcome {
  std::vector<SharePoint> timeline;
  std::vector<FrameworkStats> frameworks;
  double makespan = 0.0;
  AllocatorStats stats;
};

// --- chaos hooks (src/chaos fault injection) --------------------------------

// One fault, applied at a virtual-clock instant. The Mesos substrate adds
// offer- and framework-level faults on top of the machine faults shared
// with the DES (sim/des.h).
struct Fault {
  enum class Kind {
    kSlaveCrash,           // target = slave; running tasks are killed, from
                           // the back of the running list to its front
                           // (see kTaskFailure), and re-enter the pending
                           // pool (relaunched elsewhere)
    kSlaveRestart,         // target = slave; comes back empty
    kTaskFailure,          // target = slave; the task at the back of the
                           // slave's running list fails and re-enters the
                           // pending pool (no-op on a down or idle slave).
                           // The list is in launch order except that a
                           // finish moves the last entry into the finished
                           // task's place, so after an out-of-order finish
                           // the victim need not be the latest launch.
    kOfferDrop,            // target = framework; master drops its next
                           // max(1, param) offers, one per allocation cycle
    kOfferRescind,         // target = framework; next offer is rescinded
    kDeclineTimeout,       // target = framework; declines everything until
                           // time + param (a stuck scheduler driver)
    kFrameworkDisconnect,  // target = framework; receives no offers, its
                           // running tasks keep running
    kFrameworkReregister,  // target = framework; offers resume
  };
  double time = 0.0;
  Kind kind = Kind::kSlaveCrash;
  std::size_t target = 0;  // slave or framework index, per kind
  double param = 0.0;      // kOfferDrop: offer count; kDeclineTimeout: window
};

// The former name of StreamEvent, kept only because perfbench/main.cc still
// spells it; nothing else may use it.
using MasterEvent = StreamEvent;

struct RunOptions {
  // Fault events to inject, sorted by time (checked). Plans must be
  // well-formed — crash/restart and disconnect/reregister strictly
  // alternating per target with every outage eventually lifted
  // (chaos::ValidateFaultPlan enforces this) — otherwise the run can end
  // with unfinished frameworks, which is fatal.
  std::vector<Fault> faults;
  // When set, every master state transition is appended here (input of the
  // chaos invariant checkers and the load driver). A registration is
  // kArrive and a launch kPlace; `user` is the framework index, `machine`
  // the slave index, and `task` a master-global launch id (fresh on every
  // launch: unlike the DES, the master does not preserve task identity
  // across relaunches), so `attempt` is always 0.
  std::vector<StreamEvent>* stream = nullptr;
};

// Deliberately injectable bugs, for testing that the chaos harness catches
// them (tools/fuzz_scenarios --inject_bug). Never set outside tests.
enum class InjectedBug {
  kNone = 0,
  kLeakTaskOnCrash,  // a slave crash "forgets" to kill its first running
                     // task: the leaked task later finishes on a down slave
};
void SetInjectedBugForTesting(InjectedBug bug);

// Runs the offer-based cluster to completion. Frameworks register at their
// start times; the allocator re-runs after every registration, task
// completion, and fault.
SimOutcome RunCluster(const ClusterConfig& config,
                      const std::vector<FrameworkSpec>& frameworks,
                      const RunOptions& options);
SimOutcome RunCluster(const ClusterConfig& config,
                      const std::vector<FrameworkSpec>& frameworks);

// --- Table II helpers -----------------------------------------------------

// The paper's 50-node EC2 fleet: slaves 0-24 manage <1 CPU, 1 GB>, slaves
// 25-49 manage <2 CPUs, 1 GB>.
std::vector<SlaveSpec> PaperFleet();

// The four Table II jobs (start times, task counts, demands, runtimes,
// whitelists). Node numbering follows the paper (1-based in prose, 0-based
// here).
std::vector<FrameworkSpec> TableTwoJobs();

}  // namespace tsf::mesos
