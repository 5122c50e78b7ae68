// Scenario runners: one (workload × policy × FaultPlan) triple end to end.
//
// A scenario run executes a substrate with fault injection enabled and the
// stream recorder attached, and replays the recorded log as it is through
// every invariant checker (invariants.h). Scenario generators are seed-deterministic so a repro
// file only needs the seed and the (possibly shrunk) plan to rebuild the
// exact failing run.
#pragma once

#include <cstdint>
#include <vector>

#include "chaos/fault_plan.h"
#include "chaos/invariants.h"
#include "core/online/policy.h"
#include "mesos/mesos.h"
#include "sim/des.h"
#include "sim/workload.h"

namespace tsf::chaos {

struct ScenarioReport {
  std::vector<StreamEvent> stream;     // the recorded, checked log
  std::vector<Violation> violations;   // empty == all invariants hold
  std::uint64_t stream_hash = 0;       // HashStream(stream)
  // Checker branches this run exercised (chaos::ChaosCoverage); empty unless
  // the run was made through an options struct with `coverage = true` (and
  // the build has coverage compiled in — see TSF_CHAOS_COVERAGE).
  ChaosCoverage coverage;
  // Post-quiescence fairness gap vs the offline TSF point; -1 when not
  // computed (DES runs with `fairness_sample_interval > 0` only).
  double fairness_gap = -1.0;

  bool ok() const { return violations.empty(); }
};

// The six online policies of the paper's macro-benchmarks, in canonical
// order (FIFO, DRF, CDRF, CMMF-CPU, CMMF-Mem, TSF).
std::vector<OnlinePolicy> AllOnlinePolicies();

// --- DES substrate ----------------------------------------------------------

// Seed-deterministic random workload sized so injected faults land while
// work is in flight (2-5 machines, 2-6 jobs, runtimes of a few seconds).
Workload RandomChaosWorkload(std::uint64_t seed);

// Like RandomChaosWorkload, but machine capacities and attribute sets are
// drawn whole from small per-seed menus, so several machines land in each
// equivalence class (core/cluster.h MachineClassIndex). Jobs mix
// unconstrained, attribute-constrained (class-uniform eligibility), and
// whitelisted (splits classes) constraints — the adversarial surface of
// the collapsed online scheduler.
Workload RandomUniformChaosWorkload(std::uint64_t seed);

struct DesScenario {
  Workload workload;
  FaultPlan plan;
};

// RandomChaosWorkload plus a RandomFaultPlan shaped to its cluster.
DesScenario RandomDesScenario(std::uint64_t seed);

// RandomUniformChaosWorkload plus a RandomFaultPlan shaped to its cluster:
// the collapsed-cluster golden/differential scenarios, where faults hit
// machines inside populated equivalence classes.
DesScenario RandomUniformDesScenario(std::uint64_t seed);

// The checker's static view of a DES workload (normalized units, matching
// the scheduler's internal arithmetic).
ScenarioView ViewOfWorkload(const Workload& workload);

// Knobs of the instrumented scenario runners (the guided fuzzer's feedback
// taps). The defaults reproduce the plain runners exactly.
struct ScenarioRunOptions {
  SimCore core = SimCore::kIncremental;
  ClusterMode cluster_mode = ClusterMode::kAuto;
  // Record checker-branch coverage into ScenarioReport::coverage.
  bool coverage = false;
  // DES only: sample the fairness timeline at this virtual-time period and
  // fill ScenarioReport::fairness_gap from the post-quiescence convergence
  // check (chaos::FairnessGap over the trailing half of the run). 0 = off.
  double fairness_sample_interval = 0.0;
};

// Simulates with faults + stream recording, then checks every invariant.
// `cluster_mode` picks the machine-set representation (sim/des.h): kAuto
// collapses only when it pays off, kFlat/kCollapsed force one engine — the
// emitted stream must be identical either way.
ScenarioReport RunDesScenario(const Workload& workload,
                              const OnlinePolicy& policy,
                              const FaultPlan& plan,
                              SimCore core = SimCore::kIncremental,
                              ClusterMode cluster_mode = ClusterMode::kAuto);
ScenarioReport RunDesScenario(const Workload& workload,
                              const OnlinePolicy& policy,
                              const FaultPlan& plan,
                              const ScenarioRunOptions& options);

// --- Mesos substrate --------------------------------------------------------

struct MesosScenario {
  mesos::ClusterConfig config;
  std::vector<mesos::FrameworkSpec> frameworks;
  FaultPlan plan;
};

// Random offer-loop scenario; the allocator policy (TSF or DRF) is drawn
// from the seed. Fault times start after every framework has registered,
// so framework-level faults are always applicable.
MesosScenario RandomMesosScenario(std::uint64_t seed);

// The checker's static view of a Mesos cluster (raw units).
ScenarioView ViewOfMesos(const mesos::ClusterConfig& config,
                         const std::vector<mesos::FrameworkSpec>& frameworks);

ScenarioReport RunMesosScenario(const MesosScenario& scenario);
ScenarioReport RunMesosScenario(const MesosScenario& scenario,
                                const ScenarioRunOptions& options);

// --- Fairness convergence ---------------------------------------------------

// Post-quiescence fairness: time-averages each user's online task share
// over the fairness_timeline samples in [from, until] (the run must have
// used SimOptions::fairness_sample_interval > 0), max-normalizes both that
// vector and the offline ProgressiveFilling (SolveTsf) shares of the same
// instance, and returns the maximum absolute difference. Small values mean
// the faulted online run converged back to the offline fair point.
double FairnessGap(const Workload& workload, const SimResult& result,
                   double from, double until);

}  // namespace tsf::chaos
