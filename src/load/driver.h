// Open-loop load driver: runs a generated arrival stream (stream.h) against
// an online substrate and derives the SLO observability metrics from the
// recorded event stream.
//
// Both substrates already record one total-order event log (StreamEvent,
// core/stream_event.h) for the golden-determinism and chaos invariant
// checks; the driver reuses it as the measurement tap. Per-task
// time-to-placement is the virtual time between a task becoming pending (job
// arrival, or a fault-driven requeue) and its (re)placement; queue depth is
// the number of pending tasks at each sample instant. Both are derived from
// the log alone: the substrates keep no latency metric of their own.
//
// Latencies are recorded in *milliseconds*: the log-bucketed histogram's
// bucket 0 swallows everything below 1, so sub-second waits — the common
// case at low load — must be scaled up to keep their quantile resolution.
//
// Every metric except wall_seconds is derived from virtual time and is
// therefore a deterministic function of (config, policy, faults) — the SLO
// regression gate can compare it across machines bit for bit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/online/policy.h"
#include "load/stream.h"
#include "mesos/mesos.h"
#include "sim/des.h"
#include "telemetry/metrics.h"

namespace tsf::load {

// Pending-task count at a virtual-time instant (state just before the
// events at that instant apply).
struct QueueSample {
  double time = 0.0;
  long depth = 0;
};

// Time-to-placement distribution for one aggregation bucket, in ms.
// telemetry::HistogramSnapshot is the always-compiled data API: Quantile()
// gives p50/p95/p99 with the documented <2x log-bucket error bound.
struct LatencySeries {
  std::string label;  // "all" or a mix-class name
  telemetry::HistogramSnapshot ttp_ms;
};

struct DriverConfig {
  StreamSpec stream;
  std::size_t num_machines = 60;
  // Virtual-time period of the queue-depth sampler (seconds); 0 disables.
  double queue_sample_interval = 1.0;
};

struct LoadReport {
  std::string substrate;  // "des" | "mesos"
  std::string policy;
  double rate = 0.0;      // the stream's configured arrival rate
  double makespan = 0.0;  // virtual seconds until the backlog drained
  double wall_seconds = 0.0;  // host wall time of the run (informational
                              // only: never hashed or gated)
  std::uint64_t total_jobs = 0;
  std::uint64_t total_tasks = 0;
  std::uint64_t placements = 0;  // includes fault-driven replacements
  std::uint64_t requeues = 0;    // kills + failures
  // FNV-1a over the full event stream — the determinism pin: equal streams
  // have equal hashes.
  std::uint64_t placement_hash = 0;
  LatencySeries all;
  std::vector<LatencySeries> per_class;  // one per mix class, stream order
  std::vector<QueueSample> queue_depth;
};

// Runs the stream through the DES substrate (sim/des.h) under `policy`.
LoadReport RunDesLoad(const DriverConfig& config, const OnlinePolicy& policy,
                      std::vector<SimFault> faults = {});

// Runs the stream through the Mesos master (mesos/mesos.h) under `policy`.
// The Mesos substrate does not preserve task identity across fault-driven
// relaunches, so pending times are matched FIFO per framework (entries are
// pushed in nondecreasing time order, so the match is exact for the
// fault-free case and oldest-first otherwise).
LoadReport RunMesosLoad(const DriverConfig& config,
                        mesos::AllocatorPolicy policy,
                        std::vector<mesos::Fault> faults = {});

}  // namespace tsf::load
