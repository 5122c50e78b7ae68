#include "mesos/mesos.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <queue>

#include "core/online/ranker.h"
#include "telemetry/telemetry.h"
#include "util/check.h"
#include "util/rng.h"

namespace tsf::mesos {
namespace {

// Test-only bug switch (SetInjectedBugForTesting); relaxed is enough — tests
// set it before the run and reset it after, never concurrently with one.
std::atomic<InjectedBug> g_injected_bug{InjectedBug::kNone};

// FrameworkState::scan_from when the framework has no cached decline: its
// next probe scans every slave.
constexpr std::size_t kFullScan = std::numeric_limits<std::size_t>::max();

struct Event {
  double time = 0.0;
  std::uint64_t seq = 0;
  enum class Kind {
    kRegister,
    kTaskFinish,
    kSample,
    kFault,  // framework field holds the index into RunOptions::faults
    kNudge,  // re-run allocation (decline-timeout expiry, or a lost offer
             // at the drain), no state change
  } kind = Kind::kRegister;
  std::size_t framework = 0;
  std::size_t slave = 0;
  std::uint64_t task = 0;  // kTaskFinish: master-global launch id

  bool operator>(const Event& other) const {
    if (time != other.time) return time > other.time;
    return seq > other.seq;
  }
};

struct FrameworkState {
  FrameworkSpec spec;
  bool registered = false;
  long launched = 0;   // tasks started so far
  long running = 0;
  long finished = 0;
  double h = 0.0;
  // Cached share-key state (core/online/ranker.h): key == running * coeff,
  // updated on every launch/finish instead of recomputed per comparison.
  double coeff = 0.0;
  double key = 0.0;
  std::vector<bool> allowed;  // per slave
  // Fault state: offers the master will drop/rescind (one per allocation
  // cycle), and the end of the current decline-everything window.
  long pending_drops = 0;
  long pending_rescinds = 0;
  double blackout_until = -std::numeric_limits<double>::infinity();
  // Cached decline: the grown-slave log's length at this framework's last
  // decline (kFullScan if none). Every allowed slave outside
  // grown[scan_from..] is known not to fit (see run_allocation).
  std::size_t scan_from = kFullScan;
  FrameworkStats stats;
#if defined(TSF_TELEMETRY)
  // Per-framework offer outcome counters (mesos.offers.<name>.accepted /
  // .declined); resolved once at registration, incremented when enabled.
  telemetry::Counter* accepted_counter = nullptr;
  telemetry::Counter* declined_counter = nullptr;
#endif

  bool HasPending() const { return launched < spec.num_tasks; }
  void UpdateKey() { key = static_cast<double>(running) * coeff; }
};

}  // namespace

void SetInjectedBugForTesting(InjectedBug bug) {
  g_injected_bug.store(bug, std::memory_order_relaxed);
}

std::vector<SlaveSpec> PaperFleet() {
  std::vector<SlaveSpec> slaves;
  slaves.reserve(50);
  for (int n = 0; n < 50; ++n) {
    SlaveSpec slave;
    slave.capacity =
        n < 25 ? ResourceVector{1.0, 1024.0} : ResourceVector{2.0, 1024.0};
    slave.name = "node" + std::to_string(n + 1);
    slaves.push_back(std::move(slave));
  }
  return slaves;
}

std::vector<FrameworkSpec> TableTwoJobs() {
  auto nodes = [](int lo, int hi) {  // paper's 1-based inclusive ranges
    std::vector<std::size_t> ids;
    for (int n = lo; n <= hi; ++n) ids.push_back(static_cast<std::size_t>(n - 1));
    return ids;
  };
  std::vector<FrameworkSpec> jobs(4);
  jobs[0] = {.name = "job1", .start_time = 0.0, .num_tasks = 1000,
             .demand = ResourceVector{1.0, 512.0}, .mean_runtime = 23.2,
             .runtime_jitter = 0.2, .whitelist = {}, .weight = 1.0};
  jobs[1] = {.name = "job2", .start_time = 10.0, .num_tasks = 150,
             .demand = ResourceVector{0.5, 512.0}, .mean_runtime = 18.3,
             .runtime_jitter = 0.2, .whitelist = nodes(1, 25), .weight = 1.0};
  jobs[2] = {.name = "job3", .start_time = 150.0, .num_tasks = 100,
             .demand = ResourceVector{0.5, 512.0}, .mean_runtime = 21.3,
             .runtime_jitter = 0.2, .whitelist = nodes(1, 10), .weight = 1.0};
  jobs[3] = {.name = "job4", .start_time = 150.0, .num_tasks = 100,
             .demand = ResourceVector{1.0, 512.0}, .mean_runtime = 55.6,
             .runtime_jitter = 0.2, .whitelist = nodes(1, 10), .weight = 1.0};
  // jobs 3 and 4 also whitelist nodes 26-35 (Table II).
  for (int n = 26; n <= 35; ++n) {
    jobs[2].whitelist.push_back(static_cast<std::size_t>(n - 1));
    jobs[3].whitelist.push_back(static_cast<std::size_t>(n - 1));
  }
  return jobs;
}

SimOutcome RunCluster(const ClusterConfig& config,
                      const std::vector<FrameworkSpec>& framework_specs) {
  return RunCluster(config, framework_specs, RunOptions{});
}

SimOutcome RunCluster(const ClusterConfig& config,
                      const std::vector<FrameworkSpec>& framework_specs,
                      const RunOptions& options) {
  TSF_CHECK(!config.slaves.empty());
  TSF_CHECK(!framework_specs.empty());
  const std::size_t num_slaves = config.slaves.size();
  const std::size_t num_frameworks = framework_specs.size();
  const std::size_t resources = config.slaves[0].capacity.dimension();

  ResourceVector total(resources);
  for (const SlaveSpec& slave : config.slaves) {
    TSF_CHECK_EQ(slave.capacity.dimension(), resources);
    total += slave.capacity;
  }

  std::vector<ResourceVector> free;
  free.reserve(num_slaves);
  for (const SlaveSpec& slave : config.slaves) free.push_back(slave.capacity);

  // Chaos hooks: faults enter the master's event queue like any other
  // event; the optional stream recorder sees every state transition.
  const std::vector<Fault>& faults = options.faults;
  for (std::size_t i = 1; i < faults.size(); ++i)
    TSF_CHECK_LE(faults[i - 1].time, faults[i].time)
        << "faults must be sorted by time";
  std::vector<bool> up(num_slaves, true);
  // Running tasks per slave as (launch id, framework), so a crash can kill
  // them; `cancelled` marks launch ids whose queued finish event must be
  // skipped when it pops (lazy cancellation).
  struct RunningTask {
    std::uint64_t task = 0;
    std::size_t framework = 0;
  };
  std::vector<std::vector<RunningTask>> on_slave(num_slaves);
  std::vector<char> cancelled;  // indexed by launch id
  std::uint64_t next_task_id = 0;
  const InjectedBug injected_bug =
      g_injected_bug.load(std::memory_order_relaxed);
  auto emit = [&](StreamEvent::Kind kind, double time, std::size_t framework,
                  std::uint64_t task, std::size_t slave) {
    if (options.stream == nullptr) return;
    options.stream->push_back(
        StreamEvent{time, kind, static_cast<std::uint32_t>(framework),
                    static_cast<std::uint32_t>(task),
                    static_cast<std::uint32_t>(slave)});
  };

  Rng rng(config.seed);
  std::vector<FrameworkState> frameworks(num_frameworks);
  for (std::size_t f = 0; f < num_frameworks; ++f) {
    FrameworkState& fw = frameworks[f];
    fw.spec = framework_specs[f];
    TSF_CHECK_GT(fw.spec.num_tasks, 0);
    TSF_CHECK_EQ(fw.spec.demand.dimension(), resources);
    // An all-zero demand would "fit" a slave whose free capacity is exactly
    // zero and launch tasks onto fully-packed (or crashed) nodes.
    TSF_CHECK_GT(fw.spec.demand.MaxComponent(), 0.0)
        << fw.spec.name << ": all-zero task demand";
    fw.allowed.assign(num_slaves, fw.spec.whitelist.empty());
    for (const std::size_t s : fw.spec.whitelist) {
      TSF_CHECK_LT(s, num_slaves);
      fw.allowed[s] = true;
    }
    bool fits_somewhere = false;
    for (std::size_t s = 0; s < num_slaves; ++s) {
      fw.h += config.slaves[s].capacity.DivisibleTaskCount(fw.spec.demand);
      fits_somewhere |=
          fw.allowed[s] && config.slaves[s].capacity.Fits(fw.spec.demand);
    }
    TSF_CHECK(fits_somewhere) << fw.spec.name << ": no slave fits a task";
    fw.stats.name = fw.spec.name;
    fw.stats.start_time = fw.spec.start_time;
    fw.stats.first_task_time = std::numeric_limits<double>::infinity();
    fw.stats.h = fw.h;
    // Cache the share-key coefficient once per framework, reusing the
    // online scheduler's ranker (kTsf → 1/(h·w); kDrf → dominant share of
    // the normalized demand / w).
    ResourceVector normalized_demand(resources);
    for (std::size_t r = 0; r < resources; ++r)
      if (total[r] > 0.0) normalized_demand[r] = fw.spec.demand[r] / total[r];
    const OnlinePolicy ranker_policy = config.policy == AllocatorPolicy::kTsf
                                           ? OnlinePolicy::Tsf()
                                           : OnlinePolicy::Drf();
    fw.coeff = ShareCoefficient(ranker_policy, normalized_demand,
                                fw.spec.weight, fw.h, fw.h);
    fw.UpdateKey();
#if defined(TSF_TELEMETRY)
    fw.accepted_counter = &telemetry::Registry::Get().GetCounter(
        "mesos.offers." + fw.spec.name + ".accepted");
    fw.declined_counter = &telemetry::Registry::Get().GetCounter(
        "mesos.offers." + fw.spec.name + ".declined");
#endif
  }

  // How many frameworks may ever use each slave. The allocator steers a
  // framework toward its least-contended fitting slave, so flexible jobs
  // drain onto nodes nobody else can use before touching the nodes that
  // constrained jobs depend on (cf. Choosy's placement guidance). Without
  // this, index-order first-fit lets unconstrained jobs squat on scarce
  // whitelisted nodes and the tight packings behind Thm. 1 are missed.
  std::vector<std::size_t> contention(num_slaves, 0);
  for (const FrameworkState& fw : frameworks)
    for (std::size_t s = 0; s < num_slaves; ++s)
      if (fw.allowed[s]) ++contention[s];

  // The grown-slave log: a slave id is appended each time its free
  // capacity increases (a task finish, including a leaked finish on a down
  // slave, or a task failure). A crash or restart instead resets every
  // framework to a full scan and empties the log.
  std::vector<std::uint32_t> grown;
  auto forget_declines = [&] {
    for (FrameworkState& fw : frameworks) fw.scan_from = kFullScan;
    grown.clear();
  };
  // Frameworks that have registered and not yet finished, in registration
  // order (a disconnected one stays listed); finished ones are compacted
  // away when the next cycle is built.
  std::vector<std::size_t> live;
  live.reserve(num_frameworks);

  std::priority_queue<Event, std::vector<Event>, std::greater<>> events;
  std::uint64_t seq = 0;
  for (std::size_t f = 0; f < num_frameworks; ++f)
    events.push(Event{frameworks[f].spec.start_time, seq++,
                      Event::Kind::kRegister, f, 0});
  // Faults are pushed up front, so within a same-instant batch they apply
  // before that instant's task finishes (a finish racing a crash loses: the
  // task is killed and requeued, not completed).
  for (std::size_t i = 0; i < faults.size(); ++i)
    events.push(Event{faults[i].time, seq++, Event::Kind::kFault, i, 0});

  SimOutcome outcome;
  outcome.frameworks.resize(num_frameworks);
  AllocatorStats& stats = outcome.stats;

  auto sample_timeline = [&](double now) {
    TSF_TRACE_SCOPE("mesos", "sample_timeline");
    SharePoint point;
    point.time = now;
    point.cpu_share.resize(num_frameworks);
    point.mem_share.resize(num_frameworks);
    point.task_share.resize(num_frameworks);
    for (std::size_t f = 0; f < num_frameworks; ++f) {
      const FrameworkState& fw = frameworks[f];
      const auto n = static_cast<double>(fw.running);
      point.cpu_share[f] = total[0] > 0 ? n * fw.spec.demand[0] / total[0] : 0;
      point.mem_share[f] =
          resources > 1 && total[1] > 0 ? n * fw.spec.demand[1] / total[1] : 0;
      point.task_share[f] = n / (fw.h * fw.spec.weight);
    }
    outcome.timeline.push_back(std::move(point));
  };

  // Least-contended fitting slave for `fw` (see `contention`), or
  // num_slaves if none fits. Down slaves are never offered, and neither are
  // slaves whose free capacity is exactly zero — an offer of nothing can
  // only be declined (and pre-dated the demand-positivity check, could even
  // be accepted). With a cached decline only the slaves logged since it are
  // candidates; the log may repeat a slave and is not in index order, so
  // ties on contention go to the lower index explicitly, which is the
  // choice an index-order scan with a strict `<` makes.
  auto probe = [&](const FrameworkState& fw) {
    std::size_t best = num_slaves;
    auto consider = [&](std::size_t s) {
      if (!fw.allowed[s]) return;
      ++stats.probes;
      if (!up[s]) {
        ++stats.down_slave_skips;
        return;
      }
      if (free[s].IsZero()) {
        ++stats.zero_slave_skips;
        return;
      }
      if (!free[s].Fits(fw.spec.demand)) return;
      if (best == num_slaves || contention[s] < contention[best] ||
          (contention[s] == contention[best] && s < best))
        best = s;
    };
    // A log range at least as long as the fleet costs more than a scan.
    if (fw.scan_from == kFullScan ||
        grown.size() - fw.scan_from >= num_slaves) {
      ++stats.full_scans;
      for (std::size_t s = 0; s < num_slaves; ++s) consider(s);
    } else {
      for (std::size_t k = fw.scan_from; k < grown.size(); ++k)
        consider(grown[k]);
    }
    return best;
  };
  // The framework implicitly declines: nothing it may use fits.
  auto decline = [&](FrameworkState& fw) {
    fw.scan_from = grown.size();
    ++stats.offers_declined;
    TSF_COUNTER_ADD("mesos.offers.declined", 1);
#if defined(TSF_TELEMETRY)
    if (telemetry::Enabled()) fw.declined_counter->Add(1);
#endif
  };

  // The master's allocation cycle, mirroring the mesos-master + paper's
  // online algorithm: repeatedly offer free resources to the framework with
  // the lowest share that can actually launch a task, launch *one* task,
  // and re-rank. Like Mesos's DRF sorter, the re-rank touches only the
  // launched framework: the others sit in a (key, id) min-heap, so each
  // launch costs O(log frameworks) selection plus the slave probe. Within
  // one cycle free capacity only shrinks, so a framework with no fitting
  // whitelisted slave is dropped from the heap for the rest of the cycle.
  //
  // A decline holds across cycles until a slave the framework may use gains
  // capacity (an exact, virtual-time Mesos decline filter). Invariant: no
  // allowed slave outside grown[scan_from..] fits the framework's demand.
  // A decline sets scan_from to the log's end, and it stays true as capacity
  // shrinks within a cycle and as every later growth is logged; a launch
  // leaves scan_from alone. So a probe need only visit the logged slaves,
  // and a framework none of whose logged slaves fits when the cycle is
  // built would decline when popped: that decline is counted on the spot
  // and the framework never enters the heap. The heap pops in (key, id)
  // order, so leaving it out changes no other framework's turn.
  RankHeap offer_heap;
  auto run_allocation = [&](double now) {
    TSF_TRACE_SCOPE("mesos", "offer_round");
    TSF_COUNTER_ADD("mesos.offer_rounds", 1);
#if defined(TSF_TELEMETRY)
    // Per-round offer-cycle latency (host wall time). Informational only —
    // the clock reads are skipped entirely unless telemetry is enabled.
    const bool tm_round = telemetry::Enabled();
    const auto tm_round_start = tm_round
                                    ? std::chrono::steady_clock::now()
                                    : std::chrono::steady_clock::time_point{};
#endif
    ++stats.rounds;
    {
      TSF_TRACE_SCOPE("mesos", "allocator_sort");
      offer_heap.Clear();
      std::size_t kept = 0;
      for (const std::size_t f : live) {
        FrameworkState& fw = frameworks[f];
        if (fw.finished == fw.spec.num_tasks) continue;  // done for good
        live[kept++] = f;
        if (!fw.registered || !fw.HasPending()) continue;
        // Drops, rescinds and blackouts intercept the offer before any
        // probe, so those frameworks take their turn in the heap.
        if (fw.scan_from != kFullScan && fw.pending_drops == 0 &&
            fw.pending_rescinds == 0 && !(now < fw.blackout_until) &&
            probe(fw) == num_slaves) {
          ++stats.round_start_declines;
          decline(fw);
          continue;
        }
        offer_heap.PushUnordered(fw.key, f);
      }
      live.resize(kept);
      offer_heap.Heapify();
    }

    while (!offer_heap.Empty()) {
      const RankEntry entry = offer_heap.PopMin();
      FrameworkState& fw = frameworks[entry.id];
      if (entry.key != fw.key) {  // stale entry: re-rank at the current key
        TSF_COUNTER_ADD("mesos.allocator.stale_entries", 1);
        offer_heap.Push(fw.key, entry.id);
        continue;
      }
      // Injected faults intercept the offer before the framework sees it
      // (drop/rescind) or make the framework sit the cycle out (a
      // decline-timeout window). One offer per cycle either way.
      if (fw.pending_rescinds > 0) {
        --fw.pending_rescinds;
        ++stats.offers_rescinded;
        TSF_COUNTER_ADD("chaos.mesos.offers_rescinded", 1);
        continue;  // out for the rest of this cycle
      }
      if (fw.pending_drops > 0) {
        --fw.pending_drops;
        ++stats.offers_dropped;
        TSF_COUNTER_ADD("chaos.mesos.offers_dropped", 1);
        continue;  // out for the rest of this cycle
      }
      if (now < fw.blackout_until) {
        ++stats.blackout_declines;
        TSF_COUNTER_ADD("chaos.mesos.blackout_declines", 1);
        continue;  // out for the rest of this cycle
      }
      const std::size_t slave = probe(fw);
      if (slave == num_slaves) {
        decline(fw);
        continue;  // out for the rest of this cycle
      }

      // Launch exactly one task, then re-rank — re-ranking after every
      // allocation is what keeps simultaneously-registered equal-share
      // frameworks interleaved instead of letting the first one absorb a
      // whole node.
      free[slave] -= fw.spec.demand;
      ++fw.launched;
      ++fw.running;
      fw.UpdateKey();
      ++stats.offers_accepted;
      TSF_COUNTER_ADD("mesos.offers.accepted", 1);
#if defined(TSF_TELEMETRY)
      if (telemetry::Enabled()) fw.accepted_counter->Add(1);
#endif
      fw.stats.first_task_time = std::min(fw.stats.first_task_time, now);
      const double runtime = fw.spec.mean_runtime *
                             rng.Uniform(1.0 - fw.spec.runtime_jitter,
                                         1.0 + fw.spec.runtime_jitter);
      const std::uint64_t task_id = next_task_id++;
      cancelled.push_back(0);
      on_slave[slave].push_back(RunningTask{task_id, entry.id});
      emit(StreamEvent::Kind::kPlace, now, entry.id, task_id, slave);
      events.push(Event{now + runtime, seq++, Event::Kind::kTaskFinish,
                        entry.id, slave, task_id});
      if (fw.HasPending()) offer_heap.Push(fw.key, entry.id);
    }
#if defined(TSF_TELEMETRY)
    if (tm_round) {
      const std::chrono::duration<double, std::micro> tm_round_us =
          std::chrono::steady_clock::now() - tm_round_start;
      TSF_HISTOGRAM_RECORD("mesos.offer_round_us", tm_round_us.count());
    }
#endif
  };

  if (config.sample_interval > 0.0)
    events.push(Event{0.0, seq++, Event::Kind::kSample, 0, 0});

  // Offers dropped or rescinded up to the last drain nudge (see below).
  long lost_offers_at_nudge = 0;

  // Events sharing a timestamp are applied as a batch before the allocator
  // runs, mirroring the mesos-master's batched allocation cycle. Without
  // this, four jobs submitted "at the same time" would be allocated one by
  // one, and the first registrant would monopolize the cluster for a whole
  // task wave (tasks are never preempted).
  while (!events.empty()) {
    const double now = events.top().time;
    bool state_changed = false;
    bool sampled = false;
    while (!events.empty() && events.top().time == now) {
      const Event event = events.top();
      events.pop();
      switch (event.kind) {
        case Event::Kind::kRegister:
          frameworks[event.framework].registered = true;
          live.push_back(event.framework);
          emit(StreamEvent::Kind::kArrive, now, event.framework, 0, 0);
          state_changed = true;
          TSF_TRACE_INSTANT("mesos", "register");
          break;
        case Event::Kind::kTaskFinish: {
          // Lazy cancellation: a crash or failure already killed this
          // launch; its finish event is void.
          if (cancelled[event.task]) {
            TSF_COUNTER_ADD("chaos.mesos.stale_finish_events", 1);
            break;
          }
          FrameworkState& fw = frameworks[event.framework];
          std::vector<RunningTask>& on = on_slave[event.slave];
          const auto it = std::find_if(
              on.begin(), on.end(),
              [&](const RunningTask& rt) { return rt.task == event.task; });
          if (it != on.end()) {  // absent only for an injected leaked task
            *it = on.back();
            on.pop_back();
          }
          free[event.slave] += fw.spec.demand;
          grown.push_back(static_cast<std::uint32_t>(event.slave));
          --fw.running;
          fw.UpdateKey();
          ++fw.finished;
          ++fw.stats.tasks_run;
          emit(StreamEvent::Kind::kFinish, now, event.framework, event.task,
               event.slave);
          outcome.makespan = std::max(outcome.makespan, now);
          if (fw.finished == fw.spec.num_tasks) fw.stats.completion_time = now;
          state_changed = true;
          break;
        }
        case Event::Kind::kFault: {
          const Fault& fault = faults[event.framework];
          switch (fault.kind) {
            case Fault::Kind::kSlaveCrash: {
              const std::size_t s = fault.target;
              TSF_CHECK_LT(s, num_slaves);
              TSF_CHECK(up[s]) << "crash of already-down slave " << s;
              std::vector<RunningTask>& on = on_slave[s];
              // The injected leak bug "forgets" the slave's first task: it
              // is neither killed nor requeued, so its finish later fires
              // on a slave the stream shows as down — the planted defect
              // the chaos invariants must catch.
              const std::size_t keep =
                  injected_bug == InjectedBug::kLeakTaskOnCrash && !on.empty()
                      ? 1
                      : 0;
              // Kill from the back of the running list (the DES kills in the
              // same order; see Fault::Kind::kTaskFailure for what that
              // order is).
              for (std::size_t r = on.size(); r-- > keep;) {
                const RunningTask rt = on[r];
                cancelled[rt.task] = 1;
                FrameworkState& vfw = frameworks[rt.framework];
                --vfw.running;
                --vfw.launched;  // re-enters the pending pool
                vfw.UpdateKey();
                emit(StreamEvent::Kind::kKill, now, rt.framework, rt.task, s);
              }
              on.clear();
              up[s] = false;
              free[s] = ResourceVector(resources);
              forget_declines();
              emit(StreamEvent::Kind::kCrash, now, 0, 0, s);
              TSF_COUNTER_ADD("chaos.mesos.slave_crashes", 1);
              state_changed = true;
              break;
            }
            case Fault::Kind::kSlaveRestart: {
              const std::size_t s = fault.target;
              TSF_CHECK_LT(s, num_slaves);
              TSF_CHECK(!up[s]) << "restart of up slave " << s;
              up[s] = true;
              free[s] = config.slaves[s].capacity;
              forget_declines();
              emit(StreamEvent::Kind::kRestart, now, 0, 0, s);
              TSF_COUNTER_ADD("chaos.mesos.slave_restarts", 1);
              state_changed = true;
              break;
            }
            case Fault::Kind::kTaskFailure: {
              // Fails the task at the back of the slave's running list (see
              // Fault::Kind::kTaskFailure); a no-op on a down or idle slave
              // (the plan generator does not coordinate failure targets
              // with the schedule).
              const std::size_t s = fault.target;
              TSF_CHECK_LT(s, num_slaves);
              if (!up[s] || on_slave[s].empty()) {
                TSF_COUNTER_ADD("chaos.mesos.task_failures_skipped", 1);
                break;
              }
              const RunningTask rt = on_slave[s].back();
              on_slave[s].pop_back();
              cancelled[rt.task] = 1;
              FrameworkState& vfw = frameworks[rt.framework];
              --vfw.running;
              --vfw.launched;  // re-enters the pending pool
              vfw.UpdateKey();
              free[s] += vfw.spec.demand;
              grown.push_back(static_cast<std::uint32_t>(s));
              emit(StreamEvent::Kind::kFail, now, rt.framework, rt.task, s);
              TSF_COUNTER_ADD("chaos.mesos.task_failures", 1);
              state_changed = true;
              break;
            }
            case Fault::Kind::kOfferDrop: {
              TSF_CHECK_LT(fault.target, num_frameworks);
              frameworks[fault.target].pending_drops +=
                  std::max<long>(1, std::lround(fault.param));
              break;
            }
            case Fault::Kind::kOfferRescind: {
              TSF_CHECK_LT(fault.target, num_frameworks);
              ++frameworks[fault.target].pending_rescinds;
              break;
            }
            case Fault::Kind::kDeclineTimeout: {
              TSF_CHECK_LT(fault.target, num_frameworks);
              TSF_CHECK_GT(fault.param, 0.0);
              FrameworkState& fw = frameworks[fault.target];
              fw.blackout_until = std::max(fw.blackout_until, now + fault.param);
              // Without this the framework could starve on an idle
              // cluster: nothing else would ever re-run the allocator.
              events.push(Event{fw.blackout_until, seq++, Event::Kind::kNudge,
                                fault.target, 0});
              break;
            }
            case Fault::Kind::kFrameworkDisconnect: {
              TSF_CHECK_LT(fault.target, num_frameworks);
              FrameworkState& fw = frameworks[fault.target];
              TSF_CHECK(fw.registered)
                  << "disconnect of unregistered framework " << fault.target;
              fw.registered = false;  // no offers; running tasks continue
              emit(StreamEvent::Kind::kDisconnect, now, fault.target, 0, 0);
              TSF_COUNTER_ADD("chaos.mesos.disconnects", 1);
              break;
            }
            case Fault::Kind::kFrameworkReregister: {
              TSF_CHECK_LT(fault.target, num_frameworks);
              FrameworkState& fw = frameworks[fault.target];
              TSF_CHECK(!fw.registered)
                  << "re-register of registered framework " << fault.target;
              fw.registered = true;
              emit(StreamEvent::Kind::kReregister, now, fault.target, 0, 0);
              state_changed = true;
              break;
            }
          }
          break;
        }
        case Event::Kind::kNudge:
          state_changed = true;  // re-offer
          break;
        case Event::Kind::kSample:
          sampled = true;
          break;
      }
    }
    if (state_changed) run_allocation(now);
    if (sampled) sample_timeline(now);

    // A dropped or rescinded offer returns to the allocator, but nothing
    // re-runs the allocator for it. So when the queue drains (a pending
    // sample never allocates) while a registered framework has pending
    // tasks and offers were lost since the last such re-offer, re-offer at
    // this instant; a framework that still cannot launch then ends the run.
    // The re-offer waits for the drain instead of following each drop or
    // rescind: a run that drains with work left would abort without it, so
    // only such runs change, and every finishing run keeps its exact stream.
    const long lost_offers = stats.offers_dropped + stats.offers_rescinded;
    const bool drained =
        events.empty() ||
        (events.size() == 1 && events.top().kind == Event::Kind::kSample);
    if (drained && lost_offers > lost_offers_at_nudge &&
        std::any_of(frameworks.begin(), frameworks.end(),
                    [](const FrameworkState& fw) {
                      return fw.registered && fw.HasPending();
                    })) {
      lost_offers_at_nudge = lost_offers;
      events.push(Event{now, seq++, Event::Kind::kNudge, 0, 0});
    }

    // The next sample is armed only while some other event is queued: a
    // sample changes no state, so re-arming it on an otherwise empty queue
    // would tick forever past a framework that can never finish instead of
    // reaching the "did not finish" check below.
    if (sampled && !events.empty() &&
        std::any_of(frameworks.begin(), frameworks.end(),
                    [](const FrameworkState& fw) {
                      return !fw.registered ||
                             fw.finished < fw.spec.num_tasks;
                    }))
      events.push(Event{now + config.sample_interval, seq++,
                        Event::Kind::kSample, 0, 0});
  }

  for (std::size_t f = 0; f < num_frameworks; ++f) {
    TSF_CHECK_EQ(frameworks[f].finished, frameworks[f].spec.num_tasks)
        << frameworks[f].spec.name << " did not finish";
    outcome.frameworks[f] = frameworks[f].stats;
  }
  return outcome;
}

}  // namespace tsf::mesos
