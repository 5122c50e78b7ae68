#include "checks.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>
#include <utility>

#include "core/offline/policies.h"

namespace perfbench {

namespace {

using tsf::SimResult;
using tsf::TaskRecord;
using tsf::Workload;

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

std::uint64_t Fnv(std::uint64_t hash, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xffU;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::uint64_t Fnv(std::uint64_t hash, double value) {
  return Fnv(hash, std::bit_cast<std::uint64_t>(value));
}

bool Near(double a, double b, double relative) {
  const double scale = std::max({1.0, std::abs(a), std::abs(b)});
  return std::abs(a - b) <= relative * scale;
}

template <typename... Parts>
std::string Describe(const Parts&... parts) {
  std::ostringstream out;
  (out << ... << parts);
  return out.str();
}

}  // namespace

std::string CheckSimResult(const Workload& workload, const SimResult& result) {
  const tsf::Cluster& cluster = workload.cluster;
  if (result.tasks.size() != workload.TotalTasks())
    return Describe("dropped: ", result.tasks.size(), " task records for ",
                    workload.TotalTasks(), " tasks");

  std::size_t k = 0;
  for (std::size_t j = 0; j < workload.jobs.size(); ++j) {
    const tsf::SimJob& job = workload.jobs[j];
    for (std::size_t t = 0; t < job.task_runtimes.size(); ++t, ++k) {
      const TaskRecord& rec = result.tasks[k];
      if (rec.job != j || rec.index != static_cast<long>(t))
        return Describe("dropped: record ", k, " is job ", rec.job, " task ",
                        rec.index, ", expected job ", j, " task ", t);
      if (!std::isfinite(rec.schedule) || !std::isfinite(rec.finish) ||
          rec.attempts < 1)
        return Describe("dropped: job ", j, " task ", t, " never finished");
      if (rec.submit != job.spec.arrival_time ||
          !(rec.schedule >= rec.submit) || !(rec.finish >= rec.schedule))
        return Describe("order: job ", j, " task ", t, " submit ", rec.submit,
                        " schedule ", rec.schedule, " finish ", rec.finish);
      if (!Near(rec.finish - rec.schedule, job.task_runtimes[t], 1e-9))
        return Describe("order: job ", j, " task ", t, " ran ",
                        rec.finish - rec.schedule, "s, runtime is ",
                        job.task_runtimes[t], "s");
      if (rec.machine >= cluster.num_machines() ||
          !job.spec.constraint.Allows(
              rec.machine, cluster.machine(rec.machine).attributes))
        return Describe("eligibility: job ", j, " task ", t,
                        " placed on machine ", rec.machine);
    }
  }

  // Capacity: sweep each machine's start/finish events in time order. The
  // simulator applies an instant's completions before its placements, so a
  // finish sorts before a start at the same time.
  const std::size_t machines = cluster.num_machines();
  std::vector<std::size_t> offset(machines + 1, 0);
  for (const TaskRecord& rec : result.tasks) ++offset[rec.machine + 1];
  for (std::size_t m = 0; m < machines; ++m) offset[m + 1] += offset[m];
  std::vector<std::size_t> by_machine(result.tasks.size());
  {
    std::vector<std::size_t> cursor(offset.begin(), offset.end() - 1);
    for (std::size_t i = 0; i < result.tasks.size(); ++i)
      by_machine[cursor[result.tasks[i].machine]++] = i;
  }
  struct Event {
    double time;
    bool start;
    std::size_t task;
  };
  std::vector<Event> events;
  const std::size_t resources = cluster.num_resources();
  std::vector<double> usage(resources);
  for (std::size_t m = 0; m < machines; ++m) {
    events.clear();
    for (std::size_t i = offset[m]; i < offset[m + 1]; ++i) {
      const TaskRecord& rec = result.tasks[by_machine[i]];
      events.push_back({rec.schedule, true, by_machine[i]});
      events.push_back({rec.finish, false, by_machine[i]});
    }
    std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
      return a.time != b.time ? a.time < b.time : (!a.start && b.start);
    });
    std::fill(usage.begin(), usage.end(), 0.0);
    const tsf::ResourceVector& capacity = cluster.machine(m).capacity;
    for (const Event& event : events) {
      const tsf::ResourceVector& demand =
          workload.jobs[result.tasks[event.task].job].spec.demand;
      for (std::size_t r = 0; r < resources; ++r) {
        usage[r] += event.start ? demand[r] : -demand[r];
        if (event.start && usage[r] > capacity[r] * (1.0 + 1e-9) + 1e-12)
          return Describe("capacity: machine ", m, " resource ", r, " holds ",
                          usage[r], " of ", capacity[r], " at t=", event.time);
      }
    }
  }
  return "";
}

std::string CheckFilling(const tsf::CompiledProblem& problem,
                         const std::vector<double>& denominator,
                         const tsf::FillingResult& result) {
  const tsf::Allocation& alloc = result.allocation;
  const std::size_t users = problem.num_users;
  if (alloc.num_users() != users ||
      alloc.num_machines() != problem.num_machines ||
      result.shares.size() != users || result.freeze_round.size() != users ||
      result.round_levels.empty())
    return "offline-share: result has the wrong shape";

  for (std::size_t m = 0; m < problem.num_machines; ++m) {
    tsf::ResourceVector used(problem.num_resources);
    for (std::size_t i = 0; i < users; ++i) {
      const double n = alloc.tasks(i, m);
      if (n < -1e-9)
        return Describe("offline-capacity: user ", i, " has ", n,
                        " tasks on machine ", m);
      if (n > 1e-9 && !problem.eligible[i].Test(m))
        return Describe("offline-eligibility: user ", i, " has ", n,
                        " tasks on ineligible machine ", m);
      for (std::size_t r = 0; r < problem.num_resources; ++r)
        used[r] += n * problem.demand[i][r];
    }
    for (std::size_t r = 0; r < problem.num_resources; ++r)
      if (used[r] > problem.machine_capacity[m][r] + 1e-6)
        return Describe("offline-capacity: machine ", m, " resource ", r,
                        " uses ", used[r], " of ",
                        problem.machine_capacity[m][r]);
  }

  for (std::size_t i = 0; i < users; ++i) {
    const double share = alloc.UserTasks(i) / denominator[i];
    if (!Near(share, result.shares[i], 1e-6))
      return Describe("offline-share: user ", i, " reports share ",
                      result.shares[i], " but holds ", share);
    const std::size_t round = result.freeze_round[i];
    if (round < 1 || round > result.round_levels.size())
      return Describe("offline-level: user ", i, " froze in round ", round,
                      " of ", result.round_levels.size());
    if (!Near(result.shares[i], result.round_levels[round - 1], 1e-6))
      return Describe("offline-level: user ", i, " froze in round ", round,
                      " at share ", result.shares[i], ", level is ",
                      result.round_levels[round - 1]);
  }
  for (std::size_t r = 1; r < result.round_levels.size(); ++r)
    if (result.round_levels[r] < result.round_levels[r - 1] - 1e-9)
      return Describe("offline-monotone: level ", result.round_levels[r],
                      " in round ", r + 1, " after ",
                      result.round_levels[r - 1]);
  return "";
}

std::string CheckLoadReport(const tsf::load::GeneratedStream& stream,
                            const tsf::load::LoadReport& report) {
  std::uint64_t tasks = 0;
  for (const tsf::SimJob& job : stream.jobs) tasks += job.task_runtimes.size();
  if (report.total_jobs != stream.jobs.size() || report.total_tasks != tasks ||
      report.placements != tasks || report.requeues != 0)
    return Describe("load-placements: ", report.substrate, " placed ",
                    report.placements, " of ", tasks, " tasks (",
                    report.requeues, " requeues)");
  if (report.queue_depth.empty() || report.queue_depth.back().depth != 0)
    return Describe("load-drain: ", report.substrate, " queue ends at depth ",
                    report.queue_depth.empty()
                        ? -1
                        : report.queue_depth.back().depth);
  return "";
}

std::uint64_t FingerprintSim(const SimResult& result) {
  std::uint64_t hash = kFnvOffset;
  for (const TaskRecord& rec : result.tasks) {
    hash = Fnv(hash, static_cast<std::uint64_t>(rec.job));
    hash = Fnv(hash, static_cast<std::uint64_t>(rec.index));
    hash = Fnv(hash, rec.schedule);
    hash = Fnv(hash, rec.finish);
    hash = Fnv(hash, static_cast<std::uint64_t>(rec.machine));
    hash = Fnv(hash, static_cast<std::uint64_t>(rec.attempts));
  }
  return hash;
}

std::uint64_t FingerprintFilling(const tsf::FillingResult& result) {
  std::uint64_t hash = kFnvOffset;
  for (const double share : result.shares) hash = Fnv(hash, share);
  for (const std::size_t round : result.freeze_round)
    hash = Fnv(hash, static_cast<std::uint64_t>(round));
  return hash;
}

namespace {

// Two unit machines; job 0 has two tasks anywhere, job 1 one task
// whitelisted to machine 0. Every task fills a machine for one second.
Workload SelfTestWorkload() {
  Workload workload;
  workload.cluster.AddMachine({1.0, 1.0});
  workload.cluster.AddMachine({1.0, 1.0});
  for (std::size_t j = 0; j < 2; ++j) {
    tsf::JobSpec spec;
    spec.id = j;
    spec.name = "selftest" + std::to_string(j);
    spec.demand = {1.0, 1.0};
    spec.num_tasks = j == 0 ? 2 : 1;
    if (j == 1) spec.constraint = tsf::Constraint::Whitelist({0});
    workload.jobs.push_back(tsf::MakeUniformJob(spec, 1.0));
  }
  return workload;
}

// Two machines, the second with attribute 7; user 1 requires attribute 7.
tsf::CompiledProblem SelfTestProblem() {
  tsf::SharingProblem problem;
  problem.cluster.AddMachine({4.0, 4.0});
  problem.cluster.AddMachine({4.0, 4.0}, tsf::AttributeSet({7}));
  for (std::size_t i = 0; i < 3; ++i) {
    tsf::JobSpec spec;
    spec.id = i;
    spec.demand = {1.0, static_cast<double>(i + 1)};
    if (i == 1)
      spec.constraint =
          tsf::Constraint::RequireAttributes(tsf::AttributeSet({7}));
    problem.jobs.push_back(spec);
  }
  return tsf::Compile(problem);
}

struct Case {
  std::string name;
  std::string expected_tag;  // "" for a clean output
  std::string verdict;
};

}  // namespace

bool RunCheckSelfTest(std::vector<std::string>* log) {
  std::vector<Case> cases;

  const Workload workload = SelfTestWorkload();
  const SimResult clean = tsf::Simulate(workload, tsf::OnlinePolicy::Tsf());
  cases.push_back({"des clean", "", CheckSimResult(workload, clean)});
  {
    // The task that waited for a free machine is moved back onto its
    // machine's first interval.
    SimResult bad = clean;
    for (TaskRecord& rec : bad.tasks)
      if (rec.schedule > 0.0) {
        rec.schedule = 0.0;
        rec.finish = 1.0;
      }
    cases.push_back({"des double-booked machine", "capacity:",
                     CheckSimResult(workload, bad)});
  }
  {
    SimResult bad = clean;
    bad.tasks.back().machine = 1;  // job 1 is whitelisted to machine 0
    cases.push_back({"des ineligible placement", "eligibility:",
                     CheckSimResult(workload, bad)});
  }
  {
    SimResult bad = clean;
    bad.tasks.pop_back();
    cases.push_back(
        {"des dropped task", "dropped:", CheckSimResult(workload, bad)});
  }
  {
    SimResult bad = clean;
    bad.tasks.front().finish = bad.tasks.front().schedule - 1.0;
    cases.push_back({"des finish before schedule", "order:",
                     CheckSimResult(workload, bad)});
  }

  const tsf::CompiledProblem problem = SelfTestProblem();
  const std::vector<double> denominator = tsf::TsfDenominator(problem);
  const tsf::FillingResult filled = tsf::SolveTsf(problem);
  cases.push_back(
      {"offline clean", "", CheckFilling(problem, denominator, filled)});
  {
    tsf::FillingResult bad = filled;
    bad.allocation.add_tasks(0, 0, 1.0 / problem.demand[0][0] + 1.0);
    cases.push_back({"offline over-capacity edge", "offline-capacity:",
                     CheckFilling(problem, denominator, bad)});
  }
  {
    tsf::FillingResult bad = filled;
    bad.allocation.add_tasks(1, 0, 1e-3);  // user 1 may only use machine 1
    cases.push_back({"offline ineligible edge", "offline-eligibility:",
                     CheckFilling(problem, denominator, bad)});
  }
  {
    tsf::FillingResult bad = filled;
    bad.round_levels[bad.freeze_round[0] - 1] *= 1.5;
    cases.push_back({"offline split level", "offline-level:",
                     CheckFilling(problem, denominator, bad)});
  }
  {
    tsf::FillingResult bad = filled;
    bad.round_levels.push_back(bad.round_levels.back() / 2.0);
    cases.push_back({"offline decreasing level", "offline-monotone:",
                     CheckFilling(problem, denominator, bad)});
  }

  tsf::load::DriverConfig config;
  config.stream.rate = 1.0;
  config.stream.duration = 10.0;
  const tsf::load::GeneratedStream stream =
      tsf::load::GenerateArrivals(config.stream, config.num_machines);
  const tsf::load::LoadReport report =
      tsf::load::RunDesLoad(config, tsf::OnlinePolicy::Tsf());
  cases.push_back({"load clean", "", CheckLoadReport(stream, report)});
  {
    tsf::load::LoadReport bad = report;
    --bad.placements;
    cases.push_back({"load lost placement", "load-placements:",
                     CheckLoadReport(stream, bad)});
  }
  {
    tsf::load::LoadReport bad = report;
    bad.queue_depth.back().depth = 3;
    cases.push_back({"load undrained queue", "load-drain:",
                     CheckLoadReport(stream, bad)});
  }

  bool ok = true;
  for (const Case& c : cases) {
    const bool pass = c.expected_tag.empty()
                          ? c.verdict.empty()
                          : c.verdict.rfind(c.expected_tag, 0) == 0;
    ok = ok && pass;
    log->push_back(c.name + ": " + (pass ? "ok" : "MISBEHAVED") + " (" +
                   (c.verdict.empty() ? "passes" : c.verdict) + ")");
  }
  return ok;
}

}  // namespace perfbench
