// Probe equivalence for the FREEZE step of progressive filling.
//
// A FillingEngine probe keeps the round basis: it lifts the level row to
// `s >= round share` and opens the probe column t for one user instead of
// flooring every other active user. These tests pin that reformulation to
// the classic probe — every other active user frozen at its round total,
// solved as a fresh round LP (MaxShareWithFloors' formulation) — on random
// and trace-cut problems, single- and multi-class, with serial and pooled
// probes:
//
//   * probes run to optimality match the classic probe value to 1e-9;
//   * early-stopped probes (SaturatedUsers) freeze exactly the users the
//     full probes saturate, round after round;
//   * the closest-user fallback re-runs the probes and picks the argmin.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/cluster.h"
#include "core/offline/filling_engine.h"
#include "core/offline/multiclass.h"
#include "core/offline/policies.h"
#include "core/offline/progressive_filling.h"
#include "trace/google.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace tsf {
namespace {

constexpr double kValueTol = 1e-9;

SharingProblem RandomSharing(std::size_t users, std::size_t machines,
                             std::uint64_t seed) {
  Rng rng(seed);
  SharingProblem problem;
  for (std::size_t m = 0; m < machines; ++m) {
    ResourceVector capacity(2);
    capacity[0] = rng.Uniform(8.0, 32.0);
    capacity[1] = rng.Uniform(8.0, 64.0);
    problem.cluster.AddMachine(std::move(capacity));
  }
  for (UserId i = 0; i < users; ++i) {
    JobSpec job;
    job.id = i;
    job.name = "u" + std::to_string(i);
    ResourceVector demand(2);
    demand[0] = rng.Uniform(0.5, 4.0);
    demand[1] = rng.Uniform(0.5, 8.0);
    job.demand = std::move(demand);
    std::vector<MachineId> allowed;
    for (MachineId m = 0; m < machines; ++m)
      if (rng.Chance(0.35)) allowed.push_back(m);
    if (allowed.empty()) allowed.push_back(rng.Below(machines));
    if (allowed.size() < machines) job.constraint = Constraint::Whitelist(allowed);
    problem.jobs.push_back(std::move(job));
  }
  return problem;
}

// Cut the way the offline benchmark cuts its problems: the first `users`
// jobs of a paper-profile trace that have an eligible machine, with their
// real attribute constraints, over a `machines`-machine fleet.
SharingProblem TraceCut(std::size_t users, std::size_t machines,
                        std::uint64_t seed) {
  trace::GoogleTraceConfig config;
  config.num_machines = machines;
  config.num_jobs = 20 * users;
  config.seed = seed;
  const Workload trace = trace::SynthesizeGoogleWorkload(config);
  SharingProblem problem;
  problem.cluster = trace.cluster;
  for (const SimJob& job : trace.jobs) {
    if (!trace.cluster.Eligibility(job.spec.constraint).Any()) continue;
    JobSpec spec = job.spec;
    spec.id = problem.jobs.size();
    problem.jobs.push_back(spec);
    if (problem.jobs.size() == users) break;
  }
  return problem;
}

// Multi-class users from a sharing problem: user k takes jobs 2k and 2k+1
// as its two classes (mix 0.4 / 0.6) under job 2k's constraint.
MultiClassProblem PairUp(const SharingProblem& sharing) {
  MultiClassProblem problem;
  problem.cluster = sharing.cluster;
  for (std::size_t k = 0; k + 1 < sharing.jobs.size(); k += 2) {
    MultiClassJobSpec user;
    user.name = "pair" + std::to_string(k / 2);
    user.class_demand = {sharing.jobs[k].demand, sharing.jobs[k + 1].demand};
    user.class_mix = {0.4, 0.6};
    user.constraint = sharing.jobs[k].constraint;
    problem.users.push_back(std::move(user));
  }
  return problem;
}

// Task total of every user under primal x (coupling rows have unit terms).
std::vector<double> UserTotals(const FillingSpec& spec,
                               const std::vector<double>& x) {
  std::vector<double> totals(spec.user_rows.size(), 0.0);
  for (std::size_t i = 0; i < spec.user_rows.size(); ++i)
    for (const FillingCouplingRow& row : spec.user_rows[i])
      for (const auto& [variable, coefficient] : row.terms)
        totals[i] += coefficient * x[variable];
  return totals;
}

// The classic probe: a fresh round LP with every user but j frozen — active
// users at their round totals, frozen users at their floors.
double ClassicProbe(const FillingSpec& spec, std::size_t j,
                    const std::vector<double>& floors) {
  FillingEngine engine(spec, {});
  for (std::size_t i = 0; i < floors.size(); ++i)
    if (i != j) engine.FreezeUser(i, floors[i]);
  double share = 0.0;
  EXPECT_TRUE(engine.SolveRound(&share, nullptr));
  return share;
}

struct RunSummary {
  std::size_t rounds = 0;
  std::size_t probes = 0;
};

// Drives the filling loop by hand and checks every round: full probes
// against the classic formulation, and early-stop decisions against the
// decisions the full probes imply.
RunSummary CheckFillingRun(const FillingSpec& spec, ThreadPool* pool,
                           const std::string& context) {
  FillingOptions options;
  options.pool = pool;
  FillingEngine engine(spec, options);
  const std::size_t n = engine.num_users();

  std::vector<bool> active(n, true);
  std::vector<double> floors(n, 0.0);
  RunSummary summary;
  std::size_t num_active = n;
  while (num_active > 0) {
    ++summary.rounds;
    EXPECT_LE(summary.rounds, n + 1) << context;
    if (summary.rounds > n + 1) break;
    double round_share = 0.0;
    std::vector<double> x;
    EXPECT_TRUE(engine.SolveRound(&round_share, &x)) << context;
    const std::vector<double> totals = UserTotals(spec, x);
    for (std::size_t i = 0; i < n; ++i)
      if (active[i]) floors[i] = totals[i];

    std::vector<double> max_share;
    engine.ProbeMaxShares(active, &max_share);
    const double cutoff = round_share + FillingEngine::kShareEps *
                                            std::max(1.0, round_share);
    std::vector<std::size_t> expected;
    for (std::size_t j = 0; j < n; ++j) {
      if (!active[j]) continue;
      ++summary.probes;
      const double classic = ClassicProbe(spec, j, floors);
      EXPECT_NEAR(max_share[j], classic,
                  kValueTol * std::max(1.0, std::abs(classic)))
          << context << " round " << summary.rounds << " user " << j;
      if (max_share[j] <= cutoff) expected.push_back(j);
    }
    if (expected.empty()) {  // the closest-user fallback
      std::size_t closest = n;
      for (std::size_t j = 0; j < n; ++j)
        if (active[j] && (closest == n || max_share[j] - round_share <
                                              max_share[closest] - round_share))
          closest = j;
      expected.push_back(closest);
    }

    const std::vector<std::size_t> saturated = engine.SaturatedUsers();
    EXPECT_EQ(saturated, expected) << context << " round " << summary.rounds;
    for (const std::size_t j : saturated) {
      active[j] = false;
      engine.FreezeUser(j, totals[j]);
      --num_active;
    }
  }
  return summary;
}

FillingSpec SingleClassSpec(const CompiledProblem& problem) {
  const EdgeLayout layout(problem);
  return MakeFillingSpec(problem, layout, TsfDenominator(problem));
}

class FreezeProbeTest : public ::testing::TestWithParam<bool> {
 protected:
  // Parameter: fan probes out over a pool (true) or run them serially.
  ThreadPool* pool() { return GetParam() ? &pool_ : nullptr; }

 private:
  ThreadPool pool_{3};
};

TEST_P(FreezeProbeTest, SingleClassRandomProblems) {
  std::size_t rounds = 0;
  for (const std::size_t users : {2u, 5u, 9u}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const CompiledProblem problem =
          Compile(RandomSharing(users, users + 1, seed));
      rounds += CheckFillingRun(SingleClassSpec(problem), pool(),
                                "random users=" + std::to_string(users) +
                                    " seed=" + std::to_string(seed))
                    .rounds;
    }
  }
  EXPECT_GT(rounds, 24u) << rounds;  // multi-round runs, not one-round trivia
}

TEST_P(FreezeProbeTest, MultiClassRandomProblems) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const CompiledMultiClass problem = CompileMultiClass(
        PairUp(RandomSharing(12, 6, 100 + seed)));
    CheckFillingRun(MakeMultiClassFillingSpec(problem), pool(),
                    "multiclass seed=" + std::to_string(seed));
  }
}

TEST_P(FreezeProbeTest, TraceCutProblems) {
  std::size_t probes = 0;
  for (const std::uint64_t seed : {1u, 7u}) {
    const CompiledProblem problem = Compile(TraceCut(24, 48, seed));
    probes += CheckFillingRun(SingleClassSpec(problem), pool(),
                              "trace seed=" + std::to_string(seed))
                  .probes;
  }
  EXPECT_GT(probes, 48u);
}

TEST_P(FreezeProbeTest, MultiClassTraceCutProblems) {
  const CompiledMultiClass problem =
      CompileMultiClass(PairUp(TraceCut(24, 48, 23)));
  CheckFillingRun(MakeMultiClassFillingSpec(problem), pool(),
                  "multiclass trace seed=23");
}

TEST_P(FreezeProbeTest, FallbackFreezesTheClosestUser) {
  // A negative tolerance puts the freeze threshold below the round level,
  // so no probe can saturate — the case round-off produces in the wild.
  // Early-stopped probes only bound their gaps; the fallback must re-run
  // them to optimality and return the user with the smallest gap.
  FillingOptions options;
  options.pool = pool();
  const CompiledProblem problem = Compile(RandomSharing(6, 4, 5));
  FillingEngine engine(SingleClassSpec(problem), options);
  double round_share = 0.0;
  ASSERT_TRUE(engine.SolveRound(&round_share, nullptr));
  std::vector<double> max_share;
  engine.ProbeMaxShares(std::vector<bool>(engine.num_users(), true),
                        &max_share);
  const std::size_t closest = static_cast<std::size_t>(
      std::min_element(max_share.begin(), max_share.end()) -
      max_share.begin());
  EXPECT_EQ(engine.SaturatedUsers(/*share_eps=*/-0.5),
            std::vector<std::size_t>{closest});
  // The regular threshold saturates that same user on this problem.
  const std::vector<std::size_t> saturated = engine.SaturatedUsers();
  EXPECT_NE(std::find(saturated.begin(), saturated.end(), closest),
            saturated.end());
}

INSTANTIATE_TEST_SUITE_P(Probes, FreezeProbeTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Pooled" : "Serial";
                         });

}  // namespace
}  // namespace tsf
