// Determinism of the parallel FREEZE step: fanning freeze probes out over a
// thread pool must produce a FillingResult bit-identical to the serial
// reference — same allocation, freeze rounds, and round levels — because
// every probe is a pure function of the solved round LP and the reduction
// walks users in index order. Also diffs the warm revised engine against the
// dense executable-spec engine on the same seed grid (agreement to LP
// tolerance, not bitwise: the two solvers may pick different optimal
// vertices of degenerate programs).

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/cluster.h"
#include "core/offline/multiclass.h"
#include "core/offline/policies.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace tsf {
namespace {

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
      if (rng.Chance(0.7)) allowed.push_back(m);
    if (allowed.empty()) allowed.push_back(rng.Below(machines));
    if (allowed.size() < machines) job.constraint = Constraint::Whitelist(allowed);
    problem.jobs.push_back(std::move(job));
  }
  return problem;
}

MultiClassProblem RandomMultiClass(std::size_t users, std::size_t machines,
                                   std::uint64_t seed) {
  Rng rng(seed);
  MultiClassProblem problem;
  for (std::size_t m = 0; m < machines; ++m) {
    ResourceVector capacity(2);
    capacity[0] = rng.Uniform(8.0, 24.0);
    capacity[1] = rng.Uniform(8.0, 32.0);
    problem.cluster.AddMachine(std::move(capacity));
  }
  for (UserId i = 0; i < users; ++i) {
    MultiClassJobSpec user;
    user.name = "u" + std::to_string(i);
    const std::size_t classes = static_cast<std::size_t>(rng.Int(1, 3));
    double mix_left = 1.0;
    for (std::size_t c = 0; c < classes; ++c) {
      ResourceVector demand(2);
      demand[0] = rng.Uniform(0.5, 3.0);
      demand[1] = rng.Uniform(0.5, 4.0);
      user.class_demand.push_back(std::move(demand));
      const double mix = c + 1 == classes ? mix_left
                                          : mix_left * rng.Uniform(0.2, 0.6);
      user.class_mix.push_back(mix);
      mix_left -= mix;
    }
    std::vector<MachineId> allowed;
    for (MachineId m = 0; m < machines; ++m)
      if (rng.Chance(0.8)) allowed.push_back(m);
    if (allowed.empty()) allowed.push_back(rng.Below(machines));
    if (allowed.size() < machines) user.constraint = Constraint::Whitelist(allowed);
    problem.users.push_back(std::move(user));
  }
  return problem;
}

void ExpectBitIdentical(const FillingResult& a, const FillingResult& b,
                        const CompiledProblem& problem, std::uint64_t seed) {
  ASSERT_EQ(a.freeze_round, b.freeze_round) << "seed " << seed;
  ASSERT_EQ(a.round_levels, b.round_levels) << "seed " << seed;
  ASSERT_EQ(a.shares, b.shares) << "seed " << seed;
  for (UserId i = 0; i < problem.num_users; ++i)
    for (MachineId m = 0; m < problem.num_machines; ++m)
      ASSERT_EQ(a.allocation.tasks(i, m), b.allocation.tasks(i, m))
          << "seed " << seed << " user " << i << " machine " << m;
}

TEST(FillingDeterminismTest, ParallelFreezeMatchesSerialBitForBit) {
  ThreadPool pool(4);
  FillingOptions parallel;
  parallel.pool = &pool;
  for (const std::size_t users : {3u, 6u, 10u, 14u}) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      const CompiledProblem problem =
          Compile(RandomSharing(users, users, seed));
      const FillingResult serial = SolveTsf(problem);
      const FillingResult fanned = SolveTsf(problem, parallel);
      ExpectBitIdentical(serial, fanned, problem, seed);
    }
  }
}

TEST(FillingDeterminismTest, ParallelMatchesSerialAcrossPolicies) {
  ThreadPool pool(4);
  FillingOptions parallel;
  parallel.pool = &pool;
  const CompiledProblem problem = Compile(RandomSharing(9, 7, 17));
  for (const OfflinePolicy policy :
       {OfflinePolicy::kTsf, OfflinePolicy::kCdrf, OfflinePolicy::kDrfh,
        OfflinePolicy::kPerMachineDrf}) {
    const FillingResult serial = SolveOffline(policy, problem);
    const FillingResult fanned = SolveOffline(policy, problem, 0, parallel);
    ExpectBitIdentical(serial, fanned, problem, 17);
  }
}

TEST(FillingDeterminismTest, MultiClassParallelMatchesSerialBitForBit) {
  ThreadPool pool(4);
  FillingOptions parallel;
  parallel.pool = &pool;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const CompiledMultiClass problem =
        CompileMultiClass(RandomMultiClass(6, 5, seed));
    const MultiClassResult serial = SolveMultiClassTsf(problem);
    const MultiClassResult fanned = SolveMultiClassTsf(problem, parallel);
    ASSERT_EQ(serial.shares, fanned.shares) << "seed " << seed;
    ASSERT_EQ(serial.allocation.tasks, fanned.allocation.tasks)
        << "seed " << seed;
  }
}

TEST(FillingDeterminismTest, WarmEngineAgreesWithDenseSpecEngine) {
  FillingOptions dense;
  dense.use_dense_engine = true;
  for (const std::size_t users : {4u, 8u, 12u}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const CompiledProblem problem =
          Compile(RandomSharing(users, users, seed));
      const FillingResult warm = SolveTsf(problem);
      const FillingResult spec = SolveTsf(problem, dense);
      ASSERT_EQ(warm.round_levels.size(), spec.round_levels.size())
          << "seed " << seed;
      for (std::size_t r = 0; r < warm.round_levels.size(); ++r)
        EXPECT_NEAR(warm.round_levels[r], spec.round_levels[r], 1e-6)
            << "seed " << seed << " round " << r;
      ASSERT_EQ(warm.freeze_round, spec.freeze_round) << "seed " << seed;
      for (UserId i = 0; i < problem.num_users; ++i)
        EXPECT_NEAR(warm.shares[i], spec.shares[i], 1e-6)
            << "seed " << seed << " user " << i;
    }
  }
}

}  // namespace
}  // namespace tsf
