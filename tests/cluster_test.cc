// Unit tests for constraints, Cluster, Compile, and constraint-graph
// component analysis.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "core/cluster.h"
#include "util/rng.h"

namespace tsf {
namespace {

// The 4-machine constraint graph of Fig. 1: u1 everywhere but m4, u2
// everywhere, u3 only on m3, u4 on {m2, m4}.
SharingProblem Fig1Problem() {
  SharingProblem problem;
  for (int k = 0; k < 4; ++k)
    problem.cluster.AddMachine(ResourceVector{4.0, 8.0});
  JobSpec u1{.id = 0, .name = "u1", .demand = {1.0, 1.0}};
  u1.constraint = Constraint::Blacklist({3});
  JobSpec u2{.id = 1, .name = "u2", .demand = {1.0, 1.0}};
  JobSpec u3{.id = 2, .name = "u3", .demand = {1.0, 1.0}};
  u3.constraint = Constraint::Whitelist({2});
  JobSpec u4{.id = 3, .name = "u4", .demand = {1.0, 1.0}};
  u4.constraint = Constraint::Whitelist({1, 3});
  problem.jobs = {u1, u2, u3, u4};
  return problem;
}

TEST(AttributeSet, ContainsAll) {
  const AttributeSet machine({1, 3, 5, 7});
  EXPECT_TRUE(machine.ContainsAll(AttributeSet({3, 7})));
  EXPECT_TRUE(machine.ContainsAll(AttributeSet{}));
  EXPECT_FALSE(machine.ContainsAll(AttributeSet({3, 4})));
}

TEST(AttributeSet, AddIsIdempotentAndSorted) {
  AttributeSet set;
  set.Add(5);
  set.Add(1);
  set.Add(5);
  EXPECT_EQ(set.size(), 2u);
  EXPECT_EQ(set.ids(), (std::vector<AttributeId>{1, 5}));
}

TEST(Constraint, NoneAllowsEverything) {
  const Constraint c = Constraint::None();
  EXPECT_TRUE(c.Allows(0, AttributeSet{}));
  EXPECT_TRUE(c.Allows(99, AttributeSet({1, 2})));
}

TEST(Constraint, AttributeRequirement) {
  const Constraint c = Constraint::RequireAttributes(AttributeSet({2, 4}));
  EXPECT_TRUE(c.Allows(0, AttributeSet({1, 2, 4})));
  EXPECT_FALSE(c.Allows(0, AttributeSet({2})));
}

TEST(Constraint, WhitelistAndBlacklist) {
  const Constraint white = Constraint::Whitelist({1, 3});
  EXPECT_TRUE(white.Allows(1, AttributeSet{}));
  EXPECT_FALSE(white.Allows(2, AttributeSet{}));
  const Constraint black = Constraint::Blacklist({1, 3});
  EXPECT_FALSE(black.Allows(1, AttributeSet{}));
  EXPECT_TRUE(black.Allows(2, AttributeSet{}));
}

TEST(Cluster, TotalsAndNormalization) {
  Cluster cluster;
  cluster.AddMachine(ResourceVector{9.0, 12.0});
  cluster.AddMachine(ResourceVector{3.0, 4.0});
  EXPECT_EQ(cluster.total(), (ResourceVector{12.0, 16.0}));
  const ResourceVector c0 = cluster.NormalizedCapacity(0);
  EXPECT_DOUBLE_EQ(c0[0], 0.75);
  EXPECT_DOUBLE_EQ(c0[1], 0.75);
  const ResourceVector d = cluster.NormalizedDemand({1.0, 2.0});
  EXPECT_DOUBLE_EQ(d[0], 1.0 / 12.0);
  EXPECT_DOUBLE_EQ(d[1], 2.0 / 16.0);
}

TEST(Cluster, EligibilityMatchesFig1) {
  const SharingProblem problem = Fig1Problem();
  const CompiledProblem compiled = Compile(problem);
  // u1: all but m4.
  EXPECT_TRUE(compiled.eligible[0].Test(0));
  EXPECT_TRUE(compiled.eligible[0].Test(2));
  EXPECT_FALSE(compiled.eligible[0].Test(3));
  // u2: everywhere.
  EXPECT_TRUE(compiled.eligible[1].All());
  // u3: only m3.
  EXPECT_EQ(compiled.eligible[2].Count(), 1u);
  EXPECT_TRUE(compiled.eligible[2].Test(2));
  // u4: m2 and m4.
  EXPECT_EQ(compiled.eligible[3].Count(), 2u);
}

// The per-machine definition of an eligibility row: probe every machine
// with Constraint::Allows. Cluster::Eligibility must build the same bits
// from its attribute index.
DynamicBitset EligibilitySpec(const Cluster& cluster,
                              const Constraint& constraint) {
  DynamicBitset bits(cluster.num_machines());
  for (const Machine& machine : cluster.machines())
    if (constraint.Allows(machine.id, machine.attributes)) bits.Set(machine.id);
  return bits;
}

// Attribute ids for the random clusters: dense small ids, sparse large
// ones, and the largest id there is.
constexpr AttributeId kAttributePool[] = {
    0, 1, 2, 3, 5, 8, 13, 21, 64, 1000, 65537, 4000000, 0x7fffffff, UINT32_MAX};

AttributeId RandomAttribute(Rng& rng) {
  return kAttributePool[rng.Below(std::size(kAttributePool))];
}

std::vector<Machine> RandomMachines(Rng& rng) {
  // Sizes straddle the 64-bit word boundaries.
  constexpr std::size_t kSizes[] = {1, 2, 63, 64, 65, 127, 128, 129, 300};
  std::vector<Machine> machines(kSizes[rng.Below(std::size(kSizes))]);
  for (Machine& machine : machines) {
    machine.capacity = ResourceVector{4.0, 8.0};
    if (rng.Chance(0.2)) continue;  // no attributes
    const auto count = rng.Int(1, 5);
    for (std::int64_t k = 0; k < count; ++k)
      machine.attributes.Add(RandomAttribute(rng));
  }
  return machines;
}

Constraint RandomConstraint(Rng& rng, std::size_t num_machines) {
  // Machine ids up to 70 past the fleet, so some name no machine.
  const auto random_list = [&](std::int64_t min_length) {
    std::vector<MachineId> list;
    const auto length = rng.Int(min_length, 8);
    for (std::int64_t k = 0; k < length; ++k)
      list.push_back(rng.Below(num_machines + 70));
    return list;
  };
  switch (rng.Below(4)) {
    case 0:
      return Constraint::None();
    case 1: {
      AttributeSet required;
      const auto count = rng.Int(0, 4);  // 0: the empty requirement
      for (std::int64_t k = 0; k < count; ++k) {
        // Now and then an id that no machine carries.
        required.Add(rng.Chance(0.1) ? AttributeId{777777}
                                     : RandomAttribute(rng));
      }
      return Constraint::RequireAttributes(required);
    }
    case 2:
      return Constraint::Whitelist(random_list(1));
    default:
      return Constraint::Blacklist(random_list(0));
  }
}

void ExpectRowsMatchSpec(const Cluster& cluster,
                         const std::vector<Constraint>& constraints,
                         const std::string& where) {
  for (const Constraint& constraint : constraints)
    ASSERT_EQ(cluster.Eligibility(constraint),
              EligibilitySpec(cluster, constraint))
        << where << ", " << constraint.ToString() << ", "
        << cluster.num_machines() << " machines";
}

TEST(ClusterEligibility, IndexedRowsMatchThePerMachineScan) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed);
    const std::vector<Machine> machines = RandomMachines(rng);
    Cluster added;
    for (const Machine& machine : machines)
      added.AddMachine(machine.capacity, machine.attributes);
    const Cluster constructed(machines);

    std::vector<Constraint> constraints;
    for (int k = 0; k < 40; ++k)
      constraints.push_back(RandomConstraint(rng, machines.size()));
    const std::string where = "seed " + std::to_string(seed);
    ExpectRowsMatchSpec(added, constraints, where + " AddMachine");
    ExpectRowsMatchSpec(constructed, constraints, where + " constructor");

    // Growing a copy must leave the original's index alone.
    Cluster grown = constructed;
    grown.AddMachine(ResourceVector{4.0, 8.0},
                     AttributeSet({RandomAttribute(rng), 777777}));
    grown.AddMachine(ResourceVector{4.0, 8.0});
    constraints.push_back(
        Constraint::RequireAttributes(AttributeSet({777777})));
    ExpectRowsMatchSpec(constructed, constraints, where + " original");
    ExpectRowsMatchSpec(grown, constraints, where + " grown copy");
  }
}

TEST(Compile, MonopolyCountsFig4Example) {
  // The running example of Sec. V-A: h = (14, 7, 7).
  SharingProblem problem;
  problem.cluster.AddMachine(ResourceVector{9.0, 12.0});
  problem.cluster.AddMachine(ResourceVector{3.0, 4.0});
  problem.cluster.AddMachine(ResourceVector{9.0, 12.0});
  JobSpec u1{.id = 0, .name = "u1", .demand = {1.0, 2.0}};
  u1.constraint = Constraint::Blacklist({2});
  JobSpec u2{.id = 1, .name = "u2", .demand = {3.0, 1.0}};
  u2.constraint = Constraint::Whitelist({1});
  JobSpec u3{.id = 2, .name = "u3", .demand = {1.0, 4.0}};
  problem.jobs = {u1, u2, u3};
  const CompiledProblem compiled = Compile(problem);
  EXPECT_NEAR(compiled.h[0], 14.0, 1e-9);
  EXPECT_NEAR(compiled.h[1], 7.0, 1e-9);
  EXPECT_NEAR(compiled.h[2], 7.0, 1e-9);
  // Constrained monopoly: u1 loses m3 (6 tasks), u2 keeps only m2 (1 task).
  EXPECT_NEAR(compiled.g[0], 8.0, 1e-9);
  EXPECT_NEAR(compiled.g[1], 1.0, 1e-9);
  EXPECT_NEAR(compiled.g[2], 7.0, 1e-9);
}

TEST(CompileDeathTest, RejectsZeroDemand) {
  SharingProblem problem;
  problem.cluster.AddMachine(ResourceVector{1.0, 1.0});
  problem.jobs.push_back(JobSpec{.id = 0, .name = "z", .demand = {0.0, 0.0}});
  EXPECT_DEATH(Compile(problem), "demand must be positive");
}

TEST(CompileDeathTest, RejectsUnsatisfiableConstraint) {
  SharingProblem problem;
  problem.cluster.AddMachine(ResourceVector{1.0, 1.0});
  JobSpec job{.id = 0, .name = "nowhere", .demand = {1.0, 1.0}};
  job.constraint = Constraint::RequireAttributes(AttributeSet({42}));
  problem.jobs.push_back(job);
  EXPECT_DEATH(Compile(problem), "no machine satisfies");
}

TEST(CompileDeathTest, RejectsNonPositiveWeight) {
  SharingProblem problem;
  problem.cluster.AddMachine(ResourceVector{1.0});
  JobSpec job{.id = 0, .name = "w0", .demand = {1.0}};
  job.weight = 0.0;
  problem.jobs.push_back(job);
  EXPECT_DEATH(Compile(problem), "weight must be positive");
}

TEST(FindComponents, ConnectedGraphIsOneComponent) {
  const CompiledProblem compiled = Compile(Fig1Problem());
  const ConstraintComponents components = FindComponents(compiled);
  EXPECT_EQ(components.count, 1u);
}

TEST(FindComponents, DisjointWhitelistsSplit) {
  SharingProblem problem;
  for (int k = 0; k < 4; ++k) problem.cluster.AddMachine(ResourceVector{1.0});
  JobSpec a{.id = 0, .name = "a", .demand = {1.0}};
  a.constraint = Constraint::Whitelist({0, 1});
  JobSpec b{.id = 1, .name = "b", .demand = {1.0}};
  b.constraint = Constraint::Whitelist({2, 3});
  problem.jobs = {a, b};
  const ConstraintComponents components = FindComponents(Compile(problem));
  EXPECT_EQ(components.count, 2u);
  EXPECT_NE(components.user_component[0], components.user_component[1]);
  EXPECT_EQ(components.machine_component[0], components.machine_component[1]);
  EXPECT_EQ(components.machine_component[2], components.machine_component[3]);
}

TEST(FindComponents, SharedUserMergesComponents) {
  SharingProblem problem;
  for (int k = 0; k < 3; ++k) problem.cluster.AddMachine(ResourceVector{1.0});
  JobSpec a{.id = 0, .name = "a", .demand = {1.0}};
  a.constraint = Constraint::Whitelist({0});
  JobSpec b{.id = 1, .name = "b", .demand = {1.0}};
  b.constraint = Constraint::Whitelist({0, 2});
  problem.jobs = {a, b};
  const ConstraintComponents components = FindComponents(Compile(problem));
  // m1 bridged to m3 through user b; m2 has no user and stands alone.
  EXPECT_EQ(components.count, 2u);
  EXPECT_EQ(components.user_component[0], components.user_component[1]);
}

}  // namespace
}  // namespace tsf
