// End-to-end simulator behaviour for each algorithm: completion, tree
// integrity under concurrency, determinism, low-load response limits,
// restarts, link crossings, saturation detection, and recovery retention.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>

#include "btree/validate.h"
#include "sim/simulator.h"

namespace cbtree {
namespace {

SimConfig SmallConfig(Algorithm algorithm, double lambda) {
  SimConfig config;
  config.algorithm = algorithm;
  config.lambda = lambda;
  config.mix = OperationMix{0.3, 0.5, 0.2};
  config.num_operations = 3000;
  config.warmup_operations = 300;
  config.num_items = 4000;
  config.max_node_size = 13;
  config.disk_cost = 5.0;
  config.seed = 1;
  return config;
}

class SimulatorAlgorithmTest : public ::testing::TestWithParam<Algorithm> {};

TEST_P(SimulatorAlgorithmTest, CompletesAllOperations) {
  SimConfig config = SmallConfig(GetParam(), 0.02);
  Simulator sim(config);
  SimResult result = sim.Run();
  EXPECT_FALSE(result.saturated);
  EXPECT_EQ(result.completed,
            config.num_operations - config.warmup_operations);
  EXPECT_GT(result.resp_search.count(), 0u);
  EXPECT_GT(result.resp_insert.count(), 0u);
  EXPECT_GT(result.resp_delete.count(), 0u);
  EXPECT_GT(result.duration, 0.0);
}

TEST_P(SimulatorAlgorithmTest, TreeStaysConsistent) {
  SimConfig config = SmallConfig(GetParam(), 0.05);
  Simulator sim(config);
  sim.Run();
  // The tree grew (more inserts than deletes) and is structurally sound.
  EXPECT_GT(sim.tree().size(), config.num_items);
  ValidateOptions options;
  // Merge-at-empty removals invalidate links under the coupling algorithms.
  options.check_links = GetParam() == Algorithm::kLinkType;
  auto result = ValidateTree(sim.tree(), options);
  EXPECT_TRUE(result) << result.error;
}

TEST_P(SimulatorAlgorithmTest, DeterministicPerSeed) {
  SimConfig config = SmallConfig(GetParam(), 0.03);
  config.num_operations = 1000;
  config.warmup_operations = 100;
  SimResult a = Simulator(config).Run();
  SimResult b = Simulator(config).Run();
  EXPECT_DOUBLE_EQ(a.resp_all.mean(), b.resp_all.mean());
  EXPECT_EQ(a.events, b.events);
  config.seed = 99;
  SimResult c = Simulator(config).Run();
  EXPECT_NE(a.resp_all.mean(), c.resp_all.mean());
}

TEST_P(SimulatorAlgorithmTest, LowLoadResponseApproachesSerialTime) {
  SimConfig config = SmallConfig(GetParam(), 0.0005);
  config.num_operations = 2000;
  config.warmup_operations = 200;
  Simulator sim(config);
  SimResult result = sim.Run();
  ASSERT_FALSE(result.saturated);
  // Serial search time: two in-memory levels at 1 plus on-disk levels at D,
  // give or take the exponential sampling noise. h=4 for 4000 items at N=13.
  int h = sim.tree().height();
  double serial = 0.0;
  for (int level = 1; level <= h; ++level) {
    serial += level > h - config.in_memory_levels ? 1.0 : config.disk_cost;
  }
  EXPECT_NEAR(result.resp_search.mean(), serial, serial * 0.15);
}

TEST_P(SimulatorAlgorithmTest, ResponseGrowsWithLoad) {
  SimConfig config = SmallConfig(GetParam(), 0.005);
  SimResult low = Simulator(config).Run();
  config.lambda = 0.08;
  SimResult high = Simulator(config).Run();
  ASSERT_FALSE(low.saturated);
  ASSERT_FALSE(high.saturated);
  EXPECT_GT(high.resp_all.mean(), low.resp_all.mean());
}

// Everything a run reports that a seed must reproduce, with the doubles in
// hex-float form so a single changed bit shows.
std::string Digest(const SimResult& r) {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer), "%llu %llu %llu %llu %a %a %a",
                static_cast<unsigned long long>(r.completed),
                static_cast<unsigned long long>(r.events),
                static_cast<unsigned long long>(r.restarts),
                static_cast<unsigned long long>(r.link_crossings),
                r.resp_all.mean(), r.end_time, r.root_writer_utilization);
  return buffer;
}

// The simulation itself, pinned across changes to the simulator's data
// structures: perfbench model-paper's configuration (20k items, N=13, disk
// cost 5, 30/50/20, 10k ops after a 1k warm-up) must reproduce these
// digests bit for bit. A faster simulator has to be the same simulator.
TEST_P(SimulatorAlgorithmTest, ModelPaperDigestIsPinned) {
  struct Expected {
    Algorithm algorithm;
    const char* seed1;
    const char* seed2;
  };
  static constexpr Expected kExpected[] = {
      {Algorithm::kNaiveLockCoupling,
       "9000 60406 0 0 0x1.7560091af43e4p+4 "
       "0x1.02e2119352cd8p+15 0x1.5014570347da1p-2",
       "9000 60396 0 0 0x1.87fae2fa1b836p+4 "
       "0x1.03e784f672a85p+15 0x1.773e2d57efbbdp-2"},
      {Algorithm::kOptimisticDescent,
       "9000 61894 337 0 0x1.5d5160dd62e77p+4 "
       "0x1.02d60003c6c38p+15 0x1.674c7552dc332p-6",
       "9000 61828 316 0 0x1.68ed96531119dp+4 "
       "0x1.040983a9d069fp+15 0x1.bed5d8a4a4778p-6"},
      {Algorithm::kLinkType,
       "9000 60813 0 3 0x1.59992f5e1384cp+4 "
       "0x1.02a3dc64f1fb8p+15 0x1.fed4171ae08b3p-15",
       "9000 60793 0 2 0x1.58bbf3fd84a18p+4 "
       "0x1.03e04a9fa9d6fp+15 0x1.6b743b7e1d98ap-13"},
      {Algorithm::kTwoPhaseLocking,
       "9000 60406 0 0 0x1.8d05a78b77ca6p+4 "
       "0x1.e49f3fb1db9a9p+19 0x1.596b8d301521ep-3",
       "9000 60396 0 0 0x1.9246c7fdc1f8bp+4 "
       "0x1.e6e78c9e511a8p+19 0x1.576fb1b9f6b97p-3"},
  };
  const Expected* expected = nullptr;
  for (const Expected& e : kExpected) {
    if (e.algorithm == GetParam()) expected = &e;
  }
  ASSERT_NE(expected, nullptr);
  SimConfig config = SmallConfig(
      GetParam(), GetParam() == Algorithm::kTwoPhaseLocking ? 0.01 : 0.3);
  config.num_items = 20000;
  config.num_operations = 10000;
  config.warmup_operations = 1000;
  config.seed = 1;
  EXPECT_EQ(Digest(Simulator(config).Run()), expected->seed1);
  config.seed = 2;
  EXPECT_EQ(Digest(Simulator(config).Run()), expected->seed2);
}

INSTANTIATE_TEST_SUITE_P(Algorithms, SimulatorAlgorithmTest,
                         ::testing::Values(Algorithm::kNaiveLockCoupling,
                                           Algorithm::kOptimisticDescent,
                                           Algorithm::kLinkType,
                                           Algorithm::kTwoPhaseLocking),
                         [](const auto& info) {
                           std::string name = AlgorithmName(info.param);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(SimulatorTest, NaiveSaturatesUnderOverload) {
  SimConfig config = SmallConfig(Algorithm::kNaiveLockCoupling, 2.0);
  config.max_active_ops = 2000;
  SimResult result = Simulator(config).Run();
  EXPECT_TRUE(result.saturated);
}

TEST(SimulatorTest, LinkTypeSurvivesNaiveKillingLoad) {
  // Figure 12's point: at rates far beyond Naive's saturation the Link-type
  // algorithm still clears the workload.
  SimConfig config = SmallConfig(Algorithm::kLinkType, 2.0);
  config.max_active_ops = 2000;
  SimResult result = Simulator(config).Run();
  EXPECT_FALSE(result.saturated);
  EXPECT_NEAR(result.throughput, 2.0, 0.4);
}

TEST(SimulatorTest, OptimisticRecordsRestarts) {
  SimConfig config = SmallConfig(Algorithm::kOptimisticDescent, 0.05);
  config.num_operations = 8000;
  config.warmup_operations = 500;
  SimResult result = Simulator(config).Run();
  ASSERT_FALSE(result.saturated);
  // Restarts happen at roughly q_i * Pr[F(1)] per operation.
  EXPECT_GT(result.restarts, 0u);
  double measured = result.restarts / 7500.0;
  EXPECT_LT(measured, 0.15);
}

TEST(SimulatorTest, LinkTypeCrossingsAreRare) {
  // Figure 9: link crossings are negligible.
  SimConfig config = SmallConfig(Algorithm::kLinkType, 0.3);
  config.num_operations = 6000;
  config.warmup_operations = 500;
  SimResult result = Simulator(config).Run();
  ASSERT_FALSE(result.saturated);
  EXPECT_LT(result.link_crossings,
            (config.num_operations - config.warmup_operations) / 20);
}

TEST(SimulatorTest, RootUtilizationGrowsWithLoad) {
  SimConfig config = SmallConfig(Algorithm::kNaiveLockCoupling, 0.01);
  SimResult low = Simulator(config).Run();
  config.lambda = 0.1;
  SimResult high = Simulator(config).Run();
  ASSERT_FALSE(high.saturated);
  EXPECT_GT(high.root_writer_utilization, low.root_writer_utilization);
  EXPECT_GT(high.root_writer_utilization, 0.0);
  EXPECT_LE(high.root_writer_utilization, 1.0);
}

TEST(SimulatorTest, ThroughputMatchesArrivalRateWhenStable) {
  SimConfig config = SmallConfig(Algorithm::kOptimisticDescent, 0.05);
  config.num_operations = 6000;
  SimResult result = Simulator(config).Run();
  ASSERT_FALSE(result.saturated);
  EXPECT_NEAR(result.throughput, 0.05, 0.01);
}

TEST(SimulatorTest, RecoveryRetentionSlowsOperations) {
  SimConfig none = SmallConfig(Algorithm::kOptimisticDescent, 0.03);
  none.num_operations = 4000;
  SimConfig leaf = none;
  leaf.recovery = {RecoveryPolicy::kLeafOnly, 50.0};
  SimConfig naive = none;
  naive.recovery = {RecoveryPolicy::kNaive, 50.0};
  SimResult r_none = Simulator(none).Run();
  SimResult r_leaf = Simulator(leaf).Run();
  SimResult r_naive = Simulator(naive).Run();
  ASSERT_FALSE(r_none.saturated);
  ASSERT_FALSE(r_leaf.saturated);
  ASSERT_FALSE(r_naive.saturated);
  EXPECT_GT(r_leaf.resp_all.mean(), r_none.resp_all.mean());
  EXPECT_GE(r_naive.resp_all.mean(), r_leaf.resp_all.mean());
}

TEST(SimulatorTest, ZipfSkewIncreasesLeafContention) {
  SimConfig uniform = SmallConfig(Algorithm::kLinkType, 0.3);
  uniform.num_operations = 4000;
  SimConfig skewed = uniform;
  skewed.zipf_skew = 0.9;
  SimResult r_uniform = Simulator(uniform).Run();
  SimResult r_skewed = Simulator(skewed).Run();
  ASSERT_FALSE(r_uniform.saturated);
  ASSERT_FALSE(r_skewed.saturated);
  // Hot keys concentrate W locks on few leaves; waits cannot shrink.
  EXPECT_GE(r_skewed.resp_all.mean(), r_uniform.resp_all.mean() * 0.95);
}

TEST(SimulatorTest, PureSearchWorkloadRuns) {
  // q_s = 1: the construction phase must still grow the tree (pure
  // inserts), and the concurrent phase sees no W locks at all.
  SimConfig config = SmallConfig(Algorithm::kNaiveLockCoupling, 0.2);
  config.mix = OperationMix{1.0, 0.0, 0.0};
  config.num_operations = 2000;
  config.warmup_operations = 200;
  Simulator sim(config);
  SimResult result = sim.Run();
  EXPECT_FALSE(result.saturated);
  EXPECT_EQ(result.resp_insert.count(), 0u);
  EXPECT_EQ(result.root_writer_utilization, 0.0);
  EXPECT_EQ(sim.tree().size(), config.num_items);
}

TEST(SimulatorTest, ResponsePercentilesAreOrderedAndBracketMean) {
  SimConfig config = SmallConfig(Algorithm::kOptimisticDescent, 0.05);
  config.num_operations = 6000;
  SimResult result = Simulator(config).Run();
  ASSERT_FALSE(result.saturated);
  EXPECT_GT(result.resp_p50, 0.0);
  EXPECT_LE(result.resp_p50, result.resp_p95);
  EXPECT_LE(result.resp_p95, result.resp_p99);
  // Exponential-ish service: the mean sits between the median and p99.
  EXPECT_LT(result.resp_p50, result.resp_all.mean() * 1.2);
  EXPECT_GT(result.resp_p99, result.resp_all.mean());
}

TEST(SimulatorTest, RestructuringHappensUnderConcurrency) {
  SimConfig config = SmallConfig(Algorithm::kLinkType, 0.2);
  config.num_operations = 8000;
  Simulator sim(config);
  SimResult result = sim.Run();
  ASSERT_FALSE(result.saturated);
  EXPECT_GT(result.restructures.TotalSplits(), 0u);
  EXPECT_EQ(result.final_shape.num_keys, sim.tree().size());
}

}  // namespace
}  // namespace cbtree
