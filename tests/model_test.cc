// The three analytical models: zero-load limits, monotonicity, stability
// boundaries, the algorithm ranking of Figure 12, and Theorem 2's
// root-bottleneck claim.

#include <gtest/gtest.h>

#include <cmath>

#include "core/analyzer.h"
#include "core/naive_model.h"
#include "core/linktype_model.h"
#include "core/optimistic_model.h"

namespace cbtree {
namespace {

ModelParams Paper(double disk_cost = 5.0) {
  return ModelParams::PaperDefault(disk_cost);
}

// The response time at vanishing arrival rate must equal the serial time.
double SerialSearchTime(const ModelParams& p) {
  double total = 0.0;
  for (int i = 1; i <= p.height(); ++i) total += p.cost.Se(i);
  return total;
}

TEST(NaiveModelTest, ZeroLoadSearchEqualsSerialTime) {
  NaiveLockCouplingModel model(Paper());
  AnalysisResult result = model.Analyze(1e-9);
  ASSERT_TRUE(result.stable);
  EXPECT_NEAR(result.per_search, SerialSearchTime(model.params()), 1e-3);
}

TEST(NaiveModelTest, ZeroLoadInsertIncludesModifyAndExpectedSplits) {
  NaiveLockCouplingModel model(Paper());
  const ModelParams& p = model.params();
  AnalysisResult result = model.Analyze(1e-9);
  ASSERT_TRUE(result.stable);
  double expected = p.cost.M();
  for (int i = 2; i <= p.height(); ++i) expected += p.cost.Se(i);
  for (int j = 1; j <= p.height() - 1; ++j) {
    expected += p.structure.PrFProduct(j) * p.cost.Sp(j);
  }
  EXPECT_NEAR(result.per_insert, expected, 1e-3);
}

TEST(NaiveModelTest, ResponseTimesIncreaseWithLoad) {
  NaiveLockCouplingModel model(Paper());
  double last_s = 0.0, last_i = 0.0;
  for (double lambda : {0.01, 0.05, 0.1, 0.15}) {
    AnalysisResult result = model.Analyze(lambda);
    ASSERT_TRUE(result.stable) << "lambda " << lambda;
    EXPECT_GT(result.per_search, last_s);
    EXPECT_GT(result.per_insert, last_i);
    last_s = result.per_search;
    last_i = result.per_insert;
  }
}

TEST(NaiveModelTest, SaturatesAtFiniteRate) {
  NaiveLockCouplingModel model(Paper());
  double max_rate = model.MaxThroughput();
  EXPECT_TRUE(std::isfinite(max_rate));
  EXPECT_GT(max_rate, 0.0);
  EXPECT_TRUE(model.Analyze(max_rate * 0.95).stable);
  EXPECT_FALSE(model.Analyze(max_rate * 1.05).stable);
}

TEST(NaiveModelTest, BottleneckIsTheRoot) {
  // Theorem 2: lock-coupling saturates at the root first.
  NaiveLockCouplingModel model(Paper());
  double max_rate = model.MaxThroughput();
  AnalysisResult result = model.Analyze(max_rate * 1.02);
  ASSERT_FALSE(result.stable);
  EXPECT_EQ(result.bottleneck_level, model.params().height());
}

TEST(NaiveModelTest, RootUtilizationRisesNonlinearly) {
  // Figure 10: going from rho_w = .5 to 1 takes less than a 50% rate bump.
  NaiveLockCouplingModel model(Paper());
  auto rate_half = model.ArrivalRateForRootUtilization(0.5);
  ASSERT_TRUE(rate_half.has_value());
  double max_rate = model.MaxThroughput();
  EXPECT_LT(max_rate / *rate_half, 1.5);
}

TEST(NaiveModelTest, RhoMonotoneInLambdaPerLevel) {
  NaiveLockCouplingModel model(Paper());
  AnalysisResult lo = model.Analyze(0.02);
  AnalysisResult hi = model.Analyze(0.1);
  for (int i = 1; i <= model.params().height(); ++i) {
    EXPECT_LE(lo.levels[i].rho_w, hi.levels[i].rho_w) << "level " << i;
  }
}

TEST(NaiveModelTest, WaitWDominatesWaitR) {
  // W(i) = R(i) + wait for readers >= R(i).
  NaiveLockCouplingModel model(Paper());
  AnalysisResult result = model.Analyze(0.1);
  ASSERT_TRUE(result.stable);
  for (int i = 1; i <= model.params().height(); ++i) {
    EXPECT_GE(result.levels[i].wait_w, result.levels[i].wait_r);
  }
}

TEST(OptimisticModelTest, ZeroLoadTimes) {
  OptimisticDescentModel model(Paper());
  const ModelParams& p = model.params();
  AnalysisResult result = model.Analyze(1e-9);
  ASSERT_TRUE(result.stable);
  EXPECT_NEAR(result.per_search, SerialSearchTime(p), 1e-3);
  // First descent: upper searches + leaf modify.
  double fd = p.cost.M();
  for (int i = 2; i <= p.height(); ++i) fd += p.cost.Se(i);
  EXPECT_NEAR(result.per_first_descent, fd, 1e-3);
  // Insert adds a redo pass with probability Pr[F(1)].
  EXPECT_GT(result.per_insert, result.per_delete);
  EXPECT_NEAR(result.per_insert,
              fd + p.structure.PrF(1) * result.per_redo_insert, 1e-6);
}

TEST(OptimisticModelTest, OutlastsNaive) {
  OptimisticDescentModel optimistic(Paper());
  NaiveLockCouplingModel naive(Paper());
  double max_o = optimistic.MaxThroughput();
  double max_n = naive.MaxThroughput();
  EXPECT_GT(max_o, max_n * 1.5) << "Figure 12: OD well above Naive";
}

TEST(OptimisticModelTest, AdvantageGrowsWithNodeSize) {
  // §6: OD's effective max rate scales ~N/log^2 N; Naive's is flat in N.
  OperationMix mix{0.3, 0.5, 0.2};
  double prev_ratio = 0.0;
  for (int n : {13, 29, 59}) {
    ModelParams params = ModelParams::ForTree(40000, n, 5.0, mix);
    OptimisticDescentModel od(params);
    NaiveLockCouplingModel naive(params);
    double ratio = od.MaxThroughput() / naive.MaxThroughput();
    EXPECT_GT(ratio, prev_ratio) << "node size " << n;
    prev_ratio = ratio;
  }
}

TEST(LinkTypeModelTest, ZeroLoadTimes) {
  LinkTypeModel model(Paper());
  AnalysisResult result = model.Analyze(1e-9);
  ASSERT_TRUE(result.stable);
  EXPECT_NEAR(result.per_search, SerialSearchTime(model.params()), 1e-3);
}

TEST(LinkTypeModelTest, EffectivelyUnboundedThroughput) {
  // §6: the Link-type algorithm has "no effective maximum throughput" — its
  // only saturation point is every leaf being write-busy, orders of
  // magnitude beyond the root bottleneck of the coupling algorithms (and far
  // past the open-system steady-state regime).
  LinkTypeModel link(Paper());
  NaiveLockCouplingModel naive(Paper());
  double link_max = link.MaxThroughput(/*cap=*/1e6);
  double naive_max = naive.MaxThroughput();
  EXPECT_TRUE(std::isinf(link_max) || link_max > 300.0 * naive_max);
  if (std::isfinite(link_max)) {
    // When it finally saturates it is on a lower level (writers starved by
    // huge on-disk reader batches), never the root as in lock-coupling.
    AnalysisResult result = link.Analyze(link_max * 1.05);
    EXPECT_FALSE(result.stable);
    EXPECT_LT(result.bottleneck_level, link.params().height());
    EXPECT_GE(result.bottleneck_level, 1);
  }
}

TEST(LinkTypeModelTest, RootSeesAlmostNoWriters) {
  LinkTypeModel model(Paper());
  AnalysisResult result = model.Analyze(0.5);
  ASSERT_TRUE(result.stable);
  int h = model.params().height();
  EXPECT_LT(result.levels[h].rho_w, 0.01);
}

TEST(ComparisonTest, Figure12RankingAtModerateLoad) {
  // Figure 12: each coupling algorithm's response blows up near its own
  // saturation point while the next algorithm barely notices that load.
  NaiveLockCouplingModel naive(Paper());
  OptimisticDescentModel od(Paper());
  LinkTypeModel link(Paper());
  // Near Naive's limit: Naive suffers, OD and Link are fine.
  double lambda_n = naive.MaxThroughput() * 0.95;
  AnalysisResult rn = naive.Analyze(lambda_n);
  AnalysisResult ro_at_n = od.Analyze(lambda_n);
  ASSERT_TRUE(rn.stable);
  ASSERT_TRUE(ro_at_n.stable);
  EXPECT_GT(rn.per_insert, 1.5 * ro_at_n.per_insert);
  EXPECT_GT(rn.per_search, ro_at_n.per_search);
  // Near OD's limit: OD suffers, Link-type is fine.
  double lambda_o = od.MaxThroughput() * 0.95;
  AnalysisResult ro = od.Analyze(lambda_o);
  AnalysisResult rl = link.Analyze(lambda_o);
  ASSERT_TRUE(ro.stable);
  ASSERT_TRUE(rl.stable);
  EXPECT_GT(ro.per_insert, 1.5 * rl.per_insert);
  EXPECT_FALSE(naive.Analyze(lambda_o).stable)
      << "Naive cannot even sustain OD's near-limit rate";
}

TEST(ComparisonTest, MaxThroughputRanking) {
  NaiveLockCouplingModel naive(Paper());
  OptimisticDescentModel od(Paper());
  LinkTypeModel link(Paper());
  double cap = 1e5;
  EXPECT_LT(naive.MaxThroughput(cap), od.MaxThroughput(cap));
  EXPECT_LT(od.MaxThroughput(cap), link.MaxThroughput(cap));
}

TEST(ComparisonTest, DiskCostReducesNaiveThroughput) {
  // Figure 11: max throughput falls as the disk cost rises.
  double last = 1e18;
  for (double d : {1.0, 2.0, 5.0, 10.0, 20.0}) {
    NaiveLockCouplingModel model(Paper(d));
    double max_rate = model.MaxThroughput();
    EXPECT_LT(max_rate, last) << "disk cost " << d;
    last = max_rate;
  }
}

TEST(AnalyzerFactoryTest, MakesAllThree) {
  for (Algorithm algorithm :
       {Algorithm::kNaiveLockCoupling, Algorithm::kOptimisticDescent,
        Algorithm::kLinkType, Algorithm::kTwoPhaseLocking}) {
    auto analyzer = MakeAnalyzer(algorithm, Paper());
    ASSERT_NE(analyzer, nullptr);
    EXPECT_EQ(analyzer->name(), AlgorithmName(algorithm));
    EXPECT_TRUE(analyzer->Analyze(1e-6).stable);
  }
}

TEST(AnalyzerFactoryTest, ProtocolNameTableRoundTrips) {
  const Algorithm all[] = {Algorithm::kNaiveLockCoupling,
                           Algorithm::kOptimisticDescent, Algorithm::kLinkType,
                           Algorithm::kTwoPhaseLocking, Algorithm::kOlc};
  for (Algorithm algorithm : all) {
    Algorithm parsed = algorithm == Algorithm::kOlc
                           ? Algorithm::kNaiveLockCoupling
                           : Algorithm::kOlc;
    ASSERT_TRUE(ParseAlgorithm(AlgorithmFlag(algorithm), &parsed))
        << AlgorithmFlag(algorithm);
    EXPECT_EQ(parsed, algorithm);
  }
  Algorithm parsed = Algorithm::kNaiveLockCoupling;
  ASSERT_TRUE(ParseAlgorithm("blink", &parsed));
  EXPECT_EQ(parsed, Algorithm::kLinkType);

  // Unknown and empty names are rejected and leave the output untouched.
  for (const char* bad : {"", "bogus", "two_phase", "Naive", "link-type"}) {
    parsed = Algorithm::kOlc;
    EXPECT_FALSE(ParseAlgorithm(bad, &parsed)) << bad;
    EXPECT_EQ(parsed, Algorithm::kOlc) << bad;
  }

  // The display names are part of every report and JSON document.
  EXPECT_EQ(AlgorithmName(Algorithm::kNaiveLockCoupling),
            "naive-lock-coupling");
  EXPECT_EQ(AlgorithmName(Algorithm::kOptimisticDescent),
            "optimistic-descent");
  EXPECT_EQ(AlgorithmName(Algorithm::kLinkType), "link-type");
  EXPECT_EQ(AlgorithmName(Algorithm::kTwoPhaseLocking), "two-phase-locking");
  EXPECT_EQ(AlgorithmName(Algorithm::kOlc), "olc");
  EXPECT_EQ(AlgorithmFlagNames(),
            "naive | optimistic | link | blink | two-phase | olc");
}

TEST(AnalyzerTest, MeanResponseIsMixWeighted) {
  NaiveLockCouplingModel model(Paper());
  AnalysisResult r = model.Analyze(0.05);
  const OperationMix& mix = model.params().mix;
  EXPECT_NEAR(r.mean_response,
              mix.q_s * r.per_search + mix.q_i * r.per_insert +
                  mix.q_d * r.per_delete,
              1e-9);
}

}  // namespace
}  // namespace cbtree
