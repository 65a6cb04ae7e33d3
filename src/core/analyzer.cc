#include "core/analyzer.h"

#include <cmath>
#include <iterator>

#include "core/linktype_model.h"
#include "core/naive_model.h"
#include "core/olc_model.h"
#include "core/optimistic_model.h"
#include "core/two_phase_model.h"
#include "stats/solver.h"
#include "util/check.h"

namespace cbtree {

namespace {

/// One row of the protocol name table. Every flag, report and test label
/// that names a protocol reads it from this table.
struct AlgorithmNames {
  Algorithm algorithm;
  std::string_view flag;     ///< the --protocol value
  std::string_view alias;    ///< another accepted --protocol value, or ""
  std::string_view display;  ///< what AlgorithmName returns
};

constexpr AlgorithmNames kAlgorithmTable[] = {
    {Algorithm::kNaiveLockCoupling, "naive", "", "naive-lock-coupling"},
    {Algorithm::kOptimisticDescent, "optimistic", "", "optimistic-descent"},
    {Algorithm::kLinkType, "link", "blink", "link-type"},
    {Algorithm::kTwoPhaseLocking, "two-phase", "", "two-phase-locking"},
    {Algorithm::kOlc, "olc", "", "olc"},
};

static_assert(
    [] {
      for (size_t i = 0; i < std::size(kAlgorithmTable); ++i) {
        if (static_cast<size_t>(kAlgorithmTable[i].algorithm) != i) {
          return false;
        }
      }
      return true;
    }(),
    "kAlgorithmTable rows must follow the enum order");

const AlgorithmNames& Row(Algorithm algorithm) {
  const auto index = static_cast<size_t>(algorithm);
  CBTREE_CHECK_LT(index, std::size(kAlgorithmTable));
  return kAlgorithmTable[index];
}

}  // namespace

std::string AlgorithmName(Algorithm algorithm) {
  return std::string(Row(algorithm).display);
}

std::string AlgorithmFlag(Algorithm algorithm) {
  return std::string(Row(algorithm).flag);
}

bool ParseAlgorithm(std::string_view name, Algorithm* algorithm) {
  if (name.empty()) return false;
  for (const AlgorithmNames& row : kAlgorithmTable) {
    if (name == row.flag || name == row.alias) {
      *algorithm = row.algorithm;
      return true;
    }
  }
  return false;
}

std::string AlgorithmFlagNames() {
  std::string names;
  for (const AlgorithmNames& row : kAlgorithmTable) {
    for (std::string_view name : {row.flag, row.alias}) {
      if (name.empty()) continue;
      if (!names.empty()) names += " | ";
      names += name;
    }
  }
  return names;
}

Analyzer::Analyzer(ModelParams params) : params_(std::move(params)) {
  params_.Validate();
}

double Analyzer::MaxThroughput(double cap, double tolerance) const {
  // Find an unstable upper bracket by doubling, then bisect the stability
  // boundary.
  double lo = 0.0;
  double hi = 1.0 / (params_.cost.root_search_time * params_.height());
  while (Analyze(hi).stable) {
    lo = hi;
    hi *= 2.0;
    if (hi > cap) return std::numeric_limits<double>::infinity();
  }
  while (hi - lo > tolerance * hi) {
    double mid = 0.5 * (lo + hi);
    if (Analyze(mid).stable) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

std::optional<double> Analyzer::ArrivalRateForRootUtilization(
    double target, double cap) const {
  CBTREE_CHECK_GT(target, 0.0);
  CBTREE_CHECK_LE(target, 1.0);
  double max_rate = MaxThroughput(cap);
  double hi = std::isinf(max_rate) ? cap : max_rate * (1.0 - 1e-9);
  auto utilization_gap = [this, target](double lambda) {
    AnalysisResult result = Analyze(lambda);
    if (!result.stable) return 1.0 - target;  // saturated: utilization "1"
    return result.root_writer_utilization() - target;
  };
  if (utilization_gap(hi) < 0.0) return std::nullopt;
  return FirstRoot(utilization_gap, 0.0, hi, /*segments=*/64);
}

std::unique_ptr<Analyzer> MakeAnalyzer(Algorithm algorithm,
                                       ModelParams params) {
  switch (algorithm) {
    case Algorithm::kNaiveLockCoupling:
      return std::make_unique<NaiveLockCouplingModel>(std::move(params));
    case Algorithm::kOptimisticDescent:
      return std::make_unique<OptimisticDescentModel>(std::move(params));
    case Algorithm::kLinkType:
      return std::make_unique<LinkTypeModel>(std::move(params));
    case Algorithm::kTwoPhaseLocking:
      return std::make_unique<TwoPhaseLockingModel>(std::move(params));
    case Algorithm::kOlc:
      return std::make_unique<OlcModel>(std::move(params));
  }
  CBTREE_CHECK(false) << "unreachable";
  return nullptr;
}

}  // namespace cbtree
