// Uniform interface of the analytical models (paper §3.3: "the framework
// allows concurrent algorithms to be analyzed in a uniform manner").

#ifndef CBTREE_CORE_ANALYZER_H_
#define CBTREE_CORE_ANALYZER_H_

#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "core/analysis_result.h"
#include "core/params.h"

namespace cbtree {

enum class Algorithm {
  kNaiveLockCoupling,
  kOptimisticDescent,
  kLinkType,
  kTwoPhaseLocking,
  kOlc,
};

// The protocol names, from the one name table in analyzer.cc.

/// The display name: "naive-lock-coupling", ..., "two-phase-locking", "olc".
std::string AlgorithmName(Algorithm algorithm);

/// The --protocol name, e.g. naive, link or two-phase.
std::string AlgorithmFlag(Algorithm algorithm);

/// Resolves a --protocol value (a flag name or an alias). Returns false,
/// leaving *algorithm untouched, for an unknown or empty name.
bool ParseAlgorithm(std::string_view name, Algorithm* algorithm);

/// Every accepted --protocol value, "naive | optimistic | link | blink |
/// ...", for help text and errors.
std::string AlgorithmFlagNames();

/// Base of the three analytical models. Thread-compatible; Analyze is const
/// and reentrant.
class Analyzer {
 public:
  explicit Analyzer(ModelParams params);
  virtual ~Analyzer() = default;

  const ModelParams& params() const { return params_; }
  virtual std::string name() const = 0;

  /// Solves every level queue bottom-up at total arrival rate `lambda` and
  /// derives the response times. result.stable is false past saturation (the
  /// response times are then meaningless and reported as +inf).
  virtual AnalysisResult Analyze(double lambda) const = 0;

  /// Maximum throughput: the supremum of stable arrival rates (Theorem 2 for
  /// Naive Lock-coupling: the rate at which rho_w(h) reaches 1). Returns
  /// +infinity when no saturation is found below `cap` (the paper's
  /// conclusion for the Link-type algorithm).
  double MaxThroughput(double cap = 1e9, double tolerance = 1e-6) const;

  /// The arrival rate at which the *root* writer utilization reaches
  /// `target` (the rules of thumb predict this point for target = .5).
  /// nullopt if the utilization never reaches the target while stable.
  std::optional<double> ArrivalRateForRootUtilization(
      double target, double cap = 1e9) const;

 protected:
  ModelParams params_;
};

/// Factory over the three algorithms.
std::unique_ptr<Analyzer> MakeAnalyzer(Algorithm algorithm,
                                       ModelParams params);

}  // namespace cbtree

#endif  // CBTREE_CORE_ANALYZER_H_
