// Analytical model of Two-Phase Locking on the B-tree — the strictest
// protocol, listed by the paper's conclusions among the "additional
// concurrent B-tree algorithms" analyzed in the full version.
//
// Every lock acquired during the descent is held until the operation
// completes (searches hold R locks root-to-leaf, updates hold W locks), so
// the hold time at level i telescopes over everything below:
//   T(o, i) = Se(i) + wait(i-1) + T(o, i-1),
// and the leaf hold time of an insert includes the whole restructuring
// chain. Response times collapse to the root wait plus the root hold time.

#ifndef CBTREE_CORE_TWO_PHASE_MODEL_H_
#define CBTREE_CORE_TWO_PHASE_MODEL_H_

#include "core/analyzer.h"

namespace cbtree {

class TwoPhaseLockingModel : public Analyzer {
 public:
  explicit TwoPhaseLockingModel(ModelParams params)
      : Analyzer(std::move(params)) {}

  std::string name() const override {
    return AlgorithmName(Algorithm::kTwoPhaseLocking);
  }
  AnalysisResult Analyze(double lambda) const override;
};

}  // namespace cbtree

#endif  // CBTREE_CORE_TWO_PHASE_MODEL_H_
