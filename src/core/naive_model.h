// Analytical model of the Naive Lock-coupling algorithm (paper §5,
// Theorems 1–5).
//
// Searches are R jobs, inserts and deletes are W jobs; every level is an
// FCFS R/W queue whose service times embed the lock-coupling dependence on
// the level below, so the solution proceeds from the leaves up.

#ifndef CBTREE_CORE_NAIVE_MODEL_H_
#define CBTREE_CORE_NAIVE_MODEL_H_

#include "core/analyzer.h"

namespace cbtree {

class NaiveLockCouplingModel : public Analyzer {
 public:
  explicit NaiveLockCouplingModel(ModelParams params)
      : Analyzer(std::move(params)) {}

  std::string name() const override {
    return AlgorithmName(Algorithm::kNaiveLockCoupling);
  }
  AnalysisResult Analyze(double lambda) const override;
};

}  // namespace cbtree

#endif  // CBTREE_CORE_NAIVE_MODEL_H_
