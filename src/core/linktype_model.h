// Analytical model of the Link-type (Lehman-Yao) algorithm (paper §5.1).
//
// No lock-coupling: at most one lock is held at a time. Every operation
// places R locks during the descent; updates W-lock the leaf, and a split at
// level i produces one W-lock arrival at level i+1 (rate thinned by the
// product of split probabilities). R service is just the node search; W
// service is the modify plus a possible half-split. Link crossings are rare
// and ignored (the paper validates this by simulation — Figure 9; our
// simulator measures them).

#ifndef CBTREE_CORE_LINKTYPE_MODEL_H_
#define CBTREE_CORE_LINKTYPE_MODEL_H_

#include "core/analyzer.h"

namespace cbtree {

class LinkTypeModel : public Analyzer {
 public:
  explicit LinkTypeModel(ModelParams params) : Analyzer(std::move(params)) {}

  std::string name() const override {
    return AlgorithmName(Algorithm::kLinkType);
  }
  AnalysisResult Analyze(double lambda) const override;
};

}  // namespace cbtree

#endif  // CBTREE_CORE_LINKTYPE_MODEL_H_
