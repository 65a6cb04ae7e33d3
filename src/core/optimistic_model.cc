#include "core/optimistic_model.h"

#include <cmath>
#include <limits>

#include "core/level_solver.h"
#include "core/rw_queue.h"
#include "util/check.h"

namespace cbtree {

std::string RecoveryPolicyName(RecoveryPolicy policy) {
  switch (policy) {
    case RecoveryPolicy::kNone:
      return "no-recovery";
    case RecoveryPolicy::kLeafOnly:
      return "leaf-only-recovery";
    case RecoveryPolicy::kNaive:
      return "naive-recovery";
  }
  return "unknown";
}

std::string OptimisticDescentModel::name() const {
  std::string base = AlgorithmName(Algorithm::kOptimisticDescent);
  if (recovery_.policy != RecoveryPolicy::kNone) {
    base += "+" + RecoveryPolicyName(recovery_.policy);
  }
  return base;
}

AnalysisResult OptimisticDescentModel::Analyze(double lambda) const {
  CBTREE_CHECK_GE(lambda, 0.0);
  const CostModel& cost = params_.cost;
  const StructureParams& st = params_.structure;
  const OperationMix& mix = params_.mix;
  const int h = params_.height();
  const double redo_fraction = mix.q_i * st.PrF(1);
  const bool leaf_locks_held =
      recovery_.policy != RecoveryPolicy::kNone;
  const bool upper_locks_held = recovery_.policy == RecoveryPolicy::kNaive;

  AnalysisResult result;
  result.levels.resize(h + 1);

  std::vector<double> lambda_level(h + 1, 0.0);
  lambda_level[h] = lambda;
  for (int i = h - 1; i >= 1; --i) {
    lambda_level[i] = lambda_level[i + 1] / st.E(i + 1);
  }

  bool stable = true;
  int bottleneck = 0;
  // Base (no-recovery) insert hold times for Theorem 1's recursion: the
  // recovery retention of a *child's* lock does not keep the parent's lock
  // held (the parent releases after the restructure), so the recursion uses
  // base values while the queue service uses the retained ("primed") ones.
  std::vector<double> t_i_base(h + 1, 0.0);
  for (int i = 1; i <= h; ++i) {
    LevelAnalysis& level = result.levels[i];
    level.level = i;
    level.lambda = lambda_level[i] * (1.0 + redo_fraction);

    if (i == 1) {
      // At the leaf: searches place R locks; first-descent updates and
      // redo-inserts place W locks.
      level.lambda_r = mix.q_s * lambda_level[1];
      level.lambda_w =
          (mix.update_fraction() + redo_fraction) * lambda_level[1];
      level.t_s = cost.Se(1);
      t_i_base[1] = cost.M();
      double t_held = cost.M();
      if (leaf_locks_held) t_held += recovery_.t_trans;
      level.t_i = t_held;  // T'(OP,1): what competing lockers experience
      level.t_d = t_held;
      level.mu_r = 1.0 / level.t_s;
      level.mu_w = 1.0 / t_held;
    } else {
      // Above the leaf: every first descent places an R lock; only
      // redo-inserts place W locks (lock-coupled, like Naive inserts).
      const LevelAnalysis& below = result.levels[i - 1];
      level.lambda_r = lambda_level[i];
      level.lambda_w = redo_fraction * lambda_level[i];

      // R service: searches couple into the child's R lock; at level 2 the
      // first-descent updates couple into the leaf's W lock instead.
      double t_r_search = cost.Se(i) + below.wait_r;
      double t_r = t_r_search;
      if (i == 2) {
        double t_r_update = cost.Se(2) + below.wait_w;
        t_r = mix.q_s * t_r_search + mix.update_fraction() * t_r_update;
        t_r /= (mix.q_s + mix.update_fraction());
      }
      level.t_s = t_r;

      // W service: the redo-insert follows the Naive insert recursion
      // (Theorem 1), on base hold times; Naive recovery then retains this
      // lock until commit whenever the node was actually modified
      // (probability Pr[F(i)] that the child's split propagated into it).
      t_i_base[i] = cost.Se(i) + below.wait_w +
                    st.PrF(i - 1) * t_i_base[i - 1] +
                    cost.Sp(i - 1) * st.PrFProduct(i - 1);
      level.t_i = t_i_base[i];
      if (upper_locks_held) {
        level.t_i += st.PrF(i) * recovery_.t_trans;
      }
      level.t_d = level.t_i;
      level.mu_r = 1.0 / t_r;
      level.mu_w = 1.0 / level.t_i;
    }

    RwQueueResult queue = SolveRwQueue(
        {level.lambda_r, level.lambda_w, level.mu_r, level.mu_w});
    level.rho_w = queue.rho_w;
    level.r_u = queue.r_u;
    level.r_e = queue.r_e;
    level.stable = queue.stable;
    if (!queue.stable && stable) {
      stable = false;
      bottleneck = i;
    }

    WaitTimes waits;
    if (i == 1) {
      waits = ExponentialServerWaits(queue);
    } else {
      const LevelAnalysis& below = result.levels[i - 1];
      CouplingLevelInput input;
      input.lambda_w = level.lambda_w;
      input.se = cost.Se(i);
      input.p_f = st.PrF(i - 1);  // every redo W job is an insert
      input.t_f = below.t_i + cost.Sp(i - 1) * st.PrFProduct(i - 2);
      input.queue = queue;
      input.queue_below = RwQueueResult{below.stable, below.rho_w, below.r_u,
                                        below.r_e, 0.0};
      input.wait_r_below = below.wait_r;
      waits = CouplingLevelWaits(input);
    }
    level.wait_r = waits.r;
    level.wait_w = waits.w;
  }

  result.stable = stable;
  result.bottleneck_level = bottleneck;
  if (!stable) {
    result.per_search = result.per_insert = result.per_delete =
        result.mean_response = result.per_first_descent =
            result.per_redo_insert = std::numeric_limits<double>::infinity();
    return result;
  }

  // Response times. The first descent looks like a search that W-locks the
  // leaf; an insert redoes with probability Pr[F(1)], following the Naive
  // insert protocol.
  double per_s = 0.0;
  double descent_upper = 0.0;  // sum over i>=2 of Se(i) + R(i)
  double redo = cost.M();
  for (int i = 1; i <= h; ++i) {
    per_s += cost.Se(i) + result.levels[i].wait_r;
    redo += result.levels[i].wait_w;
    if (i >= 2) {
      descent_upper += cost.Se(i) + result.levels[i].wait_r;
      redo += cost.Se(i);
    }
  }
  for (int j = 1; j <= h - 1; ++j) redo += st.PrFProduct(j) * cost.Sp(j);
  double first_descent =
      descent_upper + result.levels[1].wait_w + cost.M();

  result.per_search = per_s;
  result.per_first_descent = first_descent;
  result.per_redo_insert = redo;
  result.per_insert = first_descent + st.PrF(1) * redo;
  result.per_delete = first_descent;
  result.mean_response = mix.q_s * per_s + mix.q_i * result.per_insert +
                         mix.q_d * result.per_delete;
  return result;
}

}  // namespace cbtree
