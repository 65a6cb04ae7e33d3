#include "sim/operation.h"

#include <algorithm>

#include "sim/simulator.h"
#include "stats/distributions.h"
#include "util/check.h"

namespace cbtree {

SimOperation::SimOperation(Simulator* sim, OpId id, Operation op,
                           double arrival_time)
    : sim_(sim), id_(id), op_(op), arrival_time_(arrival_time) {}

SimOperation::~SimOperation() {
  CBTREE_CHECK(held_locks_.empty())
      << "operation " << id_ << " destroyed holding locks";
}

void SimOperation::AbandonForShutdown() { held_locks_.clear(); }

BTree& SimOperation::tree() { return sim_->tree(); }

double SimOperation::SearchCost(int level) const {
  return sim_->AccessCost(level);
}

double SimOperation::ModifyCost(int level) const {
  return sim_->config().modify_factor * sim_->AccessCost(level);
}

double SimOperation::SplitCost(int level) const {
  return sim_->config().split_factor * sim_->AccessCost(level);
}

double SimOperation::MergeCost(int level) const {
  return sim_->config().merge_factor * sim_->AccessCost(level);
}

double SimOperation::SearchCostAt(NodeId node) {
  return sim_->NodeAccessCost(node);
}

double SimOperation::ModifyCostAt(NodeId node) {
  return sim_->config().modify_factor * sim_->NodeAccessCost(node);
}

double SimOperation::SplitCostAt(NodeId node) {
  return sim_->config().split_factor * sim_->NodeAccessCost(node);
}

double SimOperation::MergeCostAt(NodeId node) {
  return sim_->config().merge_factor * sim_->NodeAccessCost(node);
}

SimOperation::LockRequest SimOperation::RequestLock(NodeId node,
                                                   LockMode mode) {
  LockRequest request{node, mode, tree().node(node).level, sim_->now(),
                      false};
  sim_->Trace(obs::TraceEventKind::kLockRequest, id_, LockModeName(mode),
              request.level, static_cast<int64_t>(node));
  request.granted = sim_->locks().TryAcquire(node, mode, id_);
  if (request.granted) OnLockGranted(request, 0.0);
  return request;
}

void SimOperation::QueueLock(const LockRequest& request,
                             std::function<void()> next) {
  sim_->locks().Enqueue(
      request.node, request.mode, id_,
      [this, request, next = std::move(next)]() {
        OnLockGranted(request, sim_->now() - request.requested_at);
        next();
      });
}

void SimOperation::OnLockGranted(const LockRequest& request, double wait) {
  held_locks_.push_back(HeldLock{request.node, request.mode});
  sim_->Trace(obs::TraceEventKind::kLockAcquire, id_,
              LockModeName(request.mode), request.level,
              static_cast<int64_t>(request.node), wait);
  sim_->RecordLockWait(request.level, request.mode, wait);
}

void SimOperation::ReleaseLock(NodeId node) {
  auto it = std::find_if(held_locks_.begin(), held_locks_.end(),
                         [node](const HeldLock& l) { return l.node == node; });
  CBTREE_CHECK(it != held_locks_.end())
      << "operation " << id_ << " releasing unheld node " << node;
  LockMode mode = it->mode;
  held_locks_.erase(it);
  sim_->Trace(obs::TraceEventKind::kLockRelease, id_, LockModeName(mode),
              tree().node(node).level, static_cast<int64_t>(node));
  sim_->locks().Release(node, id_);
}

void SimOperation::ReleaseAllExcept(NodeId keep) {
  // In acquisition order. ReleaseLock erases the entry at `i`; the grants it
  // cascades run other operations, which never touch this one's locks.
  size_t i = 0;
  while (i < held_locks_.size()) {
    if (held_locks_[i].node == keep) {
      ++i;
    } else {
      ReleaseLock(held_locks_[i].node);
    }
  }
}

void SimOperation::DoWork(double mean_cost, std::function<void()> next) {
  double duration = SampleExponential(sim_->service_rng(), mean_cost);
  sim_->events().ScheduleAfter(duration, std::move(next));
}

void SimOperation::MarkModified(NodeId node) {
  if (std::find(modified_.begin(), modified_.end(), node) == modified_.end()) {
    modified_.push_back(node);
  }
}

void SimOperation::Finish() {
  // Apply the recovery policy: W locks on retained nodes stay held until the
  // surrounding transaction commits (the simulator releases them after an
  // exponential T_trans).
  const RecoveryConfig& recovery = sim_->config().recovery;
  std::vector<NodeId> retained;
  if (recovery.policy != RecoveryPolicy::kNone &&
      op_.type != OpType::kSearch) {
    for (const HeldLock& lock : held_locks_) {
      if (lock.mode != LockMode::kWrite) continue;
      if (std::find(modified_.begin(), modified_.end(), lock.node) ==
          modified_.end()) {
        continue;
      }
      bool is_leaf = tree().node(lock.node).is_leaf();
      if (recovery.policy == RecoveryPolicy::kNaive || is_leaf) {
        retained.push_back(lock.node);
      }
    }
    // Retained locks are handed over to the simulator (the commit event owns
    // them from here on).
    held_locks_.erase(
        std::remove_if(held_locks_.begin(), held_locks_.end(),
                       [&retained](const HeldLock& l) {
                         return std::find(retained.begin(), retained.end(),
                                          l.node) != retained.end();
                       }),
        held_locks_.end());
  }
  ReleaseAllExcept();
  sim_->OperationFinished(this, std::move(retained));
}

bool SimOperation::Holds(NodeId node) const {
  return std::any_of(held_locks_.begin(), held_locks_.end(),
                     [node](const HeldLock& l) { return l.node == node; });
}

}  // namespace cbtree
