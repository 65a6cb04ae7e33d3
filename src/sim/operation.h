// Base class of simulated concurrent B-tree operations.
//
// An operation is an event-driven state machine: it requests locks (resumed
// by the lock manager when granted), performs exponentially-distributed
// "work" (resumed by the event queue), reads and mutates the real B-tree at
// event boundaries while holding the appropriate locks, and finally records
// its response time. Subclasses implement the three algorithms' protocols.

#ifndef CBTREE_SIM_OPERATION_H_
#define CBTREE_SIM_OPERATION_H_

#include <functional>
#include <utility>
#include <vector>

#include "btree/node.h"
#include "sim/lock_manager.h"
#include "workload/workload.h"

namespace cbtree {

class Simulator;

class SimOperation {
 public:
  SimOperation(Simulator* sim, OpId id, Operation op, double arrival_time);
  virtual ~SimOperation();

  SimOperation(const SimOperation&) = delete;
  SimOperation& operator=(const SimOperation&) = delete;

  /// Begins the protocol (called once, at the arrival event).
  virtual void Start() = 0;

  /// Tears the operation down without completing it (saturation shutdown):
  /// held locks are dropped without notifying the lock manager, which is
  /// discarded alongside.
  void AbandonForShutdown();

  OpId id() const { return id_; }
  OpType type() const { return op_.type; }
  double arrival_time() const { return arrival_time_; }

 protected:
  // -- services provided to the protocol implementations --------------------

  /// Requests a lock; `next` runs when granted (the wait is recorded against
  /// the node's level). An uncontended grant runs `next` inline with wait
  /// 0; only a queued request wraps it in a callback.
  template <typename Next>
  void AcquireLock(NodeId node, LockMode mode, Next&& next) {
    LockRequest request = RequestLock(node, mode);
    if (request.granted) {
      next();
    } else {
      QueueLock(request, std::function<void()>(std::forward<Next>(next)));
    }
  }
  void ReleaseLock(NodeId node);
  /// Releases every held lock except `keep` (kInvalidNode = release all).
  void ReleaseAllExcept(NodeId keep = kInvalidNode);

  /// Samples Exp(mean_cost) work and schedules `next` at its completion.
  void DoWork(double mean_cost, std::function<void()> next);

  /// Marks a node as modified by this operation (recovery retention).
  void MarkModified(NodeId node);

  /// Records the response time, applies the recovery policy to the held
  /// W locks, releases the rest, and retires the operation. No member may be
  /// touched afterwards.
  void Finish();

  Simulator* sim() { return sim_; }
  const Operation& op() const { return op_; }
  BTree& tree();
  /// Expected access costs by level, per the fixed in-memory-levels rule.
  double SearchCost(int level) const;
  double ModifyCost(int level) const;
  double SplitCost(int level) const;
  double MergeCost(int level) const;

  /// Per-node access costs honouring the LRU buffer pool when configured
  /// (each call counts as one buffer touch on a specific node).
  double SearchCostAt(NodeId node);
  double ModifyCostAt(NodeId node);
  double SplitCostAt(NodeId node);
  double MergeCostAt(NodeId node);

  struct HeldLock {
    NodeId node;
    LockMode mode;
  };
  const std::vector<HeldLock>& held_locks() const { return held_locks_; }
  bool Holds(NodeId node) const;

 private:
  struct LockRequest {
    NodeId node;
    LockMode mode;
    int level;
    double requested_at;
    bool granted;
  };
  /// Traces the request and takes the lock if it is free now.
  LockRequest RequestLock(NodeId node, LockMode mode);
  /// Queues a request RequestLock could not grant; `next` runs on grant.
  void QueueLock(const LockRequest& request, std::function<void()> next);
  /// Bookkeeping of a grant: held set, trace and wait statistics.
  void OnLockGranted(const LockRequest& request, double wait);

  Simulator* sim_;
  OpId id_;
  Operation op_;
  double arrival_time_;
  std::vector<HeldLock> held_locks_;
  std::vector<NodeId> modified_;  ///< distinct nodes, in marking order
};

}  // namespace cbtree

#endif  // CBTREE_SIM_OPERATION_H_
