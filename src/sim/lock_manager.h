// FCFS reader/writer lock queues, one per B-tree node — the paper's queueing
// model made executable (§3.2 "Lock types"): R locks are shared, W locks are
// exclusive, grants are strictly First-Come-First-Served (a reader never
// overtakes a queued writer).
//
// A request is first offered to TryAcquire, which grants it on the spot when
// FCFS allows; only a refused request is queued, with a callback that runs
// when the lock is granted. Per-node state lives in a table indexed by
// NodeId, so the per-request path does no hashing. The manager also
// time-integrates the writer-presence indicator of one tracked node (the
// root), which is the simulated counterpart of the model's rho_w(h).

#ifndef CBTREE_SIM_LOCK_MANAGER_H_
#define CBTREE_SIM_LOCK_MANAGER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "btree/node.h"
#include "stats/accumulator.h"
#include "util/check.h"

namespace cbtree {

enum class LockMode { kRead, kWrite };

const char* LockModeName(LockMode mode);

/// Opaque id of the requesting simulated operation.
using OpId = uint64_t;

class LockManager {
 public:
  using GrantCallback = std::function<void()>;

  /// `now_fn` supplies the simulation clock for wait accounting.
  explicit LockManager(std::function<double()> now_fn)
      : now_fn_(std::move(now_fn)) {}

  /// Grants the lock now iff FCFS allows it: nothing is queued on the node
  /// and the mode is compatible with the holders. Returns false, changing
  /// nothing, otherwise. The same operation must not hold or await another
  /// lock on the same node.
  bool TryAcquire(NodeId node, LockMode mode, OpId op);

  /// Queues a request that TryAcquire refused; `on_grant` runs when the
  /// lock is granted.
  void Enqueue(NodeId node, LockMode mode, OpId op, GrantCallback on_grant);

  /// TryAcquire, else Enqueue: `on_grant` runs synchronously if the lock is
  /// granted at once.
  void Request(NodeId node, LockMode mode, OpId op, GrantCallback on_grant) {
    if (TryAcquire(node, mode, op)) {
      on_grant();
    } else {
      Enqueue(node, mode, op, std::move(on_grant));
    }
  }

  /// Releases a held lock, cascading FCFS grants.
  void Release(NodeId node, OpId op);

  /// True iff `op` currently holds a lock on `node`.
  bool Holds(NodeId node, OpId op) const;

  /// Declares the node removed from the tree. Checked: no lock may be held
  /// or queued (the lock-coupling protocols guarantee this; see DESIGN.md).
  void NotifyNodeFreed(NodeId node);

  /// Tracks writer presence (held or queued W lock) on this node; the time
  /// average is the simulated rho_w of its queue.
  void TrackWriterPresence(NodeId node);
  double TrackedWriterPresence() const;

  /// Total locks currently held (diagnostics).
  size_t total_held() const { return total_held_; }

 private:
  struct Waiter {
    LockMode mode;
    OpId op;
    GrantCallback on_grant;
  };

  struct NodeLocks {
    int active_readers = 0;
    bool writer_active = false;
    OpId writer_op = 0;
    int writers_present = 0;  ///< active + queued W locks
    /// FCFS queue: waiting[head..] are queued, earlier entries are spent.
    std::vector<Waiter> waiting;
    size_t head = 0;
    /// Reader ownership (op, count) for Holds/Release checks.
    std::vector<std::pair<OpId, int>> reader_ops;

    bool queue_empty() const { return head == waiting.size(); }
    /// True iff a request in `mode` may be granted ahead of the queue.
    bool Compatible(LockMode mode) const {
      return !writer_active && (mode == LockMode::kRead || active_readers == 0);
    }
  };

  /// The node's entry, growing the table to cover `node`.
  NodeLocks& At(NodeId node) {
    if (node >= nodes_.size()) nodes_.resize(static_cast<size_t>(node) + 1);
    return nodes_[node];
  }
  /// The node's entry, or nullptr if no request ever reached it.
  const NodeLocks* Find(NodeId node) const {
    return node < nodes_.size() ? &nodes_[node] : nullptr;
  }

  /// Records a granted lock in the node's holder state.
  void Grant(NodeLocks& locks, LockMode mode, OpId op);

  /// Grants whatever the FCFS head allows (a writer, or a maximal run of
  /// readers), then runs the granted callbacks once the state is consistent.
  void Dispatch(NodeId node);

  /// The manager is deliberately unsynchronized: it models lock queues
  /// inside the single-threaded discrete-event simulator. This debug check
  /// pins every mutating call to the first calling thread so accidental
  /// sharing across simulator threads fails fast instead of corrupting
  /// queues silently.
  void CheckSameThread() const {
#ifndef NDEBUG
    if (owner_ == std::thread::id{}) owner_ = std::this_thread::get_id();
    CBTREE_DCHECK(owner_ == std::this_thread::get_id())
        << "LockManager used from more than one thread; it is simulator "
           "state, not a concurrency primitive";
#endif
  }

  void UpdateTrackedPresence(NodeId node, const NodeLocks& locks);

  std::function<double()> now_fn_;
  std::vector<NodeLocks> nodes_;  ///< indexed by NodeId
  /// Callbacks granted by the Dispatch calls in progress, innermost last.
  std::vector<GrantCallback> granted_;
  size_t total_held_ = 0;

  NodeId tracked_node_ = kInvalidNode;
  TimeWeightedAccumulator tracked_presence_;
#ifndef NDEBUG
  mutable std::thread::id owner_;  ///< set on first use; see CheckSameThread
#endif
};

}  // namespace cbtree

#endif  // CBTREE_SIM_LOCK_MANAGER_H_
