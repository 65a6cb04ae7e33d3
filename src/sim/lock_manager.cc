#include "sim/lock_manager.h"

#include <algorithm>

#include "util/check.h"

namespace cbtree {
namespace {

// The op's (op, count) entry among a node's readers, or `readers.end()`.
template <typename Readers>
auto FindReader(Readers& readers, OpId op) {
  return std::find_if(readers.begin(), readers.end(),
                      [op](const auto& entry) { return entry.first == op; });
}

}  // namespace

const char* LockModeName(LockMode mode) {
  return mode == LockMode::kRead ? "R" : "W";
}

bool LockManager::TryAcquire(NodeId node, LockMode mode, OpId op) {
  CheckSameThread();
  CBTREE_CHECK(!Holds(node, op)) << "op " << op << " re-locks node " << node;
  NodeLocks& locks = At(node);
  // FCFS: grant immediately only when nothing is queued ahead.
  if (!locks.queue_empty() || !locks.Compatible(mode)) return false;
  Grant(locks, mode, op);
  if (mode == LockMode::kWrite) {
    ++locks.writers_present;
    UpdateTrackedPresence(node, locks);
  }
  return true;
}

void LockManager::Enqueue(NodeId node, LockMode mode, OpId op,
                          GrantCallback on_grant) {
  CheckSameThread();
  CBTREE_CHECK(on_grant != nullptr);
  NodeLocks& locks = At(node);
  CBTREE_DCHECK(!locks.queue_empty() || !locks.Compatible(mode))
      << "op " << op << " queues a grantable request on node " << node;
  if (mode == LockMode::kWrite) {
    ++locks.writers_present;
    UpdateTrackedPresence(node, locks);
  }
  // Drop the spent prefix once it is at least half the queue, so the queue
  // reuses its storage and compaction stays amortized O(1).
  if (locks.head > 0 && 2 * locks.head >= locks.waiting.size()) {
    locks.waiting.erase(locks.waiting.begin(),
                        locks.waiting.begin() + locks.head);
    locks.head = 0;
  }
  locks.waiting.push_back(Waiter{mode, op, std::move(on_grant)});
}

void LockManager::Grant(NodeLocks& locks, LockMode mode, OpId op) {
  if (mode == LockMode::kWrite) {
    locks.writer_active = true;
    locks.writer_op = op;
  } else {
    ++locks.active_readers;
    auto it = FindReader(locks.reader_ops, op);
    if (it != locks.reader_ops.end()) {
      ++it->second;
    } else {
      locks.reader_ops.emplace_back(op, 1);
    }
  }
  ++total_held_;
}

void LockManager::Release(NodeId node, OpId op) {
  CheckSameThread();
  CBTREE_CHECK_LT(node, nodes_.size()) << "release on unlocked node " << node;
  NodeLocks& locks = nodes_[node];
  if (locks.writer_active && locks.writer_op == op) {
    locks.writer_active = false;
    locks.writer_op = 0;
    --total_held_;
    --locks.writers_present;
    UpdateTrackedPresence(node, locks);
  } else {
    auto it = FindReader(locks.reader_ops, op);
    CBTREE_CHECK(it != locks.reader_ops.end())
        << "op " << op << " releases node " << node << " it does not hold";
    if (--it->second == 0) {
      *it = locks.reader_ops.back();
      locks.reader_ops.pop_back();
    }
    CBTREE_CHECK_GT(locks.active_readers, 0);
    --locks.active_readers;
    --total_held_;
  }
  Dispatch(node);
}

void LockManager::Dispatch(NodeId node) {
  NodeLocks& locks = nodes_[node];
  const size_t first = granted_.size();
  if (!locks.writer_active) {
    while (!locks.queue_empty()) {
      Waiter& head = locks.waiting[locks.head];
      if (head.mode == LockMode::kWrite) {
        if (locks.active_readers > 0) break;
        Grant(locks, LockMode::kWrite, head.op);
        granted_.push_back(std::move(head.on_grant));
        ++locks.head;
        break;  // a writer excludes everything behind it
      }
      // A maximal run of readers at the head is granted together; the next
      // queued writer (if any) keeps its FCFS position.
      Grant(locks, LockMode::kRead, head.op);
      granted_.push_back(std::move(head.on_grant));
      ++locks.head;
    }
  }
  UpdateTrackedPresence(node, locks);
  // The callbacks may re-enter TryAcquire/Enqueue/Release, which can grow
  // nodes_ (so `locks` is dead from here on) and run nested Dispatch calls.
  // Those stack their grants above `last` and pop them before returning;
  // each callback is moved out first because such a push may reallocate.
  const size_t last = granted_.size();
  for (size_t i = first; i < last; ++i) {
    GrantCallback on_grant = std::move(granted_[i]);
    on_grant();
  }
  granted_.resize(first);
}

bool LockManager::Holds(NodeId node, OpId op) const {
  const NodeLocks* locks = Find(node);
  if (locks == nullptr) return false;
  if (locks->writer_active && locks->writer_op == op) return true;
  return FindReader(locks->reader_ops, op) != locks->reader_ops.end();
}

void LockManager::NotifyNodeFreed(NodeId node) {
  CheckSameThread();
  const NodeLocks* locks = Find(node);
  if (locks == nullptr) return;
  CBTREE_CHECK(locks->active_readers == 0 && !locks->writer_active &&
               locks->queue_empty())
      << "node " << node << " freed while locked or awaited";
}

void LockManager::TrackWriterPresence(NodeId node) {
  CheckSameThread();
  tracked_node_ = node;
  double now = now_fn_();
  tracked_presence_ = TimeWeightedAccumulator(now);
  if (const NodeLocks* locks = Find(node)) {
    tracked_presence_.Update(now, locks->writers_present > 0 ? 1.0 : 0.0);
  }
}

double LockManager::TrackedWriterPresence() const {
  return tracked_presence_.Average(now_fn_());
}

void LockManager::UpdateTrackedPresence(NodeId node, const NodeLocks& locks) {
  if (node != tracked_node_) return;
  tracked_presence_.Update(now_fn_(), locks.writers_present > 0 ? 1.0 : 0.0);
}

}  // namespace cbtree
