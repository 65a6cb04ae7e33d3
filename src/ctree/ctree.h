// Multi-threaded concurrent B-trees implementing the paper's three
// protocols with real std::shared_mutex latches. These are the "use it in a
// program" counterpart of the discrete-event simulator: same algorithms,
// genuine parallel execution.
//
// All three trees grow the root in place (the root pointer is immutable) and
// use lazy deletion (emptied leaves stay in place), so node memory is stable
// for the tree's lifetime — see ctree/cnode.h.

#ifndef CBTREE_CTREE_CTREE_H_
#define CBTREE_CTREE_CTREE_H_

#include <atomic>
#include <memory>
#include <optional>
#include <vector>
#include <string>

#include "base/thread_annotations.h"
#include "btree/node.h"
#include "core/analyzer.h"
#include "core/optimistic_model.h"
#include "ctree/cnode.h"
#include "ctree/latch_check.h"
#include "obs/registry.h"

namespace cbtree {

/// Durability hook a tree mutates through when a write-ahead log is bound
/// (see BindWal). The tree calls Log* while the leaf latch / version lock is
/// still held, so LSN order equals the per-key serialization order and redo
/// replay is deterministic; WaitDurable blocks until the group-commit
/// watermark covers `lsn`. Implemented by the server's adapter over
/// wal::ShardLog — the tree layer stays ignorant of files and fsync.
class WalBinding {
 public:
  virtual ~WalBinding() = default;
  /// Logs an upsert (both insert-new and overwrite) and returns its LSN.
  virtual uint64_t LogInsert(Key key, Value value) = 0;
  /// Logs a removal and returns its LSN. Callers only log deletes that
  /// actually removed a key.
  virtual uint64_t LogDelete(Key key) = 0;
  virtual void WaitDurable(uint64_t lsn) = 0;
};

/// Latch levels tracked per tree; deeper levels fold into the top slot.
inline constexpr int kMaxLatchLevels = 24;

static_assert(kMaxLatchLevels == latch_check::kMaxPathLatches,
              "telemetry levels and the validator's coupled-chain cap must "
              "describe the same maximum tree height");

/// One latch mode (shared or exclusive) at one level: how many
/// acquisitions, how many had to block, and the blocked waits' timer.
struct LatchWaitStats {
  uint64_t acquisitions = 0;
  uint64_t contended = 0;
  obs::TimerSnapshot wait;  ///< contended acquisitions only
};

/// Real-thread latch telemetry for one tree level (1 = leaf), the measured
/// counterpart of the model's per-level R(i)/W(i) waits.
struct LatchLevelStats {
  int level = 0;
  LatchWaitStats shared;
  LatchWaitStats exclusive;
};

/// Counters exposed by every concurrent tree (monotone, approximate under
/// concurrency).
struct CTreeStats {
  uint64_t splits = 0;
  uint64_t root_splits = 0;
  uint64_t restarts = 0;        ///< Optimistic Descent second passes
  uint64_t link_crossings = 0;  ///< B-link right-link follows
  /// Levels with at least one recorded latch acquisition, ascending.
  /// Empty for OLC, which takes no node latches, and when the build
  /// disables observability (CBTREE_OBS=OFF).
  std::vector<LatchLevelStats> latch_levels;
};

class ConcurrentBTree {
 public:
  explicit ConcurrentBTree(int max_node_size);
  virtual ~ConcurrentBTree() = default;

  ConcurrentBTree(const ConcurrentBTree&) = delete;
  ConcurrentBTree& operator=(const ConcurrentBTree&) = delete;

  /// Inserts or overwrites; true iff the key is new. Thread-safe.
  virtual bool Insert(Key key, Value value) = 0;
  /// Removes; true iff present. Thread-safe.
  virtual bool Delete(Key key) = 0;
  /// Point lookup. Thread-safe.
  virtual std::optional<Value> Search(Key key) const = 0;
  virtual std::string name() const = 0;

  /// Range scan of [lo, hi]: appends up to `limit` (key, value) pairs in
  /// key order. Thread-safe for every protocol: the latched trees crab
  /// shared latches down and along right links (nodes are never physically
  /// removed, so the chain is stable); the OLC tree overrides this with a
  /// version-validated walk. Keys inserted before the scan starts and not
  /// deleted are guaranteed to appear.
  virtual size_t Scan(Key lo, Key hi, size_t limit,
                      std::vector<std::pair<Key, Value>>* out) const;

  /// Number of keys (exact when quiescent).
  size_t size() const { return size_.load(std::memory_order_relaxed); }
  int max_node_size() const { return max_node_size_; }
  CTreeStats stats() const;

  /// The tree's metrics registry (latch telemetry lives here; callers may
  /// Read() it directly for machine-readable export).
  const obs::Registry& metrics() const { return obs_; }

  /// Quiescent structural check (no concurrent mutators): key order, bounds,
  /// level uniformity, link chains. Aborts on violation.
  virtual void CheckInvariants() const;
  /// Quiescent count of reachable keys (must equal size()).
  virtual size_t CountKeys() const;

  /// Attaches a write-ahead log to the write path (null detaches). Every
  /// subsequent Insert logs an upsert and every key-removing Delete logs a
  /// removal, while the leaf is still write-latched. `retention` selects the
  /// paper's §7 lock-retention policy, with commit = group-commit
  /// durability of the operation's own LSN:
  ///   kNone     release latches immediately; the caller (the server, before
  ///             acknowledging) waits out durability off the latch path.
  ///   kLeafOnly retain the leaf W latch until the LSN is durable, releasing
  ///             ancestors first (Shasha's leaf-only retention).
  ///   kNaive    retain every still-held W latch until the LSN is durable.
  /// For protocols that hold at most the leaf at operation end (Optimistic
  /// Descent's fast path, B-link, OLC) kLeafOnly and kNaive coincide; the
  /// coupled paths (Naive lock coupling, Two-phase, Optimistic's restart
  /// pass) retain the whole latched chain under kNaive.
  /// Call quiescent (no concurrent mutators), before serving writes.
  void BindWal(WalBinding* wal, RecoveryPolicy retention) {
    wal_ = wal;
    wal_retention_ = retention;
  }
  WalBinding* wal_binding() const { return wal_; }
  RecoveryPolicy wal_retention() const { return wal_retention_; }

 protected:
  CNode* root() const { return root_; }
  CNodeArena* arena() { return &arena_; }
  /// Mutable registry access for subclasses that register their own
  /// instruments (the OLC tree's restart/epoch counters).
  obs::Registry& registry() { return obs_; }
  void AdjustSize(int64_t delta) {
    size_.fetch_add(delta, std::memory_order_relaxed);
  }

  /// Latch acquisition with contention telemetry: an uncontended acquire
  /// (try_lock succeeds) costs one counter bump and no clock read; a
  /// contended one blocks on the plain lock and records the wait against
  /// the node's level. With CBTREE_OBS=OFF these are the bare lock calls.
  /// The level is read only after the latch is held (the root's level
  /// mutates in place under its exclusive latch during a root split).
  ///
  /// Every protocol must pair these with the matching Unlatch* below (never
  /// with direct latch calls): both ends report into the latch-protocol
  /// validator (ctree/latch_check.h), which enforces the per-discipline
  /// rules the ScopedOp in each operation declares.
  void LatchShared(const CNode* node) const
      CBTREE_ACQUIRE_SHARED(node->latch);
  void LatchExclusive(CNode* node) const CBTREE_ACQUIRE(node->latch);
  void UnlatchShared(const CNode* node) const
      CBTREE_RELEASE_SHARED(node->latch);
  void UnlatchExclusive(CNode* node) const CBTREE_RELEASE(node->latch);

  /// WAL helpers for the protocol write paths. All are no-ops (returning
  /// LSN 0) when no log is bound, so the hot paths cost one predictable
  /// branch in the common unlogged configuration.
  uint64_t WalLogInsert(Key key, Value value) const {
    return wal_ != nullptr ? wal_->LogInsert(key, value) : 0;
  }
  uint64_t WalLogDelete(Key key) const {
    return wal_ != nullptr ? wal_->LogDelete(key) : 0;
  }
  void WalWaitDurable(uint64_t lsn) const {
    if (lsn != 0 && wal_ != nullptr) wal_->WaitDurable(lsn);
  }
  /// True iff the leaf W latch must be held across the durability wait.
  bool WalRetainLeaf() const {
    return wal_ != nullptr && wal_retention_ != RecoveryPolicy::kNone;
  }
  /// True iff every still-held W latch must be held across the wait.
  bool WalRetainAll() const {
    return wal_ != nullptr && wal_retention_ == RecoveryPolicy::kNaive;
  }

  bool IsFull(const CNode& node) const {
    return static_cast<int>(node.size()) >= max_node_size_;
  }
  bool IsDeleteUnsafe(const CNode& node) const { return node.size() <= 1; }
  bool Overflowed(const CNode& node) const {
    return static_cast<int>(node.size()) > max_node_size_;
  }

  // Mutable: const traversals (Search) still count crossings.
  mutable std::atomic<uint64_t> splits_{0};
  mutable std::atomic<uint64_t> root_splits_{0};
  mutable std::atomic<uint64_t> restarts_{0};
  mutable std::atomic<uint64_t> link_crossings_{0};

 private:
  void CheckSubtree(const CNode* node, Key bound, int expected_level,
                    size_t* keys) const;
  void RecordLatch(bool write, int level, uint64_t wait_ns,
                   bool contended) const;

  int max_node_size_;
  CNodeArena arena_;
  CNode* root_;
  std::atomic<int64_t> size_{0};

  /// Per-mode, per-level latch instruments ([0] = shared, [1] = exclusive;
  /// level index 0 unused). Handles are registered once in the constructor
  /// and are safe to record through from any thread.
  struct LatchInstruments {
    obs::Counter acquisitions;
    obs::Counter contended;
    obs::Timer wait;
  };
  obs::Registry obs_;
  LatchInstruments latch_[2][kMaxLatchLevels + 1];

  WalBinding* wal_ = nullptr;
  RecoveryPolicy wal_retention_ = RecoveryPolicy::kNone;
};

/// Factory over the three protocols.
std::unique_ptr<ConcurrentBTree> MakeConcurrentBTree(Algorithm algorithm,
                                                     int max_node_size);

}  // namespace cbtree

#endif  // CBTREE_CTREE_CTREE_H_
