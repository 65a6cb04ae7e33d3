// Optimistic lock coupling over a B-link structure: the fifth protocol,
// and the first whose readers take no latches at all.
//
// Every node carries a version word instead of a reader/writer latch:
// bit 0 = write-locked, bit 1 = obsolete (unlinked and retired), upper bits
// a counter bumped on every unlock. Readers descend by snapshotting the
// version (spinning out a write lock held at entry; an obsolete node
// restarts), reading fields with relaxed atomic loads, and re-validating
// the version after the reads (and after chaining
// into a child, which proves the child pointer was still current). A
// mismatch restarts the whole operation from the root. Writers descend the
// same way, then CAS the leaf's version from its validated read stamp to
// locked — an upgrade that fails (and restarts) if anything changed —
// modify under the lock, and publish by bumping the version on unlock.
// Splits are Lehman & Yao half-splits exactly as in the latched B-link
// tree: separator posted one level up under that node's write lock, with
// move-right absorbing concurrent splits.
//
// Unlike every latched tree here, deletion is not fully lazy: a leaf that
// empties is unlinked from its parent and its left sibling (three write
// locks, try-locked to stay deadlock-free; on any conflict the unlink is
// abandoned and the leaf simply stays, lazily, as before). Unlinked nodes
// are marked obsolete — any reader that still holds a pointer fails its
// next version check — and handed to the epoch manager (base/epoch.h),
// which frees them once every operation that could have observed them has
// finished. Every operation runs inside an EpochGuard.
//
// Node fields are std::atomic with fixed, allocation-stable storage so the
// optimistic reads are data-race-free by construction (TSAN-clean): the
// version re-check makes torn multi-field snapshots harmless, and the
// atomics make each individual load well-defined.

#ifndef CBTREE_CTREE_OLC_TREE_H_
#define CBTREE_CTREE_OLC_TREE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "base/epoch.h"
#include "base/thread_annotations.h"
#include "ctree/ctree.h"

namespace cbtree {

struct OlcNode {
  static constexpr uint64_t kLockedBit = 1;
  static constexpr uint64_t kObsoleteBit = 2;
  static constexpr uint64_t kVersionStep = 4;

  OlcNode(int level_in, int capacity_in);

  std::atomic<uint64_t> version{kVersionStep};
  std::atomic<int> level;  ///< 1 = leaf; the root's level grows in place
  const int capacity;      ///< max_node_size + 1 (one-entry overflow slack)
  std::atomic<int> count{0};
  /// Fixed arrays of `capacity` atomics; the storage never moves, so a
  /// reader racing a writer reads stale or in-flight values (caught by the
  /// version check), never freed memory. Every node carries all three
  /// arrays because the root morphs between leaf and internal in place.
  std::unique_ptr<std::atomic<Key>[]> keys;
  std::unique_ptr<std::atomic<OlcNode*>[]> children;
  std::unique_ptr<std::atomic<Value>[]> values;
  std::atomic<OlcNode*> right{nullptr};
  std::atomic<Key> high_key{kInfKey};
};

class OlcTree : public ConcurrentBTree {
 public:
  explicit OlcTree(int max_node_size);
  ~OlcTree() override;

  bool Insert(Key key, Value value) override;
  bool Delete(Key key) override;
  std::optional<Value> Search(Key key) const override;
  std::string name() const override { return "olc-blink"; }

  /// Version-validated leaf walk (readers take no latches; each leaf is
  /// snapshotted and validated independently, re-descending by cursor key).
  size_t Scan(Key lo, Key hi, size_t limit,
              std::vector<std::pair<Key, Value>>* out) const override;

  void CheckInvariants() const override;
  size_t CountKeys() const override;

  /// Reclamation counters for this tree's epoch manager.
  EpochStats epoch_stats() const { return epoch_.stats(); }
  /// Leaves unlinked (and retired) by empty-leaf reclamation.
  uint64_t unlinks() const { return unlinks_.load(std::memory_order_relaxed); }

  /// Test hook: called once per node visited by a reader descent, after the
  /// node's version stamp is taken and before it is validated. Lets a test
  /// bump versions mid-descent deterministically to force restarts.
  using DescendHook = void (*)(void* arg, OlcNode* node);
  void SetDescendHookForTest(DescendHook hook, void* arg);

  /// Test-only: bump a node's version as an invisible writer would,
  /// invalidating every in-flight optimistic read of it. The caller must
  /// guarantee no concurrent real writer holds the node's lock.
  static void BumpVersionForTest(OlcNode* node) CBTREE_EPOCH_QUIESCENT;

 private:
  // Version-lock primitives (latch_check reports exclusive mode). Member
  // primitives carry CBTREE_REQUIRES_SHARED(epoch_) — every caller must be
  // inside the EpochGuard its entry point took, and -Wthread-safety proves
  // it; the static ones cannot name epoch_ and use the tidy-checked
  // CBTREE_REQUIRES_EPOCH marker instead.
  static bool ReadLockOrRestart(const OlcNode* node,
                                uint64_t* version) CBTREE_REQUIRES_EPOCH;
  static bool Validate(const OlcNode* node,
                       uint64_t version) CBTREE_REQUIRES_EPOCH;
  void LockNode(OlcNode* node) const CBTREE_REQUIRES_SHARED(epoch_);
  bool TryLockNode(OlcNode* node) const CBTREE_REQUIRES_SHARED(epoch_);
  bool UpgradeLockOrRestart(OlcNode* node, uint64_t version) const
      CBTREE_REQUIRES_SHARED(epoch_);
  void UnlockNode(OlcNode* node) const CBTREE_REQUIRES_SHARED(epoch_);
  void UnlockObsolete(OlcNode* node) const CBTREE_REQUIRES_SHARED(epoch_);

  void RecordRestart() const;
  void MaybeDescendHook(OlcNode* node) const CBTREE_REQUIRES_SHARED(epoch_);

  /// One optimistic search attempt; false = restart.
  bool SearchAttempt(Key key, bool* found, Value* value) const
      CBTREE_REQUIRES_SHARED(epoch_);
  /// One optimistic snapshot of the leaf covering `cursor`; false = restart.
  bool ScanLeafAttempt(Key cursor, Key hi,
                       std::vector<std::pair<Key, Value>>* entries,
                       Key* leaf_high) const CBTREE_REQUIRES_SHARED(epoch_);
  /// One insert/delete attempt: optimistic descent, leaf lock upgrade,
  /// mutation, split chain. Returns -1 = restart, 0 = no-op, 1 = mutated.
  int InsertAttempt(Key key, Value value, std::vector<OlcNode*>* anchors)
      CBTREE_REQUIRES_SHARED(epoch_);
  int DeleteAttempt(Key key, OlcNode** emptied)
      CBTREE_REQUIRES_SHARED(epoch_);

  /// Write-locks the level-`target_level` node covering `separator`,
  /// starting from the remembered descent anchor (move-right and in-place
  /// root growth handled as in the latched B-link tree).
  OlcNode* LockTargetForSeparator(int target_level, Key separator,
                                  const std::vector<OlcNode*>& anchors)
      CBTREE_REQUIRES_SHARED(epoch_);

  /// Best-effort unlink of an emptied leaf: write-lock parent, left
  /// sibling, victim (try-locks below the parent; any conflict abandons),
  /// splice it out, mark obsolete, retire to the epoch manager.
  void TryUnlinkLeaf(OlcNode* victim) CBTREE_REQUIRES_SHARED(epoch_);
  /// Write-locks the level-2 node covering `key`; nullptr = abandon.
  OlcNode* LockParentFor(Key key) CBTREE_REQUIRES_SHARED(epoch_);

  /// Builds a node nobody else can reach yet, so it needs no guard.
  OlcNode* AllocateNode(int level) const CBTREE_EPOCH_QUIESCENT;
  void CheckOlcSubtree(const OlcNode* node, Key bound, int expected_level,
                       size_t* keys) const CBTREE_EPOCH_QUIESCENT;

  OlcNode* const olc_root_;
  mutable EpochManager epoch_;
  mutable std::atomic<uint64_t> unlinks_{0};
  std::atomic<DescendHook> hook_{nullptr};
  std::atomic<void*> hook_arg_{nullptr};
};

}  // namespace cbtree

#endif  // CBTREE_CTREE_OLC_TREE_H_
