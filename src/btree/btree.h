// Sequential B+-tree with right links, exposing both whole operations
// (Insert/Delete/Search) and the fine-grained structural primitives the
// discrete-event simulator needs to interleave restructuring with simulated
// lock acquisition.
//
// Two merge policies are supported (paper §3.2): merge-at-empty (a node is
// removed only when it becomes empty — the policy every algorithm in the
// paper uses) and merge-at-half (classic Bayer/McCreight rebalance below
// 50%), the latter for the merge-policy ablation.

#ifndef CBTREE_BTREE_BTREE_H_
#define CBTREE_BTREE_BTREE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "btree/node.h"
#include "btree/node_store.h"

namespace cbtree {

enum class MergePolicy {
  kAtEmpty,  ///< remove a node only when it holds zero entries
  kAtHalf,   ///< rebalance (borrow/merge) when below ceil(N/2) entries
};

/// Restructuring counters, indexed by level (index 0 unused; leaves are
/// level 1, matching the paper).
struct RestructureStats {
  std::vector<uint64_t> splits;
  std::vector<uint64_t> merges;
  std::vector<uint64_t> borrows;
  uint64_t root_splits = 0;  ///< height increases
  uint64_t root_collapses = 0;

  void RecordSplit(int level);
  void RecordMerge(int level);
  void RecordBorrow(int level);
  uint64_t TotalSplits() const;
  uint64_t TotalMerges() const;
};

class BTree {
 public:
  struct Options {
    /// N: maximum number of entries per node (keys in a leaf, children in an
    /// internal node). The paper's default configuration uses 13.
    int max_node_size = 13;
    MergePolicy merge_policy = MergePolicy::kAtEmpty;
  };

  explicit BTree(Options options);

  /// Builds a tree bottom-up from sorted, duplicate-free (key, value) pairs
  /// at the given fill fraction (default: the ln 2 steady-state utilization
  /// of random inserts, so bulk-loaded trees match the structure model).
  /// O(n); every level is packed left-to-right with correct right links and
  /// high keys.
  static BTree BulkLoad(Options options,
                        const std::vector<std::pair<Key, Value>>& entries,
                        double fill = 0.69);

  // Whole-operation sequential interface ------------------------------------

  /// Inserts or overwrites; returns true iff the key was newly inserted.
  bool Insert(Key key, Value value);
  /// Removes; returns true iff the key was present.
  bool Delete(Key key);
  /// Point lookup.
  std::optional<Value> Search(Key key) const;
  /// Range scan [lo, hi] through leaf right-links; appends (key, value)
  /// pairs, at most `limit` of them. Returns the number appended.
  size_t Scan(Key lo, Key hi, size_t limit,
              std::vector<std::pair<Key, Value>>* out) const;

  // Observers ----------------------------------------------------------------

  size_t size() const { return size_; }
  int height() const { return height_; }
  NodeId root() const { return root_; }
  const Node& node(NodeId id) const { return store_.Get(id); }
  bool IsLive(NodeId id) const { return store_.IsLive(id); }
  const Options& options() const { return options_; }
  const NodeStore& store() const { return store_; }
  const RestructureStats& restructure_stats() const { return stats_; }
  void ResetRestructureStats();

  // Fine-grained primitives (used by the simulator & concurrency layers) ----

  /// True iff inserting into the node would overflow it (paper: the node is
  /// "insert-unsafe"/full).
  bool IsFull(NodeId id) const;
  /// True iff removing one entry would empty the node under merge-at-empty
  /// (paper: "delete-unsafe"/about to become empty).
  bool IsDeleteUnsafe(NodeId id) const;

  /// Child to descend into. Requires an internal node and key <= last bound
  /// (link-type callers must check high_key and follow right links first).
  NodeId Child(NodeId id, Key key) const;

  /// Index of `child` among the node's children, or -1 if absent (the parent
  /// may have split since it was remembered; follow its right link).
  int FindChildIndex(NodeId id, NodeId child) const;

  /// Inserts into a leaf without splitting; the leaf may temporarily exceed
  /// max_node_size by one entry (callers split afterwards). Returns true iff
  /// newly inserted (false = overwrite).
  bool LeafInsert(NodeId leaf, Key key, Value value);

  /// Removes a key from a leaf; returns true iff it was present.
  bool LeafDelete(NodeId leaf, Key key);

  struct SplitResult {
    NodeId right;
    Key separator;  ///< new high key of the left node
  };

  /// Half-splits a (non-root) node: the upper half of the entries moves to a
  /// fresh right sibling, links and high keys are fixed. Returns the new
  /// sibling and the separator.
  SplitResult Split(NodeId id);

  /// Splits the root in place: its entries move into two fresh children and
  /// the root becomes an internal node one level higher. The root's NodeId
  /// never changes, so descents need no root-pointer synchronization.
  void SplitRootInPlace();

  /// Completes a child split at the parent: the entry whose range contains
  /// `separator` is cut at it and a new entry for `right` (covering
  /// (separator, old bound]) is inserted after it. The parent may overflow by
  /// one entry; callers split it afterwards. This formulation is insensitive
  /// to the order delayed Link-type parent updates arrive in. Requires
  /// separator <= parent.high_key (else follow the parent's right link).
  void InsertSplitEntry(NodeId parent, Key separator, NodeId right);

  /// Removes (and frees) an empty child from its parent, patching the entry
  /// bounds: when the removed entry was the parent's last, the parent's new
  /// last bound is promoted to the removed bound and the promotion is pushed
  /// down the rightmost spine so internal bounds stay navigable. Sibling
  /// right-links are fixed when the predecessor lives in the same parent
  /// (sufficient for the lock-coupling algorithms, which never use links).
  /// If the parent is the root and loses its only child, the tree collapses
  /// to an empty leaf root.
  void RemoveChild(NodeId parent, NodeId child);

  /// Height bump used only by tests that need a specific shape.
  NodeStore& mutable_store() { return store_; }

 private:
  /// Merge-at-half rebalance of children[idx] of `parent` (borrow from a
  /// sibling under the same parent, else merge with one). Returns true if
  /// `parent` lost an entry (merge happened) and may itself underflow.
  bool RebalanceAtHalf(NodeId parent, int idx);

  int MinEntries() const;  ///< merge-at-half threshold, ceil(N/2)

  void PromoteLastBound(NodeId id, Key bound);

  /// Descends to the leaf for `key`, leaving its ancestors in path_ (root
  /// first). Returns the leaf.
  NodeId DescendToLeaf(Key key);

  Options options_;
  NodeStore store_;
  NodeId root_;
  int height_ = 1;
  size_t size_ = 0;
  RestructureStats stats_;
  /// Scratch descent path reused by Insert and Delete.
  std::vector<NodeId> path_;
};

}  // namespace cbtree

#endif  // CBTREE_BTREE_BTREE_H_
