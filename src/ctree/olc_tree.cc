#include "ctree/olc_tree.h"

#include <limits>
#include <thread>

#include "base/thread_annotations.h"

namespace cbtree {

namespace {

constexpr uint64_t kLockedBit = OlcNode::kLockedBit;
constexpr uint64_t kObsoleteBit = OlcNode::kObsoleteBit;
constexpr uint64_t kVersionStep = OlcNode::kVersionStep;

bool IsObsolete(uint64_t version) { return (version & kObsoleteBit) != 0; }

// Every free helper below dereferences OlcNode fields, so each carries
// CBTREE_REQUIRES_EPOCH: the caller must hold a live EpochGuard (they all
// run from the *Attempt/unlink paths, which do). The marker is what lets
// the cbtree-epoch-guard check verify the contract file-wide.

/// Optimistic child lookup (max-key layout): may observe torn state; the
/// caller must validate the node's version before trusting the result.
OlcNode* ChildForRelaxed(const OlcNode* node, Key key) CBTREE_REQUIRES_EPOCH {
  int count = node->count.load(std::memory_order_relaxed);
  if (count < 1 || count > node->capacity) return nullptr;
  for (int i = 0; i < count; ++i) {
    if (key <= node->keys[i].load(std::memory_order_relaxed)) {
      return node->children[i].load(std::memory_order_relaxed);
    }
  }
  return nullptr;
}

// The Locked helpers below require the node's version lock; plain relaxed
// accesses are safe because the version word serializes writers and the
// unlock's release store publishes every field to validating readers.

OlcNode* ChildForLocked(const OlcNode* node, Key key) CBTREE_REQUIRES_EPOCH {
  OlcNode* child = ChildForRelaxed(node, key);
  CBTREE_CHECK(child != nullptr) << "key above node bounds; move right first";
  return child;
}

bool LeafInsertLocked(OlcNode* leaf, Key key,
                      Value value) CBTREE_REQUIRES_EPOCH {
  int count = leaf->count.load(std::memory_order_relaxed);
  int pos = 0;
  while (pos < count && leaf->keys[pos].load(std::memory_order_relaxed) < key)
    ++pos;
  if (pos < count &&
      leaf->keys[pos].load(std::memory_order_relaxed) == key) {
    leaf->values[pos].store(value, std::memory_order_relaxed);
    return false;
  }
  CBTREE_CHECK_LT(count, leaf->capacity);
  for (int i = count; i > pos; --i) {
    leaf->keys[i].store(leaf->keys[i - 1].load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
    leaf->values[i].store(leaf->values[i - 1].load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
  }
  leaf->keys[pos].store(key, std::memory_order_relaxed);
  leaf->values[pos].store(value, std::memory_order_relaxed);
  leaf->count.store(count + 1, std::memory_order_relaxed);
  return true;
}

bool LeafDeleteLocked(OlcNode* leaf, Key key) CBTREE_REQUIRES_EPOCH {
  int count = leaf->count.load(std::memory_order_relaxed);
  int pos = 0;
  while (pos < count && leaf->keys[pos].load(std::memory_order_relaxed) < key)
    ++pos;
  if (pos >= count ||
      leaf->keys[pos].load(std::memory_order_relaxed) != key) {
    return false;
  }
  for (int i = pos; i + 1 < count; ++i) {
    leaf->keys[i].store(leaf->keys[i + 1].load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
    leaf->values[i].store(leaf->values[i + 1].load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
  }
  leaf->count.store(count - 1, std::memory_order_relaxed);
  return true;
}

/// Half-split under `node`'s lock: upper half moves to a fresh (private)
/// right sibling; same key/link arithmetic as cnode::HalfSplit.
OlcNode* HalfSplitLocked(OlcNode* node, OlcNode* sibling,
                         Key* separator) CBTREE_REQUIRES_EPOCH {
  int count = node->count.load(std::memory_order_relaxed);
  CBTREE_CHECK_GE(count, 2);
  int keep = (count + 1) / 2;
  bool leaf = node->level.load(std::memory_order_relaxed) == 1;
  for (int i = keep; i < count; ++i) {
    sibling->keys[i - keep].store(
        node->keys[i].load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    if (leaf) {
      sibling->values[i - keep].store(
          node->values[i].load(std::memory_order_relaxed),
          std::memory_order_relaxed);
    } else {
      sibling->children[i - keep].store(
          node->children[i].load(std::memory_order_relaxed),
          std::memory_order_relaxed);
    }
  }
  sibling->count.store(count - keep, std::memory_order_relaxed);
  sibling->right.store(node->right.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
  sibling->high_key.store(node->high_key.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
  *separator = node->keys[keep - 1].load(std::memory_order_relaxed);
  node->count.store(keep, std::memory_order_relaxed);
  node->right.store(sibling, std::memory_order_relaxed);
  node->high_key.store(*separator, std::memory_order_relaxed);
  return sibling;
}

/// In-place root growth under the root's lock (the root pointer never
/// changes): contents move into two fresh children, as cnode counterpart.
void SplitRootInPlaceLocked(OlcNode* root, OlcNode* left,
                            OlcNode* right) CBTREE_REQUIRES_EPOCH {
  int count = root->count.load(std::memory_order_relaxed);
  CBTREE_CHECK_GE(count, 2);
  CBTREE_CHECK(root->right.load(std::memory_order_relaxed) == nullptr);
  int keep = (count + 1) / 2;
  bool leaf = root->level.load(std::memory_order_relaxed) == 1;
  for (int i = 0; i < count; ++i) {
    OlcNode* side = i < keep ? left : right;
    int j = i < keep ? i : i - keep;
    side->keys[j].store(root->keys[i].load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
    if (leaf) {
      side->values[j].store(root->values[i].load(std::memory_order_relaxed),
                            std::memory_order_relaxed);
    } else {
      side->children[j].store(
          root->children[i].load(std::memory_order_relaxed),
          std::memory_order_relaxed);
    }
  }
  left->count.store(keep, std::memory_order_relaxed);
  right->count.store(count - keep, std::memory_order_relaxed);
  Key separator = left->keys[keep - 1].load(std::memory_order_relaxed);
  left->right.store(right, std::memory_order_relaxed);
  left->high_key.store(separator, std::memory_order_relaxed);
  right->right.store(nullptr, std::memory_order_relaxed);
  right->high_key.store(kInfKey, std::memory_order_relaxed);
  root->level.fetch_add(1, std::memory_order_relaxed);
  root->keys[0].store(separator, std::memory_order_relaxed);
  root->keys[1].store(kInfKey, std::memory_order_relaxed);
  root->children[0].store(left, std::memory_order_relaxed);
  root->children[1].store(right, std::memory_order_relaxed);
  root->count.store(2, std::memory_order_relaxed);
}

/// Separator posting under the parent's lock: cut the covering entry at
/// `separator`, insert `right` after it (mirrors cnode::InsertSplitEntry,
/// including the delayed-update tolerance on the captured bound).
void InsertSplitEntryLocked(OlcNode* parent, Key separator, OlcNode* right,
                            Key right_high_key) CBTREE_REQUIRES_EPOCH {
  CBTREE_CHECK_LT(separator, kInfKey);
  CBTREE_CHECK_LE(separator,
                  parent->high_key.load(std::memory_order_relaxed));
  int count = parent->count.load(std::memory_order_relaxed);
  CBTREE_CHECK_LT(count, parent->capacity);
  int idx = 0;
  while (idx < count &&
         parent->keys[idx].load(std::memory_order_relaxed) < separator)
    ++idx;
  CBTREE_CHECK_LT(idx, count);
  Key old_bound = parent->keys[idx].load(std::memory_order_relaxed);
  CBTREE_CHECK_NE(old_bound, separator) << "duplicate separator";
  CBTREE_CHECK_LT(separator, right_high_key) << "empty split range";
  for (int i = count; i > idx + 1; --i) {
    parent->keys[i].store(parent->keys[i - 1].load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
    parent->children[i].store(
        parent->children[i - 1].load(std::memory_order_relaxed),
        std::memory_order_relaxed);
  }
  parent->keys[idx].store(separator, std::memory_order_relaxed);
  parent->keys[idx + 1].store(old_bound, std::memory_order_relaxed);
  parent->children[idx + 1].store(right, std::memory_order_relaxed);
  parent->count.store(count + 1, std::memory_order_relaxed);
}

}  // namespace

OlcNode::OlcNode(int level_in, int capacity_in)
    : level(level_in),
      capacity(capacity_in),
      keys(new std::atomic<Key>[capacity_in]),
      children(new std::atomic<OlcNode*>[capacity_in]),
      values(new std::atomic<Value>[capacity_in]) {}

OlcTree::OlcTree(int max_node_size)
    : ConcurrentBTree(max_node_size), olc_root_(AllocateNode(/*level=*/1)) {}

OlcTree::~OlcTree() CBTREE_EPOCH_QUIESCENT {
  // Quiescent teardown: free every linked node level by level (the leftmost
  // node of each level reaches the one below through children[0]); nodes
  // already unlinked are on the epoch manager's retire list and are freed
  // by its destructor right after this.
  OlcNode* level_head = olc_root_;
  while (level_head != nullptr) {
    OlcNode* next_head =
        level_head->level.load(std::memory_order_relaxed) > 1
            ? level_head->children[0].load(std::memory_order_relaxed)
            : nullptr;
    OlcNode* node = level_head;
    while (node != nullptr) {
      OlcNode* right = node->right.load(std::memory_order_relaxed);
      delete node;
      node = right;
    }
    level_head = next_head;
  }
}

OlcNode* OlcTree::AllocateNode(int level) const {
  return new OlcNode(level, max_node_size() + 1);
}

// ---------------------------------------------------------------------------
// Version-lock primitives.
// ---------------------------------------------------------------------------

bool OlcTree::ReadLockOrRestart(const OlcNode* node, uint64_t* version) {
  // Spin while the node is write-locked: write locks are held for short,
  // bounded windows, and restarting immediately would just re-arrive at the
  // same locked node and restart again (a restart storm paying a full
  // descent per spin). Only an obsolete node forces a restart from the root.
  latch_check::RequireEpochPinned(node);
  int spins = 0;
  uint64_t v = node->version.load(std::memory_order_acquire);
  while ((v & kLockedBit) != 0) {
    if (++spins > 64) {
      std::this_thread::yield();
      spins = 0;
    }
    v = node->version.load(std::memory_order_acquire);
  }
  if ((v & kObsoleteBit) != 0) return false;
  *version = v;
  return true;
}

bool OlcTree::Validate(const OlcNode* node, uint64_t version) {
  std::atomic_thread_fence(std::memory_order_acquire);
  return node->version.load(std::memory_order_relaxed) == version;
}

void OlcTree::LockNode(OlcNode* node) const {
  latch_check::RequireEpochPinned(node);
  int spins = 0;
  uint64_t v = node->version.load(std::memory_order_relaxed);
  for (;;) {
    if ((v & kLockedBit) == 0 &&
        node->version.compare_exchange_weak(v, v | kLockedBit,
                                            std::memory_order_acquire,
                                            std::memory_order_relaxed)) {
      break;
    }
    if (++spins > 64) {
      std::this_thread::yield();
      spins = 0;
    }
    v = node->version.load(std::memory_order_relaxed);
  }
  latch_check::OnAcquire(node, node->level.load(std::memory_order_relaxed),
                         latch_check::Mode::kExclusive);
}

bool OlcTree::TryLockNode(OlcNode* node) const {
  latch_check::RequireEpochPinned(node);
  uint64_t v = node->version.load(std::memory_order_relaxed);
  if ((v & kLockedBit) != 0) return false;
  if (!node->version.compare_exchange_strong(v, v | kLockedBit,
                                             std::memory_order_acquire,
                                             std::memory_order_relaxed)) {
    return false;
  }
  latch_check::OnAcquire(node, node->level.load(std::memory_order_relaxed),
                         latch_check::Mode::kExclusive);
  return true;
}

bool OlcTree::UpgradeLockOrRestart(OlcNode* node, uint64_t version) const {
  latch_check::RequireEpochPinned(node);
  uint64_t expected = version;
  if (!node->version.compare_exchange_strong(expected, version | kLockedBit,
                                             std::memory_order_acquire,
                                             std::memory_order_relaxed)) {
    return false;
  }
  latch_check::OnAcquire(node, node->level.load(std::memory_order_relaxed),
                         latch_check::Mode::kExclusive);
  return true;
}

void OlcTree::UnlockNode(OlcNode* node) const {
  latch_check::OnRelease(node, latch_check::Mode::kExclusive);
  uint64_t v = node->version.load(std::memory_order_relaxed);
  node->version.store((v & ~kLockedBit) + kVersionStep,
                      std::memory_order_release);
}

void OlcTree::UnlockObsolete(OlcNode* node) const {
  latch_check::OnRelease(node, latch_check::Mode::kExclusive);
  uint64_t v = node->version.load(std::memory_order_relaxed);
  node->version.store(((v | kObsoleteBit) & ~kLockedBit) + kVersionStep,
                      std::memory_order_release);
}

void OlcTree::RecordRestart() const {
  restarts_.fetch_add(1, std::memory_order_relaxed);
}

void OlcTree::MaybeDescendHook(OlcNode* node) const {
  DescendHook hook = hook_.load(std::memory_order_acquire);
  if (hook != nullptr) hook(hook_arg_.load(std::memory_order_acquire), node);
}

void OlcTree::SetDescendHookForTest(DescendHook hook, void* arg) {
  hook_arg_.store(arg, std::memory_order_release);
  hook_.store(hook, std::memory_order_release);
}

void OlcTree::BumpVersionForTest(OlcNode* node) {
  node->version.fetch_add(kVersionStep, std::memory_order_release);
}

// ---------------------------------------------------------------------------
// Readers.
// ---------------------------------------------------------------------------

bool OlcTree::SearchAttempt(Key key, bool* found, Value* value) const {
  OlcNode* node = olc_root_;
  uint64_t v;
  if (!ReadLockOrRestart(node, &v)) return false;
  MaybeDescendHook(node);
  while (true) {
    Key high = node->high_key.load(std::memory_order_relaxed);
    if (key > high) {
      OlcNode* right = node->right.load(std::memory_order_relaxed);
      if (!Validate(node, v)) return false;
      CBTREE_CHECK(right != nullptr);
      link_crossings_.fetch_add(1, std::memory_order_relaxed);
      node = right;
      if (!ReadLockOrRestart(node, &v)) return false;
      MaybeDescendHook(node);
      continue;
    }
    if (node->level.load(std::memory_order_relaxed) == 1) {
      int count = node->count.load(std::memory_order_relaxed);
      if (count < 0 || count > node->capacity) return false;
      bool hit = false;
      Value val{};
      for (int i = 0; i < count; ++i) {
        if (node->keys[i].load(std::memory_order_relaxed) == key) {
          val = node->values[i].load(std::memory_order_relaxed);
          hit = true;
          break;
        }
      }
      if (!Validate(node, v)) return false;
      *found = hit;
      *value = val;
      return true;
    }
    OlcNode* child = ChildForRelaxed(node, key);
    if (child == nullptr || !Validate(node, v)) return false;
    uint64_t cv;
    if (!ReadLockOrRestart(child, &cv)) return false;
    // The child's stamp is only meaningful if it was still this node's
    // child when taken; re-validate the parent before stepping down.
    if (!Validate(node, v)) return false;
    node = child;
    v = cv;
    MaybeDescendHook(node);
  }
}

std::optional<Value> OlcTree::Search(Key key) const {
  EpochGuard guard(&epoch_);
  latch_check::EpochScope epoch_scope;
  bool found = false;
  Value value{};
  while (!SearchAttempt(key, &found, &value)) RecordRestart();
  if (!found) return std::nullopt;
  return value;
}

bool OlcTree::ScanLeafAttempt(Key cursor, Key hi,
                              std::vector<std::pair<Key, Value>>* entries,
                              Key* leaf_high) const {
  OlcNode* node = olc_root_;
  uint64_t v;
  if (!ReadLockOrRestart(node, &v)) return false;
  while (true) {
    Key high = node->high_key.load(std::memory_order_relaxed);
    if (cursor > high) {
      OlcNode* right = node->right.load(std::memory_order_relaxed);
      if (!Validate(node, v)) return false;
      CBTREE_CHECK(right != nullptr);
      node = right;
      if (!ReadLockOrRestart(node, &v)) return false;
      continue;
    }
    if (node->level.load(std::memory_order_relaxed) == 1) {
      int count = node->count.load(std::memory_order_relaxed);
      if (count < 0 || count > node->capacity) return false;
      for (int i = 0; i < count; ++i) {
        Key k = node->keys[i].load(std::memory_order_relaxed);
        if (k < cursor || k > hi) continue;
        entries->emplace_back(k,
                              node->values[i].load(std::memory_order_relaxed));
      }
      if (!Validate(node, v)) return false;
      *leaf_high = high;
      return true;
    }
    OlcNode* child = ChildForRelaxed(node, cursor);
    if (child == nullptr || !Validate(node, v)) return false;
    uint64_t cv;
    if (!ReadLockOrRestart(child, &cv)) return false;
    if (!Validate(node, v)) return false;
    node = child;
    v = cv;
  }
}

size_t OlcTree::Scan(Key lo, Key hi, size_t limit,
                     std::vector<std::pair<Key, Value>>* out) const {
  CBTREE_CHECK(out != nullptr);
  if (limit == 0 || lo > hi) return 0;
  EpochGuard guard(&epoch_);
  latch_check::EpochScope epoch_scope;
  size_t appended = 0;
  Key cursor = lo;
  std::vector<std::pair<Key, Value>> entries;
  while (true) {
    entries.clear();
    Key leaf_high = kInfKey;
    if (!ScanLeafAttempt(cursor, hi, &entries, &leaf_high)) {
      RecordRestart();
      continue;
    }
    for (const auto& kv : entries) {
      out->push_back(kv);
      if (++appended >= limit) return appended;
    }
    if (leaf_high >= hi || leaf_high == kInfKey) return appended;
    cursor = leaf_high + 1;
  }
}

// ---------------------------------------------------------------------------
// Writers.
// ---------------------------------------------------------------------------

int OlcTree::InsertAttempt(Key key, Value value,
                           std::vector<OlcNode*>* anchors) {
  OlcNode* node = olc_root_;
  uint64_t v;
  if (!ReadLockOrRestart(node, &v)) return -1;
  while (true) {
    Key high = node->high_key.load(std::memory_order_relaxed);
    if (key > high) {
      OlcNode* right = node->right.load(std::memory_order_relaxed);
      if (!Validate(node, v)) return -1;
      CBTREE_CHECK(right != nullptr);
      link_crossings_.fetch_add(1, std::memory_order_relaxed);
      node = right;
      if (!ReadLockOrRestart(node, &v)) return -1;
      continue;
    }
    int level = node->level.load(std::memory_order_relaxed);
    if (level == 1) break;
    if (level >= static_cast<int>(anchors->size())) {
      anchors->resize(level + 1, nullptr);
    }
    (*anchors)[level] = node;
    OlcNode* child = ChildForRelaxed(node, key);
    if (child == nullptr || !Validate(node, v)) return -1;
    uint64_t cv;
    if (!ReadLockOrRestart(child, &cv)) return -1;
    if (!Validate(node, v)) return -1;
    node = child;
    v = cv;
  }

  // The upgrade CAS doubles as the final validation: it succeeds only if
  // nothing changed since the leaf's stamp was taken, so the move-right
  // check above still holds and no re-check under the lock is needed.
  if (!UpgradeLockOrRestart(node, v)) return -1;
  bool inserted = LeafInsertLocked(node, key, value);
  if (inserted) AdjustSize(1);
  // Logged while the leaf's version write-lock is held, so LSN order is the
  // per-key serialization order. Retention (kLeafOnly == kNaive here: only
  // the leaf lock is held) keeps the version lock across the durability
  // wait — concurrent readers of this leaf restart, which is exactly the
  // paper's retained-lock cost made visible live.
  const uint64_t lsn = WalLogInsert(key, value);
  if (WalRetainLeaf()) WalWaitDurable(lsn);

  OlcNode* cur = node;
  while (cur->count.load(std::memory_order_relaxed) > max_node_size()) {
    splits_.fetch_add(1, std::memory_order_relaxed);
    if (cur == olc_root_) {
      int root_level = cur->level.load(std::memory_order_relaxed);
      SplitRootInPlaceLocked(cur, AllocateNode(root_level),
                             AllocateNode(root_level));
      root_splits_.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    int level = cur->level.load(std::memory_order_relaxed);
    Key separator;
    OlcNode* right = HalfSplitLocked(cur, AllocateNode(level), &separator);
    // Capture the sibling's bound while it is still private; once `cur`
    // unlocks, writers arriving over the right link may split `right`.
    Key right_high = right->high_key.load(std::memory_order_relaxed);
    UnlockNode(cur);
    cur = LockTargetForSeparator(level + 1, separator, *anchors);
    InsertSplitEntryLocked(cur, separator, right, right_high);
  }
  UnlockNode(cur);
  return inserted ? 1 : 0;
}

bool OlcTree::Insert(Key key, Value value) {
  CBTREE_CHECK_LT(key, kInfKey);
  latch_check::ScopedOp op(latch_check::Discipline::kOlc);
  EpochGuard guard(&epoch_);
  latch_check::EpochScope epoch_scope;
  std::vector<OlcNode*> anchors;
  for (;;) {
    anchors.clear();
    int result = InsertAttempt(key, value, &anchors);
    if (result >= 0) return result == 1;
    RecordRestart();
  }
}

OlcNode* OlcTree::LockTargetForSeparator(
    int target_level, Key separator, const std::vector<OlcNode*>& anchors) {
  bool use_anchor = true;
  for (;;) {
    OlcNode* target = nullptr;
    if (use_anchor && target_level < static_cast<int>(anchors.size())) {
      target = anchors[target_level];
    }
    if (target == nullptr) target = olc_root_;
    LockNode(target);
    bool retry = false;
    while (true) {
      if (IsObsolete(target->version.load(std::memory_order_relaxed))) {
        // The remembered node left the structure; forget the anchors and
        // retry from the root (internal nodes are never unlinked today,
        // but the rule is cheap and future-proof).
        UnlockNode(target);
        use_anchor = false;
        retry = true;
        break;
      }
      if (separator > target->high_key.load(std::memory_order_relaxed)) {
        OlcNode* right = target->right.load(std::memory_order_relaxed);
        CBTREE_CHECK(right != nullptr);
        link_crossings_.fetch_add(1, std::memory_order_relaxed);
        UnlockNode(target);
        LockNode(right);
        target = right;
        continue;
      }
      int level = target->level.load(std::memory_order_relaxed);
      if (level > target_level) {
        // The root grew above the remembered ancestors; walk back down,
        // one write lock at a time.
        OlcNode* child = ChildForLocked(target, separator);
        UnlockNode(target);
        LockNode(child);
        target = child;
        continue;
      }
      CBTREE_CHECK_EQ(level, target_level);
      return target;
    }
    if (!retry) break;
  }
  CBTREE_CHECK(false) << "unreachable";
  return nullptr;
}

int OlcTree::DeleteAttempt(Key key, OlcNode** emptied) {
  OlcNode* node = olc_root_;
  uint64_t v;
  if (!ReadLockOrRestart(node, &v)) return -1;
  while (true) {
    Key high = node->high_key.load(std::memory_order_relaxed);
    if (key > high) {
      OlcNode* right = node->right.load(std::memory_order_relaxed);
      if (!Validate(node, v)) return -1;
      CBTREE_CHECK(right != nullptr);
      link_crossings_.fetch_add(1, std::memory_order_relaxed);
      node = right;
      if (!ReadLockOrRestart(node, &v)) return -1;
      continue;
    }
    if (node->level.load(std::memory_order_relaxed) == 1) break;
    OlcNode* child = ChildForRelaxed(node, key);
    if (child == nullptr || !Validate(node, v)) return -1;
    uint64_t cv;
    if (!ReadLockOrRestart(child, &cv)) return -1;
    if (!Validate(node, v)) return -1;
    node = child;
    v = cv;
  }

  if (!UpgradeLockOrRestart(node, v)) return -1;
  bool removed = LeafDeleteLocked(node, key);
  if (removed) AdjustSize(-1);
  const uint64_t lsn = removed ? WalLogDelete(key) : 0;
  if (WalRetainLeaf()) WalWaitDurable(lsn);
  bool now_empty = removed &&
                   node->count.load(std::memory_order_relaxed) == 0 &&
                   node != olc_root_;
  UnlockNode(node);
  if (now_empty) *emptied = node;
  return removed ? 1 : 0;
}

bool OlcTree::Delete(Key key) {
  latch_check::ScopedOp op(latch_check::Discipline::kOlc);
  EpochGuard guard(&epoch_);
  latch_check::EpochScope epoch_scope;
  OlcNode* emptied = nullptr;
  int result;
  for (;;) {
    result = DeleteAttempt(key, &emptied);
    if (result >= 0) break;
    RecordRestart();
  }
  if (emptied != nullptr) TryUnlinkLeaf(emptied);
  return result == 1;
}

OlcNode* OlcTree::LockParentFor(Key key) {
  constexpr int kAttempts = 8;
  for (int attempt = 0; attempt < kAttempts; ++attempt) {
    OlcNode* node = olc_root_;
    uint64_t v;
    if (!ReadLockOrRestart(node, &v)) continue;
    bool restart = false;
    while (!restart) {
      Key high = node->high_key.load(std::memory_order_relaxed);
      if (key > high) {
        OlcNode* right = node->right.load(std::memory_order_relaxed);
        if (!Validate(node, v)) {
          restart = true;
          break;
        }
        node = right;
        if (!ReadLockOrRestart(node, &v)) restart = true;
        continue;
      }
      int level = node->level.load(std::memory_order_relaxed);
      if (level == 1) return nullptr;  // single-leaf tree: no parent
      if (level == 2) {
        if (!UpgradeLockOrRestart(node, v)) {
          restart = true;
          break;
        }
        // Re-check the range under the lock (the optimistic high-key read
        // is vouched for by the upgrade, but a locked move-right keeps the
        // code robust if the caller's key raced a split).
        while (key > node->high_key.load(std::memory_order_relaxed)) {
          OlcNode* right = node->right.load(std::memory_order_relaxed);
          CBTREE_CHECK(right != nullptr);
          UnlockNode(node);
          LockNode(right);
          node = right;
        }
        if (IsObsolete(node->version.load(std::memory_order_relaxed))) {
          UnlockNode(node);
          restart = true;
          break;
        }
        return node;
      }
      OlcNode* child = ChildForRelaxed(node, key);
      if (child == nullptr || !Validate(node, v)) {
        restart = true;
        break;
      }
      uint64_t cv;
      if (!ReadLockOrRestart(child, &cv)) {
        restart = true;
        break;
      }
      if (!Validate(node, v)) {
        restart = true;
        break;
      }
      node = child;
      v = cv;
    }
  }
  return nullptr;  // persistent contention: leave the leaf lazily in place
}

void OlcTree::TryUnlinkLeaf(OlcNode* victim) {
  // Route to the parent by the victim's high key; if the victim is already
  // obsolete (another thread raced the unlink) there is nothing to do.
  uint64_t vv;
  if (!ReadLockOrRestart(victim, &vv)) return;
  Key route = victim->high_key.load(std::memory_order_relaxed);
  if (!Validate(victim, vv)) return;

  OlcNode* parent = LockParentFor(route);
  if (parent == nullptr) return;
  int count = parent->count.load(std::memory_order_relaxed);
  int idx = -1;
  for (int i = 0; i < count; ++i) {
    if (parent->children[i].load(std::memory_order_relaxed) == victim) {
      idx = i;
      break;
    }
  }
  // Abandoned cases stay lazily linked, exactly like the latched trees:
  // victim not under this parent anymore, or it is the parent's first child
  // (its left neighbor lives under another parent — not worth the cross-
  // parent lock dance for an empty leaf).
  if (idx <= 0) {
    UnlockNode(parent);
    return;
  }
  OlcNode* left = parent->children[idx - 1].load(std::memory_order_relaxed);
  if (!TryLockNode(left)) {
    UnlockNode(parent);
    return;
  }
  if (left->right.load(std::memory_order_relaxed) != victim) {
    UnlockNode(left);
    UnlockNode(parent);
    return;
  }
  if (!TryLockNode(victim)) {
    UnlockNode(left);
    UnlockNode(parent);
    return;
  }
  if (victim->count.load(std::memory_order_relaxed) != 0) {
    UnlockNode(victim);
    UnlockNode(left);
    UnlockNode(parent);
    return;
  }

  // Splice: the left sibling absorbs the victim's (empty) key range and its
  // right link; the parent entry collapses onto the left child.
  left->right.store(victim->right.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
  left->high_key.store(victim->high_key.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
  parent->keys[idx - 1].store(parent->keys[idx].load(std::memory_order_relaxed),
                              std::memory_order_relaxed);
  for (int i = idx; i + 1 < count; ++i) {
    parent->keys[i].store(parent->keys[i + 1].load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
    parent->children[i].store(
        parent->children[i + 1].load(std::memory_order_relaxed),
        std::memory_order_relaxed);
  }
  parent->count.store(count - 1, std::memory_order_relaxed);
  unlinks_.fetch_add(1, std::memory_order_relaxed);

  UnlockObsolete(victim);
  latch_check::RequireEpochPinned(victim);
  epoch_.RetireObject(victim);
  UnlockNode(left);
  UnlockNode(parent);
}

// ---------------------------------------------------------------------------
// Quiescent checkers.
// ---------------------------------------------------------------------------

void OlcTree::CheckOlcSubtree(const OlcNode* node, Key bound,
                              int expected_level, size_t* keys) const {
  CBTREE_CHECK_EQ(node->level.load(std::memory_order_relaxed),
                  expected_level);
  CBTREE_CHECK(
      !IsObsolete(node->version.load(std::memory_order_relaxed)));
  int count = node->count.load(std::memory_order_relaxed);
  CBTREE_CHECK_LE(count, max_node_size());
  Key high = node->high_key.load(std::memory_order_relaxed);
  for (int i = 0; i + 1 < count; ++i) {
    CBTREE_CHECK_LT(node->keys[i].load(std::memory_order_relaxed),
                    node->keys[i + 1].load(std::memory_order_relaxed));
  }
  if (expected_level == 1) {
    for (int i = 0; i < count; ++i) {
      Key k = node->keys[i].load(std::memory_order_relaxed);
      CBTREE_CHECK_LT(k, kInfKey);
      CBTREE_CHECK_LE(k, bound);
      CBTREE_CHECK_LE(k, high);
    }
    *keys += static_cast<size_t>(count);
    return;
  }
  CBTREE_CHECK_GE(count, 1);
  CBTREE_CHECK_EQ(node->keys[count - 1].load(std::memory_order_relaxed),
                  high);
  CBTREE_CHECK_LE(high, bound);
  for (int i = 0; i < count; ++i) {
    Key child_bound = node->keys[i].load(std::memory_order_relaxed);
    const OlcNode* child =
        node->children[i].load(std::memory_order_relaxed);
    CBTREE_CHECK_LE(child->high_key.load(std::memory_order_relaxed),
                    child_bound);
    CheckOlcSubtree(child, child_bound, expected_level - 1, keys);
  }
}

void OlcTree::CheckInvariants() const CBTREE_EPOCH_QUIESCENT {
  CBTREE_CHECK(olc_root_->right.load(std::memory_order_relaxed) == nullptr);
  CBTREE_CHECK_EQ(olc_root_->high_key.load(std::memory_order_relaxed),
                  kInfKey);
  size_t keys = 0;
  CheckOlcSubtree(olc_root_, kInfKey,
                  olc_root_->level.load(std::memory_order_relaxed), &keys);
  CBTREE_CHECK_EQ(keys, size());
}

size_t OlcTree::CountKeys() const CBTREE_EPOCH_QUIESCENT {
  size_t keys = 0;
  CheckOlcSubtree(olc_root_, kInfKey,
                  olc_root_->level.load(std::memory_order_relaxed), &keys);
  return keys;
}

}  // namespace cbtree
