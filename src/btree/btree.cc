#include "btree/btree.h"

#include <algorithm>

#include "util/check.h"

namespace cbtree {

namespace {

void EnsureLevel(std::vector<uint64_t>* v, int level) {
  if (static_cast<int>(v->size()) <= level) v->resize(level + 1, 0);
}

}  // namespace

void RestructureStats::RecordSplit(int level) {
  EnsureLevel(&splits, level);
  ++splits[level];
}

void RestructureStats::RecordMerge(int level) {
  EnsureLevel(&merges, level);
  ++merges[level];
}

void RestructureStats::RecordBorrow(int level) {
  EnsureLevel(&borrows, level);
  ++borrows[level];
}

uint64_t RestructureStats::TotalSplits() const {
  uint64_t total = 0;
  for (uint64_t s : splits) total += s;
  return total;
}

uint64_t RestructureStats::TotalMerges() const {
  uint64_t total = 0;
  for (uint64_t m : merges) total += m;
  return total;
}

BTree::BTree(Options options) : options_(options) {
  CBTREE_CHECK_GE(options_.max_node_size, 3)
      << "nodes must hold at least 3 entries";
  root_ = store_.Allocate(/*level=*/1);
}

void BTree::ResetRestructureStats() { stats_ = RestructureStats(); }

int BTree::MinEntries() const { return (options_.max_node_size + 1) / 2; }

bool BTree::IsFull(NodeId id) const {
  return static_cast<int>(store_.Get(id).size()) >= options_.max_node_size;
}

bool BTree::IsDeleteUnsafe(NodeId id) const {
  return store_.Get(id).size() <= 1;
}

NodeId BTree::Child(NodeId id, Key key) const {
  const Node& n = store_.Get(id);
  CBTREE_DCHECK(!n.is_leaf());
  CBTREE_CHECK(!n.empty()) << "descent into empty internal node " << id;
  auto it = std::lower_bound(n.keys.begin(), n.keys.end(), key);
  CBTREE_CHECK(it != n.keys.end())
      << "key " << key << " above node " << id << " bounds (missing link "
      << "follow?)";
  return n.children[it - n.keys.begin()];
}

int BTree::FindChildIndex(NodeId id, NodeId child) const {
  const Node& n = store_.Get(id);
  CBTREE_DCHECK(!n.is_leaf());
  for (size_t i = 0; i < n.children.size(); ++i) {
    if (n.children[i] == child) return static_cast<int>(i);
  }
  return -1;
}

bool BTree::LeafInsert(NodeId leaf, Key key, Value value) {
  Node& n = store_.Get(leaf);
  CBTREE_DCHECK(n.is_leaf());
  CBTREE_CHECK_LT(key, kInfKey);
  CBTREE_CHECK_LE(key, n.high_key) << "insert outside leaf range";
  auto it = std::lower_bound(n.keys.begin(), n.keys.end(), key);
  size_t idx = it - n.keys.begin();
  if (it != n.keys.end() && *it == key) {
    n.values[idx] = value;
    return false;
  }
  n.keys.insert(it, key);
  n.values.insert(n.values.begin() + idx, value);
  ++size_;
  return true;
}

bool BTree::LeafDelete(NodeId leaf, Key key) {
  Node& n = store_.Get(leaf);
  CBTREE_DCHECK(n.is_leaf());
  auto it = std::lower_bound(n.keys.begin(), n.keys.end(), key);
  if (it == n.keys.end() || *it != key) return false;
  size_t idx = it - n.keys.begin();
  n.keys.erase(it);
  n.values.erase(n.values.begin() + idx);
  --size_;
  return true;
}

BTree::SplitResult BTree::Split(NodeId id) {
  CBTREE_CHECK_NE(id, root_) << "the root splits in place";
  Node& n = store_.Get(id);
  CBTREE_CHECK_GE(n.size(), 2u);
  size_t keep = (n.size() + 1) / 2;
  NodeId rid = store_.Allocate(n.level);
  Node& r = store_.Get(rid);
  r.keys.assign(n.keys.begin() + keep, n.keys.end());
  n.keys.resize(keep);
  if (n.is_leaf()) {
    r.values.assign(n.values.begin() + keep, n.values.end());
    n.values.resize(keep);
  } else {
    r.children.assign(n.children.begin() + keep, n.children.end());
    n.children.resize(keep);
  }
  r.right = n.right;
  r.high_key = n.high_key;
  Key separator = n.keys.back();
  n.right = rid;
  n.high_key = separator;
  stats_.RecordSplit(n.level);
  return {rid, separator};
}

void BTree::SplitRootInPlace() {
  Node& rt = store_.Get(root_);
  CBTREE_CHECK_GE(rt.size(), 2u);
  CBTREE_CHECK_EQ(rt.right, kInvalidNode);
  CBTREE_CHECK_EQ(rt.high_key, kInfKey);
  size_t keep = (rt.size() + 1) / 2;
  NodeId lid = store_.Allocate(rt.level);
  NodeId rid = store_.Allocate(rt.level);
  Node& l = store_.Get(lid);
  Node& r = store_.Get(rid);
  l.keys.assign(rt.keys.begin(), rt.keys.begin() + keep);
  r.keys.assign(rt.keys.begin() + keep, rt.keys.end());
  if (rt.is_leaf()) {
    l.values.assign(rt.values.begin(), rt.values.begin() + keep);
    r.values.assign(rt.values.begin() + keep, rt.values.end());
  } else {
    l.children.assign(rt.children.begin(), rt.children.begin() + keep);
    r.children.assign(rt.children.begin() + keep, rt.children.end());
  }
  Key separator = l.keys.back();
  l.right = rid;
  l.high_key = separator;
  r.right = kInvalidNode;
  r.high_key = kInfKey;
  stats_.RecordSplit(rt.level);
  ++stats_.root_splits;
  rt.level += 1;
  rt.keys = {separator, kInfKey};
  rt.children = {lid, rid};
  rt.values.clear();
  height_ = rt.level;
}

void BTree::InsertSplitEntry(NodeId parent, Key separator, NodeId right) {
  Node& p = store_.Get(parent);
  CBTREE_DCHECK(!p.is_leaf());
  CBTREE_CHECK_LT(separator, kInfKey);
  CBTREE_CHECK_LE(separator, p.high_key)
      << "separator beyond parent range; follow the right link first";
  auto it = std::lower_bound(p.keys.begin(), p.keys.end(), separator);
  CBTREE_CHECK(it != p.keys.end());
  CBTREE_CHECK_NE(*it, separator) << "duplicate separator";
  size_t idx = it - p.keys.begin();
  Key old_bound = p.keys[idx];
  // <= rather than ==: out-of-order Link-type parent posts hand the full old
  // bound to a sibling that covers only a prefix of it; its right link
  // covers the remainder (see the delayed-update discussion in DESIGN.md).
  CBTREE_CHECK_LE(store_.Get(right).high_key, old_bound)
      << "split entry bound mismatch";
  p.keys[idx] = separator;
  p.keys.insert(p.keys.begin() + idx + 1, old_bound);
  p.children.insert(p.children.begin() + idx + 1, right);
}

void BTree::PromoteLastBound(NodeId id, Key bound) {
  Node* n = &store_.Get(id);
  CBTREE_CHECK(!n->is_leaf());
  CBTREE_CHECK(!n->empty());
  while (true) {
    n->keys.back() = bound;
    Node* child = &store_.Get(n->children.back());
    child->high_key = bound;
    if (child->is_leaf() || child->empty()) break;
    n = child;
  }
}

void BTree::RemoveChild(NodeId parent, NodeId child) {
  Node& p = store_.Get(parent);
  const Node& c = store_.Get(child);
  CBTREE_DCHECK(!p.is_leaf());
  CBTREE_CHECK(c.empty()) << "removing non-empty child";
  int idx = FindChildIndex(parent, child);
  CBTREE_CHECK_GE(idx, 0) << "child not under this parent";
  int child_level = c.level;
  Key bound = p.keys[idx];
  NodeId child_right = c.right;
  if (idx > 0) store_.Get(p.children[idx - 1]).right = child_right;
  p.keys.erase(p.keys.begin() + idx);
  p.children.erase(p.children.begin() + idx);
  store_.Free(child);
  stats_.RecordMerge(child_level);
  if (!p.empty() && idx == static_cast<int>(p.keys.size())) {
    // Removed the last entry: the parent still answers for keys up to the
    // removed bound, so push that bound down the new rightmost spine.
    PromoteLastBound(parent, bound);
  }
  if (parent == root_ && p.empty()) {
    // The tree is empty: collapse the root back to an empty leaf.
    p.level = 1;
    p.children.clear();
    p.values.clear();
    p.high_key = kInfKey;
    p.right = kInvalidNode;
    height_ = 1;
    ++stats_.root_collapses;
  }
}

NodeId BTree::DescendToLeaf(Key key) {
  path_.clear();
  NodeId id = root_;
  while (!store_.Get(id).is_leaf()) {
    path_.push_back(id);
    id = Child(id, key);
  }
  return id;
}

bool BTree::Insert(Key key, Value value) {
  CBTREE_CHECK_LT(key, kInfKey);
  NodeId id = DescendToLeaf(key);
  bool inserted = LeafInsert(id, key, value);
  NodeId cur = id;
  while (static_cast<int>(store_.Get(cur).size()) > options_.max_node_size) {
    if (cur == root_) {
      SplitRootInPlace();
      break;
    }
    NodeId parent = path_.back();
    path_.pop_back();
    SplitResult split = Split(cur);
    InsertSplitEntry(parent, split.separator, split.right);
    cur = parent;
  }
  return inserted;
}

bool BTree::Delete(Key key) {
  NodeId id = DescendToLeaf(key);
  if (!LeafDelete(id, key)) return false;
  if (options_.merge_policy == MergePolicy::kAtEmpty) {
    NodeId cur = id;
    while (cur != root_ && store_.Get(cur).empty()) {
      NodeId parent = path_.back();
      path_.pop_back();
      RemoveChild(parent, cur);
      cur = parent;
    }
  } else {
    NodeId cur = id;
    while (cur != root_ &&
           static_cast<int>(store_.Get(cur).size()) < MinEntries()) {
      NodeId parent = path_.back();
      path_.pop_back();
      int idx = FindChildIndex(parent, cur);
      CBTREE_CHECK_GE(idx, 0);
      if (!RebalanceAtHalf(parent, idx)) break;
      cur = parent;
    }
    // A merge chain can leave an internal root with a single child.
    while (!store_.Get(root_).is_leaf() && store_.Get(root_).size() == 1) {
      Node& rt = store_.Get(root_);
      NodeId only = rt.children[0];
      Node& c = store_.Get(only);
      rt.level = c.level;
      rt.keys = std::move(c.keys);
      rt.children = std::move(c.children);
      rt.values = std::move(c.values);
      CBTREE_CHECK_EQ(c.right, kInvalidNode);
      rt.high_key = kInfKey;
      rt.right = kInvalidNode;
      store_.Free(only);
      height_ = rt.level;
      ++stats_.root_collapses;
    }
  }
  return true;
}

bool BTree::RebalanceAtHalf(NodeId parent, int idx) {
  Node& p = store_.Get(parent);
  NodeId nid = p.children[idx];
  Node& n = store_.Get(nid);
  int level = n.level;
  // Borrow from the left sibling if it has spare entries.
  if (idx > 0) {
    NodeId lid = p.children[idx - 1];
    Node& l = store_.Get(lid);
    if (static_cast<int>(l.size()) > MinEntries()) {
      n.keys.insert(n.keys.begin(), l.keys.back());
      l.keys.pop_back();
      if (n.is_leaf()) {
        n.values.insert(n.values.begin(), l.values.back());
        l.values.pop_back();
      } else {
        n.children.insert(n.children.begin(), l.children.back());
        l.children.pop_back();
      }
      p.keys[idx - 1] = l.keys.back();
      l.high_key = l.keys.back();
      stats_.RecordBorrow(level);
      return false;
    }
  }
  // Borrow from the right sibling.
  if (idx + 1 < static_cast<int>(p.children.size())) {
    NodeId rid = p.children[idx + 1];
    Node& r = store_.Get(rid);
    if (static_cast<int>(r.size()) > MinEntries()) {
      n.keys.push_back(r.keys.front());
      r.keys.erase(r.keys.begin());
      if (n.is_leaf()) {
        n.values.push_back(r.values.front());
        r.values.erase(r.values.begin());
      } else {
        n.children.push_back(r.children.front());
        r.children.erase(r.children.begin());
      }
      p.keys[idx] = n.keys.back();
      n.high_key = n.keys.back();
      stats_.RecordBorrow(level);
      return false;
    }
  }
  // Merge with a sibling (both at the minimum, so the result fits).
  if (idx > 0) {
    NodeId lid = p.children[idx - 1];
    Node& l = store_.Get(lid);
    l.keys.insert(l.keys.end(), n.keys.begin(), n.keys.end());
    if (n.is_leaf()) {
      l.values.insert(l.values.end(), n.values.begin(), n.values.end());
    } else {
      l.children.insert(l.children.end(), n.children.begin(),
                        n.children.end());
    }
    l.right = n.right;
    l.high_key = n.high_key;
    p.keys.erase(p.keys.begin() + idx - 1);
    p.children.erase(p.children.begin() + idx);
    store_.Free(nid);
  } else {
    NodeId rid = p.children[idx + 1];
    Node& r = store_.Get(rid);
    n.keys.insert(n.keys.end(), r.keys.begin(), r.keys.end());
    if (n.is_leaf()) {
      n.values.insert(n.values.end(), r.values.begin(), r.values.end());
    } else {
      n.children.insert(n.children.end(), r.children.begin(),
                        r.children.end());
    }
    n.right = r.right;
    n.high_key = r.high_key;
    p.keys.erase(p.keys.begin() + idx);
    p.children.erase(p.children.begin() + idx + 1);
    store_.Free(rid);
  }
  stats_.RecordMerge(level);
  return true;
}

std::optional<Value> BTree::Search(Key key) const {
  NodeId id = root_;
  while (!store_.Get(id).is_leaf()) id = Child(id, key);
  const Node& leaf = store_.Get(id);
  auto it = std::lower_bound(leaf.keys.begin(), leaf.keys.end(), key);
  if (it == leaf.keys.end() || *it != key) return std::nullopt;
  return leaf.values[it - leaf.keys.begin()];
}

size_t BTree::Scan(Key lo, Key hi, size_t limit,
                   std::vector<std::pair<Key, Value>>* out) const {
  // In-order traversal rather than a leaf-link walk: merge-at-empty
  // removals may leave leaf right-links dangling (see RemoveChild), while
  // parent entries are always exact.
  CBTREE_CHECK(out != nullptr);
  size_t appended = 0;
  // Stack of (node, next child index to visit).
  std::vector<std::pair<NodeId, size_t>> stack;
  stack.emplace_back(root_, 0);
  while (!stack.empty() && appended < limit) {
    auto& [id, next] = stack.back();
    const Node& n = store_.Get(id);
    if (n.is_leaf()) {
      auto it = std::lower_bound(n.keys.begin(), n.keys.end(), lo);
      for (; it != n.keys.end() && appended < limit; ++it) {
        if (*it > hi) return appended;
        out->emplace_back(*it, n.values[it - n.keys.begin()]);
        ++appended;
      }
      stack.pop_back();
      continue;
    }
    // Skip children whose range ends below lo; stop past hi.
    while (next < n.keys.size() && n.keys[next] < lo) ++next;
    if (next >= n.keys.size() ||
        (next > 0 && n.keys[next - 1] >= hi)) {
      stack.pop_back();
      continue;
    }
    NodeId child = n.children[next];
    ++next;
    stack.emplace_back(child, 0);
  }
  return appended;
}

}  // namespace cbtree
