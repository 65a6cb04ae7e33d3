#include "workload/workload.h"

#include <cmath>

#include "stats/distributions.h"
#include "util/check.h"

namespace cbtree {

const char* OpTypeName(OpType type) {
  switch (type) {
    case OpType::kSearch:
      return "search";
    case OpType::kInsert:
      return "insert";
    case OpType::kDelete:
      return "delete";
  }
  return "unknown";
}

size_t KeyPool::Home(Key key) const {
  return static_cast<size_t>(
      (static_cast<uint64_t>(key) * 0x9e3779b97f4a7c15ull) >> shift_);
}

size_t KeyPool::Find(Key key) const {
  const size_t mask = table_.size() - 1;
  size_t slot = Home(key);
  while (table_[slot].pos != kEmpty && table_[slot].key != key) {
    slot = (slot + 1) & mask;
  }
  return slot;
}

void KeyPool::Grow() {
  size_t capacity = table_.empty() ? 16 : 2 * table_.size();
  table_.assign(capacity, Slot{});
  shift_ = 64;
  for (size_t c = capacity; c > 1; c >>= 1) --shift_;
  for (size_t pos = 0; pos < keys_.size(); ++pos) {
    table_[Find(keys_[pos])] = Slot{keys_[pos], pos};
  }
}

void KeyPool::Erase(size_t slot) {
  const size_t mask = table_.size() - 1;
  size_t gap = slot;
  for (size_t next = (gap + 1) & mask; table_[next].pos != kEmpty;
       next = (next + 1) & mask) {
    // An entry may move back into the gap only if that does not put it
    // before its home slot: its probe distance must cover the gap.
    if (((next - Home(table_[next].key)) & mask) >= ((next - gap) & mask)) {
      table_[gap] = table_[next];
      gap = next;
    }
  }
  table_[gap].pos = kEmpty;
}

void KeyPool::Add(Key key) {
  // Keep the load factor at most 3/4 so probe runs stay short.
  if (4 * (keys_.size() + 1) > 3 * table_.size()) Grow();
  size_t slot = Find(key);
  if (table_[slot].pos != kEmpty) return;
  table_[slot] = Slot{key, keys_.size()};
  keys_.push_back(key);
}

bool KeyPool::Contains(Key key) const {
  return !table_.empty() && table_[Find(key)].pos != kEmpty;
}

size_t SampleZipfIndex(Rng& rng, size_t n, double zipf_skew) {
  CBTREE_CHECK_GT(n, 0u);
  if (zipf_skew <= 0.0) return rng.NextBounded(n);
  // Inverse-CDF approximation of a Zipf-like rank distribution: cheap and
  // good enough for hotspot experiments.
  double u = rng.NextDoubleOpenLow();
  double rank = std::pow(u, 1.0 / (1.0 - zipf_skew)) * static_cast<double>(n);
  size_t idx = static_cast<size_t>(rank);
  return idx >= n ? n - 1 : idx;
}

size_t KeyPool::SampleIndex(Rng& rng, double zipf_skew) const {
  CBTREE_CHECK(!keys_.empty());
  return SampleZipfIndex(rng, keys_.size(), zipf_skew);
}

Key KeyPool::Sample(Rng& rng, double zipf_skew) const {
  return keys_[SampleIndex(rng, zipf_skew)];
}

Key KeyPool::SampleAndRemove(Rng& rng, double zipf_skew) {
  size_t idx = SampleIndex(rng, zipf_skew);
  Key key = keys_[idx];
  Remove(key);
  return key;
}

void KeyPool::Remove(Key key) {
  CBTREE_CHECK(!keys_.empty()) << "removing unknown key";
  size_t slot = Find(key);
  CBTREE_CHECK(table_[slot].pos != kEmpty) << "removing unknown key";
  size_t idx = table_[slot].pos;
  Key last = keys_.back();
  keys_[idx] = last;
  table_[Find(last)].pos = idx;
  keys_.pop_back();
  Erase(slot);
}

WorkloadGenerator::WorkloadGenerator(Options options)
    : options_(options), rng_(options.seed) {
  options_.mix.Validate();
}

Key WorkloadGenerator::FreshKey() {
  // Uniform over a 2^62 space; collisions with the ~1e5-key pools used in
  // the experiments are negligible, and an accidental duplicate is a
  // harmless overwrite.
  return static_cast<Key>(rng_.Next() >> 2);
}

Operation WorkloadGenerator::Next() {
  double u = rng_.NextDouble();
  Operation op;
  if (u < options_.mix.q_s) {
    op.type = OpType::kSearch;
    op.key = pool_.empty() ? FreshKey() : pool_.Sample(rng_, options_.zipf_skew);
  } else if (u < options_.mix.q_s + options_.mix.q_i) {
    op.type = OpType::kInsert;
    op.key = FreshKey();
    op.value = static_cast<Value>(rng_.Next());
    pool_.Add(op.key);
  } else {
    op.type = OpType::kDelete;
    op.key = pool_.empty() ? FreshKey()
                           : pool_.SampleAndRemove(rng_, options_.zipf_skew);
  }
  return op;
}

std::vector<Key> BuildTree(BTree* tree, uint64_t target_items,
                           const OperationMix& mix, uint64_t seed) {
  CBTREE_CHECK(tree != nullptr);
  mix.Validate();
  // Only the insert:delete ratio matters during construction. A mix with no
  // updates (pure-search concurrent phase) builds with pure inserts.
  OperationMix build_mix;
  build_mix.q_s = 0.0;
  if (mix.update_fraction() > 0.0) {
    CBTREE_CHECK_GT(mix.q_i, mix.q_d)
        << "the construction phase needs more inserts than deletes to grow";
    build_mix.q_i = mix.q_i / mix.update_fraction();
    build_mix.q_d = mix.q_d / mix.update_fraction();
  } else {
    build_mix.q_i = 1.0;
    build_mix.q_d = 0.0;
  }
  WorkloadGenerator gen({build_mix, seed, 0.0});
  while (tree->size() < target_items) {
    Operation op = gen.Next();
    if (op.type == OpType::kInsert) {
      tree->Insert(op.key, op.value);
    } else {
      tree->Delete(op.key);
    }
  }
  std::vector<Key> keys;
  std::vector<std::pair<Key, Value>> entries;
  entries.reserve(tree->size());
  tree->Scan(std::numeric_limits<Key>::min(), kInfKey - 1, tree->size() + 1,
             &entries);
  keys.reserve(entries.size());
  for (const auto& [key, value] : entries) keys.push_back(key);
  return keys;
}

}  // namespace cbtree
