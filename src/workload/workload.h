// Workload generation (paper §4): a construction phase that builds the tree
// from a mix of inserts and deletes, and a concurrent phase that draws
// search/insert/delete operations in the configured proportions.
//
// Deletes and searches target keys that actually exist: the generator keeps
// the pool of live keys and samples from it (uniformly, or Zipf-skewed for
// the hotspot extension experiments). Insert keys are drawn uniformly from a
// sparse 2^62 space, so duplicate inserts are negligible.

#ifndef CBTREE_WORKLOAD_WORKLOAD_H_
#define CBTREE_WORKLOAD_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "btree/btree.h"
#include "core/params.h"
#include "stats/rng.h"

namespace cbtree {

enum class OpType { kSearch, kInsert, kDelete };

const char* OpTypeName(OpType type);

/// Rank-skew index sampler over [0, n): the inverse-CDF Zipf approximation
/// the KeyPool uses for hotspot experiments (rank 0 is the hottest). skew
/// <= 0 degenerates to uniform; n must be > 0. Shared by the KeyPool, the
/// `cbtree stress` key chooser, and the network load driver so "--zipf 0.8"
/// means the same access pattern everywhere.
size_t SampleZipfIndex(Rng& rng, size_t n, double zipf_skew);

struct Operation {
  OpType type = OpType::kSearch;
  Key key = 0;
  Value value = 0;
};

/// The set of keys currently believed live, supporting O(1) random sampling
/// and removal (swap-pop with a position index).
///
/// The index is an open-addressing table of (key, position) pairs with
/// linear probing and backward-shift deletion, so adding and removing a key
/// allocates nothing once the table has grown; any int64_t is a valid key.
class KeyPool {
 public:
  /// Adds a key; a key already in the pool is ignored.
  void Add(Key key);
  bool Contains(Key key) const;
  /// Samples a key, uniformly or by rank-skew (rank 0 = first inserted).
  Key Sample(Rng& rng, double zipf_skew = 0.0) const;
  /// Samples and removes a key.
  Key SampleAndRemove(Rng& rng, double zipf_skew = 0.0);
  void Remove(Key key);
  size_t size() const { return keys_.size(); }
  bool empty() const { return keys_.empty(); }

 private:
  static constexpr size_t kEmpty = ~size_t{0};
  struct Slot {
    Key key = 0;
    size_t pos = kEmpty;  ///< index into keys_, kEmpty for a free slot
  };

  size_t SampleIndex(Rng& rng, double zipf_skew) const;
  /// Home slot of a key (Fibonacci hashing onto the power-of-two table).
  size_t Home(Key key) const;
  /// Slot holding `key`, or the free slot that ends its probe run.
  size_t Find(Key key) const;
  /// Doubles the table and re-indexes keys_ into it.
  void Grow();
  /// Frees a slot, shifting the rest of its probe run back into the gap.
  void Erase(size_t slot);

  std::vector<Key> keys_;
  std::vector<Slot> table_;  ///< size is 0 or a power of two
  int shift_ = 64;           ///< 64 - log2(table_.size())
};

/// Draws operations in the configured mix, maintaining the key pool.
class WorkloadGenerator {
 public:
  struct Options {
    OperationMix mix;
    uint64_t seed = 1;
    /// Zipf skew over the key pool for searches and deletes (0 = uniform).
    double zipf_skew = 0.0;
  };

  explicit WorkloadGenerator(Options options);

  /// Next operation. If the pool is empty, searches/deletes degrade to
  /// lookups of a never-present key.
  Operation Next();

  /// Seeds the pool (e.g. with keys inserted by the construction phase).
  void NotifyExisting(Key key) { pool_.Add(key); }

  const KeyPool& pool() const { return pool_; }
  Rng& rng() { return rng_; }

 private:
  Key FreshKey();

  Options options_;
  Rng rng_;
  KeyPool pool_;
};

/// Construction phase (paper §4): applies inserts and deletes in the mix's
/// insert:delete proportion until the tree holds `target_items` keys.
/// Returns the keys present afterwards (to seed a WorkloadGenerator).
std::vector<Key> BuildTree(BTree* tree, uint64_t target_items,
                           const OperationMix& mix, uint64_t seed);

}  // namespace cbtree

#endif  // CBTREE_WORKLOAD_WORKLOAD_H_
