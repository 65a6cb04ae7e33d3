#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <set>
#include <vector>

#include "btree/validate.h"
#include "workload/workload.h"

namespace cbtree {
namespace {

TEST(KeyPoolTest, AddSampleRemove) {
  KeyPool pool;
  Rng rng(1);
  pool.Add(10);
  pool.Add(20);
  pool.Add(30);
  EXPECT_EQ(pool.size(), 3u);
  EXPECT_TRUE(pool.Contains(20));
  Key sampled = pool.Sample(rng);
  EXPECT_TRUE(sampled == 10 || sampled == 20 || sampled == 30);
  pool.Remove(20);
  EXPECT_FALSE(pool.Contains(20));
  EXPECT_EQ(pool.size(), 2u);
  Key removed = pool.SampleAndRemove(rng);
  EXPECT_FALSE(pool.Contains(removed));
  EXPECT_EQ(pool.size(), 1u);
}

TEST(KeyPoolTest, AddDuplicateIsNoop) {
  KeyPool pool;
  pool.Add(5);
  pool.Add(5);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(KeyPoolTest, NegativeAndExtremeKeys) {
  const std::vector<Key> keys = {-1, 0, 1, -5, std::numeric_limits<Key>::min(),
                                 std::numeric_limits<Key>::max(), -1000000007};
  KeyPool pool;
  for (Key key : keys) pool.Add(key);
  EXPECT_EQ(pool.size(), keys.size());
  for (Key key : keys) EXPECT_TRUE(pool.Contains(key)) << key;
  EXPECT_FALSE(pool.Contains(2));
  EXPECT_FALSE(pool.Contains(-2));
  pool.Remove(std::numeric_limits<Key>::min());
  pool.Remove(-1);
  EXPECT_FALSE(pool.Contains(std::numeric_limits<Key>::min()));
  EXPECT_FALSE(pool.Contains(-1));
  EXPECT_TRUE(pool.Contains(std::numeric_limits<Key>::max()));
  EXPECT_EQ(pool.size(), keys.size() - 2);
}

// Multiplicative inverse of an odd 64-bit constant (Newton's iteration).
constexpr uint64_t InverseOf(uint64_t odd) {
  uint64_t x = odd;
  for (int i = 0; i < 6; ++i) x *= 2 - odd * x;
  return x;
}

TEST(KeyPoolTest, CollidingKeysAndWrapAround) {
  // The index hashes by multiplying with this constant and keeping the top
  // bits, so key j * inverse lands in slot 0 and key (-1 - j) * inverse in
  // the last slot, whatever the table size. Their probe runs collide and
  // wrap around the end of the table. (Under any other hash these are just
  // distinct keys and the checks below still hold.)
  constexpr uint64_t kInverse = InverseOf(0x9e3779b97f4a7c15ull);
  static_assert(kInverse * 0x9e3779b97f4a7c15ull == 1);
  std::vector<Key> keys;
  for (uint64_t j = 0; j < 6; ++j) {
    keys.push_back(static_cast<Key>(j * kInverse));
    keys.push_back(static_cast<Key>((~uint64_t{0} - j) * kInverse));
  }
  KeyPool pool;
  for (Key key : keys) pool.Add(key);
  ASSERT_EQ(pool.size(), keys.size());
  // Remove from the middle of the runs; the entries behind each gap must
  // stay reachable.
  for (size_t i = 0; i < keys.size(); i += 3) pool.Remove(keys[i]);
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(pool.Contains(keys[i]), i % 3 != 0) << i;
  }
  for (size_t i = 0; i < keys.size(); i += 3) pool.Add(keys[i]);
  for (Key key : keys) EXPECT_TRUE(pool.Contains(key));
  EXPECT_EQ(pool.size(), keys.size());
}

TEST(KeyPoolTest, RemoveLastAndOnlyKeyThenReAdd) {
  KeyPool pool;
  Rng rng(1);
  pool.Add(42);
  pool.Remove(42);
  EXPECT_TRUE(pool.empty());
  EXPECT_FALSE(pool.Contains(42));
  pool.Add(42);
  EXPECT_TRUE(pool.Contains(42));
  EXPECT_EQ(pool.Sample(rng), 42);
  // The key in the last position: the swap-pop moves nothing.
  pool.Add(7);
  pool.Remove(7);
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_TRUE(pool.Contains(42));
  EXPECT_FALSE(pool.Contains(7));
  EXPECT_EQ(pool.SampleAndRemove(rng), 42);
  EXPECT_TRUE(pool.empty());
  pool.Add(7);
  EXPECT_EQ(pool.Sample(rng), 7);
}

TEST(KeyPoolTest, RandomOperationsMatchOracle) {
  // The oracle keeps the live set and the pool's swap-pop order, so a
  // sample drawn with an identically seeded Rng must name the same key.
  KeyPool pool;
  std::set<Key> live;
  std::vector<Key> order;
  auto oracle_remove = [&](Key key) {
    auto it = std::find(order.begin(), order.end(), key);
    ASSERT_NE(it, order.end());
    *it = order.back();
    order.pop_back();
    live.erase(key);
  };
  Rng dice(3);
  Rng pool_rng(4);
  Rng oracle_rng(4);
  for (int step = 0; step < 100000; ++step) {
    // A small signed range, so adds repeat live keys and re-add dead ones.
    const Key key = static_cast<Key>(dice.NextBounded(4096)) - 2048;
    const double skew = step % 2 == 0 ? 0.0 : 0.8;
    switch (dice.NextBounded(5)) {
      case 0:
      case 1:
        pool.Add(key);
        if (live.insert(key).second) order.push_back(key);
        break;
      case 2:
        if (live.count(key) > 0) {
          pool.Remove(key);
          oracle_remove(key);
        }
        break;
      case 3:
        if (!live.empty()) {
          const Key got = pool.SampleAndRemove(pool_rng, skew);
          ASSERT_EQ(got, order[SampleZipfIndex(oracle_rng, order.size(),
                                               skew)])
              << "step " << step;
          oracle_remove(got);
        }
        break;
      default:
        if (!live.empty()) {
          ASSERT_EQ(pool.Sample(pool_rng, skew),
                    order[SampleZipfIndex(oracle_rng, order.size(), skew)])
              << "step " << step;
        }
        break;
    }
    ASSERT_EQ(pool.size(), live.size()) << "step " << step;
    ASSERT_EQ(pool.Contains(key), live.count(key) > 0) << "step " << step;
  }
  EXPECT_GT(live.size(), 100u);
  for (Key key = -2048; key < 2048; ++key) {
    ASSERT_EQ(pool.Contains(key), live.count(key) > 0) << key;
  }
}

TEST(WorkloadGeneratorTest, MixProportionsRespected) {
  WorkloadGenerator gen({OperationMix{0.3, 0.5, 0.2}, 42, 0.0});
  int counts[3] = {0, 0, 0};
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    Operation op = gen.Next();
    ++counts[static_cast<int>(op.type)];
  }
  EXPECT_NEAR(counts[0] / double(n), 0.3, 0.01);
  EXPECT_NEAR(counts[1] / double(n), 0.5, 0.01);
  EXPECT_NEAR(counts[2] / double(n), 0.2, 0.01);
}

TEST(WorkloadGeneratorTest, DeletesTargetLiveKeys) {
  WorkloadGenerator gen({OperationMix{0.0, 0.6, 0.4}, 7, 0.0});
  std::set<Key> live;
  for (int i = 0; i < 20000; ++i) {
    Operation op = gen.Next();
    if (op.type == OpType::kInsert) {
      live.insert(op.key);
    } else if (op.type == OpType::kDelete && !live.empty()) {
      // Every delete must name a key that was inserted and not yet deleted.
      ASSERT_TRUE(live.count(op.key)) << "op " << i;
      live.erase(op.key);
    }
  }
  EXPECT_EQ(gen.pool().size(), live.size());
}

TEST(WorkloadGeneratorTest, Deterministic) {
  WorkloadGenerator a({OperationMix{0.3, 0.5, 0.2}, 5, 0.0});
  WorkloadGenerator b({OperationMix{0.3, 0.5, 0.2}, 5, 0.0});
  for (int i = 0; i < 1000; ++i) {
    Operation oa = a.Next();
    Operation ob = b.Next();
    EXPECT_EQ(oa.type, ob.type);
    EXPECT_EQ(oa.key, ob.key);
  }
}

TEST(BuildTreeTest, ReachesTargetSizeAndValidates) {
  BTree tree(BTree::Options{13, MergePolicy::kAtEmpty});
  std::vector<Key> keys = BuildTree(&tree, 10000, {0.3, 0.5, 0.2}, 11);
  EXPECT_GE(tree.size(), 10000u);
  EXPECT_EQ(keys.size(), tree.size());
  auto result = ValidateTree(tree, {.check_links = false});
  EXPECT_TRUE(result) << result.error;
  // The returned keys are exactly the live contents, in order.
  for (size_t i = 1; i < keys.size(); ++i) EXPECT_LT(keys[i - 1], keys[i]);
  EXPECT_TRUE(tree.Search(keys.front()).has_value());
  EXPECT_TRUE(tree.Search(keys.back()).has_value());
}

TEST(BuildTreeTest, MixedConstructionExercisesDeletes) {
  BTree tree(BTree::Options{13, MergePolicy::kAtEmpty});
  BuildTree(&tree, 5000, {0.3, 0.5, 0.2}, 13);
  EXPECT_GT(tree.restructure_stats().TotalSplits(), 0u);
}

}  // namespace
}  // namespace cbtree
