// Property tests: random operation sequences against a std::map oracle, with
// full structural validation, across node sizes and merge policies.

#include <gtest/gtest.h>

#include <map>
#include <ostream>
#include <tuple>

#include "btree/btree.h"
#include "btree/validate.h"
#include "stats/rng.h"

namespace cbtree {
namespace {

struct PropertyParam {
  int max_node_size;
  MergePolicy policy;
  int key_range;   // small ranges force heavy delete/reinsert churn
  uint64_t seed;
};

// Without this gtest prints the struct's raw bytes, padding included, into
// each ctest name, so the names would change from build to build.
void PrintTo(const PropertyParam& param, std::ostream* os) {
  *os << "N" << param.max_node_size
      << (param.policy == MergePolicy::kAtEmpty ? " AtEmpty" : " AtHalf")
      << " range" << param.key_range << " seed" << param.seed;
}

class BTreeOracleTest : public ::testing::TestWithParam<PropertyParam> {};

TEST_P(BTreeOracleTest, MatchesStdMapUnderRandomOps) {
  const PropertyParam param = GetParam();
  BTree tree(BTree::Options{param.max_node_size, param.policy});
  std::map<Key, Value> oracle;
  Rng rng(param.seed);
  const int kOps = 6000;
  const bool check_links = param.policy == MergePolicy::kAtHalf;
  for (int i = 0; i < kOps; ++i) {
    Key key = static_cast<Key>(rng.NextBounded(param.key_range));
    uint64_t dice = rng.NextBounded(10);
    if (dice < 5) {  // insert
      Value value = static_cast<Value>(rng.Next() & 0xffff);
      bool fresh = tree.Insert(key, value);
      bool oracle_fresh = oracle.insert_or_assign(key, value).second;
      ASSERT_EQ(fresh, oracle_fresh) << "insert disagreement at op " << i;
    } else if (dice < 8) {  // delete
      bool removed = tree.Delete(key);
      bool oracle_removed = oracle.erase(key) > 0;
      ASSERT_EQ(removed, oracle_removed) << "delete disagreement at op " << i;
    } else {  // search
      auto found = tree.Search(key);
      auto it = oracle.find(key);
      ASSERT_EQ(found.has_value(), it != oracle.end())
          << "search disagreement at op " << i;
      if (found.has_value()) {
        ASSERT_EQ(*found, it->second);
      }
    }
    ASSERT_EQ(tree.size(), oracle.size());
    if (i % 500 == 0) {
      auto result = ValidateTree(tree, {.check_links = check_links});
      ASSERT_TRUE(result) << "op " << i << ": " << result.error;
    }
  }
  auto result = ValidateTree(tree, {.check_links = check_links});
  ASSERT_TRUE(result) << result.error;

  // Full-content comparison through a scan.
  std::vector<std::pair<Key, Value>> entries;
  tree.Scan(std::numeric_limits<Key>::min(), kInfKey - 1, oracle.size() + 1,
            &entries);
  ASSERT_EQ(entries.size(), oracle.size());
  auto it = oracle.begin();
  for (size_t i = 0; i < entries.size(); ++i, ++it) {
    ASSERT_EQ(entries[i].first, it->first);
    ASSERT_EQ(entries[i].second, it->second);
  }
}

INSTANTIATE_TEST_SUITE_P(
    NodeSizesAndPolicies, BTreeOracleTest,
    ::testing::Values(
        PropertyParam{3, MergePolicy::kAtEmpty, 200, 1},
        PropertyParam{4, MergePolicy::kAtEmpty, 500, 2},
        PropertyParam{5, MergePolicy::kAtEmpty, 100, 3},
        PropertyParam{13, MergePolicy::kAtEmpty, 2000, 4},
        PropertyParam{64, MergePolicy::kAtEmpty, 5000, 5},
        PropertyParam{3, MergePolicy::kAtHalf, 200, 6},
        PropertyParam{4, MergePolicy::kAtHalf, 500, 7},
        PropertyParam{5, MergePolicy::kAtHalf, 100, 8},
        PropertyParam{13, MergePolicy::kAtHalf, 2000, 9},
        PropertyParam{64, MergePolicy::kAtHalf, 5000, 10}),
    [](const ::testing::TestParamInfo<PropertyParam>& info) {
      return "N" + std::to_string(info.param.max_node_size) + "_" +
             (info.param.policy == MergePolicy::kAtEmpty ? "AtEmpty"
                                                         : "AtHalf") +
             "_range" + std::to_string(info.param.key_range);
    });

// Sequential key patterns are a classic B-tree edge case generator.
class BTreePatternTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(BTreePatternTest, SequentialInsertThenStridedDelete) {
  auto [node_size, stride] = GetParam();
  BTree tree(BTree::Options{node_size, MergePolicy::kAtEmpty});
  const Key kCount = 2000;
  for (Key k = 0; k < kCount; ++k) ASSERT_TRUE(tree.Insert(k, k));
  for (Key k = 0; k < kCount; k += stride) ASSERT_TRUE(tree.Delete(k));
  auto result = ValidateTree(tree, {.check_links = false});
  ASSERT_TRUE(result) << result.error;
  for (Key k = 0; k < kCount; ++k) {
    ASSERT_EQ(tree.Search(k).has_value(), k % stride != 0) << "key " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Strides, BTreePatternTest,
                         ::testing::Combine(::testing::Values(3, 5, 13),
                                            ::testing::Values(1, 2, 3, 7)));

}  // namespace
}  // namespace cbtree
