// End-to-end tests for the sharded, multi-event-loop server: every protocol
// crossed with shard/loop counts, concurrent clients, pipelined same-shard
// batches, and the loop-count-aware drain.
//
// The core oracle is exact: each client records every acked insert and
// delete over its own disjoint key range, and after shutdown the test reads
// the shard trees directly — every surviving key must be in ShardOfKey's
// shard with the value of its last acked insert, and must not appear in any
// other shard (cross-shard leakage is data corruption, not a perf bug).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "ctree/ctree.h"
#include "net/client.h"
#include "net/driver.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/shutdown.h"

namespace cbtree {
namespace net {
namespace {

ServerOptions ShardedOptions(Algorithm algorithm, int shards, int loops) {
  ServerOptions options;
  options.host = "127.0.0.1";
  options.port = 0;  // ephemeral
  options.algorithm = algorithm;
  options.shards = shards;
  options.loops = loops;
  options.workers = 4;
  options.drain_timeout_ms = 10000;
  return options;
}

std::string AlgorithmLabel(Algorithm algorithm) {
  std::string label = AlgorithmFlag(algorithm);
  std::replace(label.begin(), label.end(), '-', '_');
  return label;
}

// (protocol, shards, loops)
using ShardParam = std::tuple<Algorithm, int, int>;

class NetShardTest : public ::testing::TestWithParam<ShardParam> {};

/// Concurrent clients over disjoint key ranges; exact post-hoc shard oracle.
TEST_P(NetShardTest, ConcurrentClientsLandInTheRightShards) {
  const auto [algorithm, shards, loops] = GetParam();
  Server server(ShardedOptions(algorithm, shards, loops));
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  ASSERT_EQ(server.num_shards(), shards);
  ASSERT_EQ(server.num_loops(), loops);

  constexpr int kClients = 3;
  constexpr int kOpsPerClient = 120;
  constexpr Key kRangeStride = 100000;  // disjoint per-client key ranges
  std::atomic<int> failures{0};
  // expected[c]: key -> value after the client's last acked insert/delete
  // (nullopt = acked delete). Disjoint ranges mean no cross-client races on
  // the expectation itself.
  std::vector<std::map<Key, std::optional<Value>>> expected(kClients);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client client;
      std::string err;
      if (!client.Connect("127.0.0.1", server.port(), &err)) {
        failures.fetch_add(1);
        return;
      }
      const Key base = static_cast<Key>(c + 1) * kRangeStride;
      for (int i = 0; i < kOpsPerClient; ++i) {
        Key key = base + static_cast<Key>(i % 40);
        Value value = static_cast<Value>(1000 * c + i);
        switch (i % 4) {
          case 0:
          case 1: {
            std::optional<Status> status = client.Insert(key, value);
            if (!status.has_value()) {
              failures.fetch_add(1);
              return;
            }
            expected[c][key] = value;
            break;
          }
          case 2: {
            // Searches exercise routing without changing the oracle.
            (void)client.Search(key);
            break;
          }
          default: {
            std::optional<Status> status = client.Delete(key);
            if (!status.has_value()) {
              failures.fetch_add(1);
              return;
            }
            expected[c][key] = std::nullopt;
            break;
          }
        }
      }
      client.Close();
    });
  }
  for (std::thread& thread : threads) thread.join();
  ASSERT_EQ(failures.load(), 0);
  server.Shutdown();
  server.CheckAllInvariants();

  // Exact oracle against the quiescent shard trees.
  for (int c = 0; c < kClients; ++c) {
    for (const auto& [key, value] : expected[c]) {
      const int home = ShardOfKey(key, shards);
      std::optional<Value> found = server.tree(home)->Search(key);
      if (value.has_value()) {
        ASSERT_TRUE(found.has_value())
            << "acked insert of key " << key << " missing from shard "
            << home;
        EXPECT_EQ(*found, *value) << "stale value for key " << key;
      } else {
        EXPECT_FALSE(found.has_value())
            << "acked delete of key " << key << " still visible in shard "
            << home;
      }
      for (int other = 0; other < shards; ++other) {
        if (other == home) continue;
        EXPECT_FALSE(server.tree(other)->Search(key).has_value())
            << "key " << key << " leaked into shard " << other
            << " (home is " << home << ")";
      }
    }
  }

  // Summed accounting: every frame any loop received was answered, the
  // per-loop and per-shard breakdowns fold back to the totals, and only
  // live shards hold keys.
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed + stats.rejected + stats.shutdown_rejected,
            stats.requests_received);
  EXPECT_EQ(stats.rejected, 0u);
  uint64_t loop_requests = 0;
  ASSERT_EQ(stats.loops.size(), static_cast<size_t>(loops));
  for (const LoopServerStats& loop : stats.loops) {
    loop_requests += loop.requests_received;
  }
  EXPECT_EQ(loop_requests, stats.requests_received);
  uint64_t shard_executed = 0;
  ASSERT_EQ(stats.shards.size(), static_cast<size_t>(shards));
  for (const ShardServerStats& shard : stats.shards) {
    shard_executed += shard.executed;
  }
  EXPECT_EQ(shard_executed, stats.completed);
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocolsAndTopologies, NetShardTest,
    ::testing::Combine(::testing::Values(Algorithm::kNaiveLockCoupling,
                                         Algorithm::kOptimisticDescent,
                                         Algorithm::kLinkType,
                                         Algorithm::kTwoPhaseLocking,
                                         Algorithm::kOlc),
                       ::testing::Values(1, 4), ::testing::Values(1, 4)),
    [](const ::testing::TestParamInfo<ShardParam>& info) {
      return AlgorithmLabel(std::get<0>(info.param)) + "_s" +
             std::to_string(std::get<1>(info.param)) + "_l" +
             std::to_string(std::get<2>(info.param));
    });

/// A pipelined burst of same-shard keys arrives in one read and must batch
/// into shared tree passes — and still answer every frame exactly once.
TEST(NetShardBatchTest, PipelinedSameShardRequestsShareTreePasses) {
  constexpr int kShards = 4;
  ServerOptions options =
      ShardedOptions(Algorithm::kLinkType, kShards, /*loops=*/1);
  Server server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  // Collect keys that all live in shard 0, then pipeline them in a single
  // write so the server sees them in one buffer drain.
  std::vector<Key> keys;
  for (Key key = 1; keys.size() < 64; ++key) {
    if (ShardOfKey(key, kShards) == 0) keys.push_back(key);
  }
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
  std::string wire;
  for (size_t i = 0; i < keys.size(); ++i) {
    Request request;
    request.op = OpCode::kInsert;
    request.id = i + 1;
    request.key = keys[i];
    request.value = static_cast<Value>(i);
    AppendRequest(request, &wire);
  }
  ASSERT_TRUE(client.SendRaw(wire));
  std::vector<bool> seen(keys.size() + 1, false);
  for (size_t i = 0; i < keys.size(); ++i) {
    Response response;
    ASSERT_TRUE(client.Receive(&response));
    ASSERT_GE(response.id, 1u);
    ASSERT_LE(response.id, keys.size());
    EXPECT_FALSE(seen[response.id]) << "duplicate reply id " << response.id;
    seen[response.id] = true;
    EXPECT_EQ(response.status, Status::kInserted);
  }
  client.Close();
  server.Shutdown();

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, keys.size());
  // The burst was same-shard and arrived together: strictly fewer tree
  // passes than requests, all of them in shard 0.
  EXPECT_LT(stats.shards[0].batches, keys.size());
  EXPECT_GT(stats.batched_requests, 0u);
  EXPECT_EQ(stats.shards[0].executed, keys.size());
  for (int s = 1; s < kShards; ++s) {
    EXPECT_EQ(stats.shards[s].executed, 0u) << "shard " << s;
    EXPECT_EQ(server.tree(s)->size(), 0u) << "shard " << s;
  }
  server.CheckAllInvariants();
}

/// Satellite fix regression: SignalDrain with multiple event loops must
/// neither deadlock nor report done while a loop is still running.
TEST(NetShardTest, MultiLoopSignalDrainStopsEveryLoopExactlyOnce) {
  SignalDrain::Install();
  SignalDrain::ResetForTest();
  ServerOptions options =
      ShardedOptions(Algorithm::kLinkType, /*shards=*/2, /*loops=*/4);
  Server server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  std::thread serving([&] { server.ServeUntil(SignalDrain::wake_fd()); });

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
  EXPECT_EQ(client.Insert(42, 4200), Status::kInserted);

  SignalDrain::Trigger();  // the SIGTERM path
  serving.join();          // deadlocks here if any loop never exits
  EXPECT_FALSE(server.running());
  client.Close();
  SignalDrain::ResetForTest();

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed + stats.rejected + stats.shutdown_rejected,
            stats.requests_received);
  server.CheckAllInvariants();
}

/// The open-loop driver against the full topology: zero lost requests and a
/// per-shard occupancy breakdown that sums to the totals on both sides.
TEST(NetShardTest, DriverOccupancyMatchesServerShards) {
  constexpr int kShards = 4;
  ServerOptions options =
      ShardedOptions(Algorithm::kLinkType, kShards, /*loops=*/2);
  options.preload_items = 1000;
  Server server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  DriveOptions drive;
  drive.host = "127.0.0.1";
  drive.port = server.port();
  drive.lambda = 600.0;
  drive.duration_seconds = 1.0;
  drive.connections = 3;
  drive.key_space = 2000;
  drive.seed = 13;
  drive.shards = kShards;
  DriveReport report = RunDrive(drive);
  ASSERT_TRUE(report.connect_ok) << report.error;

  EXPECT_EQ(report.errors, 0u);
  EXPECT_EQ(report.unanswered, 0u);
  EXPECT_EQ(report.sent, report.completed + report.rejected);
  ASSERT_EQ(report.shard_sent.size(), static_cast<size_t>(kShards));
  uint64_t occ_sent = 0, occ_completed = 0;
  for (int s = 0; s < kShards; ++s) {
    occ_sent += report.shard_sent[s];
    occ_completed += report.shard_completed[s];
  }
  EXPECT_EQ(occ_sent, report.sent);
  EXPECT_EQ(occ_completed, report.completed);

  server.Shutdown();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, report.completed);
  // Client-side and server-side attribution use the same ShardOfKey, so the
  // per-shard executed counts line up exactly on a clean run.
  for (int s = 0; s < kShards; ++s) {
    EXPECT_EQ(stats.shards[s].executed, report.shard_completed[s])
        << "shard " << s;
  }
  server.CheckAllInvariants();
}

}  // namespace
}  // namespace net
}  // namespace cbtree
