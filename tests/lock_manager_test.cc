// FCFS R/W lock-queue semantics: sharing, exclusion, strict FCFS (no reader
// overtaking a queued writer), reader batching, writer-presence tracking,
// the TryAcquire/Enqueue split, and node ids beyond the per-node table.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/lock_manager.h"

namespace cbtree {
namespace {

class LockManagerTest : public ::testing::Test {
 protected:
  LockManagerTest() : locks_([this] { return now_; }) {}

  void Request(NodeId node, LockMode mode, OpId op) {
    locks_.Request(node, mode, op, [this, mode, op] {
      grants_.push_back(std::string(LockModeName(mode)) +
                        std::to_string(op));
    });
  }

  double now_ = 0.0;
  LockManager locks_;
  std::vector<std::string> grants_;
};

TEST_F(LockManagerTest, ReadersShare) {
  Request(1, LockMode::kRead, 1);
  Request(1, LockMode::kRead, 2);
  Request(1, LockMode::kRead, 3);
  EXPECT_EQ(grants_, (std::vector<std::string>{"R1", "R2", "R3"}));
}

TEST_F(LockManagerTest, WriterExcludesReaders) {
  Request(1, LockMode::kWrite, 1);
  Request(1, LockMode::kRead, 2);
  EXPECT_EQ(grants_, (std::vector<std::string>{"W1"}));
  locks_.Release(1, 1);
  EXPECT_EQ(grants_, (std::vector<std::string>{"W1", "R2"}));
}

TEST_F(LockManagerTest, ReaderDoesNotOvertakeQueuedWriter) {
  Request(1, LockMode::kRead, 1);   // granted
  Request(1, LockMode::kWrite, 2);  // queued behind reader
  Request(1, LockMode::kRead, 3);   // must queue behind the writer (FCFS)
  EXPECT_EQ(grants_, (std::vector<std::string>{"R1"}));
  locks_.Release(1, 1);
  EXPECT_EQ(grants_, (std::vector<std::string>{"R1", "W2"}));
  locks_.Release(1, 2);
  EXPECT_EQ(grants_, (std::vector<std::string>{"R1", "W2", "R3"}));
}

TEST_F(LockManagerTest, ReaderBatchGrantedTogether) {
  Request(1, LockMode::kWrite, 1);
  Request(1, LockMode::kRead, 2);
  Request(1, LockMode::kRead, 3);
  Request(1, LockMode::kWrite, 4);
  Request(1, LockMode::kRead, 5);
  locks_.Release(1, 1);
  // Both leading readers go at once; the writer holds back the last reader.
  EXPECT_EQ(grants_, (std::vector<std::string>{"W1", "R2", "R3"}));
  locks_.Release(1, 2);
  EXPECT_EQ(grants_.size(), 3u);
  locks_.Release(1, 3);
  EXPECT_EQ(grants_, (std::vector<std::string>{"W1", "R2", "R3", "W4"}));
  locks_.Release(1, 4);
  EXPECT_EQ(grants_,
            (std::vector<std::string>{"W1", "R2", "R3", "W4", "R5"}));
}

TEST_F(LockManagerTest, WritersQueueInOrder) {
  Request(1, LockMode::kWrite, 1);
  Request(1, LockMode::kWrite, 2);
  Request(1, LockMode::kWrite, 3);
  EXPECT_EQ(grants_, (std::vector<std::string>{"W1"}));
  locks_.Release(1, 1);
  locks_.Release(1, 2);
  EXPECT_EQ(grants_, (std::vector<std::string>{"W1", "W2", "W3"}));
}

TEST_F(LockManagerTest, IndependentNodes) {
  Request(1, LockMode::kWrite, 1);
  Request(2, LockMode::kWrite, 2);
  EXPECT_EQ(grants_, (std::vector<std::string>{"W1", "W2"}));
}

TEST_F(LockManagerTest, HoldsReportsOwnership) {
  Request(1, LockMode::kWrite, 1);
  Request(1, LockMode::kRead, 2);
  EXPECT_TRUE(locks_.Holds(1, 1));
  EXPECT_FALSE(locks_.Holds(1, 2));  // queued, not held
  locks_.Release(1, 1);
  EXPECT_TRUE(locks_.Holds(1, 2));
}

TEST_F(LockManagerTest, TotalHeldTracksGrants) {
  Request(1, LockMode::kRead, 1);
  Request(1, LockMode::kRead, 2);
  Request(2, LockMode::kWrite, 3);
  EXPECT_EQ(locks_.total_held(), 3u);
  locks_.Release(1, 1);
  EXPECT_EQ(locks_.total_held(), 2u);
}

TEST_F(LockManagerTest, NotifyFreedAcceptsIdleNode) {
  Request(1, LockMode::kWrite, 1);
  locks_.Release(1, 1);
  locks_.NotifyNodeFreed(1);  // must not abort
  locks_.NotifyNodeFreed(99);  // unknown node is fine too
}

TEST_F(LockManagerTest, WriterPresenceTimeAverage) {
  locks_.TrackWriterPresence(7);
  now_ = 0.0;
  Request(7, LockMode::kWrite, 1);  // writer present from t=0
  now_ = 4.0;
  locks_.Release(7, 1);  // absent from t=4
  now_ = 10.0;
  EXPECT_NEAR(locks_.TrackedWriterPresence(), 0.4, 1e-12);
}

TEST_F(LockManagerTest, QueuedWriterCountsAsPresent) {
  locks_.TrackWriterPresence(7);
  now_ = 0.0;
  Request(7, LockMode::kRead, 1);
  now_ = 2.0;
  Request(7, LockMode::kWrite, 2);  // queued behind the reader: present
  now_ = 6.0;
  locks_.Release(7, 1);  // writer granted, still present
  now_ = 8.0;
  locks_.Release(7, 2);
  now_ = 10.0;
  // Present on [2, 8) = 6 of 10 time units.
  EXPECT_NEAR(locks_.TrackedWriterPresence(), 0.6, 1e-12);
}

TEST_F(LockManagerTest, ImmediateReaderThenQueuedWriterKeepFcfsOrder) {
  ASSERT_TRUE(locks_.TryAcquire(1, LockMode::kRead, 1));
  // Refused requests change nothing until they are queued.
  EXPECT_FALSE(locks_.TryAcquire(1, LockMode::kWrite, 2));
  EXPECT_EQ(locks_.total_held(), 1u);
  locks_.Enqueue(1, LockMode::kWrite, 2, [this] { grants_.push_back("W2"); });
  // A reader that would be compatible with the holder must not overtake
  // the queued writer.
  EXPECT_FALSE(locks_.TryAcquire(1, LockMode::kRead, 3));
  locks_.Enqueue(1, LockMode::kRead, 3, [this] { grants_.push_back("R3"); });
  EXPECT_TRUE(grants_.empty());
  locks_.Release(1, 1);
  EXPECT_EQ(grants_, (std::vector<std::string>{"W2"}));
  locks_.Release(1, 2);
  EXPECT_EQ(grants_, (std::vector<std::string>{"W2", "R3"}));
  EXPECT_TRUE(locks_.Holds(1, 3));
  locks_.Release(1, 3);
  EXPECT_EQ(locks_.total_held(), 0u);
  EXPECT_TRUE(locks_.TryAcquire(1, LockMode::kWrite, 4));
}

TEST_F(LockManagerTest, NodeIdsAboveAnySeenSoFar) {
  const NodeId high = 1u << 20;
  EXPECT_FALSE(locks_.Holds(high, 1));
  locks_.NotifyNodeFreed(high);  // never locked: nothing to check
  Request(3, LockMode::kWrite, 1);
  Request(high, LockMode::kWrite, 2);
  EXPECT_TRUE(locks_.Holds(3, 1));
  EXPECT_TRUE(locks_.Holds(high, 2));
  EXPECT_FALSE(locks_.Holds(high - 1, 2));
  EXPECT_FALSE(locks_.Holds(high + 1, 2));
  locks_.Release(high, 2);
  locks_.NotifyNodeFreed(high);
  locks_.NotifyNodeFreed(high + 7);
  EXPECT_EQ(grants_, (std::vector<std::string>{"W1", "W2"}));
}

TEST_F(LockManagerTest, GrantCallbacksMayGrowTheTable) {
  // Granted readers request locks on ever higher node ids from inside their
  // callbacks, so the per-node table grows while a batch is being granted.
  Request(1, LockMode::kWrite, 1);
  for (OpId op = 2; op <= 5; ++op) {
    locks_.Request(1, LockMode::kRead, op, [this, op] {
      grants_.push_back("R" + std::to_string(op));
      Request(static_cast<NodeId>(1000 * op), LockMode::kWrite, op);
    });
  }
  Request(1, LockMode::kWrite, 6);
  locks_.Release(1, 1);
  EXPECT_EQ(grants_, (std::vector<std::string>{"W1", "R2", "W2", "R3", "W3",
                                               "R4", "W4", "R5", "W5"}));
  for (OpId op = 2; op <= 5; ++op) {
    EXPECT_TRUE(locks_.Holds(1, op));
    EXPECT_TRUE(locks_.Holds(static_cast<NodeId>(1000 * op), op));
    locks_.Release(1, op);
  }
  EXPECT_EQ(grants_.back(), "W6");
}

TEST(LockManagerDeathTest, ReleaseAboveAnySeenNodeAborts) {
  double now = 0.0;
  LockManager locks([&now] { return now; });
  locks.Request(1, LockMode::kWrite, 7, [] {});
  EXPECT_DEATH(locks.Release(1u << 20, 7), "release on unlocked node");
}

}  // namespace
}  // namespace cbtree
