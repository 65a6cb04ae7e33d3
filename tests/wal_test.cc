// WAL format and group-commit log writer: encode/decode round-trips, CRC
// rejection, segment naming, and the ShardLog durability contract (dense
// LSNs, WaitDurable watermark, group coalescing, the early flush once no
// appender can join the group, rotation, all three fsync modes, idempotent
// Close).

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "wal/log_writer.h"
#include "wal/wal_format.h"

namespace cbtree {
namespace wal {
namespace {

/// Unique scratch directory, removed (recursively) on scope exit.
class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/cbtree_wal_test_XXXXXX";
    char* made = mkdtemp(tmpl);
    EXPECT_NE(made, nullptr);
    path_ = made != nullptr ? made : "/tmp";
  }
  ~TempDir() {
    std::string cmd = "rm -rf '" + path_ + "'";
    if (std::system(cmd.c_str()) != 0) {
      std::fprintf(stderr, "TempDir cleanup failed: %s\n", path_.c_str());
    }
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(WalFormatTest, Crc32cKnownAnswer) {
  // The canonical CRC32C check vector ("123456789" -> 0xE3069283).
  const char* digits = "123456789";
  EXPECT_EQ(Crc32c(reinterpret_cast<const uint8_t*>(digits), 9), 0xE3069283u);
  // Empty input, and chaining equals one-shot.
  EXPECT_EQ(Crc32c(nullptr, 0), 0u);
  uint32_t chained = Crc32c(reinterpret_cast<const uint8_t*>(digits), 4);
  chained = Crc32c(reinterpret_cast<const uint8_t*>(digits) + 4, 5, chained);
  EXPECT_EQ(chained, 0xE3069283u);
}

TEST(WalFormatTest, RecordRoundTrip) {
  WalRecord record;
  record.type = RecordType::kInsert;
  record.lsn = 42;
  record.key = -7;
  record.value = 1234567890123456789ll;
  std::string wire;
  AppendRecord(record, &wire);
  ASSERT_EQ(wire.size(), kRecordFrameSize);

  WalRecord out;
  size_t consumed = 0;
  ASSERT_EQ(DecodeRecord(reinterpret_cast<const uint8_t*>(wire.data()),
                         wire.size(), &out, &consumed),
            DecodeStatus::kOk);
  EXPECT_EQ(consumed, kRecordFrameSize);
  EXPECT_EQ(out.type, record.type);
  EXPECT_EQ(out.lsn, record.lsn);
  EXPECT_EQ(out.key, record.key);
  EXPECT_EQ(out.value, record.value);
}

TEST(WalFormatTest, EveryTruncationPointNeedsMore) {
  WalRecord record{RecordType::kDelete, 9, 100, 0};
  std::string wire;
  AppendRecord(record, &wire);
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    WalRecord out;
    size_t consumed = 0;
    EXPECT_EQ(DecodeRecord(reinterpret_cast<const uint8_t*>(wire.data()), cut,
                           &out, &consumed),
              DecodeStatus::kNeedMore)
        << "cut at " << cut;
  }
}

TEST(WalFormatTest, CorruptPayloadByteIsRejected) {
  WalRecord record{RecordType::kInsert, 5, 77, 88};
  std::string wire;
  AppendRecord(record, &wire);
  // Flip each payload byte in turn; the CRC must catch every single one.
  for (size_t at = 8; at < wire.size(); ++at) {
    std::string bad = wire;
    bad[at] = static_cast<char>(bad[at] ^ 0x40);
    WalRecord out;
    size_t consumed = 0;
    EXPECT_EQ(DecodeRecord(reinterpret_cast<const uint8_t*>(bad.data()),
                           bad.size(), &out, &consumed),
              DecodeStatus::kError)
        << "flip at " << at;
  }
}

TEST(WalFormatTest, BadLengthPrefixIsError) {
  WalRecord record{RecordType::kInsert, 1, 2, 3};
  std::string wire;
  AppendRecord(record, &wire);
  wire[0] = static_cast<char>(kRecordPayloadSize + 1);
  WalRecord out;
  size_t consumed = 0;
  EXPECT_EQ(DecodeRecord(reinterpret_cast<const uint8_t*>(wire.data()),
                         wire.size(), &out, &consumed),
            DecodeStatus::kError);
}

TEST(WalFormatTest, BadRecordTypeIsError) {
  // Re-encode with a bogus type byte and a CRC that matches it, so only the
  // type check can reject it.
  std::string payload;
  payload.push_back(static_cast<char>(99));
  for (int i = 0; i < 24; ++i) payload.push_back(0);
  std::string wire;
  wire.push_back(static_cast<char>(kRecordPayloadSize));
  for (int i = 0; i < 3; ++i) wire.push_back(0);
  uint32_t crc = Crc32c(reinterpret_cast<const uint8_t*>(payload.data()),
                        payload.size());
  for (int i = 0; i < 4; ++i) {
    wire.push_back(static_cast<char>((crc >> (8 * i)) & 0xff));
  }
  wire += payload;
  ASSERT_EQ(wire.size(), kRecordFrameSize);
  WalRecord out;
  size_t consumed = 0;
  EXPECT_EQ(DecodeRecord(reinterpret_cast<const uint8_t*>(wire.data()),
                         wire.size(), &out, &consumed),
            DecodeStatus::kError);
}

TEST(WalFormatTest, SegmentHeaderRoundTripAndCorruption) {
  SegmentHeader header;
  header.shard = 3;
  header.start_lsn = 1000;
  std::string wire;
  AppendSegmentHeader(header, &wire);
  ASSERT_EQ(wire.size(), kSegmentHeaderSize);

  SegmentHeader out;
  ASSERT_EQ(DecodeSegmentHeader(reinterpret_cast<const uint8_t*>(wire.data()),
                                wire.size(), &out),
            DecodeStatus::kOk);
  EXPECT_EQ(out.version, kSegmentVersion);
  EXPECT_EQ(out.shard, 3u);
  EXPECT_EQ(out.start_lsn, 1000u);

  for (size_t cut = 0; cut < wire.size(); ++cut) {
    EXPECT_EQ(DecodeSegmentHeader(
                  reinterpret_cast<const uint8_t*>(wire.data()), cut, &out),
              DecodeStatus::kNeedMore);
  }
  for (size_t at = 0; at < wire.size(); ++at) {
    std::string bad = wire;
    bad[at] = static_cast<char>(bad[at] ^ 0x01);
    EXPECT_EQ(DecodeSegmentHeader(reinterpret_cast<const uint8_t*>(bad.data()),
                                  bad.size(), &out),
              DecodeStatus::kError)
        << "flip at " << at;
  }
}

TEST(WalFormatTest, SegmentFileNames) {
  EXPECT_EQ(SegmentFileName(1), "wal-00000000000000000001.seg");
  uint64_t lsn = 0;
  EXPECT_TRUE(ParseSegmentFileName("wal-00000000000000000001.seg", &lsn));
  EXPECT_EQ(lsn, 1u);
  EXPECT_TRUE(ParseSegmentFileName(SegmentFileName(18446744073709551615ull),
                                   &lsn));
  EXPECT_EQ(lsn, 18446744073709551615ull);
  EXPECT_FALSE(ParseSegmentFileName("wal-1.seg", &lsn));
  EXPECT_FALSE(ParseSegmentFileName("wal-0000000000000000000x.seg", &lsn));
  EXPECT_FALSE(ParseSegmentFileName("wal-00000000000000000001.tmp", &lsn));
  EXPECT_FALSE(ParseSegmentFileName("00000000000000000001.seg", &lsn));
  EXPECT_FALSE(ParseSegmentFileName("", &lsn));
}

WalOptions TestOptions(const std::string& dir, FsyncMode mode) {
  WalOptions options;
  options.dir = dir;
  options.shard = 0;
  options.fsync = mode;
  options.group_commit_us = 50;
  return options;
}

TEST(ShardLogTest, AppendAssignsDenseLsnsAndWaitDurableCovers) {
  TempDir tmp;
  std::string error;
  auto log = ShardLog::Open(TestOptions(tmp.path(), FsyncMode::kData), &error);
  ASSERT_NE(log, nullptr) << error;

  for (uint64_t i = 1; i <= 100; ++i) {
    EXPECT_EQ(log->AppendInsert(static_cast<Key>(i), 0), i);
  }
  EXPECT_EQ(log->ThreadLastLsn(), 100u);
  log->WaitDurable(100);
  EXPECT_GE(log->DurableLsn(), 100u);
  EXPECT_EQ(log->stats().appends.load(), 100u);
  // Group commit coalesces: strictly fewer flushes than appends, and under
  // fsync=data every group costs exactly one fdatasync.
  EXPECT_GT(log->stats().groups.load(), 0u);
  EXPECT_LE(log->stats().groups.load(), 100u);
  EXPECT_EQ(log->stats().fsyncs.load(), log->stats().groups.load());
  log->Close();
}

TEST(ShardLogTest, AllFsyncModesReachDurability) {
  for (FsyncMode mode : {FsyncMode::kOff, FsyncMode::kData, FsyncMode::kFull}) {
    TempDir tmp;
    std::string error;
    auto log = ShardLog::Open(TestOptions(tmp.path(), mode), &error);
    ASSERT_NE(log, nullptr) << error;
    uint64_t last = 0;
    for (int i = 0; i < 10; ++i) last = log->AppendInsert(i, i);
    log->WaitDurable(last);
    EXPECT_GE(log->DurableLsn(), last);
    if (mode == FsyncMode::kOff) {
      EXPECT_EQ(log->stats().fsyncs.load(), 0u);
    } else {
      EXPECT_GT(log->stats().fsyncs.load(), 0u);
    }
    log->Close();
  }
}

TEST(ShardLogTest, ConcurrentAppendersGetUniqueDenseLsns) {
  TempDir tmp;
  std::string error;
  auto log = ShardLog::Open(TestOptions(tmp.path(), FsyncMode::kOff), &error);
  ASSERT_NE(log, nullptr) << error;

  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::vector<std::vector<uint64_t>> lsns(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        uint64_t lsn = (i % 5 == 0) ? log->AppendDelete(t * kPerThread + i)
                                    : log->AppendInsert(t * kPerThread + i, i);
        lsns[t].push_back(lsn);
        // Each thread's own LSNs are strictly increasing, and the TLS mirror
        // tracks the latest one.
        EXPECT_EQ(log->ThreadLastLsn(), lsn);
      }
      log->WaitDurable(log->ThreadLastLsn());
    });
  }
  for (auto& thread : threads) thread.join();

  std::vector<uint64_t> all;
  for (const auto& per_thread : lsns) {
    all.insert(all.end(), per_thread.begin(), per_thread.end());
  }
  std::sort(all.begin(), all.end());
  ASSERT_EQ(all.size(), static_cast<size_t>(kThreads * kPerThread));
  for (size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i], i + 1) << "LSN sequence must be dense from 1";
  }
  EXPECT_EQ(log->stats().appends.load(),
            static_cast<uint64_t>(kThreads * kPerThread));
  log->Close();
}

TEST(ShardLogTest, SegmentRotationSplitsTheLog) {
  TempDir tmp;
  std::string error;
  WalOptions options = TestOptions(tmp.path(), FsyncMode::kOff);
  // Tiny segments: every few records force a rotation.
  options.segment_bytes = 4 * kRecordFrameSize;
  auto log = ShardLog::Open(options, &error);
  ASSERT_NE(log, nullptr) << error;
  uint64_t last = 0;
  for (int i = 0; i < 100; ++i) last = log->AppendInsert(i, i);
  log->WaitDurable(last);
  log->Close();
  EXPECT_GT(log->stats().rotations.load(), 10u);
}

TEST(ShardLogTest, StartLsnContinuesSequence) {
  TempDir tmp;
  std::string error;
  WalOptions options = TestOptions(tmp.path(), FsyncMode::kOff);
  options.start_lsn = 501;
  auto log = ShardLog::Open(options, &error);
  ASSERT_NE(log, nullptr) << error;
  EXPECT_EQ(log->AppendInsert(1, 1), 501u);
  EXPECT_EQ(log->AppendInsert(2, 2), 502u);
  log->Close();
}

TEST(ShardLogTest, CloseIsIdempotentAndFlushes) {
  TempDir tmp;
  std::string error;
  auto log = ShardLog::Open(TestOptions(tmp.path(), FsyncMode::kData), &error);
  ASSERT_NE(log, nullptr) << error;
  uint64_t last = 0;
  for (int i = 0; i < 32; ++i) last = log->AppendInsert(i, i);
  log->Close();
  EXPECT_GE(log->DurableLsn(), last) << "Close must flush the buffered tail";
  log->Close();  // second Close is a no-op
}

TEST(ShardLogTest, SyncAllCoversEveryThread) {
  TempDir tmp;
  std::string error;
  auto log = ShardLog::Open(TestOptions(tmp.path(), FsyncMode::kData), &error);
  ASSERT_NE(log, nullptr) << error;
  std::atomic<uint64_t> max_lsn{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 100; ++i) {
        uint64_t lsn = log->AppendInsert(i, i);
        uint64_t seen = max_lsn.load();
        while (lsn > seen && !max_lsn.compare_exchange_weak(seen, lsn)) {
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  log->SyncAll();
  EXPECT_GE(log->DurableLsn(), max_lsn.load());
  log->Close();
}

// A window far longer than any flush, so whether a group waited it out or
// flushed early is unambiguous even on a slow or sanitized build.
constexpr uint32_t kLongWindowUs = 200'000;

WalOptions LongWindowOptions(const std::string& dir) {
  WalOptions options = TestOptions(dir, FsyncMode::kOff);
  options.group_commit_us = kLongWindowUs;
  return options;
}

double ElapsedUs(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - since)
      .count();
}

TEST(ShardLogTest, LoneAppenderFlushesFarInsideTheWindow) {
  TempDir tmp;
  std::string error;
  auto log = ShardLog::Open(LongWindowOptions(tmp.path()), &error);
  ASSERT_NE(log, nullptr) << error;
  // The only appender blocks on its own record: nothing can join the
  // group, so the writer must not sleep out the window.
  for (int i = 0; i < 3; ++i) {
    const auto start = std::chrono::steady_clock::now();
    log->WaitDurable(log->AppendInsert(i, i));
    EXPECT_LT(ElapsedUs(start), kLongWindowUs / 2) << "append " << i;
  }
  EXPECT_EQ(log->stats().groups.load(), 3u);
  EXPECT_EQ(log->stats().max_group.load(), 1u);
  log->Close();
}

TEST(ShardLogTest, RunningAppenderKeepsTheWindowOpen) {
  TempDir tmp;
  std::string error;
  auto log = ShardLog::Open(LongWindowOptions(tmp.path()), &error);
  ASSERT_NE(log, nullptr) << error;
  std::atomic<bool> appended{false};
  std::atomic<bool> release{false};
  std::thread other([&] {
    const uint64_t lsn = log->AppendInsert(1, 1);
    appended.store(true);
    // Still running, not waiting: the group must stay open for it.
    while (!release.load()) std::this_thread::yield();
    log->WaitDurable(lsn);
  });
  while (!appended.load()) std::this_thread::yield();
  const uint64_t groups_before = log->stats().groups.load();
  log->WaitDurable(log->AppendInsert(2, 2));
  EXPECT_EQ(log->stats().groups.load(), groups_before + 1);
  EXPECT_EQ(log->stats().max_group.load(), 2u)
      << "both records must land in one group";
  release.store(true);
  other.join();
  log->Close();
}

TEST(ShardLogTest, AppenderThatNeverWaitsKeepsTheFullWindow) {
  TempDir tmp;
  std::string error;
  auto log = ShardLog::Open(LongWindowOptions(tmp.path()), &error);
  ASSERT_NE(log, nullptr) << error;
  const auto start = std::chrono::steady_clock::now();
  const uint64_t lsn = log->AppendInsert(1, 1);
  // A waiter that never appended does not seal the group: the appender
  // (this thread) is still running, so the writer waits out the window.
  std::thread waiter([&] { log->WaitDurable(lsn); });
  waiter.join();
  EXPECT_GE(ElapsedUs(start), kLongWindowUs * 0.9);
  EXPECT_GE(log->DurableLsn(), lsn);
  log->Close();
}

TEST(ShardLogTest, OneThreadOverTwoLogsOutlivesEither) {
  TempDir tmp_a;
  TempDir tmp_b;
  std::string error;
  auto log_a = ShardLog::Open(LongWindowOptions(tmp_a.path()), &error);
  ASSERT_NE(log_a, nullptr) << error;
  auto log_b = ShardLog::Open(LongWindowOptions(tmp_b.path()), &error);
  ASSERT_NE(log_b, nullptr) << error;
  // The server's preload shape: one thread appends to every log in turn,
  // then syncs each. No log may stay "open" for this thread afterwards.
  for (int i = 0; i < 10; ++i) {
    log_a->AppendInsert(i, i);
    log_b->AppendInsert(i, i);
  }
  log_a->SyncAll();
  log_b->SyncAll();
  // Destroying one log must leave nothing behind that the other (or this
  // thread) touches later.
  log_a.reset();
  EXPECT_EQ(log_b->ThreadLastLsn(), 10u);
  const auto start = std::chrono::steady_clock::now();
  log_b->WaitDurable(log_b->AppendInsert(100, 100));
  EXPECT_LT(ElapsedUs(start), kLongWindowUs / 2);
  std::thread stranger([&] {
    // A thread that never touched log_a appends to and waits on log_b.
    const auto started = std::chrono::steady_clock::now();
    log_b->WaitDurable(log_b->AppendInsert(200, 200));
    EXPECT_LT(ElapsedUs(started), kLongWindowUs / 2);
  });
  stranger.join();
  log_b.reset();
}

TEST(ShardLogTest, OpenFailsOnUnwritableDirectory) {
  std::string error;
  WalOptions options = TestOptions("/proc/cbtree-no-such-dir/wal", //
                                   FsyncMode::kOff);
  auto log = ShardLog::Open(options, &error);
  EXPECT_EQ(log, nullptr);
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace wal
}  // namespace cbtree
