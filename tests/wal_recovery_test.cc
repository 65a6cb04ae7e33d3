// Crash-recovery scan: round-trips through ShardLog, torn-tail truncation,
// the hard-failure taxonomy (corrupt header, wrong shard, LSN gaps),
// streaming at the edges of the read buffer (checked against a whole-file
// decode of the same bytes), and the
// full tree integration — log under each retention policy, recover into a
// fresh tree, and verify state equality plus CheckInvariants.

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "ctree/ctree.h"
#include "stats/rng.h"
#include "wal/log_writer.h"
#include "wal/recovery.h"
#include "wal/wal_format.h"

namespace cbtree {
namespace wal {
namespace {

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/cbtree_wal_rec_XXXXXX";
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

std::string FirstSegmentPath(const std::string& dir) {
  return dir + "/" + SegmentFileName(1);
}

/// Appends raw bytes to a file (simulating a torn write after a crash).
void AppendBytes(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

/// Flips one byte at `offset` in `path`.
void FlipByte(const std::string& path, long offset) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  std::fputc(c ^ 0x20, f);
  std::fclose(f);
}

long FileSize(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return -1;
  return static_cast<long>(st.st_size);
}

/// Writes `count` records through a real ShardLog and closes it, leaving a
/// clean on-disk log whose record i is insert(key=i+1, value=2*(i+1)).
void WriteCleanLog(const std::string& dir, int count,
                   uint64_t segment_bytes = 64ull << 20) {
  WalOptions options;
  options.dir = dir;
  options.shard = 0;
  options.fsync = FsyncMode::kOff;
  options.group_commit_us = 0;
  options.segment_bytes = segment_bytes;
  std::string error;
  auto log = ShardLog::Open(options, &error);
  ASSERT_NE(log, nullptr) << error;
  for (int i = 1; i <= count; ++i) {
    log->AppendInsert(static_cast<Key>(i), static_cast<Value>(2 * i));
  }
  log->Close();
}

TEST(RecoveryTest, MissingDirectoryRecoversEmpty) {
  TempDir tmp;
  RecoveryResult result = RecoverShard(tmp.path() + "/nonexistent", 0,
                                       [](const WalRecord&) { FAIL(); });
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.records, 0u);
  EXPECT_EQ(result.segments, 0u);
  EXPECT_EQ(result.max_lsn, 0u);
}

TEST(RecoveryTest, RoundTripReplaysInLsnOrder) {
  TempDir tmp;
  WriteCleanLog(tmp.path(), 200);
  uint64_t expected_lsn = 1;
  RecoveryResult result =
      RecoverShard(tmp.path(), 0, [&](const WalRecord& record) {
        EXPECT_EQ(record.lsn, expected_lsn++);
        EXPECT_EQ(record.type, RecordType::kInsert);
        EXPECT_EQ(record.key, static_cast<Key>(record.lsn));
        EXPECT_EQ(record.value, static_cast<Value>(2 * record.lsn));
      });
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.records, 200u);
  EXPECT_EQ(result.max_lsn, 200u);
  EXPECT_EQ(result.truncated_bytes, 0u);
}

TEST(RecoveryTest, MultiSegmentLogRecoversAcrossRotations) {
  TempDir tmp;
  // ~6 records per segment: 100 records spread over many files.
  WriteCleanLog(tmp.path(), 100, 6 * kRecordFrameSize);
  uint64_t count = 0;
  RecoveryResult result = RecoverShard(
      tmp.path(), 0, [&](const WalRecord&) { ++count; });
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.records, 100u);
  EXPECT_EQ(count, 100u);
  EXPECT_GT(result.segments, 5u);
}

TEST(RecoveryTest, TornTailIsTruncatedAndRecoverySucceeds) {
  TempDir tmp;
  WriteCleanLog(tmp.path(), 10);
  const std::string segment = FirstSegmentPath(tmp.path());
  const long clean_size = FileSize(segment);
  ASSERT_GT(clean_size, 0);
  // Simulate a crash mid-append: half a record of valid-looking bytes.
  WalRecord torn{RecordType::kInsert, 11, 999, 999};
  std::string tail;
  AppendRecord(torn, &tail);
  tail.resize(kRecordFrameSize / 2);
  AppendBytes(segment, tail);

  uint64_t count = 0;
  RecoveryResult result =
      RecoverShard(tmp.path(), 0, [&](const WalRecord&) { ++count; });
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.records, 10u);
  EXPECT_EQ(count, 10u);
  EXPECT_EQ(result.truncated_bytes, tail.size());
  // The file was repaired in place: the torn bytes are gone, so a second
  // recovery is clean and a new writer appends to a valid tail.
  EXPECT_EQ(FileSize(segment), clean_size);
  RecoveryResult again =
      RecoverShard(tmp.path(), 0, [](const WalRecord&) {});
  EXPECT_TRUE(again.ok);
  EXPECT_EQ(again.truncated_bytes, 0u);
}

TEST(RecoveryTest, CorruptRecordTruncatesFromThatPoint) {
  TempDir tmp;
  WriteCleanLog(tmp.path(), 10);
  const std::string segment = FirstSegmentPath(tmp.path());
  // Flip a payload byte of record 6 (frames start after the header).
  const long offset = static_cast<long>(kSegmentHeaderSize) +
                      5 * static_cast<long>(kRecordFrameSize) + 12;
  FlipByte(segment, offset);
  uint64_t count = 0;
  RecoveryResult result =
      RecoverShard(tmp.path(), 0, [&](const WalRecord&) { ++count; });
  // Only the prefix before the damage survives; the rest was never acked
  // with a valid CRC so dropping it is sound.
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.records, 5u);
  EXPECT_EQ(count, 5u);
  EXPECT_EQ(result.max_lsn, 5u);
  EXPECT_GT(result.truncated_bytes, 0u);
}

TEST(RecoveryTest, CorruptHeaderFailsLoudly) {
  TempDir tmp;
  WriteCleanLog(tmp.path(), 5);
  FlipByte(FirstSegmentPath(tmp.path()), 2);  // inside the magic
  RecoveryResult result =
      RecoverShard(tmp.path(), 0, [](const WalRecord&) {});
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.error.empty());
}

TEST(RecoveryTest, WrongShardFailsLoudly) {
  TempDir tmp;
  WriteCleanLog(tmp.path(), 5);
  RecoveryResult result =
      RecoverShard(tmp.path(), 7, [](const WalRecord&) {});
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.error.empty());
}

TEST(RecoveryTest, LsnGapBetweenSegmentsFailsLoudly) {
  TempDir tmp;
  WriteCleanLog(tmp.path(), 20, 6 * kRecordFrameSize);
  // Unlink a middle segment: recovery must refuse to skip committed LSNs.
  RecoveryResult before = RecoverShard(tmp.path(), 0, [](const WalRecord&) {});
  ASSERT_TRUE(before.ok);
  ASSERT_GT(before.segments, 2u);
  // A fresh segment fits 5 records (the header takes 28 of the 198 bytes),
  // so the second segment starts at LSN 6.
  ASSERT_EQ(::unlink((tmp.path() + "/" + SegmentFileName(6)).c_str()), 0);
  RecoveryResult result =
      RecoverShard(tmp.path(), 0, [](const WalRecord&) {});
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.error.empty());
}

TEST(RecoveryTest, SegmentsAfterTornTailAreDropped) {
  TempDir tmp;
  WriteCleanLog(tmp.path(), 20, 6 * kRecordFrameSize);
  // Corrupt a record in the SECOND segment (starts at LSN 6: a fresh
  // segment fits 5 records); the third+ segments hold LSNs after the damage
  // and must be unlinked, not replayed.
  FlipByte(tmp.path() + "/" + SegmentFileName(6),
           static_cast<long>(kSegmentHeaderSize) + 10);
  RecoveryResult result =
      RecoverShard(tmp.path(), 0, [](const WalRecord&) {});
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.records, 5u);
  EXPECT_EQ(result.max_lsn, 5u);
  EXPECT_GT(result.truncated_bytes, 0u);
  // A fresh writer at max_lsn+1 then a re-recovery must be seamless.
  WalOptions options;
  options.dir = tmp.path();
  options.shard = 0;
  options.fsync = FsyncMode::kOff;
  options.group_commit_us = 0;
  options.start_lsn = result.max_lsn + 1;
  std::string error;
  auto log = ShardLog::Open(options, &error);
  ASSERT_NE(log, nullptr) << error;
  log->AppendInsert(1000, 1000);
  log->Close();
  uint64_t max_lsn = 0;
  RecoveryResult after =
      RecoverShard(tmp.path(), 0,
                   [&](const WalRecord& record) { max_lsn = record.lsn; });
  EXPECT_TRUE(after.ok) << after.error;
  EXPECT_EQ(after.records, 6u);
  EXPECT_EQ(max_lsn, 6u);
}

std::string ReadFile(const std::string& path) {
  std::string out;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return out;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

/// What decoding one whole segment held in memory yields: the reference
/// the streaming reader must match on the same bytes.
struct WholeFileScan {
  uint64_t records = 0;
  uint64_t max_lsn = 0;
  uint64_t truncated_bytes = 0;
};

WholeFileScan ScanWholeSegment(const std::string& bytes) {
  WholeFileScan scan;
  const auto* data = reinterpret_cast<const uint8_t*>(bytes.data());
  size_t offset = kSegmentHeaderSize;
  while (offset < bytes.size()) {
    WalRecord record;
    size_t consumed = 0;
    if (DecodeRecord(data + offset, bytes.size() - offset, &record,
                     &consumed) != DecodeStatus::kOk) {
      scan.truncated_bytes = bytes.size() - offset;
      break;
    }
    ++scan.records;
    scan.max_lsn = record.lsn;
    offset += consumed;
  }
  return scan;
}

/// Recovers a one-segment log holding exactly `bytes` and checks the
/// result, and the repaired file, against the whole-file scan.
void ExpectStreamingMatchesWholeFile(const std::string& bytes,
                                     const std::string& label) {
  TempDir tmp;
  const std::string segment = FirstSegmentPath(tmp.path());
  WriteFile(segment, bytes);
  const WholeFileScan expected = ScanWholeSegment(bytes);
  uint64_t applied = 0;
  RecoveryResult result =
      RecoverShard(tmp.path(), 0, [&](const WalRecord& record) {
        EXPECT_EQ(record.lsn, ++applied) << label;
      });
  ASSERT_TRUE(result.ok) << label << ": " << result.error;
  EXPECT_EQ(result.records, expected.records) << label;
  EXPECT_EQ(result.max_lsn, expected.max_lsn) << label;
  EXPECT_EQ(result.truncated_bytes, expected.truncated_bytes) << label;
  EXPECT_EQ(static_cast<uint64_t>(FileSize(segment)),
            bytes.size() - expected.truncated_bytes)
      << label;
}

/// Bytes of a clean one-segment log of `count` records.
std::string CleanSegmentBytes(int count) {
  TempDir tmp;
  WriteCleanLog(tmp.path(), count);
  return ReadFile(FirstSegmentPath(tmp.path()));
}

// Frames are 33 bytes and the buffer 64 KiB, so record boundaries and
// buffer boundaries never line up: some record always straddles a refill.
static_assert(kRecoveryReadBytes % kRecordFrameSize != 0);

TEST(RecoveryStreamingTest, MultiBufferSegmentMatchesWholeFile) {
  // Just over three buffers of records.
  const int count =
      static_cast<int>(3 * kRecoveryReadBytes / kRecordFrameSize) + 7;
  const std::string bytes = CleanSegmentBytes(count);
  ASSERT_GT(bytes.size(), 3 * kRecoveryReadBytes);
  ExpectStreamingMatchesWholeFile(bytes, "clean");
}

TEST(RecoveryStreamingTest, TornTailAroundBufferBoundariesMatchesWholeFile) {
  const int count =
      static_cast<int>(2 * kRecoveryReadBytes / kRecordFrameSize) + 50;
  const std::string bytes = CleanSegmentBytes(count);
  ASSERT_GT(bytes.size(), 2 * kRecoveryReadBytes + kRecordFrameSize);
  // The first read ends inside the frame that starts at `carried`; the
  // reader moves that frame's prefix to the front of the buffer, so the
  // second read ends one buffer past `carried`. Cut the file at, just
  // before and just past both ends.
  const size_t carried =
      kSegmentHeaderSize +
      (kRecoveryReadBytes - kSegmentHeaderSize) / kRecordFrameSize *
          kRecordFrameSize;
  for (size_t boundary : {kRecoveryReadBytes, carried + kRecoveryReadBytes}) {
    for (size_t cut = boundary - kRecordFrameSize;
         cut <= boundary + kRecordFrameSize; ++cut) {
      ExpectStreamingMatchesWholeFile(bytes.substr(0, cut),
                                      "cut at " + std::to_string(cut));
    }
  }
}

TEST(RecoveryStreamingTest, CorruptRecordStraddlingABoundaryMatchesWholeFile) {
  const int count =
      static_cast<int>(kRecoveryReadBytes / kRecordFrameSize) + 20;
  const std::string bytes = CleanSegmentBytes(count);
  // The record that straddles the first buffer boundary.
  const size_t straddler =
      (kRecoveryReadBytes - kSegmentHeaderSize) / kRecordFrameSize;
  const size_t start = kSegmentHeaderSize + straddler * kRecordFrameSize;
  ASSERT_LT(start, kRecoveryReadBytes);
  ASSERT_GT(start + kRecordFrameSize, kRecoveryReadBytes);
  // Flip a byte on either side of the boundary; both must truncate there.
  for (size_t at : {start + 4, start + kRecordFrameSize - 1}) {
    std::string bad = bytes;
    bad[at] = static_cast<char>(bad[at] ^ 0x20);
    ExpectStreamingMatchesWholeFile(bad, "flip at " + std::to_string(at));
  }
}

TEST(RecoveryStreamingTest, MultiSegmentLogOfMultiBufferSegments) {
  TempDir tmp;
  // Three and a bit segments, each longer than two read buffers.
  const uint64_t segment_bytes = 2 * kRecoveryReadBytes + 1000;
  const int count = static_cast<int>(3 * segment_bytes / kRecordFrameSize) + 9;
  WriteCleanLog(tmp.path(), count, segment_bytes);
  uint64_t applied = 0;
  RecoveryResult result =
      RecoverShard(tmp.path(), 0, [&](const WalRecord& record) {
        EXPECT_EQ(record.lsn, ++applied);
        EXPECT_EQ(record.key, static_cast<Key>(record.lsn));
      });
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.segments, 4u);
  EXPECT_EQ(result.records, static_cast<uint64_t>(count));
  EXPECT_EQ(result.max_lsn, static_cast<uint64_t>(count));
  EXPECT_EQ(result.truncated_bytes, 0u);
}

/// WalBinding over a real ShardLog, as the server wires it.
class LogBinding : public WalBinding {
 public:
  explicit LogBinding(ShardLog* log) : log_(log) {}
  uint64_t LogInsert(Key key, Value value) override {
    return log_->AppendInsert(key, value);
  }
  uint64_t LogDelete(Key key) override { return log_->AppendDelete(key); }
  void WaitDurable(uint64_t lsn) override { log_->WaitDurable(lsn); }

 private:
  ShardLog* log_;
};

class WalTreeIntegrationTest
    : public ::testing::TestWithParam<std::tuple<Algorithm, RecoveryPolicy>> {
};

TEST_P(WalTreeIntegrationTest, MutationsReplayIntoIdenticalTree) {
  const Algorithm algorithm = std::get<0>(GetParam());
  const RecoveryPolicy retention = std::get<1>(GetParam());
  TempDir tmp;

  WalOptions options;
  options.dir = tmp.path();
  options.shard = 0;
  options.fsync = FsyncMode::kOff;
  options.group_commit_us = 20;
  std::string error;
  auto log = ShardLog::Open(options, &error);
  ASSERT_NE(log, nullptr) << error;
  LogBinding binding(log.get());

  auto tree = MakeConcurrentBTree(algorithm, 8);
  tree->BindWal(&binding, retention);

  // A mixed workload with enough churn to split nodes and delete keys.
  std::map<Key, Value> oracle;
  Rng mix(12345);
  for (int i = 0; i < 3000; ++i) {
    Key key = static_cast<Key>(mix.NextBounded(800) + 1);
    if (mix.NextBounded(4) == 0) {
      tree->Delete(key);
      oracle.erase(key);
    } else {
      Value value = static_cast<Value>(i);
      tree->Insert(key, value);
      oracle[key] = value;
    }
  }
  tree->CheckInvariants();
  log->Close();

  // Replay into a fresh tree and compare against the oracle.
  auto replayed = MakeConcurrentBTree(algorithm, 8);
  RecoveryResult result =
      RecoverShard(tmp.path(), 0, [&](const WalRecord& record) {
        if (record.type == RecordType::kInsert) {
          replayed->Insert(record.key, record.value);
        } else {
          replayed->Delete(record.key);
        }
      });
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_GT(result.records, 0u);
  replayed->CheckInvariants();
  EXPECT_EQ(replayed->size(), oracle.size());
  for (const auto& [key, value] : oracle) {
    auto found = replayed->Search(key);
    ASSERT_TRUE(found.has_value()) << "lost key " << key;
    EXPECT_EQ(*found, value);
  }
  for (Key key = 1; key <= 800; ++key) {
    if (oracle.count(key) == 0) {
      EXPECT_FALSE(replayed->Search(key).has_value())
          << "resurrected key " << key;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocolsAllPolicies, WalTreeIntegrationTest,
    ::testing::Combine(::testing::Values(Algorithm::kNaiveLockCoupling,
                                         Algorithm::kOptimisticDescent,
                                         Algorithm::kLinkType,
                                         Algorithm::kTwoPhaseLocking,
                                         Algorithm::kOlc),
                       ::testing::Values(RecoveryPolicy::kNone,
                                         RecoveryPolicy::kLeafOnly,
                                         RecoveryPolicy::kNaive)));

}  // namespace
}  // namespace wal
}  // namespace cbtree
