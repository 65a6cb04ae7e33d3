#include "wal/recovery.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <vector>

namespace cbtree {
namespace wal {
namespace {

struct SegmentRef {
  uint64_t start_lsn = 0;
  std::string path;
};

bool ListSegments(const std::string& dir, std::vector<SegmentRef>* out,
                  std::string* error) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    if (errno == ENOENT) return true;  // nothing logged yet
    *error = "wal: cannot open " + dir + ": " + std::strerror(errno);
    return false;
  }
  while (dirent* entry = ::readdir(d)) {
    uint64_t start_lsn = 0;
    const std::string name = entry->d_name;
    if (!ParseSegmentFileName(name, &start_lsn)) continue;
    SegmentRef ref;
    ref.start_lsn = start_lsn;
    ref.path = dir + "/" + name;
    out->push_back(std::move(ref));
  }
  ::closedir(d);
  std::sort(out->begin(), out->end(),
            [](const SegmentRef& a, const SegmentRef& b) {
              return a.start_lsn < b.start_lsn;
            });
  return true;
}

// Streams one segment file through a fixed, caller-owned buffer, so
// recovery memory stays constant however long the log is. A frame cut by
// the end of one read moves to the front of the buffer before the next read
// completes it.
class SegmentReader {
 public:
  explicit SegmentReader(std::vector<uint8_t>* buffer) : buffer_(buffer) {}
  ~SegmentReader() {
    if (fd_ >= 0) ::close(fd_);
  }
  SegmentReader(const SegmentReader&) = delete;
  SegmentReader& operator=(const SegmentReader&) = delete;

  bool Open(const std::string& path, std::string* error) {
    path_ = path;
    fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    struct stat st;
    if (fd_ < 0 || ::fstat(fd_, &st) != 0) {
      *error = "wal: cannot read " + path + ": " + std::strerror(errno);
      return false;
    }
    size_ = static_cast<uint64_t>(st.st_size);
    return true;
  }

  /// Buffers at least `want` unconsumed bytes, or all that remain.
  bool Fill(size_t want, std::string* error) {
    if (available() >= want || eof_) return true;
    std::memmove(buffer_->data(), buffer_->data() + begin_, available());
    end_ -= begin_;
    begin_ = 0;
    while (end_ < buffer_->size()) {
      const ssize_t n =
          ::read(fd_, buffer_->data() + end_, buffer_->size() - end_);
      if (n < 0) {
        if (errno == EINTR) continue;
        *error = "wal: read error on " + path_;
        return false;
      }
      if (n == 0) {
        eof_ = true;
        break;
      }
      end_ += static_cast<size_t>(n);
    }
    return true;
  }

  const uint8_t* data() const { return buffer_->data() + begin_; }
  size_t available() const { return end_ - begin_; }
  void Consume(size_t n) {
    begin_ += n;
    offset_ += n;
  }
  /// File offset of data().
  uint64_t offset() const { return offset_; }
  /// File size when opened.
  uint64_t size() const { return size_; }

 private:
  std::vector<uint8_t>* buffer_;
  std::string path_;
  int fd_ = -1;
  uint64_t size_ = 0;
  uint64_t offset_ = 0;
  size_t begin_ = 0;
  size_t end_ = 0;
  bool eof_ = false;
};

RecoveryResult Fail(std::string message) {
  RecoveryResult result;
  result.ok = false;
  result.error = std::move(message);
  return result;
}

}  // namespace

RecoveryResult RecoverShard(
    const std::string& dir, uint32_t shard,
    const std::function<void(const WalRecord&)>& apply) {
  RecoveryResult result;
  std::vector<SegmentRef> segments;
  std::string error;
  if (!ListSegments(dir, &segments, &error)) return Fail(std::move(error));

  uint64_t expected_lsn = 0;  // 0: not pinned yet (first segment sets it)
  bool tail_torn = false;
  size_t next_index = 0;
  std::vector<uint8_t> buffer(kRecoveryReadBytes);
  for (size_t i = 0; i < segments.size(); ++i) {
    const SegmentRef& seg = segments[i];
    SegmentReader reader(&buffer);
    if (!reader.Open(seg.path, &error) ||
        !reader.Fill(kSegmentHeaderSize, &error)) {
      return Fail(std::move(error));
    }
    const bool last = (i + 1 == segments.size());
    if (reader.available() < kSegmentHeaderSize) {
      // A header-short file can only come from a crash during segment
      // creation, which is necessarily the newest file; anywhere else it is
      // corruption, not crash damage.
      if (!last) {
        return Fail("wal: " + seg.path +
                    " is shorter than a segment header mid-sequence");
      }
      result.truncated_bytes += reader.available();
      if (::unlink(seg.path.c_str()) != 0) {
        return Fail("wal: cannot remove torn segment " + seg.path + ": " +
                    std::strerror(errno));
      }
      next_index = i + 1;
      tail_torn = true;
      break;
    }
    SegmentHeader header;
    if (DecodeSegmentHeader(reader.data(), reader.available(), &header) !=
        DecodeStatus::kOk) {
      return Fail("wal: " + seg.path + " has a corrupt segment header");
    }
    if (header.shard != shard) {
      return Fail("wal: " + seg.path + " belongs to shard " +
                  std::to_string(header.shard) + ", expected " +
                  std::to_string(shard));
    }
    if (header.start_lsn != seg.start_lsn) {
      return Fail("wal: " + seg.path + " header start LSN " +
                  std::to_string(header.start_lsn) +
                  " disagrees with its file name");
    }
    if (expected_lsn != 0 && header.start_lsn != expected_lsn) {
      return Fail("wal: LSN gap before " + seg.path + ": expected " +
                  std::to_string(expected_lsn) + ", header says " +
                  std::to_string(header.start_lsn));
    }
    expected_lsn = header.start_lsn;
    ++result.segments;

    reader.Consume(kSegmentHeaderSize);
    for (;;) {
      // Frames are fixed-size, so kNeedMore below means the file ended.
      if (!reader.Fill(kRecordFrameSize, &error)) return Fail(std::move(error));
      if (reader.available() == 0) break;
      WalRecord record;
      size_t consumed = 0;
      const DecodeStatus status = DecodeRecord(
          reader.data(), reader.available(), &record, &consumed);
      if (status == DecodeStatus::kOk) {
        if (record.lsn != expected_lsn) {
          // CRC-valid but out-of-sequence: this is not torn-write damage.
          return Fail("wal: " + seg.path + " record LSN " +
                      std::to_string(record.lsn) + " breaks the sequence at " +
                      std::to_string(expected_lsn));
        }
        apply(record);
        ++result.records;
        result.max_lsn = record.lsn;
        ++expected_lsn;
        reader.Consume(consumed);
        continue;
      }
      // kNeedMore (file ends mid-record) and kError (CRC/length/type
      // mismatch) are both the torn tail of the final crash: everything at
      // and past this offset is unreachable garbage. Cut it off so the next
      // writer appends to a clean tail.
      if (::truncate(seg.path.c_str(),
                     static_cast<off_t>(reader.offset())) != 0) {
        return Fail("wal: cannot truncate torn tail of " + seg.path + ": " +
                    std::strerror(errno));
      }
      result.truncated_bytes += reader.size() - reader.offset();
      tail_torn = true;
      break;
    }
    next_index = i + 1;
    if (tail_torn) break;
  }

  if (tail_torn) {
    // Segments past a torn record are unreachable by LSN order and would
    // poison the next recovery's continuity check; remove them.
    for (size_t i = next_index; i < segments.size(); ++i) {
      struct stat st;
      if (::stat(segments[i].path.c_str(), &st) == 0) {
        result.truncated_bytes += static_cast<uint64_t>(st.st_size);
      }
      if (::unlink(segments[i].path.c_str()) != 0) {
        return Fail("wal: cannot remove orphaned segment " +
                    segments[i].path + ": " + std::strerror(errno));
      }
    }
  }
  return result;
}

}  // namespace wal
}  // namespace cbtree
