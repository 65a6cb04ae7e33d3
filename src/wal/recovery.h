// Crash recovery: scan a shard's segment directory, stream each segment
// through a fixed read buffer, validate every record (length, CRC32C, type,
// dense LSN continuity), replay the valid prefix through a caller-supplied
// apply function, and truncate the log at the first torn or corrupt record
// so the next writer appends to a clean tail.
//
// The replay target is a callback, not a tree: the wal library stays below
// src/ctree/ in the layering (the server adapts the callback onto
// ConcurrentBTree::Insert/Delete). Determinism comes from the LSN check —
// the redo stream is exactly the per-key serialization order the tree
// produced (records are appended while the leaf latch/version lock is held).
//
// Failure taxonomy:
//   - torn tail (file ends mid-record, or a record fails its CRC): normal
//     crash damage — truncate the file there, drop any later segments, and
//     report the byte count in `truncated_bytes`; recovery still succeeds.
//   - corrupt/alien segment header, wrong shard, version or LSN
//     discontinuity *between* segments: not crash damage — recovery fails
//     loudly (`ok == false`) rather than silently dropping committed data.

#ifndef CBTREE_WAL_RECOVERY_H_
#define CBTREE_WAL_RECOVERY_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "wal/wal_format.h"

namespace cbtree {
namespace wal {

/// Recovery streams each segment through one read buffer of this size, so
/// its memory does not grow with the log.
inline constexpr size_t kRecoveryReadBytes = 64 << 10;

struct RecoveryResult {
  bool ok = true;
  std::string error;        ///< set when !ok
  uint64_t segments = 0;    ///< segment files scanned
  uint64_t records = 0;     ///< records replayed
  uint64_t max_lsn = 0;     ///< highest replayed LSN (0: empty log)
  uint64_t truncated_bytes = 0;  ///< torn-tail bytes removed
};

/// Replays shard `shard`'s log under `dir` through `apply`, in LSN order.
/// `apply` is called once per valid record before the result returns. An
/// empty or missing directory recovers successfully with zero records.
/// The log files are repaired in place (torn tail truncated, orphaned later
/// segments unlinked), so a subsequent ShardLog::Open(start_lsn =
/// max_lsn + 1) continues a clean sequence.
RecoveryResult RecoverShard(const std::string& dir, uint32_t shard,
                            const std::function<void(const WalRecord&)>& apply);

}  // namespace wal
}  // namespace cbtree

#endif  // CBTREE_WAL_RECOVERY_H_
