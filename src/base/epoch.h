// Epoch-based memory reclamation for latch-free readers.
//
// The latched trees sidestep reclamation entirely (lazy deletion, arena
// freed at tree destruction), but a protocol whose readers hold no latches
// can observe a node after a writer unlinks it. This component provides the
// standard grace-period answer: threads wrap every structure access in an
// EpochGuard, which pins the global epoch for the duration; writers Retire()
// unlinked nodes instead of deleting them, stamping each with the epoch at
// retire time; a retired node is physically freed only once every pinned
// epoch has moved past its stamp, i.e. once no guard that could have seen
// the node is still running.
//
// Correctness argument (entry-timestamp EBR): a node is Retire()d only
// after it is unreachable from the structure roots, and the stamp is the
// retire's own atomic epoch advance. A guard pinning an epoch *above* the
// stamp read it from that advance or a later RMW in its release sequence,
// so it synchronizes with the retire — and the unlink is sequenced before
// it — meaning the guard already sees the node unlinked and cannot reach
// it. A guard pinned at or below the stamp keeps MinPinned <= stamp.
// Freeing entries whose stamp is strictly below the minimum pinned epoch
// therefore frees nothing any active guard can still reference.
//
// The component is deliberately simple and deterministic — a mutex-guarded
// retire list with the epoch advanced on every Retire() — because retires
// are rare (structural merges), while guards are the hot path: guard
// entry/exit is a thread-local slot lookup plus two atomic stores, no
// locks, no allocation.
//
// Thread registration is automatic: the first guard a thread takes against
// a manager claims one of kMaxThreads fixed slots; the slot is released
// when the thread exits. The slot array is owned by a shared_ptr kept alive
// by every registered thread, so a thread that outlives the manager can
// still release its slot safely.

#ifndef CBTREE_BASE_EPOCH_H_
#define CBTREE_BASE_EPOCH_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>

#include "base/mutex.h"
#include "base/thread_annotations.h"

namespace cbtree {

/// Monotone counters describing one manager's reclamation history.
struct EpochStats {
  uint64_t epoch = 0;     ///< current global epoch
  uint64_t retired = 0;   ///< nodes handed to Retire()
  uint64_t freed = 0;     ///< nodes physically deleted
  uint64_t pending = 0;   ///< retired - freed (awaiting quiescence)
  uint64_t advances = 0;  ///< global epoch increments
};

namespace epoch_internal {

inline constexpr uint64_t kIdle = ~uint64_t{0};

/// One registered thread's pin. Padded to a cache line: pins are written on
/// every guard entry and scanned on every reclaim.
struct alignas(64) Slot {
  std::atomic<uint64_t> pinned{kIdle};
  std::atomic<bool> claimed{false};
  int depth = 0;  ///< guard nesting; touched only by the owning thread
};

struct SlotArray;

}  // namespace epoch_internal

/// The manager itself is a shared capability ("epoch"): holding it shared
/// means "this thread has a live guard pinning the epoch". EpochGuard is
/// the scoped acquisition, so `-Wthread-safety` can check the
/// CBTREE_REQUIRES_SHARED(epoch_) contracts on the OLC tree's optimistic
/// helpers the same way it checks latch REQUIRES contracts. Exclusive
/// acquisition is never used — retires are internally synchronized.
class CBTREE_CAPABILITY("epoch") EpochManager {
 public:
  /// Fixed registration capacity; claiming past it aborts (a process with
  /// this many tree-touching threads has bigger problems).
  static constexpr int kMaxThreads = 256;

  EpochManager();
  /// Requires no active guards. Frees every still-pending retired node.
  ~EpochManager();

  EpochManager(const EpochManager&) = delete;
  EpochManager& operator=(const EpochManager&) = delete;

  /// Defers `deleter(ptr)` until every guard active now has exited. The
  /// pointer must already be unreachable from the shared structure. Advances
  /// the epoch and opportunistically frees whatever has quiesced; returns
  /// how many nodes that freed.
  uint64_t Retire(void* ptr, void (*deleter)(void*));

  template <typename T>
  uint64_t RetireObject(T* ptr) {
    return Retire(ptr, [](void* p) { delete static_cast<T*>(p); });
  }

  /// Frees every retired node whose stamp has quiesced; returns how many.
  uint64_t ReclaimQuiesced();

  /// Bumps the global epoch, then reclaims. Returns how many were freed.
  uint64_t Advance();

  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }
  EpochStats stats() const;

 private:
  friend class EpochGuard;

  epoch_internal::Slot* SlotForThisThread();
  void EnterGuard() CBTREE_ACQUIRE_SHARED();
  void ExitGuard() CBTREE_RELEASE_SHARED();
  /// Minimum epoch pinned by any registered thread (kIdle if none).
  uint64_t MinPinned() const;

  struct Retired {
    void* ptr;
    void (*deleter)(void*);
    uint64_t stamp;
  };

  std::shared_ptr<epoch_internal::SlotArray> slots_;
  std::atomic<uint64_t> epoch_{1};
  std::atomic<uint64_t> retired_count_{0};
  std::atomic<uint64_t> freed_count_{0};
  std::atomic<uint64_t> advances_{0};
  mutable Mutex mutex_;
  /// Stamps are nondecreasing front-to-back (appends happen under the mutex
  /// and the epoch is monotone), so reclamation pops a prefix.
  std::deque<Retired> retired_ CBTREE_GUARDED_BY(mutex_);
};

/// Pins the current epoch for this thread while in scope. Nestable; only
/// the outermost guard publishes/clears the pin. A scoped shared
/// acquisition of the manager capability — and only ever a scope: the
/// cbtree-epoch-guard tidy check additionally forbids heap-allocating one
/// or storing one as a member, which would defeat the pin's lifetime
/// argument. (TSA does not model the nesting; intentionally-nested guards
/// in tests carry CBTREE_NO_THREAD_SAFETY_ANALYSIS.)
class CBTREE_SCOPED_CAPABILITY EpochGuard {
 public:
  explicit EpochGuard(EpochManager* manager)
      CBTREE_ACQUIRE_SHARED(manager) : manager_(manager) {
    manager_->EnterGuard();
  }
  ~EpochGuard() CBTREE_RELEASE() { manager_->ExitGuard(); }

  EpochGuard(const EpochGuard&) = delete;
  EpochGuard& operator=(const EpochGuard&) = delete;

 private:
  EpochManager* manager_;
};

}  // namespace cbtree

#endif  // CBTREE_BASE_EPOCH_H_
