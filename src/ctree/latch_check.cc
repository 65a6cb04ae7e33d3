#include "ctree/latch_check.h"

namespace cbtree {
namespace latch_check {

// One copy of each name table serves both builds: diagnostic printers may
// reference them where the hot-path hooks are header-inlined no-ops.
const char* DisciplineName(Discipline discipline) {
  switch (discipline) {
    case Discipline::kNone:
      return "none";
    case Discipline::kCrabbingSearch:
      return "crabbing-search";
    case Discipline::kCoupledUpdate:
      return "coupled-update";
    case Discipline::kTwoPhaseSearch:
      return "two-phase-search";
    case Discipline::kOptimisticDescent:
      return "optimistic-descent";
    case Discipline::kBLink:
      return "b-link";
    case Discipline::kOlc:
      return "olc";
  }
  return "unknown";
}

const char* RuleName(Rule rule) {
  switch (rule) {
    case Rule::kNoOpScope:
      return "no-op-scope";
    case Rule::kRelock:
      return "relock";
    case Rule::kUpgrade:
      return "shared-to-exclusive-upgrade";
    case Rule::kModeForbidden:
      return "mode-forbidden";
    case Rule::kMaxHeldExceeded:
      return "max-held-exceeded";
    case Rule::kOrder:
      return "root-to-leaf-order";
    case Rule::kReleaseNotHeld:
      return "release-not-held";
    case Rule::kLatchLeak:
      return "latch-leak";
    case Rule::kNestedOpWithLatches:
      return "nested-op-with-latches";
    case Rule::kEpochRequired:
      return "epoch-required";
  }
  return "unknown";
}

const char* ModeName(Mode mode) {
  return mode == Mode::kShared ? "S" : "X";
}

}  // namespace latch_check
}  // namespace cbtree

#if CBTREE_LATCH_CHECK_ENABLED

#include <atomic>
#include <cstdio>
#include <cstdlib>

namespace cbtree {
namespace latch_check {
namespace {

// Tracker capacity; a chain deeper than the path cap is already a
// violation, the extra slack just keeps the dump intact while reporting.
constexpr int kHeldCapacity = kMaxPathLatches + 8;

struct HeldLatch {
  const void* node;
  int level;
  Mode mode;
};

struct ThreadState {
  Discipline discipline = Discipline::kNone;
  int held = 0;
  int epoch_depth = 0;  ///< live EpochScope nesting on this thread
  HeldLatch stack[kHeldCapacity];
};

thread_local ThreadState tls;

std::atomic<ViolationHandler> g_handler{nullptr};
std::atomic<uint64_t> g_checked_acquires{0};

/// What each discipline permits. `excl_level` restricts exclusive latches
/// to one tree level (-1 = any); `move_right` permits acquiring at the
/// minimum currently-held level (same-level right-sibling crabbing).
struct DisciplineSpec {
  int max_held;
  bool shared_ok;
  bool exclusive_ok;
  int excl_level;
  bool move_right;
};

DisciplineSpec SpecFor(Discipline discipline) {
  switch (discipline) {
    case Discipline::kNone:
      return {0, false, false, -1, false};
    case Discipline::kCrabbingSearch:
      return {2, true, false, -1, true};
    case Discipline::kCoupledUpdate:
      return {kMaxPathLatches, false, true, -1, false};
    case Discipline::kTwoPhaseSearch:
      return {kMaxPathLatches, true, false, -1, false};
    case Discipline::kOptimisticDescent:
      return {2, true, true, /*excl_level=*/1, false};
    case Discipline::kBLink:
      return {1, true, true, -1, true};
    case Discipline::kOlc:
      // Writers hold one exclusive version lock on the write target; the
      // empty-leaf unlink briefly holds parent + left sibling + victim
      // (acquired top-down, try-lock below the parent). Readers validate
      // versions and never appear here at all.
      return {3, false, true, -1, true};
  }
  return {0, false, false, -1, false};
}

void DumpAndAbort(const ViolationInfo& info) {
  const ThreadState& state = tls;
  std::fprintf(stderr,
               "latch_check: %s violated under discipline %s "
               "(node=%p level=%d mode=%s, %d latch(es) held)\n",
               RuleName(info.rule), DisciplineName(info.discipline),
               info.node, info.level, ModeName(info.mode), info.held_count);
  std::fprintf(stderr, "held latches, oldest first:\n");
  for (int i = 0; i < state.held; ++i) {
    std::fprintf(stderr, "  [%d] node=%p level=%d mode=%s\n", i,
                 state.stack[i].node, state.stack[i].level,
                 ModeName(state.stack[i].mode));
  }
  if (state.held == 0) std::fprintf(stderr, "  (none)\n");
  std::abort();
}

void Report(Rule rule, const void* node, int level, Mode mode) {
  ViolationInfo info;
  info.rule = rule;
  info.discipline = tls.discipline;
  info.node = node;
  info.level = level;
  info.mode = mode;
  info.held_count = tls.held;
  ViolationHandler handler = g_handler.load(std::memory_order_acquire);
  if (handler != nullptr) {
    handler(info);
    return;  // test mode: keep going so one test can seed several rules
  }
  DumpAndAbort(info);
}

int MinHeldLevel(const ThreadState& state) {
  int min_level = state.stack[0].level;
  for (int i = 1; i < state.held; ++i) {
    if (state.stack[i].level < min_level) min_level = state.stack[i].level;
  }
  return min_level;
}

}  // namespace

void OnAcquire(const void* node, int level, Mode mode) {
  ThreadState& state = tls;
  g_checked_acquires.fetch_add(1, std::memory_order_relaxed);
  const DisciplineSpec spec = SpecFor(state.discipline);

  if (state.discipline == Discipline::kNone) {
    Report(Rule::kNoOpScope, node, level, mode);
  }

  // Re-acquisition of a held node: an upgrade if the held copy is shared
  // and the new one exclusive (deadlock with a symmetric thread), a plain
  // relock otherwise (UB on std::shared_mutex either way).
  for (int i = 0; i < state.held; ++i) {
    if (state.stack[i].node != node) continue;
    if (state.stack[i].mode == Mode::kShared && mode == Mode::kExclusive) {
      Report(Rule::kUpgrade, node, level, mode);
    } else {
      Report(Rule::kRelock, node, level, mode);
    }
    break;
  }

  if (mode == Mode::kShared && !spec.shared_ok) {
    Report(Rule::kModeForbidden, node, level, mode);
  }
  if (mode == Mode::kExclusive &&
      (!spec.exclusive_ok ||
       (spec.excl_level >= 0 && level != spec.excl_level))) {
    Report(Rule::kModeForbidden, node, level, mode);
  }

  if (state.held + 1 > spec.max_held) {
    Report(Rule::kMaxHeldExceeded, node, level, mode);
  }

  // Root-to-leaf order: every new latch must be strictly below everything
  // held; crabbing disciplines also allow a same-level move-right.
  if (state.held > 0) {
    int min_level = MinHeldLevel(state);
    bool descending = level < min_level;
    bool moving_right = spec.move_right && level == min_level;
    if (!descending && !moving_right) {
      Report(Rule::kOrder, node, level, mode);
    }
  }

  if (state.held < kHeldCapacity) {
    state.stack[state.held++] = {node, level, mode};
  }
  // else: already reported kMaxHeldExceeded above (capacity > every cap);
  // dropping the entry keeps the tracker sane under a test handler.
}

void OnRelease(const void* node, Mode mode) {
  ThreadState& state = tls;
  for (int i = state.held - 1; i >= 0; --i) {
    if (state.stack[i].node != node || state.stack[i].mode != mode) continue;
    for (int j = i; j + 1 < state.held; ++j) {
      state.stack[j] = state.stack[j + 1];
    }
    --state.held;
    return;
  }
  Report(Rule::kReleaseNotHeld, node, 0, mode);
}

ScopedOp::ScopedOp(Discipline discipline) : saved_(tls.discipline) {
  if (tls.held != 0) {
    Report(Rule::kNestedOpWithLatches, nullptr, 0, Mode::kShared);
  }
  tls.discipline = discipline;
}

ScopedOp::~ScopedOp() {
  if (tls.held != 0) {
    Report(Rule::kLatchLeak, nullptr, 0, Mode::kShared);
  }
  tls.discipline = saved_;
}

EpochScope::EpochScope() { ++tls.epoch_depth; }

EpochScope::~EpochScope() { --tls.epoch_depth; }

void RequireEpochPinned(const void* node) {
  if (tls.epoch_depth == 0) {
    Report(Rule::kEpochRequired, node, 0, Mode::kExclusive);
  }
}

int EpochDepthForTest() { return tls.epoch_depth; }

uint64_t CheckedAcquires() {
  return g_checked_acquires.load(std::memory_order_relaxed);
}

ViolationHandler SetViolationHandlerForTest(ViolationHandler handler) {
  return g_handler.exchange(handler, std::memory_order_acq_rel);
}

void ResetThreadForTest() {
  tls.held = 0;
  tls.discipline = Discipline::kNone;
  tls.epoch_depth = 0;
}

}  // namespace latch_check
}  // namespace cbtree

#endif  // CBTREE_LATCH_CHECK_ENABLED
