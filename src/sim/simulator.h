// The concurrent B-tree simulator (paper §4).
//
// A construction phase builds a real B+-tree from an insert/delete sequence
// in the configured mix; the concurrent phase then runs operations arriving
// in a Poisson process, each executing its algorithm's locking protocol on
// the shared tree with exponentially distributed access times. The simulator
// reports response times, per-level lock waits, the root's writer
// utilization, link crossings (Link-type) and restarts (Optimistic Descent).
//
// Open-system saturation is detected the way the paper does ("the simulator
// crashes" when operations outrun the space for them): when the number of
// in-flight operations exceeds max_active_ops the run stops and is flagged.

#ifndef CBTREE_SIM_SIMULATOR_H_
#define CBTREE_SIM_SIMULATOR_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "btree/btree.h"
#include "btree/tree_stats.h"
#include "core/analyzer.h"
#include "core/optimistic_model.h"
#include "core/params.h"
#include "obs/trace.h"
#include "sim/buffer_pool.h"
#include "sim/event_queue.h"
#include "sim/lock_manager.h"
#include "sim/metrics.h"
#include "stats/rng.h"
#include "workload/workload.h"

namespace cbtree {

class SimOperation;

struct SimConfig {
  Algorithm algorithm = Algorithm::kNaiveLockCoupling;
  double lambda = 0.05;  ///< operation arrival rate (open system)
  OperationMix mix;

  /// When non-zero the system is *closed*: this many terminals each keep
  /// one operation in flight, submitting the next one Exp(think_time) after
  /// the previous completes (the multiprogramming-level view of the prior
  /// analyses the paper contrasts itself with in §3.1). `lambda` is then
  /// ignored. Throughput becomes the interesting measure; it plateaus at
  /// the open system's maximum throughput.
  uint64_t closed_population = 0;
  double think_time = 0.0;

  uint64_t num_operations = 10000;  ///< concurrent operations to run
  uint64_t warmup_operations = 1000;  ///< completions excluded from stats
  uint64_t num_items = 40000;  ///< construction-phase tree size
  int max_node_size = 13;      ///< N

  /// Access-cost parameters; height is taken from the live tree.
  int in_memory_levels = 2;
  double disk_cost = 5.0;
  double root_search_time = 1.0;
  double modify_factor = 2.0;
  double split_factor = 3.0;
  double merge_factor = 3.0;

  /// When non-zero, node residency is decided by an LRU buffer pool of this
  /// many nodes instead of the fixed in_memory_levels rule.
  uint64_t buffer_pool_nodes = 0;

  RecoveryConfig recovery;  ///< lock-coupling algorithms only
  double zipf_skew = 0.0;   ///< key skew for searches/deletes
  uint64_t seed = 1;

  uint64_t max_active_ops = 50000;   ///< saturation guard
  uint64_t max_events = 500000000;   ///< hard safety stop

  /// Opt-in event tracer (not owned; must outlive the run). Records the
  /// operation lifecycle and lock queue events; the result statistics are
  /// byte-identical with or without it.
  obs::TraceSink* trace = nullptr;

  void Validate() const;
};

struct SimResult {
  bool saturated = false;
  uint64_t completed = 0;      ///< measured (post-warm-up) completions
  double duration = 0.0;       ///< measured simulated time
  double throughput = 0.0;     ///< measured completions / duration

  Accumulator resp_search;
  Accumulator resp_insert;
  Accumulator resp_delete;
  Accumulator resp_all;
  /// Indexed by level; level 0 unused.
  std::vector<Accumulator> lock_wait_r;
  std::vector<Accumulator> lock_wait_w;

  double root_writer_utilization = 0.0;  ///< simulated rho_w(h)
  uint64_t link_crossings = 0;
  uint64_t restarts = 0;
  double mean_active_ops = 0.0;
  uint64_t max_active_ops = 0;
  uint64_t events = 0;
  double buffer_hit_rate = 0.0;  ///< meaningful when the pool is enabled
  double resp_p50 = 0.0;  ///< response-time percentiles over all op types
  double resp_p95 = 0.0;
  double resp_p99 = 0.0;

  /// Full measured response-time distribution and active-op profile, for
  /// cross-seed pooling (Histogram::Merge / TimeWeightedAccumulator::Merge).
  Histogram response_histogram;
  TimeWeightedAccumulator active_ops_profile;
  double end_time = 0.0;  ///< simulated clock when the run stopped

  TreeShapeStats final_shape;
  RestructureStats restructures;
};

class Simulator {
 public:
  explicit Simulator(SimConfig config);
  ~Simulator();

  /// Builds the tree and runs the concurrent phase to completion (or
  /// saturation). May be called once.
  SimResult Run();

  // -- services used by SimOperation ----------------------------------------
  BTree& tree() { return *tree_; }
  EventQueue& events() { return events_; }
  LockManager& locks() { return *locks_; }
  SimMetrics& metrics() { return metrics_; }
  Rng& service_rng() { return service_rng_; }
  const SimConfig& config() const { return config_; }
  double now() const { return events_.now(); }

  /// Expected node-access time by level under the current tree height: the
  /// top in_memory_levels are unit cost, the rest cost disk_cost. Used when
  /// no buffer pool is configured.
  double AccessCost(int level) const;

  /// Node-access time under the configured residency policy: consults (and
  /// updates) the LRU buffer pool when enabled, else falls back to the
  /// level rule.
  double NodeAccessCost(NodeId node);

  void RecordLockWait(int level, LockMode mode, double wait) {
    metrics_.RecordLockWait(level, mode == LockMode::kWrite, wait);
  }
  /// Emits a trace event (no-op when config().trace is null). `measured` is
  /// sampled from the metrics' warm-up state at emission time, so trace
  /// totals reconcile exactly with the reported statistics.
  void Trace(obs::TraceEventKind kind, uint64_t id, const char* what,
             int level = -1, int64_t node = -1, double value = 0.0);
  /// Restart / link-crossing wrappers: bump the SimMetrics counter and emit
  /// the matching trace event in one place.
  void RecordRestart(OpId op);
  void RecordLinkCrossing(OpId op, NodeId node);
  /// OLC version-state bookkeeping. Writers note lock/unlock on each node
  /// (both stamp a version bump at the current simulated time, matching the
  /// real tree where acquiring and releasing the version lock both change
  /// the version word); optimistic readers consult the state to decide
  /// whether a residence window validates.
  void NoteWriteLock(NodeId node);
  void NoteWriteUnlock(NodeId node);
  bool WriteLocked(NodeId node) const;
  /// 0.0 for a node no writer ever touched.
  double LastVersionBump(NodeId node) const;
  /// Removes an empty child from its parent in the tree and retires its
  /// lock-manager state (checked empty).
  void RemoveChildNode(NodeId parent, NodeId child);
  /// Called by an operation as its final act.
  void OperationFinished(SimOperation* op, std::vector<NodeId> retained);

 private:
  void ScheduleNextArrival();
  void ScheduleClosedSubmission(double delay);
  void StartOperation(Operation op);
  void DrainRetired();

  SimConfig config_;
  std::unique_ptr<BTree> tree_;
  EventQueue events_;
  std::unique_ptr<LockManager> locks_;
  BufferPool pool_{0};
  SimMetrics metrics_;
  std::unique_ptr<WorkloadGenerator> workload_;
  Rng service_rng_;
  Rng arrival_rng_;

  struct OlcVersionState {
    int depth = 0;        ///< write-lock nesting (0 or 1 in practice)
    double last_bump = 0.0;
  };
  /// Indexed by NodeId; grown on the first write lock of a higher id.
  std::vector<OlcVersionState> olc_versions_;

  std::unordered_map<OpId, std::unique_ptr<SimOperation>> active_ops_;
  std::vector<OpId> retired_;
  OpId next_op_id_ = 1;
  uint64_t started_ = 0;
  uint64_t completed_total_ = 0;
  bool saturated_ = false;
  bool ran_ = false;
};

}  // namespace cbtree

#endif  // CBTREE_SIM_SIMULATOR_H_
