#include "sim/simulator.h"

#include <algorithm>

#include "sim/protocol_ops.h"
#include "stats/distributions.h"
#include "util/check.h"

namespace cbtree {

void SimConfig::Validate() const {
  mix.Validate();
  if (closed_population == 0) {
    CBTREE_CHECK_GT(lambda, 0.0);
  }
  CBTREE_CHECK_GE(think_time, 0.0);
  CBTREE_CHECK_GT(num_operations, 0u);
  CBTREE_CHECK_LT(warmup_operations, num_operations);
  CBTREE_CHECK_GE(max_node_size, 3);
  CBTREE_CHECK_GE(disk_cost, 1.0);
  CBTREE_CHECK_GT(root_search_time, 0.0);
  if (recovery.policy != RecoveryPolicy::kNone) {
    CBTREE_CHECK(algorithm != Algorithm::kLinkType)
        << "recovery retention is modeled for the lock-coupling algorithms";
    CBTREE_CHECK_GE(recovery.t_trans, 0.0);
  }
}

Simulator::Simulator(SimConfig config)
    : config_(config),
      service_rng_(config.seed * 0x9e3779b97f4a7c15ull + 1),
      arrival_rng_(config.seed * 0xc2b2ae3d27d4eb4full + 2) {
  config_.Validate();
  BTree::Options tree_options;
  tree_options.max_node_size = config_.max_node_size;
  tree_options.merge_policy = MergePolicy::kAtEmpty;
  tree_ = std::make_unique<BTree>(tree_options);
  locks_ = std::make_unique<LockManager>([this] { return events_.now(); });
  pool_ = BufferPool(config_.buffer_pool_nodes);
}

Simulator::~Simulator() {
  // A saturated run stops mid-flight; in-progress operations still hold
  // simulated locks that die with the lock manager.
  for (auto& [id, op] : active_ops_) op->AbandonForShutdown();
}

double Simulator::AccessCost(int level) const {
  bool in_memory = level > tree_->height() - config_.in_memory_levels;
  return config_.root_search_time * (in_memory ? 1.0 : config_.disk_cost);
}

void Simulator::RemoveChildNode(NodeId parent, NodeId child) {
  locks_->NotifyNodeFreed(child);
  pool_.Drop(child);
  tree_->RemoveChild(parent, child);
}

void Simulator::Trace(obs::TraceEventKind kind, uint64_t id, const char* what,
                      int level, int64_t node, double value) {
  if (config_.trace == nullptr) return;
  obs::TraceEvent e;
  e.time = events_.now();
  e.kind = kind;
  e.id = id;
  e.what = what;
  e.level = level;
  e.node = node;
  e.value = value;
  e.measured = metrics_.active();
  config_.trace->Record(e);
}

void Simulator::RecordRestart(OpId op) {
  Trace(obs::TraceEventKind::kRestart, op, "restart");
  metrics_.RecordRestart();
}

void Simulator::RecordLinkCrossing(OpId op, NodeId node) {
  Trace(obs::TraceEventKind::kLinkCrossing, op, "link_crossing",
        tree_->node(node).level, static_cast<int64_t>(node));
  metrics_.RecordLinkCrossing();
}

void Simulator::NoteWriteLock(NodeId node) {
  if (node >= olc_versions_.size()) olc_versions_.resize(node + size_t{1});
  OlcVersionState& state = olc_versions_[node];
  ++state.depth;
  state.last_bump = now();
}

void Simulator::NoteWriteUnlock(NodeId node) {
  CBTREE_CHECK_LT(node, olc_versions_.size()) << "unlock without a lock";
  OlcVersionState& state = olc_versions_[node];
  --state.depth;
  state.last_bump = now();
}

bool Simulator::WriteLocked(NodeId node) const {
  return node < olc_versions_.size() && olc_versions_[node].depth > 0;
}

double Simulator::LastVersionBump(NodeId node) const {
  return node < olc_versions_.size() ? olc_versions_[node].last_bump : 0.0;
}

double Simulator::NodeAccessCost(NodeId node) {
  if (!pool_.enabled()) return AccessCost(tree_->node(node).level);
  bool hit = pool_.Access(node);
  return config_.root_search_time * (hit ? 1.0 : config_.disk_cost);
}

void Simulator::ScheduleNextArrival() {
  if (started_ >= config_.num_operations) return;
  double gap = SampleExponential(arrival_rng_, 1.0 / config_.lambda);
  events_.ScheduleAfter(gap, [this] {
    StartOperation(workload_->Next());
    ScheduleNextArrival();
  });
}

void Simulator::ScheduleClosedSubmission(double delay) {
  if (started_ >= config_.num_operations) return;
  ++started_;  // reserve the slot now so terminals never overshoot
  events_.ScheduleAfter(delay, [this] {
    --started_;  // StartOperation re-counts it
    StartOperation(workload_->Next());
  });
}

void Simulator::StartOperation(Operation op) {
  ++started_;
  OpId id = next_op_id_++;
  auto sim_op =
      MakeSimOperation(this, id, op, config_.algorithm, events_.now());
  SimOperation* raw = sim_op.get();
  active_ops_.emplace(id, std::move(sim_op));
  Trace(obs::TraceEventKind::kOpArrive, id, OpTypeName(op.type));
  metrics_.RecordActiveOps(events_.now(), active_ops_.size());
  if (active_ops_.size() > config_.max_active_ops) saturated_ = true;
  raw->Start();
}

void Simulator::OperationFinished(SimOperation* op,
                                  std::vector<NodeId> retained) {
  double response = events_.now() - op->arrival_time();
  metrics_.RecordResponse(op->type(), response);
  Trace(obs::TraceEventKind::kOpComplete, op->id(), OpTypeName(op->type()),
        /*level=*/-1, /*node=*/-1, /*value=*/response);
  ++completed_total_;
  if (completed_total_ == config_.warmup_operations) {
    metrics_.Activate(events_.now());
    locks_->TrackWriterPresence(tree_->root());
  }
  if (!retained.empty()) {
    // Recovery: the retained W locks are released when the surrounding
    // transaction commits, an exponential T_trans from now.
    double delay = SampleExponential(service_rng_,
                                     config_.recovery.t_trans);
    OpId id = op->id();
    events_.ScheduleAfter(delay, [this, id, retained = std::move(retained)] {
      for (NodeId node : retained) locks_->Release(node, id);
    });
  }
  retired_.push_back(op->id());
  metrics_.RecordActiveOps(events_.now(), active_ops_.size() - 1);
  if (config_.closed_population > 0) {
    // The terminal thinks, then submits its next operation.
    ScheduleClosedSubmission(
        SampleExponential(arrival_rng_, config_.think_time));
  }
}

void Simulator::DrainRetired() {
  for (OpId id : retired_) {
    auto it = active_ops_.find(id);
    CBTREE_CHECK(it != active_ops_.end());
    active_ops_.erase(it);
  }
  retired_.clear();
}

SimResult Simulator::Run() {
  CBTREE_CHECK(!ran_) << "Simulator::Run may be called once";
  ran_ = true;

  // Construction phase (paper §4): grow the tree with the mix's
  // insert:delete ratio, then seed the workload's key pool.
  std::vector<Key> keys =
      BuildTree(tree_.get(), config_.num_items, config_.mix,
                config_.seed * 0x5851f42d4c957f2dull + 3);
  tree_->ResetRestructureStats();
  WorkloadGenerator::Options wl_options;
  wl_options.mix = config_.mix;
  wl_options.seed = config_.seed * 0x2545f4914f6cdd1dull + 4;
  wl_options.zipf_skew = config_.zipf_skew;
  workload_ = std::make_unique<WorkloadGenerator>(wl_options);
  for (Key key : keys) workload_->NotifyExisting(key);

  if (config_.warmup_operations == 0) {
    metrics_.Activate(0.0);
    locks_->TrackWriterPresence(tree_->root());
  }
  if (config_.closed_population > 0) {
    for (uint64_t terminal = 0; terminal < config_.closed_population;
         ++terminal) {
      ScheduleClosedSubmission(
          SampleExponential(arrival_rng_, config_.think_time));
    }
  } else {
    ScheduleNextArrival();
  }

  while (completed_total_ < config_.num_operations) {
    if (saturated_) break;
    if (events_.dispatched() > config_.max_events) {
      saturated_ = true;
      break;
    }
    bool progressed = events_.RunNext();
    CBTREE_CHECK(progressed) << "event queue drained with "
                             << (config_.num_operations - completed_total_)
                             << " operations outstanding";
    DrainRetired();
  }

  SimResult result;
  result.saturated = saturated_;
  double now = events_.now();
  result.completed = metrics_.completed();
  result.duration = now - metrics_.activation_time();
  result.throughput =
      result.duration > 0.0
          ? static_cast<double>(result.completed) / result.duration
          : 0.0;
  result.resp_search = metrics_.response(OpType::kSearch);
  result.resp_insert = metrics_.response(OpType::kInsert);
  result.resp_delete = metrics_.response(OpType::kDelete);
  result.resp_all = metrics_.response_all();
  int h = tree_->height();
  result.lock_wait_r.resize(h + 1);
  result.lock_wait_w.resize(h + 1);
  for (int level = 1; level <= h; ++level) {
    result.lock_wait_r[level] = metrics_.lock_wait_r(level);
    result.lock_wait_w[level] = metrics_.lock_wait_w(level);
  }
  result.root_writer_utilization = locks_->TrackedWriterPresence();
  result.link_crossings = metrics_.link_crossings();
  result.restarts = metrics_.restarts();
  result.mean_active_ops = metrics_.mean_active_ops(now);
  result.max_active_ops = metrics_.max_active_ops();
  result.events = events_.dispatched();
  result.buffer_hit_rate = pool_.hit_rate();
  result.resp_p50 = metrics_.response_histogram().Quantile(0.50);
  result.resp_p95 = metrics_.response_histogram().Quantile(0.95);
  result.resp_p99 = metrics_.response_histogram().Quantile(0.99);
  result.response_histogram = metrics_.response_histogram();
  result.active_ops_profile = metrics_.active_ops_profile();
  result.end_time = now;
  result.final_shape = CollectTreeStats(*tree_);
  result.restructures = tree_->restructure_stats();
  return result;
}

}  // namespace cbtree
