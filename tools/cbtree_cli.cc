// cbtree — command-line front end to the analytical framework and the
// simulator.
//
//   cbtree analyze   --protocol=link --lambda=0.3 [tree flags]
//   cbtree sweep     --protocol=naive [--points=10]
//   cbtree compare   --lambda=0.3
//   cbtree capacity  --protocol=optimistic [--rho=0.5]
//   cbtree rules     [tree flags]
//   cbtree simulate  --protocol=link --lambda=0.3 [--seeds=5 --ops=10000]
//   cbtree stress    --protocol=link --threads=8 [--stress_ops=100000]
//   cbtree serve     --protocol=blink --port=7070 [--workers=4 --queue=1024]
//   cbtree drive     --port=7070 --lambda=2000 --duration=5s [--connections=4]
//   cbtree stat      --port=7070 [--json]
//
// Tree flags (all subcommands): --items, --node_size, --disk_cost,
// --qs/--qi/--qd, and for simulate also --seed, --buffer_pool, --zipf.
// simulate accepts --trace=<file> (--trace_format=jsonl|chrome) to record
// the first seed's event trace; stress accepts --metrics=table|json for
// the latch-contention report. The unit of time is one in-memory node
// search (paper §5.3) for the model/simulator commands and wall-clock
// seconds for stress/serve/drive.
//
// serve runs a real concurrent tree behind the net/ TCP service until
// SIGINT/SIGTERM, then drains gracefully and prints the service + latch
// report; drive is the open-loop Poisson client whose --json report is
// shape-compatible with `simulate --json`. stress also drains on
// SIGINT/SIGTERM instead of dying mid-report.
//
// Live observability (serve): --stats_interval periodically snapshots the
// merged metrics registry (ring + optional --stats_file JSONL series),
// --stats_port serves Prometheus text out of band, --trace_sample emits a
// stage waterfall for every Nth request into --trace. `cbtree stat` asks a
// running server for its stats over the data port (kStats admin frame);
// `drive --server_stats --json` embeds the same body in the drive report.

#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "base/build_info.h"
#include "core/analyzer.h"
#include "core/buffer_model.h"
#include "core/optimistic_model.h"
#include "core/rules_of_thumb.h"
#include "ctree/ctree.h"
#include "net/client.h"
#include "net/driver.h"
#include "net/server.h"
#include "net/shutdown.h"
#include "obs/trace.h"
#include "runner/experiment.h"
#include "sim/simulator.h"
#include "stats/rng.h"
#include "util/flags.h"
#include "util/table.h"
#include "wal/log_writer.h"
#include "workload/workload.h"

namespace cbtree {
namespace {

struct CommonOptions {
  std::string protocol = "optimistic";
  double lambda = 0.3;
  uint64_t items = 40000;
  int node_size = 13;
  double disk_cost = 5.0;
  double q_s = 0.3, q_i = 0.5, q_d = 0.2;
  int points = 10;
  double rho = 0.5;
  // simulate-only
  int seeds = 5;
  uint64_t ops = 10000;
  uint64_t seed = 1;
  uint64_t buffer_pool = 0;
  double zipf = 0.0;
  std::string recovery = "none";
  double t_trans = 100.0;
  bool csv = false;
  int jobs = 0;
  bool json = false;
  bool timing = false;
  // stress-only
  int threads = 8;
  uint64_t stress_ops = 100000;
  std::string metrics = "table";
  // simulate/serve/drive tracing
  std::string trace;
  std::string trace_format = "jsonl";
  // serve/drive
  std::string host = "127.0.0.1";
  int port = 7070;
  int workers = 4;
  int shards = 1;
  int loops = 1;
  uint64_t batch = 32;
  uint64_t queue = 1024;
  std::string duration = "5s";
  int connections = 4;
  // serve live observability / drive+stat admin plane
  double stats_interval = 0.0;
  std::string stats_file;
  int stats_port = -1;
  uint64_t stats_ring = 64;
  uint64_t trace_sample = 0;
  bool server_stats = false;
  // serve durability (WAL)
  std::string wal_dir;
  std::string fsync = "data";
  uint64_t group_commit_us = 200;
  uint64_t wal_segment_bytes = 64ull << 20;

  void Register(FlagSet* flags) {
    flags->Register("protocol", &protocol,
                    "tree protocol: " + AlgorithmFlagNames());
    flags->Register("lambda", &lambda, "arrival rate");
    flags->Register("items", &items, "tree size (keys)");
    flags->Register("node_size", &node_size, "max entries per node (N)");
    flags->Register("disk_cost", &disk_cost, "on-disk access multiplier");
    flags->Register("qs", &q_s, "search fraction");
    flags->Register("qi", &q_i, "insert fraction");
    flags->Register("qd", &q_d, "delete fraction");
    flags->Register("points", &points, "sweep points");
    flags->Register("rho", &rho, "target root writer utilization");
    flags->Register("seeds", &seeds, "simulation seeds");
    flags->Register("ops", &ops, "simulated operations per seed");
    flags->Register("seed", &seed, "base RNG seed");
    flags->Register("buffer_pool", &buffer_pool,
                    "LRU buffer pool size in nodes (0 = fixed 2 levels)");
    flags->Register("zipf", &zipf, "key skew for searches/deletes");
    flags->Register("recovery", &recovery, "none | leaf-only | naive");
    flags->Register("t_trans", &t_trans, "remaining transaction time");
    flags->Register("csv", &csv, "CSV output");
    flags->Register("jobs", &jobs,
                    "parallel jobs (0 = one per hardware thread, 1 = serial)");
    flags->Register("json", &json,
                    "emit machine-readable JSON (sweep, simulate)");
    flags->Register("timing", &timing,
                    "include wall-clock timing in the JSON output");
    flags->Register("threads", &threads, "stress worker threads");
    flags->Register("stress_ops", &stress_ops,
                    "total operations across all stress threads");
    flags->Register("metrics", &metrics,
                    "stress report format: table | json");
    flags->Register("trace", &trace,
                    "write the first seed's event trace to this file");
    flags->Register("trace_format", &trace_format,
                    "trace file format: jsonl | chrome");
    flags->Register("host", &host, "serve/drive address");
    flags->Register("port", &port, "serve/drive TCP port (0 = ephemeral)");
    flags->Register("workers", &workers,
                    "serve worker threads total (divided across shards)");
    flags->Register("shards", &shards,
                    "serve: independent trees the key space is "
                    "hash-partitioned across; drive: shard count of the "
                    "server for occupancy accounting");
    flags->Register("loops", &loops,
                    "serve event-loop threads (each with its own "
                    "SO_REUSEPORT listen socket)");
    flags->Register("batch", &batch,
                    "serve: max adjacent same-shard requests batched into "
                    "one tree pass");
    flags->Register("queue", &queue,
                    "serve admission budget (in-flight requests before "
                    "rejects)");
    flags->Register("duration", &duration,
                    "drive run length, e.g. 5s | 1500ms | 1m");
    flags->Register("connections", &connections, "drive TCP connections");
    flags->Register("stats_interval", &stats_interval,
                    "serve: seconds between periodic stats snapshots "
                    "(0 = off)");
    flags->Register("stats_file", &stats_file,
                    "serve: append each interval snapshot to this file as "
                    "one JSON line (needs --stats_interval)");
    flags->Register("stats_port", &stats_port,
                    "serve: Prometheus text exposition port "
                    "(-1 = off, 0 = ephemeral)");
    flags->Register("stats_ring", &stats_ring,
                    "serve: interval snapshots retained for live queries");
    flags->Register("trace_sample", &trace_sample,
                    "serve: emit a stage waterfall into --trace for every "
                    "Nth admitted request (0 = off)");
    flags->Register("server_stats", &server_stats,
                    "drive: fetch the server's stats after the run and "
                    "embed them in the --json report");
    flags->Register("wal_dir", &wal_dir,
                    "serve: write-ahead log directory (empty = durability "
                    "off); restart with the same directory to replay");
    flags->Register("fsync", &fsync,
                    "serve WAL durability barrier per group commit: "
                    "off | data (fdatasync) | full (fsync)");
    flags->Register("group_commit_us", &group_commit_us,
                    "serve WAL group-commit window in microseconds: the "
                    "longest a group waits; it flushes sooner once no "
                    "appender can join it");
    flags->Register("wal_segment_bytes", &wal_segment_bytes,
                    "serve WAL segment rotation size in bytes");
  }

  /// The tree protocol of every subcommand.
  Algorithm ParseProtocol() const {
    Algorithm algorithm;
    if (!ParseAlgorithm(protocol, &algorithm)) {
      std::cerr << "unknown --protocol '" << protocol << "' ("
                << AlgorithmFlagNames() << ")\n";
      std::exit(1);
    }
    return algorithm;
  }

  OperationMix Mix() const { return OperationMix{q_s, q_i, q_d}; }

  ModelParams Params() const {
    ModelParams params =
        ModelParams::ForTree(items, node_size, disk_cost, Mix());
    if (buffer_pool > 0) {
      params = WithBufferPool(params, static_cast<double>(buffer_pool));
    }
    return params;
  }

  RecoveryConfig Recovery() const {
    if (recovery == "none") return {RecoveryPolicy::kNone, 0.0};
    if (recovery == "leaf-only" || recovery == "leaf") {
      return {RecoveryPolicy::kLeafOnly, t_trans};
    }
    if (recovery == "naive") return {RecoveryPolicy::kNaive, t_trans};
    std::cerr << "unknown --recovery '" << recovery << "'\n";
    std::exit(1);
  }

  wal::FsyncMode ParseFsync() const {
    wal::FsyncMode mode;
    if (!wal::ParseFsyncMode(fsync, &mode)) {
      std::cerr << "unknown --fsync '" << fsync << "' (off | data | full)\n";
      std::exit(1);
    }
    return mode;
  }
};

int CmdAnalyze(const CommonOptions& options) {
  ModelParams params = options.Params();
  auto analyzer = MakeAnalyzer(options.ParseProtocol(), params);
  AnalysisResult result = analyzer->Analyze(options.lambda);
  std::printf("%s, lambda=%g, N=%d, %lu items (height %d), D=%g\n\n",
              analyzer->name().c_str(), options.lambda, options.node_size,
              static_cast<unsigned long>(options.items), params.height(),
              options.disk_cost);
  if (!result.stable) {
    std::printf("UNSTABLE: level %d saturates; max throughput = %g\n",
                result.bottleneck_level, analyzer->MaxThroughput(1e6));
    return 0;
  }
  Table table({"level", "lambda_r", "lambda_w", "t_s", "t_w", "rho_w",
               "R(i)", "W(i)"});
  for (int i = params.height(); i >= 1; --i) {
    const LevelAnalysis& level = result.levels[i];
    table.NewRow()
        .Add(i)
        .Add(level.lambda_r)
        .Add(level.lambda_w)
        .Add(level.t_s)
        .Add(level.t_i)
        .Add(level.rho_w)
        .Add(level.wait_r)
        .Add(level.wait_w);
  }
  table.Print(std::cout, options.csv);
  std::printf(
      "\nresponse times: search %.3f  insert %.3f  delete %.3f  "
      "(mix-weighted %.3f)\n",
      result.per_search, result.per_insert, result.per_delete,
      result.mean_response);
  return 0;
}

int CmdSweep(const CommonOptions& options) {
  auto analyzer = MakeAnalyzer(options.ParseProtocol(), options.Params());
  double max_rate = analyzer->MaxThroughput(1e6);
  double cap = std::isfinite(max_rate) ? max_rate : 1e3;
  std::vector<double> lambdas;
  lambdas.reserve(options.points);
  for (int i = 1; i <= options.points; ++i) {
    lambdas.push_back(cap * 0.95 * i / options.points);
  }
  // The grid fans out over the runner; the points depend only on the grid,
  // so output is byte-identical for any --jobs value.
  runner::SweepRun run =
      runner::RunAnalyticalSweep(*analyzer, lambdas, options.jobs);
  if (options.json) {
    runner::WriteSweepJson(std::cout, run, options.timing);
    return 0;
  }
  std::printf("%s: max throughput %g\n\n", analyzer->name().c_str(),
              max_rate);
  Table table({"lambda", "search", "insert", "delete", "rho_w_root"});
  for (const runner::SweepPoint& point : run.points) {
    const AnalysisResult& result = point.analysis;
    table.NewRow().Add(point.lambda);
    if (result.stable) {
      table.Add(result.per_search)
          .Add(result.per_insert)
          .Add(result.per_delete)
          .Add(result.root_writer_utilization());
    } else {
      table.AddNA().AddNA().AddNA().AddNA();
    }
  }
  table.Print(std::cout, options.csv);
  if (options.timing) {
    std::fprintf(stderr, "# wall_seconds=%.3f jobs=%d\n", run.wall_seconds,
                 run.jobs);
  }
  return 0;
}

int CmdCompare(const CommonOptions& options) {
  ModelParams params = options.Params();
  std::printf("all algorithms at lambda=%g (N=%d, %lu items, D=%g)\n\n",
              options.lambda, options.node_size,
              static_cast<unsigned long>(options.items), options.disk_cost);
  Table table({"algorithm", "search", "insert", "delete", "rho_w_root",
               "max_throughput"});
  const std::vector<Algorithm> algorithms = {
      Algorithm::kTwoPhaseLocking, Algorithm::kNaiveLockCoupling,
      Algorithm::kOptimisticDescent, Algorithm::kLinkType, Algorithm::kOlc};
  struct Row {
    std::string name;
    AnalysisResult result;
    double max_throughput;
  };
  // One job per algorithm; rows are printed in the fixed order above.
  std::vector<Row> rows = runner::ParallelMap(
      algorithms.size(), options.jobs, [&](size_t i) {
        auto analyzer = MakeAnalyzer(algorithms[i], params);
        return Row{analyzer->name(), analyzer->Analyze(options.lambda),
                   analyzer->MaxThroughput(1e6)};
      });
  for (const Row& row : rows) {
    const AnalysisResult& result = row.result;
    table.NewRow().Add(row.name);
    if (result.stable) {
      table.Add(result.per_search)
          .Add(result.per_insert)
          .Add(result.per_delete)
          .Add(result.root_writer_utilization());
    } else {
      table.AddNA().AddNA().AddNA().AddNA();
    }
    table.Add(row.max_throughput);
  }
  table.Print(std::cout, options.csv);
  return 0;
}

int CmdCapacity(const CommonOptions& options) {
  auto analyzer = MakeAnalyzer(options.ParseProtocol(), options.Params());
  double max_rate = analyzer->MaxThroughput(1e6);
  auto at_rho = analyzer->ArrivalRateForRootUtilization(options.rho);
  std::printf("%s:\n  max throughput:            %g\n",
              analyzer->name().c_str(), max_rate);
  if (at_rho.has_value()) {
    std::printf("  lambda at root rho_w=%.2f:  %g\n", options.rho, *at_rho);
  } else {
    std::printf("  root rho_w never reaches %.2f while stable\n",
                options.rho);
  }
  return 0;
}

int CmdRules(const CommonOptions& options) {
  ModelParams params = options.Params();
  std::printf("rules of thumb (N=%d, %lu items, D=%g, height %d):\n",
              options.node_size, static_cast<unsigned long>(options.items),
              options.disk_cost, params.height());
  std::printf("  RoT 1  naive lambda(rho=.5):       %g\n",
              NaiveRuleOfThumb(params));
  std::printf("  RoT 2  naive limit (large N):      %g\n",
              NaiveRuleOfThumbLimit(params));
  std::printf("  RoT 3  optimistic lambda(rho=.5):  %g\n",
              OptimisticRuleOfThumb(params));
  std::printf("  RoT 4  optimistic limit (large N): %g\n",
              OptimisticRuleOfThumbLimit(params));
  return 0;
}

int CmdSimulate(const CommonOptions& options) {
  // Seeds are pre-assigned (options.seed + s) and folded in seed order
  // below, so the report is identical for any --jobs value.
  std::vector<SimConfig> configs;
  configs.reserve(options.seeds);
  for (int s = 0; s < options.seeds; ++s) {
    SimConfig config;
    config.algorithm = options.ParseProtocol();
    config.lambda = options.lambda;
    config.mix = options.Mix();
    config.num_operations = options.ops;
    config.warmup_operations = options.ops / 10;
    config.num_items = options.items;
    config.max_node_size = options.node_size;
    config.disk_cost = options.disk_cost;
    config.buffer_pool_nodes = options.buffer_pool;
    config.zipf_skew = options.zipf;
    config.recovery = options.Recovery();
    config.seed = options.seed + s;
    configs.push_back(config);
  }
  // --trace records the first seed's full event stream; the other seeds run
  // untraced (the statistics are identical either way).
  std::unique_ptr<obs::TraceSink> sink;
  if (!options.trace.empty()) {
    auto format = obs::ParseTraceFormat(options.trace_format);
    if (!format.has_value()) {
      std::cerr << "unknown --trace_format '" << options.trace_format
                << "' (jsonl | chrome)\n";
      return 1;
    }
    sink = obs::OpenTraceFile(options.trace, *format);
    configs[0].trace = sink.get();
  }
  auto start = std::chrono::steady_clock::now();
  std::vector<SimResult> results = runner::ParallelMap(
      configs.size(), options.jobs,
      [&](size_t s) { return Simulator(configs[s]).Run(); });
  double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (sink != nullptr) sink->Flush();

  if (options.json) {
    std::vector<runner::SeedStats> seeds;
    seeds.reserve(results.size());
    for (const SimResult& result : results) {
      seeds.push_back(runner::ReduceSeed(result));
    }
    runner::SimRunInfo info;
    info.algorithm = AlgorithmName(options.ParseProtocol());
    info.lambda = options.lambda;
    info.jobs = runner::EffectiveJobs(options.jobs);
    info.wall_seconds = wall_seconds;
    runner::WriteSimPointJson(std::cout, info,
                              runner::MergeSeedStats(seeds), options.timing);
    return 0;
  }

  Accumulator search, insert, del, rho, p50, p95, p99;
  uint64_t crossings = 0, restarts = 0, completed = 0;
  for (int s = 0; s < options.seeds; ++s) {
    const SimResult& result = results[s];
    if (result.saturated) {
      std::printf("seed %lu: SATURATED (open system outran the servers)\n",
                  static_cast<unsigned long>(configs[s].seed));
      continue;
    }
    search.Add(result.resp_search.mean());
    insert.Add(result.resp_insert.mean());
    del.Add(result.resp_delete.mean());
    rho.Add(result.root_writer_utilization);
    p50.Add(result.resp_p50);
    p95.Add(result.resp_p95);
    p99.Add(result.resp_p99);
    crossings += result.link_crossings;
    restarts += result.restarts;
    completed += result.completed;
  }
  if (search.count() == 0) return 0;
  std::printf(
      "%s simulated at lambda=%g (%zu stable seeds x %lu ops):\n"
      "  response: search %.3f  insert %.3f  delete %.3f\n"
      "  percentiles (all ops): p50 %.2f  p95 %.2f  p99 %.2f\n"
      "  root writer utilization: %.4f\n"
      "  restarts/op: %.5f   link crossings/op: %.5f\n",
      AlgorithmName(options.ParseProtocol()).c_str(), options.lambda,
      search.count(), static_cast<unsigned long>(options.ops), search.mean(),
      insert.mean(), del.mean(), p50.mean(), p95.mean(), p99.mean(),
      rho.mean(), restarts / static_cast<double>(completed),
      crossings / static_cast<double>(completed));
  return 0;
}

void AppendStressTimer(std::string* out, const obs::TimerSnapshot& timer) {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer),
                "{\"count\":%" PRIu64 ",\"total_ns\":%" PRIu64
                ",\"max_ns\":%" PRIu64
                ",\"mean_ns\":%.17g,\"p50_ns\":%.17g,\"p99_ns\":%.17g}",
                timer.count, timer.total_ns, timer.max_ns, timer.mean_ns(),
                timer.quantile_ns(0.50), timer.quantile_ns(0.99));
  out->append(buffer);
}

void AppendStressSide(std::string* out, const char* name,
                      const LatchWaitStats& side) {
  char buffer[128];
  std::snprintf(buffer, sizeof(buffer),
                "\"%s\":{\"acquisitions\":%" PRIu64 ",\"contended\":%" PRIu64
                ",\"wait\":",
                name, side.acquisitions, side.contended);
  out->append(buffer);
  AppendStressTimer(out, side.wait);
  out->push_back('}');
}

void AppendLatchLevelsJson(std::string* out, const CTreeStats& stats) {
  out->append("\"latch_levels\":[");
  for (size_t i = 0; i < stats.latch_levels.size(); ++i) {
    const LatchLevelStats& level = stats.latch_levels[i];
    if (i > 0) out->push_back(',');
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "{\"level\":%d,", level.level);
    out->append(buffer);
    AppendStressSide(out, "shared", level.shared);
    out->push_back(',');
    AppendStressSide(out, "exclusive", level.exclusive);
    out->push_back('}');
  }
  out->append("]");
}

/// Per-level latch-contention table, shared by `stress` and `serve` final
/// reports (root at the top, like the model's level tables).
void PrintLatchTable(Algorithm algorithm, const CTreeStats& stats, bool csv) {
  if (algorithm == Algorithm::kOlc) {
    // OLC takes no node latches: it validates node versions and restarts
    // on a conflict instead.
    std::printf("  (no node latches: olc validates node versions instead; "
                "%" PRIu64 " restarts)\n",
                stats.restarts);
    return;
  }
  if (stats.latch_levels.empty()) {
    std::printf("  (latch telemetry disabled: built with CBTREE_OBS=OFF)\n");
    return;
  }
  Table table({"level", "S_acq", "S_contended", "S_p99_wait_us", "X_acq",
               "X_contended", "X_p99_wait_us"});
  for (auto it = stats.latch_levels.rbegin();
       it != stats.latch_levels.rend(); ++it) {
    table.NewRow()
        .Add(it->level)
        .Add(static_cast<int64_t>(it->shared.acquisitions))
        .Add(static_cast<int64_t>(it->shared.contended))
        .Add(it->shared.wait.quantile_ns(0.99) / 1000.0)
        .Add(static_cast<int64_t>(it->exclusive.acquisitions))
        .Add(static_cast<int64_t>(it->exclusive.contended))
        .Add(it->exclusive.wait.quantile_ns(0.99) / 1000.0);
  }
  table.Print(std::cout, csv);
}

/// Parses "5s" | "1500ms" | "2m" | "5" (bare seconds); exits on nonsense.
double ParseDurationSeconds(const std::string& text) {
  size_t pos = 0;
  double value = 0.0;
  try {
    value = std::stod(text, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  std::string unit = text.substr(pos);
  if (pos == 0 || value < 0.0) {
    std::cerr << "bad --duration '" << text << "'\n";
    std::exit(1);
  }
  if (unit.empty() || unit == "s") return value;
  if (unit == "ms") return value / 1000.0;
  if (unit == "m") return value * 60.0;
  std::cerr << "bad --duration unit '" << unit << "' (ms | s | m)\n";
  std::exit(1);
}

/// Opens --trace if set; exits on an unknown format. Null when untraced.
std::unique_ptr<obs::TraceSink> OpenTraceSink(const CommonOptions& options) {
  if (options.trace.empty()) return nullptr;
  auto format = obs::ParseTraceFormat(options.trace_format);
  if (!format.has_value()) {
    std::cerr << "unknown --trace_format '" << options.trace_format
              << "' (jsonl | chrome)\n";
    std::exit(1);
  }
  return obs::OpenTraceFile(options.trace, *format);
}

// Multi-threaded stress of a real concurrent tree: preload, then hammer it
// with the configured mix from `threads` workers and report wall-clock
// throughput plus the latch-contention telemetry the trees collect.
// SIGINT/SIGTERM drain instead of killing the run: workers stop at the next
// operation boundary and the final report covers the work actually done.
int CmdStress(const CommonOptions& options) {
  if (options.metrics != "table" && options.metrics != "json") {
    std::cerr << "unknown --metrics '" << options.metrics
              << "' (table | json)\n";
    return 1;
  }
  auto tree = MakeConcurrentBTree(options.ParseProtocol(),
                                  options.node_size);
  const uint64_t key_space = 2 * std::max<uint64_t>(options.items, 1);
  {
    Rng rng(options.seed * 0x9e3779b97f4a7c15ull + 1);
    for (uint64_t i = 0; i < options.items; ++i) {
      tree->Insert(static_cast<Key>(rng.NextBounded(key_space) + 1),
                   static_cast<Value>(i));
    }
  }
  net::SignalDrain::Install();
  const int threads = std::max(1, options.threads);
  const uint64_t per_thread = options.stress_ops / threads;
  std::vector<uint64_t> executed(threads, 0);
  auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(options.seed * 0x2545f4914f6cdd1dull + 1000 + t);
      uint64_t done = 0;
      for (uint64_t i = 0; i < per_thread; ++i) {
        // Poll the drain flag at operation granularity so Ctrl-C lands
        // between tree operations, never inside one.
        if ((i & 1023) == 0 && net::SignalDrain::requested()) break;
        // Choose the operation before the key: searches and deletes honor
        // --zipf (hot ranks), inserts stay uniform — the same convention the
        // workload generator and the network driver use.
        double r = rng.NextDouble();
        if (r < options.q_s) {
          tree->Search(static_cast<Key>(
              SampleZipfIndex(rng, key_space, options.zipf) + 1));
        } else if (r < options.q_s + options.q_i) {
          tree->Insert(static_cast<Key>(rng.NextBounded(key_space) + 1),
                       static_cast<Value>(i));
        } else {
          tree->Delete(static_cast<Key>(
              SampleZipfIndex(rng, key_space, options.zipf) + 1));
        }
        ++done;
      }
      executed[t] = done;
    });
  }
  for (std::thread& worker : workers) worker.join();
  double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  const bool interrupted = net::SignalDrain::requested();
  uint64_t total_ops = 0;
  for (uint64_t done : executed) total_ops += done;
  tree->CheckInvariants();
  CTreeStats stats = tree->stats();
  double throughput =
      wall_seconds > 0.0 ? static_cast<double>(total_ops) / wall_seconds : 0.0;

  if (options.metrics == "json") {
    std::string json;
    char buffer[256];
    std::snprintf(buffer, sizeof(buffer),
                  "{\"kind\":\"stress\",\"algorithm\":\"%s\",\"threads\":%d,"
                  "\"ops\":%" PRIu64
                  ",\"interrupted\":%s,\"wall_seconds\":%.17g,"
                  "\"throughput_ops_per_sec\":%.17g,\"zipf\":%.17g,",
                  tree->name().c_str(), threads, total_ops,
                  interrupted ? "true" : "false", wall_seconds, throughput,
                  options.zipf);
    json.append(buffer);
    std::snprintf(buffer, sizeof(buffer),
                  "\"counts\":{\"size\":%zu,\"splits\":%" PRIu64
                  ",\"root_splits\":%" PRIu64 ",\"restarts\":%" PRIu64
                  ",\"link_crossings\":%" PRIu64 "},",
                  tree->size(), stats.splits, stats.root_splits,
                  stats.restarts, stats.link_crossings);
    json.append(buffer);
    AppendLatchLevelsJson(&json, stats);
    json.append("}\n");
    std::fputs(json.c_str(), stdout);
    return 0;
  }

  std::printf(
      "%s stress: %d threads, %" PRIu64
      " ops in %.3fs (%.0f ops/s), final size %zu%s\n"
      "  splits %" PRIu64 " (root %" PRIu64 ")  restarts %" PRIu64
      "  link crossings %" PRIu64 "\n",
      tree->name().c_str(), threads, total_ops, wall_seconds, throughput,
      tree->size(), interrupted ? "  [interrupted: drained early]" : "",
      stats.splits, stats.root_splits, stats.restarts,
      stats.link_crossings);
  PrintLatchTable(options.ParseProtocol(), stats, options.csv);
  return 0;
}

// Runs the net/ TCP service over a real concurrent tree until SIGINT /
// SIGTERM, then drains gracefully and prints the service counters plus the
// tree's latch telemetry.
int CmdServe(const CommonOptions& options) {
  std::unique_ptr<obs::TraceSink> sink = OpenTraceSink(options);
  net::ServerOptions server_options;
  server_options.host = options.host;
  server_options.port = options.port;
  server_options.algorithm = options.ParseProtocol();
  server_options.node_size = options.node_size;
  server_options.preload_items = options.items;
  server_options.seed = options.seed;
  server_options.workers = std::max(1, options.workers);
  server_options.shards = std::max(1, options.shards);
  server_options.loops = std::max(1, options.loops);
  server_options.max_batch = std::max<uint64_t>(1, options.batch);
  server_options.max_inflight = static_cast<size_t>(options.queue);
  server_options.trace = sink.get();
  server_options.stats_interval_s = options.stats_interval;
  server_options.stats_file = options.stats_file;
  server_options.stats_port = options.stats_port;
  server_options.stats_ring =
      static_cast<size_t>(std::max<uint64_t>(1, options.stats_ring));
  server_options.trace_sample = options.trace_sample;
  server_options.wal_dir = options.wal_dir;
  server_options.wal_fsync = options.ParseFsync();
  server_options.wal_group_commit_us =
      static_cast<uint32_t>(options.group_commit_us);
  server_options.wal_segment_bytes = options.wal_segment_bytes;
  server_options.wal_retention = options.Recovery().policy;
  net::Server server(server_options);
  std::string error;
  if (!server.Start(&error)) {
    std::cerr << "serve: " << error << "\n";
    return 1;
  }
  // The "listening on" line is the readiness handshake scripts wait for.
  std::printf("%s: %d shards x %d loops, %d workers, queue %" PRIu64
              ", batch %" PRIu64 ", %" PRIu64 " keys preloaded\n",
              AlgorithmName(server_options.algorithm).c_str(),
              server.num_shards(), server.num_loops(),
              server_options.workers,
              static_cast<uint64_t>(server_options.max_inflight),
              static_cast<uint64_t>(server_options.max_batch),
              options.items);
  std::printf("build %s\n", BuildProvenanceLine().c_str());
  if (options.stats_interval > 0) {
    std::printf("stats every %.3fs (ring %" PRIu64 "%s%s)\n",
                options.stats_interval, options.stats_ring,
                options.stats_file.empty() ? "" : ", file ",
                options.stats_file.c_str());
  }
  if (server.stats_port() >= 0) {
    std::printf("stats exposition on %s:%d\n", options.host.c_str(),
                server.stats_port());
  }
  if (!options.wal_dir.empty()) {
    const net::ServerStats boot = server.stats();
    std::printf("wal %s: fsync=%s, group_commit=%" PRIu64
                "us, retention=%s, replayed %" PRIu64 " records from %" PRIu64
                " segments (%" PRIu64 " torn bytes truncated)\n",
                options.wal_dir.c_str(),
                wal::FsyncModeName(options.ParseFsync()),
                options.group_commit_us, options.recovery.c_str(),
                boot.wal.replayed_records, boot.wal.replayed_segments,
                boot.wal.truncated_bytes);
  }
  // The "listening on" line stays last before the flush: it is the
  // readiness handshake scripts wait for.
  std::printf("listening on %s:%d\n", options.host.c_str(), server.port());
  std::fflush(stdout);

  net::SignalDrain::Install();
  server.ServeUntil(net::SignalDrain::wake_fd());
  if (sink != nullptr) sink->Flush();

  const net::ServerStats stats = server.stats();
  server.CheckAllInvariants();
  size_t total_keys = 0;
  for (const net::ShardServerStats& shard : stats.shards) {
    total_keys += shard.tree_size;
  }
  std::printf(
      "\ncbtree serve drained (%d shards, %d loops):\n"
      "  connections %" PRIu64 " accepted, %" PRIu64 " closed\n"
      "  requests    %" PRIu64 " received: %" PRIu64 " completed, %" PRIu64
      " rejected, %" PRIu64 " shutdown-rejected\n"
      "  frames      %" PRIu64 " bad, %" PRIu64 " slow-consumer drops\n"
      "  batching    %" PRIu64 " tree passes, %" PRIu64
      " requests shared a pass\n"
      "  bytes       %" PRIu64 " in, %" PRIu64 " out\n"
      "  admin       %" PRIu64 " stats requests, write buffer hwm %zu\n"
      "  build       %s\n"
      "  final keys  %zu across all shards\n",
      server.num_shards(), server.num_loops(),
      stats.connections_accepted, stats.connections_closed,
      stats.requests_received, stats.completed, stats.rejected,
      stats.shutdown_rejected, stats.bad_frames, stats.slow_consumer_drops,
      stats.batches, stats.batched_requests, stats.bytes_in, stats.bytes_out,
      stats.stats_requests, stats.write_buffer_hwm,
      BuildProvenanceLine().c_str(), total_keys);
  if (stats.wal.enabled) {
    // appends/fsyncs is the group-commit amortization. The count includes
    // the logged preload, which groups well; serving writes alone barely do.
    std::printf("  wal         %" PRIu64 " appends in %" PRIu64
                " groups (%" PRIu64 " fsyncs, max group %" PRIu64
                "), %" PRIu64 " bytes, %" PRIu64 " segments\n",
                stats.wal.appends, stats.wal.groups, stats.wal.fsyncs,
                stats.wal.max_group, stats.wal.bytes, stats.wal.segments);
  }
  const auto history = server.history();
  if (!history.empty()) {
    std::printf("  snapshots   %zu intervals retained%s%s\n", history.size(),
                options.stats_file.empty() ? "" : ", series in ",
                options.stats_file.c_str());
  }
  if (stats.shards.size() > 1) {
    Table shard_table({"shard", "executed", "batches", "batched", "keys"});
    for (size_t s = 0; s < stats.shards.size(); ++s) {
      shard_table.NewRow()
          .Add(static_cast<int64_t>(s))
          .Add(static_cast<int64_t>(stats.shards[s].executed))
          .Add(static_cast<int64_t>(stats.shards[s].batches))
          .Add(static_cast<int64_t>(stats.shards[s].batched_requests))
          .Add(static_cast<int64_t>(stats.shards[s].tree_size));
    }
    shard_table.Print(std::cout, options.csv);
  }
  if (stats.loops.size() > 1) {
    Table loop_table({"loop", "conns_accepted", "requests", "stats",
                      "slow_drops", "wbuf_hwm"});
    for (size_t l = 0; l < stats.loops.size(); ++l) {
      loop_table.NewRow()
          .Add(static_cast<int64_t>(l))
          .Add(static_cast<int64_t>(stats.loops[l].connections_accepted))
          .Add(static_cast<int64_t>(stats.loops[l].requests_received))
          .Add(static_cast<int64_t>(stats.loops[l].stats_requests))
          .Add(static_cast<int64_t>(stats.loops[l].slow_consumer_drops))
          .Add(static_cast<int64_t>(stats.loops[l].write_buffer_hwm));
    }
    loop_table.Print(std::cout, options.csv);
  }
  // Latch telemetry per shard (each shard is its own tree).
  for (int s = 0; s < server.num_shards(); ++s) {
    if (server.num_shards() > 1) std::printf("shard %d latches:\n", s);
    PrintLatchTable(server_options.algorithm, server.tree(s)->stats(),
                    options.csv);
  }
  // Accounting invariant: every well-formed frame got exactly one answer.
  // The per-loop and per-shard breakdowns must also sum back to the
  // server-wide counters — a loop or shard losing track of work shows up
  // here even when the global counters happen to balance.
  const uint64_t answered =
      stats.completed + stats.rejected + stats.shutdown_rejected;
  if (answered != stats.requests_received) {
    std::fprintf(stderr,
                 "serve: accounting mismatch: %" PRIu64 " received vs %" PRIu64
                 " answered\n",
                 stats.requests_received, answered);
    return 1;
  }
  uint64_t loop_requests = 0;
  for (const net::LoopServerStats& loop : stats.loops) {
    loop_requests += loop.requests_received;
  }
  if (loop_requests != stats.requests_received) {
    std::fprintf(stderr,
                 "serve: per-loop accounting mismatch: loops saw %" PRIu64
                 " requests vs %" PRIu64 " server-wide\n",
                 loop_requests, stats.requests_received);
    return 1;
  }
  uint64_t shard_executed = 0;
  for (const net::ShardServerStats& shard : stats.shards) {
    shard_executed += shard.executed;
  }
  if (shard_executed != stats.completed) {
    std::fprintf(stderr,
                 "serve: per-shard accounting mismatch: shards executed "
                 "%" PRIu64 " vs %" PRIu64 " completed\n",
                 shard_executed, stats.completed);
    return 1;
  }
  // Fold-back identities for the admin-plane and backpressure counters:
  // every per-loop breakdown must sum (or max) back to the server-wide
  // value, exactly like the request counters above.
  uint64_t loop_stats_requests = 0;
  uint64_t loop_drops = 0;
  size_t loop_hwm = 0;
  for (const net::LoopServerStats& loop : stats.loops) {
    loop_stats_requests += loop.stats_requests;
    loop_drops += loop.slow_consumer_drops;
    loop_hwm = std::max(loop_hwm, loop.write_buffer_hwm);
  }
  if (loop_stats_requests != stats.stats_requests) {
    std::fprintf(stderr,
                 "serve: per-loop stats-request mismatch: loops saw %" PRIu64
                 " vs %" PRIu64 " server-wide\n",
                 loop_stats_requests, stats.stats_requests);
    return 1;
  }
  if (loop_drops != stats.slow_consumer_drops) {
    std::fprintf(stderr,
                 "serve: per-loop slow-consumer mismatch: loops dropped "
                 "%" PRIu64 " vs %" PRIu64 " server-wide\n",
                 loop_drops, stats.slow_consumer_drops);
    return 1;
  }
  if (loop_hwm != stats.write_buffer_hwm) {
    std::fprintf(stderr,
                 "serve: write-buffer hwm mismatch: loops max %zu vs %zu "
                 "server-wide\n",
                 loop_hwm, stats.write_buffer_hwm);
    return 1;
  }
  return 0;
}

// Asks a running `cbtree serve` for its live stats over the data port (the
// out-of-band kStats admin frame): a rendered table by default, the raw
// JSON body with --json.
int CmdStat(const CommonOptions& options) {
  net::Client client;
  std::string error;
  if (!client.Connect(options.host, options.port, &error)) {
    std::cerr << "stat: cannot connect to " << options.host << ":"
              << options.port << ": " << error << "\n";
    return 1;
  }
  std::optional<std::string> body = client.Stats(
      options.json ? net::StatsFormat::kJson : net::StatsFormat::kTable);
  if (!body.has_value()) {
    std::cerr << "stat: no kStats reply from " << options.host << ":"
              << options.port << "\n";
    return 1;
  }
  std::fputs(body->c_str(), stdout);
  if (options.json) std::fputc('\n', stdout);
  return 0;
}

// Open-loop Poisson client for a running `cbtree serve`; the --json report
// is shape-compatible with `cbtree simulate --json`.
int CmdDrive(const CommonOptions& options) {
  std::unique_ptr<obs::TraceSink> sink = OpenTraceSink(options);
  net::DriveOptions drive;
  drive.host = options.host;
  drive.port = options.port;
  drive.lambda = options.lambda;
  drive.duration_seconds = ParseDurationSeconds(options.duration);
  drive.connections = std::max(1, options.connections);
  drive.mix = options.Mix();
  drive.zipf_skew = options.zipf;
  drive.key_space = 2 * std::max<uint64_t>(options.items, 1);
  drive.seed = options.seed;
  drive.shards = std::max(1, options.shards);
  drive.trace = sink.get();
  net::DriveReport report = net::RunDrive(drive);
  if (sink != nullptr) sink->Flush();
  if (!report.connect_ok) {
    std::cerr << "drive: cannot connect to " << drive.host << ":"
              << drive.port << ": " << report.error << "\n";
    return 1;
  }
  const std::string algorithm = AlgorithmName(options.ParseProtocol());
  // --server_stats: one kStats probe on a fresh connection after the run —
  // the server is still up (it drains on ITS signal, not ours), so the body
  // reflects the load just applied.
  std::optional<std::string> server_stats;
  if (options.server_stats) {
    net::Client stat_client;
    std::string stat_error;
    if (stat_client.Connect(options.host, options.port, &stat_error)) {
      server_stats = stat_client.Stats(net::StatsFormat::kJson);
    }
    if (!server_stats.has_value()) {
      std::cerr << "drive: --server_stats probe failed"
                << (stat_error.empty() ? "" : ": " + stat_error) << "\n";
    }
  }
  if (options.json) {
    net::WriteDriveJson(std::cout, algorithm, drive, report, options.timing,
                        server_stats.has_value() ? &*server_stats : nullptr);
  } else {
    double span = report.wall_seconds > 0.0 ? report.wall_seconds : 1.0;
    std::printf(
        "%s drive: lambda=%g over %d connections for %.3fs\n"
        "  sent %" PRIu64 "  completed %" PRIu64 "  rejected %" PRIu64
        "  errors %" PRIu64 "  unanswered %" PRIu64 "\n"
        "  achieved throughput %.0f ops/s   mean send lag %.6fs\n"
        "  response seconds: mean %.6f  p50 %.6f  p95 %.6f  p99 %.6f\n"
        "  per op: search %.6f  insert %.6f  delete %.6f\n"
        "  mean outstanding requests %.3f\n",
        algorithm.c_str(), drive.lambda, drive.connections,
        report.wall_seconds, report.sent, report.completed, report.rejected,
        report.errors, report.unanswered,
        static_cast<double>(report.completed) / span, report.send_lag.mean(),
        report.all.mean(), report.latencies.Quantile(0.50),
        report.latencies.Quantile(0.95), report.latencies.Quantile(0.99),
        report.search.mean(), report.insert.mean(), report.del.mean(),
        // The report's own window is empty (per-connection windows were
        // merged in), so close it at 0 like the JSON writer does.
        report.active_ops.Average(0.0));
    if (report.shard_sent.size() > 1) {
      Table occupancy({"shard", "sent", "completed"});
      for (size_t s = 0; s < report.shard_sent.size(); ++s) {
        occupancy.NewRow()
            .Add(static_cast<int64_t>(s))
            .Add(static_cast<int64_t>(report.shard_sent[s]))
            .Add(static_cast<int64_t>(report.shard_completed[s]));
      }
      occupancy.Print(std::cout, options.csv);
    }
  }
  // Zero lost requests: every sent request was answered (completed or
  // rejected) — the acceptance invariant for a clean run.
  const bool clean = report.errors == 0 && report.unanswered == 0 &&
                     report.sent == report.completed + report.rejected;
  return clean ? 0 : 1;
}

void Usage() {
  std::fprintf(
      stderr,
      "usage: cbtree <command> [flags]\n"
      "commands:\n"
      "  analyze   per-level queueing analysis at one arrival rate\n"
      "  sweep     analysis across a lambda grid (--points, --json)\n"
      "  compare   all five algorithms side by side at one lambda\n"
      "  capacity  max throughput and lambda at a target root rho_w\n"
      "  rules     the paper's rules of thumb for this tree\n"
      "  simulate  discrete-event simulation (--seeds, --ops, --json,\n"
      "            --trace=<file> --trace_format=jsonl|chrome)\n"
      "  stress    multi-threaded run on a real concurrent tree\n"
      "            (--threads, --stress_ops, --metrics=table|json, --zipf;\n"
      "            SIGINT drains and still prints the report)\n"
      "  serve     sharded TCP service over real concurrent trees until\n"
      "            SIGINT (--protocol, --host, --port, --shards, --loops,\n"
      "            --workers, --batch, --queue; live observability:\n"
      "            --stats_interval, --stats_file, --stats_port,\n"
      "            --stats_ring, --trace_sample)\n"
      "  drive     open-loop Poisson load against a running serve\n"
      "            (--port, --lambda, --duration, --connections, --zipf,\n"
      "            --shards for per-shard occupancy, --json,\n"
      "            --server_stats to embed the server's stats)\n"
      "  stat      live stats of a running serve over the data port\n"
      "            (--host, --port, --json)\n"
      "run 'cbtree <cmd> --help' for the full flag list\n");
}

}  // namespace
}  // namespace cbtree

int main(int argc, char** argv) {
  using namespace cbtree;
  if (argc < 2) {
    Usage();
    return 1;
  }
  std::string command = argv[1];
  CommonOptions options;
  FlagSet flags;
  options.Register(&flags);
  flags.Parse(argc - 1, argv + 1);
  if (command == "analyze") return CmdAnalyze(options);
  if (command == "sweep") return CmdSweep(options);
  if (command == "compare") return CmdCompare(options);
  if (command == "capacity") return CmdCapacity(options);
  if (command == "rules") return CmdRules(options);
  if (command == "simulate") return CmdSimulate(options);
  if (command == "stress") return CmdStress(options);
  if (command == "serve") return CmdServe(options);
  if (command == "drive") return CmdDrive(options);
  if (command == "stat") return CmdStat(options);
  std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
  Usage();
  return 1;
}
