// Validating the analytical framework against the discrete-event simulator
// at a user-chosen operating point — the experiment behind Figures 3-8,
// runnable interactively.
//
// Build & run:  ./build/examples/simulation_vs_analysis
//                   [--protocol=naive|optimistic|link|two-phase|olc]
//                   [--lambda=0.3] ...

#include <cstdio>
#include <string>

#include "core/analyzer.h"
#include "sim/simulator.h"
#include "util/flags.h"

using namespace cbtree;

int main(int argc, char** argv) {
  std::string protocol = "optimistic";
  double lambda = 0.5;
  uint64_t items = 40000;
  int node_size = 13;
  double disk_cost = 5.0;
  int seeds = 5;
  FlagSet flags;
  flags.Register("protocol", &protocol, AlgorithmFlagNames());
  flags.Register("lambda", &lambda, "arrival rate");
  flags.Register("items", &items, "tree size");
  flags.Register("node_size", &node_size, "max entries per node");
  flags.Register("disk_cost", &disk_cost, "on-disk access multiplier");
  flags.Register("seeds", &seeds, "simulation seeds");
  flags.Parse(argc, argv);

  Algorithm algorithm;
  if (!ParseAlgorithm(protocol, &algorithm)) {
    std::fprintf(stderr, "unknown --protocol '%s' (%s)\n", protocol.c_str(),
                 AlgorithmFlagNames().c_str());
    return 1;
  }

  OperationMix mix{0.3, 0.5, 0.2};
  ModelParams params =
      ModelParams::ForTree(items, node_size, disk_cost, mix);
  auto analyzer = MakeAnalyzer(algorithm, params);
  AnalysisResult model = analyzer->Analyze(lambda);
  if (!model.stable) {
    std::printf("the model says lambda=%.3f saturates level %d "
                "(max throughput %.3f)\n",
                lambda, model.bottleneck_level,
                analyzer->MaxThroughput(1e6));
    return 0;
  }

  std::printf("%s, lambda=%.3f, N=%d, %lu items, D=%.0f\n\n",
              analyzer->name().c_str(), lambda, node_size,
              static_cast<unsigned long>(items), disk_cost);
  std::printf("model: search %.2f  insert %.2f  delete %.2f  rho_w(root) "
              "%.3f\n",
              model.per_search, model.per_insert, model.per_delete,
              model.root_writer_utilization());

  Accumulator search, insert, del, rho;
  for (int seed = 1; seed <= seeds; ++seed) {
    SimConfig config;
    config.algorithm = algorithm;
    config.lambda = lambda;
    config.mix = mix;
    config.num_items = items;
    config.max_node_size = node_size;
    config.disk_cost = disk_cost;
    config.seed = seed;
    SimResult result = Simulator(config).Run();
    if (result.saturated) {
      std::printf("seed %d: SATURATED — the open system outran the model\n",
                  seed);
      continue;
    }
    search.Add(result.resp_search.mean());
    insert.Add(result.resp_insert.mean());
    del.Add(result.resp_delete.mean());
    rho.Add(result.root_writer_utilization);
  }
  if (search.count() > 0) {
    std::printf("sim:   search %.2f  insert %.2f  delete %.2f  rho_w(root) "
                "%.3f   (%zu seeds, 10k ops each)\n",
                search.mean(), insert.mean(), del.mean(), rho.mean(),
                search.count());
    std::printf("\nratios sim/model: search %.2f  insert %.2f\n",
                search.mean() / model.per_search,
                insert.mean() / model.per_insert);
  }
  return 0;
}
