// Extension: closed-system simulation (fixed multiprogramming level, the
// viewpoint of the prior analyses the paper contrasts itself with in §3.1).
// Each of MPL terminals keeps one operation in flight. As the MPL grows,
// throughput climbs and then plateaus — and the plateau is exactly the open
// system's maximum throughput, cross-validating Theorem 2's saturation
// point from the other side.

#include <iostream>

#include "bench/figure_common.h"

using namespace cbtree;
using namespace cbtree::bench;

int main(int argc, char** argv) {
  FigureOptions options;
  std::string protocol = "naive";
  FlagSet flags;
  options.Register(&flags);
  flags.Register("protocol", &protocol, AlgorithmFlagNames());
  flags.Parse(argc, argv);

  Algorithm algorithm;
  if (!ParseAlgorithm(protocol, &algorithm)) {
    std::cerr << "unknown --protocol '" << protocol << "' ("
              << AlgorithmFlagNames() << ")\n";
    return 1;
  }

  auto analyzer = MakeAnalyzer(algorithm, MakeModelParams(options));
  double open_max = analyzer->MaxThroughput(/*cap=*/1e6);

  if (!options.csv) {
    PrintBanner(std::cout,
                "Extension: closed-system throughput vs multiprogramming "
                "level");
    std::cout << "algorithm=" << analyzer->name()
              << "  open-system max throughput=" << open_max << "\n\n";
  }

  Table table({"mpl", "sim_throughput", "sim_mean_response",
               "throughput_over_open_max"});
  for (uint64_t mpl : {1u, 2u, 4u, 8u, 16u, 32u, 64u, 128u}) {
    Accumulator throughput, response;
    for (int seed = 1; seed <= options.seeds; ++seed) {
      SimConfig config = MakeSimConfig(options, algorithm, /*lambda=*/1.0,
                                       seed);
      config.closed_population = mpl;
      config.think_time = 0.0;
      SimResult result = Simulator(config).Run();
      if (result.saturated) continue;  // cannot happen in a closed system
      throughput.Add(result.throughput);
      response.Add(result.resp_all.mean());
    }
    table.NewRow()
        .Add(static_cast<int64_t>(mpl))
        .Add(throughput.mean())
        .Add(response.mean())
        .Add(throughput.mean() / open_max);
  }
  table.Print(std::cout, options.csv);
  std::cout << "\nExpected shape: throughput grows with the MPL, then "
               "plateaus near 1.0x the\nopen-system maximum while the "
               "response time keeps climbing (all extra\noperations just "
               "queue).\n";
  return 0;
}
