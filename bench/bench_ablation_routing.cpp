// Ablation: order splitting vs unsplit routing (the Danos et al. global-
// routing idea the paper builds on). On a pair served by several routes,
// sweeps the trade size and reports the output of the water-filling
// split against the best single path — splitting's edge grows with size
// because it spreads price impact.

#include "bench/bench_util.hpp"
#include "core/routing.hpp"

using namespace arb;

int main() {
  graph::TokenGraph graph;
  const TokenId a = graph.add_token("A");
  const TokenId b = graph.add_token("B");
  const TokenId c = graph.add_token("C");
  const PoolId direct1 = graph.add_pool(a, b, 1'000.0, 2'000.0);
  const PoolId direct2 = graph.add_pool(a, b, 400.0, 900.0);
  const PoolId leg_ac = graph.add_pool(a, c, 800.0, 800.0);
  const PoolId leg_cb = graph.add_pool(c, b, 700.0, 1'500.0);
  const std::vector<std::vector<PoolId>> paths{
      {direct1}, {direct2}, {leg_ac, leg_cb}};

  bench::FigureSink sink(
      "ablation_routing", "order splitting vs best single path",
      {"budget", "split_output", "single_output", "improvement_pct",
       "paths_funded"});

  for (double budget = 5.0; budget <= 640.0; budget *= 2.0) {
    const auto split = bench::expect_ok(
        core::optimal_route_split(graph, a, b, paths, budget), "split");
    const double single = bench::expect_ok(
        core::best_single_path_output(graph, a, b, paths, budget), "single");
    std::size_t funded = 0;
    for (double d : split.inputs) {
      if (d > 1e-9) ++funded;
    }
    sink.row({budget, split.total_output, single,
              100.0 * (split.total_output / single - 1.0),
              static_cast<double>(funded)});
  }
  std::printf("shape check: the split's advantage over the best single "
              "path grows with trade size, and more paths get funded as "
              "the budget grows\n\n");
  return 0;
}
