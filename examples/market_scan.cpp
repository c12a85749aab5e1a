// Market scan: the paper's full Section VI pipeline on a realistic
// snapshot.
//
//   $ ./market_scan [seed] [loop_length] [snapshot_dir]
//
// Generates (or loads, if snapshot_dir is given and holds tokens.csv /
// pools.csv) a Uniswap-V2-style market, applies the paper's pool-quality
// filter ($30k TVL, >100 units per reserve), enumerates all arbitrage
// loops of the requested length and compares the four strategies,
// printing the most profitable loops.

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/stats.hpp"
#include "core/analysis.hpp"
#include "core/comparison.hpp"
#include "market/generator.hpp"
#include "market/io.hpp"

using namespace arb;

int main(int argc, char** argv) {
  const std::uint64_t seed =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 20230901ULL;
  const std::size_t loop_length =
      argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 3;

  market::MarketSnapshot snapshot;
  if (argc > 3) {
    auto loaded = market::load_snapshot(argv[3]);
    if (!loaded.ok()) {
      std::fprintf(stderr, "cannot load snapshot: %s\n",
                   loaded.error().to_string().c_str());
      return 1;
    }
    snapshot = *std::move(loaded);
  } else {
    market::GeneratorConfig config;
    config.seed = seed;
    config.below_filter_pools = 15;  // junk pools to exercise the filter
    snapshot = market::generate_snapshot(config);
  }
  std::printf("snapshot '%s': %zu tokens, %zu pools\n",
              snapshot.label.c_str(), snapshot.graph.token_count(),
              snapshot.graph.pool_count());

  auto study = core::run_market_study(snapshot, loop_length);
  if (!study.ok()) {
    std::fprintf(stderr, "study failed: %s\n",
                 study.error().to_string().c_str());
    return 1;
  }
  std::printf("after quality filter: %zu tokens, %zu pools\n",
              study->market.graph.token_count(),
              study->market.graph.pool_count());
  std::printf("length-%zu arbitrage loops: %zu\n\n", loop_length,
              study->loops.size());

  // Aggregate profitability per strategy.
  StreamingStats traditional_worst;
  StreamingStats max_price_usd;
  StreamingStats max_max_usd;
  StreamingStats convex_usd;
  for (const core::LoopComparison& row : study->loops) {
    double worst = row.traditional.empty() ? 0.0
                                           : row.traditional[0].monetized_usd;
    for (const core::StrategyOutcome& t : row.traditional) {
      worst = std::min(worst, t.monetized_usd);
    }
    traditional_worst.add(worst);
    max_price_usd.add(row.max_price.monetized_usd);
    max_max_usd.add(row.max_max.monetized_usd);
    convex_usd.add(row.convex.outcome.monetized_usd);
  }
  std::printf("strategy totals across all loops:\n");
  std::printf("  worst traditional start: $%10.2f\n", traditional_worst.sum());
  std::printf("  MaxPrice               : $%10.2f\n", max_price_usd.sum());
  std::printf("  MaxMax                 : $%10.2f\n", max_max_usd.sum());
  std::printf("  ConvexOptimization     : $%10.2f\n\n", convex_usd.sum());

  // Top loops by convex profit.
  std::vector<const core::LoopComparison*> sorted;
  sorted.reserve(study->loops.size());
  for (const auto& row : study->loops) sorted.push_back(&row);
  std::sort(sorted.begin(), sorted.end(), [](const auto* a, const auto* b) {
    return a->convex.outcome.monetized_usd > b->convex.outcome.monetized_usd;
  });

  std::printf("top %zu loops (capacity = optimal input / first reserve):\n",
              std::min<std::size_t>(10, sorted.size()));
  std::printf("%-40s %10s %10s %10s %10s %12s\n", "loop", "MaxPrice$",
              "MaxMax$", "Convex$", "capacity", "loop TVL$");
  for (std::size_t i = 0; i < sorted.size() && i < 10; ++i) {
    const core::LoopComparison& row = *sorted[i];
    const auto diag = core::analyze_loop(
        study->market.graph, study->market.prices, row.cycle, row.traditional);
    std::printf("%-40s %10.2f %10.2f %10.2f %9.2f%% %12.0f\n",
                row.cycle.describe(study->market.graph).c_str(),
                row.max_price.monetized_usd, row.max_max.monetized_usd,
                row.convex.outcome.monetized_usd,
                diag.ok() ? 100.0 * diag->input_to_reserve_ratio : 0.0,
                diag.ok() ? diag->loop_tvl_usd : 0.0);
  }
  return 0;
}
