#include "core/comparison.hpp"

#include "common/logging.hpp"
#include "graph/cycle_enumeration.hpp"

namespace arb::core {

Result<std::vector<LoopComparison>> compare_strategies(
    const graph::TokenGraph& graph, const market::CexPriceFeed& prices,
    const std::vector<graph::Cycle>& loops) {
  std::vector<LoopComparison> results;
  results.reserve(loops.size());
  for (const graph::Cycle& cycle : loops) {
    LoopComparison row(cycle);

    auto convex = solve_convex(graph, prices, cycle);
    if (!convex) return convex.error();
    row.convex = *std::move(convex);

    // The Convex solve read the rotations off the loop's segment table;
    // a loop its price-product gate answered has none yet.
    row.traditional = std::move(row.convex.rotations);
    if (row.traditional.empty()) {
      auto rotations = evaluate_all_rotations(graph, prices, cycle);
      if (!rotations) return rotations.error();
      row.traditional = *std::move(rotations);
    }

    auto max_price = max_price_of(row.traditional, prices);
    if (!max_price) return max_price.error();
    row.max_price = *std::move(max_price);
    row.max_max = max_max_of(row.traditional);

    results.push_back(std::move(row));
  }
  return results;
}

Result<MarketStudy> run_market_study(const market::MarketSnapshot& snapshot,
                                     std::size_t loop_length,
                                     const market::PoolFilter& filter) {
  MarketStudy study;
  study.market = snapshot.filtered(filter);
  ARB_LOG_INFO("market study: filtered to "
               << study.market.graph.token_count() << " tokens / "
               << study.market.graph.pool_count() << " pools");

  const auto cycles =
      graph::enumerate_fixed_length_cycles(study.market.graph, loop_length);
  const auto arbitrage =
      graph::filter_arbitrage(study.market.graph, cycles);
  ARB_LOG_INFO("market study: " << cycles.size() << " directed cycles, "
                                << arbitrage.size() << " arbitrage loops");

  auto comparisons = compare_strategies(study.market.graph,
                                        study.market.prices, arbitrage);
  if (!comparisons) return comparisons.error();
  study.loops = *std::move(comparisons);
  return study;
}

}  // namespace arb::core
