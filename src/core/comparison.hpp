#pragma once

/// \file comparison.hpp
/// The paper's Section VI experiment harness: run every strategy on every
/// arbitrage loop of a market and collect the per-loop rows behind
/// Figs. 5–10.

#include <vector>

#include "common/result.hpp"
#include "core/convex.hpp"
#include "core/outcome.hpp"
#include "core/single_start.hpp"
#include "graph/cycle.hpp"
#include "market/snapshot.hpp"

namespace arb::core {

/// Everything measured on one loop.
struct LoopComparison {
  graph::Cycle cycle;
  /// One traditional outcome per rotation (start token), rotation order.
  std::vector<StrategyOutcome> traditional;
  StrategyOutcome max_price;
  StrategyOutcome max_max;
  ConvexSolution convex;

  explicit LoopComparison(graph::Cycle c) : cycle(std::move(c)) {}
};

/// Runs all strategies on each loop off one segment table: the Convex
/// solve fills the rotations (moved into `traditional`, so
/// `convex.rotations` is left empty), and MaxPrice and MaxMax are picked
/// from them. Loops are taken as-is (callers filter for profitability
/// first if desired).
[[nodiscard]] Result<std::vector<LoopComparison>> compare_strategies(
    const graph::TokenGraph& graph, const market::CexPriceFeed& prices,
    const std::vector<graph::Cycle>& loops);

/// A full Section VI experiment: the filtered market the loops refer to,
/// plus the per-loop strategy comparisons.
struct MarketStudy {
  market::MarketSnapshot market;  ///< filtered snapshot (cycles point here)
  std::vector<LoopComparison> loops;
};

/// End-to-end Section VI pipeline: filter the snapshot with the paper's
/// pool-quality filter, enumerate arbitrage loops of `loop_length`, and
/// compare strategies on all of them.
[[nodiscard]] Result<MarketStudy> run_market_study(
    const market::MarketSnapshot& snapshot, std::size_t loop_length,
    const market::PoolFilter& filter = {});

}  // namespace arb::core
