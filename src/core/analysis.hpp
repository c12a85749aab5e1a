#pragma once

/// \file analysis.hpp
/// Per-loop diagnostics: how big an opportunity is relative to the pools
/// that carry it. Useful for ranking loops, for sizing flash loans, and
/// for understanding *why* the empirical Convex/MaxMax gap is tiny (thin
/// loops sit deep in the near-linear region of the swap curve, where
/// retaining profit mid-loop buys nothing).

#include <vector>

#include "common/result.hpp"
#include "core/outcome.hpp"
#include "graph/cycle.hpp"
#include "graph/token_graph.hpp"
#include "market/price_feed.hpp"

namespace arb::core {

struct LoopDiagnostics {
  std::size_t length = 0;
  /// Π p_ij around the loop (> 1 ⇔ profitable orientation).
  double price_product = 0.0;
  /// Mispricing margin in log space: log(price_product).
  double log_margin = 0.0;
  /// Optimal single input of rotation 0, in start-token units.
  double optimal_input = 0.0;
  /// Optimal input as a fraction of the first pool's input-side reserve —
  /// the "capacity utilization" of the opportunity.
  double input_to_reserve_ratio = 0.0;
  /// Gross profit of the best rotation, USD.
  double best_profit_usd = 0.0;
  /// Combined TVL of the loop's pools, USD.
  double loop_tvl_usd = 0.0;
  /// Profit per dollar of TVL (opportunity density).
  double profit_per_tvl = 0.0;
  /// Smallest pool TVL on the loop (the bottleneck).
  double bottleneck_tvl_usd = 0.0;
};

/// Computes diagnostics for one loop from its already-solved rotations
/// (evaluate_all_rotations, one outcome per rotation in rotation order);
/// solves nothing itself. Fails with kNotFound when a CEX price is
/// missing.
[[nodiscard]] Result<LoopDiagnostics> analyze_loop(
    const graph::TokenGraph& graph, const market::CexPriceFeed& prices,
    const graph::Cycle& cycle, const std::vector<StrategyOutcome>& rotations);

}  // namespace arb::core
