#pragma once

/// \file extraction.hpp
/// Market-level value extraction: given all detected arbitrage loops,
/// greedily execute the most profitable one, re-evaluate (loops share
/// pools, so each execution shifts the others), and repeat until no loop
/// clears the profit threshold. Measures how much total value a strategy
/// can actually extract from a market — the market-level complement to
/// the paper's per-loop comparison.

#include <string>
#include <vector>

#include "common/result.hpp"
#include "core/comparison.hpp"
#include "graph/cycle.hpp"
#include "market/price_feed.hpp"
#include "sim/engine.hpp"

namespace arb::sim {

struct ExtractionConfig {
  core::StrategyKind strategy = core::StrategyKind::kMaxMax;
  /// Loops promising less than this (USD) are not executed.
  double min_profit_usd = 1e-6;
  /// Hard cap on executions (loops re-open as others execute).
  std::size_t max_executions = 1000;
};

struct ExtractionStep {
  std::size_t loop_index = 0;  ///< index into the input loop list
  double planned_usd = 0.0;
  double realized_usd = 0.0;
};

struct ExtractionResult {
  std::vector<ExtractionStep> steps;
  double total_realized_usd = 0.0;
  /// Loops still profitable (above threshold) when the cap was hit;
  /// zero when extraction ran to completion.
  std::size_t remaining_profitable = 0;
};

/// Mutates `graph` (pools are traded against). Loops must reference it.
[[nodiscard]] Result<ExtractionResult> extract_all(
    graph::TokenGraph& graph, const market::CexPriceFeed& prices,
    const std::vector<graph::Cycle>& loops,
    const ExtractionConfig& config = {});

}  // namespace arb::sim
