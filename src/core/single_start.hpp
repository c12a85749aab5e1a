#pragma once

/// \file single_start.hpp
/// The Traditional, MaxPrice and MaxMax strategies (Section III of the
/// paper). All three reduce to "optimize the single input amount on a
/// rotation of the loop"; they differ only in which rotation they pick.
/// evaluate_all_rotations solves each rotation once; MaxPrice and MaxMax
/// are selections from its results.

#include <vector>

#include "common/result.hpp"
#include "graph/cycle.hpp"
#include "graph/token_graph.hpp"
#include "market/price_feed.hpp"
#include "core/outcome.hpp"

namespace arb::core {

/// Traditional strategy: fix the walk to start at tokens()[start_offset]
/// and maximize (output − input); monetize with the start token's CEX
/// price. All-CPMM loops take the closed-form Möbius optimum, mixed loops
/// the bracket search over the pools' own quotes. Fails with kNotFound if
/// that price is missing.
[[nodiscard]] Result<StrategyOutcome> evaluate_traditional(
    const graph::TokenGraph& graph, const market::CexPriceFeed& prices,
    const graph::Cycle& cycle, std::size_t start_offset);

/// All n traditional outcomes (one per rotation), in rotation order.
/// MaxPrice and MaxMax select from them; exposed for Figs. 2 and 5.
[[nodiscard]] Result<std::vector<StrategyOutcome>> evaluate_all_rotations(
    const graph::TokenGraph& graph, const market::CexPriceFeed& prices,
    const graph::Cycle& cycle);

/// MaxPrice among solved rotations: the one whose start token has the
/// highest CEX price (the first on ties). Fails with kNotFound on a
/// missing price.
[[nodiscard]] Result<StrategyOutcome> max_price_of(
    const std::vector<StrategyOutcome>& rotations,
    const market::CexPriceFeed& prices);

/// MaxMax among solved rotations: the best monetized profit (eq. 6), the
/// first on ties. Precondition: rotations is non-empty.
[[nodiscard]] StrategyOutcome max_max_of(
    const std::vector<StrategyOutcome>& rotations);

/// MaxPrice strategy: traditional from the loop token with the highest
/// CEX price.
[[nodiscard]] Result<StrategyOutcome> evaluate_max_price(
    const graph::TokenGraph& graph, const market::CexPriceFeed& prices,
    const graph::Cycle& cycle);

/// MaxMax strategy: traditional from every token in turn; the best
/// monetized profit wins (eq. 6).
[[nodiscard]] Result<StrategyOutcome> evaluate_max_max(
    const graph::TokenGraph& graph, const market::CexPriceFeed& prices,
    const graph::Cycle& cycle);

}  // namespace arb::core
