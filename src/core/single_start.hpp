#pragma once

/// \file single_start.hpp
/// The Traditional, MaxPrice and MaxMax strategies (Section III of the
/// paper). All three reduce to "optimize the single input amount on a
/// rotation of the loop"; they differ only in which rotation they pick.
/// Rotation s is the singleton segment (s, n) of the loop's segment table
/// (core/active_set.hpp), the table the Convex active set reads: Möbius
/// closed form on CPMM and concentrated hops (range cap mapped back),
/// safeguarded Newton across a StableSwap hop. MaxPrice and MaxMax are
/// selections from the rotations.

#include <vector>

#include "common/result.hpp"
#include "core/active_set.hpp"
#include "graph/cycle.hpp"
#include "graph/token_graph.hpp"
#include "market/price_feed.hpp"
#include "core/outcome.hpp"

namespace arb::core {

/// The table's n rotations as single-start outcomes, in rotation order:
/// segment (s, n)'s input and output, monetized at P_s. Fails with
/// kNumericFailure on a degenerate table or a non-finite optimum.
[[nodiscard]] Result<std::vector<StrategyOutcome>> rotation_outcomes(
    SegmentTable& table);

/// Traditional strategy: fix the walk to start at tokens()[start_offset]
/// and maximize (output − input); monetize with the start token's CEX
/// price. Only that rotation is solved, but the loop's kernels carry
/// every token's price: fails with kNotFound when any is missing.
[[nodiscard]] Result<StrategyOutcome> evaluate_traditional(
    const graph::TokenGraph& graph, const market::CexPriceFeed& prices,
    const graph::Cycle& cycle, std::size_t start_offset);

/// All n traditional outcomes (one per rotation), in rotation order, read
/// off one segment table. MaxPrice and MaxMax select from them; exposed
/// for Figs. 2 and 5.
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
