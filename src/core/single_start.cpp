#include "core/single_start.hpp"

#include <algorithm>
#include <cmath>

#include "amm/generic_path.hpp"
#include "amm/path.hpp"
#include "common/error.hpp"

namespace arb::core {

Result<StrategyOutcome> evaluate_traditional(
    const graph::TokenGraph& graph, const market::CexPriceFeed& prices,
    const graph::Cycle& cycle, std::size_t start_offset) {
  const std::size_t n = cycle.length();
  const TokenId start = cycle.tokens()[start_offset % n];
  auto price = prices.price(start);
  if (!price) return price.error();

  amm::OptimalTrade trade;
  if (cycle.all_cpmm(graph)) {
    // All-CPMM: the exact Möbius closed form.
    trade = amm::optimize_input_analytic(cycle.path(graph, start_offset % n));
  } else {
    // Mixed venues: derivative-free optimizer over black-box hops,
    // bracket search seeded at a fraction of the start-side depth.
    amm::GenericOptimizeOptions generic;
    generic.initial_scale = std::max(
        generic.initial_scale,
        1e-3 * graph.pool(cycle.pools()[start_offset % n]).reserve_of(start));
    auto solved = amm::optimize_input_generic(
        cycle.generic_path(graph, start_offset % n), generic);
    if (!solved) return solved.error();
    trade = *solved;
  }

  // Containment: corrupted reserves can drive the Möbius algebra or the
  // bracket search to NaN; surface a typed error instead of emitting an
  // Opportunity whose profit silently poisons the ranking.
  if (!std::isfinite(trade.input) || !std::isfinite(trade.output) ||
      !std::isfinite(trade.profit)) {
    return make_error(ErrorCode::kNumericFailure,
                      "non-finite optimal trade on loop " +
                          cycle.rotation_key());
  }

  StrategyOutcome outcome;
  outcome.kind = StrategyKind::kTraditional;
  outcome.start_token = start;
  outcome.input = trade.input;
  outcome.output = trade.output;
  outcome.profits = {TokenProfit{start, trade.profit}};
  outcome.monetized_usd = *price * trade.profit;
  outcome.solver_iterations = trade.iterations;
  return outcome;
}

Result<std::vector<StrategyOutcome>> evaluate_all_rotations(
    const graph::TokenGraph& graph, const market::CexPriceFeed& prices,
    const graph::Cycle& cycle) {
  std::vector<StrategyOutcome> outcomes;
  outcomes.reserve(cycle.length());
  for (std::size_t offset = 0; offset < cycle.length(); ++offset) {
    auto outcome = evaluate_traditional(graph, prices, cycle, offset);
    if (!outcome) return outcome.error();
    outcomes.push_back(*std::move(outcome));
  }
  return outcomes;
}

Result<StrategyOutcome> max_price_of(
    const std::vector<StrategyOutcome>& rotations,
    const market::CexPriceFeed& prices) {
  const StrategyOutcome* best = nullptr;
  double best_price = -1.0;
  for (const StrategyOutcome& candidate : rotations) {
    auto price = prices.price(candidate.start_token);
    if (!price) return price.error();
    if (*price > best_price) {
      best_price = *price;
      best = &candidate;
    }
  }
  ARB_REQUIRE(best != nullptr, "MaxPrice needs at least one rotation");
  StrategyOutcome outcome = *best;
  outcome.kind = StrategyKind::kMaxPrice;
  return outcome;
}

StrategyOutcome max_max_of(const std::vector<StrategyOutcome>& rotations) {
  ARB_REQUIRE(!rotations.empty(), "MaxMax needs at least one rotation");
  const StrategyOutcome* best = &rotations.front();
  for (const StrategyOutcome& candidate : rotations) {
    if (candidate.monetized_usd > best->monetized_usd) best = &candidate;
  }
  StrategyOutcome outcome = *best;
  outcome.kind = StrategyKind::kMaxMax;
  return outcome;
}

Result<StrategyOutcome> evaluate_max_price(const graph::TokenGraph& graph,
                                           const market::CexPriceFeed& prices,
                                           const graph::Cycle& cycle) {
  auto rotations = evaluate_all_rotations(graph, prices, cycle);
  if (!rotations) return rotations.error();
  return max_price_of(*rotations, prices);
}

Result<StrategyOutcome> evaluate_max_max(const graph::TokenGraph& graph,
                                         const market::CexPriceFeed& prices,
                                         const graph::Cycle& cycle) {
  auto rotations = evaluate_all_rotations(graph, prices, cycle);
  if (!rotations) return rotations.error();
  return max_max_of(*rotations);
}

}  // namespace arb::core
