#include "core/single_start.hpp"

#include <utility>

#include "common/error.hpp"
#include "core/loop_nlp.hpp"

namespace arb::core {
namespace {

/// Rotation s read off the table, monetized at the start token's price:
/// P_s·(output − input), as the single-start strategies always have.
Result<StrategyOutcome> rotation_outcome(SegmentTable& table, std::size_t s) {
  const LoopHopData& first = table.hops()[s];
  // Containment: corrupted reserves can drive the closed form or the
  // Newton solve to a non-finite optimum; surface a typed error instead
  // of emitting an Opportunity whose profit silently poisons the ranking.
  const Segment* trade = table.degenerate() ? nullptr : &table.rotation(s);
  if (trade == nullptr || table.broken()) {
    return make_error(ErrorCode::kNumericFailure,
                      "no finite optimal trade from token " +
                          to_string(first.token_in));
  }
  StrategyOutcome outcome;
  outcome.kind = StrategyKind::kTraditional;
  outcome.start_token = first.token_in;
  outcome.input = trade->input;
  outcome.output = trade->output;
  const double profit = trade->output - trade->input;
  outcome.profits = {TokenProfit{first.token_in, profit}};
  outcome.monetized_usd = first.price_in * profit;
  return outcome;
}

}  // namespace

Result<std::vector<StrategyOutcome>> rotation_outcomes(SegmentTable& table) {
  std::vector<StrategyOutcome> outcomes;
  outcomes.reserve(table.size());
  for (std::size_t s = 0; s < table.size(); ++s) {
    auto outcome = rotation_outcome(table, s);
    if (!outcome) return outcome.error();
    outcomes.push_back(*std::move(outcome));
  }
  return outcomes;
}

Result<StrategyOutcome> evaluate_traditional(
    const graph::TokenGraph& graph, const market::CexPriceFeed& prices,
    const graph::Cycle& cycle, std::size_t start_offset) {
  auto hops = make_hop_data(graph, prices, cycle);
  if (!hops) return hops.error();
  SegmentTable table(*std::move(hops));
  return rotation_outcome(table, start_offset % cycle.length());
}

Result<std::vector<StrategyOutcome>> evaluate_all_rotations(
    const graph::TokenGraph& graph, const market::CexPriceFeed& prices,
    const graph::Cycle& cycle) {
  auto hops = make_hop_data(graph, prices, cycle);
  if (!hops) return hops.error();
  SegmentTable table(*std::move(hops));
  return rotation_outcomes(table);
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
