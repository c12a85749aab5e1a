#include "core/scanner.hpp"

#include <algorithm>
#include <numeric>
#include <string>

#include "common/error.hpp"
#include "core/convex.hpp"
#include "core/single_start.hpp"
#include "graph/cycle_enumeration.hpp"

namespace arb::core {

Result<std::optional<Opportunity>> evaluate_opportunity(
    const graph::TokenGraph& graph, const market::CexPriceFeed& prices,
    const graph::Cycle& loop, const ScannerConfig& config) {
  ConvexContext ctx;
  return evaluate_opportunity(graph, prices, loop, config, ctx);
}

Result<std::optional<Opportunity>> evaluate_opportunity(
    const graph::TokenGraph& graph, const market::CexPriceFeed& prices,
    const graph::Cycle& loop, const ScannerConfig& config,
    ConvexContext& ctx) {
  Opportunity opportunity(loop);
  std::vector<StrategyOutcome> rotations;

  if (config.strategy == StrategyKind::kConvexOptimization) {
    // Warm-starting is opt-in via the config flag; a caller-provided warm
    // slot is ignored (not cleared) when the flag is off.
    optim::WarmStart* warm = ctx.warm;
    if (!config.convex_warm_start) ctx.warm = nullptr;
    auto solution = solve_convex(graph, prices, loop, ConvexOptions{}, ctx);
    ctx.warm = warm;
    if (!solution) return solution.error();
    opportunity.outcome = solution->outcome;
    auto plan = plan_from_convex(graph, loop, *solution);
    if (!plan) return plan.error();
    opportunity.plan = *std::move(plan);
  } else {
    auto solved = evaluate_all_rotations(graph, prices, loop);
    if (!solved) return solved.error();
    rotations = *std::move(solved);
    if (config.strategy == StrategyKind::kMaxPrice) {
      auto outcome = max_price_of(rotations, prices);
      if (!outcome) return outcome.error();
      opportunity.outcome = *std::move(outcome);
    } else {
      opportunity.outcome = max_max_of(rotations);
    }
    auto plan = plan_from_single_start(graph, loop, opportunity.outcome);
    if (!plan) return plan.error();
    opportunity.plan = *std::move(plan);
  }

  opportunity.net_profit_usd = opportunity.outcome.monetized_usd;
  if (config.gas.has_value()) {
    opportunity.net_profit_usd =
        config.gas->net_profit_usd(opportunity.outcome, loop.length());
  }
  if (opportunity.net_profit_usd < config.min_net_profit_usd) {
    return std::optional<Opportunity>{};
  }

  if (rotations.empty()) {
    auto solved = evaluate_all_rotations(graph, prices, loop);
    if (!solved) return solved.error();
    rotations = *std::move(solved);
  }
  auto diagnostics = analyze_loop(graph, prices, loop, rotations);
  if (!diagnostics) return diagnostics.error();
  opportunity.diagnostics = *std::move(diagnostics);
  return std::optional<Opportunity>{std::move(opportunity)};
}

bool opportunity_before(const Opportunity& a, const Opportunity& b) {
  if (a.net_profit_usd != b.net_profit_usd) {
    return a.net_profit_usd > b.net_profit_usd;
  }
  return a.cycle.rotation_key() < b.cycle.rotation_key();
}

void rank_opportunities(std::vector<Opportunity>& opportunities) {
  std::vector<std::string> keys;
  keys.reserve(opportunities.size());
  for (const Opportunity& op : opportunities) {
    keys.push_back(op.cycle.rotation_key());
  }
  std::vector<std::size_t> order(opportunities.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t i, std::size_t j) {
              if (opportunities[i].net_profit_usd !=
                  opportunities[j].net_profit_usd) {
                return opportunities[i].net_profit_usd >
                       opportunities[j].net_profit_usd;
              }
              return keys[i] < keys[j];
            });
  std::vector<Opportunity> ranked;
  ranked.reserve(opportunities.size());
  for (const std::size_t i : order) {
    ranked.push_back(std::move(opportunities[i]));
  }
  opportunities = std::move(ranked);
}

Result<std::vector<Opportunity>> scan_market(
    const graph::TokenGraph& graph, const market::CexPriceFeed& prices,
    const ScannerConfig& config) {
  if (config.loop_lengths.empty()) {
    return make_error(ErrorCode::kInvalidArgument,
                      "scanner needs at least one loop length");
  }
  std::vector<Opportunity> opportunities;
  for (const std::size_t length : config.loop_lengths) {
    if (length < 2) {
      return make_error(ErrorCode::kInvalidArgument,
                        "loop length must be at least 2");
    }
    const auto loops = graph::filter_arbitrage(
        graph, graph::enumerate_fixed_length_cycles(graph, length));
    for (const graph::Cycle& loop : loops) {
      auto opportunity = evaluate_opportunity(graph, prices, loop, config);
      if (!opportunity) return opportunity.error();
      if (opportunity->has_value()) {
        opportunities.push_back(*std::move(*opportunity));
      }
    }
  }
  rank_opportunities(opportunities);
  return opportunities;
}

}  // namespace arb::core
