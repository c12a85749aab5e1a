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

Status check_loop_strategy(StrategyKind strategy) {
  if (strategy == StrategyKind::kTraditional) {
    return make_error(ErrorCode::kInvalidArgument,
                      "Traditional needs a start token to price a loop");
  }
  return Status::success();
}

Result<PricedLoop> price_loop(const graph::TokenGraph& graph,
                              const market::CexPriceFeed& prices,
                              const graph::Cycle& loop, StrategyKind strategy,
                              ConvexContext& ctx) {
  if (Status valid = check_loop_strategy(strategy); !valid) {
    return valid.error();
  }
  PricedLoop priced;
  if (strategy == StrategyKind::kConvexOptimization) {
    auto solution = solve_convex(graph, prices, loop, ConvexOptions{}, ctx);
    if (!solution) return solution.error();
    auto plan = plan_from_convex(graph, loop, *solution);
    if (!plan) return plan.error();
    priced.outcome = std::move(solution->outcome);
    priced.plan = *std::move(plan);
    priced.rotations = std::move(solution->rotations);
    return priced;
  }
  auto rotations = evaluate_all_rotations(graph, prices, loop);
  if (!rotations) return rotations.error();
  priced.rotations = *std::move(rotations);
  if (strategy == StrategyKind::kMaxPrice) {
    auto outcome = max_price_of(priced.rotations, prices);
    if (!outcome) return outcome.error();
    priced.outcome = *std::move(outcome);
  } else {
    priced.outcome = max_max_of(priced.rotations);
  }
  auto plan = plan_from_single_start(graph, loop, priced.outcome);
  if (!plan) return plan.error();
  priced.plan = *std::move(plan);
  return priced;
}

Result<std::optional<Opportunity>> evaluate_opportunity(
    const graph::TokenGraph& graph, const market::CexPriceFeed& prices,
    const graph::Cycle& loop, const ScannerConfig& config,
    ConvexContext& ctx) {
  // Warm-starting is opt-in via the config flag; a caller-provided warm
  // slot is ignored (not cleared) when the flag is off.
  optim::WarmStart* warm = ctx.warm;
  if (!config.convex_warm_start) ctx.warm = nullptr;
  auto priced = price_loop(graph, prices, loop, config.strategy, ctx);
  ctx.warm = warm;
  if (!priced) return priced.error();

  Opportunity opportunity(loop);
  opportunity.outcome = std::move(priced->outcome);
  opportunity.plan = std::move(priced->plan);
  opportunity.net_profit_usd = opportunity.outcome.monetized_usd;
  if (config.gas.has_value()) {
    opportunity.net_profit_usd =
        config.gas->net_profit_usd(opportunity.outcome, loop.length());
  }
  if (opportunity.net_profit_usd < config.min_net_profit_usd) {
    return std::optional<Opportunity>{};
  }

  // A Convex loop the price-product gate answered has no table yet.
  std::vector<StrategyOutcome>& rotations = priced->rotations;
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
  if (Status valid = check_loop_strategy(config.strategy); !valid) {
    return valid.error();
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
