#include "sim/competition.hpp"

#include <optional>

#include "common/error.hpp"
#include "core/plan.hpp"
#include "graph/cycle_enumeration.hpp"
#include "sim/engine.hpp"

namespace arb::sim {
namespace {

struct Bid {
  double planned_usd = 0.0;
  core::ArbitragePlan plan;
};

/// The bot's best bundle over all current loops (empty when nothing is
/// profitable).
Result<std::optional<Bid>> best_bid(const market::MarketSnapshot& market,
                                    const std::vector<graph::Cycle>& loops,
                                    const BotSpec& bot) {
  std::optional<Bid> best;
  for (const graph::Cycle& loop : loops) {
    Bid bid;
    if (bot.strategy == core::StrategyKind::kConvexOptimization) {
      auto solution = core::solve_convex(market.graph, market.prices, loop);
      if (!solution) return solution.error();
      if (solution->outcome.monetized_usd <= 0.0) continue;
      bid.planned_usd = solution->outcome.monetized_usd;
      auto plan = core::plan_from_convex(market.graph, loop, *solution);
      if (!plan) return plan.error();
      bid.plan = *std::move(plan);
    } else {
      auto outcome =
          bot.strategy == core::StrategyKind::kMaxPrice
              ? core::evaluate_max_price(market.graph, market.prices, loop)
              : core::evaluate_max_max(market.graph, market.prices, loop);
      if (!outcome) return outcome.error();
      if (outcome->monetized_usd <= 0.0) continue;
      bid.planned_usd = outcome->monetized_usd;
      auto plan = core::plan_from_single_start(market.graph, loop, *outcome);
      if (!plan) return plan.error();
      bid.plan = *std::move(plan);
    }
    if (!best || bid.planned_usd > best->planned_usd) {
      best = std::move(bid);
    }
  }
  return best;
}

}  // namespace

Result<CompetitionResult> run_competition(
    const market::MarketSnapshot& snapshot, const std::vector<BotSpec>& bots,
    const CompetitionConfig& config) {
  if (bots.empty()) {
    return make_error(ErrorCode::kInvalidArgument, "no bots");
  }
  if (config.blocks == 0) {
    return make_error(ErrorCode::kInvalidArgument, "zero blocks");
  }

  market::MarketSnapshot market = snapshot;
  market::PriceProcess process(market, config.dynamics, config.seed);
  const ExecutionEngine engine;

  CompetitionResult result;
  result.standings.reserve(bots.size());
  for (const BotSpec& bot : bots) {
    result.standings.push_back(BotStanding{bot.name, 0, 0.0});
  }

  for (std::size_t block = 0; block < config.blocks; ++block) {
    process.step(market);
    const auto loops = graph::filter_arbitrage(
        market.graph,
        graph::enumerate_fixed_length_cycles(market.graph,
                                             config.loop_length));
    if (loops.empty()) continue;

    // Sealed-bid round: every bot plans on the same state.
    std::optional<std::size_t> winner;
    std::optional<Bid> winning_bid;
    for (std::size_t b = 0; b < bots.size(); ++b) {
      auto bid = best_bid(market, loops, bots[b]);
      if (!bid) return bid.error();
      if (!bid->has_value()) continue;
      if (!winning_bid || (**bid).planned_usd > winning_bid->planned_usd) {
        winning_bid = **bid;
        winner = b;
      }
    }
    if (!winner.has_value()) continue;
    ++result.contested_blocks;

    auto report = engine.execute(market.graph, market.prices,
                                 winning_bid->plan);
    if (!report) return report.error();
    ++result.standings[*winner].blocks_won;
    result.standings[*winner].realized_usd += report->realized_usd;
  }
  return result;
}

}  // namespace arb::sim
