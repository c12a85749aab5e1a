#include "sim/competition.hpp"

#include <optional>

#include "common/error.hpp"
#include "core/scanner.hpp"
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
  core::ConvexContext ctx;
  for (const graph::Cycle& loop : loops) {
    auto priced =
        core::price_loop(market.graph, market.prices, loop, bot.strategy, ctx);
    if (!priced) return priced.error();
    const double planned_usd = priced->outcome.monetized_usd;
    if (planned_usd <= 0.0) continue;
    if (!best || planned_usd > best->planned_usd) {
      best = Bid{planned_usd, std::move(priced->plan)};
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
  CompetitionResult result;
  result.standings.reserve(bots.size());
  for (const BotSpec& bot : bots) {
    if (Status valid = core::check_loop_strategy(bot.strategy); !valid) {
      return valid.error();
    }
    result.standings.push_back(BotStanding{bot.name, 0, 0.0});
  }

  market::MarketSnapshot market = snapshot;
  market::PriceProcess process(market, config.dynamics, config.seed);
  const ExecutionEngine engine;

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
