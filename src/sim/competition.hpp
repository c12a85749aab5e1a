#pragma once

/// \file competition.hpp
/// Multi-bot competition: several arbitrage bots watch the same market;
/// each block, every bot plans its best bundle and the one promising the
/// most profit wins the block (the priority-auction abstraction of MEV
/// competition — the highest-value bundle outbids the rest). The winner
/// executes and moves the pools; the losers get nothing. This turns the
/// paper's per-loop profit ordering into a concrete competitive payoff:
/// a bot that monetizes better (MaxMax/Convex) systematically outbids a
/// MaxPrice bot on the loops where the start token matters.

#include <string>
#include <vector>

#include "common/result.hpp"
#include "core/comparison.hpp"
#include "market/price_process.hpp"
#include "market/snapshot.hpp"

namespace arb::sim {

struct BotSpec {
  std::string name;
  core::StrategyKind strategy = core::StrategyKind::kMaxMax;
};

struct CompetitionConfig {
  std::uint64_t seed = 11;
  std::size_t blocks = 50;
  std::size_t loop_length = 3;
  market::PriceProcessConfig dynamics;
};

struct BotStanding {
  std::string name;
  std::size_t blocks_won = 0;
  double realized_usd = 0.0;
};

struct CompetitionResult {
  std::vector<BotStanding> standings;  ///< same order as the bot list
  std::size_t contested_blocks = 0;    ///< blocks where any bot bid > 0
};

/// Runs the competition on a copy of the snapshot.
/// Preconditions: at least one bot, block count > 0.
[[nodiscard]] Result<CompetitionResult> run_competition(
    const market::MarketSnapshot& snapshot, const std::vector<BotSpec>& bots,
    const CompetitionConfig& config = {});

}  // namespace arb::sim
