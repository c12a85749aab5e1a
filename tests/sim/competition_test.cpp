#include "sim/competition.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "market/generator.hpp"

namespace arb::sim {
namespace {

market::MarketSnapshot competitive_market() {
  market::GeneratorConfig config;
  config.token_count = 16;
  config.pool_count = 34;
  config.seed = 21;
  // Noisier CEX quotes make the MaxPrice pick wrong more often.
  config.cex_price_noise_sigma = 0.02;
  return market::generate_snapshot(config);
}

CompetitionConfig default_config(std::size_t blocks = 30) {
  CompetitionConfig config;
  config.blocks = blocks;
  config.dynamics.volatility = 0.01;
  return config;
}

TEST(CompetitionTest, ValidationRejectsDegenerateSetups) {
  const auto snapshot = competitive_market();
  EXPECT_FALSE(run_competition(snapshot, {}, default_config()).ok());
  CompetitionConfig zero_blocks;
  zero_blocks.blocks = 0;
  EXPECT_FALSE(
      run_competition(snapshot,
                      {BotSpec{"a", core::StrategyKind::kMaxMax}},
                      zero_blocks)
          .ok());
  // Traditional names no start token: rejected, not run as MaxMax.
  const auto traditional = run_competition(
      snapshot,
      {BotSpec{"a", core::StrategyKind::kMaxMax},
       BotSpec{"b", core::StrategyKind::kTraditional}},
      default_config(1));
  ASSERT_FALSE(traditional.ok());
  EXPECT_EQ(traditional.error().code, ErrorCode::kInvalidArgument);
}

TEST(CompetitionTest, SingleBotWinsEveryContestedBlock) {
  const auto snapshot = competitive_market();
  const std::vector<BotSpec> bots{
      BotSpec{"solo", core::StrategyKind::kMaxMax}};
  const auto result =
      run_competition(snapshot, bots, default_config()).value();
  EXPECT_EQ(result.standings.size(), 1u);
  EXPECT_EQ(result.standings[0].blocks_won, result.contested_blocks);
  EXPECT_GT(result.contested_blocks, 0u);
  EXPECT_GT(result.standings[0].realized_usd, 0.0);
}

TEST(CompetitionTest, DeterministicForSeed) {
  const auto snapshot = competitive_market();
  const std::vector<BotSpec> bots{
      BotSpec{"a", core::StrategyKind::kMaxMax},
      BotSpec{"b", core::StrategyKind::kMaxPrice}};
  const auto r1 = run_competition(snapshot, bots, default_config()).value();
  const auto r2 = run_competition(snapshot, bots, default_config()).value();
  for (std::size_t i = 0; i < bots.size(); ++i) {
    EXPECT_EQ(r1.standings[i].blocks_won, r2.standings[i].blocks_won);
    EXPECT_DOUBLE_EQ(r1.standings[i].realized_usd,
                     r2.standings[i].realized_usd);
  }
}

TEST(CompetitionTest, MaxMaxNeverLosesToMaxPrice) {
  // MaxMax's bid upper-bounds MaxPrice's on every loop by construction,
  // so in a sealed-bid auction the MaxPrice bot can win only by tie.
  const auto snapshot = competitive_market();
  const std::vector<BotSpec> bots{
      BotSpec{"maxmax", core::StrategyKind::kMaxMax},
      BotSpec{"maxprice", core::StrategyKind::kMaxPrice}};
  const auto result =
      run_competition(snapshot, bots, default_config(40)).value();
  EXPECT_GT(result.contested_blocks, 5u);
  EXPECT_GT(result.standings[0].blocks_won, 0u);
  EXPECT_GE(result.standings[0].realized_usd,
            result.standings[1].realized_usd);
  // With noisy CEX quotes MaxPrice genuinely picks the wrong start on
  // some loops, so MaxMax must win strictly more than it loses.
  EXPECT_GT(result.standings[0].blocks_won,
            result.standings[1].blocks_won);
}

TEST(CompetitionTest, ConvexMatchesMaxMaxBids) {
  // Empirically the two strategies bid almost identical amounts; ties
  // resolve to the first bot, so Convex wins at most a few blocks on
  // genuine (tiny) gaps.
  const auto snapshot = competitive_market();
  const std::vector<BotSpec> bots{
      BotSpec{"maxmax", core::StrategyKind::kMaxMax},
      BotSpec{"convex", core::StrategyKind::kConvexOptimization}};
  const auto result =
      run_competition(snapshot, bots, default_config(15)).value();
  const double total = result.standings[0].realized_usd +
                       result.standings[1].realized_usd;
  EXPECT_GT(total, 0.0);
}

}  // namespace
}  // namespace arb::sim
