#include "sim/replay.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "market/generator.hpp"

namespace arb::sim {
namespace {

market::MarketSnapshot small_market() {
  market::GeneratorConfig config;
  config.token_count = 12;
  config.pool_count = 24;
  config.seed = 99;
  return market::generate_snapshot(config);
}

TEST(ReplayTest, RunsConfiguredBlockCount) {
  ReplayConfig config;
  config.blocks = 5;
  auto result = run_replay(small_market(), config);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->blocks.size(), 5u);
}

TEST(ReplayTest, TraditionalStrategyIsRejected) {
  // Traditional names no start token: rejected, not run as MaxMax.
  ReplayConfig config;
  config.blocks = 1;
  config.strategy = core::StrategyKind::kTraditional;
  const auto result = run_replay(small_market(), config);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kInvalidArgument);
}

TEST(ReplayTest, DoesNotMutateInputSnapshot) {
  const market::MarketSnapshot snapshot = small_market();
  const double before = snapshot.graph.pool(PoolId{0}).reserve0();
  ReplayConfig config;
  config.blocks = 3;
  ASSERT_TRUE(run_replay(snapshot, config).ok());
  EXPECT_DOUBLE_EQ(snapshot.graph.pool(PoolId{0}).reserve0(), before);
}

TEST(ReplayTest, DeterministicForSeed) {
  ReplayConfig config;
  config.blocks = 8;
  auto a = run_replay(small_market(), config);
  auto b = run_replay(small_market(), config);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(a->total_realized_usd, b->total_realized_usd);
}

TEST(ReplayTest, RealizedTracksPlannedPerBlock) {
  ReplayConfig config;
  config.blocks = 10;
  auto result = run_replay(small_market(), config);
  ASSERT_TRUE(result.ok());
  for (const BlockResult& row : result->blocks) {
    // Plans execute against the same state they were computed on, so
    // realized profit matches planned within numerical tolerance.
    EXPECT_NEAR(row.realized_usd, row.planned_usd,
                1e-6 * std::max(1.0, row.planned_usd));
    EXPECT_GE(row.realized_usd, -1e-9);
  }
}

TEST(ReplayTest, NoiseCreatesOpportunities) {
  ReplayConfig config;
  config.blocks = 20;
  config.block_noise_sigma = 0.03;
  auto result = run_replay(small_market(), config);
  ASSERT_TRUE(result.ok());
  std::size_t blocks_with_loops = 0;
  for (const BlockResult& row : result->blocks) {
    if (row.arbitrage_loops > 0) ++blocks_with_loops;
  }
  EXPECT_GT(blocks_with_loops, 10u);
  EXPECT_GT(result->total_realized_usd, 0.0);
}

TEST(ReplayTest, ConvexStrategyEarnsAtLeastMaxMax) {
  ReplayConfig max_max_config;
  max_max_config.blocks = 15;
  max_max_config.strategy = core::StrategyKind::kMaxMax;
  ReplayConfig convex_config = max_max_config;
  convex_config.strategy = core::StrategyKind::kConvexOptimization;

  auto mm = run_replay(small_market(), max_max_config);
  auto cv = run_replay(small_market(), convex_config);
  ASSERT_TRUE(mm.ok());
  ASSERT_TRUE(cv.ok());
  // Same noise stream (same seed), per-block convex >= maxmax on the
  // first block; over time pool states diverge, so compare only block 0.
  ASSERT_FALSE(mm->blocks.empty());
  EXPECT_GE(cv->blocks[0].planned_usd, mm->blocks[0].planned_usd - 1e-6);
}

TEST(ReplayTest, MaxPriceStrategySupported) {
  ReplayConfig config;
  config.blocks = 5;
  config.strategy = core::StrategyKind::kMaxPrice;
  auto result = run_replay(small_market(), config);
  ASSERT_TRUE(result.ok());
}

}  // namespace
}  // namespace arb::sim
