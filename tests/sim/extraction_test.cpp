// Tests for sim/extraction.hpp and sim/integer_check.hpp.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/plan.hpp"
#include "graph/cycle_enumeration.hpp"
#include "market/generator.hpp"
#include "sim/extraction.hpp"
#include "sim/integer_check.hpp"
#include "tests/core/fixtures.hpp"

namespace arb::sim {
namespace {

using core::testing::Section5Market;

TEST(ExtractionTest, SingleLoopExtractsOnceThenStops) {
  Section5Market m;
  const std::vector<graph::Cycle> loops{m.loop()};
  auto result = extract_all(m.graph, m.prices, loops);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->steps.size(), 1u);
  EXPECT_NEAR(result->steps[0].realized_usd, 205.6, 0.5);
  EXPECT_EQ(result->remaining_profitable, 0u);
  // The loop is drained afterwards.
  EXPECT_LE(m.loop().price_product(m.graph), 1.0 + 1e-9);
}

TEST(ExtractionTest, TraditionalStrategyIsRejected) {
  // Traditional names no start token: rejected even when no loop would
  // be priced (no loops at all here), not run as MaxMax.
  Section5Market m;
  ExtractionConfig config;
  config.strategy = core::StrategyKind::kTraditional;
  const auto result = extract_all(m.graph, m.prices, {}, config);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kInvalidArgument);
}

TEST(ExtractionTest, ConvexStrategyExtractsAtLeastAsMuchFromOneLoop) {
  Section5Market maxmax_market;
  Section5Market convex_market;
  const std::vector<graph::Cycle> loops{maxmax_market.loop()};

  ExtractionConfig maxmax_config;
  auto a = extract_all(maxmax_market.graph, maxmax_market.prices, loops,
                       maxmax_config);
  ExtractionConfig convex_config;
  convex_config.strategy = core::StrategyKind::kConvexOptimization;
  auto b = extract_all(convex_market.graph, convex_market.prices,
                       {convex_market.loop()}, convex_config);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_GE(b->total_realized_usd, a->total_realized_usd - 1e-4);
}

TEST(ExtractionTest, MarketWideExtractionConverges) {
  market::GeneratorConfig config;
  config.token_count = 16;
  config.pool_count = 34;
  config.seed = 5;
  auto snapshot = market::generate_snapshot(config);
  auto loops = graph::filter_arbitrage(
      snapshot.graph,
      graph::enumerate_fixed_length_cycles(snapshot.graph, 3));
  ASSERT_FALSE(loops.empty());
  const std::size_t initial_loops = loops.size();

  ExtractionConfig cfg;
  cfg.min_profit_usd = 1e-4;
  auto result = extract_all(snapshot.graph, snapshot.prices, loops, cfg);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->total_realized_usd, 0.0);
  EXPECT_EQ(result->remaining_profitable, 0u);
  // Executions can exceed the loop count (loops re-open), but not wildly.
  EXPECT_LE(result->steps.size(), initial_loops * 5);

  // Post-condition: no length-3 loop in this market clears the threshold.
  const auto after = graph::filter_arbitrage(
      snapshot.graph,
      graph::enumerate_fixed_length_cycles(snapshot.graph, 3));
  for (const graph::Cycle& loop : after) {
    auto outcome =
        core::evaluate_max_max(snapshot.graph, snapshot.prices, loop);
    ASSERT_TRUE(outcome.ok());
    EXPECT_LT(outcome->monetized_usd, cfg.min_profit_usd + 1e-6);
  }
}

TEST(ExtractionTest, GreedyPicksBiggestFirst) {
  market::GeneratorConfig config;
  config.token_count = 16;
  config.pool_count = 34;
  config.seed = 5;
  auto snapshot = market::generate_snapshot(config);
  auto loops = graph::filter_arbitrage(
      snapshot.graph,
      graph::enumerate_fixed_length_cycles(snapshot.graph, 3));
  // The first execution must be the best opportunity at the *initial*
  // state. (Later steps may plan more than the first: executing a loop
  // can widen a mispricing elsewhere.)
  double best_initial = 0.0;
  for (const graph::Cycle& loop : loops) {
    auto outcome =
        core::evaluate_max_max(snapshot.graph, snapshot.prices, loop);
    ASSERT_TRUE(outcome.ok());
    best_initial = std::max(best_initial, outcome->monetized_usd);
  }
  auto result = extract_all(snapshot.graph, snapshot.prices, loops);
  ASSERT_TRUE(result.ok());
  ASSERT_GT(result->steps.size(), 1u);
  EXPECT_NEAR(result->steps[0].planned_usd, best_initial, 1e-9);
}

TEST(ExtractionTest, MaxExecutionsCapRespected) {
  market::GeneratorConfig config;
  config.token_count = 16;
  config.pool_count = 34;
  auto snapshot = market::generate_snapshot(config);
  auto loops = graph::filter_arbitrage(
      snapshot.graph,
      graph::enumerate_fixed_length_cycles(snapshot.graph, 3));
  ExtractionConfig cfg;
  cfg.max_executions = 2;
  auto result = extract_all(snapshot.graph, snapshot.prices, loops, cfg);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->steps.size(), 2u);
}

TEST(IntegerCheckTest, ConvexPlanSurvivesQuantization) {
  Section5Market m;
  auto solution = core::solve_convex(m.graph, m.prices, m.loop()).value();
  auto plan = core::plan_from_convex(m.graph, m.loop(), solution).value();
  auto report = check_plan_integer(m.graph, m.prices, plan);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->settles);
  EXPECT_NEAR(report->realized_usd, plan.expected_monetized_usd, 0.01);
  EXPECT_LT(std::abs(report->quantization_loss_usd), 0.01);
}

TEST(IntegerCheckTest, MaxMaxPlanSurvivesQuantization) {
  Section5Market m;
  auto outcome = core::evaluate_max_max(m.graph, m.prices, m.loop()).value();
  auto plan =
      core::plan_from_single_start(m.graph, m.loop(), outcome).value();
  auto report = check_plan_integer(m.graph, m.prices, plan);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->settles);
  EXPECT_NEAR(report->realized_usd, plan.expected_monetized_usd, 0.01);
}

TEST(IntegerCheckTest, CoarseQuantizationLosesMoreValue) {
  Section5Market m;
  auto solution = core::solve_convex(m.graph, m.prices, m.loop()).value();
  auto plan = core::plan_from_convex(m.graph, m.loop(), solution).value();
  IntegerCheckOptions fine;
  fine.units_per_token = 1e12;
  IntegerCheckOptions coarse;
  coarse.units_per_token = 1e2;
  auto fine_report = check_plan_integer(m.graph, m.prices, plan, fine);
  auto coarse_report = check_plan_integer(m.graph, m.prices, plan, coarse);
  ASSERT_TRUE(fine_report.ok());
  ASSERT_TRUE(coarse_report.ok());
  EXPECT_GT(std::abs(coarse_report->quantization_loss_usd),
            std::abs(fine_report->quantization_loss_usd));
}

TEST(IntegerCheckTest, EmptyPlanRejected) {
  Section5Market m;
  core::ArbitragePlan plan;
  EXPECT_FALSE(check_plan_integer(m.graph, m.prices, plan).ok());
}

TEST(IntegerCheckTest, DoesNotTouchRealPools) {
  Section5Market m;
  const double before = m.graph.pool(m.xy).reserve0();
  auto solution = core::solve_convex(m.graph, m.prices, m.loop()).value();
  auto plan = core::plan_from_convex(m.graph, m.loop(), solution).value();
  ASSERT_TRUE(check_plan_integer(m.graph, m.prices, plan).ok());
  EXPECT_DOUBLE_EQ(m.graph.pool(m.xy).reserve0(), before);
}

}  // namespace
}  // namespace arb::sim
