// Property-based tests of the paper's theorems over randomized markets.
//
// Parameterized over RNG seeds: each instantiation generates a fresh
// synthetic market and checks the ordering / equivalence / zero-profit
// theorems on every arbitrage loop found there.

#include <gtest/gtest.h>

#include "core/comparison.hpp"
#include "core/plan.hpp"
#include "graph/cycle_enumeration.hpp"
#include "market/generator.hpp"
#include "sim/engine.hpp"
#include "sim/integer_check.hpp"

namespace arb {
namespace {

class StrategyPropertyTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  market::MarketSnapshot make_market(std::size_t tokens = 16,
                                     std::size_t pools = 34) const {
    market::GeneratorConfig config;
    config.seed = GetParam();
    config.token_count = tokens;
    config.pool_count = pools;
    return market::generate_snapshot(config);
  }
};

TEST_P(StrategyPropertyTest, MaxMaxUpperBoundsTraditionalOnEveryLoop) {
  const auto snapshot = make_market();
  auto study = core::run_market_study(snapshot, 3);
  ASSERT_TRUE(study.ok());
  for (const core::LoopComparison& row : study->loops) {
    double best = 0.0;
    for (const core::StrategyOutcome& t : row.traditional) {
      EXPECT_LE(t.monetized_usd, row.max_max.monetized_usd + 1e-9);
      best = std::max(best, t.monetized_usd);
    }
    EXPECT_NEAR(row.max_max.monetized_usd, best, 1e-12);
  }
}

TEST_P(StrategyPropertyTest, ConvexDominatesMaxMaxOnEveryLoop) {
  const auto snapshot = make_market();
  auto study = core::run_market_study(snapshot, 3);
  ASSERT_TRUE(study.ok());
  for (const core::LoopComparison& row : study->loops) {
    EXPECT_GE(row.convex.outcome.monetized_usd,
              row.max_max.monetized_usd * (1.0 - 1e-7) - 1e-9)
        << row.cycle.describe(study->market.graph);
  }
}

TEST_P(StrategyPropertyTest, ConvexNearlyEqualsMaxMaxEmpirically) {
  // The paper's Fig. 7 observation: on market data the two strategies are
  // almost identical (unlike the adversarial Section V example).
  const auto snapshot = make_market();
  auto study = core::run_market_study(snapshot, 3);
  ASSERT_TRUE(study.ok());
  std::size_t close = 0;
  std::size_t total = 0;
  for (const core::LoopComparison& row : study->loops) {
    if (row.max_max.monetized_usd <= 0.0) continue;
    ++total;
    const double ratio =
        row.convex.outcome.monetized_usd / row.max_max.monetized_usd;
    if (ratio < 1.10) ++close;
  }
  if (total > 0) {
    EXPECT_GE(static_cast<double>(close) / static_cast<double>(total), 0.8);
  }
}

TEST_P(StrategyPropertyTest, ZeroProfitTheoremOnUnprofitableOrientations) {
  // Section IV: if MaxMax finds nothing, Convex finds nothing. Feed the
  // *unprofitable* orientations (price product <= 1) to both.
  const auto snapshot = make_market();
  const auto all = graph::enumerate_fixed_length_cycles(snapshot.graph, 3);
  std::size_t tested = 0;
  for (const graph::Cycle& cycle : all) {
    if (cycle.price_product(snapshot.graph) > 1.0) continue;
    if (++tested > 25) break;  // bound runtime
    auto max_max =
        core::evaluate_max_max(snapshot.graph, snapshot.prices, cycle);
    auto convex =
        core::solve_convex(snapshot.graph, snapshot.prices, cycle);
    ASSERT_TRUE(max_max.ok());
    ASSERT_TRUE(convex.ok());
    EXPECT_DOUBLE_EQ(max_max->monetized_usd, 0.0);
    EXPECT_DOUBLE_EQ(convex->outcome.monetized_usd, 0.0);
  }
  EXPECT_GT(tested, 0u);
}

TEST_P(StrategyPropertyTest, PlansRealizeTheirPromisesUnderExecution) {
  // Each Convex plan executes against the pools and also settles in
  // on-chain integer arithmetic: its hops sit exactly on the flow
  // constraints, where flooring can leave a hop a few base units short.
  auto snapshot = make_market();
  const sim::ExecutionEngine engine;
  for (const std::size_t length : {3u, 4u}) {
    SCOPED_TRACE("length " + std::to_string(length));
    auto study = core::run_market_study(snapshot, length);
    ASSERT_TRUE(study.ok());
    std::size_t executed = 0;
    for (const core::LoopComparison& row : study->loops) {
      if (++executed > 10) break;  // bound runtime
      // Execute on a fresh copy of the filtered market each time.
      market::MarketSnapshot working = study->market;
      auto plan = core::plan_from_convex(working.graph, row.cycle, row.convex);
      ASSERT_TRUE(plan.ok());
      if (plan->steps.empty() || row.convex.outcome.monetized_usd <= 0.0) {
        continue;
      }
      const double expected = plan->expected_monetized_usd;
      auto integer =
          sim::check_plan_integer(working.graph, working.prices, *plan);
      ASSERT_TRUE(integer.ok()) << integer.error().to_string();
      EXPECT_TRUE(integer->settles) << row.cycle.rotation_key();
      EXPECT_NEAR(integer->realized_usd, expected,
                  0.01 * std::max(1.0, expected))
          << row.cycle.rotation_key();

      auto report = engine.execute(working.graph, working.prices, *plan);
      ASSERT_TRUE(report.ok()) << report.error().to_string();
      EXPECT_NEAR(report->realized_usd, row.convex.outcome.monetized_usd,
                  1e-5 * std::max(1.0, row.convex.outcome.monetized_usd));
    }
  }
}

TEST_P(StrategyPropertyTest, MaxMaxPlanLeavesLoopUnprofitable) {
  auto snapshot = make_market();
  auto study = core::run_market_study(snapshot, 3);
  ASSERT_TRUE(study.ok());
  const sim::ExecutionEngine engine;
  std::size_t executed = 0;
  for (const core::LoopComparison& row : study->loops) {
    if (row.max_max.monetized_usd <= 0.0) continue;
    if (++executed > 8) break;
    market::MarketSnapshot working = study->market;
    auto plan =
        core::plan_from_single_start(working.graph, row.cycle, row.max_max);
    ASSERT_TRUE(plan.ok());
    ASSERT_TRUE(engine.execute(working.graph, working.prices, *plan).ok());
    // Post-trade, this orientation holds no more profit.
    auto after = core::evaluate_traditional(working.graph, working.prices,
                                            row.cycle, /*start_offset=*/0);
    // Find the rotation matching the executed start token for exactness.
    for (std::size_t offset = 0; offset < row.cycle.length(); ++offset) {
      if (row.cycle.tokens()[offset] == row.max_max.start_token) {
        after = core::evaluate_traditional(working.graph, working.prices,
                                           row.cycle, offset);
      }
    }
    ASSERT_TRUE(after.ok());
    EXPECT_LT(after->monetized_usd,
              row.max_max.monetized_usd * 1e-3 + 1e-9);
  }
}

TEST_P(StrategyPropertyTest, Length4LoopsObeySameOrdering) {
  const auto snapshot = make_market(12, 26);
  auto study = core::run_market_study(snapshot, 4);
  ASSERT_TRUE(study.ok());
  for (const core::LoopComparison& row : study->loops) {
    ASSERT_EQ(row.traditional.size(), 4u);
    for (const core::StrategyOutcome& t : row.traditional) {
      EXPECT_LE(t.monetized_usd, row.max_max.monetized_usd + 1e-9);
    }
    EXPECT_GE(row.convex.outcome.monetized_usd,
              row.max_max.monetized_usd * (1.0 - 1e-7) - 1e-9);
  }
}

TEST_P(StrategyPropertyTest, ConvexProfitsPerTokenNonNegative) {
  const auto snapshot = make_market();
  auto study = core::run_market_study(snapshot, 3);
  ASSERT_TRUE(study.ok());
  for (const core::LoopComparison& row : study->loops) {
    for (const core::TokenProfit& p : row.convex.outcome.profits) {
      EXPECT_GE(p.amount, -1e-8) << "risk-free property violated";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StrategyPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace arb
