// The paper develops its theory for length-3 loops and notes it applies
// to any length. The shortest possible loop — two tokens through two
// parallel pools pricing the pair differently — exercises every
// wrap-around index in the strategy code, so it gets its own suite.

#include <gtest/gtest.h>

#include "core/comparison.hpp"
#include "core/generic_convex.hpp"
#include "core/plan.hpp"
#include "graph/cycle_enumeration.hpp"
#include "sim/engine.hpp"

namespace arb::core {
namespace {

struct TwoPoolMarket {
  graph::TokenGraph graph;
  market::CexPriceFeed prices;
  TokenId a, b;

  TwoPoolMarket() {
    a = graph.add_token("A");
    b = graph.add_token("B");
    graph.add_pool(a, b, 1'000.0, 2'000.0);  // 1 A = 2 B here
    graph.add_pool(a, b, 900.0, 2'000.0);    // 1 A = 2.22 B here
    prices.set_price(a, 10.0);
    prices.set_price(b, 5.0);
  }

  [[nodiscard]] graph::Cycle loop() const {
    const auto loops = graph::filter_arbitrage(
        graph, graph::enumerate_fixed_length_cycles(graph, 2));
    ARB_REQUIRE(loops.size() == 1, "expected exactly one 2-token arb loop");
    return loops.front();
  }
};

TEST(TwoTokenLoopTest, DetectionFindsTheProfitableOrientation) {
  const TwoPoolMarket m;
  const graph::Cycle loop = m.loop();
  EXPECT_EQ(loop.length(), 2u);
  EXPECT_GT(loop.price_product(m.graph), 1.0);
}

TEST(TwoTokenLoopTest, AllStrategiesRun) {
  const TwoPoolMarket m;
  const graph::Cycle loop = m.loop();
  auto rows = compare_strategies(m.graph, m.prices, {loop});
  ASSERT_TRUE(rows.ok());
  const LoopComparison& row = rows->front();
  EXPECT_EQ(row.traditional.size(), 2u);
  EXPECT_GT(row.max_max.monetized_usd, 0.0);
  for (const StrategyOutcome& t : row.traditional) {
    EXPECT_LE(t.monetized_usd, row.max_max.monetized_usd + 1e-9);
  }
  EXPECT_GE(row.convex.outcome.monetized_usd,
            row.max_max.monetized_usd - 1e-6);
}

TEST(TwoTokenLoopTest, GenericSolverAgreesWithBarrier) {
  const TwoPoolMarket m;
  const graph::Cycle loop = m.loop();
  optim::SolveWorkspace ws;
  const auto generic =
      solve_generic_convex(m.graph, m.prices, loop, ws).value();
  const auto barrier = solve_convex(m.graph, m.prices, loop).value();
  EXPECT_NEAR(generic.profit_usd, barrier.outcome.monetized_usd,
              1e-4 * std::max(1.0, barrier.outcome.monetized_usd));
}

TEST(TwoTokenLoopTest, PlanExecutesAndDrainsTheLoop) {
  TwoPoolMarket m;
  const graph::Cycle loop = m.loop();
  auto outcome = evaluate_max_max(m.graph, m.prices, loop).value();
  auto plan = plan_from_single_start(m.graph, loop, outcome).value();
  auto report = sim::ExecutionEngine().execute(m.graph, m.prices, plan);
  ASSERT_TRUE(report.ok());
  EXPECT_NEAR(report->realized_usd, outcome.monetized_usd, 1e-6);
  EXPECT_LE(loop.price_product(m.graph), 1.0 + 1e-9);
}

TEST(TwoTokenLoopTest, BalancedParallelPoolsHoldNoArbitrage) {
  graph::TokenGraph g;
  const TokenId a = g.add_token("A");
  const TokenId b = g.add_token("B");
  g.add_pool(a, b, 1'000.0, 2'000.0);
  g.add_pool(a, b, 500.0, 1'000.0);  // identical price, different depth
  EXPECT_TRUE(graph::filter_arbitrage(
                  g, graph::enumerate_fixed_length_cycles(g, 2))
                  .empty());
}

TEST(FlashLoanFeeTest, FeeReducesRealizedProfit) {
  TwoPoolMarket no_fee_market;
  TwoPoolMarket fee_market;
  const graph::Cycle loop = no_fee_market.loop();
  auto outcome =
      evaluate_max_max(no_fee_market.graph, no_fee_market.prices, loop)
          .value();
  auto plan =
      plan_from_single_start(no_fee_market.graph, loop, outcome).value();

  auto plain = sim::ExecutionEngine().execute(no_fee_market.graph,
                                              no_fee_market.prices, plan);
  sim::ExecutionOptions with_fee;
  with_fee.flash_loan_fee = 0.0009;  // Aave V2
  auto charged = sim::ExecutionEngine(with_fee).execute(
      fee_market.graph, fee_market.prices, plan);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(charged.ok());
  EXPECT_LT(charged->realized_usd, plain->realized_usd);
  // The fee equals 0.09% of the borrowed input valued at CEX price.
  const double expected_fee =
      outcome.input * 0.0009 *
      no_fee_market.prices.price_unchecked(outcome.start_token);
  EXPECT_NEAR(plain->realized_usd - charged->realized_usd, expected_fee,
              1e-9);
}

TEST(FlashLoanFeeTest, ExorbitantFeeRevertsBundle) {
  TwoPoolMarket m;
  const graph::Cycle loop = m.loop();
  auto outcome = evaluate_max_max(m.graph, m.prices, loop).value();
  auto plan = plan_from_single_start(m.graph, loop, outcome).value();
  sim::ExecutionOptions options;
  options.flash_loan_fee = 0.5;  // 50% borrow fee: nothing survives
  auto report = sim::ExecutionEngine(options).execute(m.graph, m.prices, plan);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.error().code, ErrorCode::kInvariantViolated);
  // And the revert rolled the pools back.
  EXPECT_GT(loop.price_product(m.graph), 1.0);
}

}  // namespace
}  // namespace arb::core
