// Parameterized sweep over the pool fee: every theorem of the paper must
// hold at fee = 0 (the idealized CPMM), the Uniswap 0.3%, and fatter
// fees. Also pins the qualitative effect of fees: profit shrinks, the
// no-arbitrage threshold widens.

#include <gtest/gtest.h>

#include "amm/path.hpp"
#include "core/comparison.hpp"
#include "core/plan.hpp"
#include "graph/cycle.hpp"
#include "sim/engine.hpp"

namespace arb {
namespace {

struct FeeMarket {
  graph::TokenGraph graph;
  market::CexPriceFeed prices;
  graph::Cycle loop;

  explicit FeeMarket(double fee)
      : loop(make(graph, prices, fee)) {}

  static graph::Cycle make(graph::TokenGraph& g, market::CexPriceFeed& p,
                           double fee) {
    const TokenId x = g.add_token("X");
    const TokenId y = g.add_token("Y");
    const TokenId z = g.add_token("Z");
    const PoolId xy = g.add_pool(x, y, 100.0, 200.0, fee);
    const PoolId yz = g.add_pool(y, z, 300.0, 200.0, fee);
    const PoolId zx = g.add_pool(z, x, 200.0, 400.0, fee);
    p.set_price(x, 2.0);
    p.set_price(y, 10.2);
    p.set_price(z, 20.0);
    return *graph::Cycle::create(g, {x, y, z}, {xy, yz, zx});
  }
};

class FeeSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(FeeSweepTest, AnalyticEqualsBisection) {
  const FeeMarket m(GetParam());
  for (std::size_t offset = 0; offset < 3; ++offset) {
    const auto bisection =
        amm::optimize_input_bisection(m.loop.path(m.graph, offset)).value();
    const auto closed =
        core::evaluate_traditional(m.graph, m.prices, m.loop, offset).value();
    const double price = m.prices.price(m.loop.tokens()[offset]).value();
    EXPECT_NEAR(price * bisection.profit, closed.monetized_usd,
                1e-6 * std::max(1.0, closed.monetized_usd));
  }
}

TEST_P(FeeSweepTest, StrategyOrderingHolds) {
  const FeeMarket m(GetParam());
  const auto rows =
      core::compare_strategies(m.graph, m.prices, {m.loop}).value();
  const core::LoopComparison& row = rows.front();
  for (const core::StrategyOutcome& t : row.traditional) {
    EXPECT_LE(t.monetized_usd, row.max_max.monetized_usd + 1e-9);
  }
  EXPECT_LE(row.max_price.monetized_usd, row.max_max.monetized_usd + 1e-9);
  EXPECT_GE(row.convex.outcome.monetized_usd,
            row.max_max.monetized_usd * (1.0 - 1e-7) - 1e-9);
}

TEST_P(FeeSweepTest, ExecutionRealizesThePromise) {
  FeeMarket m(GetParam());
  const auto solution =
      core::solve_convex(m.graph, m.prices, m.loop).value();
  const auto plan =
      core::plan_from_convex(m.graph, m.loop, solution).value();
  const auto report =
      sim::ExecutionEngine().execute(m.graph, m.prices, plan).value();
  EXPECT_NEAR(report.realized_usd, solution.outcome.monetized_usd,
              1e-5 * std::max(1.0, solution.outcome.monetized_usd));
}

TEST_P(FeeSweepTest, PostTradeLoopIsDrained) {
  FeeMarket m(GetParam());
  const auto outcome =
      core::evaluate_max_max(m.graph, m.prices, m.loop).value();
  const auto plan =
      core::plan_from_single_start(m.graph, m.loop, outcome).value();
  ASSERT_TRUE(sim::ExecutionEngine().execute(m.graph, m.prices, plan).ok());
  EXPECT_LE(m.loop.price_product(m.graph), 1.0 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Fees, FeeSweepTest,
                         ::testing::Values(0.0, 0.001, 0.003, 0.01, 0.03,
                                           0.1));

TEST(FeeMonotonicityTest, ProfitDecreasesWithFee) {
  double previous = std::numeric_limits<double>::infinity();
  for (const double fee : {0.0, 0.003, 0.01, 0.03, 0.1}) {
    const FeeMarket m(fee);
    const auto outcome =
        core::evaluate_max_max(m.graph, m.prices, m.loop).value();
    EXPECT_LT(outcome.monetized_usd, previous) << "fee=" << fee;
    previous = outcome.monetized_usd;
  }
}

TEST(FeeMonotonicityTest, LargeEnoughFeeKillsTheLoop) {
  // The Section V loop's price ratio product is 8/3; γ³ < 3/8 ⇔
  // fee > 1 − (3/8)^(1/3) ≈ 0.279 kills it.
  const FeeMarket alive(0.25);
  const FeeMarket dead(0.30);
  EXPECT_GT(alive.loop.price_product(alive.graph), 1.0);
  EXPECT_LT(dead.loop.price_product(dead.graph), 1.0);
  const auto dead_outcome =
      core::evaluate_max_max(dead.graph, dead.prices, dead.loop).value();
  EXPECT_DOUBLE_EQ(dead_outcome.monetized_usd, 0.0);
  const auto dead_convex =
      core::solve_convex(dead.graph, dead.prices, dead.loop).value();
  EXPECT_DOUBLE_EQ(dead_convex.outcome.monetized_usd, 0.0);
}

}  // namespace
}  // namespace arb
