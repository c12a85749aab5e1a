// Parameterized sweep over loop length 2..8 (the paper's Section IV
// notes the strategies "can be applied to the loops with any length";
// Section VII discusses length 10). Rings of mildly imbalanced pools.

#include <gtest/gtest.h>

#include "core/comparison.hpp"
#include "core/flow_nlp.hpp"
#include "core/generic_convex.hpp"
#include "core/plan.hpp"
#include "sim/engine.hpp"
#include "sim/integer_check.hpp"

namespace arb {
namespace {

struct RingMarket {
  graph::TokenGraph graph;
  market::CexPriceFeed prices;
  std::vector<TokenId> tokens;
  std::vector<PoolId> pools;

  explicit RingMarket(std::size_t length) {
    for (std::size_t i = 0; i < length; ++i) {
      tokens.push_back(graph.add_token("T" + std::to_string(i)));
      // Varied prices so the monetization genuinely differs per start.
      prices.set_price(tokens.back(), 0.5 + 1.7 * static_cast<double>(i));
    }
    for (std::size_t i = 0; i < length; ++i) {
      // 1.5% edge per hop: profitable for every length up to 8 after
      // the 0.3% fee per hop.
      pools.push_back(graph.add_pool(tokens[i], tokens[(i + 1) % length],
                                     1000.0, 1015.0));
    }
  }

  [[nodiscard]] graph::Cycle loop() const {
    return *graph::Cycle::create(graph, tokens, pools);
  }
};

class LoopLengthTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LoopLengthTest, LoopIsProfitable) {
  const RingMarket m(GetParam());
  EXPECT_GT(m.loop().price_product(m.graph), 1.0);
}

TEST_P(LoopLengthTest, StrategyOrderingHolds) {
  const RingMarket m(GetParam());
  const auto rows =
      core::compare_strategies(m.graph, m.prices, {m.loop()}).value();
  const core::LoopComparison& row = rows.front();
  ASSERT_EQ(row.traditional.size(), GetParam());
  for (const core::StrategyOutcome& t : row.traditional) {
    EXPECT_LE(t.monetized_usd, row.max_max.monetized_usd + 1e-9);
    EXPECT_GT(t.monetized_usd, 0.0);
  }
  EXPECT_GE(row.convex.outcome.monetized_usd,
            row.max_max.monetized_usd * (1.0 - 1e-7) - 1e-9);
}

TEST_P(LoopLengthTest, ConvexRotationInvariant) {
  const RingMarket m(GetParam());
  const graph::Cycle base = m.loop();
  const double reference =
      core::solve_convex(m.graph, m.prices, base).value().outcome
          .monetized_usd;
  for (std::size_t offset = 1; offset < GetParam(); offset += 2) {
    const double rotated =
        core::solve_convex(m.graph, m.prices, base.rotated(offset))
            .value()
            .outcome.monetized_usd;
    EXPECT_NEAR(rotated, reference, 1e-4 * std::max(1.0, reference))
        << "offset " << offset;
  }
}

TEST_P(LoopLengthTest, GenericSolverAgrees) {
  const RingMarket m(GetParam());
  optim::SolveWorkspace ws;
  const auto generic =
      core::solve_generic_convex(m.graph, m.prices, m.loop(), ws).value();
  const double convex =
      core::solve_convex(m.graph, m.prices, m.loop()).value().outcome
          .monetized_usd;
  const double barrier =
      core::solve_flow(
          core::FlowInstance::from_cycle(m.graph, m.prices, m.loop()).value())
          .value()
          .objective;
  EXPECT_NEAR(generic.profit_usd, convex, 5e-3 * std::max(1.0, convex));
  EXPECT_NEAR(generic.profit_usd, barrier, 5e-3 * std::max(1.0, barrier));
}

TEST_P(LoopLengthTest, PlanExecutesAndSettlesInIntegerArithmetic) {
  RingMarket m(GetParam());
  const auto solution =
      core::solve_convex(m.graph, m.prices, m.loop()).value();
  const auto plan =
      core::plan_from_convex(m.graph, m.loop(), solution).value();

  const auto integer =
      sim::check_plan_integer(m.graph, m.prices, plan).value();
  EXPECT_TRUE(integer.settles);
  EXPECT_NEAR(integer.realized_usd, plan.expected_monetized_usd,
              0.01 * std::max(1.0, plan.expected_monetized_usd));

  const auto report =
      sim::ExecutionEngine().execute(m.graph, m.prices, plan).value();
  EXPECT_NEAR(report.realized_usd, solution.outcome.monetized_usd,
              1e-5 * std::max(1.0, solution.outcome.monetized_usd));
}

TEST_P(LoopLengthTest, MarginalReturnIsOneAtMaxMaxOptimum) {
  const RingMarket m(GetParam());
  const amm::PoolPath path = m.loop().path(m.graph, 0);
  const amm::OptimalTrade trade = amm::optimize_input_analytic(path);
  ASSERT_GT(trade.input, 0.0);
  EXPECT_NEAR(path.evaluate_dual(trade.input).deriv, 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Lengths, LoopLengthTest,
                         ::testing::Values(2, 3, 4, 5, 6, 8));

}  // namespace
}  // namespace arb
