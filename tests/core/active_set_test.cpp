// The active-set solver's length-2 pins: hand-derived optima, the
// retaining-set choice, and agreement with the barrier (solve_flow on the
// one-cycle instance) across random 2-pool markets.

#include "core/active_set.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "core/convex.hpp"
#include "core/flow_nlp.hpp"
#include "core/loop_nlp.hpp"
#include "graph/token_graph.hpp"
#include "market/price_feed.hpp"

namespace arb::core {
namespace {

/// Two-pool market over the same token pair with a reserve imbalance:
/// pool 0 prices A cheap, pool 1 prices it dear, so A -> B -> A profits.
struct TwoPoolMarket {
  graph::TokenGraph graph;
  market::CexPriceFeed prices;
  TokenId a, b;
  PoolId p0, p1;

  TwoPoolMarket(double x0 = 100.0, double y0 = 220.0, double x1 = 200.0,
                double y1 = 100.0, double fee = 0.003) {
    a = graph.add_token("A");
    b = graph.add_token("B");
    p0 = graph.add_pool(a, b, x0, y0, fee);
    p1 = graph.add_pool(b, a, x1, y1, fee);
    prices.set_price(a, 1.0);
    prices.set_price(b, 0.5);
  }

  [[nodiscard]] graph::Cycle loop() const {
    return *graph::Cycle::create(graph, {a, b}, {p0, p1});
  }
};

TEST(ActiveSetTest, RetainingBothTokensSetsEachHopAtItsFirstOrderCondition) {
  // Each hop alone is profitable at unit prices (γ·150/100 > 1), so both
  // tokens retain and each one-hop segment sits at P_out·F'(d) = P_in.
  graph::TokenGraph graph;
  market::CexPriceFeed prices;
  const TokenId a = graph.add_token("A");
  const TokenId b = graph.add_token("B");
  const PoolId p0 = graph.add_pool(a, b, 100.0, 150.0, 0.003);
  const PoolId p1 = graph.add_pool(b, a, 100.0, 160.0, 0.003);
  prices.set_price(a, 1.0);
  prices.set_price(b, 1.0);
  const auto loop = *graph::Cycle::create(graph, {a, b}, {p0, p1});
  const auto hops = make_hop_data(graph, prices, loop).value();

  SegmentTable table(hops);
  const auto solution = solve_active_set(table);
  ASSERT_TRUE(solution.has_value());
  EXPECT_EQ(solution->retaining, 3u);
  for (std::size_t i = 0; i < 2; ++i) {
    ASSERT_GT(solution->inputs[i], 0.0);
    EXPECT_NEAR(hops[i].price_out * hops[i].swap_deriv(solution->inputs[i]),
                hops[i].price_in, 1e-9);
  }
}

TEST(ActiveSetTest, LosingHopTradesNothingOnItsOwn) {
  // Hop 1 (B -> A) loses at the margin on its own (γ·100/200 · 1/0.5 < 1),
  // so retaining in both tokens would leave it idle and starve A: that
  // candidate is infeasible, and the optimum is the single-start trade
  // from one token.
  const TwoPoolMarket m;
  const auto hops = make_hop_data(m.graph, m.prices, m.loop()).value();
  ASSERT_LT(hops[1].price_out * hops[1].swap_deriv(0.0), hops[1].price_in);

  SegmentTable table(hops);
  const auto solution = solve_active_set(table);
  ASSERT_TRUE(solution.has_value());
  EXPECT_TRUE(solution->retaining == 1u || solution->retaining == 2u)
      << solution->retaining;
  EXPECT_GT(solution->inputs[1], 0.0);
  EXPECT_GT(solution->profit_usd, 0.0);
}

TEST(ActiveSetTest, GoldenSymmetricLoop) {
  // Hand-derived optimum: both hops trade against (100, 150) reserves at
  // unit CEX prices, fee 0.3%. Each hop alone is profitable
  // (gamma·150/100 > 1) and the symmetric per-hop optima
  //   d* = (sqrt(gamma·100·150) − 100) / gamma ≈ 22.36
  // satisfy both flow constraints (F(d*) ≈ 27.3 > d*), so the candidate
  // with both flow constraints slack is the global optimum and the
  // profit is 2·(F(d*) − d*).
  graph::TokenGraph graph;
  market::CexPriceFeed prices;
  const TokenId a = graph.add_token("A");
  const TokenId b = graph.add_token("B");
  const PoolId p0 = graph.add_pool(a, b, 100.0, 150.0, 0.003);
  const PoolId p1 = graph.add_pool(b, a, 100.0, 150.0, 0.003);
  prices.set_price(a, 1.0);
  prices.set_price(b, 1.0);
  const auto loop = *graph::Cycle::create(graph, {a, b}, {p0, p1});

  auto hops = make_hop_data(graph, prices, loop);
  ASSERT_TRUE(hops.ok());
  SegmentTable table(*hops);
  const auto solution = solve_active_set(table, &graph);
  ASSERT_TRUE(solution.has_value());
  EXPECT_EQ(solution->retaining, 3u);
  EXPECT_FALSE(solution->certified);

  const double g = 0.997;
  const double d = (std::sqrt(g * 100.0 * 150.0) - 100.0) / g;
  const double out = (*hops)[0].swap(d);
  ASSERT_GT(out, d);          // each hop profits
  ASSERT_GT(out, d + 1e-12);  // flow constraints strictly slack
  EXPECT_NEAR(solution->inputs[0], d, 1e-12 * d);
  EXPECT_NEAR(solution->inputs[1], d, 1e-12 * d);
  EXPECT_NEAR(solution->outputs[0], out, 1e-12 * out);
  EXPECT_NEAR(solution->profit_usd, 2.0 * (out - d),
              1e-12 * 2.0 * (out - d));
}

TEST(ActiveSetTest, AgreesWithBarrierAcrossRandomMarkets) {
  std::mt19937_64 rng(20240807);
  std::uniform_real_distribution<double> reserve(50.0, 5000.0);
  std::uniform_real_distribution<double> fee(0.0, 0.01);
  int profitable = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const TwoPoolMarket m(reserve(rng), reserve(rng), reserve(rng),
                          reserve(rng), fee(rng));

    ConvexContext ctx;
    auto fast = solve_convex(m.graph, m.prices, m.loop(), {}, ctx);
    ASSERT_TRUE(fast.ok()) << "trial " << trial;

    // The barrier: the same loop as a one-cycle flow instance.
    auto instance = FlowInstance::from_cycle(m.graph, m.prices, m.loop());
    ASSERT_TRUE(instance.ok()) << "trial " << trial;
    auto slow = solve_flow(*instance);
    ASSERT_TRUE(slow.ok()) << "trial " << trial;

    const double scale = std::max(1e-12, std::abs(slow->objective));
    EXPECT_NEAR(fast->outcome.monetized_usd, slow->objective, 1e-9 * scale)
        << "trial " << trial;
    if (slow->objective > 1e-6) {
      ++profitable;
      EXPECT_TRUE(ctx.used_active_set) << "trial " << trial;
      EXPECT_EQ(fast->duality_gap_usd, 0.0);
      EXPECT_EQ(fast->outcome.solver_iterations, 0);
    }
  }
  // The random family must actually exercise the profitable branch.
  EXPECT_GT(profitable, 20);
}

TEST(ActiveSetTest, RejectsDegenerateAndTooShortInputs) {
  const TwoPoolMarket m;
  auto hops = make_hop_data(m.graph, m.prices, m.loop());
  ASSERT_TRUE(hops.ok());

  const std::vector<LoopHopData> one = {(*hops)[0]};
  SegmentTable one_table(one);
  EXPECT_TRUE(one_table.degenerate());
  EXPECT_FALSE(solve_active_set(one_table).has_value());

  auto empty_reserve = *hops;
  empty_reserve[0].reserve_in = 0.0;
  SegmentTable empty_table(empty_reserve);
  EXPECT_FALSE(solve_active_set(empty_table).has_value());
  auto nan_fee = *hops;
  nan_fee[1].gamma = std::nan("");
  SegmentTable nan_table(nan_fee);
  EXPECT_TRUE(nan_table.degenerate());
  EXPECT_FALSE(solve_active_set(nan_table).has_value());
  EXPECT_FALSE(enumerate_active_set(nan_table).has_value());
}

}  // namespace
}  // namespace arb::core
