#include "core/generic_convex.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "amm/concentrated_pool.hpp"
#include "amm/stable_pool.hpp"
#include "core/convex.hpp"
#include "core/single_start.hpp"
#include "graph/cycle_enumeration.hpp"
#include "market/generator.hpp"
#include "tests/core/fixtures.hpp"

namespace arb::core {
namespace {

using testing::NoArbMarket;
using testing::Section5Market;

/// The cycle overload: pools' own quotes, seeded at the first hop's depth.
GenericConvexReport solve_cycle(const graph::TokenGraph& graph,
                                const market::CexPriceFeed& prices,
                                const graph::Cycle& cycle) {
  optim::SolveWorkspace ws;
  return solve_generic_convex(graph, prices, cycle, ws).value();
}

std::vector<GenericHop> section5_hops(const Section5Market& m) {
  return {
      GenericHop{amm::swap_fn(m.graph.pool(m.xy), m.x), 2.0},
      GenericHop{amm::swap_fn(m.graph.pool(m.yz), m.y), 10.2},
      GenericHop{amm::swap_fn(m.graph.pool(m.zx), m.z), 20.0},
  };
}

TEST(GenericConvexTest, MatchesBarrierOnPaperExample) {
  const Section5Market m;
  GenericConvexOptions options;
  options.initial_scale = 10.0;
  const auto generic =
      solve_generic_convex(section5_hops(m), options).value();
  const auto barrier = solve_convex(m.graph, m.prices, m.loop()).value();
  EXPECT_TRUE(generic.converged);
  EXPECT_NEAR(generic.profit_usd, barrier.outcome.monetized_usd, 0.05);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(generic.inputs[i], barrier.inputs[i], 0.2) << "hop " << i;
  }

  // Paper value $206.1; the cycle overload must land there too.
  const GenericConvexReport cycle = solve_cycle(m.graph, m.prices, m.loop());
  EXPECT_TRUE(cycle.converged);
  EXPECT_NEAR(cycle.profit_usd, 206.15, 0.05);
  EXPECT_NEAR(cycle.profit_usd, barrier.outcome.monetized_usd, 0.05);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(cycle.inputs[i], barrier.inputs[i], 0.1) << "hop " << i;
  }
}

TEST(GenericConvexTest, AtLeastMaxMax) {
  // Each anchor is seeded at its rotation's best single-start point and
  // only ascends, so the result dominates every rotation; on this
  // example it also beats the global MaxMax.
  const Section5Market m;
  const GenericConvexReport report = solve_cycle(m.graph, m.prices, m.loop());
  const auto max_max = evaluate_max_max(m.graph, m.prices, m.loop()).value();
  EXPECT_GE(report.profit_usd, max_max.monetized_usd - 1e-9);
}

TEST(GenericConvexTest, AgreesWithBarrierAcrossPriceSweep) {
  Section5Market m;
  for (double px = 1.0; px <= 20.0; px += 2.0) {
    m.prices.set_price(m.x, px);
    const GenericConvexReport generic =
        solve_cycle(m.graph, m.prices, m.loop());
    const auto barrier = solve_convex(m.graph, m.prices, m.loop()).value();
    EXPECT_NEAR(generic.profit_usd, barrier.outcome.monetized_usd,
                0.01 * std::max(1.0, barrier.outcome.monetized_usd))
        << "px=" << px;
  }
}

TEST(GenericConvexTest, AgreesWithBarrierOnRandomLoops) {
  market::GeneratorConfig config;
  config.token_count = 14;
  config.pool_count = 30;
  config.seed = 77;
  const auto snapshot = market::generate_snapshot(config);
  const auto loops = graph::filter_arbitrage(
      snapshot.graph,
      graph::enumerate_fixed_length_cycles(snapshot.graph, 3));
  ASSERT_FALSE(loops.empty());
  std::size_t checked = 0;
  for (const graph::Cycle& loop : loops) {
    if (++checked > 12) break;
    const GenericConvexReport generic =
        solve_cycle(snapshot.graph, snapshot.prices, loop);
    const auto barrier =
        solve_convex(snapshot.graph, snapshot.prices, loop).value();
    EXPECT_NEAR(generic.profit_usd, barrier.outcome.monetized_usd,
                1e-4 * std::max(1.0, barrier.outcome.monetized_usd));
  }
}

TEST(GenericConvexTest, Length4Loop) {
  // Ring of 4 with an edge per hop.
  graph::TokenGraph g;
  std::vector<TokenId> tokens;
  market::CexPriceFeed prices;
  for (int i = 0; i < 4; ++i) {
    tokens.push_back(g.add_token("T" + std::to_string(i)));
    prices.set_price(tokens.back(), 1.0 + i);
  }
  std::vector<PoolId> pools;
  for (int i = 0; i < 4; ++i) {
    pools.push_back(g.add_pool(tokens[i], tokens[(i + 1) % 4], 1000.0,
                               1015.0));
  }
  const auto cycle = graph::Cycle::create(g, tokens, pools).value();
  const GenericConvexReport generic = solve_cycle(g, prices, cycle);
  const auto barrier = solve_convex(g, prices, cycle).value();
  EXPECT_GT(generic.profit_usd, 0.0);
  EXPECT_NEAR(generic.profit_usd, barrier.outcome.monetized_usd,
              1e-3 * barrier.outcome.monetized_usd);
}

TEST(GenericConvexTest, ZeroOnProfitlessLoop) {
  const NoArbMarket m;
  std::vector<GenericHop> hops{
      GenericHop{amm::swap_fn(m.graph.pool(PoolId{0}), m.a), 1.0},
      GenericHop{amm::swap_fn(m.graph.pool(PoolId{1}), m.b), 2.0},
      GenericHop{amm::swap_fn(m.graph.pool(PoolId{2}), m.c), 4.0},
  };
  const auto report = solve_generic_convex(hops).value();
  EXPECT_DOUBLE_EQ(report.profit_usd, 0.0);
  for (double d : report.inputs) EXPECT_DOUBLE_EQ(d, 0.0);

  const GenericConvexReport cycle = solve_cycle(m.graph, m.prices, m.loop());
  EXPECT_TRUE(cycle.converged);
  EXPECT_DOUBLE_EQ(cycle.profit_usd, 0.0);
  for (double d : cycle.inputs) EXPECT_DOUBLE_EQ(d, 0.0);
}

TEST(GenericConvexTest, ValidationRejectsBadInputs) {
  EXPECT_FALSE(solve_generic_convex({}).ok());
  const Section5Market m;
  auto hops = section5_hops(m);
  EXPECT_FALSE(
      solve_generic_convex({hops[0]}).ok());  // single hop
  hops[1].price_in = 0.0;
  EXPECT_FALSE(solve_generic_convex(hops).ok());
  hops[1].price_in = 10.2;
  hops[2].swap = nullptr;
  EXPECT_FALSE(solve_generic_convex(hops).ok());
}

TEST(GenericConvexTest, MixedStableLoopRetainsBeyondMaxMax) {
  // Stable USDC/USDT leg (mispriced) + two CPMM legs with the paper's
  // adversarial flavor: the retained-profit optimum must dominate the
  // best single-start trade on the same mixed loop.
  const TokenId usdc{0};
  const TokenId usdt{1};
  const TokenId weth{2};
  const amm::StablePool stable(PoolId{0}, usdc, usdt, 1'100'000.0,
                               900'000.0, 100.0, 0.0004);
  const amm::CpmmPool usdt_weth(PoolId{1}, usdt, weth, 1'830'000.0,
                                1'000.0);
  const amm::CpmmPool weth_usdc(PoolId{2}, weth, usdc, 1'000.0,
                                1'860'000.0);
  const std::vector<GenericHop> hops{
      GenericHop{amm::swap_fn(stable, usdc), 1.0},
      GenericHop{amm::swap_fn(usdt_weth, usdt), 1.0},
      GenericHop{amm::swap_fn(weth_usdc, weth), 1830.0},
  };
  GenericConvexOptions options;
  options.initial_scale = 1'000.0;
  const auto convex = solve_generic_convex(hops, options).value();
  EXPECT_GT(convex.profit_usd, 0.0);

  // MaxMax over the same mixed loop: best rotation's single-start trade.
  double max_max = 0.0;
  for (std::size_t anchor = 0; anchor < 3; ++anchor) {
    std::vector<amm::SwapFn> fns;
    for (std::size_t i = 0; i < 3; ++i) fns.push_back(hops[(anchor + i) % 3].swap);
    const amm::GenericPath path{std::move(fns)};
    amm::GenericOptimizeOptions go;
    go.initial_scale = 1'000.0;
    const auto trade = amm::optimize_input_generic(path, go).value();
    max_max = std::max(max_max, hops[anchor].price_in * trade.profit);
  }
  EXPECT_GE(convex.profit_usd, max_max * (1.0 - 1e-6));
}

TEST(GenericConvexTest, MixedConcentratedLoopSolves) {
  const TokenId usdc{0};
  const TokenId usdt{1};
  const TokenId weth{2};
  const auto cl = amm::ConcentratedPool::from_reserves(
                      PoolId{0}, usdc, usdt, 1'004'000.0, 996'000.0, 0.8,
                      1.25, 0.0004)
                      .value();
  const amm::CpmmPool usdt_weth(PoolId{1}, usdt, weth, 1'830'000.0,
                                1'000.0);
  const amm::CpmmPool weth_usdc(PoolId{2}, weth, usdc, 1'000.0,
                                1'860'000.0);
  const std::vector<GenericHop> hops{
      GenericHop{amm::swap_fn(cl, usdc), 1.0},
      GenericHop{amm::swap_fn(usdt_weth, usdt), 1.0},
      GenericHop{amm::swap_fn(weth_usdc, weth), 1830.0},
  };
  GenericConvexOptions options;
  options.initial_scale = 1'000.0;
  const auto report = solve_generic_convex(hops, options).value();
  EXPECT_GT(report.profit_usd, 0.0);
  // Retentions are non-negative (risk-free property).
  for (std::size_t j = 0; j < 3; ++j) {
    const std::size_t prev = (j + 2) % 3;
    EXPECT_GE(report.outputs[prev] - report.inputs[j], -1e-6);
  }
}

TEST(GenericConvexTest, SeedsConcentratedLoopBelowQuotePrecision) {
  // On this generated mixed market the concentrated loop
  // 2/35;16/50;3/27; has price product 1.00115 and the barrier finds
  // ~$0.0038, but every rotation's quote at 1e-9 of the seed scale
  // reads negative through cancellation. A seeding search that decides
  // profitability from that one probe returns zero after zero sweeps.
  market::GeneratorConfig gen;
  gen.seed = 606;
  gen.token_count = 24;
  gen.pool_count = 96;
  gen.stable_fraction = 0.15;
  gen.concentrated_fraction = 0.3;
  gen.pool_price_noise_sigma = 0.02;
  const market::MarketSnapshot market = market::generate_snapshot(gen);
  const std::vector<graph::Cycle> cycles =
      graph::enumerate_fixed_length_cycles(market.graph, 3);
  const auto loop =
      std::find_if(cycles.begin(), cycles.end(), [](const graph::Cycle& c) {
        return c.rotation_key() == "2/35;16/50;3/27;";
      });
  ASSERT_NE(loop, cycles.end());

  const auto barrier =
      solve_convex(market.graph, market.prices, *loop).value();
  ASSERT_GT(barrier.outcome.monetized_usd, 0.003);
  optim::SolveWorkspace ws;
  const auto generic =
      solve_generic_convex(market.graph, market.prices, *loop, ws).value();
  EXPECT_GT(generic.sweeps, 0);
  EXPECT_NEAR(generic.profit_usd, barrier.outcome.monetized_usd,
              1e-6 * barrier.outcome.monetized_usd);
}

}  // namespace
}  // namespace arb::core
