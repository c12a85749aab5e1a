#include "core/generic_convex.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "amm/concentrated_pool.hpp"
#include "amm/stable_pool.hpp"
#include "core/convex.hpp"
#include "graph/cycle_enumeration.hpp"
#include "market/generator.hpp"
#include "testkit/generic_loop.hpp"
#include "tests/core/fixtures.hpp"

namespace arb::core {
namespace {

using testing::NoArbMarket;
using testing::Section5Market;

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
      testkit::solve_loop_generic(market.graph, market.prices, *loop, ws)
          .value();
  EXPECT_GT(generic.sweeps, 0);
  EXPECT_NEAR(generic.profit_usd, barrier.outcome.monetized_usd,
              1e-6 * barrier.outcome.monetized_usd);
}

}  // namespace
}  // namespace arb::core
