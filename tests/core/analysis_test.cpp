#include "core/analysis.hpp"

#include <gtest/gtest.h>

#include "core/single_start.hpp"
#include "market/generator.hpp"
#include "graph/cycle_enumeration.hpp"
#include "tests/core/fixtures.hpp"

namespace arb::core {
namespace {

using testing::NoArbMarket;
using testing::Section5Market;

Result<LoopDiagnostics> analyze(const graph::TokenGraph& graph,
                                const market::CexPriceFeed& prices,
                                const graph::Cycle& loop) {
  const auto rotations = evaluate_all_rotations(graph, prices, loop).value();
  return analyze_loop(graph, prices, loop, rotations);
}

TEST(AnalysisTest, SectionFiveLoopDiagnostics) {
  const Section5Market m;
  const auto diag = analyze(m.graph, m.prices, m.loop()).value();
  EXPECT_EQ(diag.length, 3u);
  EXPECT_NEAR(diag.price_product, 8.0 / 3.0 * 0.997 * 0.997 * 0.997, 1e-12);
  EXPECT_NEAR(diag.log_margin, std::log(diag.price_product), 1e-15);
  EXPECT_NEAR(diag.optimal_input, 26.96, 0.01);
  // 26.96 / 100 ~ 27% of the X reserve of the first pool.
  EXPECT_NEAR(diag.input_to_reserve_ratio, 0.2696, 0.001);
  EXPECT_NEAR(diag.best_profit_usd, 205.6, 0.5);
  // TVL: (100·2 + 200·10.2) + (300·10.2 + 200·20) + (200·20 + 400·2).
  EXPECT_NEAR(diag.loop_tvl_usd, 2240.0 + 7060.0 + 4800.0, 1e-9);
  EXPECT_NEAR(diag.bottleneck_tvl_usd, 2240.0, 1e-9);
  EXPECT_NEAR(diag.profit_per_tvl, diag.best_profit_usd / diag.loop_tvl_usd,
              1e-12);
}

TEST(AnalysisTest, NoArbLoopHasZeroProfitButValidGeometry) {
  const NoArbMarket m;
  const auto diag = analyze(m.graph, m.prices, m.loop()).value();
  EXPECT_LT(diag.price_product, 1.0);
  EXPECT_LT(diag.log_margin, 0.0);
  EXPECT_DOUBLE_EQ(diag.optimal_input, 0.0);
  EXPECT_DOUBLE_EQ(diag.best_profit_usd, 0.0);
  EXPECT_GT(diag.loop_tvl_usd, 0.0);
}

TEST(AnalysisTest, MissingPriceFails) {
  Section5Market m;
  market::CexPriceFeed partial;
  partial.set_price(m.x, 2.0);
  const auto rotations =
      evaluate_all_rotations(m.graph, m.prices, m.loop()).value();
  auto diag = analyze_loop(m.graph, partial, m.loop(), rotations);
  ASSERT_FALSE(diag.ok());
  EXPECT_EQ(diag.error().code, ErrorCode::kNotFound);
}

TEST(AnalysisTest, EmpiricalLoopsAreThin) {
  // The reason Fig. 7 shows Convex ≈ MaxMax: real (synthetic-calibrated)
  // loops are thin — the optimal input is a tiny fraction of reserves,
  // so the swap curves are near-linear and retention buys nothing.
  market::GeneratorConfig config;
  const auto snapshot =
      market::generate_snapshot(config).filtered(market::PoolFilter{});
  const auto loops = graph::filter_arbitrage(
      snapshot.graph,
      graph::enumerate_fixed_length_cycles(snapshot.graph, 3));
  ASSERT_FALSE(loops.empty());
  double worst_utilization = 0.0;
  for (const graph::Cycle& loop : loops) {
    const auto diag =
        analyze(snapshot.graph, snapshot.prices, loop).value();
    worst_utilization =
        std::max(worst_utilization, diag.input_to_reserve_ratio);
  }
  // Section V's constructed example uses 27% of the reserve; empirical
  // loops stay a couple of orders of magnitude below that.
  EXPECT_LT(worst_utilization, 0.05);
}

}  // namespace
}  // namespace arb::core
