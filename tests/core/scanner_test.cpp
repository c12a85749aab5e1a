#include "core/scanner.hpp"

#include <gtest/gtest.h>

#include "core/single_start.hpp"
#include "market/generator.hpp"
#include "sim/engine.hpp"
#include "tests/core/fixtures.hpp"

namespace arb::core {
namespace {

using testing::NoArbMarket;
using testing::Section5Market;

TEST(ScannerTest, FindsTheSectionFiveLoop) {
  const Section5Market m;
  ScannerConfig config;
  config.loop_lengths = {3};
  const auto opportunities = scan_market(m.graph, m.prices, config).value();
  ASSERT_EQ(opportunities.size(), 1u);
  const Opportunity& best = opportunities.front();
  EXPECT_NEAR(best.net_profit_usd, 205.6, 0.5);  // MaxMax default
  EXPECT_EQ(best.plan.steps.size(), 3u);
  EXPECT_EQ(best.diagnostics.length, 3u);
  EXPECT_GT(best.diagnostics.price_product, 1.0);
}

TEST(ScannerTest, EmptyOnNoArbMarket) {
  const NoArbMarket m;
  EXPECT_TRUE(scan_market(m.graph, m.prices).value().empty());
}

TEST(ScannerTest, SortedByNetProfitDescending) {
  market::GeneratorConfig gen;
  gen.token_count = 18;
  gen.pool_count = 40;
  const auto snapshot = market::generate_snapshot(gen);
  ScannerConfig config;
  config.loop_lengths = {3};
  const auto opportunities =
      scan_market(snapshot.graph, snapshot.prices, config).value();
  ASSERT_GT(opportunities.size(), 1u);
  for (std::size_t i = 1; i < opportunities.size(); ++i) {
    EXPECT_GE(opportunities[i - 1].net_profit_usd,
              opportunities[i].net_profit_usd);
  }
}

TEST(ScannerTest, MultipleLengthsCombine) {
  market::GeneratorConfig gen;
  gen.token_count = 14;
  gen.pool_count = 30;
  const auto snapshot = market::generate_snapshot(gen);
  ScannerConfig only3;
  only3.loop_lengths = {3};
  ScannerConfig both;
  both.loop_lengths = {3, 4};
  const auto a = scan_market(snapshot.graph, snapshot.prices, only3).value();
  const auto b = scan_market(snapshot.graph, snapshot.prices, both).value();
  EXPECT_GT(b.size(), a.size());
}

TEST(ScannerTest, GasModelFiltersAndNets) {
  const Section5Market m;
  ScannerConfig config;
  config.loop_lengths = {3};
  config.gas = GasModel{};  // defaults: ~$15.8 per 3-swap bundle
  const auto opportunities = scan_market(m.graph, m.prices, config).value();
  ASSERT_EQ(opportunities.size(), 1u);
  EXPECT_NEAR(opportunities.front().net_profit_usd,
              205.6 - config.gas->bundle_cost_usd(3), 0.5);

  // An impossible threshold drops everything.
  config.min_net_profit_usd = 1e9;
  EXPECT_TRUE(scan_market(m.graph, m.prices, config).value().empty());
}

TEST(ScannerTest, ConvexStrategySupported) {
  const Section5Market m;
  ScannerConfig config;
  config.loop_lengths = {3};
  config.strategy = StrategyKind::kConvexOptimization;
  const auto opportunities = scan_market(m.graph, m.prices, config).value();
  ASSERT_EQ(opportunities.size(), 1u);
  EXPECT_NEAR(opportunities.front().net_profit_usd, 206.1, 0.3);
}

TEST(ScannerTest, PlansAreExecutable) {
  Section5Market m;
  const auto opportunities = scan_market(m.graph, m.prices).value();
  ASSERT_FALSE(opportunities.empty());
  const auto report = sim::ExecutionEngine().execute(
      m.graph, m.prices, opportunities.front().plan);
  ASSERT_TRUE(report.ok());
  EXPECT_NEAR(report->realized_usd,
              opportunities.front().outcome.monetized_usd, 1e-6);
}

/// A ring of `length` pools with reserves (1000, 1012)·scale; token i is
/// priced at $(i + 1).
struct DeepRing {
  graph::TokenGraph graph;
  market::CexPriceFeed prices;

  DeepRing(std::size_t length, double scale) {
    std::vector<TokenId> tokens;
    for (std::size_t i = 0; i < length; ++i) {
      tokens.push_back(graph.add_token("T" + std::to_string(i)));
      prices.set_price(tokens.back(), 1.0 + static_cast<double>(i));
    }
    for (std::size_t i = 0; i < length; ++i) {
      graph.add_pool(tokens[i], tokens[(i + 1) % length], 1000.0 * scale,
                     1012.0 * scale);
    }
  }
};

TEST(ScannerTest, DeepLongRingsScaleExactly) {
  // Regression: the Möbius composition multiplied raw reserves, so on a
  // 6-hop ring of 1e27-deep pools a·b overflowed to +inf and the scan
  // failed with "non-finite optimal trade" under MaxMax and Convex (the
  // diagnostics size every loop with the closed form).
  constexpr double kScale = 1e24;
  for (const std::size_t length : {6u, 8u}) {
    const DeepRing unit(length, 1.0);
    const DeepRing deep(length, kScale);
    for (const StrategyKind strategy :
         {StrategyKind::kMaxMax, StrategyKind::kConvexOptimization}) {
      ScannerConfig config;
      config.loop_lengths = {length};
      config.strategy = strategy;
      const auto small = scan_market(unit.graph, unit.prices, config);
      const auto large = scan_market(deep.graph, deep.prices, config);
      ASSERT_TRUE(small.ok()) << small.error().message;
      ASSERT_TRUE(large.ok()) << large.error().message;
      ASSERT_EQ(small->size(), 1u);
      ASSERT_EQ(large->size(), 1u);
      const double expected = kScale * small->front().net_profit_usd;
      EXPECT_GT(expected, 0.0);
      EXPECT_NEAR(large->front().net_profit_usd, expected, 1e-9 * expected)
          << "length " << length << " " << to_string(strategy);
    }
  }
}

TEST(ScannerTest, ValidationRejectsBadConfig) {
  const Section5Market m;
  ScannerConfig empty;
  empty.loop_lengths = {};
  EXPECT_FALSE(scan_market(m.graph, m.prices, empty).ok());
  ScannerConfig bad_length;
  bad_length.loop_lengths = {1};
  EXPECT_FALSE(scan_market(m.graph, m.prices, bad_length).ok());
}

TEST(ScannerTest, TraditionalStrategyIsRejectedNotRunAsMaxMax) {
  // Traditional fixes a start token the scanner has no way to name: it
  // must be rejected, not run as MaxMax.
  const Section5Market m;
  ScannerConfig config;
  config.loop_lengths = {3};
  config.strategy = StrategyKind::kTraditional;
  const auto scanned = scan_market(m.graph, m.prices, config);
  ASSERT_FALSE(scanned.ok());
  EXPECT_EQ(scanned.error().code, ErrorCode::kInvalidArgument);

  // The config is rejected up front, not at the first priced loop: a
  // market with no arbitrage loop does not let it through.
  const NoArbMarket none;
  const auto empty = scan_market(none.graph, none.prices, config);
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.error().code, ErrorCode::kInvalidArgument);

  ConvexContext ctx;
  const auto priced = price_loop(m.graph, m.prices, m.loop(),
                                 StrategyKind::kTraditional, ctx);
  ASSERT_FALSE(priced.ok());
  EXPECT_EQ(priced.error().code, ErrorCode::kInvalidArgument);
}

TEST(ScannerTest, PriceLoopReturnsTheRotationsOfEveryStrategy) {
  // One table per loop: MaxPrice, MaxMax and Convex hand back the same
  // rotations.
  const Section5Market m;
  const auto rotations =
      evaluate_all_rotations(m.graph, m.prices, m.loop()).value();
  for (const StrategyKind strategy :
       {StrategyKind::kMaxPrice, StrategyKind::kMaxMax,
        StrategyKind::kConvexOptimization}) {
    ConvexContext ctx;
    const auto priced =
        price_loop(m.graph, m.prices, m.loop(), strategy, ctx).value();
    EXPECT_EQ(priced.outcome.kind, strategy);
    ASSERT_EQ(priced.rotations.size(), rotations.size());
    for (std::size_t s = 0; s < rotations.size(); ++s) {
      EXPECT_EQ(priced.rotations[s].start_token, rotations[s].start_token);
      EXPECT_EQ(priced.rotations[s].input, rotations[s].input);
      EXPECT_EQ(priced.rotations[s].monetized_usd,
                rotations[s].monetized_usd);
    }
    EXPECT_EQ(priced.plan.steps.size(), 3u);
  }
}

}  // namespace
}  // namespace arb::core
