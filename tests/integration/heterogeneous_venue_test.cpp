// End-to-end validation of the heterogeneous venue layer.
//
// Three claims are established here:
//  1. Dispatch safety: on all-CPMM markets the scanner's new kind
//     dispatch is bit-identical to the pre-refactor fast path — verified
//     differentially by streaming 500+ randomized reserve events through
//     the incremental scanner (whose slots go through the dispatch) and
//     comparing against from-scratch scans, with exact equality.
//  2. Coverage: a StableSwap hop can make a loop profitable that a
//     CPMM-only view of the same reserves misses entirely; the mixed
//     barrier fast path finds and plans it (and agrees with the generic
//     solver when the fast path is forced off).
//  3. Pipeline: a mixed-venue market survives generate -> save -> load
//     round-trip exactly, scans, and streams 1000 events through the
//     scanner service with mixed loops repriced along the way.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <vector>

#include "core/convex.hpp"
#include "core/generic_convex.hpp"
#include "core/scanner.hpp"
#include "graph/cycle.hpp"
#include "graph/cycle_enumeration.hpp"
#include "market/generator.hpp"
#include "market/io.hpp"
#include "runtime/incremental_scanner.hpp"
#include "runtime/replay_stream.hpp"
#include "runtime/service.hpp"

namespace arb {
namespace {

/// USDC -> USDT -> WETH -> USDC where the first leg is a near-pegged
/// StableSwap pool. The stable curve quotes ~1:1 on the slightly
/// imbalanced pair where a CPMM would quote ~0.992, and that difference
/// is exactly what makes the loop clear its fees.
struct StableEdgeMarket {
  graph::TokenGraph graph;
  market::CexPriceFeed prices;
  TokenId usdc, usdt, weth;
  PoolId stable_leg, usdt_weth, weth_usdc;

  explicit StableEdgeMarket(bool stable_as_cpmm) {
    usdc = graph.add_token("USDC");
    usdt = graph.add_token("USDT");
    weth = graph.add_token("WETH");
    stable_leg =
        stable_as_cpmm
            ? graph.add_pool(usdc, usdt, 1'004'000.0, 996'000.0, 0.0004)
            : graph.add_stable_pool(usdc, usdt, 1'004'000.0, 996'000.0,
                                    200.0, 0.0004);
    usdt_weth = graph.add_pool(usdt, weth, 1'830'000.0, 1'000.0);
    weth_usdc = graph.add_pool(weth, usdc, 1'000.0, 1'850'000.0);
    prices.set_price(usdc, 1.0);
    prices.set_price(usdt, 1.0);
    prices.set_price(weth, 1'840.0);
  }

  [[nodiscard]] graph::Cycle loop() const {
    return *graph::Cycle::create(graph, {usdc, usdt, weth},
                                 {stable_leg, usdt_weth, weth_usdc});
  }
};

TEST(HeterogeneousVenueTest, StableHopCreatesLoopCpmmViewMisses) {
  const StableEdgeMarket mixed(/*stable_as_cpmm=*/false);
  const StableEdgeMarket cpmm_view(/*stable_as_cpmm=*/true);

  // The profitability gate itself disagrees between the two views.
  EXPECT_GT(mixed.loop().price_product(mixed.graph), 1.0);
  EXPECT_LT(cpmm_view.loop().price_product(cpmm_view.graph), 1.0);

  core::ScannerConfig config;
  config.loop_lengths = {3};
  config.strategy = core::StrategyKind::kConvexOptimization;

  const auto mixed_ops =
      core::scan_market(mixed.graph, mixed.prices, config).value();
  ASSERT_EQ(mixed_ops.size(), 1u);
  EXPECT_GT(mixed_ops[0].net_profit_usd, 0.0);
  ASSERT_EQ(mixed_ops[0].plan.steps.size(), 3u);
  // The plan routes real volume through the stable leg.
  EXPECT_EQ(mixed_ops[0].plan.steps[0].pool, mixed.stable_leg);
  EXPECT_GT(mixed_ops[0].plan.steps[0].amount_in, 0.0);

  const auto cpmm_ops =
      core::scan_market(cpmm_view.graph, cpmm_view.prices, config).value();
  EXPECT_TRUE(cpmm_ops.empty());
}

TEST(HeterogeneousVenueTest, ConvexDispatchReportsPathTaken) {
  const StableEdgeMarket mixed(false);
  const StableEdgeMarket cpmm(true);
  core::ConvexContext ctx;

  // Mixed loops of up to eight hops take the exact active-set rung.
  auto fast = core::solve_convex(mixed.graph, mixed.prices, mixed.loop(),
                                 {}, ctx);
  ASSERT_TRUE(fast.ok());
  EXPECT_FALSE(ctx.used_generic);
  EXPECT_TRUE(ctx.used_active_set);
  EXPECT_FALSE(ctx.warm_hit);
  EXPECT_GT(fast->outcome.monetized_usd, 0.0);

  // The derivative-free generic solver over the pools' own quotes must
  // agree on the monetized optimum.
  optim::SolveWorkspace generic_ws;
  auto generic = core::solve_generic_convex(mixed.graph, mixed.prices,
                                            mixed.loop(), generic_ws);
  ASSERT_TRUE(generic.ok());
  EXPECT_GT(generic->profit_usd, 0.0);
  EXPECT_NEAR(fast->outcome.monetized_usd, generic->profit_usd,
              1e-6 * std::max(1.0, generic->profit_usd));

  // All-CPMM loops take the same rung.
  graph::TokenGraph g2;
  const TokenId a = g2.add_token("A");
  const TokenId b = g2.add_token("B");
  const PoolId p1 = g2.add_pool(a, b, 100.0, 220.0);
  const PoolId p2 = g2.add_pool(b, a, 200.0, 110.0);
  market::CexPriceFeed f2;
  f2.set_price(a, 1.0);
  f2.set_price(b, 0.5);
  const auto loops =
      graph::filter_arbitrage(g2, graph::enumerate_fixed_length_cycles(g2, 2));
  ASSERT_EQ(loops.size(), 1u);
  auto exact = core::solve_convex(g2, f2, loops[0], {}, ctx);
  ASSERT_TRUE(exact.ok());
  EXPECT_FALSE(ctx.used_generic);
  EXPECT_TRUE(ctx.used_active_set);
  (void)p1;
  (void)p2;
  (void)cpmm;
}

/// Exact-equality comparison of two ranked opportunity sets.
void expect_identical(const std::vector<core::Opportunity>& full,
                      const std::vector<core::Opportunity>& incremental) {
  ASSERT_EQ(full.size(), incremental.size());
  for (std::size_t i = 0; i < full.size(); ++i) {
    EXPECT_EQ(full[i].cycle.rotation_key(),
              incremental[i].cycle.rotation_key())
        << "rank " << i;
    EXPECT_EQ(full[i].net_profit_usd, incremental[i].net_profit_usd)
        << "rank " << i;
    EXPECT_EQ(full[i].outcome.monetized_usd,
              incremental[i].outcome.monetized_usd)
        << "rank " << i;
  }
}

TEST(HeterogeneousVenueTest, AllCpmmDispatchBitIdenticalOver500Events) {
  market::GeneratorConfig gen;
  gen.token_count = 18;
  gen.pool_count = 40;
  const market::MarketSnapshot snapshot = market::generate_snapshot(gen);
  ASSERT_TRUE(snapshot.graph.all_cpmm());

  core::ScannerConfig config;
  config.loop_lengths = {3};
  config.strategy = core::StrategyKind::kConvexOptimization;
  // Warm starts stay off: a warm-started solve converges within
  // tolerance of the cold one but not to the same bits, and this test's
  // whole point is exact equality with a from-scratch scan.
  config.convex_warm_start = false;

  auto scanner =
      runtime::IncrementalScanner::create(snapshot, config).value();

  runtime::ReplayStreamConfig stream_config;
  stream_config.blocks = 512;
  stream_config.pools_per_block = 1;
  stream_config.seed = 99;
  runtime::ReplayUpdateStream stream(snapshot, stream_config);

  market::MarketSnapshot reference = snapshot;
  std::size_t events = 0;
  std::vector<runtime::PoolUpdateEvent> batch;
  while (auto event = stream.next()) {
    ASSERT_EQ(event->liquidity, 0.0);  // all-CPMM stream: reserve events
    ASSERT_TRUE(reference.graph
                    .set_pool_reserves(event->pool, event->reserve0,
                                       event->reserve1)
                    .ok());
    batch.push_back(*event);
    ++events;
    if (batch.size() == 16) {
      const auto report = scanner.apply(batch).value();
      EXPECT_EQ(report.repriced_mixed, 0u);  // no generic solves, ever
      EXPECT_EQ(report.repriced_cpmm + report.gated, report.repriced);
      batch.clear();
      expect_identical(
          core::scan_market(reference.graph, reference.prices, config)
              .value(),
          scanner.collect());
    }
  }
  EXPECT_GE(events, 500u);
}

TEST(HeterogeneousVenueTest, MixedMarketEndToEnd) {
  market::GeneratorConfig gen;
  gen.token_count = 20;
  gen.pool_count = 48;
  gen.stable_fraction = 0.2;
  gen.concentrated_fraction = 0.2;
  const market::MarketSnapshot snapshot = market::generate_snapshot(gen);

  std::size_t stable = 0;
  std::size_t concentrated = 0;
  for (const amm::AnyPool& pool : snapshot.graph.pools()) {
    stable += pool.kind() == amm::PoolKind::kStable;
    concentrated += pool.kind() == amm::PoolKind::kConcentrated;
  }
  ASSERT_GT(concentrated, 0u);
  ASSERT_FALSE(snapshot.graph.all_cpmm());

  // --- save / load round-trip: every kind and parameter exact. ---
  const auto dir = std::filesystem::temp_directory_path() /
                   "arb_hetero_e2e_test";
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(market::save_snapshot(snapshot, dir.string()).ok());
  const auto loaded = market::load_snapshot(dir.string()).value();
  ASSERT_EQ(loaded.graph.pool_count(), snapshot.graph.pool_count());
  for (std::size_t i = 0; i < snapshot.graph.pool_count(); ++i) {
    const amm::AnyPool& a = snapshot.graph.pool(PoolId{(unsigned)i});
    const amm::AnyPool& b = loaded.graph.pool(PoolId{(unsigned)i});
    ASSERT_EQ(a.kind(), b.kind()) << "pool " << i;
    EXPECT_EQ(a.reserve0(), b.reserve0()) << "pool " << i;
    EXPECT_EQ(a.reserve1(), b.reserve1()) << "pool " << i;
    EXPECT_EQ(a.fee(), b.fee()) << "pool " << i;
    if (a.kind() == amm::PoolKind::kStable) {
      EXPECT_EQ(a.stable().amplification(), b.stable().amplification());
    } else if (a.kind() == amm::PoolKind::kConcentrated) {
      EXPECT_EQ(a.concentrated().liquidity(), b.concentrated().liquidity());
      EXPECT_EQ(a.concentrated().price(), b.concentrated().price());
      EXPECT_EQ(a.concentrated().p_lo(), b.concentrated().p_lo());
      EXPECT_EQ(a.concentrated().p_hi(), b.concentrated().p_hi());
    }
  }
  std::filesystem::remove_all(dir);

  // --- scan: mixed loops price through the same facade. ---
  core::ScannerConfig config;
  config.loop_lengths = {3};
  config.strategy = core::StrategyKind::kConvexOptimization;
  const auto ops =
      core::scan_market(loaded.graph, loaded.prices, config).value();
  for (const core::Opportunity& op : ops) {
    EXPECT_GE(op.net_profit_usd, 0.0);
    EXPECT_EQ(op.plan.steps.size(), op.cycle.length());
  }

  // --- stream 1000 events through the service. ---
  runtime::ServiceConfig service_config;
  service_config.scanner = config;
  service_config.worker_threads = 2;
  service_config.max_batch = 32;
  auto service = runtime::ScannerService::start(loaded, service_config).value();

  runtime::ReplayStreamConfig stream_config;
  stream_config.blocks = 1000;
  stream_config.pools_per_block = 1;
  stream_config.seed = 5;
  runtime::ReplayUpdateStream stream(loaded, stream_config);

  market::MarketSnapshot reference = loaded;
  std::size_t published = 0;
  std::size_t concentrated_events = 0;
  while (auto event = stream.next()) {
    if (event->liquidity > 0.0) {
      ++concentrated_events;
      ASSERT_TRUE(reference.graph.mutable_pool(event->pool)
                      .set_concentrated_state(event->liquidity, event->price)
                      .ok());
    } else {
      ASSERT_TRUE(reference.graph
                      .set_pool_reserves(event->pool, event->reserve0,
                                         event->reserve1)
                      .ok());
    }
    ASSERT_TRUE(service->publish(*event));
    ++published;
  }
  EXPECT_EQ(published, 1000u);
  EXPECT_GT(concentrated_events, 0u);
  service->drain();
  ASSERT_TRUE(service->status().ok());

  expect_identical(
      core::scan_market(reference.graph, reference.prices, config).value(),
      service->opportunities());

  const runtime::MetricsSnapshot metrics = service->metrics();
  using runtime::Counter;
  EXPECT_EQ(metrics[Counter::events_ingested], published);
  EXPECT_GT(metrics[Counter::loops_repriced_mixed], 0u);
  EXPECT_EQ(metrics[Counter::loops_repriced],
            metrics[Counter::loops_repriced_cpmm] +
                metrics[Counter::loops_repriced_mixed] +
                metrics[Counter::loops_gated]);
  EXPECT_GT(metrics[runtime::Latency::mixed_reprice].samples, 0u);
  service->stop();
}

TEST(HeterogeneousVenueTest, GeneratorKnobsProduceValidMixedPools) {
  market::GeneratorConfig gen;
  gen.token_count = 24;
  gen.pool_count = 60;
  gen.stable_fraction = 0.3;
  gen.concentrated_fraction = 0.3;
  const market::MarketSnapshot snapshot = market::generate_snapshot(gen);

  for (const amm::AnyPool& pool : snapshot.graph.pools()) {
    if (pool.kind() == amm::PoolKind::kStable) {
      EXPECT_GE(pool.stable().amplification(), gen.min_amplification);
      EXPECT_LE(pool.stable().amplification(), gen.max_amplification);
      EXPECT_EQ(pool.fee(), gen.stable_fee);
    } else if (pool.kind() == amm::PoolKind::kConcentrated) {
      const amm::ConcentratedPool& clp = pool.concentrated();
      EXPECT_GT(clp.price(), clp.p_lo());
      EXPECT_LT(clp.price(), clp.p_hi());
      EXPECT_GT(clp.reserve0(), 0.0);
      EXPECT_GT(clp.reserve1(), 0.0);
      EXPECT_EQ(pool.fee(), gen.concentrated_fee);
    }
  }

  // Same seed, same config: generation is deterministic.
  const market::MarketSnapshot again = market::generate_snapshot(gen);
  ASSERT_EQ(again.graph.pool_count(), snapshot.graph.pool_count());
  for (std::size_t i = 0; i < snapshot.graph.pool_count(); ++i) {
    const amm::AnyPool& a = snapshot.graph.pool(PoolId{(unsigned)i});
    const amm::AnyPool& b = again.graph.pool(PoolId{(unsigned)i});
    ASSERT_EQ(a.kind(), b.kind());
    EXPECT_EQ(a.reserve0(), b.reserve0());
    EXPECT_EQ(a.reserve1(), b.reserve1());
  }
}

}  // namespace
}  // namespace arb
