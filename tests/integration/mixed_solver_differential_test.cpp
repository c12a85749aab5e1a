// Mixed-solver route differential: the analytic-kernel barrier fast
// path for mixed loops (warm-started and cold) and the derivative-free
// generic solver are three routes to the same optimum, and this suite
// pins their agreement while a mixed market streams.
//
// Two layers:
//  1. Solver level — 1000+ reserve/liquidity events replayed into a
//     mutable mixed market; after every event, each affected mixed loop
//     in the profitable orientation is solved warm, cold, and (on a
//     deterministic 1-in-32 subsample — the generic route is ~100x
//     slower, which is the point of the fast path) by the generic
//     solver directly. Monetized profits must agree to ≤1e-6 relative
//     (1e-6 USD absolute floor).
//  2. Engine level — the same 1000+-event stream through the scanner
//     service at shards K ∈ {1, 4} with warm starts on, and through a
//     serial reference (one IncrementalScanner::apply per event): ranked
//     sets must be bit-identical across all three (the sharded, pipelined
//     engine may not perturb the mixed fast path's warm trajectories).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "core/convex.hpp"
#include "core/generic_convex.hpp"
#include "core/scanner.hpp"
#include "graph/cycle.hpp"
#include "graph/cycle_enumeration.hpp"
#include "market/generator.hpp"
#include "optim/workspace.hpp"
#include "runtime/incremental_scanner.hpp"
#include "runtime/replay_stream.hpp"
#include "runtime/service.hpp"

namespace arb {
namespace {

constexpr std::uint64_t kStreamSeed = 4242;

/// |a − b| ≤ 1e-6·max(|a|, |b|, 1) — the suite's agreement bar.
void expect_agree(double a, double b, const std::string& what,
                  std::size_t event, std::size_t cycle) {
  const double scale = std::max({std::abs(a), std::abs(b), 1.0});
  EXPECT_LE(std::abs(a - b), 1e-6 * scale)
      << what << " disagree at event " << event << ", cycle " << cycle
      << ": " << a << " vs " << b;
}

TEST(MixedSolverDifferentialTest, WarmColdGenericAgreeOverStreamingEvents) {
  market::GeneratorConfig gen;
  gen.token_count = 8;
  gen.pool_count = 20;
  gen.stable_fraction = 0.25;
  gen.concentrated_fraction = 0.25;
  market::MarketSnapshot market = market::generate_snapshot(gen);
  ASSERT_FALSE(market.graph.all_cpmm());

  const std::vector<graph::Cycle> cycles =
      graph::enumerate_fixed_length_cycles(market.graph, 3);
  std::vector<const graph::Cycle*> mixed;
  for (const graph::Cycle& cycle : cycles) {
    if (!cycle.all_cpmm(market.graph)) mixed.push_back(&cycle);
  }
  ASSERT_FALSE(mixed.empty()) << "market has no mixed 3-loops";

  // Route contexts. The warm context carries one WarmStart slot per
  // mixed cycle (exactly the scanner's per-cycle ownership); cold and
  // generic reuse their workspaces but never a warm slot.
  core::ConvexContext warm_ctx;
  core::ConvexContext cold_ctx;
  optim::SolveWorkspace generic_ws;
  std::vector<optim::WarmStart> warm_slots(mixed.size());
  const core::ConvexOptions fast_options;

  runtime::ReplayStreamConfig stream_config;
  stream_config.blocks = 52;  // 52 x 20 pools = 1040 events
  stream_config.seed = kStreamSeed;
  runtime::ReplayUpdateStream stream(market, stream_config);

  std::size_t events = 0;
  std::size_t compared = 0;
  std::size_t generic_compared = 0;
  while (auto event = stream.next()) {
    if (event->liquidity > 0.0) {
      ASSERT_TRUE(market.graph
                      .set_concentrated_state(event->pool, event->liquidity,
                                              event->price)
                      .ok());
    } else {
      ASSERT_TRUE(market.graph
                      .set_pool_reserves(event->pool, event->reserve0,
                                         event->reserve1)
                      .ok());
    }
    ++events;
    for (std::size_t i = 0; i < mixed.size(); ++i) {
      const graph::Cycle& cycle = *mixed[i];
      const auto& pools = cycle.pools();
      if (std::find(pools.begin(), pools.end(), event->pool) == pools.end()) {
        continue;
      }
      // Stay clear of the solver's no-arbitrage margin (1e-12) so every
      // compared solve actually runs its route.
      if (!(cycle.price_product(market.graph) > 1.0 + 1e-9)) continue;

      warm_ctx.warm = &warm_slots[i];
      auto warm = core::solve_convex(market.graph, market.prices, cycle,
                                     fast_options, warm_ctx);
      warm_ctx.warm = nullptr;
      auto cold = core::solve_convex(market.graph, market.prices, cycle,
                                     fast_options, cold_ctx);
      ASSERT_TRUE(warm.ok()) << warm.error().message;
      ASSERT_TRUE(cold.ok()) << cold.error().message;
      expect_agree(warm->outcome.monetized_usd, cold->outcome.monetized_usd,
                   "warm vs cold", events, i);
      ++compared;

      if (compared % 32 == 0) {
        auto generic = core::solve_generic_convex(
            market.graph, market.prices, cycle, generic_ws);
        ASSERT_TRUE(generic.ok()) << generic.error().message;
        expect_agree(cold->outcome.monetized_usd, generic->profit_usd,
                     "cold vs generic", events, i);
        ++generic_compared;
      }
    }
  }
  EXPECT_GE(events, 1000u);
  EXPECT_GE(compared, 100u) << "stream never exercised the mixed loops";
  EXPECT_GE(generic_compared, 25u);
}

/// The engine-level scanner configuration: Convex with warm starts.
core::ScannerConfig warm_convex() {
  core::ScannerConfig scanner;
  scanner.loop_lengths = {3};
  scanner.strategy = core::StrategyKind::kConvexOptimization;
  scanner.convex_warm_start = true;
  return scanner;
}

/// The shared mixed stream, one event per element.
std::vector<runtime::PoolUpdateEvent> mixed_stream(
    const market::MarketSnapshot& snapshot) {
  runtime::ReplayStreamConfig stream_config;
  stream_config.blocks = 21;
  stream_config.seed = kStreamSeed;
  runtime::ReplayUpdateStream stream(snapshot, stream_config);
  std::vector<runtime::PoolUpdateEvent> events;
  while (auto event = stream.next()) events.push_back(*event);
  EXPECT_GE(events.size(), 1000u);
  return events;
}

/// One service run on the shared mixed stream; returns the ranked set.
std::vector<core::Opportunity> run_service(
    const market::MarketSnapshot& snapshot, std::size_t shards,
    const std::vector<runtime::PoolUpdateEvent>& events) {
  runtime::ServiceConfig config;
  config.scanner = warm_convex();
  config.worker_threads = 2;
  config.shards = shards;
  config.max_batch = 1;  // batch composition == stream order
  auto service = runtime::ScannerService::start(snapshot, config).value();
  for (const runtime::PoolUpdateEvent& event : events) {
    EXPECT_TRUE(service->publish(event));
  }
  service->drain();
  EXPECT_TRUE(service->status().ok()) << service->status().error().message;

  std::vector<core::Opportunity> ranked = service->opportunities();
  const runtime::MetricsSnapshot metrics = service->metrics();
  // A clean stream: every event is applied, as in the serial reference.
  EXPECT_EQ(metrics.events_rejected_total(), 0u);
  // The fast path carries the mixed load; the generic rungs (tick
  // crossings, rescues) stay a remainder, and the split never exceeds
  // the gate survivors.
  using runtime::Counter;
  EXPECT_GT(metrics[Counter::loops_repriced_mixed_fast], 0u);
  EXPECT_LE(metrics[Counter::loops_repriced_mixed_fast] +
                metrics[Counter::loops_repriced_mixed_generic],
            metrics[Counter::loops_repriced_mixed]);
  service->stop();
  return ranked;
}

TEST(MixedSolverDifferentialTest, BitStableAcrossShardsAndSerialApply) {
  market::GeneratorConfig gen;
  gen.token_count = 20;
  gen.pool_count = 48;
  gen.stable_fraction = 0.2;
  gen.concentrated_fraction = 0.2;
  const market::MarketSnapshot snapshot = market::generate_snapshot(gen);
  ASSERT_FALSE(snapshot.graph.all_cpmm());
  const std::vector<runtime::PoolUpdateEvent> events = mixed_stream(snapshot);

  // Serial reference: one K=1 scanner without workers, one apply per event.
  auto scanner =
      runtime::IncrementalScanner::create(snapshot, warm_convex()).value();
  for (const runtime::PoolUpdateEvent& event : events) {
    ASSERT_TRUE(scanner.apply({event}).ok());
  }
  const std::vector<core::Opportunity> base = scanner.collect();
  for (const std::size_t shards : {1, 4}) {
    SCOPED_TRACE("K=" + std::to_string(shards) + " service vs serial apply");
    const std::vector<core::Opportunity> run =
        run_service(snapshot, shards, events);
    ASSERT_EQ(base.size(), run.size());
    for (std::size_t i = 0; i < base.size(); ++i) {
      EXPECT_EQ(base[i].cycle.rotation_key(), run[i].cycle.rotation_key())
          << "rank " << i;
      EXPECT_EQ(base[i].net_profit_usd, run[i].net_profit_usd) << "rank " << i;
      EXPECT_EQ(base[i].outcome.monetized_usd, run[i].outcome.monetized_usd)
          << "rank " << i;
    }
  }
}

}  // namespace
}  // namespace arb
