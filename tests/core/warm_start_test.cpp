// Differential validation of warm-started barrier solves (solve_flow on
// a loop's one-cycle instance — solve_convex answers these loops by
// active set, so the barrier is driven directly): across thousands of
// randomized reserve perturbations, a solve that resumes from the
// previous optimum must agree with a cold solve of the same market
// state. Warm-starting is a performance path only — it must never change
// what the solver finds.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>

#include "core/flow_nlp.hpp"
#include "graph/cycle_enumeration.hpp"
#include "market/generator.hpp"
#include "math/alloc_stats.hpp"
#include "optim/workspace.hpp"
#include "runtime/replay_stream.hpp"
#include "tests/core/fixtures.hpp"

namespace arb::core {
namespace {

using testing::Section5Market;

/// The barrier on the loop's one-cycle flow instance at current state.
Result<FlowSolution> barrier(const Section5Market& m, FlowContext& ctx) {
  auto instance = FlowInstance::from_cycle(m.graph, m.prices, m.loop());
  if (!instance) return instance.error();
  return solve_flow(*instance, {}, ctx);
}

/// Applies a bounded multiplicative shock to every pool of the Section V
/// market (relative size up to `magnitude` per reserve).
void perturb(Section5Market& m, std::mt19937_64& rng, double magnitude) {
  std::uniform_real_distribution<double> shock(1.0 - magnitude,
                                               1.0 + magnitude);
  for (std::size_t p = 0; p < m.graph.pool_count(); ++p) {
    const auto& pool = m.graph.pool(PoolId{static_cast<std::uint32_t>(p)});
    ASSERT_TRUE(m.graph
                    .set_pool_reserves(PoolId{static_cast<std::uint32_t>(p)},
                                       pool.reserve0() * shock(rng),
                                       pool.reserve1() * shock(rng))
                    .ok());
  }
}

TEST(WarmStartTest, WarmAgreesWithColdAcrossPerturbationStream) {
  Section5Market m;

  FlowContext warm_ctx;
  optim::WarmStart slot;
  warm_ctx.warm = &slot;

  std::mt19937_64 rng(7);
  int hits = 0;
  int solves = 0;
  for (int event = 0; event < 1200; ++event) {
    // Mostly small reserve moves (the streaming steady state) with an
    // occasional large shock that should invalidate the warm iterate.
    const double magnitude = event % 50 == 49 ? 0.30 : 0.02;
    perturb(m, rng, magnitude);

    auto warm = barrier(m, warm_ctx);
    ASSERT_TRUE(warm.ok()) << "event " << event;

    FlowContext cold_ctx;  // no warm slot: always cold
    auto cold = barrier(m, cold_ctx);
    ASSERT_TRUE(cold.ok()) << "event " << event;
    EXPECT_FALSE(cold_ctx.warm_hit);

    const double scale = std::max(1.0, std::abs(cold->objective));
    EXPECT_NEAR(warm->objective, cold->objective, 1e-6 * scale)
        << "event " << event;
    ++solves;
    if (warm_ctx.warm_hit) ++hits;
  }
  // The stream of small perturbations must actually exercise the warm
  // path, not silently fall back to cold every time.
  EXPECT_GT(hits, solves / 2) << hits << "/" << solves;
}

TEST(WarmStartTest, InvalidSlotIsEquivalentToCold) {
  const Section5Market m;

  FlowContext plain;
  auto reference = barrier(m, plain);
  ASSERT_TRUE(reference.ok());

  FlowContext ctx;
  optim::WarmStart slot;  // valid == false
  ctx.warm = &slot;
  auto solved = barrier(m, ctx);
  ASSERT_TRUE(solved.ok());
  EXPECT_FALSE(ctx.warm_hit);
  // Identical arithmetic path: bit-equal results.
  EXPECT_EQ(solved->objective, reference->objective);
  // The solve refreshes the slot for next time.
  EXPECT_TRUE(slot.valid);
  EXPECT_GT(slot.t, 0.0);
}

TEST(WarmStartTest, SlotSurvivesProfitlessVisit) {
  Section5Market m;
  FlowContext ctx;
  optim::WarmStart slot;
  ctx.warm = &slot;

  auto first = barrier(m, ctx);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(slot.valid);
  const double remembered_t = slot.t;

  // Flip the XY pool so hard the loop loses money in this orientation.
  // The flow-form price-product gate (no profitable Möbius direction)
  // zeroes the solve without touching the slot:
  // profitless visits used to clear it, which made every flicker around
  // the profitability boundary pay a cold restart when the loop came
  // back (the live warm-hit-rate leak).
  const auto& xy = m.graph.pool(m.xy);
  const double r0 = xy.reserve0();
  const double r1 = xy.reserve1();
  ASSERT_TRUE(m.graph.set_pool_reserves(m.xy, 10000.0, 2.0).ok());
  auto second = barrier(m, ctx);
  ASSERT_TRUE(second.ok());
  EXPECT_DOUBLE_EQ(second->objective, 0.0);
  EXPECT_FALSE(ctx.warm_hit);
  EXPECT_TRUE(slot.valid);
  EXPECT_EQ(slot.t, remembered_t);

  // When profitability returns to the original state, the kept slot
  // warm-starts and agrees with a cold solve of the same state.
  ASSERT_TRUE(m.graph.set_pool_reserves(m.xy, r0, r1).ok());
  auto third = barrier(m, ctx);
  ASSERT_TRUE(third.ok());
  EXPECT_TRUE(ctx.warm_hit);
  const double scale = std::max(1.0, std::abs(first->objective));
  EXPECT_NEAR(third->objective, first->objective, 1e-6 * scale);
}

TEST(WarmStartTest, SteadyStateSolvesAreAllocationFree) {
  Section5Market m;
  FlowContext ctx;
  optim::WarmStart slot;
  ctx.warm = &slot;

  std::mt19937_64 rng(11);
  // Grow every buffer: a few solves across perturbed states.
  for (int i = 0; i < 5; ++i) {
    perturb(m, rng, 0.02);
    ASSERT_TRUE(barrier(m, ctx).ok());
  }

  // A warm miss legitimately rebuilds its cold starting point on the
  // heap, so the zero-allocation contract is asserted per warm-hit solve
  // (the overwhelming majority under small perturbations).
  int hits = 0;
  for (int i = 0; i < 50; ++i) {
    perturb(m, rng, 0.02);
    const auto instance =
        FlowInstance::from_cycle(m.graph, m.prices, m.loop()).value();
    math::reset_allocation_count();
    auto solved = solve_flow(instance, {}, ctx);
    ASSERT_TRUE(solved.ok());
    if (ctx.warm_hit) {
      ++hits;
      EXPECT_EQ(math::allocation_count(), 0u) << "event " << i;
    }
  }
  EXPECT_GT(hits, 25);
}

/// Warm-slot hit rate of a streaming barrier: the seed-9 replay stream
/// (25 blocks, every pool once per block) applied to an 18-token,
/// 40-pool market, and after each block every length-3 loop it touched
/// that clears the price-product gate re-solved by solve_flow from its
/// own warm slot — the scanner's schedule with one block per batch and
/// per-cycle slots. Solves the barrier cannot model (a concentrated hop
/// pinned at its range edge) count as neither hit nor miss.
double stream_hit_rate(double stable_fraction, double concentrated_fraction,
                       std::size_t& solves) {
  market::GeneratorConfig gen;
  gen.token_count = 18;
  gen.pool_count = 40;
  gen.stable_fraction = stable_fraction;
  gen.concentrated_fraction = concentrated_fraction;
  market::MarketSnapshot market = market::generate_snapshot(gen);
  const std::vector<graph::Cycle> cycles =
      graph::enumerate_fixed_length_cycles(market.graph, 3);
  std::vector<optim::WarmStart> slots(cycles.size());
  std::vector<char> dirty(cycles.size(), 0);
  FlowContext ctx;
  std::size_t hits = 0;
  solves = 0;
  const auto reprice = [&] {
    for (std::size_t i = 0; i < cycles.size(); ++i) {
      if (dirty[i] == 0) continue;
      dirty[i] = 0;
      if (!(cycles[i].price_product(market.graph) > 1.0)) continue;
      const auto instance =
          FlowInstance::from_cycle(market.graph, market.prices, cycles[i]);
      if (!instance) continue;
      ctx.warm = &slots[i];
      const auto solved = solve_flow(*instance, {}, ctx);
      if (!solved || solved->trivial) continue;
      ++solves;
      if (ctx.warm_hit) ++hits;
    }
  };

  runtime::ReplayStreamConfig stream_config;
  stream_config.blocks = 25;
  stream_config.seed = 9;
  runtime::ReplayUpdateStream stream(market, stream_config);
  std::size_t in_block = 0;
  while (auto event = stream.next()) {
    const bool applied =
        event->liquidity > 0.0
            ? market.graph
                  .set_concentrated_state(event->pool, event->liquidity,
                                          event->price)
                  .ok()
            : market.graph
                  .set_pool_reserves(event->pool, event->reserve0,
                                     event->reserve1)
                  .ok();
    EXPECT_TRUE(applied);
    for (std::size_t i = 0; i < cycles.size(); ++i) {
      const auto& pools = cycles[i].pools();
      if (std::find(pools.begin(), pools.end(), event->pool) != pools.end()) {
        dirty[i] = 1;
      }
    }
    if (++in_block == market.graph.pool_count()) {
      reprice();
      in_block = 0;
    }
  }
  reprice();
  return solves == 0 ? 0.0
                     : static_cast<double>(hits) / static_cast<double>(solves);
}

TEST(WarmStartTest, StreamHitRateAboveEightyPercentInSteadyState) {
  // After the first visit primes each slot, nearly every solve should
  // resume warm. Keeping warm slots across profitless visits is what
  // holds the rate up — loops flickering around the profitability
  // boundary used to pay a cold restart on every return.
  std::size_t solves = 0;
  const double rate = stream_hit_rate(0.0, 0.0, solves);
  ASSERT_GT(solves, 0u);
  EXPECT_GE(rate, 0.80) << solves << " solves";
}

TEST(WarmStartTest, MixedStreamHitRateAboveSixtyPercentInSteadyState) {
  // The mixed-venue analogue: stable and concentrated hops run the same
  // barrier kernels, so their cycles' warm slots must survive streaming
  // too (the lower bar leaves room for solves the barrier cannot model).
  std::size_t solves = 0;
  const double rate = stream_hit_rate(0.25, 0.25, solves);
  ASSERT_GT(solves, 0u);
  EXPECT_GE(rate, 0.60) << solves << " solves";
}

}  // namespace
}  // namespace arb::core
