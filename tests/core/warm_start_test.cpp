// Differential validation of warm-started barrier solves: across
// thousands of randomized reserve perturbations, a solve that resumes
// from the previous optimum must agree with a cold solve of the same
// market state. Warm-starting is a performance path only — it must never
// change what the solver finds.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>

#include "core/convex.hpp"
#include "math/alloc_stats.hpp"
#include "optim/workspace.hpp"
#include "tests/core/fixtures.hpp"

namespace arb::core {
namespace {

using testing::Section5Market;

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
  const auto loop = m.loop();

  ConvexOptions options;
  ConvexContext warm_ctx;
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

    auto warm = solve_convex(m.graph, m.prices, loop, options, warm_ctx);
    ASSERT_TRUE(warm.ok()) << "event " << event;

    ConvexContext cold_ctx;  // no warm slot: always cold
    auto cold = solve_convex(m.graph, m.prices, loop, options, cold_ctx);
    ASSERT_TRUE(cold.ok()) << "event " << event;
    EXPECT_FALSE(cold_ctx.warm_hit);

    const double scale =
        std::max(1.0, std::abs(cold->outcome.monetized_usd));
    EXPECT_NEAR(warm->outcome.monetized_usd, cold->outcome.monetized_usd,
                1e-6 * scale)
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
  ConvexOptions options;

  ConvexContext plain;
  auto reference = solve_convex(m.graph, m.prices, m.loop(), options, plain);
  ASSERT_TRUE(reference.ok());

  ConvexContext ctx;
  optim::WarmStart slot;  // valid == false
  ctx.warm = &slot;
  auto solved = solve_convex(m.graph, m.prices, m.loop(), options, ctx);
  ASSERT_TRUE(solved.ok());
  EXPECT_FALSE(ctx.warm_hit);
  // Identical arithmetic path: bit-equal results.
  EXPECT_EQ(solved->outcome.monetized_usd, reference->outcome.monetized_usd);
  // The solve refreshes the slot for next time.
  EXPECT_TRUE(slot.valid);
  EXPECT_GT(slot.t, 0.0);
}

TEST(WarmStartTest, SlotSurvivesProfitlessVisit) {
  Section5Market m;
  ConvexOptions options;
  ConvexContext ctx;
  optim::WarmStart slot;
  ctx.warm = &slot;

  auto first = solve_convex(m.graph, m.prices, m.loop(), options, ctx);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(slot.valid);
  const double remembered_t = slot.t;

  // Flip the XY pool so hard the loop loses money in this orientation.
  // The price-product gate zeroes the solve without touching the slot:
  // profitless visits used to clear it, which made every flicker around
  // the profitability boundary pay a cold restart when the loop came
  // back (the live warm-hit-rate leak).
  const auto& xy = m.graph.pool(m.xy);
  const double r0 = xy.reserve0();
  const double r1 = xy.reserve1();
  ASSERT_TRUE(m.graph.set_pool_reserves(m.xy, 10000.0, 2.0).ok());
  auto second = solve_convex(m.graph, m.prices, m.loop(), options, ctx);
  ASSERT_TRUE(second.ok());
  EXPECT_DOUBLE_EQ(second->outcome.monetized_usd, 0.0);
  EXPECT_FALSE(ctx.warm_hit);
  EXPECT_TRUE(slot.valid);
  EXPECT_EQ(slot.t, remembered_t);

  // When profitability returns to the original state, the kept slot
  // warm-starts and agrees with a cold solve of the same state.
  ASSERT_TRUE(m.graph.set_pool_reserves(m.xy, r0, r1).ok());
  auto third = solve_convex(m.graph, m.prices, m.loop(), options, ctx);
  ASSERT_TRUE(third.ok());
  EXPECT_TRUE(ctx.warm_hit);
  const double scale = std::max(1.0, std::abs(first->outcome.monetized_usd));
  EXPECT_NEAR(third->outcome.monetized_usd, first->outcome.monetized_usd,
              1e-6 * scale);
}

TEST(WarmStartTest, SteadyStateSolvesAreAllocationFree) {
  Section5Market m;
  ConvexOptions options;
  ConvexContext ctx;
  optim::WarmStart slot;
  ctx.warm = &slot;

  std::mt19937_64 rng(11);
  // Grow every buffer: a few solves across perturbed states.
  for (int i = 0; i < 5; ++i) {
    perturb(m, rng, 0.02);
    ASSERT_TRUE(solve_convex(m.graph, m.prices, m.loop(), options, ctx).ok());
  }

  // A warm miss legitimately rebuilds its cold starting point on the
  // heap, so the zero-allocation contract is asserted per warm-hit solve
  // (the overwhelming majority under small perturbations).
  int hits = 0;
  for (int i = 0; i < 50; ++i) {
    perturb(m, rng, 0.02);
    math::reset_allocation_count();
    auto solved = solve_convex(m.graph, m.prices, m.loop(), options, ctx);
    ASSERT_TRUE(solved.ok());
    if (ctx.warm_hit) {
      ++hits;
      EXPECT_EQ(math::allocation_count(), 0u) << "event " << i;
    }
  }
  EXPECT_GT(hits, 25);
}

}  // namespace
}  // namespace arb::core
