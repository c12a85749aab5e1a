// One-cycle differential: solve_convex — the exact active set — against
// the barrier on the one-cycle flow program (FlowInstance::from_cycle +
// solve_flow) and the derivative-free generic solver over the pools' own
// quotes, an oracle that shares neither the solvers nor the analytic hop
// kernels. The suite sweeps generated markets — all-CPMM and mixed
// stable/concentrated mixes across several seeds — and pins their
// monetized profits to ≤1e-6 relative agreement over 500+ profitable
// length-3 loops.
//
// A second check pins the routing layer: on all-CPMM parallel path sets
// drawn from the same markets, the flow solve must agree with the
// water-filling closed form that handles them on the fast path.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/convex.hpp"
#include "core/generic_convex.hpp"
#include "core/flow_nlp.hpp"
#include "core/router.hpp"
#include "core/routing.hpp"
#include "graph/cycle.hpp"
#include "graph/cycle_enumeration.hpp"
#include "market/generator.hpp"

namespace arb {
namespace {

/// |a − b| ≤ 1e-6·max(|a|, |b|, 1) — the suite's agreement bar.
void expect_agree(double a, double b, const std::string& what) {
  const double scale = std::max({std::abs(a), std::abs(b), 1.0});
  EXPECT_LE(std::abs(a - b), 1e-6 * scale)
      << what << ": " << a << " vs " << b;
}

struct MarketMix {
  std::uint64_t seed;
  double stable_fraction;
  double concentrated_fraction;
};

TEST(RoutingDifferentialTest, OneCycleConvexMatchesGenericSolver) {
  // Six markets: two all-CPMM, two stable-heavy, two with all venues.
  const std::vector<MarketMix> mixes{
      {101, 0.0, 0.0},  {202, 0.0, 0.0},  {303, 0.3, 0.0},
      {404, 0.25, 0.0}, {505, 0.2, 0.2},  {606, 0.15, 0.3},
  };

  core::ConvexContext convex_ctx;
  core::FlowContext barrier_ctx;
  optim::SolveWorkspace generic_ws;
  const core::ConvexOptions convex_options;

  std::size_t compared = 0;
  std::size_t barrier_compared = 0;
  std::size_t mixed_compared = 0;
  for (const MarketMix& mix : mixes) {
    market::GeneratorConfig gen;
    gen.seed = mix.seed;
    gen.token_count = 24;
    gen.pool_count = 96;
    gen.stable_fraction = mix.stable_fraction;
    gen.concentrated_fraction = mix.concentrated_fraction;
    // A little extra mispricing keeps the profitable-loop count high
    // enough to clear the 500-comparison bar in six markets.
    gen.pool_price_noise_sigma = 0.02;
    const market::MarketSnapshot market = market::generate_snapshot(gen);
    SCOPED_TRACE("seed " + std::to_string(mix.seed));

    const std::vector<graph::Cycle> cycles =
        graph::enumerate_fixed_length_cycles(market.graph, 3);
    for (const graph::Cycle& cycle : cycles) {
      // Stay clear of the solver's no-arbitrage margin so every route
      // actually runs its solve.
      if (!(cycle.price_product(market.graph) > 1.0 + 1e-9)) continue;

      auto convex = core::solve_convex(market.graph, market.prices, cycle,
                                       convex_options, convex_ctx);
      ASSERT_TRUE(convex.ok()) << convex.error().message;
      auto generic = core::solve_generic_convex(market.graph, market.prices,
                                                cycle, generic_ws);
      ASSERT_TRUE(generic.ok()) << generic.error().message;

      expect_agree(convex->outcome.monetized_usd, generic->profit_usd,
                   "convex vs generic, loop " + cycle.rotation_key());
      ++compared;

      // The barrier wherever it can model the state (not a concentrated
      // hop pinned at its range edge).
      const auto instance =
          core::FlowInstance::from_cycle(market.graph, market.prices, cycle);
      ASSERT_TRUE(instance.ok());
      const auto barrier = core::solve_flow(*instance, {}, barrier_ctx);
      if (barrier.ok()) {
        expect_agree(convex->outcome.monetized_usd, barrier->objective,
                     "convex vs barrier, loop " + cycle.rotation_key());
        ++barrier_compared;
      } else {
        EXPECT_NE(barrier.error().code, ErrorCode::kNumericFailure)
            << barrier.error().message;
      }
      if (!cycle.all_cpmm(market.graph)) ++mixed_compared;
    }
  }
  EXPECT_GE(compared, 500u) << "markets too quiet for the differential";
  EXPECT_GE(barrier_compared * 10, compared * 9)
      << barrier_compared << " of " << compared << " barrier solves";
  EXPECT_GE(mixed_compared, 50u) << "mixed venues barely exercised";
}

TEST(RoutingDifferentialTest, FlowMatchesWaterFillingOnCpmmSplits) {
  market::GeneratorConfig gen;
  gen.seed = 707;
  gen.token_count = 16;
  gen.pool_count = 64;
  const market::MarketSnapshot market = market::generate_snapshot(gen);
  ASSERT_TRUE(market.graph.all_cpmm());

  core::FlowContext flow_ctx;
  std::size_t compared = 0;
  for (std::uint32_t t = 1; t < market.graph.token_count(); ++t) {
    const TokenId token_in{0};
    const TokenId token_out{t};
    const auto paths =
        core::enumerate_paths(market.graph, token_in, token_out, 2, 6);
    if (paths.size() < 2) continue;

    // Water-filling handles edge-disjoint sets only; shared pools go to
    // the flow solver, which is not what this differential pins.
    std::vector<PoolId> used;
    bool disjoint = true;
    for (const auto& path : paths) {
      for (PoolId id : path) {
        if (std::find(used.begin(), used.end(), id) != used.end()) {
          disjoint = false;
        }
        used.push_back(id);
      }
    }
    if (!disjoint) continue;

    const double budget = 250.0;
    auto split = core::optimal_route_split(market.graph, token_in, token_out,
                                           paths, budget);
    ASSERT_TRUE(split.ok()) << split.error().message;
    EXPECT_FALSE(split->used_flow_solver);

    auto instance = core::FlowInstance::for_swap(market.graph, token_in,
                                                 token_out, paths, budget);
    ASSERT_TRUE(instance.ok()) << instance.error().message;
    auto flow = core::solve_flow(*instance, core::FlowOptions{}, flow_ctx);
    ASSERT_TRUE(flow.ok()) << flow.error().message;

    expect_agree(split->total_output, flow->objective,
                 "water-filling vs flow, token " + std::to_string(t));
    ++compared;
  }
  EXPECT_GE(compared, 5u) << "market offered too few disjoint splits";
}

}  // namespace
}  // namespace arb
