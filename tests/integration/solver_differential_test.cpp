// Differential testing of the three convex-solver routes (the exact
// active set behind solve_convex, the barrier on the one-cycle flow
// program, and the derivative-free generic solver over the pools' own
// quotes, which shares no solver code with either) plus the MaxMax lower
// bound, on randomized loops of random length — the strongest
// correctness evidence the library has for the Convex Optimization
// strategy.

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/convex.hpp"
#include "core/flow_nlp.hpp"
#include "core/generic_convex.hpp"
#include "core/single_start.hpp"
#include "graph/cycle.hpp"

namespace arb {
namespace {

struct RandomLoop {
  graph::TokenGraph graph;
  market::CexPriceFeed prices;
  std::vector<TokenId> tokens;
  std::vector<PoolId> pools;

  RandomLoop(Rng& rng, std::size_t length) {
    for (std::size_t i = 0; i < length; ++i) {
      tokens.push_back(graph.add_token("T" + std::to_string(i)));
      prices.set_price(tokens.back(),
                       std::exp(rng.uniform(std::log(0.01), std::log(3000.0))));
    }
    for (std::size_t i = 0; i < length; ++i) {
      // Log-uniform reserves over several decades.
      const double r0 = std::exp(rng.uniform(std::log(50.0), std::log(5e6)));
      const double r1 = std::exp(rng.uniform(std::log(50.0), std::log(5e6)));
      pools.push_back(
          graph.add_pool(tokens[i], tokens[(i + 1) % length], r0, r1));
    }
  }

  [[nodiscard]] graph::Cycle cycle() const {
    return *graph::Cycle::create(graph, tokens, pools);
  }
};

class SolverDifferentialTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SolverDifferentialTest, AllRoutesAgreeOnRandomLoops) {
  Rng rng(GetParam());
  optim::SolveWorkspace ws;
  int profitable = 0;
  for (int trial = 0; trial < 25; ++trial) {
    const std::size_t length = 2 + rng.index(5);  // 2..6
    const RandomLoop loop(rng, length);
    const graph::Cycle cycle = loop.cycle();

    const auto maxmax =
        core::evaluate_max_max(loop.graph, loop.prices, cycle).value();
    const auto exact =
        core::solve_convex(loop.graph, loop.prices, cycle).value();
    const auto barrier =
        core::solve_flow(
            core::FlowInstance::from_cycle(loop.graph, loop.prices, cycle)
                .value())
            .value();
    const auto generic =
        core::solve_generic_convex(loop.graph, loop.prices, cycle, ws).value();

    const double reference = exact.outcome.monetized_usd;
    if (cycle.price_product(loop.graph) <= 1.0) {
      EXPECT_DOUBLE_EQ(maxmax.monetized_usd, 0.0);
      EXPECT_DOUBLE_EQ(reference, 0.0);
      EXPECT_DOUBLE_EQ(barrier.objective, 0.0);
      EXPECT_DOUBLE_EQ(generic.profit_usd, 0.0);
      continue;
    }
    ++profitable;
    const double tol = 1e-4 * std::max(1e-9, reference);
    EXPECT_NEAR(barrier.objective, reference,
                1e-6 * std::max(1e-9, reference))
        << "len=" << length << " trial=" << trial;
    EXPECT_NEAR(generic.profit_usd, reference,
                1e-6 * std::max(1e-9, reference))
        << "len=" << length << " trial=" << trial;
    // MaxMax is a valid lower bound for every route.
    EXPECT_LE(maxmax.monetized_usd, reference + tol);
    EXPECT_GE(reference, maxmax.monetized_usd * (1.0 - 1e-7) - 1e-12);
  }
  EXPECT_GT(profitable, 5);  // random pools are usually mispriced
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverDifferentialTest,
                         ::testing::Values(101, 202, 303, 404));

}  // namespace
}  // namespace arb
