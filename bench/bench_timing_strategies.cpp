// Section VII timing claims, as a google-benchmark suite.
//
// The paper reports: for a loop of length 10, MaxMax runs in milliseconds
// while the Convex Optimization strategy takes seconds (their Python/Ipopt
// stack) — convex is the slower strategy and its cost grows with loop
// length. BM_ConvexBarrier is the paper-faithful series: eq. (8) handed to
// a generic NLP solver (the barrier, solve_flow on the one-cycle flow
// instance). Our native solver is much faster in absolute terms, but that
// *shape* holds: barrier cost >> MaxMax cost, growing with length.
// BM_Convex is the strategy as shipped (solve_convex: the exact active
// set), which prices eq. (8) at MaxMax's order of cost — "too slow for a
// block" is a property of the generic solver, not of the program.

#include <benchmark/benchmark.h>

#include <algorithm>

#include "amm/path.hpp"
#include "core/convex.hpp"
#include "core/flow_nlp.hpp"
#include "core/single_start.hpp"
#include "graph/cycle.hpp"
#include "graph/token_graph.hpp"
#include "market/price_feed.hpp"

namespace {

using namespace arb;

/// A profitable ring of `length` tokens: pool i connects token i to
/// token i+1 with a mild systematic imbalance so the loop product > 1.
struct RingMarket {
  graph::TokenGraph graph;
  market::CexPriceFeed prices;
  std::vector<TokenId> tokens;
  std::vector<PoolId> pools;

  explicit RingMarket(std::size_t length) {
    for (std::size_t i = 0; i < length; ++i) {
      tokens.push_back(graph.add_token("T" + std::to_string(i)));
      prices.set_price(tokens.back(), 1.0 + static_cast<double>(i));
    }
    for (std::size_t i = 0; i < length; ++i) {
      // 1.2% price edge per hop: comfortably profitable after fees.
      pools.push_back(graph.add_pool(tokens[i], tokens[(i + 1) % length],
                                     1000.0, 1012.0));
    }
  }

  [[nodiscard]] graph::Cycle cycle() const {
    return *graph::Cycle::create(graph, tokens, pools);
  }
};

/// MaxMax sized the paper's way: bisection on d out/d in = 1 for every
/// rotation, keeping the best monetized profit (the library's MaxMax uses
/// the closed form; this series keeps the paper's method timed).
void BM_MaxMaxBisection(benchmark::State& state) {
  const RingMarket market(static_cast<std::size_t>(state.range(0)));
  const graph::Cycle loop = market.cycle();
  for (auto _ : state) {
    double best = 0.0;
    for (std::size_t offset = 0; offset < loop.length(); ++offset) {
      const auto trade =
          amm::optimize_input_bisection(loop.path(market.graph, offset));
      const double price = *market.prices.price(loop.tokens()[offset]);
      if (trade.ok()) best = std::max(best, price * trade->profit);
    }
    benchmark::DoNotOptimize(best);
  }
}
BENCHMARK(BM_MaxMaxBisection)
    ->Arg(3)->Arg(4)->Arg(6)->Arg(8)->Arg(10)->Arg(12);

void BM_MaxMax(benchmark::State& state) {
  const RingMarket market(static_cast<std::size_t>(state.range(0)));
  const graph::Cycle loop = market.cycle();
  for (auto _ : state) {
    auto outcome = core::evaluate_max_max(market.graph, market.prices, loop);
    benchmark::DoNotOptimize(outcome);
  }
}
BENCHMARK(BM_MaxMax)->Arg(3)->Arg(4)->Arg(6)->Arg(8)->Arg(10)->Arg(12);

void BM_Convex(benchmark::State& state) {
  const RingMarket market(static_cast<std::size_t>(state.range(0)));
  const graph::Cycle loop = market.cycle();
  for (auto _ : state) {
    auto solution = core::solve_convex(market.graph, market.prices, loop);
    benchmark::DoNotOptimize(solution);
  }
}
BENCHMARK(BM_Convex)->Arg(3)->Arg(4)->Arg(6)->Arg(8)->Arg(10)->Arg(12);

void BM_ConvexBarrier(benchmark::State& state) {
  const RingMarket market(static_cast<std::size_t>(state.range(0)));
  const graph::Cycle loop = market.cycle();
  for (auto _ : state) {
    auto instance =
        core::FlowInstance::from_cycle(market.graph, market.prices, loop);
    auto solution = core::solve_flow(*instance);
    benchmark::DoNotOptimize(solution);
  }
}
BENCHMARK(BM_ConvexBarrier)
    ->Arg(3)
    ->Arg(4)
    ->Arg(6)
    ->Arg(8)
    ->Arg(10)
    ->Arg(12);

void BM_MaxPrice(benchmark::State& state) {
  const RingMarket market(static_cast<std::size_t>(state.range(0)));
  const graph::Cycle loop = market.cycle();
  for (auto _ : state) {
    auto outcome =
        core::evaluate_max_price(market.graph, market.prices, loop);
    benchmark::DoNotOptimize(outcome);
  }
}
BENCHMARK(BM_MaxPrice)->Arg(3)->Arg(10);

}  // namespace

BENCHMARK_MAIN();
