#include "sim/replay.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "core/scanner.hpp"
#include "graph/cycle_enumeration.hpp"

namespace arb::sim {
namespace {

/// Exogenous flow: nudges each pool's internal price by a log-normal
/// shock (a fee-free trade by the rest of the market). Reserve-based
/// pools scale their reserves; concentrated positions move their price.
void perturb_pools(graph::TokenGraph& graph, Rng& rng, double sigma) {
  for (const amm::AnyPool& pool : graph.pools()) {
    const double shock = rng.normal(0.0, sigma);
    if (pool.kind() == amm::PoolKind::kConcentrated) {
      const Status moved = graph.mutable_pool(pool.id()).set_concentrated_state(
          pool.concentrated().liquidity(), shocked_price(pool, shock));
      ARB_REQUIRE(moved.ok(), "clamped shock left the position range");
      continue;
    }
    const auto [r0, r1] = shocked_reserves(pool, shock);
    const Status moved = graph.set_pool_reserves(pool.id(), r0, r1);
    ARB_REQUIRE(moved.ok(), "shocked reserves invalid");
  }
}

}  // namespace

std::pair<Amount, Amount> shocked_reserves(const amm::AnyPool& pool,
                                           double shock) {
  // Scale reserves (r0·s, r1/s): price moves by s², k unchanged on a CPMM.
  // The log shock is clamped so an extreme sigma cannot overflow one side
  // to inf (or underflow it to a subnormal) — set_pool_reserves would
  // reject the result and abort the whole replay.
  const double s = std::exp(std::clamp(shock, -600.0, 600.0) / 2.0);
  return {pool.reserve0() * s, pool.reserve1() / s};
}

double shocked_price(const amm::AnyPool& pool, double shock) {
  const amm::ConcentratedPool& clp = pool.concentrated();
  const double margin = 1e-6 * (std::log(clp.p_hi()) - std::log(clp.p_lo()));
  const double log_price =
      std::clamp(std::log(clp.price()) + shock, std::log(clp.p_lo()) + margin,
                 std::log(clp.p_hi()) - margin);
  return std::exp(log_price);
}

Result<ReplayResult> run_replay(const market::MarketSnapshot& snapshot,
                                const ReplayConfig& config) {
  if (Status valid = core::check_loop_strategy(config.strategy); !valid) {
    return valid.error();
  }
  market::MarketSnapshot market = snapshot;  // working copy
  Rng rng(config.seed);
  std::optional<market::PriceProcess> process;
  if (config.use_price_process) {
    process.emplace(market, config.price_process, config.seed);
  }
  const ExecutionEngine engine;
  core::ConvexContext ctx;
  ReplayResult result;

  for (std::size_t block = 0; block < config.blocks; ++block) {
    if (process.has_value()) {
      process->step(market);
    } else {
      perturb_pools(market.graph, rng, config.block_noise_sigma);
    }

    BlockResult row;
    row.block = block;

    auto cycles = graph::enumerate_fixed_length_cycles(market.graph,
                                                       config.loop_length);
    auto loops = graph::filter_arbitrage(market.graph, std::move(cycles));
    row.arbitrage_loops = loops.size();

    // Pick the loop with the best strategy profit and execute it.
    double best_usd = 0.0;
    std::optional<core::ArbitragePlan> best_plan;
    for (const graph::Cycle& loop : loops) {
      auto priced = core::price_loop(market.graph, market.prices, loop,
                                     config.strategy, ctx);
      if (!priced) return priced.error();
      if (priced->outcome.monetized_usd > best_usd) {
        best_usd = priced->outcome.monetized_usd;
        best_plan = std::move(priced->plan);
      }
    }

    if (best_plan.has_value() && best_usd > 0.0) {
      row.planned_usd = best_usd;
      auto report = engine.execute(market.graph, market.prices, *best_plan);
      if (!report) return report.error();
      row.realized_usd = report->realized_usd;
      result.total_realized_usd += report->realized_usd;
    }
    result.blocks.push_back(row);
  }
  return result;
}

}  // namespace arb::sim
