#include "core/analysis.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "amm/any_pool.hpp"
#include "common/error.hpp"

namespace arb::core {

Result<LoopDiagnostics> analyze_loop(
    const graph::TokenGraph& graph, const market::CexPriceFeed& prices,
    const graph::Cycle& cycle, const std::vector<StrategyOutcome>& rotations) {
  ARB_REQUIRE(rotations.size() == cycle.length(),
              "analyze_loop needs one outcome per rotation");
  LoopDiagnostics diag;
  diag.length = cycle.length();
  diag.price_product = cycle.price_product(graph);
  diag.log_margin = std::log(diag.price_product);

  // Pool TVLs at CEX prices.
  diag.bottleneck_tvl_usd = std::numeric_limits<double>::infinity();
  for (const PoolId pool_id : cycle.pools()) {
    const amm::AnyPool& pool = graph.pool(pool_id);
    double tvl = 0.0;
    for (const TokenId token : {pool.token0(), pool.token1()}) {
      auto price = prices.price(token);
      if (!price) return price.error();
      tvl += *price * pool.reserve_of(token);
    }
    diag.loop_tvl_usd += tvl;
    diag.bottleneck_tvl_usd = std::min(diag.bottleneck_tvl_usd, tvl);
  }

  // Best rotation (MaxMax) for profit; rotation 0 for sizing.
  diag.best_profit_usd =
      std::max_element(rotations.begin(), rotations.end(),
                       [](const StrategyOutcome& a, const StrategyOutcome& b) {
                         return a.monetized_usd < b.monetized_usd;
                       })
          ->monetized_usd;
  diag.optimal_input = rotations.front().input;
  diag.input_to_reserve_ratio =
      diag.optimal_input / graph.pool(cycle.pools()[0]).reserve_of(
                               cycle.tokens()[0]);
  diag.profit_per_tvl =
      diag.loop_tvl_usd > 0.0 ? diag.best_profit_usd / diag.loop_tvl_usd
                              : 0.0;
  return diag;
}

}  // namespace arb::core
