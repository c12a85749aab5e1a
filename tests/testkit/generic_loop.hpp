#pragma once

/// \file generic_loop.hpp
/// Derivative-free loop oracle for differential tests: eq. (8) sized by
/// core::solve_generic_convex over the pools' own quotes. It shares
/// neither the barrier solver nor the analytic hop kernels with
/// solve_convex's barrier route, so agreement between the two is
/// evidence rather than self-comparison.

#include <algorithm>
#include <vector>

#include "amm/any_pool.hpp"
#include "amm/generic_path.hpp"
#include "common/result.hpp"
#include "core/generic_convex.hpp"
#include "graph/cycle.hpp"
#include "graph/token_graph.hpp"
#include "market/price_feed.hpp"
#include "optim/workspace.hpp"

namespace arb::testkit {

/// Generic-solver optimum of `cycle` (profit_usd is the monetized
/// profit), seeded at 1e-3 of the first hop's input-side depth like
/// solve_convex's generic rung. Fails with kNotFound on a missing price.
inline Result<core::GenericConvexReport> solve_loop_generic(
    const graph::TokenGraph& graph, const market::CexPriceFeed& prices,
    const graph::Cycle& cycle, optim::SolveWorkspace& workspace) {
  std::vector<core::GenericHop> hops;
  for (std::size_t i = 0; i < cycle.length(); ++i) {
    auto price = prices.price(cycle.tokens()[i]);
    if (!price) return price.error();
    hops.push_back(core::GenericHop{
        amm::swap_fn(graph.pool(cycle.pools()[i]), cycle.tokens()[i]),
        *price});
  }
  core::GenericConvexOptions options;
  options.initial_scale = std::max(
      options.initial_scale,
      1e-3 * graph.pool(cycle.pools()[0]).reserve_of(cycle.tokens()[0]));
  return core::solve_generic_convex(hops, options, workspace);
}

}  // namespace arb::testkit
