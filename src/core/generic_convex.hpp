#pragma once

/// \file generic_convex.hpp
/// The library's derivative-free solver for eq. (8), over black-box hops
/// (StableSwap, concentrated liquidity, CPMM — anything monotone, concave
/// and 0-at-0): a re-parameterized compensated coordinate ascent (head
/// input + forward fractions + constraint-following pair moves, restarted
/// from every rotation anchor). solve_convex runs it on mixed loops the
/// barrier cannot model and as its rescue rung; the differential suites
/// use it as the derivative-free oracle of the active set and the
/// barrier (no shared solver code, and the pools' own quotes instead of
/// the analytic kernels).

#include <vector>

#include "amm/generic_path.hpp"
#include "common/result.hpp"
#include "graph/cycle.hpp"
#include "graph/token_graph.hpp"
#include "market/price_feed.hpp"
#include "optim/workspace.hpp"

namespace arb::core {

/// One hop of a mixed-venue loop: the swap function plus the CEX price
/// of its *input* token (hop i's input token is loop token t_i).
struct GenericHop {
  amm::SwapFn swap;
  double price_in = 0.0;
};

struct GenericConvexOptions {
  /// Scale guess for the single-start optimizer that seeds each anchor
  /// (order of magnitude of a reasonable trade in hop-0 input tokens).
  double initial_scale = 1.0;
};

struct GenericConvexReport {
  std::vector<double> inputs;   ///< optimal d_i per hop
  std::vector<double> outputs;  ///< swap_i(d_i)
  double profit_usd = 0.0;      ///< Σ P_{t_i} · (out_{i−1} − d_i)
  int sweeps = 0;
  bool converged = false;
};

/// Maximizes monetized retained profit over the loop. Preconditions via
/// Result: at least 2 hops, callable swaps, positive prices. Returns the
/// all-zero solution when no rotation holds single-start profit.
///
/// The workspace overload threads the caller's optim::SolveWorkspace
/// through every internal buffer (forward-pass chain, coordinate-sweep
/// fraction vectors), and the rotation anchors index the caller's hop
/// array in place instead of copying it — steady-state solves reuse one
/// set of monotonically-grown buffers. Both overloads compute the exact
/// same arithmetic; the workspace-free one just pays a fresh workspace.
[[nodiscard]] Result<GenericConvexReport> solve_generic_convex(
    const std::vector<GenericHop>& hops, const GenericConvexOptions& options,
    optim::SolveWorkspace& workspace);

[[nodiscard]] Result<GenericConvexReport> solve_generic_convex(
    const std::vector<GenericHop>& hops,
    const GenericConvexOptions& options = {});

/// The loop `cycle` over the pools' own quotes, each hop priced at its
/// input token's CEX price, seeded at 1e-3 of the first hop's input-side
/// depth (anchor tokens()[0]). Fails with kNotFound on a missing price.
[[nodiscard]] Result<GenericConvexReport> solve_generic_convex(
    const graph::TokenGraph& graph, const market::CexPriceFeed& prices,
    const graph::Cycle& cycle, optim::SolveWorkspace& workspace);

}  // namespace arb::core
