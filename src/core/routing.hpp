#pragma once

/// \file routing.hpp
/// Optimal order splitting across parallel swap paths.
///
/// The paper's related work (Danos et al., "Global order routing on
/// exchange networks") treats routing as a convex program; for CPMM
/// paths the specific structure collapses to water-filling. Every path
/// composes to a Möbius map out_p(d) = a_p·d/(b_p + c_p·d) with marginal
/// rate a_p·b_p/(b_p + c_p·d)², strictly decreasing in d. At the optimum
/// of
///
///   maximize Σ_p out_p(d_p)   s.t.  Σ_p d_p = budget, d_p >= 0,
///
/// every funded path runs at a common marginal rate λ, and
/// d_p(λ) = (√(a_p·b_p/λ) − b_p)/c_p clamped at 0 — so the whole split
/// reduces to a 1-D bisection on λ. Exact, no NLP solver required (the
/// tests cross-check against the barrier solver anyway).
///
/// Paths are pool-id sequences over a TokenGraph, so the same interface
/// covers mixed-venue and pool-sharing path sets: all-CPMM edge-disjoint
/// inputs take the water-filling special case, everything else delegates
/// to the flow-form barrier program (core/flow_nlp.hpp).

#include <vector>

#include "common/result.hpp"
#include "common/types.hpp"
#include "core/flow_nlp.hpp"
#include "graph/token_graph.hpp"

namespace arb::core {

struct RouteSplit {
  /// Input allocated to each path (same order as the input list).
  std::vector<double> inputs;
  /// Output delivered by each path (same order).
  std::vector<double> outputs;
  /// Total output across paths.
  double total_output = 0.0;
  /// The common marginal rate λ at the optimum (for the flow route: the
  /// best chain-marginal product at the solved flows).
  double marginal_rate = 0.0;
  int iterations = 0;
  /// The split came from the flow-form barrier solve rather than the
  /// water-filling closed form.
  bool used_flow_solver = false;
  /// Barrier m/t certificate (0 for the water-filling route).
  double duality_gap = 0.0;
};

/// Splits `budget` of token_in across `paths` (pool-id sequences
/// token_in → token_out over the graph) to maximize the total output of
/// token_out. All-CPMM, edge-disjoint path sets reduce to the
/// water-filling bisection; any StableSwap/concentrated hop — or paths
/// sharing a (pool, direction) edge — routes through the flow-form
/// barrier program, with per-path amounts recovered by support
/// attribution. Fails with kInvalidArgument on an empty, discontinuous or
/// mis-ended path set or a negative budget; budget 0 yields the all-zero
/// split. `tolerance` is *relative*: λ is bisected to tolerance·λ (the
/// bracket from the halving search is [λ, 2λ], so convergence is
/// budget-scale invariant).
[[nodiscard]] Result<RouteSplit> optimal_route_split(
    const graph::TokenGraph& graph, TokenId token_in, TokenId token_out,
    const std::vector<std::vector<PoolId>>& paths, double budget,
    FlowContext& ctx, double tolerance = 1e-12);

/// Convenience overload with a fresh flow context.
[[nodiscard]] Result<RouteSplit> optimal_route_split(
    const graph::TokenGraph& graph, TokenId token_in, TokenId token_out,
    const std::vector<std::vector<PoolId>>& paths, double budget,
    double tolerance = 1e-12);

/// Output of the best *unsplit* route for the same budget (the baseline
/// the ablation bench compares against): evaluates each path hop-by-hop
/// through the pools' own quotes (any venue kind).
[[nodiscard]] Result<double> best_single_path_output(
    const graph::TokenGraph& graph, TokenId token_in, TokenId token_out,
    const std::vector<std::vector<PoolId>>& paths, double budget);

}  // namespace arb::core
