#include "core/routing.hpp"

#include <algorithm>
#include <unordered_set>

#include "amm/any_pool.hpp"
#include "amm/generic_path.hpp"
#include "amm/path.hpp"
#include "common/error.hpp"
#include "core/flow_nlp.hpp"
#include "math/scalar_solve.hpp"

namespace arb::core {
namespace {

/// The water-filling core: λ-bisection over composed Möbius maps (the
/// all-CPMM, edge-disjoint case of optimal_route_split).
Result<RouteSplit> water_filling_split(
    const std::vector<amm::MobiusCoefficients>& maps, double budget,
    double tolerance) {
  double best_zero_rate = 0.0;
  for (const auto& m : maps) {
    best_zero_rate = std::max(best_zero_rate, m.rate_at_zero());
  }

  RouteSplit split;
  split.inputs.assign(maps.size(), 0.0);
  split.outputs.assign(maps.size(), 0.0);
  if (budget == 0.0) {
    split.marginal_rate = best_zero_rate;
    return split;
  }

  // Path p's input at common marginal rate λ is its Möbius map's
  // optimum against λ, d_p(λ) = argmax G_p(d) − λ·d (0 once its zero-size
  // rate is below λ). Σ_p d_p(λ) is continuous and strictly decreasing
  // on (0, best_rate], from +∞ to 0; bisect for the λ matching the
  // budget. The halving
  // search maintains total(hi) < budget ≤ total(lo), so the bracket is
  // [λ, 2λ] and a tolerance *relative to lo* resolves λ to the same
  // relative precision at every budget scale (the old absolute-on-λ
  // criterion stalled at the iteration cap for large budgets, where λ*
  // is many orders below the zero-size rate).
  const auto total_input_minus_budget = [&](double lambda) {
    double total = 0.0;
    for (const auto& m : maps) total += m.optimal_input(lambda);
    return total - budget;
  };
  double hi = best_zero_rate;
  double lo = 0.5 * hi;
  while (total_input_minus_budget(lo) < 0.0) {
    hi = lo;
    lo *= 0.5;
    if (lo < 1e-300) {
      return make_error(ErrorCode::kNumericFailure,
                        "route split bisection underflow");
    }
  }
  math::ScalarSolveOptions options;
  options.x_tolerance = tolerance * lo;
  auto root = math::bisect_root(total_input_minus_budget, lo, hi, options);
  if (!root) return root.error();

  split.marginal_rate = root->x;
  split.iterations = root->iterations;
  double allocated = 0.0;
  for (std::size_t p = 0; p < maps.size(); ++p) {
    split.inputs[p] = maps[p].optimal_input(split.marginal_rate);
    allocated += split.inputs[p];
  }
  // Bisection leaves a residual vs the exact budget; scale it away so
  // the split spends exactly the budget (scaling is feasible and the
  // objective is insensitive at first order).
  if (allocated > 0.0) {
    const double scale = budget / allocated;
    for (double& d : split.inputs) d *= scale;
  }
  for (std::size_t p = 0; p < maps.size(); ++p) {
    split.outputs[p] = maps[p].evaluate(split.inputs[p]);
    split.total_output += split.outputs[p];
  }
  return split;
}

}  // namespace

Result<RouteSplit> optimal_route_split(
    const graph::TokenGraph& graph, TokenId token_in, TokenId token_out,
    const std::vector<std::vector<PoolId>>& paths, double budget,
    FlowContext& ctx, double tolerance) {
  // for_swap validates topology (continuity, endpoints, simple paths)
  // and dedups shared (pool, direction) edges.
  auto instance =
      FlowInstance::for_swap(graph, token_in, token_out, paths, budget);
  if (!instance) return instance.error();

  bool mixed = false;
  for (const LoopHopData& edge : instance->edges) {
    mixed |= edge.kind != HopKind::kCpmm;
  }
  // Water-filling treats paths as independent: valid only when no two
  // paths draw on the same edge.
  std::unordered_set<std::size_t> used;
  bool disjoint = true;
  for (const auto& chain : instance->support) {
    for (std::size_t e : chain) disjoint &= used.insert(e).second;
  }

  if (!mixed && disjoint) {
    std::vector<amm::MobiusCoefficients> maps;
    maps.reserve(instance->support.size());
    for (const auto& chain : instance->support) {
      amm::MobiusCoefficients m = amm::MobiusCoefficients::identity();
      for (std::size_t e : chain) {
        const LoopHopData& hop = instance->edges[e];
        m = m.then_hop(hop.reserve_in, hop.reserve_out, hop.gamma);
      }
      maps.push_back(m);
    }
    return water_filling_split(maps, budget, tolerance);
  }

  FlowOptions options;
  auto solution = solve_flow(*instance, options, ctx);
  if (!solution) return solution.error();
  const PathAttribution attribution = attribute_support(*instance, *solution);

  RouteSplit split;
  split.inputs = attribution.inputs;
  split.outputs = attribution.outputs;
  split.total_output = solution->objective;
  split.iterations = solution->iterations;
  split.used_flow_solver = true;
  split.duality_gap = solution->duality_gap;
  // Marginal rate: the best chain-marginal product at the solved flows
  // (at the optimum every funded chain attains it, mirroring the
  // water-filling λ).
  for (const auto& chain : instance->support) {
    double rate = 1.0;
    for (std::size_t e : chain) {
      rate *= instance->edges[e].swap_deriv(solution->edge_inputs[e]);
    }
    split.marginal_rate = std::max(split.marginal_rate, rate);
  }
  return split;
}

Result<RouteSplit> optimal_route_split(
    const graph::TokenGraph& graph, TokenId token_in, TokenId token_out,
    const std::vector<std::vector<PoolId>>& paths, double budget,
    double tolerance) {
  FlowContext ctx;
  return optimal_route_split(graph, token_in, token_out, paths, budget, ctx,
                             tolerance);
}

Result<double> best_single_path_output(
    const graph::TokenGraph& graph, TokenId token_in, TokenId token_out,
    const std::vector<std::vector<PoolId>>& paths, double budget) {
  // Reuse for_swap purely as the path validator.
  auto instance =
      FlowInstance::for_swap(graph, token_in, token_out, paths, budget);
  if (!instance) return instance.error();
  double best = 0.0;
  for (const std::vector<PoolId>& path : paths) {
    double amount = budget;
    TokenId cur = token_in;
    for (PoolId id : path) {
      const amm::AnyPool& pool = graph.pool(id);
      amount = pool.quote(cur, amount).amount_out;
      cur = pool.other(cur);
    }
    best = std::max(best, amount);
  }
  return best;
}

}  // namespace arb::core
