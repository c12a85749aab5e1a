#include "core/convex.hpp"

#include <string>
#include <utility>

#include "common/logging.hpp"
#include "core/active_set.hpp"
#include "core/generic_convex.hpp"
#include "core/single_start.hpp"

namespace arb::core {
namespace {

/// Loops whose price product is within this margin of 1 are declared
/// profitless without invoking a solver (Section IV theorem: when MaxMax
/// finds nothing, Convex finds nothing).
constexpr double kNoArbitrageMargin = 1e-12;

/// Assembles a solution from per-hop amounts (raw token units). Token
/// t_j retains out_{j−1} − in_j, monetized at its CEX price.
ConvexSolution make_solution(const graph::Cycle& cycle,
                             std::vector<double> inputs,
                             std::vector<double> outputs,
                             const std::vector<double>& token_prices) {
  const std::size_t n = cycle.length();
  ConvexSolution solution;
  solution.outcome.kind = StrategyKind::kConvexOptimization;
  solution.outcome.start_token = cycle.tokens().front();
  solution.inputs = std::move(inputs);
  solution.outputs = std::move(outputs);
  for (std::size_t j = 0; j < n; ++j) {
    const double retained =
        solution.outputs[(j + n - 1) % n] - solution.inputs[j];
    solution.outcome.profits.push_back(
        TokenProfit{cycle.tokens()[j], retained});
    solution.outcome.monetized_usd += token_prices[j] * retained;
  }
  return solution;
}

/// Generic route: eq. (8) sized by the derivative-free solver over the
/// pools' own quotes. No duality certificate (the gap reported is 0) and
/// no warm start: its iterates don't map back to the barrier's central
/// path, so a cached warm slot is meaningless afterwards.
Result<ConvexSolution> solve_convex_generic(
    const graph::TokenGraph& graph, const market::CexPriceFeed& prices,
    const graph::Cycle& cycle, const std::vector<double>& token_prices,
    ConvexContext& ctx) {
  ctx.used_generic = true;
  if (ctx.warm) ctx.warm->valid = false;
  auto report = solve_generic_convex(graph, prices, cycle, ctx.workspace);
  if (!report) return report.error();
  ConvexSolution solution =
      make_solution(cycle, std::move(report->inputs),
                    std::move(report->outputs), token_prices);
  solution.outcome.solver_iterations = report->sweeps;
  return solution;
}

/// The ladder past the price-product gate, on the loop's kernels and
/// their segment table. Exact rung: every loop the active set can answer
/// (n ≤ 8, or any n the certificate accepts) takes it; no iterations, no
/// gap, and the warm slot stays as it is for a later barrier solve of the
/// loop.
Result<ConvexSolution> solve_past_gate(const graph::TokenGraph& graph,
                                       const market::CexPriceFeed& prices,
                                       const graph::Cycle& cycle,
                                       SegmentTable& table,
                                       const ConvexOptions& options,
                                       ConvexContext& ctx) {
  if (auto exact = solve_active_set(table, &graph)) {
    ctx.used_active_set = true;
    ctx.certified = exact->certified;
    std::vector<double> token_prices(table.size());
    for (std::size_t j = 0; j < table.size(); ++j) {
      token_prices[j] = table.hops()[j].price_in;
    }
    return make_solution(cycle, std::move(exact->inputs),
                         std::move(exact->outputs), token_prices);
  }

  const bool mixed = !cycle.all_cpmm(graph);
  auto instance = FlowInstance::from_cycle(graph, prices, cycle);
  if (!instance) return instance.error();
  auto flow = solve_flow(*instance, options, ctx);
  if (flow) {
    ConvexSolution solution =
        make_solution(cycle, std::move(flow->edge_inputs),
                      std::move(flow->edge_outputs), instance->node_weight);
    solution.duality_gap_usd = flow->duality_gap;
    solution.outcome.solver_iterations = flow->iterations;
    ARB_LOG_DEBUG("convex solve: profit $" << solution.outcome.monetized_usd
                                           << " gap $"
                                           << solution.duality_gap_usd);
    return solution;
  }
  // State the barrier cannot model — a concentrated hop pinned at its
  // range edge (no strict interior for the cap) or degenerate kernel
  // state (a stable osculating proxy blowing up on a flat curve) — goes
  // to the generic solver's clamped quotes on mixed loops and is an
  // error on CPMM ones.
  if (flow.error().code != ErrorCode::kNumericFailure) {
    if (!mixed) return flow.error();
    return solve_convex_generic(graph, prices, cycle, instance->node_weight,
                                ctx);
  }
  // Last rung of the containment ladder (warm → cold barrier → generic →
  // typed error): the derivative-free generic solver needs no Hessian,
  // so it survives curvature that breaks the barrier's Newton centering.
  ctx.used_fallback = true;
  auto rescued =
      solve_convex_generic(graph, prices, cycle, instance->node_weight, ctx);
  if (rescued) return rescued;
  return make_error(ErrorCode::kNumericFailure,
                    "convex solve failed on loop " + cycle.rotation_key() +
                        ": barrier: " + flow.error().message +
                        "; generic fallback: " + rescued.error().message);
}

}  // namespace

Result<ConvexSolution> solve_convex(const graph::TokenGraph& graph,
                                    const market::CexPriceFeed& prices,
                                    const graph::Cycle& cycle,
                                    const ConvexOptions& options,
                                    ConvexContext& ctx) {
  ctx.warm_hit = false;
  ctx.used_active_set = false;
  ctx.certified = false;
  ctx.used_generic = false;
  ctx.used_fallback = false;
  // Iteration counters stay meaningful even on the analytic early-return
  // paths below, so callers can read ctx.report after any outcome.
  ctx.report.outer_iterations = 0;
  ctx.report.total_newton_iterations = 0;

  const std::size_t n = cycle.length();
  // Theorem (Section IV): no arbitrage under MaxMax ⇒ none under Convex.
  // Detect via the loop price product and skip the solver outright.
  // Negated-comparison form so a NaN product (corrupted reserves) lands
  // here as "no opportunity" instead of falling through to the solver.
  if (!(cycle.price_product(graph) > 1.0 + kNoArbitrageMargin)) {
    // The warm slot is deliberately KEPT. A profitless visit proves the
    // current state has a zero optimum, not that the cached iterate is
    // bad: when the loop swings profitable again the previous interior
    // point is still an excellent restart (the interior projection and
    // strict-feasibility check already guard against a genuinely stale
    // iterate, falling back to cold). Invalidating here is what starved
    // the streaming warm-hit rate — every gated visit forced the next
    // profitable solve cold.
    return make_solution(cycle, std::vector<double>(n, 0.0),
                         std::vector<double>(n, 0.0),
                         std::vector<double>(n, 0.0));
  }

  auto hops = make_hop_data(graph, prices, cycle);
  if (!hops) return hops.error();
  SegmentTable table(*std::move(hops));
  auto solution = solve_past_gate(graph, prices, cycle, table, options, ctx);
  // Whichever rung answered, the active set solved every rotation first
  // (the certificate needs the best one): hand them out with the answer.
  if (solution) {
    if (auto rotations = rotation_outcomes(table)) {
      solution->rotations = *std::move(rotations);
    }
  }
  return solution;
}

Result<ConvexSolution> solve_convex(const graph::TokenGraph& graph,
                                    const market::CexPriceFeed& prices,
                                    const graph::Cycle& cycle,
                                    const ConvexOptions& options) {
  ConvexContext ctx;
  return solve_convex(graph, prices, cycle, options, ctx);
}

Result<StrategyOutcome> evaluate_convex(const graph::TokenGraph& graph,
                                        const market::CexPriceFeed& prices,
                                        const graph::Cycle& cycle,
                                        const ConvexOptions& options) {
  auto solution = solve_convex(graph, prices, cycle, options);
  if (!solution) return solution.error();
  return solution->outcome;
}

}  // namespace arb::core
