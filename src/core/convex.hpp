#pragma once

/// \file convex.hpp
/// The paper's Convex Optimization strategy (Section IV, eq. 8): relax
/// flow conservation to inequalities so profit may be retained in any
/// token of the loop, and solve the resulting convex program — exactly
/// by the active-set solver (core/active_set.hpp), or as the one-cycle
/// instance of core/flow_nlp.hpp with the barrier interior-point solver.

#include <vector>

#include "common/result.hpp"
#include "core/flow_nlp.hpp"
#include "core/outcome.hpp"
#include "graph/cycle.hpp"
#include "graph/token_graph.hpp"
#include "market/price_feed.hpp"

namespace arb::core {

/// The strategy's options are the flow solver's: the barrier settings.
using ConvexOptions = FlowOptions;

/// Per-thread reusable solver state for solve_convex: the flow solver's
/// workspace, report and warm-start slot (used on the barrier rung only),
/// plus which rung of the ladder produced the answer (valid after
/// solve_convex returns).
struct ConvexContext : FlowContext {
  bool used_active_set = false;  ///< the active-set solver answered exactly
  /// With used_active_set: the MaxMax trade passed the KKT certificate,
  /// so it is the Convex optimum and nothing was enumerated.
  bool certified = false;
  bool used_generic = false;     ///< the generic solver produced the answer
  /// The barrier failed even from a cold start and the derivative-free
  /// generic solver rescued the solve — the last rung of the containment
  /// ladder (warm → cold barrier → generic → typed error). Feeds the
  /// runtime's solver_fallbacks metric.
  bool used_fallback = false;
};

/// Solution detail beyond the common StrategyOutcome.
struct ConvexSolution {
  StrategyOutcome outcome;
  /// Optimal input per hop (d_i, raw units of token t_i).
  std::vector<double> inputs;
  /// Output per hop at d_i (non-CPMM hops re-quoted from their pools).
  std::vector<double> outputs;
  /// Certified duality gap from the barrier solver (USD); 0 when the
  /// active set answered (its answer is exact).
  double duality_gap_usd = 0.0;
  /// The loop's n single-start trades (rotation order, as
  /// evaluate_all_rotations returns them), read off the segment table
  /// the active set filled on the way to this answer — whichever rung
  /// gave it. Empty when the price-product gate answered (no table is
  /// built) or the table could not be read (degenerate or non-finite).
  std::vector<StrategyOutcome> rotations;
};

/// Runs the Convex Optimization strategy on a loop. The rotation anchor
/// is tokens()[0]; the optimum is rotation-invariant (tested).
///
/// Ladder: a loop whose price product does not clear 1 is profitless
/// without a solve (Section IV theorem; the warm slot is kept). The
/// active-set solver (core/active_set.hpp) then answers every loop of up
/// to kActiveSetMaxEnumerated hops, of any venue mix, and any longer loop
/// whose MaxMax trade passes its KKT certificate — exactly, with zero
/// iterations and gap. Only the rest (uncertified loops longer than
/// that) is FlowInstance::from_cycle solved by solve_flow (warm → cold →
/// phase-I → zero when no strict interior exists). The derivative-free
/// generic solver (core/generic_convex.hpp) answers mixed loops the
/// barrier cannot model (a concentrated hop pinned at a range edge,
/// degenerate kernel state) and rescues any barrier failure. ctx reports
/// which rung ran; the active set leaves the warm slot as it is, and the
/// generic solver invalidates it (its optimum does not map back to the
/// barrier's central path). Past the gate the loop's segment table is
/// built once: the active set solves its rotations on the way, and they
/// come back in ConvexSolution::rotations.
[[nodiscard]] Result<ConvexSolution> solve_convex(
    const graph::TokenGraph& graph, const market::CexPriceFeed& prices,
    const graph::Cycle& cycle, const ConvexOptions& options = {});

/// Context variant: identical numerics when ctx.warm is null (the
/// plain overload delegates here with a fresh context); with a valid
/// warm slot the solve may start from the previous optimum.
[[nodiscard]] Result<ConvexSolution> solve_convex(
    const graph::TokenGraph& graph, const market::CexPriceFeed& prices,
    const graph::Cycle& cycle, const ConvexOptions& options,
    ConvexContext& ctx);

/// Convenience wrapper returning only the StrategyOutcome.
[[nodiscard]] Result<StrategyOutcome> evaluate_convex(
    const graph::TokenGraph& graph, const market::CexPriceFeed& prices,
    const graph::Cycle& cycle, const ConvexOptions& options = {});

}  // namespace arb::core
