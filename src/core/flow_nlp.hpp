#pragma once

/// \file flow_nlp.hpp
/// Flow-form convex program over a directed sub-graph of pool traversals
/// (arXiv 2204.05238 specialized to the venues this repo models) — the
/// one transcription the barrier solver runs, for loops and routes alike.
///
/// An instance is a set of directed edges e (one pool traversal each,
/// with the analytic kernel F_e from core/loop_nlp.hpp) over a set of
/// nodes v (tokens). Decision variables are the edge inputs d_e ≥ 0.
/// Each *constrained* node enforces nonnegative surplus
///
///   Σ_{e out of v} d_e  −  Σ_{e into v} F_e(d_e)  ≤  limit_v
///
/// (limit_v = 0, except the routing source where limit = budget), and
/// the objective maximizes Σ_v w_v · surplus_v, which telescopes to the
/// edge-separable form Σ_e [w_to(e)·F_e(d_e) − w_from(e)·d_e]. With
/// node weights = CEX prices over one cycle this is the paper's eq. (8)
/// with the CPMM constraints substituted (solve_convex builds exactly
/// that instance); with w = 1 at a sink token, 0 elsewhere, and a budget
/// at the source it is the best-execution routing program whose
/// parallel-CPMM special case is the water-filling splitter in
/// core/routing.hpp. Concave objective, convex feasible set — solved by
/// the zero-allocation barrier/SolveWorkspace machinery.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/result.hpp"
#include "core/loop_nlp.hpp"
#include "graph/cycle.hpp"
#include "graph/token_graph.hpp"
#include "market/price_feed.hpp"
#include "optim/barrier_solver.hpp"
#include "optim/problem.hpp"
#include "optim/workspace.hpp"

namespace arb::core {

/// A flow-form problem instance. Build with from_cycle / for_swap, or
/// assemble by hand for custom topologies (tests do).
struct FlowInstance {
  static constexpr std::size_t kNoNode = std::numeric_limits<std::size_t>::max();

  /// Directed edges. Monetization lives in node_weight; FlowProblem
  /// copies each edge's endpoint weights into its `price_in`/`price_out`.
  std::vector<LoopHopData> edges;
  std::vector<std::size_t> edge_from;  ///< node index per edge
  std::vector<std::size_t> edge_to;    ///< node index per edge

  std::vector<TokenId> node_tokens;          ///< node index → token
  std::vector<double> node_weight;           ///< objective weight per node
  std::vector<std::uint8_t> node_constrained;  ///< 1 → surplus constraint

  /// Routing mode: source spends at most `budget`; kNoNode for
  /// arbitrage instances (every node constrained at 0).
  std::size_t source = kNoNode;
  std::size_t sink = kNoNode;
  double budget = 0.0;

  /// Support chains (edge-index sequences tracing the cycle, or each
  /// enumerated path source→sink). Used to build interior starts and to
  /// attribute the solved edge flows back to per-path amounts.
  std::vector<std::vector<std::size_t>> support;

  /// When set, solve_flow re-quotes non-CPMM edge outputs against the
  /// live pools after the solve (plan honesty, matching solve_convex).
  const graph::TokenGraph* graph = nullptr;

  /// One-cycle arbitrage instance: edges = the cycle's hops, every node
  /// constrained, node weights = CEX prices. Fails with kNotFound when
  /// a price is missing.
  [[nodiscard]] static Result<FlowInstance> from_cycle(
      const graph::TokenGraph& graph, const market::CexPriceFeed& prices,
      const graph::Cycle& cycle);

  /// Best-execution instance: spend up to `budget` of token_in across
  /// the given paths (pool-id sequences token_in → token_out), maximize
  /// token_out received. Edges shared between paths (same pool, same
  /// direction) are deduplicated, so overlapping paths draw on one
  /// consistent pool state. Fails with kInvalidArgument on malformed
  /// paths (discontinuous, wrong endpoints, repeated token in a path).
  [[nodiscard]] static Result<FlowInstance> for_swap(
      const graph::TokenGraph& graph, TokenId token_in, TokenId token_out,
      const std::vector<std::vector<PoolId>>& paths, double budget);
};

/// NlpProblem transcription of a (normalized) FlowInstance.
/// Constraint layout: E × (−d_e ≤ 0), then one surplus constraint per
/// constrained node (instance order), then one cap constraint per edge
/// with finite input_cap.
class FlowProblem final : public optim::NlpProblem {
 public:
  explicit FlowProblem(FlowInstance instance);

  [[nodiscard]] std::size_t dimension() const override {
    return instance_.edges.size();
  }
  [[nodiscard]] std::size_t num_inequalities() const override {
    return num_inequalities_;
  }
  [[nodiscard]] double objective(const math::Vector& d) const override;
  [[nodiscard]] math::Vector objective_gradient(
      const math::Vector& d) const override;
  [[nodiscard]] math::Matrix objective_hessian(
      const math::Vector& d) const override;
  [[nodiscard]] double constraint(std::size_t i,
                                  const math::Vector& d) const override;
  [[nodiscard]] math::Vector constraint_gradient(
      std::size_t i, const math::Vector& d) const override;
  [[nodiscard]] math::Matrix constraint_hessian(
      std::size_t i, const math::Vector& d) const override;

  // Allocation-free variants used by the solver fast path.
  void objective_gradient_into(const math::Vector& d,
                               math::Vector& grad) const override;
  void objective_hessian_into(const math::Vector& d,
                              math::Matrix& hess) const override;
  void constraint_gradient_into(std::size_t i, const math::Vector& d,
                                math::Vector& grad) const override;
  void constraint_hessian_into(std::size_t i, const math::Vector& d,
                               math::Matrix& hess) const override;

  [[nodiscard]] const FlowInstance& instance() const { return instance_; }

 private:
  /// One term of a surplus row: +d_e for an edge leaving the node,
  /// −F_e(d_e) for an edge entering it.
  struct RowTerm {
    std::size_t edge;
    bool inflow;
  };

  FlowInstance instance_;
  std::size_t num_inequalities_ = 0;
  /// Surplus rows, flattened: row r's terms are
  /// terms_[row_begin_[r] .. row_begin_[r + 1]), its bound row_limit_[r].
  std::vector<std::size_t> row_begin_;
  std::vector<RowTerm> terms_;
  std::vector<double> row_limit_;
  std::vector<std::size_t> capped_;  ///< edges with finite input_cap
};

/// Solver options: the barrier's. core::ConvexOptions is this type.
struct FlowOptions {
  optim::BarrierOptions barrier;
};

/// Per-thread reusable solver state plus the optional warm-start hook.
/// A context may be reused across instances of any size; buffers grow to
/// the largest problem seen and then stay put, so a steady-state barrier
/// solve allocates nothing in the math layer.
struct FlowContext {
  optim::SolveWorkspace workspace;
  optim::BarrierReport report;

  /// Optional warm-start slot owned by the caller (the streaming runtime
  /// keeps one per tracked cycle). Used on one-cycle instances: when
  /// valid, the previous optimum — stored in RAW token units so it
  /// survives re-normalization — is projected back into the strict
  /// interior and the barrier restarts near the previous final
  /// sharpness. On a successful solve the slot is refreshed with its
  /// terminal state; it is invalidated when the instance turns out to
  /// have no strict interior. Null: always cold-start.
  optim::WarmStart* warm = nullptr;
  bool warm_hit = false;  ///< the last solve ran from the warm slot
};

struct FlowSolution {
  std::vector<double> edge_inputs;   ///< raw token units, per edge
  std::vector<double> edge_outputs;  ///< raw units (non-CPMM re-quoted)
  std::vector<double> node_surplus;  ///< raw units of each node's token
  /// Σ_v w_v · surplus_v: USD profit for arbitrage instances, token_out
  /// received for routing instances.
  double objective = 0.0;
  double duality_gap = 0.0;  ///< barrier m/t certificate, objective units
  int iterations = 0;        ///< Newton iterations
  /// The zero flow is the answer without a barrier solve: no profitable
  /// chain, a zero budget, or an arbitrage instance with no strict
  /// interior.
  bool trivial = false;
};

/// Solves a flow instance: normalization (per-node units + objective
/// scale), a start point (warm projection, else the Möbius-proxy
/// marginal-flow interior start, else phase-I), the barrier solve
/// through ctx's workspace — retried cold when a warm start fails to
/// center — and denormalization + non-CPMM re-quote. Fails with
/// kInvalidArgument on malformed instances or degenerate edge state,
/// kInfeasible on a tick-pinned edge or a routing instance without a
/// strict interior, and kNumericFailure when the barrier breaks down.
[[nodiscard]] Result<FlowSolution> solve_flow(const FlowInstance& instance,
                                              const FlowOptions& options,
                                              FlowContext& ctx);

/// Convenience overload with a fresh context.
[[nodiscard]] Result<FlowSolution> solve_flow(const FlowInstance& instance,
                                              const FlowOptions& options = {});

/// Per-support-chain attribution of a solved routing instance: how much
/// of the source budget each path spends and how much sink output it
/// delivers. Exact for edge-disjoint paths; proportional flow
/// decomposition where paths share edges.
struct PathAttribution {
  std::vector<double> inputs;   ///< per support chain, source token units
  std::vector<double> outputs;  ///< per support chain, sink token units
};
[[nodiscard]] PathAttribution attribute_support(const FlowInstance& instance,
                                                const FlowSolution& solution);

}  // namespace arb::core
