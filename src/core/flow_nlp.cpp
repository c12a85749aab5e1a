#include "core/flow_nlp.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "amm/any_pool.hpp"
#include "amm/path.hpp"
#include "common/error.hpp"
#include "optim/phase1.hpp"

namespace arb::core {
namespace {

/// Whisker of output retained at each hop of a constructed interior
/// start, keeping every surplus constraint strictly slack.
constexpr double kRetention = 1e-9;

/// Barrier sharpness for warm restarts, expressed as the duality gap
/// (normalized objective units) the restart t certifies: t₀ = m / gap.
/// After a reserve perturbation of relative size δ the old optimum is
/// O(δ²) suboptimal, so resuming sharper than this wedges the first
/// centering against the perturbed boundary (Newton crawls and the m/t
/// certificate goes stale). 3e-2 absorbs reserve moves up to a few
/// percent — including loops hugging the profitability boundary, whose
/// projected restarts sit closest to the constraints and stall first —
/// at the cost of roughly one extra μ-step versus a sharper resume; it
/// is what holds the streaming warm-hit rate above 80%. The restart t
/// is additionally capped at one μ-step below the previous terminal
/// sharpness and floored at barrier.initial_t.
constexpr double kWarmRestartGap = 3e-2;

/// Gap tolerance for warm-started solves (normalized units: relative to
/// the instance's objective scale). The cold certificate chases
/// barrier.gap_tolerance (1e-9); a warm resume stops its μ-climb at this
/// looser — still economically irrelevant — gap, saving the last few
/// outer iterations. Never tighter than barrier.gap_tolerance.
constexpr double kWarmGapTolerance = 1e-6;

/// Outer μ for warm resumes. A cold climb keeps μ moderate because an
/// off-center iterate at freshly-raised t makes centerings expensive; a
/// warm resume starts next to the optimum, so each centering lands in a
/// few Newton steps even across 100x jumps in sharpness.
constexpr double kWarmMu = 1000.0;

/// Normalization basis of an edge at its endpoints: the physical reserve
/// the kernel's curvature lives on (stable kernels evaluate in raw units
/// through unit_in/out; everything else on the stored reserves).
double edge_basis_from(const LoopHopData& e) {
  return e.kind == HopKind::kStable ? e.stable_x0 : e.reserve_in;
}
double edge_basis_to(const LoopHopData& e) {
  return e.kind == HopKind::kStable ? e.stable_y0 : e.reserve_out;
}

/// Möbius-proxy composition of a support chain, entered at its
/// `first`-th edge (a rotation, for cycle chains). Exact for CPMM edges,
/// osculating proxy otherwise — the sign of the marginal product at 0 is
/// exact either way.
amm::MobiusCoefficients chain_mobius(const FlowInstance& inst,
                                     const std::vector<std::size_t>& chain,
                                     std::size_t first = 0) {
  amm::MobiusCoefficients m = amm::MobiusCoefficients::identity();
  for (std::size_t k = 0; k < chain.size(); ++k) {
    const LoopHopData& hop = inst.edges[chain[(first + k) % chain.size()]];
    m = m.then_hop(hop.reserve_in, hop.reserve_out, hop.gamma);
  }
  return m;
}

[[nodiscard]] bool chain_is_cycle(const FlowInstance& inst,
                                  const std::vector<std::size_t>& chain) {
  return !chain.empty() &&
         inst.edge_from[chain.front()] == inst.edge_to[chain.back()];
}

struct NormalizedFlow {
  FlowInstance instance;          ///< units folded into edges/weights/budget
  std::vector<double> node_unit;  ///< raw tokens per normalized unit
  double scale = 1.0;             ///< objective units per normalized unit
};

/// Makes the barrier solve scale-invariant. Changing the unit of node
/// v's token by u_v (amounts ÷ u_v, weights × u_v) is an exact symmetry
/// of the program; u_v = the largest input-side reserve among v's
/// out-edges — the pools its decision variables draw on, so each edge
/// input is O(1) relative to its own kernel's curvature — plus a common
/// objective rescale brings every quantity to O(1) whether reserves are
/// 1e-3 or 1e9, so the interior-point tolerances mean the same thing at
/// every market scale. A node without out-edges (a routing sink) takes
/// its largest in-edge output reserve. The objective scale is the best
/// Möbius-proxy estimate over the support chains, so the normalized
/// optimum is ~1 and the duality gap means *relative* accuracy.
NormalizedFlow normalize_flow(const FlowInstance& inst) {
  NormalizedFlow nf{inst, {}, 1.0};
  const std::size_t num_nodes = inst.node_tokens.size();
  nf.node_unit.assign(num_nodes, 0.0);
  std::vector<double> inflow_unit(num_nodes, 0.0);
  for (std::size_t e = 0; e < inst.edges.size(); ++e) {
    double& out = nf.node_unit[inst.edge_from[e]];
    out = std::max(out, edge_basis_from(inst.edges[e]));
    double& in = inflow_unit[inst.edge_to[e]];
    in = std::max(in, edge_basis_to(inst.edges[e]));
  }
  for (std::size_t v = 0; v < num_nodes; ++v) {
    double& u = nf.node_unit[v];
    if (!(u > 0.0)) u = inflow_unit[v];
    if (!(u > 0.0) || !std::isfinite(u)) u = 1.0;
  }

  FlowInstance& n = nf.instance;
  for (std::size_t e = 0; e < n.edges.size(); ++e) {
    LoopHopData& hop = n.edges[e];
    const double u_in = nf.node_unit[n.edge_from[e]];
    const double u_out = nf.node_unit[n.edge_to[e]];
    hop.reserve_in /= u_in;
    hop.reserve_out /= u_out;
    hop.unit_in = u_in;
    hop.unit_out = u_out;
    hop.input_cap /= u_in;  // +inf stays +inf
  }
  if (n.source != FlowInstance::kNoNode) n.budget /= nf.node_unit[n.source];

  // Per chain, on the raw instance (objective units): a cycle's profit
  // at the proxy optimum of its best rotation, monetized at that
  // rotation's head (anchoring on a start token that is nearly
  // worthless would shrink the scale); a path's proxy output of the
  // full budget, monetized at its tail.
  double est = 0.0;
  for (const auto& chain : inst.support) {
    if (chain.empty()) continue;
    if (chain_is_cycle(inst, chain)) {
      for (std::size_t r = 0; r < chain.size(); ++r) {
        const amm::MobiusCoefficients m = chain_mobius(inst, chain, r);
        const double a = m.optimal_input();
        if (a > 0.0) {
          const std::size_t head = inst.edge_from[chain[r]];
          est = std::max(est, inst.node_weight[head] * (m.evaluate(a) - a));
        }
      }
    } else if (inst.budget > 0.0) {
      const std::size_t tail = inst.edge_to[chain.back()];
      est = std::max(est, inst.node_weight[tail] *
                              chain_mobius(inst, chain).evaluate(inst.budget));
    }
  }
  if (!(est > 0.0) || !std::isfinite(est)) {
    for (std::size_t v = 0; v < num_nodes; ++v) {
      est = std::max(est, inst.node_weight[v] * nf.node_unit[v]);
    }
  }
  if (!(est > 0.0) || !std::isfinite(est)) est = 1.0;
  nf.scale = est;
  for (std::size_t v = 0; v < num_nodes; ++v) {
    n.node_weight[v] = inst.node_weight[v] * nf.node_unit[v] / nf.scale;
  }
  return nf;
}

/// Strictly feasible start for a normalized instance: marginal flows fed
/// along each support chain with per-hop retention, scale halved until
/// the whole point clears every constraint strictly.
Result<math::Vector> flow_interior_start(const FlowProblem& problem,
                                         const std::vector<double>& seeds) {
  const FlowInstance& inst = problem.instance();
  const std::size_t num_edges = inst.edges.size();
  double scale = 1.0;
  for (int attempt = 0; attempt < 80; ++attempt, scale *= 0.5) {
    math::Vector d(num_edges);
    d.assign(num_edges, 0.0);
    bool positive = true;
    for (std::size_t c = 0; c < inst.support.size() && positive; ++c) {
      if (!(seeds[c] > 0.0)) continue;
      double a = seeds[c] * scale;
      for (std::size_t e : inst.support[c]) {
        const double before = inst.edges[e].swap(d[e]);
        d[e] += a;
        a = (inst.edges[e].swap(d[e]) - before) * (1.0 - kRetention);
        if (!(a > 0.0) || !std::isfinite(a)) {
          positive = false;
          break;
        }
      }
    }
    // Marginal outputs underflowed: halving only makes it worse.
    if (!positive) break;
    if (problem.strictly_feasible(d)) return d;
  }
  return make_error(ErrorCode::kInfeasible,
                    "could not construct strictly feasible flow start");
}

/// Projects a previous optimum back into the strict interior of a
/// one-cycle instance after a reserve perturbation. At a convex optimum
/// every intermediate surplus constraint along the cycle is tight
/// (forwarding more through a monotone F is always better), so the
/// stored iterate is — up to the perturbation δ — the tight chain
/// d_{k+1} = F_k(d_k) grown from its own first component. The
/// projection rebuilds exactly that chain on the perturbed pools,
/// anchored at a₀ = min(d₀, ¾·Δ̄) where Δ̄ is the loop's break-even input
/// (the fixed point of the whole-loop Möbius map G; the cap keeps the
/// anchor interior when the perturbation pushed d₀ past break-even).
/// Each link is shaved by
///   ε = min(margin, 1 − (a₀/G(a₀))^{1/2n}),
/// which makes every surplus constraint strict while provably preserving
/// wrap slack: concavity of each F through the origin gives
/// F_{n−1}(d_{n−1}) ≥ (1−ε)^{n−1}·G(a₀) > a₀ because
/// (1−ε)^{2n} ≥ a₀/G(a₀). Scaling ε with the loop's own profitability is
/// what earlier margin-first schemes missed: a fixed shave larger than
/// the wrap slack leaves a barely-profitable loop with NO margin-
/// feasible point at all, cold-starting exactly the flickering loops
/// warm restarts are for. Returns false — caller cold-starts — when the
/// anchor is non-positive or the perturbed loop is numerically
/// profitless end-to-end.
bool project_interior(const FlowInstance& inst,
                      const std::vector<std::size_t>& chain, math::Vector& d,
                      double margin) {
  const std::size_t n = chain.size();
  const LoopHopData& first = inst.edges[chain[0]];
  if (!(d[chain[0]] > 0.0) || !std::isfinite(d[chain[0]])) return false;
  const amm::MobiusCoefficients loop = chain_mobius(inst, chain);
  // G(Δ) = aΔ/(b+cΔ); profitable loops have a > b, break-even (a−b)/c.
  if (!(loop.a > loop.b) || !(loop.c > 0.0)) return false;
  const double break_even = (loop.a - loop.b) / loop.c;
  // The anchor must also clear the first edge's tick cap (min with +inf
  // is the identity on CPMM/stable edges).
  const double anchor = std::min(std::min(d[chain[0]], 0.75 * break_even),
                                 0.9 * first.input_cap);
  const double gain = loop.evaluate(anchor);
  if (!(anchor > 0.0) || !(gain > anchor)) return false;
  const double shave = std::min(
      margin,
      1.0 - std::pow(anchor / gain, 1.0 / (2.0 * static_cast<double>(n))));
  if (!(shave > 0.0)) return false;
  d[chain[0]] = anchor;
  for (std::size_t k = 0; k + 1 < n; ++k) {
    const std::size_t e = chain[k];
    const std::size_t next = chain[k + 1];
    d[next] = inst.edges[e].swap(d[e]) * (1.0 - shave);
    if (!(d[next] > 0.0)) return false;
    // A rebuilt link crossing the next edge's tick cap means the
    // perturbation moved the range edge under the cached iterate: the
    // caller cold-starts (strict feasibility would reject it anyway).
    if (!(d[next] < inst.edges[next].input_cap)) return false;
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// FlowInstance builders
// ---------------------------------------------------------------------------

Result<FlowInstance> FlowInstance::from_cycle(const graph::TokenGraph& graph,
                                              const market::CexPriceFeed& prices,
                                              const graph::Cycle& cycle) {
  const std::size_t n = cycle.length();
  FlowInstance inst;
  inst.graph = &graph;
  inst.node_tokens = cycle.tokens();
  inst.node_weight.resize(n);
  inst.node_constrained.assign(n, 1);
  for (std::size_t i = 0; i < n; ++i) {
    auto price = prices.price(inst.node_tokens[i]);
    if (!price) return price.error();
    inst.node_weight[i] = *price;
  }
  inst.edges.reserve(n);
  inst.edge_from.reserve(n);
  inst.edge_to.reserve(n);
  std::vector<std::size_t> chain(n);
  for (std::size_t i = 0; i < n; ++i) {
    inst.edges.push_back(make_edge_kernel(graph.pool(cycle.pools()[i]),
                                          inst.node_tokens[i],
                                          inst.node_tokens[(i + 1) % n]));
    inst.edge_from.push_back(i);
    inst.edge_to.push_back((i + 1) % n);
    chain[i] = i;
  }
  inst.support.push_back(std::move(chain));
  return inst;
}

Result<FlowInstance> FlowInstance::for_swap(
    const graph::TokenGraph& graph, TokenId token_in, TokenId token_out,
    const std::vector<std::vector<PoolId>>& paths, double budget) {
  if (paths.empty()) {
    return make_error(ErrorCode::kInvalidArgument, "no candidate paths");
  }
  if (token_in == token_out) {
    return make_error(ErrorCode::kInvalidArgument,
                      "swap endpoints must differ");
  }
  if (!(budget >= 0.0) || !std::isfinite(budget)) {
    return make_error(ErrorCode::kInvalidArgument,
                      "budget must be finite and nonnegative");
  }

  FlowInstance inst;
  inst.graph = &graph;
  std::unordered_map<TokenId, std::size_t> node_of;
  const auto node_index = [&](TokenId token) {
    auto [it, inserted] = node_of.try_emplace(token, inst.node_tokens.size());
    if (inserted) inst.node_tokens.push_back(token);
    return it->second;
  };
  // Endpoints first so their indices are stable regardless of path order.
  inst.source = node_index(token_in);
  inst.sink = node_index(token_out);
  inst.budget = budget;

  // Dedup edges by (pool, direction): overlapping paths draw on one
  // consistent pool state through a shared flow variable.
  std::unordered_map<std::uint64_t, std::size_t> edge_of;
  for (const std::vector<PoolId>& path : paths) {
    if (path.empty()) {
      return make_error(ErrorCode::kInvalidArgument, "empty path");
    }
    std::vector<std::size_t> chain;
    chain.reserve(path.size());
    std::unordered_set<TokenId> seen{token_in};
    TokenId cur = token_in;
    for (std::size_t k = 0; k < path.size(); ++k) {
      if (!path[k].valid() || path[k].value() >= graph.pool_count()) {
        return make_error(ErrorCode::kInvalidArgument, "unknown pool in path");
      }
      const amm::AnyPool& pool = graph.pool(path[k]);
      if (!pool.contains(cur)) {
        return make_error(ErrorCode::kInvalidArgument,
                          "path hop does not contain the incoming token");
      }
      const TokenId next = pool.other(cur);
      const bool last = k + 1 == path.size();
      if (last ? next != token_out : !seen.insert(next).second) {
        return make_error(ErrorCode::kInvalidArgument,
                          last ? "path does not end at the target token"
                               : "path revisits a token");
      }
      if (!last && next == token_out) {
        return make_error(ErrorCode::kInvalidArgument,
                          "path passes through the target token");
      }
      const std::uint64_t key =
          (std::uint64_t{path[k].value()} << 32) | cur.value();
      auto [it, inserted] = edge_of.try_emplace(key, inst.edges.size());
      if (inserted) {
        inst.edges.push_back(make_edge_kernel(pool, cur, next));
        inst.edge_from.push_back(node_index(cur));
        inst.edge_to.push_back(node_index(next));
      }
      chain.push_back(it->second);
      cur = next;
    }
    inst.support.push_back(std::move(chain));
  }
  inst.node_weight.assign(inst.node_tokens.size(), 0.0);
  inst.node_weight[inst.sink] = 1.0;
  inst.node_constrained.assign(inst.node_tokens.size(), 1);
  inst.node_constrained[inst.sink] = 0;
  return inst;
}

// ---------------------------------------------------------------------------
// FlowProblem
// ---------------------------------------------------------------------------

FlowProblem::FlowProblem(FlowInstance instance) : instance_(std::move(instance)) {
  const std::size_t num_nodes = instance_.node_tokens.size();
  const std::size_t num_edges = instance_.edges.size();
  ARB_REQUIRE(num_edges >= 1, "flow instance needs at least one edge");
  ARB_REQUIRE(instance_.edge_from.size() == num_edges &&
                  instance_.edge_to.size() == num_edges,
              "edge topology size mismatch");
  ARB_REQUIRE(instance_.node_weight.size() == num_nodes &&
                  instance_.node_constrained.size() == num_nodes,
              "node array size mismatch");
  for (std::size_t e = 0; e < num_edges; ++e) {
    const std::size_t from = instance_.edge_from[e];
    const std::size_t to = instance_.edge_to[e];
    ARB_REQUIRE(from < num_nodes && to < num_nodes && from != to,
                "edge endpoints out of range");
    // Each edge carries its endpoint weights, so the objective reads one
    // record per edge.
    instance_.edges[e].price_in = instance_.node_weight[from];
    instance_.edges[e].price_out = instance_.node_weight[to];
    if (std::isfinite(instance_.edges[e].input_cap)) capped_.push_back(e);
  }
  row_begin_.reserve(num_nodes + 1);
  row_limit_.reserve(num_nodes);
  terms_.reserve(2 * num_edges);
  row_begin_.push_back(0);
  for (std::size_t v = 0; v < num_nodes; ++v) {
    if (!instance_.node_constrained[v]) continue;
    for (std::size_t e = 0; e < num_edges; ++e) {
      if (instance_.edge_from[e] == v) terms_.push_back({e, false});
    }
    for (std::size_t e = 0; e < num_edges; ++e) {
      if (instance_.edge_to[e] == v) terms_.push_back({e, true});
    }
    row_begin_.push_back(terms_.size());
    row_limit_.push_back(v == instance_.source ? instance_.budget : 0.0);
  }
  num_inequalities_ = num_edges + row_limit_.size() + capped_.size();
}

// The evaluators below read d through its buffer: they run dozens of
// times per Newton step, and one size check per call replaces a
// bounds-checked element access per term.

double FlowProblem::objective(const math::Vector& d) const {
  ARB_REQUIRE(d.size() == instance_.edges.size(), "dimension mismatch");
  const math::Vector::Buffer& x = d.data();
  // value = Σ_e [w_to·F_e(d_e) − w_from·d_e]  (telescoped surplus form).
  double value = 0.0;
  for (std::size_t e = 0; e < instance_.edges.size(); ++e) {
    const LoopHopData& hop = instance_.edges[e];
    value += hop.price_out * hop.swap(x[e]) - hop.price_in * x[e];
  }
  return -value;
}

math::Vector FlowProblem::objective_gradient(const math::Vector& d) const {
  math::Vector grad;
  objective_gradient_into(d, grad);
  return grad;
}

math::Matrix FlowProblem::objective_hessian(const math::Vector& d) const {
  math::Matrix hess;
  objective_hessian_into(d, hess);
  return hess;
}

void FlowProblem::objective_gradient_into(const math::Vector& d,
                                          math::Vector& grad) const {
  const std::size_t num_edges = instance_.edges.size();
  ARB_REQUIRE(d.size() == num_edges, "dimension mismatch");
  const math::Vector::Buffer& x = d.data();
  grad.assign(num_edges, 0.0);
  for (std::size_t e = 0; e < num_edges; ++e) {
    const LoopHopData& hop = instance_.edges[e];
    grad[e] = -(hop.price_out * hop.swap_deriv(x[e]) - hop.price_in);
  }
}

void FlowProblem::objective_hessian_into(const math::Vector& d,
                                         math::Matrix& hess) const {
  const std::size_t num_edges = instance_.edges.size();
  ARB_REQUIRE(d.size() == num_edges, "dimension mismatch");
  const math::Vector::Buffer& x = d.data();
  hess.assign(num_edges, num_edges, 0.0);
  for (std::size_t e = 0; e < num_edges; ++e) {
    const LoopHopData& hop = instance_.edges[e];
    hess(e, e) = -hop.price_out * hop.swap_deriv2(x[e]);
  }
}

double FlowProblem::constraint(std::size_t i, const math::Vector& d) const {
  const std::size_t num_edges = instance_.edges.size();
  ARB_REQUIRE(i < num_inequalities_ && d.size() == num_edges,
              "constraint index or dimension out of range");
  const math::Vector::Buffer& x = d.data();
  if (i < num_edges) {
    return -x[i];  // d_e >= 0
  }
  const std::size_t r = i - num_edges;
  if (r < row_limit_.size()) {
    double g = -row_limit_[r];
    for (std::size_t k = row_begin_[r]; k < row_begin_[r + 1]; ++k) {
      const RowTerm& term = terms_[k];
      if (term.inflow) {
        g -= instance_.edges[term.edge].swap(x[term.edge]);
      } else {
        g += x[term.edge];
      }
    }
    return g;
  }
  const std::size_t e = capped_[r - row_limit_.size()];
  return x[e] - instance_.edges[e].input_cap;  // tick cap
}

math::Vector FlowProblem::constraint_gradient(std::size_t i,
                                              const math::Vector& d) const {
  math::Vector grad;
  constraint_gradient_into(i, d, grad);
  return grad;
}

math::Matrix FlowProblem::constraint_hessian(std::size_t i,
                                             const math::Vector& d) const {
  math::Matrix hess;
  constraint_hessian_into(i, d, hess);
  return hess;
}

void FlowProblem::constraint_gradient_into(std::size_t i, const math::Vector& d,
                                           math::Vector& grad) const {
  const std::size_t num_edges = instance_.edges.size();
  ARB_REQUIRE(d.size() == num_edges, "dimension mismatch");
  const math::Vector::Buffer& x = d.data();
  grad.assign(num_edges, 0.0);
  if (i < num_edges) {
    grad[i] = -1.0;
    return;
  }
  const std::size_t r = i - num_edges;
  if (r < row_limit_.size()) {
    for (std::size_t k = row_begin_[r]; k < row_begin_[r + 1]; ++k) {
      const RowTerm& term = terms_[k];
      if (term.inflow) {
        grad[term.edge] -= instance_.edges[term.edge].swap_deriv(x[term.edge]);
      } else {
        grad[term.edge] += 1.0;
      }
    }
    return;
  }
  grad[capped_[r - row_limit_.size()]] = 1.0;
}

void FlowProblem::constraint_hessian_into(std::size_t i, const math::Vector& d,
                                          math::Matrix& hess) const {
  const std::size_t num_edges = instance_.edges.size();
  ARB_REQUIRE(d.size() == num_edges, "dimension mismatch");
  const math::Vector::Buffer& x = d.data();
  hess.assign(num_edges, num_edges, 0.0);
  if (i < num_edges || i - num_edges >= row_limit_.size()) {
    return;  // nonnegativity and cap constraints are linear
  }
  const std::size_t r = i - num_edges;
  for (std::size_t k = row_begin_[r]; k < row_begin_[r + 1]; ++k) {
    const RowTerm& term = terms_[k];
    if (term.inflow) {
      hess(term.edge, term.edge) =
          -instance_.edges[term.edge].swap_deriv2(x[term.edge]);
    }
  }
}

// ---------------------------------------------------------------------------
// solve_flow
// ---------------------------------------------------------------------------

Result<FlowSolution> solve_flow(const FlowInstance& instance,
                                const FlowOptions& options, FlowContext& ctx) {
  ctx.warm_hit = false;
  const std::size_t num_edges = instance.edges.size();
  const std::size_t num_nodes = instance.node_tokens.size();
  if (num_edges == 0) {
    return make_error(ErrorCode::kInvalidArgument, "flow instance has no edges");
  }
  if (instance.edge_from.size() != num_edges ||
      instance.edge_to.size() != num_edges ||
      instance.node_weight.size() != num_nodes ||
      instance.node_constrained.size() != num_nodes) {
    return make_error(ErrorCode::kInvalidArgument,
                      "flow instance arrays are inconsistent");
  }
  const bool routing = instance.source != FlowInstance::kNoNode;
  if (routing &&
      (instance.source >= num_nodes || instance.sink >= num_nodes ||
       !(instance.budget >= 0.0) || !std::isfinite(instance.budget))) {
    return make_error(ErrorCode::kInvalidArgument,
                      "malformed routing source/sink/budget");
  }
  // The interior start only explores support chains, so every edge must
  // lie on one (otherwise its nonnegativity constraint has no interior).
  std::vector<std::uint8_t> covered(num_edges, 0);
  for (const auto& chain : instance.support) {
    for (std::size_t e : chain) {
      if (e >= num_edges) {
        return make_error(ErrorCode::kInvalidArgument,
                          "support chain references unknown edge");
      }
      covered[e] = 1;
    }
  }
  if (std::find(covered.begin(), covered.end(), std::uint8_t{0}) !=
      covered.end()) {
    return make_error(ErrorCode::kInvalidArgument,
                      "every edge must lie on a support chain");
  }
  for (const double w : instance.node_weight) {
    if (!(w >= 0.0) || !std::isfinite(w)) {
      return make_error(ErrorCode::kInvalidArgument,
                        "node weights must be finite and nonnegative");
    }
  }
  for (const LoopHopData& e : instance.edges) {
    const bool sane = std::isfinite(e.reserve_in) && e.reserve_in > 0.0 &&
                      std::isfinite(e.reserve_out) && e.reserve_out > 0.0 &&
                      e.gamma > 0.0 && e.gamma <= 1.0 &&
                      (e.kind != HopKind::kStable ||
                       (std::isfinite(e.stable_x0) && e.stable_x0 > 0.0 &&
                        std::isfinite(e.stable_y0) && e.stable_y0 > 0.0 &&
                        std::isfinite(e.stable_d) && e.stable_d > 0.0));
    if (!sane) {
      return make_error(ErrorCode::kInvalidArgument,
                        "degenerate edge state in flow instance");
    }
    // A concentrated edge pinned at its range boundary admits no input:
    // the cap constraint has no strict interior. Callers drop such
    // edges/paths (the routers do) or handle the error.
    if (!(e.input_cap > 0.0)) {
      return make_error(ErrorCode::kInfeasible,
                        "tick-pinned edge admits no input");
    }
  }

  const auto trivial_solution = [&]() {
    FlowSolution sol;
    sol.edge_inputs.assign(num_edges, 0.0);
    sol.edge_outputs.assign(num_edges, 0.0);
    sol.node_surplus.assign(num_nodes, 0.0);
    sol.trivial = true;
    return sol;
  };
  if (routing && instance.budget == 0.0) return trivial_solution();

  NormalizedFlow nf = normalize_flow(instance);

  // Chain seeds (normalized units of each chain's head token). Cycle
  // chains seed at half their Möbius-proxy optimum — nonpositive means
  // no profitable direction, the zero flow is optimal (the flow-form
  // price-product gate). Path chains split half the budget evenly.
  std::vector<double> seeds(nf.instance.support.size(), 0.0);
  bool any_seed = false;
  for (std::size_t c = 0; c < nf.instance.support.size(); ++c) {
    const auto& chain = nf.instance.support[c];
    if (chain.empty()) continue;
    if (chain_is_cycle(nf.instance, chain)) {
      const double best = chain_mobius(nf.instance, chain).optimal_input();
      if (best > 0.0) {
        seeds[c] = 0.5 * best;
        any_seed = true;
      }
    } else if (nf.instance.budget > 0.0) {
      seeds[c] = 0.5 * nf.instance.budget /
                 static_cast<double>(nf.instance.support.size());
      any_seed = true;
    }
  }
  if (!any_seed) return trivial_solution();

  const FlowProblem problem(std::move(nf.instance));
  const FlowInstance& n = problem.instance();
  // Warm slots serve one-cycle instances: the projection rebuilds the
  // tight chain along the cycle.
  optim::WarmStart* const warm =
      n.support.size() == 1 && chain_is_cycle(n, n.support[0]) ? ctx.warm
                                                                : nullptr;

  // Warm start: re-express the previous optimum (raw token units) in
  // this solve's normalization and push it strictly inside the perturbed
  // feasible set. The restart sharpness certifies a gap of
  // kWarmRestartGap — matching the O(δ²) suboptimality the projected
  // iterate actually has after a δ-perturbation — so the barrier skips
  // most of the μ-climb without wedging the first centering against the
  // moved boundary. The interior margin tracks 1/t₀ (central-path slack
  // at the restart sharpness).
  Status status = Status::success();
  bool warm_used = false;
  if (warm && warm->valid && warm->x.size() == num_edges) {
    optim::BarrierOptions barrier = options.barrier;
    barrier.initial_t = std::max(
        options.barrier.initial_t,
        std::min(static_cast<double>(problem.num_inequalities()) /
                     kWarmRestartGap,
                 warm->t / options.barrier.mu));
    barrier.gap_tolerance =
        std::max(options.barrier.gap_tolerance, kWarmGapTolerance);
    barrier.mu = std::max(options.barrier.mu, kWarmMu);
    const double margin = std::clamp(1.0 / barrier.initial_t, 1e-9, 1e-3);
    math::Vector& start = ctx.workspace.candidate;
    start.resize(num_edges);
    for (std::size_t e = 0; e < num_edges; ++e) {
      start[e] = warm->x[e] / nf.node_unit[instance.edge_from[e]];
    }
    if (project_interior(n, n.support[0], start, margin)) {
      status = optim::BarrierSolver(barrier).solve_into(
          problem, start, ctx.workspace, ctx.report);
      // The barrier rejects a start that is not strictly feasible, and
      // the projected warm iterate can sit close enough to the perturbed
      // boundary that centering breaks down — either as a hard numeric
      // failure or as inner Newton stalls that silently invalidate the
      // m/t certificate. All three cases retry cold.
      warm_used = status.ok() && ctx.report.centerings_converged;
    }
  }
  if (!warm_used) {
    auto start = flow_interior_start(problem, seeds);
    if (!start) {
      // The construction failed although a profitable direction exists:
      // let phase-I search for an interior before giving up.
      optim::Phase1Options phase1;
      phase1.barrier = options.barrier;
      start = optim::find_strictly_feasible(
          problem, math::Vector(num_edges, 0.0), phase1, ctx.workspace);
    }
    if (!start) {
      if (warm) warm->valid = false;
      if (routing) return start.error();
      return trivial_solution();  // no strict interior: zero is optimal
    }
    status = optim::BarrierSolver(options.barrier)
                 .solve_into(problem, *start, ctx.workspace, ctx.report);
  }
  if (!status) return status.error();
  ctx.warm_hit = warm_used;

  // Refresh the warm slot with this solve's terminal state, in raw
  // token units so the cache survives the next re-normalization.
  if (warm) {
    warm->x.resize(num_edges);
    for (std::size_t e = 0; e < num_edges; ++e) {
      warm->x[e] = ctx.report.x[e] * nf.node_unit[instance.edge_from[e]];
    }
    warm->t = ctx.report.final_t;
    warm->valid = true;
  }

  FlowSolution sol;
  sol.edge_inputs.resize(num_edges);
  sol.edge_outputs.resize(num_edges);
  for (std::size_t e = 0; e < num_edges; ++e) {
    const double dn = std::max(0.0, ctx.report.x[e]);
    const LoopHopData& hop = n.edges[e];
    sol.edge_inputs[e] = dn * nf.node_unit[instance.edge_from[e]];
    sol.edge_outputs[e] = hop.swap(dn) * nf.node_unit[instance.edge_to[e]];
    // Plan honesty: the kernel output (fixed-D closed form /
    // virtual-reserve form) can differ from the pool's own quote by the
    // quote's convergence slack, which plan validation would reject on
    // small outputs; report what execution attains on non-CPMM venues.
    if (instance.graph != nullptr && hop.kind != HopKind::kCpmm) {
      sol.edge_outputs[e] = instance.graph->pool(hop.pool)
                                .quote(hop.token_in, sol.edge_inputs[e])
                                .amount_out;
    }
  }
  sol.node_surplus.assign(num_nodes, 0.0);
  for (std::size_t e = 0; e < num_edges; ++e) {
    sol.node_surplus[instance.edge_to[e]] += sol.edge_outputs[e];
    sol.node_surplus[instance.edge_from[e]] -= sol.edge_inputs[e];
  }
  for (std::size_t v = 0; v < num_nodes; ++v) {
    sol.objective += instance.node_weight[v] * sol.node_surplus[v];
  }
  sol.duality_gap = ctx.report.duality_gap * nf.scale;
  sol.iterations = ctx.report.total_newton_iterations;
  return sol;
}

Result<FlowSolution> solve_flow(const FlowInstance& instance,
                                const FlowOptions& options) {
  FlowContext ctx;
  return solve_flow(instance, options, ctx);
}

// ---------------------------------------------------------------------------
// attribute_support
// ---------------------------------------------------------------------------

PathAttribution attribute_support(const FlowInstance& instance,
                                  const FlowSolution& solution) {
  PathAttribution att;
  att.inputs.assign(instance.support.size(), 0.0);
  att.outputs.assign(instance.support.size(), 0.0);
  std::vector<double> rem_in = solution.edge_inputs;

  for (std::size_t c = 0; c < instance.support.size(); ++c) {
    const auto& chain = instance.support[c];
    if (chain.empty()) continue;
    // Unit propagation: carrying 1 source unit along the chain draws
    // unit[k] of edge k's input (linear: a path's share of an edge's
    // output is proportional to its share of the edge's input).
    std::vector<double> unit(chain.size());
    double carry = 1.0;
    bool dead = false;
    for (std::size_t k = 0; k < chain.size(); ++k) {
      const std::size_t e = chain[k];
      unit[k] = carry;
      if (!(solution.edge_inputs[e] > 0.0)) {
        dead = true;
        break;
      }
      carry *= solution.edge_outputs[e] / solution.edge_inputs[e];
    }
    if (dead) continue;
    double amount = std::numeric_limits<double>::infinity();
    for (std::size_t k = 0; k < chain.size(); ++k) {
      if (unit[k] > 0.0) amount = std::min(amount, rem_in[chain[k]] / unit[k]);
    }
    if (!(amount > 0.0) || !std::isfinite(amount)) continue;
    for (std::size_t k = 0; k < chain.size(); ++k) {
      rem_in[chain[k]] = std::max(0.0, rem_in[chain[k]] - amount * unit[k]);
    }
    att.inputs[c] = amount;
    att.outputs[c] = amount * carry;
  }
  return att;
}

}  // namespace arb::core
