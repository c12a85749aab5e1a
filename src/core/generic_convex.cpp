#include "core/generic_convex.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

#include "amm/any_pool.hpp"
#include "common/error.hpp"
#include "math/scalar_solve.hpp"

namespace arb::core {
namespace {

/// Sweep limits. No caller has needed other values.
constexpr int kMaxSweeps = 200;
/// Stop when one full sweep improves the objective by less than this
/// (absolute, USD).
constexpr double kImprovementTolerance = 1e-10;
/// Golden-section tolerance per coordinate, relative to the interval.
constexpr double kLineTolerance = 1e-12;

/// State of the re-parameterized problem: head input s = d_0 plus
/// forward fractions ρ_i ∈ [0,1] (share of hop i−1's output forwarded
/// into hop i; the rest is retained as profit in token t_i), so
/// d_{i+1} = ρ_i · swap_i(d_i). In these coordinates the flow
/// constraints d_{i+1} ≤ swap_i(d_i) become the box ρ ∈ [0,1]^{n−1}, and
/// only the wrap constraint swap_{n−1}(d_{n−1}) ≥ s still couples
/// coordinates — exactly the structure cyclic coordinate ascent handles
/// without jamming.
///
/// The chain views the caller's hop array through a rotation index
/// instead of holding a rotated copy — materializing n anchors over n
/// hops used to copy n² std::functions per solve — and the forward-pass
/// scratch lives in the caller's SolveWorkspace so steady-state solves
/// stay off the allocator.
struct GenericChain {
  const std::vector<GenericHop>& hops;
  std::size_t anchor;
  math::Vector& scratch;

  [[nodiscard]] const GenericHop& hop(std::size_t i) const {
    return hops[(anchor + i) % hops.size()];
  }

  [[nodiscard]] const math::Vector& inputs(double s,
                                           const math::Vector& rho) const {
    scratch.resize(hops.size());
    scratch[0] = s;
    for (std::size_t i = 1; i < hops.size(); ++i) {
      scratch[i] = rho[i - 1] * hop(i - 1).swap(scratch[i - 1]);
    }
    return scratch;
  }

  [[nodiscard]] double wrap_output(double s, const math::Vector& rho) const {
    const math::Vector& d = inputs(s, rho);
    const std::size_t last = hops.size() - 1;
    return hop(last).swap(d[last]);
  }

  [[nodiscard]] double profit(double s, const math::Vector& rho) const {
    const math::Vector& d = inputs(s, rho);
    const std::size_t last = hops.size() - 1;
    double usd = hop(0).price_in * (hop(last).swap(d[last]) - s);
    for (std::size_t i = 1; i < hops.size(); ++i) {
      usd += hop(i).price_in * (1.0 - rho[i - 1]) *
             hop(i - 1).swap(d[i - 1]);
    }
    return usd;
  }

  /// Whole-chain output for a head input — the seeding path's evaluator
  /// (replaces constructing a GenericPath per anchor).
  [[nodiscard]] double chain_output(double input) const {
    double amount = input;
    for (std::size_t i = 0; i < hops.size(); ++i) {
      amount = hop(i).swap(amount);
    }
    return amount;
  }
};

/// Largest s with wrap(s) − s >= 0 (concave in s, zero at 0): bracket
/// rightwards from a known-feasible point, then bisect.
double max_feasible_head(const GenericChain& chain, const math::Vector& rho,
                         double current_s, double scale) {
  const auto slack = [&](double s) { return chain.wrap_output(s, rho) - s; };
  double lo = std::max(current_s, 1e-12 * scale);
  if (slack(lo) < 0.0) return current_s;  // already at the boundary
  double hi = std::max(lo * 2.0, 1e-9 * scale);
  int guard = 0;
  while (slack(hi) >= 0.0 && guard++ < 200) {
    lo = hi;
    hi *= 2.0;
    if (hi > scale * 1e9) return hi;  // unbounded in practice; cap
  }
  auto root = math::bisect_root(slack, lo, hi);
  return root.ok() ? root->x : lo;
}

/// Smallest feasible ρ_index given the rest of the point (wrap increases
/// with every ρ).
double min_feasible_rho(const GenericChain& chain, double s,
                        const math::Vector& rho, std::size_t index,
                        math::Vector& scratch) {
  scratch = rho;
  const double current = rho[index];
  const auto slack = [&](double value) {
    scratch[index] = value;
    return chain.wrap_output(s, scratch) - s;
  };
  if (slack(0.0) >= 0.0) return 0.0;
  auto root = math::bisect_root(slack, 0.0, current);
  return root.ok() ? root->x : current;
}

/// Runs the sweep with the wrap constraint anchored at hop `anchor`'s
/// input token. The parameterization is rotation-sensitive (retention in
/// the anchor token is only expressible through wrap slack), so the
/// public entry point tries every rotation and keeps the best.
GenericConvexReport solve_anchored(const std::vector<GenericHop>& hops,
                                   std::size_t anchor,
                                   const GenericConvexOptions& options,
                                   optim::SolveWorkspace& ws) {
  const std::size_t n = hops.size();
  GenericConvexReport report;
  report.inputs.assign(n, 0.0);
  report.outputs.assign(n, 0.0);

  const GenericChain chain{hops, anchor, ws.generic_chain};

  // Seed at the single-start optimum of this rotation.
  amm::GenericOptimizeOptions seed_options;
  seed_options.initial_scale = options.initial_scale;
  const std::function<double(double)> chain_eval =
      [&chain](double input) { return chain.chain_output(input); };
  auto seed = amm::optimize_input_generic(chain_eval, seed_options);
  if (!seed.ok() || seed->input <= 0.0) {
    report.converged = true;  // profitless rotation: zero is optimal
    return report;
  }

  double s = seed->input;
  math::Vector& rho = ws.generic_rho;
  rho.assign(n - 1, 1.0);
  double best = chain.profit(s, rho);
  const double scale = std::max(seed->input, options.initial_scale);

  math::ScalarSolveOptions line;
  line.x_tolerance = kLineTolerance * scale;
  math::ScalarSolveOptions rho_line;
  rho_line.x_tolerance = kLineTolerance;

  // Candidate buffers reused across the many line-search evaluations
  // below (rho_comp is nested inside evaluations that use rho_eval, so
  // the two must stay distinct).
  math::Vector& rho_eval = ws.generic_rho_eval;
  math::Vector& rho_comp = ws.generic_rho_comp;
  rho_eval.assign(n - 1, 0.0);
  rho_comp.assign(n - 1, 0.0);

  // Compensated evaluation: profit at (s', ρ') where ρ'[comp] is
  // re-solved so the wrap constraint holds (tight when it has to be;
  // everything retained when it is slack even at ρ = 0). Returns −inf
  // when no feasible compensation exists. This is what lets the sweep
  // travel *along* the active wrap surface, where plain per-coordinate
  // moves jam.
  const auto compensated_profit = [&](double s_value,
                                      const math::Vector& rho_value,
                                      std::size_t comp) {
    rho_comp = rho_value;
    const auto slack = [&](double v) {
      rho_comp[comp] = v;
      return chain.wrap_output(s_value, rho_comp) - s_value;
    };
    if (slack(1.0) < 0.0) {
      return -std::numeric_limits<double>::infinity();
    }
    if (slack(0.0) < 0.0) {
      auto root = math::bisect_root([&](double v) { return slack(v); },
                                    0.0, 1.0);
      rho_comp[comp] = root.ok() ? root->x : 1.0;
    } else {
      rho_comp[comp] = 0.0;
    }
    return chain.profit(s_value, rho_comp);
  };
  const auto resolve_comp = [&](std::size_t comp) {
    const auto slack = [&](double v) {
      rho_eval = rho;
      rho_eval[comp] = v;
      return chain.wrap_output(s, rho_eval) - s;
    };
    if (slack(0.0) < 0.0) {
      auto root = math::bisect_root(slack, 0.0, 1.0);
      if (root.ok()) rho[comp] = root->x;
    } else {
      rho[comp] = 0.0;
    }
  };

  for (int sweep = 0; sweep < kMaxSweeps; ++sweep) {
    report.sweeps = sweep + 1;
    const double before = best;

    {
      const double hi = max_feasible_head(chain, rho, s, scale);
      const auto objective = [&](double v) { return chain.profit(v, rho); };
      const auto peak = math::golden_section_maximize(objective, 0.0, hi, line);
      if (peak.f > best) {
        best = peak.f;
        s = peak.x;
      }
    }
    for (std::size_t i = 0; i < n - 1; ++i) {
      const double lo = min_feasible_rho(chain, s, rho, i, rho_eval);
      const auto objective = [&](double v) {
        rho_eval = rho;
        rho_eval[i] = v;
        return chain.profit(s, rho_eval);
      };
      const auto peak =
          math::golden_section_maximize(objective, lo, 1.0, rho_line);
      if (peak.f > best) {
        best = peak.f;
        rho[i] = peak.x;
      }
    }
    for (std::size_t comp = 0; comp < n - 1; ++comp) {
      {
        const auto objective = [&](double v) {
          return compensated_profit(v, rho, comp);
        };
        const auto peak = math::golden_section_maximize(
            objective, 0.0, s * 4.0 + scale * 1e-6, line);
        if (peak.f > best) {
          best = peak.f;
          s = peak.x;
          resolve_comp(comp);
        }
      }
      for (std::size_t i = 0; i < n - 1; ++i) {
        if (i == comp) continue;
        const auto objective = [&](double v) {
          rho_eval = rho;
          rho_eval[i] = v;
          return compensated_profit(s, rho_eval, comp);
        };
        const auto peak =
            math::golden_section_maximize(objective, 0.0, 1.0, rho_line);
        if (peak.f > best) {
          best = peak.f;
          rho[i] = peak.x;
          resolve_comp(comp);
        }
      }
    }

    if (best - before < kImprovementTolerance) {
      report.converged = true;
      break;
    }
  }

  // The pair moves track `best` through compensated evaluations; the
  // report re-evaluates the final point so profit and amounts agree.
  const math::Vector& d = chain.inputs(s, rho);
  for (std::size_t i = 0; i < n; ++i) {
    report.inputs[i] = d[i];
    report.outputs[i] = chain.hop(i).swap(d[i]);
  }
  report.profit_usd = chain.profit(s, rho);
  return report;
}

}  // namespace

Result<GenericConvexReport> solve_generic_convex(
    const std::vector<GenericHop>& hops, const GenericConvexOptions& options,
    optim::SolveWorkspace& workspace) {
  if (hops.size() < 2) {
    return make_error(ErrorCode::kInvalidArgument,
                      "loop needs at least 2 hops");
  }
  for (const GenericHop& hop : hops) {
    if (!hop.swap) {
      return make_error(ErrorCode::kInvalidArgument, "null hop function");
    }
    if (!(hop.price_in > 0.0)) {
      return make_error(ErrorCode::kInvalidArgument,
                        "hop prices must be positive");
    }
  }
  const std::size_t n = hops.size();
  GenericConvexReport best;
  bool first = true;
  for (std::size_t anchor = 0; anchor < n; ++anchor) {
    GenericConvexReport candidate = solve_anchored(hops, anchor, options,
                                                  workspace);
    if (first || candidate.profit_usd > best.profit_usd) {
      // Map the anchored coordinates back to the caller's hop order.
      GenericConvexReport mapped = candidate;
      mapped.inputs.assign(n, 0.0);
      mapped.outputs.assign(n, 0.0);
      for (std::size_t i = 0; i < n; ++i) {
        mapped.inputs[(anchor + i) % n] = candidate.inputs[i];
        mapped.outputs[(anchor + i) % n] = candidate.outputs[i];
      }
      best = std::move(mapped);
      first = false;
    }
  }
  return best;
}

Result<GenericConvexReport> solve_generic_convex(
    const std::vector<GenericHop>& hops,
    const GenericConvexOptions& options) {
  optim::SolveWorkspace workspace;
  return solve_generic_convex(hops, options, workspace);
}

Result<GenericConvexReport> solve_generic_convex(
    const graph::TokenGraph& graph, const market::CexPriceFeed& prices,
    const graph::Cycle& cycle, optim::SolveWorkspace& workspace) {
  std::vector<GenericHop> hops;
  hops.reserve(cycle.length());
  for (std::size_t i = 0; i < cycle.length(); ++i) {
    auto price = prices.price(cycle.tokens()[i]);
    if (!price) return price.error();
    hops.push_back(GenericHop{
        amm::swap_fn(graph.pool(cycle.pools()[i]), cycle.tokens()[i]),
        *price});
  }
  // Seed the bracket search at a fraction of the first hop's input-side
  // depth so the expansion starts at the right order of magnitude.
  GenericConvexOptions options;
  options.initial_scale = std::max(
      options.initial_scale,
      1e-3 * graph.pool(cycle.pools()[0]).reserve_of(cycle.tokens()[0]));
  return solve_generic_convex(hops, options, workspace);
}

}  // namespace arb::core
