#include "optim/barrier_solver.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/logging.hpp"

namespace arb::optim {
namespace {

/// Plain Newton objective for the unconstrained (m == 0) case.
class ObjectiveOnly final : public SmoothObjective {
 public:
  explicit ObjectiveOnly(const NlpProblem& problem) : problem_(problem) {}

  [[nodiscard]] double value(const math::Vector& x) const override {
    return problem_.objective(x);
  }
  void gradient_into(const math::Vector& x,
                     math::Vector& grad) const override {
    problem_.objective_gradient_into(x, grad);
  }
  void hessian_into(const math::Vector& x,
                    math::Matrix& hess) const override {
    problem_.objective_hessian_into(x, hess);
  }

 private:
  const NlpProblem& problem_;
};

/// The centering objective  t·f(x) − Σᵢ log(−gᵢ(x))  for one outer
/// iteration. Per-constraint gradient/Hessian terms are accumulated in
/// workspace buffers, so evaluation is allocation-free. The same instance
/// serves every outer iteration via set_t.
class CenteringObjective final : public SmoothObjective {
 public:
  CenteringObjective(const NlpProblem& problem, SolveWorkspace& ws)
      : problem_(problem), ws_(ws) {}

  void set_t(double t) { t_ = t; }

  [[nodiscard]] double value(const math::Vector& point) const override {
    const std::size_t m = problem_.num_inequalities();
    double value = t_ * problem_.objective(point);
    for (std::size_t i = 0; i < m; ++i) {
      const double g = problem_.constraint(i, point);
      if (!(g < 0.0)) return std::numeric_limits<double>::infinity();
      value -= std::log(-g);
    }
    return value;
  }

  void gradient_into(const math::Vector& point,
                     math::Vector& grad) const override {
    const std::size_t m = problem_.num_inequalities();
    const std::size_t n = problem_.dimension();
    problem_.objective_gradient_into(point, grad);
    grad *= t_;
    for (std::size_t i = 0; i < m; ++i) {
      const double g = problem_.constraint(i, point);
      problem_.constraint_gradient_into(i, point, ws_.constraint_grad);
      // d/dx [-log(-g)] = -g'/g  (g < 0).
      for (std::size_t k = 0; k < n; ++k) {
        grad[k] += ws_.constraint_grad[k] / (-g);
      }
    }
  }

  void hessian_into(const math::Vector& point,
                    math::Matrix& hess) const override {
    const std::size_t m = problem_.num_inequalities();
    const std::size_t n = problem_.dimension();
    problem_.objective_hessian_into(point, hess);
    hess *= t_;
    for (std::size_t i = 0; i < m; ++i) {
      const double g = problem_.constraint(i, point);
      problem_.constraint_gradient_into(i, point, ws_.constraint_grad);
      problem_.constraint_hessian_into(i, point, ws_.constraint_hess);
      // ∇²[-log(-g)] = (g' g'ᵀ)/g² + (-1/g)·∇²g.
      const double inv_g = 1.0 / g;
      hess.add_outer_product(ws_.constraint_grad, ws_.constraint_grad,
                             inv_g * inv_g);
      for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t c = 0; c < n; ++c) {
          hess(r, c) += (-inv_g) * ws_.constraint_hess(r, c);
        }
      }
    }
  }

  [[nodiscard]] bool in_domain(const math::Vector& point) const override {
    return point.all_finite() && problem_.strictly_feasible(point);
  }

  [[nodiscard]] bool step_ok(const math::Vector& from,
                             const math::Vector& to) const override {
    // Cap the per-step collapse of the tightest constraint slack at
    // 100x. Without this, Armijo happily accepts profit-chasing steps
    // that land just inside the boundary (each backtracking trial sits
    // at the feasibility edge), the tightest slack shrinks geometrically
    // far below its central-path value, and the (1/s²)-scaled barrier
    // Hessian becomes so ill-conditioned that Newton degenerates into a
    // tangential crawl. Warm restarts at moderate-to-high t hit this
    // reliably; the guard keeps every accepted iterate within two
    // decades of the previous slack, which damped Newton handles.
    const std::size_t m = problem_.num_inequalities();
    double min_from = std::numeric_limits<double>::infinity();
    double min_to = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < m; ++i) {
      min_from = std::min(min_from, -problem_.constraint(i, from));
      min_to = std::min(min_to, -problem_.constraint(i, to));
    }
    return min_to * 100.0 >= min_from;
  }

 private:
  const NlpProblem& problem_;
  SolveWorkspace& ws_;
  double t_ = 1.0;
};

}  // namespace

BarrierSolver::BarrierSolver(BarrierOptions options)
    : options_(std::move(options)) {}

Status BarrierSolver::solve_into(const NlpProblem& problem,
                                 const math::Vector& x0, SolveWorkspace& ws,
                                 BarrierReport& report) const {
  const std::size_t n = problem.dimension();
  const std::size_t m = problem.num_inequalities();
  ARB_REQUIRE(x0.size() == n, "x0 dimension mismatch");

  report.objective = 0.0;
  report.duality_gap = 0.0;
  report.final_t = options_.initial_t;
  report.outer_iterations = 0;
  report.total_newton_iterations = 0;
  report.centerings_converged = true;

  if (!problem.strictly_feasible(x0)) {
    return make_error(ErrorCode::kInfeasible,
                      "barrier solve requires strictly feasible start "
                      "(max violation " +
                          std::to_string(problem.max_violation(x0)) + ")");
  }
  if (m == 0) {
    // Pure Newton on f.
    const ObjectiveOnly fn(problem);
    NewtonStats stats;
    auto inner = newton_minimize_into(fn, x0, options_.newton, ws, stats);
    if (!inner) return inner;
    report.x = ws.x;
    report.dual.assign(0, 0.0);
    report.objective = stats.value;
    report.total_newton_iterations = stats.iterations;
    report.centerings_converged = stats.converged;
    return Status::success();
  }

  double t = options_.initial_t;
  ws.x = x0;  // capacity-preserving; x0 may alias ws.x
  CenteringObjective fn(problem, ws);

  for (int outer = 0; outer < options_.max_outer_iterations; ++outer) {
    report.outer_iterations = outer + 1;
    fn.set_t(t);

    NewtonStats stats;
    auto inner = newton_minimize_into(fn, ws.x, options_.newton, ws, stats);
    if (!inner) {
      return make_error(ErrorCode::kNumericFailure,
                        "barrier inner Newton failed at t=" +
                            std::to_string(t) + ": " +
                            inner.error().message);
    }
    report.total_newton_iterations += stats.iterations;
    if (!stats.converged) report.centerings_converged = false;

    if (options_.early_stop && options_.early_stop(ws.x)) {
      report.duality_gap = static_cast<double>(m) / t;
      break;
    }

    const double gap = static_cast<double>(m) / t;
    ARB_LOG_DEBUG("barrier outer=" << outer << " t=" << t << " gap=" << gap
                                   << " f=" << problem.objective(ws.x));
    if (gap <= options_.gap_tolerance) {
      report.duality_gap = gap;
      break;
    }
    t *= options_.mu;
    report.duality_gap = static_cast<double>(m) / t;
  }

  report.final_t = t;
  report.x = ws.x;
  report.objective = problem.objective(ws.x);
  // Containment: never hand a non-finite iterate or objective back to
  // the caller as a "success" — the inner Newton guards should make this
  // unreachable, but a corrupted problem could still slip a NaN through
  // a converged-looking exit.
  if (!report.x.all_finite() || !std::isfinite(report.objective)) {
    return make_error(ErrorCode::kNumericFailure,
                      "barrier solve produced non-finite iterate at t=" +
                          std::to_string(t));
  }
  report.dual.assign(m, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    report.dual[i] = 1.0 / (-t * problem.constraint(i, ws.x));
  }
  return Status::success();
}

Result<BarrierReport> BarrierSolver::solve(const NlpProblem& problem,
                                           const math::Vector& x0) const {
  SolveWorkspace ws;
  BarrierReport report;
  auto status = solve_into(problem, x0, ws, report);
  if (!status) return status.error();
  return report;
}

}  // namespace arb::optim
