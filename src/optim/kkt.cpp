#include "optim/kkt.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "math/linear_solve.hpp"

namespace arb::optim {

double KktResiduals::worst() const {
  return std::max({stationarity, primal_feasibility, dual_feasibility,
                   complementarity});
}

bool KktResiduals::satisfied(double tolerance) const {
  return worst() <= tolerance;
}

KktResiduals evaluate_kkt(const NlpProblem& problem, const math::Vector& x,
                          const math::Vector& dual, SolveWorkspace& ws) {
  const std::size_t n = problem.dimension();
  const std::size_t m = problem.num_inequalities();
  ARB_REQUIRE(x.size() == n, "x dimension mismatch in evaluate_kkt");
  ARB_REQUIRE(dual.size() == m, "dual dimension mismatch in evaluate_kkt");

  KktResiduals res;
  problem.objective_gradient_into(x, ws.grad);
  for (std::size_t i = 0; i < m; ++i) {
    const double g = problem.constraint(i, x);
    res.primal_feasibility = std::max(res.primal_feasibility, g);
    res.dual_feasibility = std::max(res.dual_feasibility, -dual[i]);
    res.complementarity =
        std::max(res.complementarity, std::abs(dual[i] * g));
    problem.constraint_gradient_into(i, x, ws.constraint_grad);
    for (std::size_t k = 0; k < n; ++k) {
      ws.grad[k] += dual[i] * ws.constraint_grad[k];
    }
  }
  res.primal_feasibility = std::max(res.primal_feasibility, 0.0);
  res.dual_feasibility = std::max(res.dual_feasibility, 0.0);
  res.stationarity = ws.grad.norm_inf();
  return res;
}

KktResiduals evaluate_kkt(const NlpProblem& problem, const math::Vector& x,
                          const math::Vector& dual) {
  SolveWorkspace ws;
  return evaluate_kkt(problem, x, dual, ws);
}

void refine_duals(const NlpProblem& problem, const math::Vector& x,
                  math::Vector& dual) {
  // The barrier estimate λᵢ = 1/(−t·gᵢ) is exact for the *barrier*
  // problem but noisy for the original KKT system: near the boundary its
  // sensitivity to the primal iterate grows with t. Recover clean
  // multipliers by least squares on the (numerically) active set:
  //   minimize ‖∇f + Σ_{i∈A} λᵢ ∇gᵢ‖²,  λ clamped to ≥ 0,
  // which the tiny dense normal equations solve directly.
  const std::size_t n = problem.dimension();
  const std::size_t m = problem.num_inequalities();
  if (m == 0) return;

  double max_dual = 0.0;
  for (std::size_t i = 0; i < m; ++i) max_dual = std::max(max_dual, dual[i]);
  if (max_dual <= 0.0) return;

  std::vector<std::size_t> active;
  for (std::size_t i = 0; i < m; ++i) {
    if (dual[i] > 1e-6 * max_dual) active.push_back(i);
  }
  if (active.empty()) return;

  const math::Vector grad_f = problem.objective_gradient(x);
  std::vector<math::Vector> grads;
  grads.reserve(active.size());
  for (const std::size_t i : active) {
    grads.push_back(problem.constraint_gradient(i, x));
  }

  const std::size_t a = active.size();
  math::Matrix gram(a, a);
  math::Vector rhs(a);
  for (std::size_t r = 0; r < a; ++r) {
    for (std::size_t c = 0; c < a; ++c) gram(r, c) = grads[r].dot(grads[c]);
    rhs[r] = -grads[r].dot(grad_f);
  }
  auto solved = math::regularized_spd_solve(gram, rhs);
  if (!solved) return;  // keep the barrier estimate

  // Accept the refinement only if it actually reduces the stationarity
  // residual (guards against a bad active-set guess).
  const auto residual = [&](const math::Vector& lambda_active) {
    math::Vector acc = grad_f;
    for (std::size_t r = 0; r < a; ++r) {
      for (std::size_t k = 0; k < n; ++k) {
        acc[k] += lambda_active[r] * grads[r][k];
      }
    }
    return acc.norm_inf();
  };
  math::Vector original_active(a);
  for (std::size_t r = 0; r < a; ++r) original_active[r] = dual[active[r]];
  math::Vector clamped = *solved;
  for (std::size_t r = 0; r < a; ++r) clamped[r] = std::max(0.0, clamped[r]);
  if (residual(clamped) < residual(original_active)) {
    for (std::size_t r = 0; r < a; ++r) dual[active[r]] = clamped[r];
  }
}

}  // namespace arb::optim
