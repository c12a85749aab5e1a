#pragma once

/// \file kkt.hpp
/// Karush–Kuhn–Tucker residuals for a candidate primal/dual pair. Tests
/// use these to certify that the barrier solver's answers are true optima
/// rather than merely "the solver stopped".

#include "math/vector.hpp"
#include "optim/problem.hpp"
#include "optim/workspace.hpp"

namespace arb::optim {

struct KktResiduals {
  double stationarity = 0.0;       ///< ||∇f + Σ λᵢ∇gᵢ||_inf
  double primal_feasibility = 0.0; ///< max(0, maxᵢ gᵢ(x))
  double dual_feasibility = 0.0;   ///< max(0, maxᵢ −λᵢ)
  double complementarity = 0.0;    ///< maxᵢ |λᵢ gᵢ(x)|

  [[nodiscard]] double worst() const;
  /// All residuals below the tolerance.
  [[nodiscard]] bool satisfied(double tolerance) const;
};

/// Least-squares refinement of barrier multiplier estimates on the
/// (numerically) active set: the raw λᵢ = 1/(−t·gᵢ) lose precision as t
/// grows. Keeps the estimate unless the refinement lowers the
/// stationarity residual. Allocates; call it before evaluate_kkt when
/// certifying a solve.
void refine_duals(const NlpProblem& problem, const math::Vector& x,
                  math::Vector& dual);

/// Evaluates KKT residuals at (x, λ).
[[nodiscard]] KktResiduals evaluate_kkt(const NlpProblem& problem,
                                        const math::Vector& x,
                                        const math::Vector& dual);

/// Workspace variant: the Lagrangian gradient is accumulated in ws.grad
/// and constraint gradients in ws.constraint_grad, so repeated
/// certification (e.g. per repriced cycle) allocates nothing.
[[nodiscard]] KktResiduals evaluate_kkt(const NlpProblem& problem,
                                        const math::Vector& x,
                                        const math::Vector& dual,
                                        SolveWorkspace& ws);

}  // namespace arb::optim
