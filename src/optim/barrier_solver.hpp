#pragma once

/// \file barrier_solver.hpp
/// Log-barrier interior-point solver for inequality-constrained smooth
/// convex programs (the paper's "Convex Optimization strategy" solver,
/// standing in for Ipopt).
///
/// Outer loop: minimize  t·f(x) − Σᵢ log(−gᵢ(x))  for increasing t; each
/// inner minimization is a damped Newton with a strict-feasibility domain
/// guard. For convex f and gᵢ the iterate is within m/t of the global
/// optimum, so the duality gap at exit is below `gap_tolerance`.
///
/// solve_into is the hot entry point: it reuses a caller-owned
/// SolveWorkspace and BarrierReport, so a steady-state solve performs no
/// heap allocations. solve() wraps it with per-call state.

#include <functional>

#include "common/result.hpp"
#include "optim/newton.hpp"
#include "optim/problem.hpp"
#include "optim/workspace.hpp"

namespace arb::optim {

struct BarrierOptions {
  double initial_t = 1.0;        ///< initial barrier sharpness
  double mu = 20.0;              ///< outer multiplicative increase of t
  double gap_tolerance = 1e-9;   ///< stop when m/t below this
  int max_outer_iterations = 60;
  NewtonOptions newton;          ///< inner solver options
  /// Optional early exit, checked after each centering step. Used by
  /// callers that need *a* point with a property rather than the
  /// optimum — phase-I stops as soon as strict feasibility is reached,
  /// which also prevents the iterate from drifting off along unbounded
  /// directions of the phase-I feasible set.
  std::function<bool(const math::Vector&)> early_stop;
};

struct BarrierReport {
  math::Vector x;                 ///< primal solution
  /// Barrier multiplier estimates λᵢ = 1/(−t·gᵢ); optim::refine_duals
  /// (optim/kkt.hpp) sharpens them for KKT certification.
  math::Vector dual;
  double objective = 0.0;         ///< f(x) at the solution
  double duality_gap = 0.0;       ///< m/t certificate at exit
  double final_t = 0.0;           ///< barrier sharpness at exit (warm-start seed)
  int outer_iterations = 0;
  int total_newton_iterations = 0;
  /// True iff every inner centering met its convergence criterion. When
  /// false the m/t gap certificate is not trustworthy — warm-started
  /// callers use this to detect a bad restart and fall back to cold.
  bool centerings_converged = true;
};

class BarrierSolver {
 public:
  explicit BarrierSolver(BarrierOptions options = {});

  /// Solves the problem from a strictly feasible start. Fails with
  /// kInfeasible if x0 is not strictly feasible and with kNumericFailure
  /// if an inner Newton solve breaks down.
  [[nodiscard]] Result<BarrierReport> solve(const NlpProblem& problem,
                                            const math::Vector& x0) const;

  /// Workspace variant with identical numerics: all solver temporaries
  /// live in \p ws and the result is written into \p report
  /// (capacity-preserving). \p x0 may alias ws.x.
  [[nodiscard]] Status solve_into(const NlpProblem& problem,
                                  const math::Vector& x0, SolveWorkspace& ws,
                                  BarrierReport& report) const;

 private:
  BarrierOptions options_;
};

}  // namespace arb::optim
