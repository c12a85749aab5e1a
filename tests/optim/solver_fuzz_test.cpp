// Randomized QP fuzzing of the barrier solver: generate strictly convex
// quadratic programs with random linear inequality constraints, solve,
// and certify the result through the KKT residuals plus an independent
// projected check. Parameterized over seeds.
//
// Setting ARB_LONG_TESTS=1 in the environment multiplies the trial
// counts by 5 — the nightly-style deep fuzz CI's long-tests job runs.

#include <gtest/gtest.h>

#include <cstdlib>

#include "common/rng.hpp"
#include "optim/barrier_solver.hpp"
#include "optim/kkt.hpp"
#include "optim/phase1.hpp"
#include "tests/optim/lambda_nlp.hpp"

namespace arb::optim {
namespace {

using math::Matrix;
using math::Vector;
using testing::ConstraintFns;
using testing::LambdaNlp;

struct RandomQp {
  Matrix q;       // SPD
  Vector linear;  // objective = ½ xᵀQx + linearᵀx
  std::vector<Vector> normals;
  std::vector<double> offsets;  // constraints: normalᵀx <= offset
  std::size_t dim;

  explicit RandomQp(Rng& rng)
      : q(0, 0), linear(0), dim(1 + rng.index(5)) {
    Matrix b(dim, dim);
    for (std::size_t r = 0; r < dim; ++r) {
      for (std::size_t c = 0; c < dim; ++c) b(r, c) = rng.normal();
    }
    q = b.transposed().multiply(b);
    for (std::size_t i = 0; i < dim; ++i) q(i, i) += 1.0;
    linear = Vector(dim);
    for (std::size_t i = 0; i < dim; ++i) linear[i] = rng.normal(0.0, 3.0);
    // Constraints through random points at distance >= 1 from origin,
    // all satisfied strictly at x = 0 (so 0 is a valid start).
    const std::size_t m = 1 + rng.index(2 * dim);
    for (std::size_t c = 0; c < m; ++c) {
      Vector normal(dim);
      for (std::size_t i = 0; i < dim; ++i) normal[i] = rng.normal();
      normals.push_back(normal);
      offsets.push_back(rng.uniform(0.5, 3.0) * std::max(1.0, normal.norm()));
    }
  }

  [[nodiscard]] LambdaNlp problem() const {
    std::vector<ConstraintFns> constraints;
    for (std::size_t c = 0; c < normals.size(); ++c) {
      constraints.push_back(
          testing::linear_constraint(normals[c], -offsets[c]));
    }
    const Matrix q_copy = q;
    const Vector linear_copy = linear;
    return LambdaNlp(
        dim,
        [q_copy, linear_copy](const Vector& x) {
          return 0.5 * x.dot(q_copy.multiply(x)) + linear_copy.dot(x);
        },
        [q_copy, linear_copy](const Vector& x) {
          return q_copy.multiply(x) + linear_copy;
        },
        [q_copy](const Vector&) { return q_copy; }, constraints);
  }
};

/// 5x trials when ARB_LONG_TESTS=1 (any non-empty value but "0").
int trial_multiplier() {
  const char* flag = std::getenv("ARB_LONG_TESTS");
  return (flag != nullptr && flag[0] != '\0' && flag[0] != '0') ? 5 : 1;
}

class BarrierFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BarrierFuzzTest, RandomQpsSolveToKktCertificate) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 20 * trial_multiplier(); ++trial) {
    const RandomQp qp(rng);
    const LambdaNlp problem = qp.problem();
    const Vector start(qp.dim, 0.0);
    ASSERT_TRUE(problem.strictly_feasible(start));

    BarrierOptions options;
    options.gap_tolerance = 1e-10;
    auto report = BarrierSolver(options).solve(problem, start);
    ASSERT_TRUE(report.ok()) << report.error().to_string();

    refine_duals(problem, report->x, report->dual);
    const KktResiduals kkt =
        evaluate_kkt(problem, report->x, report->dual);
    EXPECT_TRUE(kkt.satisfied(1e-4))
        << "trial " << trial << " worst residual " << kkt.worst();

    // Independent optimality probe: random feasible perturbations never
    // improve the objective.
    for (int probe = 0; probe < 20; ++probe) {
      Vector candidate = report->x;
      for (std::size_t i = 0; i < qp.dim; ++i) {
        candidate[i] += rng.normal(0.0, 0.05);
      }
      if (!problem.strictly_feasible(candidate, 0.0)) continue;
      EXPECT_GE(problem.objective(candidate),
                problem.objective(report->x) - 1e-6)
          << "trial " << trial;
    }
  }
}

TEST_P(BarrierFuzzTest, Phase1RecoversFromRandomInfeasibleStarts) {
  Rng rng(GetParam() + 1000);
  for (int trial = 0; trial < 10 * trial_multiplier(); ++trial) {
    const RandomQp qp(rng);
    const LambdaNlp problem = qp.problem();
    // Random (likely infeasible) start far from the origin.
    Vector start(qp.dim);
    for (std::size_t i = 0; i < qp.dim; ++i) {
      start[i] = rng.normal(0.0, 25.0);
    }
    auto report = solve_with_phase1(problem, start);
    ASSERT_TRUE(report.ok()) << report.error().to_string();
    EXPECT_LE(problem.max_violation(report->x), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BarrierFuzzTest,
                         ::testing::Values(11, 22, 33));

}  // namespace
}  // namespace arb::optim
