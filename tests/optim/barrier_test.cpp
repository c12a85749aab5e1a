#include "optim/barrier_solver.hpp"

#include <gtest/gtest.h>

#include "optim/kkt.hpp"
#include "tests/optim/lambda_nlp.hpp"

namespace arb::optim {
namespace {

using math::Matrix;
using math::Vector;
using testing::ConstraintFns;
using testing::LambdaNlp;
using testing::linear_constraint;

/// min x² + y²  s.t. x + y >= 1  → optimum (0.5, 0.5), f* = 0.5, dual 1.
LambdaNlp projection_qp() {
  return LambdaNlp(
      2,
      [](const Vector& x) { return x[0] * x[0] + x[1] * x[1]; },
      [](const Vector& x) { return Vector{2.0 * x[0], 2.0 * x[1]}; },
      [](const Vector&) {
        Matrix h(2, 2);
        h(0, 0) = 2.0;
        h(1, 1) = 2.0;
        return h;
      },
      {linear_constraint(Vector{-1.0, -1.0}, 1.0)});
}

/// LP: min −x−y  s.t. 0 <= x <= 1, 0 <= y <= 2 → optimum (1, 2).
LambdaNlp box_lp() {
  return LambdaNlp(
      2, [](const Vector& x) { return -x[0] - x[1]; },
      [](const Vector&) { return Vector{-1.0, -1.0}; },
      [](const Vector&) { return Matrix(2, 2); },
      {linear_constraint(Vector{1.0, 0.0}, -1.0),   // x <= 1
       linear_constraint(Vector{0.0, 1.0}, -2.0),   // y <= 2
       linear_constraint(Vector{-1.0, 0.0}, 0.0),   // x >= 0
       linear_constraint(Vector{0.0, -1.0}, 0.0)}); // y >= 0
}

TEST(BarrierTest, ProjectionQpReachesKnownOptimum) {
  const auto problem = projection_qp();
  const BarrierSolver solver;
  auto report = solver.solve(problem, Vector{2.0, 2.0});
  ASSERT_TRUE(report.ok());
  EXPECT_NEAR(report->x[0], 0.5, 1e-6);
  EXPECT_NEAR(report->x[1], 0.5, 1e-6);
  EXPECT_NEAR(report->objective, 0.5, 1e-7);
  EXPECT_LE(report->duality_gap, 1e-8);
}

TEST(BarrierTest, ProjectionQpDualsSatisfyKkt) {
  const auto problem = projection_qp();
  const BarrierSolver solver;
  auto report = solver.solve(problem, Vector{2.0, 2.0});
  ASSERT_TRUE(report.ok());
  refine_duals(problem, report->x, report->dual);
  EXPECT_NEAR(report->dual[0], 1.0, 1e-5);
  const KktResiduals kkt = evaluate_kkt(problem, report->x, report->dual);
  EXPECT_TRUE(kkt.satisfied(1e-5)) << "worst residual " << kkt.worst();
}

TEST(BarrierTest, BoxLpReachesVertex) {
  const auto problem = box_lp();
  const BarrierSolver solver;
  auto report = solver.solve(problem, Vector{0.5, 0.5});
  ASSERT_TRUE(report.ok());
  EXPECT_NEAR(report->x[0], 1.0, 1e-6);
  EXPECT_NEAR(report->x[1], 2.0, 1e-6);
  refine_duals(problem, report->x, report->dual);
  const KktResiduals kkt = evaluate_kkt(problem, report->x, report->dual);
  EXPECT_TRUE(kkt.satisfied(1e-5)) << "worst residual " << kkt.worst();
}

TEST(BarrierTest, InactiveConstraintGetsZeroDual) {
  // min (x-0.2)² s.t. x <= 1: constraint inactive at optimum 0.2.
  LambdaNlp problem(
      1, [](const Vector& x) { return (x[0] - 0.2) * (x[0] - 0.2); },
      [](const Vector& x) { return Vector{2.0 * (x[0] - 0.2)}; },
      [](const Vector&) {
        Matrix h(1, 1);
        h(0, 0) = 2.0;
        return h;
      },
      {linear_constraint(Vector{1.0}, -1.0)});
  const BarrierSolver solver;
  auto report = solver.solve(problem, Vector{0.5});
  ASSERT_TRUE(report.ok());
  EXPECT_NEAR(report->x[0], 0.2, 1e-6);
  EXPECT_LT(report->dual[0], 1e-6);
}

TEST(BarrierTest, InfeasibleStartRejected) {
  const auto problem = projection_qp();
  const BarrierSolver solver;
  auto report = solver.solve(problem, Vector{0.0, 0.0});  // violates x+y>=1
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.error().code, ErrorCode::kInfeasible);
}

TEST(BarrierTest, BoundaryStartRejected) {
  const auto problem = projection_qp();
  const BarrierSolver solver;
  // Exactly on the constraint: not *strictly* feasible.
  auto report = solver.solve(problem, Vector{0.5, 0.5});
  ASSERT_FALSE(report.ok());
}

TEST(BarrierTest, UnconstrainedFallsBackToNewton) {
  LambdaNlp problem(
      1, [](const Vector& x) { return (x[0] - 7.0) * (x[0] - 7.0); },
      [](const Vector& x) { return Vector{2.0 * (x[0] - 7.0)}; },
      [](const Vector&) {
        Matrix h(1, 1);
        h(0, 0) = 2.0;
        return h;
      },
      {});
  const BarrierSolver solver;
  auto report = solver.solve(problem, Vector{0.0});
  ASSERT_TRUE(report.ok());
  EXPECT_NEAR(report->x[0], 7.0, 1e-8);
}

TEST(BarrierTest, TighterToleranceGivesSmallerGap) {
  BarrierOptions loose;
  loose.gap_tolerance = 1e-4;
  BarrierOptions tight;
  tight.gap_tolerance = 1e-10;
  const auto problem = projection_qp();
  auto r_loose = BarrierSolver(loose).solve(problem, Vector{2.0, 2.0});
  auto r_tight = BarrierSolver(tight).solve(problem, Vector{2.0, 2.0});
  ASSERT_TRUE(r_loose.ok());
  ASSERT_TRUE(r_tight.ok());
  EXPECT_LT(r_tight->duality_gap, r_loose->duality_gap);
  // Objective gap bounded by the certificate.
  EXPECT_NEAR(r_tight->objective, 0.5, 1e-9);
}

TEST(KktTest, ResidualsDetectWrongDuals) {
  const auto problem = projection_qp();
  // Correct primal with a wrong multiplier must fail stationarity.
  const KktResiduals bad =
      evaluate_kkt(problem, Vector{0.5, 0.5}, Vector{5.0});
  EXPECT_FALSE(bad.satisfied(1e-3));
  EXPECT_GT(bad.stationarity, 1.0);
}

TEST(KktTest, NegativeDualFlagsDualInfeasibility) {
  const auto problem = projection_qp();
  const KktResiduals res =
      evaluate_kkt(problem, Vector{0.5, 0.5}, Vector{-1.0});
  EXPECT_GT(res.dual_feasibility, 0.5);
}

TEST(KktTest, PrimalViolationDetected) {
  const auto problem = projection_qp();
  const KktResiduals res =
      evaluate_kkt(problem, Vector{0.0, 0.0}, Vector{1.0});
  EXPECT_GT(res.primal_feasibility, 0.5);
}

}  // namespace
}  // namespace arb::optim
