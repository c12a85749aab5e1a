#include "optim/phase1.hpp"

#include <gtest/gtest.h>

#include "core/flow_nlp.hpp"
#include "tests/core/fixtures.hpp"
#include "tests/optim/lambda_nlp.hpp"

namespace arb::optim {
namespace {

using math::Matrix;
using math::Vector;
using testing::LambdaNlp;
using testing::linear_constraint;

/// Feasible box: 1 <= x <= 2 (as two linear constraints).
LambdaNlp box_problem() {
  return LambdaNlp(
      1, [](const Vector& x) { return x[0] * x[0]; },
      [](const Vector& x) { return Vector{2.0 * x[0]}; },
      [](const Vector&) {
        Matrix h(1, 1);
        h(0, 0) = 2.0;
        return h;
      },
      {linear_constraint(Vector{-1.0}, 1.0),    // x >= 1
       linear_constraint(Vector{1.0}, -2.0)});  // x <= 2
}

/// Empty feasible set: x <= -1 AND x >= 1.
LambdaNlp infeasible_problem() {
  return LambdaNlp(
      1, [](const Vector& x) { return x[0]; },
      [](const Vector&) { return Vector{1.0}; },
      [](const Vector&) { return Matrix(1, 1); },
      {linear_constraint(Vector{1.0}, 1.0),      // x <= -1
       linear_constraint(Vector{-1.0}, 1.0)});   // x >= 1
}

TEST(Phase1Test, FindsInteriorFromInfeasibleStart) {
  const auto problem = box_problem();
  auto point = find_strictly_feasible(problem, Vector{-5.0});
  ASSERT_TRUE(point.ok());
  EXPECT_TRUE(problem.strictly_feasible(*point));
  EXPECT_GT((*point)[0], 1.0);
  EXPECT_LT((*point)[0], 2.0);
}

TEST(Phase1Test, AlreadyFeasibleStartReturnedAsIs) {
  const auto problem = box_problem();
  auto point = find_strictly_feasible(problem, Vector{1.5});
  ASSERT_TRUE(point.ok());
  EXPECT_DOUBLE_EQ((*point)[0], 1.5);
}

TEST(Phase1Test, CertifiesInfeasibility) {
  const auto problem = infeasible_problem();
  auto point = find_strictly_feasible(problem, Vector{0.0});
  ASSERT_FALSE(point.ok());
  EXPECT_EQ(point.error().code, ErrorCode::kInfeasible);
}

TEST(Phase1Test, SolveEndToEndFromInfeasibleStart) {
  const auto problem = box_problem();
  auto report = solve_with_phase1(problem, Vector{100.0});
  ASSERT_TRUE(report.ok());
  // min x² on [1,2] is at x = 1.
  EXPECT_NEAR(report->x[0], 1.0, 1e-5);
}

TEST(Phase1Test, UnconstrainedProblemPassesThrough) {
  LambdaNlp unconstrained(
      1, [](const Vector& x) { return (x[0] - 3.0) * (x[0] - 3.0); },
      [](const Vector& x) { return Vector{2.0 * (x[0] - 3.0)}; },
      [](const Vector&) {
        Matrix h(1, 1);
        h(0, 0) = 2.0;
        return h;
      },
      {});
  auto report = solve_with_phase1(unconstrained, Vector{0.0});
  ASSERT_TRUE(report.ok());
  EXPECT_NEAR(report->x[0], 3.0, 1e-7);
}

TEST(Phase1Test, RecoversArbitrageLoopInteriorFromZero) {
  // The one-cycle flow program's natural start (the zero vector) sits ON
  // the boundary; phase-I must find the interior the analytic
  // construction finds, and the final solve must match the paper value.
  const core::testing::Section5Market m;
  const core::FlowProblem problem(
      core::FlowInstance::from_cycle(m.graph, m.prices, m.loop()).value());
  auto report = solve_with_phase1(problem, math::Vector(3, 0.0));
  ASSERT_TRUE(report.ok());
  EXPECT_NEAR(-report->objective, 206.15, 0.05);
}

}  // namespace
}  // namespace arb::optim
