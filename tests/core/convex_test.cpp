#include "core/convex.hpp"

#include <gtest/gtest.h>

#include "core/single_start.hpp"
#include "math/derivative.hpp"
#include "optim/kkt.hpp"
#include "optim/phase1.hpp"
#include "tests/core/fixtures.hpp"

namespace arb::core {
namespace {

using testing::NoArbMarket;
using testing::Section5Market;

TEST(LoopNlpTest, HopDataMatchesPools) {
  const Section5Market m;
  auto hops = make_hop_data(m.graph, m.prices, m.loop());
  ASSERT_TRUE(hops.ok());
  ASSERT_EQ(hops->size(), 3u);
  EXPECT_DOUBLE_EQ((*hops)[0].reserve_in, 100.0);
  EXPECT_DOUBLE_EQ((*hops)[0].reserve_out, 200.0);
  EXPECT_DOUBLE_EQ((*hops)[0].price_in, 2.0);
  EXPECT_DOUBLE_EQ((*hops)[0].price_out, 10.2);
  EXPECT_EQ((*hops)[2].token_out, m.x);
}

TEST(LoopNlpTest, HopDataRespectsRotation) {
  const Section5Market m;
  auto hops = make_hop_data(m.graph, m.prices, m.loop(), 1);
  ASSERT_TRUE(hops.ok());
  EXPECT_EQ((*hops)[0].token_in, m.y);
  EXPECT_DOUBLE_EQ((*hops)[0].reserve_in, 300.0);
}

/// The Section V loop as the one-cycle flow program, in raw units.
FlowProblem section5_problem(const Section5Market& m) {
  return FlowProblem(FlowInstance::from_cycle(m.graph, m.prices, m.loop())
                         .value());
}

TEST(FlowLoopTest, ObjectiveGradientMatchesNumeric) {
  const Section5Market m;
  const FlowProblem problem = section5_problem(m);
  const math::Vector d{5.0, 11.0, 4.0};
  const math::Vector grad = problem.objective_gradient(d);
  for (std::size_t i = 0; i < 3; ++i) {
    const auto partial = [&](double v) {
      math::Vector p = d;
      p[i] = v;
      return problem.objective(p);
    };
    EXPECT_NEAR(grad[i], math::central_derivative(partial, d[i]), 1e-5)
        << "coordinate " << i;
  }
}

TEST(FlowLoopTest, ObjectiveHessianIsDiagonalPsd) {
  const Section5Market m;
  const FlowProblem problem = section5_problem(m);
  const math::Matrix h = problem.objective_hessian(math::Vector{5.0, 5.0, 5.0});
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      if (r == c) {
        EXPECT_GT(h(r, c), 0.0);
      } else {
        EXPECT_DOUBLE_EQ(h(r, c), 0.0);
      }
    }
  }
}

TEST(FlowLoopTest, ConstraintGradientsMatchNumeric) {
  const Section5Market m;
  const FlowProblem problem = section5_problem(m);
  ASSERT_EQ(problem.num_inequalities(), 6u);  // 3 × d ≥ 0, 3 surplus rows
  const math::Vector d{5.0, 11.0, 4.0};
  for (std::size_t ci = 0; ci < problem.num_inequalities(); ++ci) {
    const math::Vector grad = problem.constraint_gradient(ci, d);
    for (std::size_t i = 0; i < 3; ++i) {
      const auto partial = [&](double v) {
        math::Vector p = d;
        p[i] = v;
        return problem.constraint(ci, p);
      };
      EXPECT_NEAR(grad[i], math::central_derivative(partial, d[i]), 1e-5)
          << "constraint " << ci << " coordinate " << i;
    }
  }
}

TEST(FlowLoopTest, SolveStartsInteriorAndEndsFeasible) {
  // The barrier rejects a start that is not strictly feasible, so a
  // solve that runs Newton steps proves the marginal-flow construction
  // is interior; the denormalized optimum must be feasible for the raw
  // program too.
  const Section5Market m;
  const auto instance = FlowInstance::from_cycle(m.graph, m.prices, m.loop());
  ASSERT_TRUE(instance.ok());
  auto flow = solve_flow(*instance);
  ASSERT_TRUE(flow.ok()) << flow.error().message;
  EXPECT_FALSE(flow->trivial);
  EXPECT_GT(flow->iterations, 0);
  const FlowProblem problem(*instance);
  math::Vector d(flow->edge_inputs.size());
  for (std::size_t e = 0; e < d.size(); ++e) d[e] = flow->edge_inputs[e];
  EXPECT_LE(problem.max_violation(d), 1e-9);
}

TEST(FlowLoopTest, NoInteriorWithoutArbitrage) {
  // Phase-I certifies that a loop without arbitrage has no strictly
  // feasible point, so the zero flow is its only (and optimal) plan.
  const NoArbMarket m;
  const FlowProblem problem(
      FlowInstance::from_cycle(m.graph, m.prices, m.loop()).value());
  auto found =
      optim::find_strictly_feasible(problem, math::Vector(3, 0.0));
  ASSERT_FALSE(found.ok());
  EXPECT_EQ(found.error().code, ErrorCode::kInfeasible);
}

/// The barrier reference: the Section V loop as the one-cycle flow
/// instance, solved by solve_flow (solve_convex answers it by active set).
FlowSolution section5_barrier(const Section5Market& m) {
  return solve_flow(FlowInstance::from_cycle(m.graph, m.prices, m.loop())
                        .value())
      .value();
}

TEST(ConvexTest, PaperExampleValue) {
  const Section5Market m;
  ConvexContext ctx;
  auto solution = solve_convex(m.graph, m.prices, m.loop(), {}, ctx);
  ASSERT_TRUE(solution.ok());
  EXPECT_TRUE(ctx.used_active_set);
  const FlowSolution barrier = section5_barrier(m);
  // Paper: $206.1.
  EXPECT_NEAR(solution->outcome.monetized_usd, 206.1, 0.3);
  EXPECT_NEAR(barrier.objective, 206.1, 0.3);
  EXPECT_NEAR(solution->outcome.monetized_usd, barrier.objective,
              1e-6 * barrier.objective);
}

TEST(ConvexTest, PaperExamplePlanAmounts) {
  const Section5Market m;
  auto solution = solve_convex(m.graph, m.prices, m.loop());
  ASSERT_TRUE(solution.ok());
  const FlowSolution barrier = section5_barrier(m);
  // Paper: input 31.3 X -> 47.6 Y; 42.6 Y -> 24.8 Z; 17.1 Z -> 31.3 X.
  const double inputs[] = {31.3, 42.6, 17.1};
  const double outputs[] = {47.6, 24.8, 31.3};
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(solution->inputs[i], inputs[i], 0.2) << "hop " << i;
    EXPECT_NEAR(solution->outputs[i], outputs[i], 0.2) << "hop " << i;
    EXPECT_NEAR(barrier.edge_inputs[i], inputs[i], 0.2) << "hop " << i;
    EXPECT_NEAR(barrier.edge_outputs[i], outputs[i], 0.2) << "hop " << i;
  }
  // Retained: ~0 X, ~5 Y, ~7.7 Z.
  const double retained[] = {0.0, 5.0, 7.7};
  const double tolerance[] = {0.05, 0.2, 0.2};
  ASSERT_EQ(solution->outcome.profits.size(), 3u);
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_NEAR(solution->outcome.profits[j].amount, retained[j],
                tolerance[j]);
    EXPECT_NEAR(barrier.node_surplus[j], retained[j], tolerance[j]);
  }
}

TEST(ConvexTest, BeatsOrMatchesMaxMax) {
  const Section5Market m;
  auto convex = solve_convex(m.graph, m.prices, m.loop());
  auto max_max = evaluate_max_max(m.graph, m.prices, m.loop());
  ASSERT_TRUE(convex.ok());
  ASSERT_TRUE(max_max.ok());
  const FlowSolution barrier = section5_barrier(m);
  for (const double profit : {convex->outcome.monetized_usd,
                              barrier.objective}) {
    EXPECT_GE(profit, max_max->monetized_usd - 1e-6);
    // On this adversarial example the gap is real (paper: 206.1 vs 205.6).
    EXPECT_GT(profit, max_max->monetized_usd);
  }
}

TEST(ConvexTest, RotationInvariant) {
  const Section5Market m;
  auto base = solve_convex(m.graph, m.prices, m.loop());
  ASSERT_TRUE(base.ok());
  for (std::size_t offset = 1; offset < 3; ++offset) {
    const graph::Cycle rotated = m.loop().rotated(offset);
    auto sol = solve_convex(m.graph, m.prices, rotated);
    ASSERT_TRUE(sol.ok());
    EXPECT_NEAR(sol->outcome.monetized_usd, base->outcome.monetized_usd,
                1e-4);
  }
}

TEST(ConvexTest, NoArbitrageGivesExactZero) {
  // Section IV theorem: MaxMax finds nothing ⇒ Convex finds nothing.
  const NoArbMarket m;
  auto solution = solve_convex(m.graph, m.prices, m.loop());
  ASSERT_TRUE(solution.ok());
  EXPECT_DOUBLE_EQ(solution->outcome.monetized_usd, 0.0);
  for (double v : solution->inputs) EXPECT_DOUBLE_EQ(v, 0.0);
  for (double v : solution->outputs) EXPECT_DOUBLE_EQ(v, 0.0);
  for (const TokenProfit& p : solution->outcome.profits) {
    EXPECT_DOUBLE_EQ(p.amount, 0.0);
  }
}

TEST(ConvexTest, SolutionSatisfiesKkt) {
  const Section5Market m;
  const FlowProblem problem = section5_problem(m);
  optim::Phase1Options options;
  options.barrier.gap_tolerance = 1e-10;
  auto report =
      optim::solve_with_phase1(problem, math::Vector(3, 0.0), options);
  ASSERT_TRUE(report.ok()) << report.error().message;
  optim::refine_duals(problem, report->x, report->dual);
  const optim::KktResiduals kkt =
      optim::evaluate_kkt(problem, report->x, report->dual);
  // Scale: prices up to $20, reserves hundreds → residual 1e-4 is tight.
  EXPECT_TRUE(kkt.satisfied(1e-4)) << "worst residual " << kkt.worst();
  EXPECT_NEAR(-report->objective, 206.15, 0.05);
}

TEST(ConvexTest, FlowConstraintsActiveOnlyWhereNoProfitRetained) {
  const Section5Market m;
  auto solution = solve_convex(m.graph, m.prices, m.loop());
  ASSERT_TRUE(solution.ok());
  // Where profit is retained in a token, the flow constraint out >= in is
  // slack; where nothing is retained it is tight.
  const std::size_t n = 3;
  for (std::size_t j = 0; j < n; ++j) {
    const std::size_t prev = (j + n - 1) % n;
    const double retained = solution->outputs[prev] - solution->inputs[j];
    EXPECT_NEAR(retained, solution->outcome.profits[j].amount, 1e-9);
    EXPECT_GE(retained, -1e-9);
  }
}

TEST(ConvexTest, ProfitsNonNegativePerToken) {
  // Risk-free property of eq. (8): no token ends at a loss.
  const Section5Market m;
  auto solution = solve_convex(m.graph, m.prices, m.loop());
  ASSERT_TRUE(solution.ok());
  for (const TokenProfit& p : solution->outcome.profits) {
    EXPECT_GE(p.amount, -1e-9);
  }
}

TEST(ConvexTest, MissingPriceFails) {
  Section5Market m;
  market::CexPriceFeed partial;
  partial.set_price(m.x, 2.0);
  auto solution = solve_convex(m.graph, partial, m.loop());
  ASSERT_FALSE(solution.ok());
  EXPECT_EQ(solution.error().code, ErrorCode::kNotFound);
}

TEST(ConvexTest, EvaluateWrapperReturnsOutcomeOnly) {
  const Section5Market m;
  auto outcome = evaluate_convex(m.graph, m.prices, m.loop());
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->kind, StrategyKind::kConvexOptimization);
  EXPECT_NEAR(outcome->monetized_usd, 206.1, 0.3);
}

}  // namespace
}  // namespace arb::core
