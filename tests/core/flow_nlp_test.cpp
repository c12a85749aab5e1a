// Flow-form problem layer: finite-difference checks of the NLP
// transcription (routing and one-cycle instances), builder validation,
// routing instances against independent 1-D optima, and the
// attribution/trivial/infeasible edge cases.

#include "core/flow_nlp.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/fixtures.hpp"
#include "core/loop_nlp.hpp"
#include "core/routing.hpp"
#include "math/scalar_solve.hpp"

namespace arb::core {
namespace {

/// Parallel A->B routing market: two CPMM directs, a two-hop CPMM
/// route, and one stable + one concentrated direct.
struct SwapMarket {
  graph::TokenGraph graph;
  TokenId a, b, c;
  PoolId direct1, direct2, leg_ac, leg_cb, stable_ab, conc_ab;

  SwapMarket() {
    a = graph.add_token("A");
    b = graph.add_token("B");
    c = graph.add_token("C");
    direct1 = graph.add_pool(a, b, 1'000.0, 2'000.0);
    direct2 = graph.add_pool(a, b, 400.0, 900.0);
    leg_ac = graph.add_pool(a, c, 800.0, 800.0);
    leg_cb = graph.add_pool(c, b, 700.0, 1'500.0);
    stable_ab = graph.add_stable_pool(a, b, 5'000.0, 5'000.0, 200.0);
    conc_ab = graph.add_concentrated_pool(a, b, /*liquidity=*/4'000.0,
                                          /*price=*/2.0, /*p_lo=*/0.5,
                                          /*p_hi=*/8.0);
  }
};

// ---- Transcription: finite-difference consistency ----------------------

/// Central differences of the objective and of every constraint against
/// their analytic gradients and Hessians at d.
void expect_derivatives_match(const FlowProblem& problem,
                              const math::Vector& d) {
  const double h = 1e-6;
  const auto perturbed = [&](std::size_t i, double step) {
    math::Vector p = d;
    p[i] += step;
    return p;
  };
  const math::Vector grad = problem.objective_gradient(d);
  const math::Matrix hess = problem.objective_hessian(d);
  for (std::size_t i = 0; i < d.size(); ++i) {
    const double fd = (problem.objective(perturbed(i, h)) -
                       problem.objective(perturbed(i, -h))) /
                      (2.0 * h);
    EXPECT_NEAR(grad[i], fd, 1e-5 * std::max(1.0, std::abs(fd)))
        << "gradient component " << i;
    const math::Vector gu = problem.objective_gradient(perturbed(i, h));
    const math::Vector gd = problem.objective_gradient(perturbed(i, -h));
    for (std::size_t j = 0; j < d.size(); ++j) {
      const double fd2 = (gu[j] - gd[j]) / (2.0 * h);
      EXPECT_NEAR(hess(j, i), fd2, 1e-4 * std::max(1.0, std::abs(fd2)))
          << "hessian (" << j << "," << i << ")";
    }
  }

  for (std::size_t k = 0; k < problem.num_inequalities(); ++k) {
    const math::Vector cg = problem.constraint_gradient(k, d);
    const math::Matrix ch = problem.constraint_hessian(k, d);
    for (std::size_t i = 0; i < d.size(); ++i) {
      const double fd = (problem.constraint(k, perturbed(i, h)) -
                         problem.constraint(k, perturbed(i, -h))) /
                        (2.0 * h);
      EXPECT_NEAR(cg[i], fd, 1e-5 * std::max(1.0, std::abs(fd)))
          << "constraint " << k << " component " << i;
      const math::Vector gu = problem.constraint_gradient(k, perturbed(i, h));
      const math::Vector gd = problem.constraint_gradient(k, perturbed(i, -h));
      for (std::size_t j = 0; j < d.size(); ++j) {
        const double fd2 = (gu[j] - gd[j]) / (2.0 * h);
        EXPECT_NEAR(ch(j, i), fd2, 1e-4 * std::max(1.0, std::abs(fd2)))
            << "constraint " << k << " hessian (" << j << "," << i << ")";
      }
    }
  }
}

TEST(FlowProblemTest, GradientAndHessianMatchFiniteDifferences) {
  SwapMarket m;
  auto routing = FlowInstance::for_swap(
      m.graph, m.a, m.b, {{m.direct1}, {m.leg_ac, m.leg_cb}}, 50.0);
  ASSERT_TRUE(routing.ok()) << routing.error().message;
  const FlowProblem routing_problem(*routing);
  ASSERT_EQ(routing_problem.dimension(), 3u);
  expect_derivatives_match(routing_problem, math::Vector{3.0, 5.0, 4.0});

  // One cycle A -stable-> B -concentrated-> C -CPMM-> A: every kernel
  // kind on the surplus rows, plus the concentrated edge's cap row.
  const PoolId conc_bc = m.graph.add_concentrated_pool(
      m.b, m.c, /*liquidity=*/3'000.0, /*price=*/0.5, /*p_lo=*/0.2,
      /*p_hi=*/2.0);
  market::CexPriceFeed prices;
  prices.set_price(m.a, 1.0);
  prices.set_price(m.b, 0.5);
  prices.set_price(m.c, 1.1);
  const graph::Cycle cycle =
      *graph::Cycle::create(m.graph, {m.a, m.b, m.c},
                            {m.stable_ab, conc_bc, m.leg_ac});
  auto loop = FlowInstance::from_cycle(m.graph, prices, cycle);
  ASSERT_TRUE(loop.ok()) << loop.error().message;
  ASSERT_EQ(loop->edges[0].kind, HopKind::kStable);
  ASSERT_EQ(loop->edges[1].kind, HopKind::kConcentrated);
  ASSERT_TRUE(std::isfinite(loop->edges[1].input_cap));
  const FlowProblem loop_problem(*loop);
  ASSERT_EQ(loop_problem.num_inequalities(), 7u);  // 3 d ≥ 0, 3 rows, 1 cap
  expect_derivatives_match(loop_problem, math::Vector{3.0, 5.0, 4.0});
}

// ---- Builders ----------------------------------------------------------

TEST(FlowInstanceTest, ForSwapRejectsMalformedInputs) {
  SwapMarket m;
  // No paths.
  EXPECT_FALSE(FlowInstance::for_swap(m.graph, m.a, m.b, {}, 1.0).ok());
  // Negative / non-finite budget.
  EXPECT_FALSE(
      FlowInstance::for_swap(m.graph, m.a, m.b, {{m.direct1}}, -1.0).ok());
  // Same endpoints.
  EXPECT_FALSE(
      FlowInstance::for_swap(m.graph, m.a, m.a, {{m.direct1}}, 1.0).ok());
  // Discontinuous path (leg_cb does not touch A).
  EXPECT_FALSE(
      FlowInstance::for_swap(m.graph, m.a, m.b, {{m.leg_cb}}, 1.0).ok());
  // Path ending at the wrong token.
  EXPECT_FALSE(
      FlowInstance::for_swap(m.graph, m.a, m.c, {{m.direct1}}, 1.0).ok());
  // Unknown pool id.
  EXPECT_FALSE(
      FlowInstance::for_swap(m.graph, m.a, m.b, {{PoolId{99}}}, 1.0).ok());
  // Pass-through of the sink token.
  EXPECT_FALSE(FlowInstance::for_swap(m.graph, m.a, m.b,
                                      {{m.direct1, m.direct2}}, 1.0)
                   .ok());
}

TEST(FlowInstanceTest, ForSwapDeduplicatesSharedEdges) {
  SwapMarket m;
  // Both paths cross leg_ac in the same direction: one edge, two chains.
  const PoolId cb2 = m.graph.add_pool(m.c, m.b, 900.0, 1'800.0);
  auto instance = FlowInstance::for_swap(
      m.graph, m.a, m.b, {{m.leg_ac, m.leg_cb}, {m.leg_ac, cb2}}, 10.0);
  ASSERT_TRUE(instance.ok()) << instance.error().message;
  EXPECT_EQ(instance->edges.size(), 3u);
  EXPECT_EQ(instance->support.size(), 2u);
  EXPECT_EQ(instance->support[0][0], instance->support[1][0]);
}

// ---- One-cycle instances -----------------------------------------------

TEST(FlowSolveTest, UnprofitableCycleIsTriviallyZero) {
  testing::NoArbMarket m;
  auto instance = FlowInstance::from_cycle(m.graph, m.prices, m.loop());
  ASSERT_TRUE(instance.ok()) << instance.error().message;
  auto flow = solve_flow(*instance);
  ASSERT_TRUE(flow.ok()) << flow.error().message;
  EXPECT_TRUE(flow->trivial);
  EXPECT_DOUBLE_EQ(flow->objective, 0.0);
  for (const double d : flow->edge_inputs) EXPECT_DOUBLE_EQ(d, 0.0);
}

// ---- Routing instances -------------------------------------------------

TEST(FlowSolveTest, TwoPathSplitMatchesGoldenSection) {
  SwapMarket m;
  const double budget = 120.0;
  auto instance = FlowInstance::for_swap(m.graph, m.a, m.b,
                                         {{m.direct1}, {m.direct2}}, budget);
  ASSERT_TRUE(instance.ok()) << instance.error().message;
  auto flow = solve_flow(*instance);
  ASSERT_TRUE(flow.ok()) << flow.error().message;

  const auto out1 = [&](double d) {
    return m.graph.pool(m.direct1).quote(m.a, d).amount_out;
  };
  const auto out2 = [&](double d) {
    return m.graph.pool(m.direct2).quote(m.a, d).amount_out;
  };
  const auto best = math::golden_section_maximize(
      [&](double d) { return out1(d) + out2(budget - d); }, 0.0, budget);
  EXPECT_NEAR(flow->objective, best.f, 1e-6 * best.f);
}

TEST(FlowSolveTest, MixedVenueSplitMatchesGoldenSection) {
  SwapMarket m;
  const double budget = 400.0;
  auto instance = FlowInstance::for_swap(
      m.graph, m.a, m.b, {{m.stable_ab}, {m.conc_ab}}, budget);
  ASSERT_TRUE(instance.ok()) << instance.error().message;
  auto flow = solve_flow(*instance);
  ASSERT_TRUE(flow.ok()) << flow.error().message;

  const auto stable_out = [&](double d) {
    return m.graph.pool(m.stable_ab).quote(m.a, d).amount_out;
  };
  const auto conc_out = [&](double d) {
    return m.graph.pool(m.conc_ab).quote(m.a, d).amount_out;
  };
  const auto best = math::golden_section_maximize(
      [&](double d) { return stable_out(d) + conc_out(budget - d); }, 0.0,
      budget);
  EXPECT_NEAR(flow->objective, best.f, 1e-5 * best.f);
  EXPECT_GE(flow->objective, best.f * (1.0 - 1e-5));
}

TEST(FlowSolveTest, AgreesWithWaterFillingOnDisjointCpmmPaths) {
  SwapMarket m;
  const double budget = 150.0;
  const std::vector<std::vector<PoolId>> paths{
      {m.direct1}, {m.direct2}, {m.leg_ac, m.leg_cb}};
  auto split = optimal_route_split(m.graph, m.a, m.b, paths, budget);
  ASSERT_TRUE(split.ok()) << split.error().message;
  EXPECT_FALSE(split->used_flow_solver);

  auto instance = FlowInstance::for_swap(m.graph, m.a, m.b, paths, budget);
  ASSERT_TRUE(instance.ok()) << instance.error().message;
  auto flow = solve_flow(*instance);
  ASSERT_TRUE(flow.ok()) << flow.error().message;
  EXPECT_NEAR(flow->objective, split->total_output,
              1e-6 * split->total_output);
}

TEST(FlowSolveTest, ZeroBudgetIsTrivial) {
  SwapMarket m;
  auto instance =
      FlowInstance::for_swap(m.graph, m.a, m.b, {{m.direct1}}, 0.0);
  ASSERT_TRUE(instance.ok()) << instance.error().message;
  auto flow = solve_flow(*instance);
  ASSERT_TRUE(flow.ok()) << flow.error().message;
  EXPECT_TRUE(flow->trivial);
  EXPECT_DOUBLE_EQ(flow->objective, 0.0);
}

TEST(FlowSolveTest, BudgetConstraintBindsAtTheOptimum) {
  SwapMarket m;
  const double budget = 80.0;
  auto instance = FlowInstance::for_swap(m.graph, m.a, m.b,
                                         {{m.direct1}, {m.direct2}}, budget);
  ASSERT_TRUE(instance.ok()) << instance.error().message;
  auto flow = solve_flow(*instance);
  ASSERT_TRUE(flow.ok()) << flow.error().message;
  // Routing is strictly improving in budget, so the source spends it all
  // (up to the barrier's duality gap).
  double spent = 0.0;
  for (std::size_t e = 0; e < flow->edge_inputs.size(); ++e) {
    if (instance->edge_from[e] == instance->source) {
      spent += flow->edge_inputs[e];
    }
  }
  EXPECT_NEAR(spent, budget, 1e-6 * budget);
}

TEST(FlowSolveTest, TickPinnedEdgeIsInfeasible) {
  SwapMarket m;
  auto instance =
      FlowInstance::for_swap(m.graph, m.a, m.b, {{m.conc_ab}}, 10.0);
  ASSERT_TRUE(instance.ok()) << instance.error().message;
  instance->edges[0].input_cap = 0.0;  // simulate a pinned tick
  auto flow = solve_flow(*instance);
  ASSERT_FALSE(flow.ok());
  EXPECT_EQ(flow.error().code, ErrorCode::kInfeasible);
}

// ---- Attribution -------------------------------------------------------

TEST(FlowAttributionTest, DisjointPathsDecomposeExactly) {
  SwapMarket m;
  const double budget = 150.0;
  const std::vector<std::vector<PoolId>> paths{
      {m.direct1}, {m.direct2}, {m.leg_ac, m.leg_cb}};
  auto instance = FlowInstance::for_swap(m.graph, m.a, m.b, paths, budget);
  ASSERT_TRUE(instance.ok()) << instance.error().message;
  auto flow = solve_flow(*instance);
  ASSERT_TRUE(flow.ok()) << flow.error().message;

  const PathAttribution split = attribute_support(*instance, *flow);
  ASSERT_EQ(split.inputs.size(), paths.size());
  double total_in = 0.0;
  double total_out = 0.0;
  for (std::size_t p = 0; p < paths.size(); ++p) {
    total_in += split.inputs[p];
    total_out += split.outputs[p];
  }
  EXPECT_NEAR(total_in, budget, 1e-6 * budget);
  EXPECT_NEAR(total_out, flow->objective, 1e-6 * flow->objective);
}

}  // namespace
}  // namespace arb::core
