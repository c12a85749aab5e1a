#include "core/routing.hpp"

#include <gtest/gtest.h>

#include "amm/any_pool.hpp"
#include "amm/path.hpp"
#include "common/rng.hpp"
#include "math/scalar_solve.hpp"

namespace arb::core {
namespace {

using Paths = std::vector<std::vector<PoolId>>;

/// Tokens A, B, C; tests add the pools and route A -> B.
struct RoutingMarket {
  graph::TokenGraph graph;
  TokenId a = graph.add_token("A");
  TokenId b = graph.add_token("B");
  TokenId c = graph.add_token("C");

  [[nodiscard]] Result<RouteSplit> split(const Paths& paths,
                                         double budget) const {
    return optimal_route_split(graph, a, b, paths, budget);
  }

  [[nodiscard]] Result<double> single(const Paths& paths,
                                      double budget) const {
    return best_single_path_output(graph, a, b, paths, budget);
  }

  /// The path's composed Möbius map (exact for CPMM hops).
  [[nodiscard]] amm::MobiusCoefficients compose(
      const std::vector<PoolId>& path) const {
    amm::MobiusCoefficients m = amm::MobiusCoefficients::identity();
    TokenId in = a;
    for (const PoolId id : path) {
      const amm::CpmmPool& pool = graph.pool(id).cpmm();
      m = m.then_hop(pool.reserve_of(in), pool.reserve_of(pool.other(in)),
                     pool.gamma());
      in = pool.other(in);
    }
    return m;
  }
};

/// Two direct A->B pools plus a two-hop A->C->B route.
struct RoutedMarket : RoutingMarket {
  PoolId direct1 = graph.add_pool(a, b, 1'000.0, 2'000.0);
  PoolId direct2 = graph.add_pool(a, b, 400.0, 900.0);
  PoolId leg_ac = graph.add_pool(a, c, 800.0, 800.0);
  PoolId leg_cb = graph.add_pool(c, b, 700.0, 1'500.0);

  [[nodiscard]] Paths paths() const {
    return {{direct1}, {direct2}, {leg_ac, leg_cb}};
  }
};

TEST(RoutingTest, IdenticalPathsSplitEvenly) {
  RoutingMarket m;
  const Paths paths{{m.graph.add_pool(m.a, m.b, 1'000.0, 2'000.0)},
                    {m.graph.add_pool(m.a, m.b, 1'000.0, 2'000.0)}};
  const auto split = m.split(paths, 100.0).value();
  EXPECT_NEAR(split.inputs[0], 50.0, 1e-6);
  EXPECT_NEAR(split.inputs[1], 50.0, 1e-6);
  EXPECT_NEAR(split.inputs[0] + split.inputs[1], 100.0, 1e-9);
}

TEST(RoutingTest, MarginalRatesEqualizeOnFundedPaths) {
  const RoutedMarket m;
  const auto paths = m.paths();
  const auto split = m.split(paths, 150.0).value();
  // All-CPMM, edge-disjoint paths take the water-filling closed form.
  EXPECT_FALSE(split.used_flow_solver);
  for (std::size_t p = 0; p < paths.size(); ++p) {
    if (split.inputs[p] > 1e-9) {
      const double marginal = m.compose(paths[p]).derivative(split.inputs[p]);
      EXPECT_NEAR(marginal, split.marginal_rate,
                  1e-6 * split.marginal_rate)
          << "path " << p;
    }
  }
}

TEST(RoutingTest, BeatsEverySinglePathForLargeBudget) {
  const RoutedMarket m;
  const auto paths = m.paths();
  const double budget = 300.0;
  const auto split = m.split(paths, budget).value();
  const double single = m.single(paths, budget).value();
  EXPECT_GT(split.total_output, single * 1.02);  // splitting pays
}

TEST(RoutingTest, TinyBudgetGoesToBestRatePath) {
  const RoutedMarket m;
  // Best zero-size rate: direct2 = 0.997·900/400 = 2.243.
  const auto split = m.split(m.paths(), 1e-6).value();
  EXPECT_GT(split.inputs[1], split.inputs[0]);
  EXPECT_GT(split.inputs[1], split.inputs[2]);
}

TEST(RoutingTest, ZeroBudgetYieldsZeroSplit) {
  const RoutedMarket m;
  const auto split = m.split(m.paths(), 0.0).value();
  for (double d : split.inputs) EXPECT_DOUBLE_EQ(d, 0.0);
  EXPECT_DOUBLE_EQ(split.total_output, 0.0);
}

TEST(RoutingTest, MatchesGoldenSectionOnTwoPaths) {
  RoutingMarket m;
  const Paths paths{{m.graph.add_pool(m.a, m.b, 1'000.0, 2'000.0)},
                    {m.graph.add_pool(m.a, m.b, 300.0, 750.0)}};
  const double budget = 120.0;
  const auto split = m.split(paths, budget).value();

  // Independent 1-D check: out1(d) + out2(budget − d) over d.
  const auto m1 = m.compose(paths[0]);
  const auto m2 = m.compose(paths[1]);
  const auto report = math::golden_section_maximize(
      [&](double d) { return m1.evaluate(d) + m2.evaluate(budget - d); },
      0.0, budget);
  EXPECT_NEAR(split.inputs[0], report.x, 1e-5);
  EXPECT_NEAR(split.total_output, report.f, 1e-7 * report.f);
}

TEST(RoutingTest, SplitSpendsExactlyTheBudget) {
  Rng rng(81);
  for (int trial = 0; trial < 30; ++trial) {
    RoutingMarket m;
    const PoolId p1 = m.graph.add_pool(m.a, m.b, rng.uniform(100.0, 5'000.0),
                                       rng.uniform(100.0, 5'000.0));
    const PoolId p2 = m.graph.add_pool(m.a, m.b, rng.uniform(100.0, 5'000.0),
                                       rng.uniform(100.0, 5'000.0));
    const Paths paths{{p1}, {p2}};
    const double budget = rng.uniform(1.0, 1'000.0);
    const auto split = m.split(paths, budget).value();
    EXPECT_NEAR(split.inputs[0] + split.inputs[1], budget, 1e-9 * budget);
    // Never worse than the best unsplit route.
    const double single = m.single(paths, budget).value();
    EXPECT_GE(split.total_output, single * (1.0 - 1e-9));
  }
}

// Regression: the bisection tolerance used to be absolute (1e-12 on λ),
// which at huge budgets either never converged or stopped with inputs
// that missed the budget by whole tokens. The tolerance is now relative
// to the bracket scale, so a 1e12 budget against ~1e3 reserves converges
// and lands the budget exactly.
TEST(RoutingTest, LargeBudgetConvergesWithRelativeTolerance) {
  const RoutedMarket m;
  const auto paths = m.paths();
  for (const double budget : {1e6, 1e9, 1e12}) {
    const auto result = m.split(paths, budget);
    ASSERT_TRUE(result.ok()) << "budget " << budget;
    const auto& split = *result;
    double spent = 0.0;
    for (double d : split.inputs) spent += d;
    EXPECT_NEAR(spent, budget, 1e-9 * budget) << "budget " << budget;
    EXPECT_LT(split.iterations, 200) << "budget " << budget;
    // Deep in every pool, marginal rates still equalize.
    for (std::size_t p = 0; p < paths.size(); ++p) {
      if (split.inputs[p] > 1e-9 * budget) {
        const double marginal =
            m.compose(paths[p]).derivative(split.inputs[p]);
        EXPECT_NEAR(marginal, split.marginal_rate,
                    1e-6 * split.marginal_rate)
            << "budget " << budget << " path " << p;
      }
    }
  }
}

TEST(RoutingTest, ValidationRejectsBadInputs) {
  RoutedMarket m;
  EXPECT_FALSE(m.split({}, 1.0).ok());
  EXPECT_FALSE(m.split(m.paths(), -1.0).ok());
  // Mismatched endpoints.
  const PoolId odd = m.graph.add_pool(m.a, m.c, 100.0, 100.0);
  auto paths = m.paths();
  paths.push_back({odd});
  EXPECT_FALSE(m.split(paths, 1.0).ok());
}

}  // namespace
}  // namespace arb::core
