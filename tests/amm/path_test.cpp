#include "amm/path.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace arb::amm {
namespace {

const TokenId kX{0};
const TokenId kY{1};
const TokenId kZ{2};

/// The paper's Section V pools.
struct Fixture {
  CpmmPool xy{PoolId{0}, kX, kY, 100.0, 200.0};
  CpmmPool yz{PoolId{1}, kY, kZ, 300.0, 200.0};
  CpmmPool zx{PoolId{2}, kZ, kX, 200.0, 400.0};

  PoolPath loop_from_x() const {
    return *PoolPath::create(
        {Hop{&xy, kX}, Hop{&yz, kY}, Hop{&zx, kZ}});
  }
};

TEST(MobiusTest, IdentityMapsInputToItself) {
  const auto id = MobiusCoefficients::identity();
  EXPECT_DOUBLE_EQ(id.evaluate(5.0), 5.0);
  EXPECT_DOUBLE_EQ(id.derivative(5.0), 1.0);
  EXPECT_DOUBLE_EQ(id.rate_at_zero(), 1.0);
  EXPECT_DOUBLE_EQ(id.optimal_input(), 0.0);
}

TEST(MobiusTest, SingleHopMatchesSwapOut) {
  const auto m = MobiusCoefficients::identity().then_hop(100.0, 200.0, 0.997);
  for (double dx : {0.0, 1.0, 50.0, 500.0}) {
    EXPECT_NEAR(m.evaluate(dx), swap_out(100.0, 200.0, 0.997, dx), 1e-9);
  }
}

TEST(MobiusTest, RateAtZeroIsPriceProduct) {
  const Fixture f;
  const PoolPath path = f.loop_from_x();
  EXPECT_NEAR(path.compose().rate_at_zero(), path.price_product(), 1e-12);
}

TEST(MobiusTest, OptimalInputStationary) {
  const Fixture f;
  const auto m = f.loop_from_x().compose();
  const double d_star = m.optimal_input();
  ASSERT_GT(d_star, 0.0);
  EXPECT_NEAR(m.derivative(d_star), 1.0, 1e-9);
}

TEST(MobiusTest, OptimalInputAgainstARate) {
  // argmax G(Δ) − λ·Δ sits where G'(Δ) = λ; λ = 1 is the loop optimum,
  // the map never pays a rate at or above a/b, and NaN coefficients come
  // back as NaN rather than as the zero trade.
  const Fixture f;
  const auto m = f.loop_from_x().compose();
  EXPECT_EQ(m.optimal_input(1.0), m.optimal_input());
  for (const double lambda : {0.25, 1.0, 1.5, 2.0}) {
    const double d_star = m.optimal_input(lambda);
    ASSERT_GT(d_star, 0.0) << lambda;
    EXPECT_NEAR(m.derivative(d_star), lambda, 1e-9 * lambda);
  }
  EXPECT_EQ(m.optimal_input(m.rate_at_zero()), 0.0);
  const MobiusCoefficients poisoned{std::nan(""), 1.0, 1.0};
  EXPECT_TRUE(std::isnan(poisoned.optimal_input()));
}

TEST(MobiusTest, UnprofitableMapHasZeroOptimum) {
  // Single pool: a = γ·y·1, b = x. With γy < x the rate at zero < 1.
  const auto m = MobiusCoefficients::identity().then_hop(200.0, 100.0, 0.997);
  EXPECT_LT(m.rate_at_zero(), 1.0);
  EXPECT_DOUBLE_EQ(m.optimal_input(), 0.0);
}

TEST(MobiusTest, RescaledCompositionMatchesUnscaledFormulas) {
  // then_hop rescales (a, b, c) by a power of two once b leaves
  // [2^-128, 2^128]; wherever the raw product stays finite every result
  // must be bit-identical to the unscaled composition. The Section V
  // pools at 1e14 depth push b to 6e48 on the third hop.
  const double depth = 1e14;
  const CpmmPool xy{PoolId{0}, kX, kY, 100.0 * depth, 200.0 * depth};
  const CpmmPool yz{PoolId{1}, kY, kZ, 300.0 * depth, 200.0 * depth};
  const CpmmPool zx{PoolId{2}, kZ, kX, 200.0 * depth, 400.0 * depth};
  const PoolPath path = *PoolPath::create(
      {Hop{&xy, kX}, Hop{&yz, kY}, Hop{&zx, kZ}});
  double a = 1.0;
  double b = 1.0;
  double c = 0.0;
  for (const Hop& hop : path.hops()) {
    const double x = hop.pool->reserve_of(hop.token_in);
    const double y = hop.pool->reserve_of(hop.token_out());
    const double gamma = hop.pool->gamma();
    c = x * c + gamma * a;
    a = gamma * y * a;
    b = x * b;
  }
  const MobiusCoefficients m = path.compose();
  EXPECT_GE(m.b, 0.5);  // the rescale fired
  EXPECT_LT(m.b, 1.0);
  EXPECT_EQ(m.rate_at_zero(), a / b);
  EXPECT_EQ(m.optimal_input(), (std::sqrt(a * b) - b) / c);
  for (double dx : {0.5e14, 27e14, 100e14}) {
    EXPECT_EQ(m.evaluate(dx), a * dx / (b + c * dx)) << "dx=" << dx;
  }
}

TEST(PathTest, CreateValidatesContinuity) {
  const Fixture f;
  // Y into the zx pool: not a member.
  auto bad = PoolPath::create({Hop{&f.xy, kX}, Hop{&f.zx, kY}});
  EXPECT_FALSE(bad.ok());
  // Discontinuous: X->Y then Z->X.
  auto discontinuous = PoolPath::create({Hop{&f.xy, kX}, Hop{&f.zx, kZ}});
  EXPECT_FALSE(discontinuous.ok());
  EXPECT_FALSE(PoolPath::create({}).ok());
  auto null_pool = PoolPath::create({Hop{nullptr, kX}});
  EXPECT_FALSE(null_pool.ok());
}

TEST(PathTest, StartEndAndCycle) {
  const Fixture f;
  const PoolPath loop = f.loop_from_x();
  EXPECT_EQ(loop.start_token(), kX);
  EXPECT_EQ(loop.end_token(), kX);
  EXPECT_TRUE(loop.is_cycle());

  const PoolPath open = *PoolPath::create({Hop{&f.xy, kX}, Hop{&f.yz, kY}});
  EXPECT_EQ(open.end_token(), kZ);
  EXPECT_FALSE(open.is_cycle());
}

TEST(PathTest, EvaluateMatchesCompose) {
  const Fixture f;
  const PoolPath loop = f.loop_from_x();
  const auto m = loop.compose();
  for (double dx : {0.5, 5.0, 27.0, 100.0}) {
    EXPECT_NEAR(loop.evaluate(dx), m.evaluate(dx), 1e-9) << "dx=" << dx;
  }
}

TEST(PathTest, DualDerivativeMatchesMobius) {
  const Fixture f;
  const PoolPath loop = f.loop_from_x();
  const auto m = loop.compose();
  for (double dx : {0.0, 1.0, 27.0, 80.0}) {
    const math::Dual d = loop.evaluate_dual(dx);
    EXPECT_NEAR(d.value, m.evaluate(dx), 1e-9);
    EXPECT_NEAR(d.deriv, m.derivative(dx), 1e-9);
  }
}

TEST(PathTest, HopAmountsChain) {
  const Fixture f;
  const PoolPath loop = f.loop_from_x();
  const auto quotes = loop.hop_amounts(27.0);
  ASSERT_EQ(quotes.size(), 3u);
  EXPECT_DOUBLE_EQ(quotes[0].amount_in, 27.0);
  EXPECT_DOUBLE_EQ(quotes[1].amount_in, quotes[0].amount_out);
  EXPECT_DOUBLE_EQ(quotes[2].amount_in, quotes[1].amount_out);
  EXPECT_NEAR(quotes[2].amount_out, loop.evaluate(27.0), 1e-12);
}

TEST(OptimizeTest, AnalyticMatchesPaperExample) {
  const Fixture f;
  const OptimalTrade trade = optimize_input_analytic(f.loop_from_x());
  // Paper: input 27.0, profit 16.8 (with the 0.3% fee).
  EXPECT_NEAR(trade.input, 26.96, 0.01);
  EXPECT_NEAR(trade.profit, 16.87, 0.01);
}

TEST(OptimizeTest, BisectionAgreesWithAnalytic) {
  const Fixture f;
  const PoolPath loop = f.loop_from_x();
  const OptimalTrade analytic = optimize_input_analytic(loop);
  auto bisect = optimize_input_bisection(loop);
  ASSERT_TRUE(bisect.ok());
  EXPECT_NEAR(bisect->input, analytic.input, 1e-6);
  EXPECT_NEAR(bisect->profit, analytic.profit, 1e-6);
  EXPECT_GT(bisect->iterations, 0);
}

TEST(OptimizeTest, UnprofitableLoopGivesZero) {
  // Balanced pools: every loop loses the fee.
  CpmmPool xy(PoolId{0}, kX, kY, 100.0, 100.0);
  CpmmPool yz(PoolId{1}, kY, kZ, 100.0, 100.0);
  CpmmPool zx(PoolId{2}, kZ, kX, 100.0, 100.0);
  const PoolPath loop =
      *PoolPath::create({Hop{&xy, kX}, Hop{&yz, kY}, Hop{&zx, kZ}});
  EXPECT_LT(loop.price_product(), 1.0);
  EXPECT_DOUBLE_EQ(optimize_input_analytic(loop).profit, 0.0);
  auto bisect = optimize_input_bisection(loop);
  ASSERT_TRUE(bisect.ok());
  EXPECT_DOUBLE_EQ(bisect->input, 0.0);
  EXPECT_DOUBLE_EQ(bisect->profit, 0.0);
}

TEST(OptimizeTest, ProfitAtOptimumBeatsNeighbors) {
  const Fixture f;
  const PoolPath loop = f.loop_from_x();
  const OptimalTrade trade = optimize_input_analytic(loop);
  const auto profit = [&](double dx) { return loop.evaluate(dx) - dx; };
  EXPECT_GT(trade.profit, profit(trade.input * 0.9));
  EXPECT_GT(trade.profit, profit(trade.input * 1.1));
}

TEST(OptimizePropertyTest, RandomTrianglesAnalyticEqualsBisection) {
  Rng rng(21);
  int profitable_seen = 0;
  for (int trial = 0; trial < 100; ++trial) {
    const CpmmPool xy(PoolId{0}, kX, kY, rng.uniform(50.0, 5000.0),
                      rng.uniform(50.0, 5000.0));
    const CpmmPool yz(PoolId{1}, kY, kZ, rng.uniform(50.0, 5000.0),
                      rng.uniform(50.0, 5000.0));
    const CpmmPool zx(PoolId{2}, kZ, kX, rng.uniform(50.0, 5000.0),
                      rng.uniform(50.0, 5000.0));
    const PoolPath loop =
        *PoolPath::create({Hop{&xy, kX}, Hop{&yz, kY}, Hop{&zx, kZ}});
    const OptimalTrade analytic = optimize_input_analytic(loop);
    auto bisect = optimize_input_bisection(loop);
    ASSERT_TRUE(bisect.ok());
    EXPECT_NEAR(bisect->profit, analytic.profit,
                1e-6 * std::max(1.0, analytic.profit));
    EXPECT_GE(analytic.profit, 0.0);
    if (analytic.profit > 0.0) {
      ++profitable_seen;
      // Marginal return equals one at the optimum (paper's condition).
      EXPECT_NEAR(loop.evaluate_dual(analytic.input).deriv, 1.0, 1e-6);
    }
  }
  EXPECT_GT(profitable_seen, 10);  // random pools are usually imbalanced
}

TEST(OptimizePropertyTest, PostTradePriceProductIsOne) {
  // After executing the optimal trade, the loop's price product collapses
  // to ~1 (no residual arbitrage) — the paper's equilibrium statement.
  const Fixture f;
  CpmmPool xy = f.xy;
  CpmmPool yz = f.yz;
  CpmmPool zx = f.zx;
  const PoolPath loop =
      *PoolPath::create({Hop{&xy, kX}, Hop{&yz, kY}, Hop{&zx, kZ}});
  const OptimalTrade trade = optimize_input_analytic(loop);
  double amount = trade.input;
  amount = xy.apply_swap(kX, amount)->amount_out;
  amount = yz.apply_swap(kY, amount)->amount_out;
  amount = zx.apply_swap(kZ, amount)->amount_out;
  EXPECT_NEAR(amount - trade.input, trade.profit, 1e-9);

  const PoolPath after =
      *PoolPath::create({Hop{&xy, kX}, Hop{&yz, kY}, Hop{&zx, kZ}});
  // No residual arbitrage: the price product drops to <= 1. (It lands
  // slightly *below* 1 because the pool keeps the fee share of the input
  // in its reserves, which the paper's idealized update ignores.)
  EXPECT_LE(after.price_product(), 1.0 + 1e-9);
  EXPECT_GT(after.price_product(), 0.99);
  // And re-optimizing the drained loop finds nothing.
  EXPECT_DOUBLE_EQ(optimize_input_analytic(after).profit, 0.0);
}

TEST(PathTest, LongPathComposition) {
  // Chain of 10 pools; composition must stay finite and consistent.
  std::vector<CpmmPool> pools;
  pools.reserve(10);
  for (std::uint32_t i = 0; i < 10; ++i) {
    pools.emplace_back(PoolId{i}, TokenId{i}, TokenId{i + 1},
                       1000.0 + 100.0 * i, 1200.0 + 50.0 * i);
  }
  std::vector<Hop> hops;
  for (std::uint32_t i = 0; i < 10; ++i) {
    hops.push_back(Hop{&pools[i], TokenId{i}});
  }
  const PoolPath path = *PoolPath::create(hops);
  EXPECT_NEAR(path.evaluate(57.0), path.compose().evaluate(57.0), 1e-6);
}

}  // namespace
}  // namespace arb::amm
