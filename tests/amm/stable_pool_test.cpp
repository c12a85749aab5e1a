// Tests for stable_pool.hpp and generic_path.hpp.
#include <gtest/gtest.h>

#include "amm/generic_path.hpp"
#include "amm/stable_pool.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"

namespace arb::amm {
namespace {

const TokenId kUsdc{0};
const TokenId kUsdt{1};
const TokenId kWeth{2};

StablePool balanced_pool(double amplification = 100.0, double fee = 0.0) {
  return StablePool(PoolId{0}, kUsdc, kUsdt, 1'000'000.0, 1'000'000.0,
                    amplification, fee);
}

TEST(StablePoolTest, ConstructionValidation) {
  EXPECT_THROW(StablePool(PoolId{0}, kUsdc, kUsdc, 1.0, 1.0),
               PreconditionError);
  EXPECT_THROW(StablePool(PoolId{0}, kUsdc, kUsdt, 0.0, 1.0),
               PreconditionError);
  EXPECT_THROW(StablePool(PoolId{0}, kUsdc, kUsdt, 1.0, 1.0, -5.0),
               PreconditionError);
  EXPECT_THROW(StablePool(PoolId{0}, kUsdc, kUsdt, 1.0, 1.0, 10.0, 1.0),
               PreconditionError);
}

TEST(StablePoolTest, BalancedInvariantIsTotalSupply) {
  // At x = y the invariant D = 2x exactly (both terms balance).
  const StablePool pool = balanced_pool();
  EXPECT_NEAR(pool.invariant(), 2'000'000.0, 1e-3);
}

TEST(StablePoolTest, NearPegSwapIsNearOneToOne) {
  const StablePool pool = balanced_pool();
  const SwapQuote q = pool.quote(kUsdc, 10'000.0);
  // 1% of reserves at A=100 moves the price a few basis points at most.
  EXPECT_GT(q.amount_out, 9'990.0);
  EXPECT_LT(q.amount_out, 10'000.0);
}

TEST(StablePoolTest, MuchDeeperThanConstantProduct) {
  const StablePool stable = balanced_pool();
  const CpmmPool cpmm(PoolId{1}, kUsdc, kUsdt, 1'000'000.0, 1'000'000.0,
                      0.0);
  const double trade = 100'000.0;  // 10% of reserves
  const double stable_out = stable.quote(kUsdc, trade).amount_out;
  const double cpmm_out = cpmm.quote(kUsdc, trade).amount_out;
  EXPECT_GT(stable_out, cpmm_out);
  EXPECT_GT(stable_out, 99'000.0);   // still near peg
  EXPECT_LT(cpmm_out, 91'000.0);     // heavy slippage
}

TEST(StablePoolTest, AmplificationInterpolatesTowardConstantProduct) {
  // As A -> 0 the curve approaches constant product; slippage grows.
  const double trade = 200'000.0;
  double previous_out = 0.0;
  for (const double amplification : {0.2, 2.0, 20.0, 200.0}) {
    const StablePool pool = balanced_pool(amplification);
    const double out = pool.quote(kUsdc, trade).amount_out;
    EXPECT_GT(out, previous_out) << "A=" << amplification;
    previous_out = out;
  }
}

TEST(StablePoolTest, SwapFunctionMonotoneAndConcave) {
  const StablePool pool(PoolId{0}, kUsdc, kUsdt, 800'000.0, 1'200'000.0,
                        50.0);
  double previous_out = 0.0;
  double previous_slope = 1e18;
  for (double dx = 1'000.0; dx <= 1'024'000.0; dx *= 2.0) {
    const double out = pool.quote(kUsdc, dx).amount_out;
    EXPECT_GT(out, previous_out);
    const double slope = (out - previous_out) / (dx / 2.0 + 1e-12);
    EXPECT_LT(slope, previous_slope * (1.0 + 1e-9));
    previous_out = out;
    previous_slope = slope;
  }
}

TEST(StablePoolTest, FeeFreeSwapPreservesInvariant) {
  StablePool pool = balanced_pool(100.0, 0.0);
  const double d_before = pool.invariant();
  ASSERT_TRUE(pool.apply_swap(kUsdc, 50'000.0).ok());
  EXPECT_NEAR(pool.invariant(), d_before, d_before * 1e-9);
}

TEST(StablePoolTest, FeeGrowsInvariant) {
  StablePool pool = balanced_pool(100.0, 0.0004);
  const double d_before = pool.invariant();
  ASSERT_TRUE(pool.apply_swap(kUsdc, 100'000.0).ok());
  EXPECT_GT(pool.invariant(), d_before);
}

TEST(StablePoolTest, RoundTripLosesMoney) {
  StablePool pool = balanced_pool(100.0, 0.0004);
  const double out = pool.apply_swap(kUsdc, 10'000.0)->amount_out;
  const double back = pool.apply_swap(kUsdt, out)->amount_out;
  EXPECT_LT(back, 10'000.0);
}

TEST(StablePoolTest, SpotRateNearOneAtBalance) {
  const StablePool pool = balanced_pool(100.0, 0.0);
  EXPECT_NEAR(pool.spot_rate(kUsdc), 1.0, 1e-3);
}

TEST(StablePoolTest, SpotRateIsTheCurveDerivative) {
  // The spot rate feeds every price-product gate through
  // relative_price_of: it must be the exact −γ·Y'(x₀), not a finite
  // difference of quotes (which was off by 4.9e-8 on the deep pool).
  const StablePool pools[] = {
      StablePool(PoolId{0}, kUsdc, kUsdt, 1e10, 1.02e10, 200.0, 0.0004),
      StablePool(PoolId{1}, kUsdc, kUsdt, 1'500'000.0, 500'000.0, 100.0,
                 0.0004),
      StablePool(PoolId{2}, kUsdc, kUsdt, 3'000.0, 2'000.0, 20.0, 0.001)};
  for (const StablePool& pool : pools) {
    const StableCurve curve = pool.curve();
    const double gamma = 1.0 - pool.fee();
    for (const TokenId token : {kUsdc, kUsdt}) {
      const double exact = -gamma * curve.dy_dx(pool.reserve_of(token));
      EXPECT_NEAR(pool.spot_rate(token), exact, 1e-12 * exact)
          << pool.to_string();
    }
  }
}

TEST(StablePoolTest, ImbalancedPoolPricesTheScarceSideHigher) {
  const StablePool pool(PoolId{0}, kUsdc, kUsdt, 1'500'000.0, 500'000.0,
                        100.0, 0.0);
  // USDT is scarce: selling USDC (abundant) yields less than 1:1.
  EXPECT_LT(pool.spot_rate(kUsdc), 1.0);
  EXPECT_GT(pool.spot_rate(kUsdt), 1.0);
}

// --- generic path / optimizer ---------------------------------------------

TEST(GenericPathTest, MatchesMobiusOnAllCpmmLoop) {
  const CpmmPool xy(PoolId{0}, kUsdc, kUsdt, 100.0, 200.0);
  const CpmmPool yz(PoolId{1}, kUsdt, kWeth, 300.0, 200.0);
  const CpmmPool zx(PoolId{2}, kWeth, kUsdc, 200.0, 400.0);
  const PoolPath exact =
      *PoolPath::create({Hop{&xy, kUsdc}, Hop{&yz, kUsdt}, Hop{&zx, kWeth}});
  const GenericPath generic({swap_fn(xy, kUsdc), swap_fn(yz, kUsdt),
                             swap_fn(zx, kWeth)});
  for (double d : {1.0, 10.0, 27.0, 60.0}) {
    EXPECT_NEAR(generic.evaluate(d), exact.evaluate(d), 1e-9);
  }
  const OptimalTrade analytic = optimize_input_analytic(exact);
  const auto numeric = optimize_input_generic(generic).value();
  EXPECT_NEAR(numeric.input, analytic.input, 1e-4);
  EXPECT_NEAR(numeric.profit, analytic.profit, 1e-6 * analytic.profit);
}

TEST(GenericPathTest, UnprofitableChainReturnsZero) {
  const CpmmPool ab(PoolId{0}, kUsdc, kUsdt, 100.0, 100.0);
  const CpmmPool ba(PoolId{1}, kUsdt, kUsdc, 100.0, 100.0);
  const GenericPath path({swap_fn(ab, kUsdc), swap_fn(ba, kUsdt)});
  const auto trade = optimize_input_generic(path).value();
  EXPECT_DOUBLE_EQ(trade.input, 0.0);
  EXPECT_DOUBLE_EQ(trade.profit, 0.0);
}

TEST(GenericPathTest, MixedStableCpmmLoopOptimizes) {
  // USDC/USDT mispriced in the stable pool vs the two CPMM legs.
  const StablePool stable(PoolId{0}, kUsdc, kUsdt, 1'100'000.0, 900'000.0,
                          100.0, 0.0004);
  const CpmmPool usdt_weth(PoolId{1}, kUsdt, kWeth, 1'830'000.0, 1'000.0);
  const CpmmPool weth_usdc(PoolId{2}, kWeth, kUsdc, 1'000.0, 1'860'000.0);
  const GenericPath loop({swap_fn(stable, kUsdc),
                          swap_fn(usdt_weth, kUsdt),
                          swap_fn(weth_usdc, kWeth)});
  GenericOptimizeOptions options;
  options.initial_scale = 1'000.0;
  const auto trade = optimize_input_generic(loop, options).value();
  EXPECT_GT(trade.profit, 0.0);
  // Marginal return ~1 at the optimum (numeric check).
  const double h = trade.input * 1e-5;
  const double marginal =
      (loop.evaluate(trade.input + h) - loop.evaluate(trade.input - h)) /
      (2.0 * h);
  EXPECT_NEAR(marginal, 1.0, 1e-3);
}

TEST(GenericPathTest, HopInputsChain) {
  const CpmmPool xy(PoolId{0}, kUsdc, kUsdt, 100.0, 200.0);
  const CpmmPool yz(PoolId{1}, kUsdt, kWeth, 300.0, 200.0);
  const GenericPath path({swap_fn(xy, kUsdc), swap_fn(yz, kUsdt)});
  const auto inputs = path.hop_inputs(10.0);
  ASSERT_EQ(inputs.size(), 2u);
  EXPECT_DOUBLE_EQ(inputs[0], 10.0);
  EXPECT_DOUBLE_EQ(inputs[1], xy.quote(kUsdc, 10.0).amount_out);
}

TEST(GenericPathTest, ValidationRejectsBadInputs) {
  EXPECT_THROW(GenericPath({}), PreconditionError);
  EXPECT_THROW(GenericPath({SwapFn{}}), PreconditionError);
  const CpmmPool xy(PoolId{0}, kUsdc, kUsdt, 100.0, 200.0);
  EXPECT_THROW(swap_fn(xy, kWeth), PreconditionError);
  const GenericPath path({swap_fn(xy, kUsdc)});
  EXPECT_THROW((void)path.evaluate(-1.0), PreconditionError);
}

TEST(GenericPathPropertyTest, StableLoopProfitGrowsWithAmplification) {
  // Same mispricing, deeper curve (bigger A) → more extractable value.
  // At low A the stable pool behaves like CPMM and the loop may hold no
  // profit at all (hence >=); at high A it must be strictly profitable.
  double previous = -1.0;
  double last = 0.0;
  for (const double amplification : {1.0, 10.0, 100.0, 1000.0}) {
    const StablePool stable(PoolId{0}, kUsdc, kUsdt, 1'100'000.0,
                            900'000.0, amplification, 0.0004);
    const CpmmPool usdt_weth(PoolId{1}, kUsdt, kWeth, 1'830'000.0, 1'000.0);
    const CpmmPool weth_usdc(PoolId{2}, kWeth, kUsdc, 1'000.0,
                             1'860'000.0);
    const GenericPath loop({swap_fn(stable, kUsdc),
                            swap_fn(usdt_weth, kUsdt),
                            swap_fn(weth_usdc, kWeth)});
    GenericOptimizeOptions options;
    options.initial_scale = 1'000.0;
    const auto trade = optimize_input_generic(loop, options).value();
    EXPECT_GE(trade.profit, previous) << "A=" << amplification;
    previous = trade.profit;
    last = trade.profit;
  }
  EXPECT_GT(last, 0.0);
}

}  // namespace
}  // namespace arb::amm
