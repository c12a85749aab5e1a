#include "amm/stable_pool.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/error.hpp"

namespace arb::amm {
namespace {

constexpr int kNewtonIterations = 255;
constexpr double kConvergence = 1e-12;

/// D for two coins: fixed-point iteration of
///   D ← (Ann·S + 2·D_P)·D / ((Ann − 1)·D + 3·D_P),  D_P = D³/(4·x·y),
/// with Ann = A·n² = 4A — the iteration used by the Curve contract,
/// which converges monotonically from D₀ = S.
double solve_d(double x, double y, double amplification) {
  const double s = x + y;
  if (s == 0.0) return 0.0;
  const double ann = 4.0 * amplification;
  double d = s;
  for (int i = 0; i < kNewtonIterations; ++i) {
    const double d_p = d * d * d / (4.0 * x * y);
    const double d_next =
        (ann * s + 2.0 * d_p) * d / ((ann - 1.0) * d + 3.0 * d_p);
    if (std::abs(d_next - d) <= kConvergence * d) return d_next;
    d = d_next;
  }
  return d;
}

}  // namespace

double StableCurve::y(double x) const {
  const double b = x + d / ann - d;
  const double c = d * d * d / (4.0 * ann * x);
  const double r = std::sqrt(b * b + 4.0 * c);
  // y = (−B + √(B²+4C)) / 2; when B > 0 the subtraction cancels, so use
  // the conjugate form 2C / (B + √(B²+4C)) instead.
  return b > 0.0 ? 2.0 * c / (b + r) : 0.5 * (r - b);
}

double StableCurve::dy_dx(double x) const {
  // Implicit differentiation of y² + B·y = C with B' = 1, C' = −C/x:
  //   y'·(2y + B) = −C/x − y.
  const double b = x + d / ann - d;
  const double c = d * d * d / (4.0 * ann * x);
  const double yy = y(x);
  return (-c / x - yy) / (2.0 * yy + b);
}

double StableCurve::d2y_dx2(double x) const {
  // Differentiating once more, with C'' = 2C/x²:
  //   y''·(2y + B) = 2C/x² − 2y'² − 2y'.
  const double b = x + d / ann - d;
  const double c = d * d * d / (4.0 * ann * x);
  const double yy = y(x);
  const double yp = (-c / x - yy) / (2.0 * yy + b);
  return (2.0 * c / (x * x) - 2.0 * yp * yp - 2.0 * yp) / (2.0 * yy + b);
}

StablePool::StablePool(PoolId id, TokenId token0, TokenId token1,
                       Amount reserve0, Amount reserve1,
                       double amplification, double fee)
    : id_(id),
      token0_(token0),
      token1_(token1),
      reserve0_(reserve0),
      reserve1_(reserve1),
      amplification_(amplification),
      fee_(fee) {
  ARB_REQUIRE(token0.valid() && token1.valid() && token0 != token1,
              "stable pool requires two distinct valid tokens");
  ARB_REQUIRE(reserve0 > 0.0 && reserve1 > 0.0,
              "stable pool requires positive reserves");
  ARB_REQUIRE(amplification > 0.0, "amplification must be positive");
  ARB_REQUIRE(fee >= 0.0 && fee < 1.0, "fee must be in [0, 1)");
  invariant_d_ = solve_d(reserve0_, reserve1_, amplification_);
}

bool StablePool::contains(TokenId token) const {
  return token == token0_ || token == token1_;
}

TokenId StablePool::other(TokenId token) const {
  ARB_REQUIRE(contains(token), "token not in pool");
  return token == token0_ ? token1_ : token0_;
}

Amount StablePool::reserve_of(TokenId token) const {
  ARB_REQUIRE(contains(token), "token not in pool");
  return token == token0_ ? reserve0_ : reserve1_;
}

SwapQuote StablePool::quote(TokenId token_in, Amount amount_in) const {
  ARB_REQUIRE(amount_in >= 0.0, "amount_in must be non-negative");
  const double x = reserve_of(token_in);
  const double y = reserve_of(other(token_in));
  const StableCurve at_d = curve();
  const double gamma = 1.0 - fee_;

  // At fixed D the post-swap balance is the curve's closed-form root, so
  // the quote is γ·(y₀ − Y(x₀ + Δ)), the solver kernel to the bit, and
  // its marginal rate the exact −γ·Y'(x₀ + Δ). Zero input buys exactly
  // zero (Y(x₀) itself rounds).
  SwapQuote q;
  q.amount_in = amount_in;
  if (amount_in > 0.0) {
    q.amount_out = gamma * std::max(0.0, y - at_d.y(x + amount_in));
  }
  q.marginal_rate = -gamma * at_d.dy_dx(x + amount_in);
  return q;
}

Result<SwapQuote> StablePool::apply_swap(TokenId token_in, Amount amount_in) {
  const SwapQuote q = quote(token_in, amount_in);
  const TokenId token_out = other(token_in);
  if (q.amount_out >= reserve_of(token_out)) {
    return make_error(ErrorCode::kCapacityExceeded,
                      "stable swap would drain the reserve");
  }
  if (token_in == token0_) {
    reserve0_ += amount_in;
    reserve1_ -= q.amount_out;
  } else {
    reserve1_ += amount_in;
    reserve0_ -= q.amount_out;
  }
  invariant_d_ = solve_d(reserve0_, reserve1_, amplification_);
  return q;
}

double StablePool::spot_rate(TokenId token_in) const {
  return quote(token_in, 0.0).marginal_rate;
}

std::string StablePool::to_string() const {
  char buffer[128];
  std::snprintf(buffer, sizeof(buffer),
                "StablePool{id=%u, %u<->%u, r=(%.6g, %.6g), A=%.6g, "
                "fee=%.4f}",
                id_.value(), token0_.value(), token1_.value(), reserve0_,
                reserve1_, amplification_, fee_);
  return buffer;
}

}  // namespace arb::amm
