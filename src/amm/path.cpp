#include "amm/path.hpp"

#include <cmath>

#include "math/scalar_solve.hpp"

namespace arb::amm {

MobiusCoefficients MobiusCoefficients::then_hop(double reserve_in,
                                                double reserve_out,
                                                double gamma) const {
  ARB_REQUIRE(reserve_in > 0.0 && reserve_out > 0.0,
              "hop requires positive reserves");
  ARB_REQUIRE(gamma > 0.0 && gamma <= 1.0, "gamma must be in (0, 1]");
  MobiusCoefficients next;
  next.a = gamma * reserve_out * a;
  next.b = reserve_in * b;
  next.c = reserve_in * c + gamma * a;
  // Raw coefficients grow like the product of the path's reserves (a 6-hop
  // ring of 1e27-deep pools reaches 1e162), so a·b in optimal_input would
  // overflow. Every consumer reads the map through ratios, so once b leaves
  // [2^-128, 2^128] all three are scaled by the power of two that puts b
  // back in [0.5, 1). Power-of-two scaling is exact: results are
  // bit-identical wherever the unscaled arithmetic stays finite. The range
  // test keeps frexp/ldexp off typical hops: run on every hop, they made
  // the closed-form MaxMax 1.6–2.3× slower on rings of 3–12 hops.
  if (!(next.b >= 0x1p-128 && next.b <= 0x1p128)) {
    int exponent = 0;
    (void)std::frexp(next.b, &exponent);
    next.a = std::ldexp(next.a, -exponent);
    next.b = std::ldexp(next.b, -exponent);
    next.c = std::ldexp(next.c, -exponent);
  }
  return next;
}

double MobiusCoefficients::evaluate(double input) const {
  ARB_REQUIRE(input >= 0.0, "input must be non-negative");
  return a * input / (b + c * input);
}

double MobiusCoefficients::derivative(double input) const {
  const double denom = b + c * input;
  return a * b / (denom * denom);
}

double MobiusCoefficients::optimal_input(double lambda) const {
  // maximize aΔ/(b+cΔ) − λΔ. Stationarity: ab/(b+cΔ)² = λ
  //   → Δ* = (√(ab/λ) − b)/c. Profitable iff the rate at zero a/b > λ.
  // λ = 1 divides exactly, so the single-start optimum is (√(ab) − b)/c
  // to the bit. Rounding can leave a map that barely pays λ one ulp
  // below 0; the clamp keeps NaN.
  if (a <= lambda * b) return 0.0;
  const double input = (std::sqrt(a * b / lambda) - b) / c;
  return input < 0.0 ? 0.0 : input;
}

Result<PoolPath> PoolPath::create(std::vector<Hop> hops) {
  if (hops.empty()) {
    return make_error(ErrorCode::kInvalidArgument, "empty path");
  }
  for (std::size_t i = 0; i < hops.size(); ++i) {
    const Hop& hop = hops[i];
    if (hop.pool == nullptr) {
      return make_error(ErrorCode::kInvalidArgument,
                        "null pool at hop " + std::to_string(i));
    }
    if (!hop.pool->contains(hop.token_in)) {
      return make_error(ErrorCode::kInvalidArgument,
                        "hop " + std::to_string(i) + " input token " +
                            to_string(hop.token_in) + " not in " +
                            to_string(hop.pool->id()));
    }
    if (i + 1 < hops.size() && hop.token_out() != hops[i + 1].token_in) {
      return make_error(ErrorCode::kInvalidArgument,
                        "path discontinuity between hop " +
                            std::to_string(i) + " and " +
                            std::to_string(i + 1));
    }
  }
  return PoolPath(std::move(hops));
}

MobiusCoefficients PoolPath::compose() const {
  MobiusCoefficients m = MobiusCoefficients::identity();
  for (const Hop& hop : hops_) {
    m = m.then_hop(hop.pool->reserve_of(hop.token_in),
                   hop.pool->reserve_of(hop.token_out()), hop.pool->gamma());
  }
  return m;
}

double PoolPath::evaluate(double input) const {
  double amount = input;
  for (const Hop& hop : hops_) {
    amount = hop.pool->quote(hop.token_in, amount).amount_out;
  }
  return amount;
}

math::Dual PoolPath::evaluate_dual(double input) const {
  math::Dual amount = math::Dual::variable(input);
  for (const Hop& hop : hops_) {
    const math::Dual r_in{hop.pool->reserve_of(hop.token_in)};
    const math::Dual r_out{hop.pool->reserve_of(hop.token_out())};
    amount = swap_out(r_in, r_out, hop.pool->gamma(), amount);
  }
  return amount;
}

double PoolPath::price_product() const {
  double product = 1.0;
  for (const Hop& hop : hops_) {
    product *= hop.pool->relative_price_of(hop.token_in);
  }
  return product;
}

std::vector<SwapQuote> PoolPath::hop_amounts(double input) const {
  std::vector<SwapQuote> quotes;
  quotes.reserve(hops_.size());
  double amount = input;
  for (const Hop& hop : hops_) {
    const SwapQuote q = hop.pool->quote(hop.token_in, amount);
    quotes.push_back(q);
    amount = q.amount_out;
  }
  return quotes;
}

OptimalTrade optimize_input_analytic(const PoolPath& path) {
  const MobiusCoefficients m = path.compose();
  OptimalTrade trade;
  trade.input = m.optimal_input();
  // Extreme reserves can push the closed form out of [0, inf) (NaN from
  // overflowed or underflowed coefficients); hand the caller a non-finite
  // trade to report rather than tripping evaluate()'s precondition.
  if (!(trade.input >= 0.0)) {
    trade.input = trade.output = trade.profit = std::nan("");
    return trade;
  }
  trade.output = m.evaluate(trade.input);
  trade.profit = trade.output - trade.input;
  return trade;
}

Result<OptimalTrade> optimize_input_bisection(const PoolPath& path,
                                              double x_tolerance) {
  const MobiusCoefficients m = path.compose();
  OptimalTrade trade;
  if (m.rate_at_zero() <= 1.0) {
    return trade;  // no profit at any size; optimum is 0
  }
  // Marginal return minus one, exact via dual numbers (the paper's
  // d out/d in = 1 condition).
  const auto marginal_minus_one = [&path](double input) {
    return path.evaluate_dual(input).deriv - 1.0;
  };
  // Marginal at 0 is > 1; it decreases monotonically. Bracket rightwards:
  // the input can never usefully exceed the first hop's reserve scale.
  const double scale =
      path.hops().front().pool->reserve_of(path.start_token());
  auto bracket = math::expand_bracket_right(marginal_minus_one, 0.0, scale * 1e-6,
                                            scale * 1e9);
  if (!bracket) return bracket.error();
  math::ScalarSolveOptions options;
  options.x_tolerance = x_tolerance;
  auto root = math::bisect_root(marginal_minus_one, bracket->first,
                                bracket->second, options);
  if (!root) return root.error();
  trade.input = root->x;
  trade.output = path.evaluate(trade.input);
  trade.profit = trade.output - trade.input;
  trade.iterations = root->iterations;
  return trade;
}

}  // namespace arb::amm
