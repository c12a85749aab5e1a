#include "amm/generic_path.hpp"

#include <limits>

#include "common/error.hpp"
#include "math/scalar_solve.hpp"

namespace arb::amm {

SwapFn swap_fn(const CpmmPool& pool, TokenId token_in) {
  ARB_REQUIRE(pool.contains(token_in), "token not in pool");
  const double r_in = pool.reserve_of(token_in);
  const double r_out = pool.reserve_of(pool.other(token_in));
  const double gamma = pool.gamma();
  return [r_in, r_out, gamma](double dx) {
    return swap_out(r_in, r_out, gamma, dx);
  };
}

SwapFn swap_fn(const StablePool& pool, TokenId token_in) {
  ARB_REQUIRE(pool.contains(token_in), "token not in pool");
  // Capture the pool by value: the quote is against the snapshot state,
  // matching the CPMM wrapper's semantics.
  return [pool, token_in](double dx) {
    return pool.quote(token_in, dx).amount_out;
  };
}

SwapFn signed_swap_fn(const CpmmPool& pool, TokenId token_in) {
  ARB_REQUIRE(pool.contains(token_in), "token not in pool");
  const double r_in = pool.reserve_of(token_in);
  const double r_out = pool.reserve_of(pool.other(token_in));
  const double gamma = pool.gamma();
  return [r_in, r_out, gamma](double dx) {
    if (dx >= 0.0) return swap_out(r_in, r_out, gamma, dx);
    // Receiving −dx of the input token costs g⁻¹(−dx) of the output
    // token, where g is the reverse swap γ·q·x/(y + γ·q); the pool can
    // emit at most its input-side reserve.
    if (dx <= -r_in) return -std::numeric_limits<double>::infinity();
    return dx * r_out / (gamma * (r_in + dx));
  };
}

SwapFn signed_swap_fn(const StablePool& pool, TokenId token_in) {
  ARB_REQUIRE(pool.contains(token_in), "token not in pool");
  const double x0 = pool.reserve_of(token_in);
  const double y0 = pool.reserve_of(pool.other(token_in));
  const double gamma = 1.0 - pool.fee();
  const StableCurve curve = pool.curve();
  return [pool, token_in, x0, y0, gamma, curve](double dx) {
    if (dx >= 0.0) return pool.quote(token_in, dx).amount_out;
    // Fee on output (Curve convention): the reverse swap that emits −dx
    // credits its full input q to the output-side balance and pays
    // γ·(x₀ − X(y₀ + q)), so q = Y(x₀ + dx/γ) − y₀ by curve symmetry.
    const double depleted = x0 + dx / gamma;
    if (depleted <= 0.0) return -std::numeric_limits<double>::infinity();
    return y0 - curve.y(depleted);
  };
}

GenericPath::GenericPath(std::vector<SwapFn> hops) : hops_(std::move(hops)) {
  ARB_REQUIRE(!hops_.empty(), "generic path needs at least one hop");
  for (const SwapFn& hop : hops_) {
    ARB_REQUIRE(static_cast<bool>(hop), "null hop function");
  }
}

double GenericPath::evaluate(double input) const {
  ARB_REQUIRE(input >= 0.0, "input must be non-negative");
  double amount = input;
  for (const SwapFn& hop : hops_) amount = hop(amount);
  return amount;
}

double GenericPath::evaluate_signed(double input) const {
  double amount = input;
  for (const SwapFn& hop : hops_) {
    if (amount == -std::numeric_limits<double>::infinity()) return amount;
    amount = hop(amount);
  }
  return amount;
}

std::vector<double> GenericPath::hop_inputs(double input) const {
  std::vector<double> inputs;
  inputs.reserve(hops_.size());
  double amount = input;
  for (const SwapFn& hop : hops_) {
    inputs.push_back(amount);
    amount = hop(amount);
  }
  return inputs;
}

Result<OptimalTrade> optimize_input_generic(
    const GenericPath& path, const GenericOptimizeOptions& options) {
  return optimize_input_generic(
      std::function<double(double)>(
          [&path](double d) { return path.evaluate(d); }),
      options);
}

Result<OptimalTrade> optimize_input_generic(
    const std::function<double(double)>& evaluate,
    const GenericOptimizeOptions& options) {
  ARB_REQUIRE(options.initial_scale > 0.0, "initial_scale must be positive");
  const auto profit = [&evaluate](double d) { return evaluate(d) - d; };

  OptimalTrade trade;
  // Find a profitable input, halving down from initial_scale. The profit
  // function is concave with profit(0) = 0, so once profit(hi) > 0 every
  // smaller input is profitable too, and a chain that loses money all
  // the way down to 1e-9·initial_scale has a zero optimum. One tiny
  // probe cannot decide this: many decades below the pools' depth a
  // quote loses its precision to cancellation, and a profitable
  // concentrated-liquidity chain can read negative there.
  double hi = options.initial_scale;
  double previous = profit(hi);
  while (!(previous > 0.0)) {
    hi *= 0.5;
    if (hi < options.initial_scale * 1e-9) return trade;
    previous = profit(hi);
  }

  // Expand until the profit stops increasing: [0, hi] then brackets the
  // concave maximum.
  int guard = 0;
  while (guard++ < 200) {
    const double next = profit(hi * 2.0);
    if (next <= previous) break;
    hi *= 2.0;
    previous = next;
    if (hi > options.max_input) {
      return make_error(ErrorCode::kNumericFailure,
                        "generic optimizer: profit still increasing at "
                        "max_input — hop functions are not concave?");
    }
  }
  hi *= 2.0;

  math::ScalarSolveOptions line;
  line.x_tolerance = options.tolerance * hi;
  const auto peak = math::golden_section_maximize(profit, 0.0, hi, line);
  trade.input = peak.x;
  trade.output = evaluate(peak.x);
  trade.profit = trade.output - trade.input;
  trade.iterations = peak.iterations;
  if (trade.profit <= 0.0) {
    trade = OptimalTrade{};  // numeric residue: report the zero trade
  }
  return trade;
}

}  // namespace arb::amm
