#pragma once

/// \file stable_pool.hpp
/// A Curve-style StableSwap pool (two coins, amplification A).
///
/// The paper studies constant-product pools only; real DEX arbitrage
/// loops routinely cross StableSwap pools too, whose near-constant-sum
/// region around balance makes them far deeper for pegged pairs. The
/// invariant (n = 2 coins):
///
///   A·n²·(x + y) + D  =  A·n²·D + D³ / (n²·x·y)
///
/// interpolates between constant-sum (A → ∞) and constant-product
/// (A → 0). D has no closed form and is solved by the fixed-point
/// iteration the Curve contract uses, once per reserve state; at that
/// fixed D the post-swap balance is the positive root of a quadratic
/// (StableCurve), so quotes and their marginal rates are closed form.
/// The swap function stays strictly increasing and strictly concave, so
/// every optimizer in this library that relies only on those properties
/// (bisection / golden-section / the generic path optimizer) works on
/// it unchanged — which is exactly what the stable-pool ablation shows.

#include <string>

#include "amm/pool.hpp"
#include "common/result.hpp"
#include "common/types.hpp"

namespace arb::amm {

/// Closed-form view of the two-coin StableSwap curve at a *fixed*
/// invariant D. Given the input-side balance x, the output-side balance
/// is the positive root of
///
///   y² + B(x)·y = C(x),   B = x + D/Ann − D,   C = D³/(4·Ann·x),
///
/// with Ann = A·n² = 4A. The root and its first two derivatives have
/// closed forms, so barrier-solver iterations over a stable hop need no
/// inner Newton loop. `y()` uses the cancellation-safe branch of the
/// quadratic formula (B can exceed √(B²+4C) − B by many digits when the
/// pool is lopsided).
struct StableCurve {
  double d = 0.0;    ///< invariant D
  double ann = 0.0;  ///< A·n² = 4A

  /// Output-side balance at input-side balance `x` (> 0).
  [[nodiscard]] double y(double x) const;
  /// dy/dx < 0: the output balance falls as the input balance grows.
  [[nodiscard]] double dy_dx(double x) const;
  /// d²y/dx² > 0: y(x) is convex, so the swap function is concave.
  [[nodiscard]] double d2y_dx2(double x) const;
};

class StablePool {
 public:
  /// Preconditions: distinct valid tokens, positive reserves,
  /// amplification > 0, fee in [0, 1).
  StablePool(PoolId id, TokenId token0, TokenId token1, Amount reserve0,
             Amount reserve1, double amplification = 100.0,
             double fee = 0.0004);

  [[nodiscard]] PoolId id() const { return id_; }
  [[nodiscard]] TokenId token0() const { return token0_; }
  [[nodiscard]] TokenId token1() const { return token1_; }
  [[nodiscard]] Amount reserve0() const { return reserve0_; }
  [[nodiscard]] Amount reserve1() const { return reserve1_; }
  [[nodiscard]] double amplification() const { return amplification_; }
  [[nodiscard]] double fee() const { return fee_; }

  [[nodiscard]] bool contains(TokenId token) const;
  [[nodiscard]] TokenId other(TokenId token) const;
  [[nodiscard]] Amount reserve_of(TokenId token) const;

  /// The StableSwap invariant D at current reserves. Computed once per
  /// reserve state (constructor / apply_swap) and cached, so quotes and
  /// the solver kernel never re-run the D Newton.
  [[nodiscard]] double invariant() const { return invariant_d_; }

  /// Fixed-D closed-form curve at the current reserve state: the quote's
  /// and the solvers' stable-hop kernel.
  [[nodiscard]] StableCurve curve() const {
    return StableCurve{invariant_d_, 4.0 * amplification_};
  }

  /// Quotes a swap without mutating state (fee charged on the output,
  /// as Curve does): γ·(y₀ − Y(x₀ + Δ)) on curve(), bit-identical to the
  /// solver's stable kernel, with the exact marginal rate −γ·Y'(x₀ + Δ).
  /// Preconditions: contains(token_in), amount_in >= 0.
  [[nodiscard]] SwapQuote quote(TokenId token_in, Amount amount_in) const;

  /// Executes a swap. The fee share of the output stays in the pool
  /// (accrues to LPs), so the invariant never decreases.
  [[nodiscard]] Result<SwapQuote> apply_swap(TokenId token_in,
                                             Amount amount_in);

  /// Marginal rate at zero input: −γ·Y'(x₀), exact.
  [[nodiscard]] double spot_rate(TokenId token_in) const;

  /// Relative price of `token_in` in units of the other token at zero
  /// trade size (the paper's p_ij, fee included). Same quantity as
  /// spot_rate; named to match CpmmPool's surface for AnyPool dispatch.
  [[nodiscard]] double relative_price_of(TokenId token_in) const {
    return spot_rate(token_in);
  }

  [[nodiscard]] std::string to_string() const;

 private:
  PoolId id_;
  TokenId token0_;
  TokenId token1_;
  Amount reserve0_;
  Amount reserve1_;
  double amplification_;
  double fee_;
  /// Cached D for the current reserves; refreshed whenever they change.
  double invariant_d_;
};

}  // namespace arb::amm
