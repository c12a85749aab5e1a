#pragma once

/// \file path.hpp
/// A multi-hop swap path through CPMM pools and its closed-form algebra.
///
/// Composing constant-product swap functions stays inside the Möbius
/// family out(Δ) = a·Δ/(b + c·Δ): if the running composition is m(Δ) and
/// the next hop has reserves (x, y) with fee multiplier γ, then
///
///   γ·y·m(Δ) / (x + γ·m(Δ)) = (γ·y·a)·Δ / (x·b + (x·c + γ·a)·Δ).
///
/// Consequently a whole path — and in particular a whole arbitrage loop —
/// behaves exactly like one virtual pool, and the input maximizing
/// out(Δ) − λ·Δ has the analytic solution Δ* = (√(a·b/λ) − b)/c (0 when
/// a ≤ λ·b). λ = 1 is the single-start trade on a loop (0 when its price
/// product is ≤ 1), λ = P_a/P_b a segment of the Convex active set, and
/// λ the common marginal rate of water-filling. The production solvers
/// read that one formula; optimize_input_analytic (the closed form over a
/// PoolPath) and the paper's bisection on d out/d in = 1 are kept as the
/// tested references.

#include <vector>

#include "amm/pool.hpp"
#include "common/result.hpp"
#include "common/types.hpp"
#include "math/dual.hpp"

namespace arb::amm {

/// Coefficients of out(Δ) = a·Δ/(b + c·Δ), with b > 0, a, c >= 0. The
/// map is defined only up to a common factor: then_hop rescales all three
/// by a power of two whenever b leaves [2^-128, 2^128], so read them as
/// ratios.
struct MobiusCoefficients {
  double a = 1.0;
  double b = 1.0;
  double c = 0.0;

  /// The identity map out(Δ) = Δ.
  [[nodiscard]] static MobiusCoefficients identity() { return {}; }

  /// Composes one CPMM hop *after* this map (reserves of the hop's input
  /// and output side, fee multiplier gamma).
  [[nodiscard]] MobiusCoefficients then_hop(double reserve_in,
                                            double reserve_out,
                                            double gamma) const;

  [[nodiscard]] double evaluate(double input) const;
  [[nodiscard]] double derivative(double input) const;
  /// Marginal rate at zero input: a/b (the loop's price product).
  [[nodiscard]] double rate_at_zero() const { return a / b; }

  /// argmax of evaluate(Δ) − λ·Δ over Δ >= 0: (√(a·b/λ) − b)/c, and 0
  /// when a ≤ λ·b (the map never pays λ). NaN coefficients give NaN, not
  /// the zero trade, so callers can report them.
  [[nodiscard]] double optimal_input(double lambda = 1.0) const;
};

/// One hop: a pool and which of its tokens is the input side.
struct Hop {
  const CpmmPool* pool = nullptr;
  TokenId token_in;

  [[nodiscard]] TokenId token_out() const { return pool->other(token_in); }
};

/// An ordered, validated multi-hop path. Immutable after construction.
class PoolPath {
 public:
  /// Builds a path, checking hop-to-hop token continuity.
  /// Fails with kInvalidArgument on an empty or discontinuous hop list.
  [[nodiscard]] static Result<PoolPath> create(std::vector<Hop> hops);

  [[nodiscard]] const std::vector<Hop>& hops() const { return hops_; }
  [[nodiscard]] std::size_t length() const { return hops_.size(); }
  [[nodiscard]] TokenId start_token() const { return hops_.front().token_in; }
  [[nodiscard]] TokenId end_token() const { return hops_.back().token_out(); }
  /// True when the path returns to its start token (an arbitrage loop).
  [[nodiscard]] bool is_cycle() const { return start_token() == end_token(); }

  /// Closed-form Möbius composition of the whole path.
  [[nodiscard]] MobiusCoefficients compose() const;

  /// Output for a given input, evaluated hop-by-hop (numerically matches
  /// compose().evaluate; kept separate so tests can cross-check).
  [[nodiscard]] double evaluate(double input) const;

  /// Output and exact derivative via dual-number propagation.
  [[nodiscard]] math::Dual evaluate_dual(double input) const;

  /// Product of relative prices along the path; > 1 on a cycle means an
  /// arbitrage opportunity exists (the paper's detection condition).
  [[nodiscard]] double price_product() const;

  /// Per-hop input/output amounts for a given path input.
  [[nodiscard]] std::vector<SwapQuote> hop_amounts(double input) const;

 private:
  explicit PoolPath(std::vector<Hop> hops) : hops_(std::move(hops)) {}
  std::vector<Hop> hops_;
};

/// Result of optimizing the single-input trade on a cyclic path.
struct OptimalTrade {
  double input = 0.0;    ///< optimal Δin (0 when the loop is unprofitable)
  double output = 0.0;   ///< Δout at the optimum
  double profit = 0.0;   ///< output − input, in start-token units
  int iterations = 0;    ///< solver iterations (0 for the analytic route)
};

/// Closed-form optimum (Möbius algebra).
[[nodiscard]] OptimalTrade optimize_input_analytic(const PoolPath& path);

/// The paper's method: bisection on d out/d in − 1 = 0 with geometric
/// bracket expansion. Agrees with the analytic optimum to tolerance.
[[nodiscard]] Result<OptimalTrade> optimize_input_bisection(
    const PoolPath& path, double x_tolerance = 1e-10);

}  // namespace arb::amm
