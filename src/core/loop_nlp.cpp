#include "core/loop_nlp.hpp"

#include <algorithm>

#include "amm/any_pool.hpp"

namespace arb::core {

double LoopHopData::swap(double d) const {
  if (kind == HopKind::kStable) {
    // Fixed-D closed form in raw units (the stable curve is not
    // scale-invariant): F(d) = γ·(y₀ − Y(x₀ + d)).
    const amm::StableCurve curve{stable_d, stable_ann};
    const double out_raw =
        gamma * std::max(0.0, stable_y0 - curve.y(stable_x0 + d * unit_in));
    return out_raw / unit_out;
  }
  // CPMM on real reserves; for concentrated hops the same formula on the
  // virtual reserves is exactly the in-range V3 swap (the cap constraint
  // keeps iterates in range).
  const double effective = gamma * d;
  return effective * reserve_out / (reserve_in + effective);
}

double LoopHopData::swap_deriv(double d) const {
  if (kind == HopKind::kStable) {
    const amm::StableCurve curve{stable_d, stable_ann};
    return -gamma * curve.dy_dx(stable_x0 + d * unit_in) * unit_in / unit_out;
  }
  const double denom = reserve_in + gamma * d;
  return gamma * reserve_in * reserve_out / (denom * denom);
}

double LoopHopData::swap_deriv2(double d) const {
  if (kind == HopKind::kStable) {
    const amm::StableCurve curve{stable_d, stable_ann};
    return -gamma * curve.d2y_dx2(stable_x0 + d * unit_in) * unit_in *
           unit_in / unit_out;
  }
  const double denom = reserve_in + gamma * d;
  return -2.0 * gamma * gamma * reserve_in * reserve_out /
         (denom * denom * denom);
}

LoopHopData make_edge_kernel(const amm::AnyPool& any, TokenId token_in,
                             TokenId token_out) {
  LoopHopData hop;
  hop.token_in = token_in;
  hop.token_out = token_out;
  hop.pool = any.id();
  switch (any.kind()) {
    case amm::PoolKind::kCpmm: {
      const amm::CpmmPool& pool = any.cpmm();
      hop.kind = HopKind::kCpmm;
      hop.reserve_in = pool.reserve_of(token_in);
      hop.reserve_out = pool.reserve_of(token_out);
      hop.gamma = pool.gamma();
      break;
    }
    case amm::PoolKind::kStable: {
      const amm::StablePool& pool = any.stable();
      const amm::StableCurve curve = pool.curve();
      hop.kind = HopKind::kStable;
      hop.gamma = 1.0 - pool.fee();
      hop.stable_d = curve.d;
      hop.stable_ann = curve.ann;
      hop.stable_x0 = pool.reserve_of(token_in);
      hop.stable_y0 = pool.reserve_of(token_out);
      // Osculating CPMM proxy: reserves (X_p, Y_p) whose CPMM swap
      // matches F'(0) = γ·a and F''(0) = γ·b (a = −Y'(x₀) > 0,
      // b = −Y''(x₀) < 0): X_p = −2γ·a/b, Y_p = a·X_p. Used only by
      // the Möbius chain machinery (interior starts, warm projection);
      // swap()/derivs evaluate the exact closed form.
      {
        const double a = -curve.dy_dx(hop.stable_x0);
        const double b = -curve.d2y_dx2(hop.stable_x0);
        hop.reserve_in = -2.0 * hop.gamma * a / b;
        hop.reserve_out = a * hop.reserve_in;
      }
      break;
    }
    case amm::PoolKind::kConcentrated: {
      const amm::ConcentratedPool& pool = any.concentrated();
      hop.kind = HopKind::kConcentrated;
      hop.gamma = 1.0 - pool.fee();
      const double liq = pool.liquidity();
      const double sp = pool.sqrt_price();
      if (token_in == pool.token0()) {
        // Selling token0: virtual reserves x_v = L/√P, y_v = L·√P;
        // the CPMM formula on them is exactly L·(√P − √P'). In-range
        // input cap: 1/√P + γ·d/L ≤ 1/√lo.
        hop.reserve_in = liq / sp;
        hop.reserve_out = liq * sp;
        hop.input_cap = liq * (1.0 / pool.sqrt_lo() - 1.0 / sp) / hop.gamma;
      } else {
        // Selling token1: x_v = L·√P, y_v = L/√P; cap at √hi.
        hop.reserve_in = liq * sp;
        hop.reserve_out = liq / sp;
        hop.input_cap = liq * (pool.sqrt_hi() - sp) / hop.gamma;
      }
      break;
    }
  }
  return hop;
}

Result<std::vector<LoopHopData>> make_hop_data(
    const graph::TokenGraph& graph, const market::CexPriceFeed& prices,
    const graph::Cycle& cycle, std::size_t start_offset) {
  const graph::Cycle rotated = cycle.rotated(start_offset);
  const std::size_t n = rotated.length();
  std::vector<LoopHopData> hops(n);
  for (std::size_t i = 0; i < n; ++i) {
    const amm::AnyPool& any = graph.pool(rotated.pools()[i]);
    const TokenId token_in = rotated.tokens()[i];
    const TokenId token_out = rotated.tokens()[(i + 1) % n];
    auto price_in = prices.price(token_in);
    if (!price_in) return price_in.error();
    auto price_out = prices.price(token_out);
    if (!price_out) return price_out.error();
    hops[i] = make_edge_kernel(any, token_in, token_out);
    hops[i].price_in = *price_in;
    hops[i].price_out = *price_out;
  }
  return hops;
}

}  // namespace arb::core
