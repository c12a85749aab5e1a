// Exact-oracle property suite for the non-CPMM venues, mirroring
// testkit/property_oracle_test.cpp: 10k seeded (state, fee, input)
// triples per venue, each checked against the exact integer oracle with
// its sound per-case error bound.
//
//  - StableSwap: the double quote pipeline (cached-D curve + Newton)
//    against the Curve-contract integer pipeline (get_D / get_y with
//    flooring division, 1-unit haircut, output-side fee).
//  - Concentrated liquidity: the double in-range quote against the
//    exact rational on scaled integer (√P, L) state, both orientations,
//    including inputs landing exactly on the range edge.
//
// These oracles are what "proven correct" means for the mixed solver
// fast path: the same quote() surface the analytic hop kernels are
// validated against downstream (solver differential tests) is itself
// pinned to exact integer arithmetic here.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "amm/concentrated_pool.hpp"
#include "amm/pool.hpp"
#include "amm/stable_pool.hpp"
#include "common/rng.hpp"
#include "common/uint256.hpp"
#include "testkit/oracle.hpp"

namespace arb::testkit {
namespace {

constexpr std::uint64_t kSeed = 20260809;
constexpr std::size_t kTriples = 10'000;

/// A near-pegged-to-wildly-depegged stable pair: log-uniform input-side
/// reserve, output side within 2^±16 of it (far beyond any realistic
/// depeg, still inside the oracle's overflow budget).
ExactStableHop random_stable_hop(Rng& rng) {
  ExactStableHop hop;
  hop.reserve_in = random_magnitude(rng, kStableReserveBits);
  const int shift = static_cast<int>(rng.uniform_int(-16, 16));
  U256 out = shift >= 0 ? hop.reserve_in << shift : hop.reserve_in >> -shift;
  const U256 cap = (U256(1) << kStableReserveBits) - U256(1);
  if (out.is_zero()) out = U256(1);
  if (out > cap) out = cap;
  hop.reserve_out = out;
  hop.amplification = random_amplification(rng);
  hop.fee_numerator = random_fee_numerator(rng);
  return hop;
}

// 10k seeded (reserves, A, fee, input) cases: the StablePool double
// quote must land within the oracle's bound of the Curve integer
// pipeline's output.
TEST(VenueOraclePropertyTest, StableQuoteMatchesExactOverTenThousandTriples) {
  Rng rng(kSeed);
  for (std::size_t i = 0; i < kTriples; ++i) {
    const ExactStableHop hop = random_stable_hop(rng);
    const U256 amount = random_magnitude(rng, kStableReserveBits);
    const ExactStableResult exact = exact_stable_out(hop, amount);

    const amm::StablePool pool = real_stable_pool_of(hop, PoolId{0});
    const amm::SwapQuote quote = pool.quote(TokenId{0}, amount.to_double());
    ASSERT_TRUE(within_stable_bound(quote.amount_out, exact))
        << "case " << i << " seed " << kSeed << ": model " << quote.amount_out
        << " vs exact " << exact.amount_out.to_decimal() << " (tolerance "
        << exact.tolerance << ", reserves " << hop.reserve_in.to_decimal()
        << "/" << hop.reserve_out.to_decimal() << ", A "
        << hop.amplification << ", fee " << hop.fee_numerator
        << "/1000, in " << amount.to_decimal() << ")";
  }
}

// The exact oracle itself must respect the StableSwap invariant: with
// the fee retained in the output reserve, D never decreases across a
// swap (up to the integer iterations' unit-scale termination radius).
TEST(VenueOraclePropertyTest, StableOracleRespectsInvariant) {
  Rng rng(kSeed + 1);
  for (std::size_t i = 0; i < 1'000; ++i) {
    const ExactStableHop hop = random_stable_hop(rng);
    const U256 amount = random_magnitude(rng, kStableReserveBits);
    const ExactStableResult exact = exact_stable_out(hop, amount);
    if (exact.amount_out >= hop.reserve_out) continue;  // drained: skip

    const U256 d_before =
        stable_d_exact(hop.reserve_in, hop.reserve_out, hop.amplification);
    const U256 d_after =
        stable_d_exact(hop.reserve_in + amount,
                       hop.reserve_out - exact.amount_out,
                       hop.amplification);
    EXPECT_LE(d_before, d_after + U256(8)) << "case " << i;
  }
}

// The quote reads the cached-D curve (StableCurve) the solver's stable
// kernel evaluates: γ·(y₀ − Y(x₀+Δ)) and quote(Δ) are the same
// arithmetic, so they agree to the bit.
TEST(VenueOraclePropertyTest, StableCurveMatchesQuotePipeline) {
  Rng rng(kSeed + 2);
  for (std::size_t i = 0; i < 2'000; ++i) {
    const ExactStableHop hop = random_stable_hop(rng);
    const amm::StablePool pool = real_stable_pool_of(hop, PoolId{0});
    const amm::StableCurve curve = pool.curve();
    const double x0 = pool.reserve0();
    const double y0 = pool.reserve1();
    const double gamma = 1.0 - pool.fee();
    const double in =
        random_magnitude(rng, kStableReserveBits).to_double();

    const double kernel = gamma * std::max(0.0, y0 - curve.y(x0 + in));
    const double quoted = pool.quote(TokenId{0}, in).amount_out;
    EXPECT_EQ(kernel, quoted) << "case " << i << " A=" << hop.amplification;
  }
}

/// In-range concentrated state: log-uniform L, scaled √-price, an edge
/// strictly on the travel side, and a log-uniform input clamped into
/// the in-range budget (clamping piles mass near the edge — the region
/// the boundary fix cares about).
struct ConcentratedCase {
  ExactConcentratedHop hop;
  U256 amount;
  bool valid = false;
};

ConcentratedCase random_concentrated_case(Rng& rng, bool token0_in) {
  ConcentratedCase c;
  c.hop.token0_in = token0_in;
  c.hop.liquidity = random_magnitude(rng, 72);
  U256 sp = random_magnitude(rng, 48);
  if (sp < U256(2)) sp = U256(2);
  c.hop.sqrt_price = sp;
  const std::uint64_t sp_u = sp.to_u64();
  if (token0_in) {
    c.hop.sqrt_edge = U256(static_cast<std::uint64_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(sp_u - 1))));
  } else {
    const std::uint64_t hi_cap = std::uint64_t{1} << 48;
    if (sp_u + 1 >= hi_cap) return c;
    c.hop.sqrt_edge = U256(static_cast<std::uint64_t>(
        rng.uniform_int(static_cast<std::int64_t>(sp_u + 1),
                        static_cast<std::int64_t>(hi_cap))));
  }
  const U256 cap = concentrated_max_in(c.hop);
  if (cap.is_zero()) return c;
  const U256 overflow_cap = (U256(1) << 72) - U256(1);
  U256 amount = random_magnitude(rng, 72);
  if (amount > cap) amount = cap;
  if (amount > overflow_cap) amount = overflow_cap;
  c.amount = amount;
  c.valid = true;
  return c;
}

// 10k seeded in-range cases, both orientations: the ConcentratedPool
// double quote must land within the oracle's bound of the exact
// rational output.
TEST(VenueOraclePropertyTest,
     ConcentratedQuoteMatchesExactOverTenThousandTriples) {
  Rng rng(kSeed + 3);
  std::size_t checked = 0;
  std::size_t attempts = 0;
  while (checked < kTriples && attempts < 4 * kTriples) {
    const bool token0_in = (attempts++ % 2) == 0;
    const ConcentratedCase c = random_concentrated_case(rng, token0_in);
    if (!c.valid) continue;
    const ExactConcentratedResult exact =
        exact_concentrated_out(c.hop, c.amount);

    const amm::ConcentratedPool pool =
        real_concentrated_pool_of(c.hop, PoolId{0});
    const TokenId token_in = token0_in ? TokenId{0} : TokenId{1};
    const amm::SwapQuote quote = pool.quote(token_in, c.amount.to_double());
    ASSERT_TRUE(within_concentrated_bound(quote.amount_out, exact))
        << "case " << checked << " seed " << kSeed + 3 << ": model "
        << quote.amount_out << " vs exact " << exact.amount_out.to_decimal()
        << " (tolerance " << exact.tolerance << ", L "
        << c.hop.liquidity.to_decimal() << ", sp "
        << c.hop.sqrt_price.to_decimal() << ", edge "
        << c.hop.sqrt_edge.to_decimal() << ", token0_in " << token0_in
        << ", in " << c.amount.to_decimal() << ")";
    ++checked;
  }
  EXPECT_EQ(checked, kTriples);
}

// Inputs sized exactly to the in-range budget land on the tick
// boundary: the quote must emit the whole in-range output (the edge
// clamp), still within the oracle bound, with the right-limit marginal
// rate of zero.
TEST(VenueOraclePropertyTest, ConcentratedEdgeExactInputsStayBounded) {
  Rng rng(kSeed + 4);
  std::size_t checked = 0;
  std::size_t attempts = 0;
  while (checked < 2'000 && attempts < 8'000) {
    const bool token0_in = (attempts++ % 2) == 0;
    ConcentratedCase c = random_concentrated_case(rng, token0_in);
    if (!c.valid) continue;
    const U256 cap = concentrated_max_in(c.hop);
    const U256 overflow_cap = (U256(1) << 72) - U256(1);
    if (cap > overflow_cap) continue;
    c.amount = cap;
    const ExactConcentratedResult exact =
        exact_concentrated_out(c.hop, c.amount);

    const amm::ConcentratedPool pool =
        real_concentrated_pool_of(c.hop, PoolId{0});
    const TokenId token_in = token0_in ? TokenId{0} : TokenId{1};
    const amm::SwapQuote quote = pool.quote(token_in, c.amount.to_double());
    ASSERT_TRUE(within_concentrated_bound(quote.amount_out, exact))
        << "edge case " << checked << " seed " << kSeed + 4 << ": model "
        << quote.amount_out << " vs exact " << exact.amount_out.to_decimal()
        << " (tolerance " << exact.tolerance << ")";
    // The integer cap is the *floor* of the real in-range budget, so the
    // model may keep a sub-unit of range past it (worth up to one input
    // unit at the edge price — far above the oracle tolerance when the
    // cap is tiny). One more integer unit provably crosses the edge:
    // from cap+1 on, the output is flat and the slope zero.
    const amm::SwapQuote plus = pool.quote(token_in, (cap + U256(1)).to_double());
    const amm::SwapQuote beyond =
        pool.quote(token_in, c.amount.to_double() * 2.0 + 2.0);
    EXPECT_EQ(beyond.marginal_rate, 0.0) << "edge case " << checked;
    EXPECT_NEAR(beyond.amount_out, plus.amount_out,
                1e-9 * plus.amount_out + exact.tolerance)
        << "edge case " << checked << ": L " << c.hop.liquidity.to_decimal()
        << " sp " << c.hop.sqrt_price.to_decimal() << " edge "
        << c.hop.sqrt_edge.to_decimal() << " token0_in " << token0_in
        << " cap " << cap.to_decimal();
    ++checked;
  }
  EXPECT_EQ(checked, 2'000u);
}

}  // namespace
}  // namespace arb::testkit
