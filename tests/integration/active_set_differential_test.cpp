// Active-set differential: the exact Convex rung (core/active_set.hpp)
// against the barrier (solve_flow on the loop's one-cycle instance), the
// MaxMax strategy, its own full enumeration and the derivative-free
// generic solver, over random rings of 2–10 hops mixing CPMM, StableSwap
// and concentrated pools.
//
//  1. ≥2000 random loops, n ∈ 2..8 (5× with ARB_LONG_TESTS=1): the
//     active set answers each, agrees with the barrier to
//     1e-6·max(|a|, |b|, 1), is never below MaxMax, and whenever the
//     certificate accepts, full enumeration finds nothing better.
//  2. A concentrated hop pinned at its range edge (cap 0) gives a zero
//     segment, not an error.
//  3. Uncertified rings of 9 and 10 hops fall to the barrier rung, which
//     agrees with the generic solver.
//  4. Section V: $206.147128, retaining exactly {Y, Z}.
//  5. An oracle for the single-start strategies independent of the
//     segment table: every rotation of every ring in (1), and every
//     MaxMax / MaxPrice opportunity of the 20%/20% mixed market, against
//     the closed form over the CPMM PoolPath (bit-identical) or the
//     bracket search over the pools' own quotes (1e-6·max(|a|, |b|, 1)
//     USD). Convex opportunities' diagnostics read the table's rotations
//     and must match the diagnostics of evaluate_all_rotations bit for
//     bit, on the paper and mixed markets.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "amm/any_pool.hpp"
#include "amm/generic_path.hpp"
#include "amm/path.hpp"
#include "core/active_set.hpp"
#include "core/analysis.hpp"
#include "core/convex.hpp"
#include "core/flow_nlp.hpp"
#include "core/generic_convex.hpp"
#include "core/loop_nlp.hpp"
#include "core/scanner.hpp"
#include "core/single_start.hpp"
#include "graph/cycle.hpp"
#include "graph/token_graph.hpp"
#include "market/generator.hpp"
#include "market/price_feed.hpp"
#include "optim/workspace.hpp"
#include "tests/core/fixtures.hpp"

namespace arb {
namespace {

/// 5x loops when ARB_LONG_TESTS=1 (any non-empty value but "0").
int trial_multiplier() {
  const char* flag = std::getenv("ARB_LONG_TESTS");
  return (flag != nullptr && flag[0] != '\0' && flag[0] != '0') ? 5 : 1;
}

/// |a − b| ≤ 1e-6·max(|a|, |b|, 1): the barrier differentials' bar.
bool agree(double a, double b) {
  return std::abs(a - b) <= 1e-6 * std::max({std::abs(a), std::abs(b), 1.0});
}

/// Which venues a random ring may use.
enum class Mix { kCpmm, kStable, kConcentrated, kAll };

/// A ring t_0 → t_1 → … → t_0 of n pools, one per hop.
struct Ring {
  graph::TokenGraph graph;
  market::CexPriceFeed prices;
  std::vector<TokenId> tokens;
  std::vector<PoolId> pools;

  [[nodiscard]] graph::Cycle loop() const {
    return *graph::Cycle::create(graph, tokens, pools);
  }
};

/// How a random ring is drawn.
struct Shape {
  Mix mix = Mix::kCpmm;
  /// Per-hop log noise of the CEX prices around the pools' mid prices.
  double cex_noise = 0.0;
  /// The loop's log price product (fees included) is log-uniform here.
  double min_margin = 1e-3;
  double max_margin = 0.15;
  /// Per-pool USD depth factor range [1/spread, spread].
  double spread = 10.0;
  /// Instead of noise: every hop pays on its own at CEX prices, by a log
  /// margin uniform in [0.02, 0.3] (the loop's margin is their sum).
  bool every_hop_pays = false;
};

/// Random profitable ring. Each hop's pool gets a random mid price (near
/// 1:1 for StableSwap hops) and a USD depth on its input side: one ring
/// depth in $10k–$2M times a per-pool factor. One CPMM hop is re-priced
/// so the loop's price product (fees included) is exp(margin), and the
/// CEX prices follow the pools' mid prices around the ring, off by the
/// shape's per-hop noise.
Ring random_ring(std::mt19937_64& rng, std::size_t n, const Shape& shape) {
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::normal_distribution<double> normal(0.0, 1.0);
  const auto log_uniform = [&](double lo, double hi) {
    return std::exp(std::log(lo) + unit(rng) * (std::log(hi) - std::log(lo)));
  };
  const Mix mix = shape.mix;

  // Venue per hop; at least one CPMM hop carries the loop's margin.
  std::vector<amm::PoolKind> kinds(n, amm::PoolKind::kCpmm);
  for (std::size_t j = 0; j < n; ++j) {
    const double draw = unit(rng);
    if ((mix == Mix::kStable || mix == Mix::kAll) && draw < 0.35) {
      kinds[j] = amm::PoolKind::kStable;
    } else if ((mix == Mix::kConcentrated || mix == Mix::kAll) &&
               draw > 0.6) {
      kinds[j] = amm::PoolKind::kConcentrated;
    }
  }
  const std::size_t margin_hop = static_cast<std::size_t>(unit(rng) * n) % n;
  kinds[margin_hop] = amm::PoolKind::kCpmm;

  // USD levels of the tokens, walked from the margin hop's output token
  // through every other hop's mid: they size the pools in USD.
  std::vector<double> mid(n), level(n);
  for (std::size_t j = 0; j < n; ++j) {
    mid[j] = kinds[j] == amm::PoolKind::kStable ? 1.0
                                                : log_uniform(0.05, 20.0);
  }
  level[(margin_hop + 1) % n] = log_uniform(0.01, 3000.0);
  for (std::size_t m = 1; m < n; ++m) {
    const std::size_t j = (margin_hop + m) % n;
    level[(j + 1) % n] = level[j] / mid[j];
  }
  mid[margin_hop] = level[margin_hop] / level[(margin_hop + 1) % n];

  Ring ring;
  for (std::size_t j = 0; j < n; ++j) {
    ring.tokens.push_back(ring.graph.add_token("T" + std::to_string(j)));
  }
  // token0 = the hop's input token.
  const double ring_depth_usd = log_uniform(1e4, 2e6);
  for (std::size_t j = 0; j < n; ++j) {
    const TokenId in = ring.tokens[j];
    const TokenId out = ring.tokens[(j + 1) % n];
    const double depth = ring_depth_usd *
                         log_uniform(1.0 / shape.spread, shape.spread) /
                         level[j];
    const double fee = unit(rng) < 0.5 ? 0.003 : 0.0005;
    switch (kinds[j]) {
      case amm::PoolKind::kCpmm:
        ring.pools.push_back(
            ring.graph.add_pool(in, out, depth, depth * mid[j], fee));
        break;
      case amm::PoolKind::kStable:
        ring.pools.push_back(ring.graph.add_stable_pool(
            in, out, depth, depth * log_uniform(0.8, 1.25),
            log_uniform(20.0, 500.0), 0.0004));
        break;
      case amm::PoolKind::kConcentrated: {
        // price = token1 per token0 = mid, range e^{±w} around it; the
        // virtual input-side reserve L/√P equals depth.
        const double w_lo = log_uniform(0.005, 0.5);
        const double w_hi = log_uniform(0.005, 0.5);
        ring.pools.push_back(ring.graph.add_concentrated_pool(
            in, out, depth * std::sqrt(mid[j]), mid[j],
            mid[j] * std::exp(-w_lo), mid[j] * std::exp(w_hi), fee));
        break;
      }
    }
  }
  // Per-hop CEX log noise and the loop's margin.
  std::vector<double> noise(n);
  double margin = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    if (shape.every_hop_pays) {
      const double pays = 0.02 + 0.28 * unit(rng);
      margin += pays;
      noise[j] = pays - std::log(1.0 - ring.graph.pool(ring.pools[j]).fee());
    } else {
      noise[j] = shape.cex_noise * normal(rng);
    }
  }
  if (!shape.every_hop_pays) {
    margin = log_uniform(shape.min_margin, shape.max_margin);
  }

  // Re-price the margin hop so the loop clears by exp(margin).
  const double product = ring.loop().price_product(ring.graph);
  const amm::AnyPool& carrier = ring.graph.pool(ring.pools[margin_hop]);
  EXPECT_TRUE(ring.graph
                  .set_pool_reserves(ring.pools[margin_hop],
                                     carrier.reserve0(),
                                     carrier.reserve1() *
                                         std::exp(margin) / product)
                  .ok());

  // CEX prices along the pools' fee-free spot rates (mids), with noise:
  // P_{j+1} = P_j / mid_j · e^{noise_j}.
  double price = level[0];
  for (std::size_t j = 0; j < n; ++j) {
    ring.prices.set_price(ring.tokens[j], price);
    const amm::AnyPool& pool = ring.graph.pool(ring.pools[j]);
    const double spot_mid =
        pool.relative_price_of(ring.tokens[j]) / (1.0 - pool.fee());
    price = price / spot_mid * std::exp(noise[j]);
  }
  return ring;
}

/// Three families of CEX prices. Near the pools' mids (small noise and
/// margins) the best single-start trade leaves every other token's
/// marginal value above its CEX price, so MaxMax is the Convex optimum
/// and the certificate accepts. When every hop pays on its own at CEX
/// prices (the Section V regime) the optimum retains profit in several
/// tokens and the retaining sets are enumerated.
Ring family_ring(std::mt19937_64& rng, std::size_t n, int trial) {
  Shape shape;
  shape.mix = static_cast<Mix>(trial % 4);
  switch (trial % 3) {
    case 0:
      shape.cex_noise = 0.004;
      break;
    case 1:
      shape.cex_noise = 0.05;
      break;
    default:
      shape.every_hop_pays = true;
      shape.spread = 1.5;
      break;
  }
  return random_ring(rng, n, shape);
}

/// USD value of the balances the loop's quotes are computed from: the
/// (virtual) reserves of CPMM and concentrated hops, the balances of
/// StableSwap ones, both sides at CEX prices.
double quote_depth_usd(const std::vector<core::LoopHopData>& hops) {
  double depth = 0.0;
  for (const core::LoopHopData& hop : hops) {
    const bool stable = hop.kind == core::HopKind::kStable;
    depth += hop.price_in * (stable ? hop.stable_x0 : hop.reserve_in) +
             hop.price_out * (stable ? hop.stable_y0 : hop.reserve_out);
  }
  return depth;
}

/// Rotation s sized by the references the segment table replaced: the
/// Möbius closed form over the loop's CPMM PoolPath, or, with any other
/// venue on the loop, the bracket search over the pools' own quotes,
/// seeded at 1e-3 of the start pool's input-side balance.
amm::OptimalTrade reference_rotation(const graph::TokenGraph& graph,
                                     const graph::Cycle& loop, std::size_t s) {
  if (loop.all_cpmm(graph)) {
    return amm::optimize_input_analytic(loop.path(graph, s));
  }
  const graph::Cycle rotated = loop.rotated(s);
  std::vector<amm::SwapFn> hops;
  for (std::size_t i = 0; i < rotated.length(); ++i) {
    hops.push_back(
        amm::swap_fn(graph.pool(rotated.pools()[i]), rotated.tokens()[i]));
  }
  amm::GenericOptimizeOptions options;
  options.initial_scale = std::max(
      options.initial_scale,
      1e-3 * graph.pool(rotated.pools()[0]).reserve_of(rotated.tokens()[0]));
  auto trade = amm::optimize_input_generic(amm::GenericPath(std::move(hops)),
                                           options);
  if (!trade) {
    ADD_FAILURE() << "bracket search: " << trade.error().message;
    return amm::OptimalTrade{};
  }
  return *trade;
}

/// A single-start outcome against rotation s's reference: the closed form
/// to the bit on all-CPMM loops, the bracket search within
/// 1e-6·max(|a|, |b|, 1) USD otherwise.
void expect_matches_reference(const graph::TokenGraph& graph,
                              const market::CexPriceFeed& prices,
                              const graph::Cycle& loop, std::size_t s,
                              const core::StrategyOutcome& outcome) {
  SCOPED_TRACE("rotation " + std::to_string(s));
  ASSERT_EQ(outcome.start_token, loop.tokens()[s]);
  const amm::OptimalTrade reference = reference_rotation(graph, loop, s);
  const double price = prices.price(loop.tokens()[s]).value();
  if (loop.all_cpmm(graph)) {
    EXPECT_EQ(outcome.input, reference.input);
    EXPECT_EQ(outcome.output, reference.output);
    EXPECT_EQ(outcome.monetized_usd, price * reference.profit);
  } else {
    EXPECT_TRUE(agree(outcome.monetized_usd, price * reference.profit))
        << "table " << outcome.monetized_usd << " vs bracket search "
        << price * reference.profit;
  }
}

TEST(ActiveSetDifferentialTest, AgreesWithBarrierMaxMaxAndEnumeration) {
  std::mt19937_64 rng(20260901);
  const int loops = 2100 * trial_multiplier();
  int certified = 0;
  int enumerated = 0;
  int multi_retain = 0;
  int mixed = 0;
  core::ConvexContext ctx;
  core::FlowContext barrier_ctx;
  for (int trial = 0; trial < loops; ++trial) {
    const std::size_t n = 2 + static_cast<std::size_t>(trial / 4) % 7;
    const Ring ring = family_ring(rng, n, trial);
    const graph::Cycle loop = ring.loop();
    SCOPED_TRACE("trial " + std::to_string(trial) + " n=" +
                 std::to_string(n) + " " + loop.describe(ring.graph));
    ASSERT_GT(loop.price_product(ring.graph), 1.0);
    if (!loop.all_cpmm(ring.graph)) ++mixed;

    auto exact = core::solve_convex(ring.graph, ring.prices, loop, {}, ctx);
    ASSERT_TRUE(exact.ok()) << exact.error().message;
    ASSERT_TRUE(ctx.used_active_set);
    EXPECT_EQ(exact->duality_gap_usd, 0.0);
    EXPECT_EQ(exact->outcome.solver_iterations, 0);
    const double convex = exact->outcome.monetized_usd;
    ctx.certified ? ++certified : ++enumerated;
    int retaining = 0;
    for (const core::TokenProfit& p : exact->outcome.profits) {
      if (p.amount > 0.0) ++retaining;
    }
    if (retaining > 1) ++multi_retain;

    // The barrier on the same program.
    const auto instance =
        core::FlowInstance::from_cycle(ring.graph, ring.prices, loop);
    ASSERT_TRUE(instance.ok());
    const auto barrier = core::solve_flow(*instance, {}, barrier_ctx);
    ASSERT_TRUE(barrier.ok()) << barrier.error().message;
    EXPECT_TRUE(agree(convex, barrier->objective))
        << "active set " << convex << " vs barrier " << barrier->objective;

    // MaxMax is a feasible point of eq. (8), so Convex ≥ MaxMax. Both
    // read the same segment table (this holds by construction; the
    // reference pins below are the independent check), but Convex's
    // outputs are the pools' own quotes, and the concentrated quote
    // subtracts square roots of the virtual price, resolving an amount
    // only to ~1e-12 of the pool's balances: the comparison is 1e-12
    // relative to the USD depth the loop's quotes are taken against.
    const auto max_max =
        core::evaluate_max_max(ring.graph, ring.prices, loop);
    ASSERT_TRUE(max_max.ok());
    const auto hops = core::make_hop_data(ring.graph, ring.prices, loop);
    ASSERT_TRUE(hops.ok());
    EXPECT_GE(convex,
              max_max->monetized_usd -
                  1e-12 * std::max(std::abs(convex), quote_depth_usd(*hops)))
        << "MaxMax " << max_max->monetized_usd;

    // The rotations the Convex solve read off its table are the
    // single-start trades; pin each one against its reference.
    ASSERT_EQ(exact->rotations.size(), n);
    for (std::size_t s = 0; s < n; ++s) {
      expect_matches_reference(ring.graph, ring.prices, loop, s,
                               exact->rotations[s]);
    }

    // A certified loop: enumerating every retaining set finds nothing
    // better than the certified MaxMax trade.
    if (ctx.certified) {
      core::SegmentTable table(*hops);
      const auto full = core::enumerate_active_set(table, &ring.graph);
      ASSERT_TRUE(full.has_value());
      EXPECT_LE(full->profit_usd,
                convex + 1e-12 * std::max(std::abs(convex), 1.0))
          << "enumeration improves a certified loop (retaining mask "
          << full->retaining << ")";
    }
  }
  // The families exercise both halves of the solver and every venue.
  EXPECT_GT(certified, loops / 10);
  EXPECT_GT(enumerated, loops / 10);
  EXPECT_GT(multi_retain, loops / 20);
  EXPECT_GT(mixed, loops / 2);
}

TEST(ActiveSetDifferentialTest, PinnedConcentratedHopGivesZeroSegment) {
  std::mt19937_64 rng(77);
  int pinned = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 2 + static_cast<std::size_t>(trial) % 7;
    Shape shape;
    shape.mix = Mix::kConcentrated;
    shape.cex_noise = 0.05;
    const Ring ring = random_ring(rng, n, shape);
    auto hops = core::make_hop_data(ring.graph, ring.prices, ring.loop());
    ASSERT_TRUE(hops.ok());
    // Pin one concentrated hop at its range edge: no input fits.
    std::size_t k = n;
    for (std::size_t j = 0; j < n; ++j) {
      if ((*hops)[j].kind == core::HopKind::kConcentrated) k = j;
    }
    if (k == n) continue;
    ++pinned;
    (*hops)[k].input_cap = 0.0;
    core::SegmentTable table(*hops);
    const auto solved = core::solve_active_set(table);
    ASSERT_TRUE(solved.has_value()) << "trial " << trial;
    EXPECT_EQ(solved->inputs[k], 0.0) << "trial " << trial;
    EXPECT_EQ(solved->outputs[k], 0.0) << "trial " << trial;
    EXPECT_GE(solved->profit_usd, 0.0) << "trial " << trial;
    // Flow stops at the pinned hop: whatever enters token k is retained.
    const double into_k = solved->outputs[(k + n - 1) % n];
    EXPECT_GE(into_k, 0.0);
  }
  EXPECT_GT(pinned, 50);
}

TEST(ActiveSetDifferentialTest, UncertifiedLongLoopsTakeTheBarrierRung) {
  // Rings of 9 and 10 hops that each pay on their own: the optimum
  // retains in several tokens, the certificate fails, and solve_convex
  // must fall to the barrier rung. Its answer is checked against the
  // full enumeration (exact at any length) on every loop, and against
  // the derivative-free generic solver on the first few — that solver
  // takes seconds per loop at these lengths (tens on StableSwap ones,
  // which it skips).
  std::mt19937_64 rng(9090);
  int uncertified = 0;
  int generic_checked = 0;
  core::ConvexContext ctx;
  optim::SolveWorkspace generic_ws;
  for (int trial = 0; trial < 24 * trial_multiplier(); ++trial) {
    const std::size_t n = 9 + static_cast<std::size_t>(trial) % 2;
    const Ring ring = family_ring(rng, n, 3 * trial + 2);  // every hop pays
    const graph::Cycle loop = ring.loop();
    core::SegmentTable table(
        core::make_hop_data(ring.graph, ring.prices, loop).value());
    if (core::solve_active_set(table).has_value()) continue;  // certified
    ++uncertified;
    SCOPED_TRACE("trial " + std::to_string(trial) + " n=" +
                 std::to_string(n) + " " + loop.describe(ring.graph));

    auto solved = core::solve_convex(ring.graph, ring.prices, loop, {}, ctx);
    ASSERT_TRUE(solved.ok()) << solved.error().message;
    EXPECT_FALSE(ctx.used_active_set);
    EXPECT_FALSE(ctx.certified);
    if (!ctx.used_generic) {
      EXPECT_GT(solved->outcome.solver_iterations, 0);
    }
    const double convex = solved->outcome.monetized_usd;
    // The certificate attempt filled the rotations before the barrier ran.
    ASSERT_EQ(solved->rotations.size(), n);
    for (std::size_t s = 0; s < n; ++s) {
      EXPECT_EQ(solved->rotations[s].input, table.rotation(s).input);
      EXPECT_EQ(solved->rotations[s].output, table.rotation(s).output);
    }

    const auto full = core::enumerate_active_set(table, &ring.graph);
    ASSERT_TRUE(full.has_value());
    EXPECT_TRUE(agree(convex, full->profit_usd))
        << "barrier rung " << convex << " vs enumeration " << full->profit_usd;

    if (generic_checked < 4 && static_cast<Mix>(trial % 4) != Mix::kStable) {
      ++generic_checked;
      auto generic = core::solve_generic_convex(ring.graph, ring.prices, loop,
                                                generic_ws);
      ASSERT_TRUE(generic.ok()) << generic.error().message;
      EXPECT_TRUE(agree(convex, generic->profit_usd))
          << "barrier rung " << convex << " vs generic " << generic->profit_usd;
    }
  }
  EXPECT_GE(uncertified, 15 * trial_multiplier());
  EXPECT_EQ(generic_checked, 4);
}

TEST(ActiveSetDifferentialTest, SectionFiveRetainsExactlyYAndZ) {
  const core::testing::Section5Market m;
  core::ConvexContext ctx;
  const auto solved = core::solve_convex(m.graph, m.prices, m.loop(), {}, ctx);
  ASSERT_TRUE(solved.ok());
  EXPECT_TRUE(ctx.used_active_set);
  EXPECT_FALSE(ctx.certified);  // the optimum retains two tokens
  EXPECT_NEAR(solved->outcome.monetized_usd, 206.147128, 1e-6);
  ASSERT_EQ(solved->outcome.profits.size(), 3u);
  EXPECT_EQ(solved->outcome.profits[0].token, m.x);
  EXPECT_EQ(solved->outcome.profits[0].amount, 0.0);  // X is tight
  EXPECT_GT(solved->outcome.profits[1].amount, 0.0);  // Y retains
  EXPECT_GT(solved->outcome.profits[2].amount, 0.0);  // Z retains

  const auto barrier = core::solve_flow(
      core::FlowInstance::from_cycle(m.graph, m.prices, m.loop()).value());
  ASSERT_TRUE(barrier.ok());
  EXPECT_TRUE(agree(solved->outcome.monetized_usd, barrier->objective));
}

/// The paper market (generator defaults + the paper's pool filter), or
/// the same market with 20% StableSwap and 20% concentrated pools.
market::MarketSnapshot study_market(bool mixed) {
  market::GeneratorConfig gen;
  if (mixed) {
    gen.stable_fraction = 0.2;
    gen.concentrated_fraction = 0.2;
  }
  return market::generate_snapshot(gen).filtered(market::PoolFilter{});
}

TEST(ActiveSetDifferentialTest, ScannedSingleStartMatchesReferences) {
  const market::MarketSnapshot market = study_market(true);
  int mixed = 0;
  for (const core::StrategyKind strategy :
       {core::StrategyKind::kMaxMax, core::StrategyKind::kMaxPrice}) {
    SCOPED_TRACE(std::string(core::to_string(strategy)));
    core::ScannerConfig config;
    config.loop_lengths = {3};
    config.strategy = strategy;
    const auto opportunities =
        core::scan_market(market.graph, market.prices, config).value();
    ASSERT_FALSE(opportunities.empty());
    for (const core::Opportunity& op : opportunities) {
      SCOPED_TRACE(op.cycle.describe(market.graph));
      if (!op.cycle.all_cpmm(market.graph)) ++mixed;
      // The pick among the references: the best monetized rotation
      // (MaxMax) or the highest-priced start token (MaxPrice), first on
      // ties, as the strategies define it.
      std::size_t pick = 0;
      double best = -1.0;
      for (std::size_t s = 0; s < op.cycle.length(); ++s) {
        const TokenId token = op.cycle.tokens()[s];
        const double price = market.prices.price(token).value();
        const double key =
            strategy == core::StrategyKind::kMaxPrice
                ? price
                : price *
                      reference_rotation(market.graph, op.cycle, s).profit;
        if (key > best) {
          best = key;
          pick = s;
        }
      }
      if (strategy == core::StrategyKind::kMaxPrice ||
          op.cycle.all_cpmm(market.graph)) {
        expect_matches_reference(market.graph, market.prices, op.cycle, pick,
                                 op.outcome);
      } else {
        // Two rotations within the bar of each other may swap places.
        EXPECT_TRUE(agree(op.outcome.monetized_usd, best))
            << "MaxMax " << op.outcome.monetized_usd << " vs reference "
            << best;
      }
    }
  }
  EXPECT_GT(mixed, 20);
}

TEST(ActiveSetDifferentialTest, ConvexDiagnosticsReadTheTableRotations) {
  for (const bool mixed : {false, true}) {
    SCOPED_TRACE(mixed ? "mixed market" : "paper market");
    const market::MarketSnapshot market = study_market(mixed);
    core::ScannerConfig config;
    config.loop_lengths = {3};
    config.strategy = core::StrategyKind::kConvexOptimization;
    const auto opportunities =
        core::scan_market(market.graph, market.prices, config).value();
    ASSERT_GT(opportunities.size(), 50u);
    for (const core::Opportunity& op : opportunities) {
      SCOPED_TRACE(op.cycle.describe(market.graph));
      const auto rotations =
          core::evaluate_all_rotations(market.graph, market.prices, op.cycle)
              .value();
      const core::LoopDiagnostics want =
          core::analyze_loop(market.graph, market.prices, op.cycle, rotations)
              .value();
      const core::LoopDiagnostics& got = op.diagnostics;
      EXPECT_EQ(got.length, want.length);
      EXPECT_EQ(got.price_product, want.price_product);
      EXPECT_EQ(got.log_margin, want.log_margin);
      EXPECT_EQ(got.optimal_input, want.optimal_input);
      EXPECT_EQ(got.input_to_reserve_ratio, want.input_to_reserve_ratio);
      EXPECT_EQ(got.best_profit_usd, want.best_profit_usd);
      EXPECT_EQ(got.loop_tvl_usd, want.loop_tvl_usd);
      EXPECT_EQ(got.profit_per_tvl, want.profit_per_tvl);
      EXPECT_EQ(got.bottleneck_tvl_usd, want.bottleneck_tvl_usd);
    }
  }
}

}  // namespace
}  // namespace arb
