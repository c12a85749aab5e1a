#pragma once

/// \file scanner.hpp
/// The top-level facade: one call from market state to ranked, executable
/// arbitrage opportunities. Composes the pieces a bot author would
/// otherwise wire manually — cycle enumeration, profitability filter,
/// strategy optimization, gas netting, diagnostics, and plan construction.

#include <optional>
#include <vector>

#include "common/result.hpp"
#include "core/analysis.hpp"
#include "core/convex.hpp"
#include "core/gas.hpp"
#include "core/plan.hpp"

namespace arb::core {

struct ScannerConfig {
  /// Loop lengths to enumerate (the paper: 3, appendix: 4).
  std::vector<std::size_t> loop_lengths = {2, 3};
  /// Strategy used to size each opportunity.
  StrategyKind strategy = StrategyKind::kMaxMax;
  /// Opportunities netting less than this (USD, after gas if a gas model
  /// is set) are dropped.
  double min_net_profit_usd = 0.0;
  /// When set, profits are netted against bundle cost and ranking uses
  /// the net value.
  std::optional<GasModel> gas;
  /// Convex strategy only: let the streaming runtime warm-start each
  /// cycle's barrier solve from its previous optimum (see ConvexContext).
  /// The barrier rung runs only for uncertified loops longer than
  /// kActiveSetMaxEnumerated (8, core/active_set.hpp) hops — the active
  /// set answers every other loop exactly — so this affects only those. Off by default so
  /// batch scans and differential tests stay on the single cold-start
  /// arithmetic path.
  bool convex_warm_start = false;
};

/// One ranked, ready-to-execute opportunity.
struct Opportunity {
  graph::Cycle cycle;
  StrategyOutcome outcome;
  ArbitragePlan plan;
  LoopDiagnostics diagnostics;
  /// Monetized profit net of gas (equals outcome.monetized_usd when no
  /// gas model is configured).
  double net_profit_usd = 0.0;

  explicit Opportunity(graph::Cycle c) : cycle(std::move(c)) {}
};

/// One loop priced under one strategy.
struct PricedLoop {
  StrategyOutcome outcome;
  ArbitragePlan plan;
  /// The loop's rotations off its segment table (ConvexSolution::rotations
  /// under Convex, so empty when the price-product gate answered).
  std::vector<StrategyOutcome> rotations;
};

/// The strategies a loop can be priced under: every one but
/// kTraditional, which names no start token (kInvalidArgument). Every
/// entry point that takes a strategy in its config checks it up front,
/// so the config is rejected even when no loop gets priced.
[[nodiscard]] Status check_loop_strategy(StrategyKind strategy);

/// The one strategy dispatch: the scanner and every sim loop call it.
/// Convex: solve_convex (ctx as given) and plan_from_convex. MaxPrice /
/// MaxMax: the pick among the rotations and plan_from_single_start.
/// Fails as check_loop_strategy does on kTraditional.
[[nodiscard]] Result<PricedLoop> price_loop(const graph::TokenGraph& graph,
                                            const market::CexPriceFeed& prices,
                                            const graph::Cycle& loop,
                                            StrategyKind strategy,
                                            ConvexContext& ctx);

/// Prices one loop under the scanner config: price_loop, then gas
/// netting, the threshold and the diagnostics. Returns an empty optional
/// when the loop does not clear min_net_profit_usd. The diagnostics read
/// the rotations price_loop returns, so each is solved once per loop.
/// Exposed so the streaming runtime re-prices dirty loops through exactly
/// the same code path as a full scan.
[[nodiscard]] Result<std::optional<Opportunity>> evaluate_opportunity(
    const graph::TokenGraph& graph, const market::CexPriceFeed& prices,
    const graph::Cycle& loop, const ScannerConfig& config);

/// Context variant: the convex strategy reuses ctx's workspace across
/// calls (and, when ctx.warm is set and config.convex_warm_start is on,
/// warm-starts a barrier-rung solve) and reports the rung in ctx.
/// Numerically identical to the plain overload when warm-starting is off
/// or misses, and always on loops the active set answers.
[[nodiscard]] Result<std::optional<Opportunity>> evaluate_opportunity(
    const graph::TokenGraph& graph, const market::CexPriceFeed& prices,
    const graph::Cycle& loop, const ScannerConfig& config,
    ConvexContext& ctx);

/// Strict total order used to rank opportunities: net profit descending,
/// ties broken by the cycle's canonical rotation key. Because no two
/// distinct cycles share a key, the ranking is fully deterministic — two
/// scans of identical market state produce identical sequences.
[[nodiscard]] bool opportunity_before(const Opportunity& a,
                                      const Opportunity& b);

/// Sorts opportunities with opportunity_before (keys are computed once
/// per element, not once per comparison).
void rank_opportunities(std::vector<Opportunity>& opportunities);

/// Scans the market and returns opportunities sorted by net profit,
/// best first (ties broken deterministically by cycle identity). Loops
/// whose strategy profit does not clear the threshold are omitted.
[[nodiscard]] Result<std::vector<Opportunity>> scan_market(
    const graph::TokenGraph& graph, const market::CexPriceFeed& prices,
    const ScannerConfig& config = {});

}  // namespace arb::core
