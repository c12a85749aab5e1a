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

/// Prices one loop under the scanner config: runs the configured
/// strategy, nets gas, builds the plan and diagnostics. Returns an empty
/// optional when the loop does not clear min_net_profit_usd. Each of the
/// loop's rotations is solved once (MaxPrice/MaxMax pick from them and
/// the diagnostics read them; under Convex only loops that clear the
/// threshold solve them). Exposed so the streaming runtime re-prices
/// dirty loops through exactly the same code path as a full scan.
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
