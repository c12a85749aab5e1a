#pragma once

/// \file replay.hpp
/// Multi-block market replay: a small bot harness that, block after
/// block, perturbs pool prices (exogenous trading flow), re-detects the
/// best arbitrage loop, runs a chosen strategy, and executes the plan.
/// Used by the live-bot example and the strategy-ablation bench.

#include <cstdint>
#include <utility>
#include <vector>

#include "common/result.hpp"
#include "common/rng.hpp"
#include "core/comparison.hpp"
#include "market/price_process.hpp"
#include "market/snapshot.hpp"
#include "sim/engine.hpp"

namespace arb::sim {

struct ReplayConfig {
  std::uint64_t seed = 7;
  std::size_t blocks = 50;
  /// Log-price shock applied to every pool each block (exogenous flow).
  /// Used when use_price_process is false.
  double block_noise_sigma = 0.01;
  /// If true, market dynamics come from market::PriceProcess (GBM
  /// fundamentals + retail flow + CEX re-quotes) instead of plain
  /// per-pool noise with a frozen price feed.
  bool use_price_process = false;
  market::PriceProcessConfig price_process;
  /// Loop length the bot scans for.
  std::size_t loop_length = 3;
  /// Strategy the bot runs on the best loop it finds.
  core::StrategyKind strategy = core::StrategyKind::kMaxMax;
};

struct BlockResult {
  std::size_t block = 0;
  std::size_t arbitrage_loops = 0;  ///< profitable loops seen this block
  double planned_usd = 0.0;         ///< profit promised by the strategy
  double realized_usd = 0.0;        ///< profit realized by execution
};

struct ReplayResult {
  std::vector<BlockResult> blocks;
  double total_realized_usd = 0.0;
};

/// Reserves after a fee-free exogenous trade that moves the pool's
/// internal price by e^shock (reserve0·s, reserve1/s with
/// s = e^{shock/2}; on a CPMM this preserves the constant product).
/// Valid for reserve-based pools (CPMM, StableSwap); concentrated
/// positions move their price state instead — see shocked_price. Shared
/// by run_replay's per-block noise and the streaming runtime's replay
/// event stream.
[[nodiscard]] std::pair<Amount, Amount> shocked_reserves(
    const amm::AnyPool& pool, double shock);

/// Price after a log shock, clamped strictly inside a concentrated
/// position's range (at the edge the position is one-sided and quotes
/// go flat). Precondition: pool is concentrated.
[[nodiscard]] double shocked_price(const amm::AnyPool& pool, double shock);

/// Runs the replay on a copy of the snapshot (the input is not mutated).
[[nodiscard]] Result<ReplayResult> run_replay(
    const market::MarketSnapshot& snapshot, const ReplayConfig& config);

}  // namespace arb::sim
