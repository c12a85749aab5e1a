#pragma once

// Workload definitions and input generation for the repository
// benchmark. Everything the program under test receives is built here:
// the workload's market snapshot, and the update blocks and route
// queries drawn from the run's seed. The same seed yields the same
// inputs.
//
// The market is the generator's calibrated market for the workload's
// scale, the same for every seed. With a seed-drawn market the loop
// universe, and with it every timing, moves with the draw: on
// mixed-route, median block age was 9.1 ms on one drawn market and
// 5.3 ms on the calibrated one, which would hide a real change behind
// the market lottery.

#include <chrono>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "core/router.hpp"
#include "core/scanner.hpp"
#include "market/generator.hpp"
#include "market/snapshot.hpp"
#include "runtime/event.hpp"
#include "runtime/service.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  arb::market::GeneratorConfig generator;
  arb::core::StrategyKind strategy = arb::core::StrategyKind::kMaxMax;
  bool warm_start = false;
  std::size_t pools_per_block = 16;
  /// One best_execution query after every block (mixed-route); the other
  /// workloads interleave queries by a fixed share of block time.
  bool route_per_block = false;
};

/// The named workload, or nullptr for an unknown name.
const Workload* find_workload(const std::string& name);

arb::market::MarketSnapshot make_market(const Workload& workload);

/// The shipped service defaults, with two worker threads so generator +
/// consumer + workers fill a 4-core machine.
arb::runtime::ServiceConfig service_config(const Workload& workload);

/// Update blocks for the market. Each event re-draws one randomly chosen
/// pool's state as a log-normal shock around that pool's *initial*
/// state, so the stream is stationary: the market keeps its calibrated
/// mispricing however many blocks a run gets through.
class BlockStream {
 public:
  BlockStream(const arb::market::MarketSnapshot& snapshot,
              std::size_t pools_per_block, std::uint64_t seed);

  void next(std::vector<arb::runtime::PoolUpdateEvent>& block);

 private:
  std::vector<arb::amm::AnyPool> initial_;
  std::size_t pools_per_block_;
  std::mt19937_64 rng_;
  std::uint64_t sequence_ = 0;
};

/// Best-execution queries: a hub token (one of the four best-connected
/// tokens) into a random other token, for a fixed USD notional.
class QueryStream {
 public:
  QueryStream(const arb::market::MarketSnapshot& snapshot, std::uint64_t seed);

  arb::core::RouteQuery next();

 private:
  std::vector<arb::TokenId> hubs_;
  std::vector<arb::TokenId> others_;
  std::vector<double> usd_price_;
  std::mt19937_64 rng_;
};

using Clock = std::chrono::steady_clock;

inline double micros(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

inline double seconds_since(Clock::time_point from) {
  return std::chrono::duration<double>(Clock::now() - from).count();
}

/// Nearest-rank quantile (q in [0, 1]) of an unsorted sample; 0 when empty.
double quantile(std::vector<double> values, double q);

/// Peak resident set size of this process, in MB.
double peak_rss_mb();

/// Operations a run attempted and failed, and whether every output check
/// passed. A failure is a publish that returned false, a validator reject
/// on the clean stream, a non-ok service status or a failed call.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
};

/// The ranked set must equal a cold scan_market of the same market: the
/// same loops, ranked in the oracle's profit order, with net profits
/// within 1e-6 relative (floor 1e-6 USD). Only loops whose profits lie
/// within that tolerance of each other may swap ranks, and only loops
/// within it of the profit threshold may be in one set but not the
/// other. Reports the first mismatch on stderr.
bool ranked_set_matches_oracle(const arb::market::MarketSnapshot& snapshot,
                               const arb::core::ScannerConfig& config,
                               const std::vector<arb::core::Opportunity>& ranked);

/// One metric of the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Prints the benchmark's result line: one JSON object, last on stdout.
void print_result(const Tally& tally, const std::vector<Metric>& metrics);

/// Closed-loop end-to-end run (`--trace 0`). Returns the exit code.
int run_end_to_end(const Workload& workload, std::uint64_t seed,
                   double seconds);

/// Traced run printing the per-layer ledger (`--trace 1`).
int run_traced(const Workload& workload, std::uint64_t seed, double seconds);

}  // namespace perfbench
