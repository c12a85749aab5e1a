// Shard-sweep differential suite: the sharded engine's contract is that
// the shard count K is unobservable from the outside. The identical event
// stream — clean and fault-injected — is replayed through services at
// K ∈ {1, 2, 4, 8}; the ranked sets, per-reason reject counts, quarantine
// states and repriced counts must be bit-identical across every K and
// equal a serial reference: a K=1 IncrementalScanner fed event by event
// from a mirror EventValidator, with the quarantine transitions applied
// before each apply(). The K=1 service must also equal a fresh scan_market
// of the mirror reference with quarantined pools' loops filtered out. Run
// on an all-CPMM market and on a mixed StableSwap/concentrated market,
// plus a warm-start-enabled sweep (across K and against the serial
// reference only: warm starts perturb nothing because each shard owns its
// cycles' warm slots exclusively).
//
// The harness pins max_batch = 1 so batch composition is exactly stream
// order regardless of consumer/producer timing — that makes even the
// repriced counters and warm-start trajectories bit-comparable across
// runs. (With larger batches the *results* stay identical but batch
// boundaries — and therefore per-batch counters — depend on thread
// timing; multi-event batch bit-identity is covered deterministically by
// the scanner-level staged-vs-apply tests.)

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/scanner.hpp"
#include "market/generator.hpp"
#include "runtime/fault.hpp"
#include "runtime/incremental_scanner.hpp"
#include "runtime/replay_stream.hpp"
#include "runtime/service.hpp"
#include "runtime/validation.hpp"

namespace arb {
namespace {

constexpr std::uint64_t kFaultSeed = 424242;
constexpr std::uint64_t kStreamSeed = 77;
const std::vector<std::size_t> kShardSweep = {1, 2, 4, 8};

/// Everything observable about one service run.
struct RunResult {
  std::vector<core::Opportunity> opportunities;
  std::array<std::uint64_t, runtime::kRejectReasonCount> rejected{};
  std::vector<PoolId> quarantined;
  std::uint64_t repriced = 0;
  std::vector<std::uint64_t> shard_repriced;
};

/// Exact-equality comparison of two ranked opportunity sets.
void expect_identical(const std::vector<core::Opportunity>& expected,
                      const std::vector<core::Opportunity>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].cycle.rotation_key(), actual[i].cycle.rotation_key())
        << "rank " << i;
    EXPECT_EQ(expected[i].net_profit_usd, actual[i].net_profit_usd)
        << "rank " << i;
  }
}

/// Full observable equality between two runs.
void expect_same_run(const RunResult& expected, const RunResult& actual) {
  expect_identical(expected.opportunities, actual.opportunities);
  EXPECT_EQ(expected.rejected, actual.rejected);
  EXPECT_EQ(expected.quarantined, actual.quarantined);
  EXPECT_EQ(expected.repriced, actual.repriced);
}

/// The suite's event stream: `blocks` replay blocks, optionally passed
/// through the seeded fault injector.
std::vector<runtime::PoolUpdateEvent> stream_events(
    const market::MarketSnapshot& snapshot, double fault_rate,
    std::size_t blocks) {
  runtime::ReplayStreamConfig stream_config;
  stream_config.blocks = blocks;
  stream_config.seed = kStreamSeed;
  runtime::ReplayUpdateStream inner(snapshot, stream_config);
  runtime::UpdateStream* stream = &inner;
  std::unique_ptr<runtime::FaultInjector> injector;
  if (fault_rate > 0.0) {
    injector = std::make_unique<runtime::FaultInjector>(
        inner, runtime::FaultProfile::uniform(fault_rate, kFaultSeed),
        snapshot.graph.pool_count());
    stream = injector.get();
  }
  std::vector<runtime::PoolUpdateEvent> events;
  while (auto event = stream->next()) events.push_back(*event);
  // The clean stream delivers exactly blocks * pool_count (>= 1000)
  // events; the faulted one drops/duplicates a few percent around that.
  EXPECT_GE(events.size(), 900u) << "the sweep is specified over ~1000 events";
  return events;
}

/// Replays the events through a service with `shards` shards and returns
/// the observable outcome.
RunResult run_stream(const market::MarketSnapshot& snapshot,
                     const core::ScannerConfig& scanner_config,
                     std::size_t shards,
                     const std::vector<runtime::PoolUpdateEvent>& events) {
  runtime::ServiceConfig config;
  config.scanner = scanner_config;
  config.worker_threads = 2;
  config.shards = shards;
  config.max_batch = 1;  // batch composition == stream order (see header)
  auto service = runtime::ScannerService::start(snapshot, config).value();
  for (const runtime::PoolUpdateEvent& event : events) {
    EXPECT_TRUE(service->publish(event));
  }
  service->drain();
  EXPECT_TRUE(service->status().ok()) << service->status().error().message;

  RunResult result;
  service->opportunities_into(result.opportunities);
  result.quarantined = service->quarantined_pools();
  const runtime::MetricsSnapshot metrics = service->metrics();
  for (std::size_t r = 0; r < runtime::kRejectReasonCount; ++r) {
    result.rejected[r] = metrics[runtime::rejected_counter(
        static_cast<runtime::RejectReason>(r))];
  }
  result.repriced = metrics[runtime::Counter::loops_repriced];
  result.shard_repriced = metrics.shard_repriced;
  service->stop();
  return result;
}

/// Serial reference: one K=1 scanner, no worker pool, one apply() per
/// event — the accepted event, or an empty batch for a rejected one, as
/// the max_batch = 1 service runs it. Quarantine transitions are applied
/// before each apply(), in stream order.
RunResult run_serial(const market::MarketSnapshot& snapshot,
                     const core::ScannerConfig& scanner_config,
                     const std::vector<runtime::PoolUpdateEvent>& events) {
  auto scanner =
      runtime::IncrementalScanner::create(snapshot, scanner_config).value();
  runtime::EventValidator mirror(snapshot.graph, runtime::ValidationConfig{});
  RunResult result;
  std::vector<runtime::PoolUpdateEvent> batch;
  for (const runtime::PoolUpdateEvent& event : events) {
    const runtime::EventVerdict verdict = mirror.check(event);
    if (verdict.entered_quarantine) scanner.set_quarantined(event.pool, true);
    if (verdict.released_quarantine) {
      scanner.set_quarantined(event.pool, false);
    }
    batch.clear();
    if (verdict.accepted) {
      batch.push_back(event);
    } else {
      ++result.rejected[static_cast<std::size_t>(verdict.reason)];
    }
    auto report = scanner.apply(batch);
    if (!report) {
      ADD_FAILURE() << report.error().message;
      break;
    }
    result.repriced += report->repriced;
  }
  result.opportunities = scanner.collect();
  result.quarantined = mirror.quarantined_pools();
  return result;
}

/// Mirror reference: the accepted-event state and quarantine trajectory
/// the service should end at, replayed on the side (same construction as
/// the chaos differential).
market::MarketSnapshot mirror_reference(
    const market::MarketSnapshot& snapshot,
    const runtime::ValidationConfig& validation,
    const std::vector<runtime::PoolUpdateEvent>& events,
    std::vector<PoolId>& quarantined_out) {
  market::MarketSnapshot reference = snapshot;
  runtime::EventValidator mirror(reference.graph, validation);
  for (const runtime::PoolUpdateEvent& event : events) {
    if (!mirror.check(event).accepted) continue;
    if (event.liquidity > 0.0) {
      EXPECT_TRUE(reference.graph
                      .set_concentrated_state(event.pool, event.liquidity,
                                              event.price)
                      .ok());
    } else {
      EXPECT_TRUE(reference.graph
                      .set_pool_reserves(event.pool, event.reserve0,
                                         event.reserve1)
                      .ok());
    }
  }
  quarantined_out = mirror.quarantined_pools();
  return reference;
}

/// The full sweep: identical streams at every K, cross-compared, compared
/// with the serial reference and (when `check_scan` is set) with the
/// fresh-scan oracle.
void run_shard_sweep(const market::MarketSnapshot& snapshot,
                     const core::ScannerConfig& scanner_config,
                     double fault_rate, std::size_t blocks, bool check_scan) {
  SCOPED_TRACE("fault rate " + std::to_string(fault_rate));
  const std::vector<runtime::PoolUpdateEvent> events =
      stream_events(snapshot, fault_rate, blocks);
  std::vector<RunResult> runs;
  for (const std::size_t k : kShardSweep) {
    SCOPED_TRACE("shards " + std::to_string(k));
    runs.push_back(run_stream(snapshot, scanner_config, k, events));
    if (runs.back().shard_repriced.size() != k) {
      ADD_FAILURE() << "expected " << k << " shard counters";
      return;
    }
  }
  const RunResult& base = runs.front();
  for (std::size_t i = 1; i < runs.size(); ++i) {
    SCOPED_TRACE("K=" + std::to_string(kShardSweep[i]) + " vs K=1");
    expect_same_run(base, runs[i]);
    // The per-shard counters partition the global one.
    std::uint64_t shard_total = 0;
    for (const std::uint64_t n : runs[i].shard_repriced) shard_total += n;
    EXPECT_EQ(shard_total, runs[i].repriced);
  }
  {
    SCOPED_TRACE("serial apply vs K=1 service");
    expect_same_run(run_serial(snapshot, scanner_config, events), base);
  }
  if (!check_scan) return;

  std::vector<PoolId> quarantined;
  const market::MarketSnapshot reference = mirror_reference(
      snapshot, runtime::ValidationConfig{}, events, quarantined);
  EXPECT_EQ(base.quarantined, quarantined);
  std::unordered_set<std::uint32_t> dead;
  for (const PoolId pool : quarantined) dead.insert(pool.value());
  auto expected =
      core::scan_market(reference.graph, reference.prices, scanner_config)
          .value();
  std::erase_if(expected, [&dead](const core::Opportunity& op) {
    return std::any_of(op.cycle.pools().begin(), op.cycle.pools().end(),
                       [&dead](PoolId pool) {
                         return dead.count(pool.value()) != 0;
                       });
  });
  expect_identical(expected, base.opportunities);
}

TEST(ShardDifferentialTest, AllCpmmMarket) {
  market::GeneratorConfig gen;
  gen.token_count = 18;
  gen.pool_count = 40;
  const market::MarketSnapshot snapshot = market::generate_snapshot(gen);
  ASSERT_TRUE(snapshot.graph.all_cpmm());

  core::ScannerConfig scanner;
  scanner.loop_lengths = {3};
  // 40 pools x 25 blocks = 1000 clean events; the faulted replay pulls
  // the same stream through the injector.
  for (const double rate : {0.0, 0.10}) {
    run_shard_sweep(snapshot, scanner, rate, /*blocks=*/25,
                    /*check_scan=*/true);
  }
}

TEST(ShardDifferentialTest, MixedVenueMarket) {
  market::GeneratorConfig gen;
  gen.token_count = 20;
  gen.pool_count = 48;
  gen.stable_fraction = 0.2;
  gen.concentrated_fraction = 0.2;
  const market::MarketSnapshot snapshot = market::generate_snapshot(gen);
  ASSERT_FALSE(snapshot.graph.all_cpmm());

  // Convex with warm starts off keeps every reprice bit-comparable to
  // the from-scratch scan (the K=1 parity the chaos suite established).
  core::ScannerConfig scanner;
  scanner.loop_lengths = {3};
  scanner.strategy = core::StrategyKind::kConvexOptimization;
  for (const double rate : {0.0, 0.10}) {
    run_shard_sweep(snapshot, scanner, rate, /*blocks=*/21,
                    /*check_scan=*/true);
  }
}

TEST(ShardDifferentialTest, WarmStartsIdenticalAcrossShards) {
  market::GeneratorConfig gen;
  gen.token_count = 18;
  gen.pool_count = 40;
  const market::MarketSnapshot snapshot = market::generate_snapshot(gen);

  // Warm starts make a barrier solve depend on the cycle's *own*
  // history, which shards preserve exactly (exclusive slot ownership) and
  // the pinned batching keeps identical across runs — so the sweep must
  // still agree across K and with the serial reference. Length-3 loops
  // never reach the barrier (the active set prices them exactly, with no
  // warm state), so the ranked set must also match a fresh cold scan.
  core::ScannerConfig scanner;
  scanner.loop_lengths = {3};
  scanner.strategy = core::StrategyKind::kConvexOptimization;
  scanner.convex_warm_start = true;
  for (const double rate : {0.0, 0.10}) {
    run_shard_sweep(snapshot, scanner, rate, /*blocks=*/25,
                    /*check_scan=*/true);
  }
}

}  // namespace
}  // namespace arb
