#include "runtime/fault.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "market/generator.hpp"
#include "runtime/replay_stream.hpp"
#include "runtime/service.hpp"
#include "runtime/validation.hpp"

namespace arb::runtime {
namespace {

constexpr std::uint64_t kFaultSeed = 424242;

market::MarketSnapshot test_snapshot() {
  market::GeneratorConfig gen;
  gen.token_count = 18;
  gen.pool_count = 40;
  return market::generate_snapshot(gen);
}

ServiceConfig service_config() {
  ServiceConfig config;
  config.scanner.loop_lengths = {3};
  config.worker_threads = 2;
  return config;
}

// 250 blocks × 40 pools = a 10k-event stream.
ReplayStreamConfig stream_config() {
  ReplayStreamConfig config;
  config.blocks = 250;
  config.seed = 17;
  return config;
}

// With every rate at zero the injector must be a pure pass-through:
// the emitted sequence is bit-identical to the inner stream.
TEST(FaultInjectorTest, ZeroRateIsBitIdentical) {
  const auto snapshot = test_snapshot();
  ReplayStreamConfig config;
  config.blocks = 25;
  config.seed = 17;
  ReplayUpdateStream direct(snapshot, config);
  ReplayUpdateStream inner(snapshot, config);
  FaultInjector injector(inner, FaultProfile::uniform(0.0, kFaultSeed),
                         snapshot.graph.pool_count());
  std::size_t count = 0;
  while (true) {
    const auto expected = direct.next();
    const auto injected = injector.next();
    ASSERT_EQ(expected.has_value(), injected.has_value());
    if (!expected.has_value()) break;
    EXPECT_EQ(expected->pool, injected->pool);
    EXPECT_EQ(expected->reserve0, injected->reserve0);
    EXPECT_EQ(expected->reserve1, injected->reserve1);
    EXPECT_EQ(expected->liquidity, injected->liquidity);
    EXPECT_EQ(expected->price, injected->price);
    EXPECT_EQ(expected->sequence, injected->sequence);
    ++count;
  }
  EXPECT_EQ(count, 25u * snapshot.graph.pool_count());
  EXPECT_EQ(injector.counts().faults(), 0u);
  EXPECT_EQ(injector.counts().delivered, injector.counts().pulled);
}

// Every fault class fires at a 20% rate over 10k pulls, and the count
// ledger balances exactly: delivered = pulled − dropped + duplicated
// + stale replays (reorders and corruption do not change the count).
TEST(FaultInjectorTest, CountLedgerBalances) {
  const auto snapshot = test_snapshot();
  ReplayUpdateStream inner(snapshot, stream_config());
  FaultInjector injector(inner, FaultProfile::uniform(0.20, kFaultSeed),
                         snapshot.graph.pool_count());
  std::uint64_t delivered = 0;
  while (injector.next()) ++delivered;

  const FaultCounts& counts = injector.counts();
  EXPECT_EQ(counts.pulled, 250u * snapshot.graph.pool_count());
  EXPECT_EQ(counts.delivered, delivered);
  EXPECT_EQ(counts.delivered, counts.pulled - counts.dropped +
                                  counts.duplicated + counts.stale_replayed);
  EXPECT_GT(counts.corrupted, 0u);
  EXPECT_GT(counts.duplicated, 0u);
  EXPECT_GT(counts.dropped, 0u);
  EXPECT_GT(counts.reordered, 0u);
  EXPECT_GT(counts.stale_replayed, 0u);
}

// The headline chaos run: 10k-event streams at 1%, 5% and 20% fault
// rates. The service must survive every one (no error status, no
// crash), keep quarantine bounded, and keep its metric ledger coherent.
TEST(FaultInjectionTest, ServiceSurvivesTenThousandEventStreams) {
  const auto snapshot = test_snapshot();
  for (const double rate : {0.01, 0.05, 0.20}) {
    SCOPED_TRACE("fault rate " + std::to_string(rate) + " seed " +
                 std::to_string(kFaultSeed));
    auto service = ScannerService::start(snapshot, service_config()).value();
    ReplayUpdateStream inner(snapshot, stream_config());
    FaultInjector injector(inner, FaultProfile::uniform(rate, kFaultSeed),
                           snapshot.graph.pool_count());
    std::uint64_t published = 0;
    while (auto event = injector.next()) {
      ASSERT_TRUE(service->publish(*event));
      ++published;
    }
    service->drain();
    EXPECT_TRUE(service->status().ok()) << service->status().error().message;

    const MetricsSnapshot metrics = service->metrics();
    EXPECT_EQ(metrics[Counter::events_ingested], published);
    EXPECT_EQ(metrics[Counter::events_ingested], injector.counts().delivered);
    // Corruption is certain at these rates over 10k events, and every
    // corrupted payload must be rejected, never applied.
    EXPECT_GT(metrics.events_rejected_total(), 0u);
    EXPECT_LE(metrics.events_rejected_total(),
              metrics[Counter::events_ingested]);
    // Quarantine stays bounded by the pool set and the live gauge agrees
    // with the service's own listing.
    const auto quarantined = service->quarantined_pools();
    EXPECT_EQ(metrics[Gauge::pools_quarantined_now], quarantined.size());
    EXPECT_LE(quarantined.size(), snapshot.graph.pool_count());
    EXPECT_GE(metrics[Counter::pools_quarantined],
              metrics[Gauge::pools_quarantined_now] +
                  metrics[Counter::resyncs]);
    // Metrics parity: the per-kind solves and the gate rejects always sum
    // to the total, with quarantine-skipped loops counted in none.
    EXPECT_EQ(metrics[Counter::loops_repriced],
              metrics[Counter::loops_repriced_cpmm] +
                  metrics[Counter::loops_repriced_mixed] +
                  metrics[Counter::loops_gated]);
    // The ranked view stays servable throughout.
    (void)service->opportunities();
    service->stop();
  }
}

// The whole trajectory is a pure function of (stream seed, fault seed,
// profile): two identical runs must agree on every reject counter, the
// quarantine ledger, and the final ranked set.
TEST(FaultInjectionTest, RejectCountsAreDeterministicPerSeed) {
  const auto snapshot = test_snapshot();
  struct RunResult {
    std::array<std::uint64_t, kRejectReasonCount> rejected{};
    std::uint64_t entered = 0;
    std::uint64_t resyncs = 0;
    std::vector<PoolId> quarantined;
    std::vector<std::string> keys;
    std::vector<double> profits;
  };
  auto run = [&snapshot]() {
    auto service = ScannerService::start(snapshot, service_config()).value();
    ReplayUpdateStream inner(snapshot, stream_config());
    FaultInjector injector(inner, FaultProfile::uniform(0.05, kFaultSeed),
                           snapshot.graph.pool_count());
    while (auto event = injector.next()) {
      EXPECT_TRUE(service->publish(*event));
    }
    service->drain();
    EXPECT_TRUE(service->status().ok());
    RunResult result;
    const MetricsSnapshot metrics = service->metrics();
    for (std::size_t r = 0; r < kRejectReasonCount; ++r) {
      result.rejected[r] =
          metrics[rejected_counter(static_cast<RejectReason>(r))];
    }
    result.entered = metrics[Counter::pools_quarantined];
    result.resyncs = metrics[Counter::resyncs];
    result.quarantined = service->quarantined_pools();
    for (const auto& opp : service->opportunities()) {
      result.keys.push_back(opp.cycle.rotation_key());
      result.profits.push_back(opp.net_profit_usd);
    }
    service->stop();
    return result;
  };
  const RunResult first = run();
  const RunResult second = run();
  for (std::size_t r = 0; r < kRejectReasonCount; ++r) {
    EXPECT_EQ(first.rejected[r], second.rejected[r])
        << to_string(static_cast<RejectReason>(r));
  }
  EXPECT_EQ(first.entered, second.entered);
  EXPECT_EQ(first.resyncs, second.resyncs);
  EXPECT_EQ(first.quarantined, second.quarantined);
  EXPECT_EQ(first.keys, second.keys);
  EXPECT_EQ(first.profits, second.profits);
}

// Heavy corruption quarantines pools; a clean tail of fresh events then
// releases every one of them (capped exponential backoff), so the
// steady state after the fault burst is a fully recovered scanner.
TEST(FaultInjectionTest, QuarantinedPoolsRecoverOnCleanData) {
  const auto snapshot = test_snapshot();
  auto service = ScannerService::start(snapshot, service_config()).value();

  FaultProfile profile;
  profile.seed = kFaultSeed;
  profile.corrupt_rate = 0.5;
  ReplayStreamConfig dirty_config;
  dirty_config.blocks = 50;
  dirty_config.seed = 17;
  ReplayUpdateStream dirty(snapshot, dirty_config);
  FaultInjector injector(dirty, profile, snapshot.graph.pool_count());
  while (auto event = injector.next()) {
    ASSERT_TRUE(service->publish(*event));
  }
  service->drain();
  ASSERT_TRUE(service->status().ok());
  const MetricsSnapshot after_burst = service->metrics();
  EXPECT_GT(after_burst[Counter::pools_quarantined], 0u)
      << "corruption burst should have quarantined at least one pool";

  // Clean tail: 300 fresh valid events per pool — beyond the 256-event
  // backoff cap, so every quarantined pool must be released.
  std::uint64_t sequence = 1u << 20;
  for (std::size_t round = 0; round < 300; ++round) {
    for (const amm::AnyPool& pool : snapshot.graph.pools()) {
      PoolUpdateEvent event;
      event.pool = pool.id();
      if (pool.kind() == amm::PoolKind::kConcentrated) {
        event.liquidity = pool.concentrated().liquidity();
        event.price = pool.concentrated().price();
      } else {
        event.reserve0 = pool.reserve0();
        event.reserve1 = pool.reserve1();
      }
      event.sequence = ++sequence;
      ASSERT_TRUE(service->publish(event));
    }
  }
  service->drain();
  EXPECT_TRUE(service->status().ok());
  const MetricsSnapshot metrics = service->metrics();
  EXPECT_EQ(metrics[Gauge::pools_quarantined_now], 0u);
  EXPECT_TRUE(service->quarantined_pools().empty());
  // Every quarantine entry was eventually released as a resync.
  EXPECT_EQ(metrics[Counter::resyncs], metrics[Counter::pools_quarantined]);
  service->stop();
}

}  // namespace
}  // namespace arb::runtime
