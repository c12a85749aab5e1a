// Chaos differential test: the scanner service under fault injection
// must stay exactly explainable. A mirror EventValidator replays the
// identical faulted event sequence on the side, maintaining a reference
// snapshot of everything the service should have accepted; after the
// storm, the service's ranked set must equal a fresh scan_market of
// that reference with the quarantined pools' loops filtered out —
// valid because the ranking is a strict total order, so a subset of a
// ranked sequence is the ranked sequence of the subset. Run on an
// all-CPMM market and on a mixed StableSwap/concentrated market.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/scanner.hpp"
#include "market/generator.hpp"
#include "runtime/fault.hpp"
#include "runtime/replay_stream.hpp"
#include "runtime/service.hpp"
#include "runtime/validation.hpp"

namespace arb {
namespace {

constexpr std::uint64_t kChaosSeed = 31337;

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

/// Runs one faulted stream through the service and through the mirror
/// validator + reference snapshot, then checks the differential claim.
void run_chaos_differential(const market::MarketSnapshot& snapshot,
                            const core::ScannerConfig& scanner_config,
                            double fault_rate, std::size_t blocks) {
  SCOPED_TRACE("fault rate " + std::to_string(fault_rate) + " seed " +
               std::to_string(kChaosSeed));
  runtime::ServiceConfig config;
  config.scanner = scanner_config;
  config.worker_threads = 2;
  config.max_batch = 32;
  auto service = runtime::ScannerService::start(snapshot, config).value();

  runtime::ReplayStreamConfig stream_config;
  stream_config.blocks = blocks;
  stream_config.seed = 23;
  runtime::ReplayUpdateStream inner(snapshot, stream_config);
  runtime::FaultInjector injector(
      inner, runtime::FaultProfile::uniform(fault_rate, kChaosSeed),
      snapshot.graph.pool_count());

  // The mirror sees the identical delivered sequence in the identical
  // order (the service consumes its queue FIFO), so its quarantine
  // trajectory is the service's by construction.
  market::MarketSnapshot reference = snapshot;
  runtime::EventValidator mirror(reference.graph, config.validation);
  while (auto event = injector.next()) {
    const runtime::EventVerdict verdict = mirror.check(*event);
    if (verdict.accepted) {
      if (event->liquidity > 0.0) {
        ASSERT_TRUE(reference.graph.mutable_pool(event->pool)
                        .set_concentrated_state(event->liquidity,
                                                event->price)
                        .ok());
      } else {
        ASSERT_TRUE(reference.graph
                        .set_pool_reserves(event->pool, event->reserve0,
                                           event->reserve1)
                        .ok());
      }
    }
    ASSERT_TRUE(service->publish(*event));
  }
  service->drain();
  ASSERT_TRUE(service->status().ok()) << service->status().error().message;

  // The service and the mirror agree on who survived.
  const std::vector<PoolId> quarantined = mirror.quarantined_pools();
  EXPECT_EQ(service->quarantined_pools(), quarantined);

  // Differential claim: the incremental ranked set equals a fresh scan
  // of the reference state, minus loops touching quarantined pools.
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
  expect_identical(expected, service->opportunities());
  service->stop();
}

TEST(ChaosDifferentialTest, AllCpmmMarket) {
  market::GeneratorConfig gen;
  gen.token_count = 18;
  gen.pool_count = 40;
  const market::MarketSnapshot snapshot = market::generate_snapshot(gen);
  ASSERT_TRUE(snapshot.graph.all_cpmm());

  core::ScannerConfig scanner;
  scanner.loop_lengths = {3};
  for (const double rate : {0.05, 0.20}) {
    run_chaos_differential(snapshot, scanner, rate, /*blocks=*/100);
  }
}

TEST(ChaosDifferentialTest, MixedVenueMarket) {
  market::GeneratorConfig gen;
  gen.token_count = 20;
  gen.pool_count = 48;
  gen.stable_fraction = 0.2;
  gen.concentrated_fraction = 0.2;
  const market::MarketSnapshot snapshot = market::generate_snapshot(gen);
  ASSERT_FALSE(snapshot.graph.all_cpmm());

  // Convex strategy with warm starts off: the mixed loops route through
  // the generic solver, and every reprice stays bit-comparable to the
  // from-scratch scan.
  core::ScannerConfig scanner;
  scanner.loop_lengths = {3};
  scanner.strategy = core::StrategyKind::kConvexOptimization;
  for (const double rate : {0.05, 0.20}) {
    run_chaos_differential(snapshot, scanner, rate, /*blocks=*/60);
  }
}

// Recovery differential: after the storm, a clean tail releases every
// quarantined pool; the service must then match an unfiltered fresh
// scan of the final reference state — full parity restored.
TEST(ChaosDifferentialTest, FullParityAfterRecovery) {
  market::GeneratorConfig gen;
  gen.token_count = 18;
  gen.pool_count = 40;
  const market::MarketSnapshot snapshot = market::generate_snapshot(gen);

  core::ScannerConfig scanner;
  scanner.loop_lengths = {3};
  runtime::ServiceConfig config;
  config.scanner = scanner;
  config.worker_threads = 2;
  auto service = runtime::ScannerService::start(snapshot, config).value();

  runtime::ReplayStreamConfig stream_config;
  stream_config.blocks = 60;
  stream_config.seed = 23;
  runtime::ReplayUpdateStream inner(snapshot, stream_config);
  runtime::FaultProfile profile;
  profile.seed = kChaosSeed;
  profile.corrupt_rate = 0.4;
  runtime::FaultInjector injector(inner, profile,
                                  snapshot.graph.pool_count());

  market::MarketSnapshot reference = snapshot;
  runtime::EventValidator mirror(reference.graph, config.validation);
  auto feed = [&](const runtime::PoolUpdateEvent& event) {
    if (mirror.check(event).accepted) {
      ASSERT_TRUE(reference.graph
                      .set_pool_reserves(event.pool, event.reserve0,
                                         event.reserve1)
                      .ok());
    }
    ASSERT_TRUE(service->publish(event));
  };
  while (auto event = injector.next()) feed(*event);
  service->drain();
  ASSERT_TRUE(service->status().ok());
  ASSERT_GT(service->metrics()[runtime::Counter::pools_quarantined], 0u)
      << "storm should quarantine at least one pool";

  // Clean tail: 300 fresh events per pool clears the 256-event backoff
  // cap for every pool.
  std::uint64_t sequence = 1u << 20;
  for (std::size_t round = 0; round < 300; ++round) {
    for (const amm::AnyPool& pool : snapshot.graph.pools()) {
      runtime::PoolUpdateEvent event;
      event.pool = pool.id();
      event.reserve0 = pool.reserve0() * (1.0 + 1e-7 * (round + 1));
      event.reserve1 = pool.reserve1();
      event.sequence = ++sequence;
      feed(event);
    }
  }
  service->drain();
  ASSERT_TRUE(service->status().ok());
  EXPECT_TRUE(mirror.quarantined_pools().empty());
  EXPECT_TRUE(service->quarantined_pools().empty());
  expect_identical(
      core::scan_market(reference.graph, reference.prices, scanner).value(),
      service->opportunities());
  service->stop();
}

}  // namespace
}  // namespace arb
