#include "runtime/service.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "core/scanner.hpp"
#include "market/generator.hpp"
#include "runtime/replay_stream.hpp"
#include "runtime/routing_service.hpp"
#include "tests/core/fixtures.hpp"

namespace arb::runtime {
namespace {

market::MarketSnapshot test_snapshot() {
  market::GeneratorConfig gen;
  gen.token_count = 18;
  gen.pool_count = 40;
  return market::generate_snapshot(gen);
}

TEST(ScannerServiceTest, ConvergesToFullScanOfFinalState) {
  const auto snapshot = test_snapshot();
  ServiceConfig config;
  config.scanner.loop_lengths = {3};
  config.worker_threads = 2;
  config.max_batch = 16;
  auto service = ScannerService::start(snapshot, config).value();

  // Stream three blocks of updates; track the final absolute state on
  // the side.
  market::MarketSnapshot reference = snapshot;
  ReplayStreamConfig stream_config;
  stream_config.blocks = 3;
  stream_config.seed = 21;
  ReplayUpdateStream stream(snapshot, stream_config);
  std::size_t published = 0;
  while (auto event = stream.next()) {
    ASSERT_TRUE(reference.graph
                    .set_pool_reserves(event->pool, event->reserve0,
                                       event->reserve1)
                    .ok());
    ASSERT_TRUE(service->publish(*event));
    ++published;
  }
  EXPECT_EQ(published, 3u * snapshot.graph.pool_count());
  service->drain();
  ASSERT_TRUE(service->status().ok());

  // Regardless of how events were batched/coalesced on the way, the
  // final ranked set must equal a from-scratch scan of the final state.
  const auto full =
      core::scan_market(reference.graph, reference.prices, config.scanner)
          .value();
  const auto incremental = service->opportunities();
  ASSERT_EQ(full.size(), incremental.size());
  for (std::size_t i = 0; i < full.size(); ++i) {
    EXPECT_EQ(full[i].cycle.rotation_key(),
              incremental[i].cycle.rotation_key());
    EXPECT_EQ(full[i].net_profit_usd, incremental[i].net_profit_usd);
  }

  const MetricsSnapshot metrics = service->metrics();
  EXPECT_EQ(metrics[Counter::events_ingested], published);
  EXPECT_GE(metrics[Counter::batches], 1u);
  EXPECT_GT(metrics[Counter::loops_repriced], 0u);
  EXPECT_EQ(metrics[Latency::reprice].samples, metrics[Counter::batches]);
  EXPECT_GT(metrics[Latency::reprice].p50_us, 0.0);
  EXPECT_LE(metrics[Latency::reprice].p50_us,
            metrics[Latency::reprice].max_us);
  service->stop();
}

// Gate rejects are counted as loops_gated, never as per-kind solves: a
// market with consistent prices fails the price-product gate in both
// orientations, so no per-kind latency sample may appear.
TEST(ScannerServiceTest, GateRejectsAreNotSolves) {
  const core::testing::NoArbMarket m;
  market::MarketSnapshot snapshot;
  snapshot.graph = m.graph;
  snapshot.prices = m.prices;
  ServiceConfig config;
  config.scanner.loop_lengths = {3};
  config.worker_threads = 1;
  auto service = ScannerService::start(snapshot, config).value();

  // Scaling both reserves keeps the internal prices consistent.
  const amm::AnyPool& pool = snapshot.graph.pool(PoolId{0});
  PoolUpdateEvent event;
  event.pool = pool.id();
  event.reserve0 = pool.reserve0() * 1.01;
  event.reserve1 = pool.reserve1() * 1.01;
  event.sequence = 1;
  ASSERT_TRUE(service->publish(event));
  service->drain();
  ASSERT_TRUE(service->status().ok());

  const MetricsSnapshot metrics = service->metrics();
  EXPECT_EQ(metrics[Counter::loops_gated], 2u);  // both orientations
  EXPECT_EQ(metrics[Counter::loops_repriced], 2u);
  EXPECT_EQ(metrics[Counter::loops_repriced_cpmm], 0u);
  EXPECT_EQ(metrics[Counter::loops_repriced_mixed], 0u);
  EXPECT_EQ(metrics[Latency::cpmm_reprice].samples, 0u);
  EXPECT_EQ(metrics[Latency::mixed_reprice].samples, 0u);
  EXPECT_EQ(metrics[Latency::reprice].samples, metrics[Counter::batches]);
  service->stop();
}

TEST(ScannerServiceTest, PublishAfterStopIsRejected) {
  const auto snapshot = test_snapshot();
  ServiceConfig config;
  config.scanner.loop_lengths = {3};
  config.worker_threads = 1;
  auto service = ScannerService::start(snapshot, config).value();
  service->stop();
  service->stop();  // idempotent
  PoolUpdateEvent event;
  event.pool = PoolId{0};
  event.reserve0 = 1.0;
  event.reserve1 = 1.0;
  EXPECT_FALSE(service->publish(event));
}

// Default contract since the validation stage landed: a malformed event
// is rejected and counted, and the service keeps consuming.
TEST(ScannerServiceTest, RejectsBadEventAndContinues) {
  const auto snapshot = test_snapshot();
  ServiceConfig config;
  config.scanner.loop_lengths = {3};
  config.worker_threads = 1;
  auto service = ScannerService::start(snapshot, config).value();

  PoolUpdateEvent bad;
  bad.pool = PoolId{static_cast<PoolId::underlying_type>(
      snapshot.graph.pool_count() + 7)};
  bad.reserve0 = 1.0;
  bad.reserve1 = 1.0;
  ASSERT_TRUE(service->publish(bad));
  service->drain();
  EXPECT_TRUE(service->status().ok());
  const MetricsSnapshot metrics = service->metrics();
  EXPECT_EQ(metrics[rejected_counter(RejectReason::kUnknownPool)], 1u);

  // A good event after the bad one still lands.
  PoolUpdateEvent good;
  good.pool = PoolId{0};
  good.reserve0 = snapshot.graph.pool(PoolId{0}).reserve0() * 1.01;
  good.reserve1 = snapshot.graph.pool(PoolId{0}).reserve1();
  good.sequence = 1;
  ASSERT_TRUE(service->publish(good));
  service->drain();
  EXPECT_TRUE(service->status().ok());
  EXPECT_GE(service->metrics()[Counter::batches], 1u);
  service->stop();
}

// Reserves the validator accepts but the solver cannot price: the
// closed-form optimum of the Section V loop through (1e-300, 1e20) is not
// finite. Every strategy must stop the service with the typed numeric
// failure rather than throw on a worker thread.
TEST(ScannerServiceTest, ExtremeReservesStopWithNumericFailure) {
  const core::testing::Section5Market m;
  market::MarketSnapshot snapshot;
  snapshot.graph = m.graph;
  snapshot.prices = m.prices;
  for (const core::StrategyKind strategy :
       {core::StrategyKind::kMaxMax, core::StrategyKind::kMaxPrice,
        core::StrategyKind::kConvexOptimization}) {
    SCOPED_TRACE(core::to_string(strategy));
    ServiceConfig config;
    config.scanner.loop_lengths = {3};
    config.scanner.strategy = strategy;
    config.worker_threads = 1;
    auto service = ScannerService::start(snapshot, config).value();
    PoolUpdateEvent event;
    event.pool = m.xy;
    event.reserve0 = 1e-300;
    event.reserve1 = 1e20;
    event.sequence = 1;
    ASSERT_TRUE(service->publish(event));
    service->drain();
    const Status status = service->status();
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.error().code, ErrorCode::kNumericFailure)
        << status.error().message;
    service->stop();
  }
}

// Once the consumer has stopped on an error, publish() refuses events
// (they would never be applied) and wakes producers waiting for space.
TEST(ScannerServiceTest, FailedServiceRefusesEvents) {
  const core::testing::Section5Market m;
  market::MarketSnapshot snapshot;
  snapshot.graph = m.graph;
  snapshot.prices = m.prices;
  ServiceConfig config;
  config.scanner.loop_lengths = {3};
  config.worker_threads = 1;
  config.queue_capacity = 4;
  auto service = ScannerService::start(snapshot, config).value();

  PoolUpdateEvent bad;
  bad.pool = m.xy;
  bad.reserve0 = 1e-300;
  bad.reserve1 = 1.0;
  bad.sequence = 1;
  ASSERT_TRUE(service->publish(bad));
  service->drain();
  ASSERT_FALSE(service->status().ok());
  EXPECT_EQ(service->status().error().code, ErrorCode::kNumericFailure);

  PoolUpdateEvent good;
  good.pool = m.yz;
  good.reserve0 = 301.0;
  good.reserve1 = 200.0;
  good.sequence = 2;
  EXPECT_FALSE(service->publish(good));
  service->stop();
}

TEST(ScannerServiceTest, FailureWakesBlockedProducer) {
  const core::testing::Section5Market m;
  market::MarketSnapshot snapshot;
  snapshot.graph = m.graph;
  snapshot.prices = m.prices;
  ServiceConfig config;
  config.scanner.loop_lengths = {3};
  config.worker_threads = 1;
  config.queue_capacity = 1;
  config.max_batch = 1;
  auto service = ScannerService::start(snapshot, config).value();

  // The producer publishes until an event is refused; the first event
  // stops the consumer with a numeric failure.
  std::promise<bool> last;
  std::future<bool> returned = last.get_future();
  std::thread producer;
  // Holding the scanner lock stalls the consumer on its first batch, so
  // the one-slot queue fills and the producer blocks behind it: no
  // publish can be refused before the consumer runs.
  service->with_snapshot([&](const market::MarketSnapshot&) {
    producer = std::thread([&] {
      bool accepted = true;
      for (std::uint64_t i = 1; i <= 64 && accepted; ++i) {
        PoolUpdateEvent event;
        event.pool = m.xy;
        event.reserve0 = i == 1 ? 1e-300 : 100.0 + static_cast<double>(i);
        event.reserve1 = i == 1 ? 1.0 : 200.0;
        event.sequence = i;
        accepted = service->publish(event);
      }
      last.set_value(accepted);
    });
    EXPECT_EQ(returned.wait_for(std::chrono::milliseconds(200)),
              std::future_status::timeout);
  });
  // Released, the consumer fails and must wake the blocked producer.
  const bool woke =
      returned.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  service->stop();  // frees a producer a failed consumer left waiting
  producer.join();
  EXPECT_TRUE(woke) << "producer still blocked 10 s after the failure";
  EXPECT_FALSE(returned.get());
  EXPECT_FALSE(service->status().ok());
}

TEST(ScannerServiceTest, ValidatesConfig) {
  const auto snapshot = test_snapshot();
  ServiceConfig config;
  config.max_batch = 0;
  EXPECT_FALSE(ScannerService::start(snapshot, config).ok());
  // A zero-thread worker pool could never drain reprice tasks; the
  // service must reject it up front instead of tripping the pool's
  // precondition.
  ServiceConfig no_threads;
  no_threads.worker_threads = 0;
  EXPECT_FALSE(ScannerService::start(snapshot, no_threads).ok());
}

TEST(ScannerServiceTest, BatchSizesConvergeIdentically) {
  const auto snapshot = test_snapshot();

  // The same stream in batches of at most 1, 8 and 256 events must land
  // on identical ranked sets and identical ingest counts — the
  // service-level face of the staged-epoch bit-identity contract (batch
  // boundaries and coalescing change, the final state does not).
  std::vector<std::vector<core::Opportunity>> results;
  std::vector<std::uint64_t> ingested;
  for (const std::size_t max_batch : {1, 8, 256}) {
    SCOPED_TRACE("max_batch " + std::to_string(max_batch));
    ServiceConfig config;
    config.scanner.loop_lengths = {3};
    config.worker_threads = 2;
    config.shards = 2;
    config.max_batch = max_batch;
    auto service = ScannerService::start(snapshot, config).value();

    ReplayStreamConfig stream_config;
    stream_config.blocks = 3;
    stream_config.seed = 33;
    ReplayUpdateStream stream(snapshot, stream_config);
    while (auto event = stream.next()) {
      ASSERT_TRUE(service->publish(*event));
    }
    service->drain();
    ASSERT_TRUE(service->status().ok());

    const MetricsSnapshot metrics = service->metrics();
    EXPECT_EQ(metrics[Gauge::epoch_lag], 0u);  // drained == settled
    EXPECT_GE(metrics[Counter::batches], 1u);
    EXPECT_EQ(metrics[Latency::reprice].samples, metrics[Counter::batches]);
    EXPECT_EQ(metrics[Latency::stage_write].samples,
              metrics[Counter::batches]);
    EXPECT_EQ(metrics[Latency::stage_validate].samples,
              metrics[Counter::batches]);
    results.push_back(service->opportunities());
    ingested.push_back(metrics[Counter::events_ingested]);
    service->stop();
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(ingested[0], ingested[i]);
    ASSERT_EQ(results[0].size(), results[i].size());
    for (std::size_t r = 0; r < results[0].size(); ++r) {
      EXPECT_EQ(results[0][r].cycle.rotation_key(),
                results[i][r].cycle.rotation_key());
      EXPECT_EQ(results[0][r].net_profit_usd, results[i][r].net_profit_usd);
    }
  }
}

TEST(ScannerServiceTest, WarmHitRateAboveEightyPercentInSteadyState) {
  const auto snapshot = test_snapshot();
  ServiceConfig config;
  config.scanner.loop_lengths = {3};
  config.scanner.strategy = core::StrategyKind::kConvexOptimization;
  config.scanner.convex_warm_start = true;
  config.worker_threads = 2;
  config.shards = 2;
  // One block (40 pools, one event each) per batch. The test thread
  // floods the queue far faster than the consumer drains it, so the
  // default max_batch would fold several blocks into one epoch and the
  // universe would only be swept a handful of times — first-visit cold
  // solves would dominate the ratio regardless of how well slots
  // survive. Steady state means one reprice round per block.
  config.max_batch = 40;
  auto service = ScannerService::start(snapshot, config).value();

  // A long clean stream of small reserve moves: after the first visit
  // primes each slot, nearly every solve should resume warm. Keeping
  // warm slots across profitless visits is what holds the rate up —
  // loops flickering around the profitability boundary used to pay a
  // cold restart on every return.
  ReplayStreamConfig stream_config;
  stream_config.blocks = 25;
  stream_config.seed = 9;
  ReplayUpdateStream stream(snapshot, stream_config);
  while (auto event = stream.next()) {
    ASSERT_TRUE(service->publish(*event));
  }
  service->drain();
  ASSERT_TRUE(service->status().ok());

  const MetricsSnapshot metrics = service->metrics();
  const std::uint64_t solves =
      metrics[Counter::warm_hits] + metrics[Counter::warm_misses];
  ASSERT_GT(solves, 0u);
  const double rate = static_cast<double>(metrics[Counter::warm_hits]) /
                      static_cast<double>(solves);
  EXPECT_GE(rate, 0.80) << metrics[Counter::warm_hits] << "/" << solves;
  service->stop();
}

TEST(ScannerServiceTest, MixedWarmHitRateAboveSixtyPercentInSteadyState) {
  // The mixed-venue analogue of the test above: stable and concentrated
  // hops run the same barrier fast path, so their cycles' warm slots
  // must survive streaming too. The bar is lower than the all-CPMM 80%
  // because mixed repricing occasionally detours through the generic
  // solver (tick-crossing containment), and those solves don't count as
  // hits — but on a clean in-range stream the barrier route dominates.
  market::GeneratorConfig gen;
  gen.token_count = 18;
  gen.pool_count = 40;
  gen.stable_fraction = 0.25;
  gen.concentrated_fraction = 0.25;
  const auto snapshot = market::generate_snapshot(gen);
  ASSERT_FALSE(snapshot.graph.all_cpmm());

  ServiceConfig config;
  config.scanner.loop_lengths = {3};
  config.scanner.strategy = core::StrategyKind::kConvexOptimization;
  config.scanner.convex_warm_start = true;
  config.worker_threads = 2;
  config.shards = 2;
  config.max_batch = 40;  // one block per batch (see the CPMM test)
  auto service = ScannerService::start(snapshot, config).value();

  ReplayStreamConfig stream_config;
  stream_config.blocks = 25;
  stream_config.seed = 9;
  ReplayUpdateStream stream(snapshot, stream_config);
  while (auto event = stream.next()) {
    ASSERT_TRUE(service->publish(*event));
  }
  service->drain();
  ASSERT_TRUE(service->status().ok());

  const MetricsSnapshot metrics = service->metrics();
  // The stream actually exercised mixed loops on the fast path.
  EXPECT_GT(metrics[Counter::loops_repriced_mixed], 0u);
  EXPECT_GT(metrics[Counter::loops_repriced_mixed_fast], 0u);
  const std::uint64_t solves =
      metrics[Counter::warm_hits] + metrics[Counter::warm_misses];
  ASSERT_GT(solves, 0u);
  const double rate = static_cast<double>(metrics[Counter::warm_hits]) /
                      static_cast<double>(solves);
  EXPECT_GE(rate, 0.60) << metrics[Counter::warm_hits] << "/" << solves;
  // Clean stream, in-range moves: no slot ever goes valid → invalid
  // (quarantines and generic-route invalidation are fault/edge events).
  EXPECT_EQ(metrics[Counter::warm_invalidations], 0u);
  service->stop();
}

TEST(RoutingServiceTest, AnswersQueriesAndCountsMethods) {
  const auto snapshot = test_snapshot();
  ServiceConfig config;
  config.scanner.loop_lengths = {3};
  config.worker_threads = 2;
  auto service = ScannerService::start(snapshot, config).value();
  RoutingService routing(*service);

  // Generated markets are hub-and-spoke: token 0 is a hub, so 0 → 1 is
  // reachable within two hops.
  core::RouteQuery query;
  query.token_in = TokenId{0};
  query.token_out = TokenId{1};
  query.amount_in = 10.0;
  query.max_hops = 2;
  auto result = routing.best_execution(query);
  ASSERT_TRUE(result.ok()) << result.error().message;
  EXPECT_GT(result->amount_out, 0.0);
  double spent = 0.0;
  for (const core::RoutedPath& path : result->paths) spent += path.input;
  EXPECT_NEAR(spent, query.amount_in, 1e-9 * query.amount_in);

  // Malformed query: counted as a failure, service unharmed.
  core::RouteQuery bad = query;
  bad.token_out = bad.token_in;
  EXPECT_FALSE(routing.best_execution(bad).ok());

  // Stream a block of updates, then route again on the settled state.
  ReplayStreamConfig stream_config;
  stream_config.blocks = 1;
  stream_config.seed = 7;
  ReplayUpdateStream stream(snapshot, stream_config);
  while (auto event = stream.next()) ASSERT_TRUE(service->publish(*event));
  service->drain();
  auto after = routing.best_execution(query);
  ASSERT_TRUE(after.ok()) << after.error().message;
  EXPECT_GT(after->amount_out, 0.0);

  const MetricsSnapshot metrics = service->metrics();
  EXPECT_EQ(metrics[Counter::routing_queries], 3u);
  EXPECT_EQ(metrics[Counter::routing_failures], 1u);
  EXPECT_EQ(metrics[Counter::routing_direct] +
                metrics[Counter::routing_water_filling] +
                metrics[Counter::routing_flow_solves],
            2u);
  EXPECT_EQ(metrics[Latency::routing].samples, 3u);
  EXPECT_GE(metrics[Latency::routing].max_us,
            metrics[Latency::routing].p50_us);
  service->stop();
}

TEST(ReplayStreamTest, DeterministicAndBounded) {
  const auto snapshot = test_snapshot();
  ReplayStreamConfig config;
  config.blocks = 2;
  config.seed = 5;
  ReplayUpdateStream a(snapshot, config);
  ReplayUpdateStream b(snapshot, config);
  std::size_t count = 0;
  while (true) {
    const auto ea = a.next();
    const auto eb = b.next();
    ASSERT_EQ(ea.has_value(), eb.has_value());
    if (!ea.has_value()) break;
    EXPECT_EQ(ea->pool, eb->pool);
    EXPECT_EQ(ea->reserve0, eb->reserve0);
    EXPECT_EQ(ea->reserve1, eb->reserve1);
    EXPECT_EQ(ea->sequence, eb->sequence);
    ++count;
  }
  EXPECT_EQ(count, 2u * snapshot.graph.pool_count());
}

TEST(ReplayStreamTest, SinglePoolMode) {
  const auto snapshot = test_snapshot();
  ReplayStreamConfig config;
  config.blocks = 10;
  config.pools_per_block = 1;
  ReplayUpdateStream stream(snapshot, config);
  std::size_t count = 0;
  while (auto event = stream.next()) {
    EXPECT_LT(event->pool.value(), snapshot.graph.pool_count());
    EXPECT_GT(event->reserve0, 0.0);
    EXPECT_GT(event->reserve1, 0.0);
    ++count;
  }
  EXPECT_EQ(count, 10u);
}

}  // namespace
}  // namespace arb::runtime
