// Streaming-runtime throughput on the Section VI sample market:
//   (a) full scan_market rescan latency (the batch baseline),
//   (b) incremental re-price latency under single-pool updates via the
//       pool→cycle index (the runtime's claim: work ∝ affected loops),
//   (c) the same stream under the Convex strategy with warm-started
//       barrier solves, reporting hit rate and Newton iterations through
//       RuntimeMetrics,
//   (d) end-to-end events/sec through the ScannerService with its
//       metrics layer reporting p50/p99 re-price latency,
//   (e) the convex workload on a mixed-venue market: per-kind loop
//       split (fast path vs generic route) and per-solve medians, with
//       a mixed ≤ 5x CPMM median bar under ARB_BENCH_MIXED_STRICT,
//   (f) a shard sweep: deterministic batch replay through the sharded
//       scanner at K ∈ {1, 2, 4, 8}, with a K=4 ≥ K=1-median throughput
//       bar under ARB_BENCH_SHARD_STRICT,
//   (g) a pipelined sweep: the same batches driven through the staged
//       epoch API (begin N+1 overlapped with reprice N) at the same K
//       grid, against an inline serial K=1 baseline; perf-smoke exports
//       ARB_BENCH_PIPELINE_STRICT demanding K=8 pipelined ≥ 2.0× the
//       serial median.
// All latencies are warmed-up order statistics (median/p99), not
// single-shot means. Emits runtime_throughput.csv, runtime_throughput.svg
// and the machine-readable BENCH_runtime.json.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/stats.hpp"
#include "common/svg.hpp"
#include "core/scanner.hpp"
#include "market/snapshot.hpp"
#include "runtime/incremental_scanner.hpp"
#include "runtime/replay_stream.hpp"
#include "runtime/service.hpp"

using namespace arb;

namespace {

double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Replays a single-pool-per-block stream through a fresh
/// IncrementalScanner, discarding the first \p warmup events (first-touch
/// page faults, cache fill, cycle-cache population) and returning the
/// per-event apply latencies of the rest plus the aggregated counters.
struct StreamResult {
  std::vector<double> series_us;
  std::uint64_t solver_iterations = 0;
  std::size_t warm_hits = 0;
  std::size_t warm_misses = 0;
  std::size_t repriced_cpmm = 0;
  std::size_t repriced_mixed = 0;
  std::size_t repriced_active_set = 0;
  std::size_t repriced_mixed_fast = 0;
  std::size_t repriced_mixed_generic = 0;
  double reprice_cpmm_us = 0.0;
  double reprice_mixed_us = 0.0;
  /// Per-event per-loop cost samples by kind (the event's kind-total
  /// divided by its loop count): the medians of these series are the
  /// per-solve medians the mixed-vs-CPMM ratio bar compares.
  std::vector<double> cpmm_loop_us_samples;
  std::vector<double> mixed_loop_us_samples;
};

StreamResult replay_stream(const market::MarketSnapshot& snapshot,
                           const core::ScannerConfig& config, int blocks,
                           int warmup) {
  auto scanner = bench::expect_ok(
      runtime::IncrementalScanner::create(snapshot, config, nullptr),
      "IncrementalScanner::create");
  runtime::ReplayStreamConfig stream_config;
  stream_config.blocks = blocks;
  stream_config.pools_per_block = 1;
  stream_config.seed = 99;
  runtime::ReplayUpdateStream stream(snapshot, stream_config);
  StreamResult result;
  int seen = 0;
  while (auto event = stream.next()) {
    std::vector<runtime::PoolUpdateEvent> batch{*event};
    const double start = now_us();
    const auto report = bench::expect_ok(scanner.apply(batch),
                                         "IncrementalScanner::apply");
    const double micros = now_us() - start;
    if (++seen <= warmup) continue;
    result.series_us.push_back(micros);
    result.solver_iterations += report.solver_iterations;
    result.warm_hits += report.warm_hits;
    result.warm_misses += report.warm_misses;
    result.repriced_cpmm += report.repriced_cpmm;
    result.repriced_mixed += report.repriced_mixed;
    result.repriced_active_set += report.repriced_active_set;
    result.repriced_mixed_fast += report.repriced_mixed_fast;
    result.repriced_mixed_generic += report.repriced_mixed_generic;
    result.reprice_cpmm_us += report.reprice_cpmm_us;
    result.reprice_mixed_us += report.reprice_mixed_us;
    if (report.repriced_cpmm > 0) {
      result.cpmm_loop_us_samples.push_back(
          report.reprice_cpmm_us / static_cast<double>(report.repriced_cpmm));
    }
    if (report.repriced_mixed > 0) {
      result.mixed_loop_us_samples.push_back(
          report.reprice_mixed_us /
          static_cast<double>(report.repriced_mixed));
    }
  }
  return result;
}

}  // namespace

int main() {
  const bool relaxed = std::getenv("ARB_BENCH_RELAXED") != nullptr;
  const market::MarketSnapshot snapshot =
      market::generate_snapshot(market::GeneratorConfig{})
          .filtered(market::PoolFilter{});
  core::ScannerConfig config;
  config.loop_lengths = {3};
  std::printf("market: %zu tokens, %zu pools\n", snapshot.graph.token_count(),
              snapshot.graph.pool_count());

  bench::FigureSink sink("runtime_throughput",
                         "streaming runtime vs batch rescan",
                         {"metric", "value"});
  bench::BenchJson json;

  // (a) Full-rescan baseline: enumerate + filter + optimize everything.
  std::size_t full_opportunities = 0;
  const bench::Timing full = bench::measure(
      [&] {
        full_opportunities =
            bench::expect_ok(core::scan_market(snapshot.graph,
                                               snapshot.prices, config),
                             "scan_market")
                .size();
      },
      /*warmup=*/3, /*runs=*/20);
  std::printf("full scan: %zu opportunities\n", full_opportunities);

  // (b) Incremental re-pricing under single-pool updates.
  const StreamResult incremental =
      replay_stream(snapshot, config, /*blocks=*/400, /*warmup=*/32);
  const double incremental_median_us = percentile(incremental.series_us, 0.50);
  const double incremental_p99_us = percentile(incremental.series_us, 0.99);
  const double full_median_us = full.median_ns * 1e-3;
  const double speedup = full_median_us / incremental_median_us;

  // (c) The same stream under Convex, warm starts on (the active set
  // answers every length-3 loop, so the barrier never runs).
  core::ScannerConfig convex_config = config;
  convex_config.strategy = core::StrategyKind::kConvexOptimization;
  convex_config.convex_warm_start = true;
  const StreamResult convex_stream =
      replay_stream(snapshot, convex_config, /*blocks=*/400, /*warmup=*/32);
  const double convex_median_us = percentile(convex_stream.series_us, 0.50);
  const std::size_t convex_solves =
      convex_stream.warm_hits + convex_stream.warm_misses;
  const double warm_hit_rate =
      convex_solves == 0
          ? 0.0
          : static_cast<double>(convex_stream.warm_hits) /
                static_cast<double>(convex_solves);

  // (d) Service throughput: replay blocks shocking every pool, pushed
  // through the bounded queue + worker pool.
  runtime::ServiceConfig service_config;
  service_config.scanner = config;
  service_config.worker_threads = 4;
  service_config.max_batch = 256;
  auto service = bench::expect_ok(
      runtime::ScannerService::start(snapshot, service_config),
      "ScannerService::start");
  runtime::ReplayStreamConfig burst_config;
  burst_config.blocks = 20;
  burst_config.seed = 7;
  runtime::ReplayUpdateStream burst(snapshot, burst_config);
  std::size_t published = 0;
  const double burst_start = now_us();
  while (auto event = burst.next()) {
    if (service->publish(*event)) ++published;
  }
  service->drain();
  const double burst_us = now_us() - burst_start;
  const double events_per_sec =
      static_cast<double>(published) / (burst_us * 1e-6);
  const runtime::MetricsSnapshot metrics = service->metrics();
  const runtime::LatencyStats& reprice = metrics[runtime::Latency::reprice];
  service->stop();

  // (e) Mixed-venue stream: the same convex workload on a market where a
  // fifth of the pools are StableSwap and a fifth concentrated, so a
  // slice of the loop universe routes through the generic solver. The
  // per-kind counters split the cost of that slice out of the aggregate.
  market::GeneratorConfig mixed_gen;
  mixed_gen.stable_fraction = 0.2;
  mixed_gen.concentrated_fraction = 0.2;
  const market::MarketSnapshot mixed_snapshot =
      market::generate_snapshot(mixed_gen).filtered(market::PoolFilter{});
  const StreamResult mixed_stream = replay_stream(
      mixed_snapshot, convex_config, /*blocks=*/200, /*warmup=*/32);
  const double mixed_median_us = percentile(mixed_stream.series_us, 0.50);
  const double mixed_loop_cpmm_us =
      mixed_stream.repriced_cpmm == 0
          ? 0.0
          : mixed_stream.reprice_cpmm_us /
                static_cast<double>(mixed_stream.repriced_cpmm);
  const double mixed_loop_mixed_us =
      mixed_stream.repriced_mixed == 0
          ? 0.0
          : mixed_stream.reprice_mixed_us /
                static_cast<double>(mixed_stream.repriced_mixed);
  // Per-solve medians by kind: with the analytic mixed kernels on the
  // barrier fast path, a mixed solve should cost the same order as a
  // CPMM one rather than the generic solver's ~100x.
  const double mixed_loop_cpmm_median_us =
      mixed_stream.cpmm_loop_us_samples.empty()
          ? 0.0
          : percentile(mixed_stream.cpmm_loop_us_samples, 0.50);
  const double mixed_loop_mixed_median_us =
      mixed_stream.mixed_loop_us_samples.empty()
          ? 0.0
          : percentile(mixed_stream.mixed_loop_us_samples, 0.50);
  const double mixed_median_ratio =
      mixed_loop_cpmm_median_us > 0.0
          ? mixed_loop_mixed_median_us / mixed_loop_cpmm_median_us
          : 0.0;

  // (f) Shard sweep: identical precomputed event batches applied straight
  // through the IncrementalScanner at K ∈ {1, 2, 4, 8} shards on a shared
  // worker pool. Driving the scanner directly (no publish/drain race)
  // makes the per-K work deterministic — every K coalesces and re-prices
  // exactly the same dirty sets — so the sweep isolates the sharding
  // overhead instead of queue-timing noise. The ranked output is
  // bit-identical across K (the differential suite proves it); the
  // cross-K check below pins the ranked-set size as a cheap canary.
  struct SweepPoint {
    std::size_t shards = 1;
    double events_per_sec = 0.0;         ///< best of kSweepReps
    double median_events_per_sec = 0.0;  ///< median of kSweepReps
    double imbalance = 0.0;
    std::size_t ranked = 0;
  };
  // max_batch-sized slices of the same burst replay section (d) pushed
  // through the service.
  std::vector<std::vector<runtime::PoolUpdateEvent>> sweep_batches;
  {
    runtime::ReplayUpdateStream replay(snapshot, burst_config);
    std::vector<runtime::PoolUpdateEvent> current;
    while (auto event = replay.next()) {
      current.push_back(*event);
      if (current.size() == service_config.max_batch) {
        sweep_batches.push_back(std::move(current));
        current.clear();
      }
    }
    if (!current.empty()) sweep_batches.push_back(std::move(current));
  }
  std::size_t sweep_events = 0;
  for (const auto& batch : sweep_batches) sweep_events += batch.size();

  runtime::WorkerPool::Config sweep_pool_config;
  sweep_pool_config.threads = service_config.worker_threads;
  runtime::WorkerPool sweep_pool(sweep_pool_config);
  // Reps are interleaved round-robin across K so slow machine drift
  // (thermal, cache, background load) hits every K equally instead of
  // biasing whichever K happened to run first.
  constexpr int kSweepReps = 7;
  const std::vector<std::size_t> sweep_ks = {1, 2, 4, 8};
  std::vector<SweepPoint> sweep(sweep_ks.size());
  std::vector<std::vector<double>> sweep_rates(sweep_ks.size());
  std::vector<core::Opportunity> poll;  // capacity reused across polls
  for (int rep = 0; rep < kSweepReps; ++rep) {
    for (std::size_t i = 0; i < sweep_ks.size(); ++i) {
      auto sharded = bench::expect_ok(
          runtime::IncrementalScanner::create(snapshot, config, &sweep_pool,
                                              sweep_ks[i]),
          "IncrementalScanner::create (shard sweep)");
      const double t0 = now_us();
      for (const auto& batch : sweep_batches) {
        (void)bench::expect_ok(sharded.apply(batch), "apply (shard sweep)");
      }
      sharded.collect_into(poll);
      const double elapsed_us = now_us() - t0;
      sweep_rates[i].push_back(static_cast<double>(sweep_events) /
                               (elapsed_us * 1e-6));
      sweep[i].shards = sweep_ks[i];
      sweep[i].imbalance = sharded.plan().imbalance();
      sweep[i].ranked = poll.size();
    }
  }
  for (std::size_t i = 0; i < sweep_ks.size(); ++i) {
    std::vector<double>& rates = sweep_rates[i];
    std::sort(rates.begin(), rates.end());
    sweep[i].events_per_sec = rates.back();
    sweep[i].median_events_per_sec = rates[rates.size() / 2];
  }
  // Cheap cross-K sanity: every K must publish a ranked set of the same
  // size (the differential tests pin down full bit-identity).
  for (const SweepPoint& point : sweep) {
    if (point.ranked != sweep.front().ranked) {
      std::fprintf(stderr,
                   "FAIL: shard sweep ranked-set size diverged (K=%zu: %zu "
                   "vs K=%zu: %zu)\n",
                   point.shards, point.ranked, sweep.front().shards,
                   sweep.front().ranked);
      return 1;
    }
  }

  // (g) Pipelined sweep: identical batches through the staged epoch API —
  // begin_epoch(N+1) writes the back buffer while epoch N's lanes still
  // read the frozen front — at the same K grid, plus an inline serial
  // K=1 run (no worker pool at all) as the scaling denominator. Reps are
  // interleaved with the serial baseline for the same drift-fairness as
  // the (f) sweep.
  std::vector<SweepPoint> pipelined(sweep_ks.size());
  std::vector<std::vector<double>> pipelined_rates(sweep_ks.size());
  std::vector<double> serial_rates;
  for (int rep = 0; rep < kSweepReps; ++rep) {
    {
      auto serial = bench::expect_ok(
          runtime::IncrementalScanner::create(snapshot, config, nullptr),
          "IncrementalScanner::create (serial baseline)");
      const double t0 = now_us();
      for (const auto& batch : sweep_batches) {
        (void)bench::expect_ok(serial.apply(batch), "apply (serial)");
      }
      serial.collect_into(poll);
      serial_rates.push_back(static_cast<double>(sweep_events) /
                             ((now_us() - t0) * 1e-6));
    }
    for (std::size_t i = 0; i < sweep_ks.size(); ++i) {
      auto staged = bench::expect_ok(
          runtime::IncrementalScanner::create(snapshot, config, &sweep_pool,
                                              sweep_ks[i]),
          "IncrementalScanner::create (pipelined sweep)");
      const double t0 = now_us();
      bool inflight = false;
      for (const auto& batch : sweep_batches) {
        (void)bench::expect_ok(staged.begin_epoch(batch),
                               "begin_epoch (pipelined sweep)");
        if (inflight) {
          (void)bench::expect_ok(staged.wait_reprice(),
                                 "wait_reprice (pipelined sweep)");
        }
        staged.commit_epoch();
        staged.launch_reprice();
        inflight = true;
      }
      if (inflight) {
        (void)bench::expect_ok(staged.wait_reprice(),
                               "wait_reprice (pipelined sweep drain)");
      }
      staged.collect_into(poll);
      const double elapsed_us = now_us() - t0;
      pipelined_rates[i].push_back(static_cast<double>(sweep_events) /
                                   (elapsed_us * 1e-6));
      pipelined[i].shards = sweep_ks[i];
      pipelined[i].imbalance = staged.plan().imbalance();
      pipelined[i].ranked = poll.size();
    }
  }
  std::sort(serial_rates.begin(), serial_rates.end());
  const double serial_median = serial_rates[serial_rates.size() / 2];
  for (std::size_t i = 0; i < sweep_ks.size(); ++i) {
    std::vector<double>& rates = pipelined_rates[i];
    std::sort(rates.begin(), rates.end());
    pipelined[i].events_per_sec = rates.back();
    pipelined[i].median_events_per_sec = rates[rates.size() / 2];
  }
  // The pipelined path must publish the same ranked set as the plain
  // sharded path — the differential suite proves bit-identity; the size
  // check here is the cheap canary.
  for (const SweepPoint& point : pipelined) {
    if (point.ranked != sweep.front().ranked) {
      std::fprintf(stderr,
                   "FAIL: pipelined sweep ranked-set size diverged (K=%zu: "
                   "%zu vs %zu)\n",
                   point.shards, point.ranked, sweep.front().ranked);
      return 1;
    }
  }

  auto scanner = bench::expect_ok(
      runtime::IncrementalScanner::create(snapshot, config, nullptr),
      "IncrementalScanner::create");
  const auto& index = scanner.index();

  sink.labeled_row("full_scan_median_us", {full_median_us});
  sink.labeled_row("full_scan_p99_us", {full.p99_ns * 1e-3});
  sink.labeled_row("incremental_median_us", {incremental_median_us});
  sink.labeled_row("incremental_p99_us", {incremental_p99_us});
  sink.labeled_row("speedup_x", {speedup});
  sink.labeled_row("convex_median_us", {convex_median_us});
  sink.labeled_row("convex_warm_hit_rate", {warm_hit_rate});
  sink.labeled_row("convex_newton_iters",
                   {static_cast<double>(convex_stream.solver_iterations)});
  sink.labeled_row("universe_cycles",
                   {static_cast<double>(index.cycles().size())});
  sink.labeled_row("index_mean_fanout", {index.mean_fanout()});
  sink.labeled_row("index_max_fanout",
                   {static_cast<double>(index.max_fanout())});
  sink.labeled_row("service_events_per_sec", {events_per_sec});
  sink.labeled_row("service_batches",
                   {static_cast<double>(metrics[runtime::Counter::batches])});
  sink.labeled_row("service_coalesced",
                   {static_cast<double>(
                       metrics[runtime::Counter::events_coalesced])});
  sink.labeled_row("service_reprice_p50_us", {reprice.p50_us});
  sink.labeled_row("service_reprice_p99_us", {reprice.p99_us});
  sink.labeled_row("mixed_apply_median_us", {mixed_median_us});
  sink.labeled_row("mixed_loops_cpmm",
                   {static_cast<double>(mixed_stream.repriced_cpmm)});
  sink.labeled_row("mixed_loops_mixed",
                   {static_cast<double>(mixed_stream.repriced_mixed)});
  sink.labeled_row("mixed_loop_cpmm_us", {mixed_loop_cpmm_us});
  sink.labeled_row("mixed_loop_mixed_us", {mixed_loop_mixed_us});
  sink.labeled_row("mixed_loop_cpmm_median_us", {mixed_loop_cpmm_median_us});
  sink.labeled_row("mixed_loop_mixed_median_us",
                   {mixed_loop_mixed_median_us});
  sink.labeled_row("mixed_median_ratio", {mixed_median_ratio});
  sink.labeled_row("mixed_loops_fast",
                   {static_cast<double>(mixed_stream.repriced_mixed_fast)});
  sink.labeled_row("mixed_loops_generic",
                   {static_cast<double>(mixed_stream.repriced_mixed_generic)});
  for (const SweepPoint& point : sweep) {
    sink.labeled_row("shard" + std::to_string(point.shards) + "_events_per_sec",
                     {point.events_per_sec});
  }

  json.set("full_scan", full);
  json.set("incremental.median_us", incremental_median_us);
  json.set("incremental.p99_us", incremental_p99_us);
  json.set("incremental.events",
           static_cast<double>(incremental.series_us.size()));
  json.set("incremental.speedup_x", speedup);
  json.set("convex.median_us", convex_median_us);
  json.set("convex.warm_hit_rate", warm_hit_rate);
  json.set("convex.warm_hits", static_cast<double>(convex_stream.warm_hits));
  json.set("convex.warm_misses",
           static_cast<double>(convex_stream.warm_misses));
  json.set("convex.newton_iterations",
           static_cast<double>(convex_stream.solver_iterations));
  json.set("service.events_per_sec", events_per_sec);
  json.set("service.reprice_p50_us", reprice.p50_us);
  json.set("service.reprice_p99_us", reprice.p99_us);
  json.set("universe.cycles", static_cast<double>(index.cycles().size()));
  json.set("mixed.apply_median_us", mixed_median_us);
  json.set("mixed.events", static_cast<double>(mixed_stream.series_us.size()));
  json.set("mixed.loops_cpmm",
           static_cast<double>(mixed_stream.repriced_cpmm));
  json.set("mixed.loops_mixed",
           static_cast<double>(mixed_stream.repriced_mixed));
  json.set("mixed.loop_cpmm_us", mixed_loop_cpmm_us);
  json.set("mixed.loop_mixed_us", mixed_loop_mixed_us);
  json.set("mixed.loop_cpmm_median_us", mixed_loop_cpmm_median_us);
  json.set("mixed.loop_mixed_median_us", mixed_loop_mixed_median_us);
  json.set("mixed.median_ratio", mixed_median_ratio);
  json.set("mixed.loops_fast",
           static_cast<double>(mixed_stream.repriced_mixed_fast));
  json.set("mixed.loops_generic",
           static_cast<double>(mixed_stream.repriced_mixed_generic));
  for (const SweepPoint& point : sweep) {
    const std::string prefix = "shard_sweep.k" + std::to_string(point.shards);
    json.set(prefix + ".events_per_sec", point.events_per_sec);
    json.set(prefix + ".median_events_per_sec", point.median_events_per_sec);
    json.set(prefix + ".imbalance", point.imbalance);
    json.set(prefix + ".ranked", static_cast<double>(point.ranked));
  }
  json.set("shard_sweep.serial_k1.median_events_per_sec", serial_median);
  for (const SweepPoint& point : pipelined) {
    const std::string prefix = "shard_sweep.k" + std::to_string(point.shards);
    json.set(prefix + ".pipelined_events_per_sec", point.events_per_sec);
    json.set(prefix + ".pipelined_median_events_per_sec",
             point.median_events_per_sec);
  }
  if (!json.write("BENCH_runtime.json")) return 1;

  std::printf("\nincremental vs full rescan speedup: %.1fx (median)\n",
              speedup);
  std::printf("convex stream: median %.1fus, active set %zu of %zu loops, "
              "warm hit rate %.1f%%, %llu Newton iters\n",
              convex_median_us, convex_stream.repriced_active_set,
              convex_stream.repriced_cpmm + convex_stream.repriced_mixed,
              100.0 * warm_hit_rate,
              static_cast<unsigned long long>(
                  convex_stream.solver_iterations));
  std::printf("service: %.0f events/sec, reprice p50=%.1fus p99=%.1fus\n",
              events_per_sec, reprice.p50_us, reprice.p99_us);
  std::printf("mixed venue: apply median %.1fus, loops cpmm=%zu (%.1fus) "
              "mixed=%zu (%.1fus, fast=%zu generic=%zu)\n",
              mixed_median_us, mixed_stream.repriced_cpmm, mixed_loop_cpmm_us,
              mixed_stream.repriced_mixed, mixed_loop_mixed_us,
              mixed_stream.repriced_mixed_fast,
              mixed_stream.repriced_mixed_generic);
  std::printf("mixed venue medians: cpmm %.1fus, mixed %.1fus (ratio %.2fx)\n",
              mixed_loop_cpmm_median_us, mixed_loop_mixed_median_us,
              mixed_median_ratio);
  std::printf("shard sweep (best/median of %d):\n", kSweepReps);
  for (const SweepPoint& point : sweep) {
    std::printf(
        "  K=%zu: %.0f/%.0f events/sec, plan imbalance %.3f, %zu ranked\n",
        point.shards, point.events_per_sec, point.median_events_per_sec,
        point.imbalance, point.ranked);
  }
  std::printf("pipelined sweep (serial inline K=1 median %.0f ev/s):\n",
              serial_median);
  for (const SweepPoint& point : pipelined) {
    std::printf("  K=%zu: %.0f/%.0f events/sec pipelined\n", point.shards,
                point.events_per_sec, point.median_events_per_sec);
  }
  std::printf("metrics: %s\n", metrics.summary().c_str());

  SvgPlot plot("Streaming runtime: incremental re-price vs full rescan",
               "update event", "latency (µs)");
  SvgSeries incremental_points;
  incremental_points.name = "incremental apply";
  incremental_points.line = false;
  for (std::size_t i = 0; i < incremental.series_us.size(); ++i) {
    incremental_points.points.emplace_back(static_cast<double>(i),
                                           incremental.series_us[i]);
  }
  SvgSeries baseline;
  baseline.name = "full rescan (median)";
  baseline.points.emplace_back(0.0, full_median_us);
  baseline.points.emplace_back(
      static_cast<double>(incremental.series_us.size()), full_median_us);
  plot.add_series(std::move(incremental_points));
  plot.add_series(std::move(baseline));
  if (Status status = plot.write("runtime_throughput.svg"); !status.ok()) {
    std::fprintf(stderr, "svg write failed: %s\n",
                 status.error().to_string().c_str());
    return 1;
  }
  std::printf("figure written to runtime_throughput.svg\n");

  const double speedup_bar = relaxed ? 2.0 : 5.0;
  if (speedup < speedup_bar) {
    std::fprintf(stderr,
                 "FAIL: incremental speedup %.1fx below the %.1fx bar\n",
                 speedup, speedup_bar);
    return 1;
  }
  // The Convex stream's loops have 3 hops, so the exact active set prices
  // every gate survivor and no solve reaches the barrier: no warm hit or
  // miss. The barrier's warm-start bar (≥95% hits) is bench_solver_hotpath
  // (c), which drives solve_flow directly.
  const std::size_t convex_survivors =
      convex_stream.repriced_cpmm + convex_stream.repriced_mixed;
  if (convex_survivors == 0 ||
      convex_stream.repriced_active_set != convex_survivors ||
      convex_solves != 0) {
    std::fprintf(stderr,
                 "FAIL: convex stream: active set priced %zu of %zu gate "
                 "survivors, %zu warm hits + misses (want all, 0)\n",
                 convex_stream.repriced_active_set, convex_survivors,
                 convex_solves);
    return 1;
  }
  // Shard-throughput bar: K=4 must keep up with K=1 — the best sharded
  // rep against the single-shard *median*, so a genuine regression fails
  // while same-distribution scheduler jitter does not. Perf-smoke exports
  // ARB_BENCH_SHARD_STRICT=1 and demands sharded ≥ 1.0× the single-shard
  // median; un-relaxed local runs get 10% slack; plain relaxed runs
  // (slow/instrumented builds) skip the ratio entirely.
  const bool shard_strict = std::getenv("ARB_BENCH_SHARD_STRICT") != nullptr;
  const double k1_median = sweep[0].median_events_per_sec;
  const double k4_rate = sweep[2].events_per_sec;
  if (shard_strict || !relaxed) {
    const double shard_bar = shard_strict ? 1.0 : 0.9;
    if (k4_rate < shard_bar * k1_median) {
      std::fprintf(stderr,
                   "FAIL: 4-shard throughput %.0f ev/s below %.2fx the "
                   "single-shard median %.0f ev/s\n",
                   k4_rate, shard_bar, k1_median);
      return 1;
    }
  }
  // Pipelined-scaling bar: only perf-smoke (multi-core, quiet) exports
  // ARB_BENCH_PIPELINE_STRICT. K=8 pipelined must beat 2.0× the serial
  // inline median — the write/reprice overlap plus lane parallelism has
  // to buy real wall-clock, not just hide in the shard bar above. No bar
  // asks for scaling in K: the engine's throughput is flat in the shard
  // count at this market size, so such a bar would be a coin flip.
  if (std::getenv("ARB_BENCH_PIPELINE_STRICT") != nullptr) {
    if (pipelined.back().events_per_sec < 2.0 * serial_median) {
      std::fprintf(stderr,
                   "FAIL: K=8 pipelined %.0f ev/s below 2.0x the serial "
                   "inline median %.0f ev/s\n",
                   pipelined.back().events_per_sec, serial_median);
      return 1;
    }
  }
  // Mixed-venue fast-path bar: perf-smoke exports ARB_BENCH_MIXED_STRICT
  // and demands the per-solve mixed median stay within 5x the CPMM one —
  // the analytic stable/concentrated kernels on the barrier solver, not
  // the ~100x derivative-free generic route, must carry the mixed load.
  if (std::getenv("ARB_BENCH_MIXED_STRICT") != nullptr) {
    if (mixed_stream.repriced_mixed == 0 ||
        mixed_loop_cpmm_median_us <= 0.0) {
      std::fprintf(stderr,
                   "FAIL: mixed strict bar ran without mixed/CPMM samples "
                   "(mixed=%zu, cpmm median %.1fus)\n",
                   mixed_stream.repriced_mixed, mixed_loop_cpmm_median_us);
      return 1;
    }
    const double mixed_bar = 5.0;
    if (mixed_median_ratio > mixed_bar) {
      std::fprintf(stderr,
                   "FAIL: mixed per-solve median %.1fus is %.2fx the CPMM "
                   "median %.1fus (bar %.1fx)\n",
                   mixed_loop_mixed_median_us, mixed_median_ratio,
                   mixed_loop_cpmm_median_us, mixed_bar);
      return 1;
    }
    if (mixed_stream.repriced_mixed_fast <
        mixed_stream.repriced_mixed_generic) {
      std::fprintf(stderr,
                   "FAIL: generic solves (%zu) outnumber fast-path solves "
                   "(%zu) on the mixed stream\n",
                   mixed_stream.repriced_mixed_generic,
                   mixed_stream.repriced_mixed_fast);
      return 1;
    }
  }
  return 0;
}
