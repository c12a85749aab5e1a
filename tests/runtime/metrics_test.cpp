#include "runtime/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/csv.hpp"

namespace arb::runtime {
namespace {

TEST(LatencyHistogramTest, EmptyHistogram) {
  LatencyHistogram h;
  EXPECT_EQ(h.samples(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0.0);
  EXPECT_EQ(h.max_us(), 0.0);
}

TEST(LatencyHistogramTest, QuantilesAreMonotoneAndBracketed) {
  struct Case {
    std::vector<double> samples;
    std::array<double, 3> exact;  ///< p50, p90, p99
  };
  std::vector<double> uniform(1000);
  std::iota(uniform.begin(), uniform.end(), 1.0);
  const std::vector<Case> cases = {
      {uniform, {500.0, 900.0, 990.0}},
      {std::vector<double>(1000, 1000.0), {1000.0, 1000.0, 1000.0}},
      // Below 8 µs the sub-bucket must come from the mantissa.
      {std::vector<double>(1000, 1.9), {1.9, 1.9, 1.9}}};
  for (const Case& c : cases) {
    LatencyHistogram h;
    for (const double us : c.samples) h.record(us);
    EXPECT_EQ(h.samples(), c.samples.size());
    const std::array<double, 3> q = {h.quantile(0.50), h.quantile(0.90),
                                     h.quantile(0.99)};
    EXPECT_LE(q[0], q[1]);
    EXPECT_LE(q[1], q[2]);
    EXPECT_LE(q[2], h.max_us());
    // Eight sub-buckets per power of two: within 12.5% of the exact value.
    for (std::size_t i = 0; i < q.size(); ++i) {
      EXPECT_NEAR(q[i], c.exact[i], 0.125 * c.exact[i]) << "quantile " << i;
    }
    EXPECT_DOUBLE_EQ(h.max_us(), c.samples.back());
  }
}

TEST(LatencyHistogramTest, SubMicrosecondAndNegativeSamples) {
  LatencyHistogram h;
  h.record(0.25);   // lands in bucket 0
  h.record(-5.0);   // dropped
  EXPECT_EQ(h.samples(), 1u);
  // Bucket 0 spans [0, 1) µs, so the estimate stays below 1.
  EXPECT_LE(h.quantile(1.0), 1.0);
}

TEST(LatencyHistogramTest, ConcurrentRecordingLosesNothing) {
  LatencyHistogram h;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < 10'000; ++i) h.record(100.0);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(h.samples(), 40'000u);
}

/// Every registry row gets a distinct value, which the snapshot,
/// summary() and the CSV column of that name must all carry.
TEST(RuntimeMetricsTest, EveryRowFlowsThroughSnapshotSummaryAndCsv) {
  RuntimeMetrics metrics;
  metrics.set_shard_plan(4, 1.25);
  metrics.add_shard_repriced(0, 10);
  metrics.add_shard_repriced(1, 4);
  metrics.add_shard_repriced(2, 7);
  metrics.add_shard_repriced(1, 2);
  const auto counter_value = [](std::size_t i) { return 1000 + i; };
  const auto gauge_value = [](std::size_t i) { return 2000.25 + i; };
  const auto latency_value = [](std::size_t i) { return 3000.0 + 100 * i; };
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    metrics.add(static_cast<Counter>(i), counter_value(i) - 1);
    metrics.add(static_cast<Counter>(i));
  }
  for (std::size_t i = 0; i < kGaugeCount; ++i) {
    metrics.set(static_cast<Gauge>(i), 7.0);
    metrics.set(static_cast<Gauge>(i), gauge_value(i));
  }
  for (std::size_t i = 0; i < kLatencyCount; ++i) {
    metrics.record(static_cast<Latency>(i), latency_value(i));
  }

  const MetricsSnapshot snap = metrics.snapshot();
  const std::string path = ::testing::TempDir() + "runtime_metrics_rows.csv";
  ASSERT_TRUE(write_metrics_csv({snap, snap}, path).ok());
  const auto table = read_csv_file(path).value();
  std::remove(path.c_str());
  EXPECT_EQ(table.header, MetricsSnapshot::csv_columns());
  ASSERT_EQ(table.rows.size(), 2u);
  const auto cell = [&](const std::string& column) {
    return table.rows[1][table.column_index(column)];
  };
  const std::string line = " " + snap.summary() + " ";
  const auto in_summary = [&](const std::string& text) {
    return line.find(text) != std::string::npos;
  };

  for (std::size_t i = 0; i < kCounterCount; ++i) {
    const std::string name = kCounterNames[i];
    const std::string value = std::to_string(counter_value(i));
    EXPECT_EQ(snap[static_cast<Counter>(i)], counter_value(i)) << name;
    EXPECT_TRUE(in_summary(" " + name + "=" + value + " ")) << name;
    EXPECT_EQ(cell(name), value);
  }
  for (std::size_t i = 0; i < kGaugeCount; ++i) {
    const std::string name = kGaugeNames[i];
    const std::string value = format_double(gauge_value(i));
    EXPECT_EQ(snap[static_cast<Gauge>(i)], gauge_value(i)) << name;
    EXPECT_TRUE(in_summary(" " + name + "=" + value + " ")) << name;
    EXPECT_EQ(cell(name), value);
  }
  for (std::size_t i = 0; i < kLatencyCount; ++i) {
    const std::string name = kLatencyNames[i];
    const LatencyStats& stats = snap[static_cast<Latency>(i)];
    EXPECT_EQ(stats.samples, 1u) << name;
    EXPECT_EQ(stats.max_us, latency_value(i)) << name;
    EXPECT_NEAR(stats.p50_us, latency_value(i), 0.125 * latency_value(i));
    EXPECT_LE(stats.p50_us, stats.p90_us);
    EXPECT_LE(stats.p90_us, stats.p99_us);
    EXPECT_LE(stats.p99_us, stats.max_us);
    char rendered[64];
    std::snprintf(rendered, sizeof(rendered), " %s_us{n=1 p50=%.1f ",
                  name.c_str(), stats.p50_us);
    EXPECT_TRUE(in_summary(rendered)) << name;
    EXPECT_EQ(cell(name + "_samples"), "1");
    EXPECT_EQ(cell(name + "_p50_us"), format_double(stats.p50_us));
    EXPECT_EQ(cell(name + "_p90_us"), format_double(stats.p90_us));
    EXPECT_EQ(cell(name + "_p99_us"), format_double(stats.p99_us));
    EXPECT_EQ(cell(name + "_max_us"), format_double(stats.max_us));
  }

  // The per-shard family: the full vector in the snapshot, its extremes
  // in summary() and the CSV.
  EXPECT_EQ(snap.shard_repriced, (std::vector<std::uint64_t>{10, 6, 7, 0}));
  EXPECT_TRUE(in_summary(" shard_repriced=[0..10] "));
  EXPECT_EQ(cell("shard_repriced_min"), "0");
  EXPECT_EQ(cell("shard_repriced_max"), "10");

  // One rejected_* row per RejectReason, in enum order.
  std::uint64_t rejected = 0;
  for (std::size_t r = 0; r < kRejectReasonCount; ++r) {
    const auto reason = static_cast<RejectReason>(r);
    EXPECT_EQ(std::string(kCounterNames[row_index(rejected_counter(reason))]),
              std::string("rejected_") + to_string(reason));
    rejected += snap[rejected_counter(reason)];
  }
  EXPECT_EQ(snap.events_rejected_total(), rejected);

  // Every column of a kept metric stays, so consumers that look columns
  // up by name keep working.
  const std::vector<std::string> kPinnedColumns = {
      "events_ingested", "events_coalesced", "batches",
      "loops_repriced", "queue_depth", "solver_iterations", "warm_hits",
      "warm_misses", "reprice_samples", "reprice_p50_us", "reprice_p90_us",
      "reprice_p99_us", "reprice_max_us", "loops_repriced_cpmm",
      "loops_repriced_mixed", "cpmm_reprice_samples", "cpmm_reprice_p50_us",
      "cpmm_reprice_p99_us", "cpmm_reprice_max_us", "mixed_reprice_samples",
      "mixed_reprice_p50_us", "mixed_reprice_p99_us", "mixed_reprice_max_us",
      "rejected_unknown_pool", "rejected_non_finite", "rejected_non_positive",
      "rejected_wrong_kind", "rejected_out_of_range",
      "rejected_stale_sequence", "pools_quarantined", "pools_quarantined_now",
      "resyncs", "solver_fallbacks", "shards", "shard_imbalance",
      "shard_repriced_min", "shard_repriced_max", "warm_invalidations",
      "worker_queue_depth", "epoch_lag",
      "stage_validate_p50_us", "stage_validate_p99_us", "stage_write_p50_us",
      "stage_write_p99_us", "loops_repriced_mixed_fast",
      "loops_repriced_mixed_generic", "routing_queries", "routing_direct",
      "routing_water_filling", "routing_flow_solves", "routing_failures",
      "routing_samples", "routing_p50_us", "routing_p99_us",
      "routing_max_us", "loops_convex_active_set", "loops_convex_certified"};
  ASSERT_EQ(kPinnedColumns.size(), 57u);
  for (const std::string& column : kPinnedColumns) {
    EXPECT_NE(std::find(table.header.begin(), table.header.end(), column),
              table.header.end())
        << column;
  }
}

TEST(RuntimeMetricsTest, DefaultSnapshotHasSingleShardGauges) {
  RuntimeMetrics metrics;
  const MetricsSnapshot snap = metrics.snapshot();
  EXPECT_EQ(snap[Gauge::shards], 1.0);
  EXPECT_TRUE(snap.shard_repriced.empty());
  EXPECT_EQ(snap.shard_repriced_min(), 0u);
  EXPECT_EQ(snap.shard_repriced_max(), 0u);
}

TEST(RuntimeMetricsTest, DefaultSnapshotHasIdlePipeline) {
  RuntimeMetrics metrics;
  const MetricsSnapshot snap = metrics.snapshot();
  EXPECT_EQ(snap[Gauge::epoch_lag], 0.0);
  EXPECT_EQ(snap[Counter::warm_invalidations], 0u);
  EXPECT_EQ(snap[Latency::stage_validate].samples, 0u);
  EXPECT_EQ(snap[Latency::stage_write].samples, 0u);
}

}  // namespace
}  // namespace arb::runtime
