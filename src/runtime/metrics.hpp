#pragma once

/// \file metrics.hpp
/// Built-in observability for the scanner service. Every metric is one
/// row of the registry below (name, kind, one-line meaning); the live
/// atomics, the snapshot, summary(), csv_columns() and the CSV writer are
/// loops over those rows, so adding a metric is a one-line change.
/// Everything is safe to read from any thread while the service runs.

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "runtime/validation.hpp"

namespace arb::runtime {

/// Monotone counters: X(name, meaning). The rejected_* rows are one per
/// RejectReason, contiguous and in enum order (see rejected_counter).
#define ARB_RUNTIME_COUNTERS(X)                                               \
  X(events_ingested, "events accepted into the ingress queue")                \
  X(events_coalesced, "events superseded by a later one in their batch")      \
  X(batches, "epochs repriced and harvested")                                 \
  X(loops_repriced, "dirty cycles visited: cpmm + mixed + gated")             \
  X(loops_repriced_cpmm, "all-CPMM cycles that reached the solver ladder")    \
  X(loops_repriced_mixed, "non-CPMM-crossing cycles that reached the ladder") \
  X(loops_repriced_mixed_fast, "mixed solves by the active set or barrier")   \
  X(loops_repriced_mixed_generic, "mixed solves on the generic solver")       \
  X(loops_convex_active_set, "Convex loops the exact active set priced")      \
  X(loops_convex_certified, "active-set loops where MaxMax is certified")     \
  X(loops_gated, "dirty cycles the price-product gate rejected")              \
  X(solver_iterations, "Newton iterations across barrier-rung solves")        \
  X(warm_hits, "barrier-rung solves resumed from the cycle's last optimum")   \
  X(warm_misses, "barrier-rung solves that started cold")                     \
  X(warm_invalidations, "warm slots that went valid -> invalid")              \
  X(solver_fallbacks, "barrier solves rescued by the generic solver")         \
  X(rejected_unknown_pool, "events rejected: pool id beyond the market")      \
  X(rejected_non_finite, "events rejected: NaN or infinite payload")          \
  X(rejected_non_positive, "events rejected: zero or negative payload")       \
  X(rejected_wrong_kind, "events rejected: payload kind != pool kind")        \
  X(rejected_out_of_range, "events rejected: price outside the position")     \
  X(rejected_stale_sequence, "events rejected: sequence not newer")           \
  X(pools_quarantined, "quarantine entries (cumulative)")                     \
  X(resyncs, "quarantine releases, each repricing the pool's cycles")         \
  X(routing_queries, "best-execution queries answered")                       \
  X(routing_direct, "routes solved by direct chain evaluation")               \
  X(routing_water_filling, "routes solved by water-filling bisection")        \
  X(routing_flow_solves, "routes solved by the flow-form barrier program")    \
  X(routing_failures, "route queries that returned an error")

/// Point-in-time values: X(name, value before the first set, meaning).
#define ARB_RUNTIME_GAUGES(X)                                                 \
  X(queue_depth, 0, "events waiting in the ingress queue")                    \
  X(pools_quarantined_now, 0, "pools in quarantine")                          \
  X(shards, 1, "shard count, fixed at start")                                 \
  X(shard_imbalance, 0, "max/mean pool fan-out of the shard plan")            \
  X(epoch_lag, 0, "epochs in flight behind the committed front (0 or 1)")     \
  X(worker_queue_depth, 0, "worker-pool tasks waiting")

/// Latency histograms in µs: X(name, meaning). Each exports the columns
/// <name>_samples, _p50_us, _p90_us, _p99_us and _max_us.
#define ARB_RUNTIME_LATENCIES(X)                                              \
  X(reprice, "epoch reprice, launch to harvest")                              \
  X(cpmm_reprice, "per-loop all-CPMM solve, one batch mean per epoch")        \
  X(mixed_reprice, "per-loop mixed solve, one batch mean per epoch")          \
  X(stage_validate, "validation stage, per batch")                            \
  X(stage_write, "epoch write (begin_epoch), per batch")                      \
  X(routing, "best-execution query, end to end")

#define ARB_METRIC_ENUM(name, ...) name,
#define ARB_METRIC_NAME(name, ...) #name,
#define ARB_GAUGE_INIT(name, init, meaning) init,
enum class Counter : std::size_t { ARB_RUNTIME_COUNTERS(ARB_METRIC_ENUM) };
enum class Gauge : std::size_t { ARB_RUNTIME_GAUGES(ARB_METRIC_ENUM) };
enum class Latency : std::size_t { ARB_RUNTIME_LATENCIES(ARB_METRIC_ENUM) };
inline constexpr std::array kCounterNames = {
    ARB_RUNTIME_COUNTERS(ARB_METRIC_NAME)};
inline constexpr std::array kGaugeNames = {ARB_RUNTIME_GAUGES(ARB_METRIC_NAME)};
inline constexpr std::array kLatencyNames = {
    ARB_RUNTIME_LATENCIES(ARB_METRIC_NAME)};
inline constexpr std::size_t kCounterCount = kCounterNames.size();
inline constexpr std::size_t kGaugeCount = kGaugeNames.size();
inline constexpr std::size_t kLatencyCount = kLatencyNames.size();

template <typename Row>
constexpr std::size_t row_index(Row row) {
  return static_cast<std::size_t>(row);
}

/// The rejected_* counter of one RejectReason.
constexpr Counter rejected_counter(RejectReason reason) {
  return static_cast<Counter>(row_index(Counter::rejected_unknown_pool) +
                              static_cast<std::size_t>(reason));
}
static_assert(rejected_counter(RejectReason::kStaleSequence) ==
              Counter::rejected_stale_sequence);

/// What one latency histogram exports.
struct LatencyStats {
  std::uint64_t samples = 0;
  double p50_us = 0.0;
  double p90_us = 0.0;
  double p99_us = 0.0;
  double max_us = 0.0;
};

/// Histogram over non-negative latencies, log-linear: each power of two
/// [2^e, 2^{e+1}) µs is split into 8 equal sub-buckets, and one bucket
/// holds all sub-microsecond samples. Quantiles interpolate linearly
/// inside the containing bucket, so for samples >= 1 µs they are within
/// 12.5% of the true value. Recording is lock-free.
class LatencyHistogram {
 public:
  static constexpr std::size_t kOctaves = 40;
  static constexpr std::size_t kSubBuckets = 8;
  static constexpr std::size_t kBuckets = 1 + kOctaves * kSubBuckets;

  void record(double microseconds);

  [[nodiscard]] std::uint64_t samples() const {
    return total_.load(std::memory_order_relaxed);
  }
  /// q in [0, 1]. Returns 0 with no samples.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double max_us() const;
  [[nodiscard]] LatencyStats stats() const {
    return {samples(), quantile(0.50), quantile(0.90), quantile(0.99),
            max_us()};
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> counts_{};
  std::atomic<std::uint64_t> total_{0};
  std::atomic<std::uint64_t> max_us_bits_{0};  ///< bit_cast'ed double
};

/// Point-in-time copy of every registry row, indexed by its enum.
struct MetricsSnapshot {
  std::array<std::uint64_t, kCounterCount> counters{};
  std::array<double, kGaugeCount> gauges{ARB_RUNTIME_GAUGES(ARB_GAUGE_INIT)};
  std::array<LatencyStats, kLatencyCount> latencies{};
  /// Cumulative per-shard share of loops_repriced (one entry per shard):
  /// the one variable-length family. The CSV keeps a fixed schema by
  /// exporting only its min and max; the full vector is available here.
  std::vector<std::uint64_t> shard_repriced;

  std::uint64_t operator[](Counter c) const { return counters[row_index(c)]; }
  double& operator[](Gauge g) { return gauges[row_index(g)]; }
  double operator[](Gauge g) const { return gauges[row_index(g)]; }
  const LatencyStats& operator[](Latency l) const {
    return latencies[row_index(l)];
  }

  [[nodiscard]] std::uint64_t shard_repriced_min() const;
  [[nodiscard]] std::uint64_t shard_repriced_max() const;
  [[nodiscard]] std::uint64_t events_rejected_total() const;

  /// One-line human-readable rendering: name=value per registry row.
  [[nodiscard]] std::string summary() const;

  /// CSV column names, matching write_metrics_csv's cell order.
  [[nodiscard]] static std::vector<std::string> csv_columns();
};

/// The live, thread-shared registry storage.
class RuntimeMetrics {
 public:
  void add(Counter c, std::uint64_t n = 1) { counters_[row_index(c)] += n; }
  void set(Gauge g, double value) { gauges_[row_index(g)] = value; }
  void record(Latency l, double microseconds) {
    latencies_[row_index(l)].record(microseconds);
  }

  /// Sizes the per-shard counters and records the plan's static gauges.
  /// Must be called before the consumer thread starts (the vector of
  /// atomics is resized, not locked).
  void set_shard_plan(std::size_t shards, double imbalance);
  void add_shard_repriced(std::size_t shard, std::uint64_t n) {
    shard_repriced_[shard] += n;
  }

  [[nodiscard]] MetricsSnapshot snapshot() const;

 private:
  std::array<std::atomic<std::uint64_t>, kCounterCount> counters_{};
  std::array<std::atomic<double>, kGaugeCount> gauges_{
      ARB_RUNTIME_GAUGES(ARB_GAUGE_INIT)};
  std::array<LatencyHistogram, kLatencyCount> latencies_;
  std::vector<std::atomic<std::uint64_t>> shard_repriced_;
};
#undef ARB_METRIC_ENUM
#undef ARB_METRIC_NAME
#undef ARB_GAUGE_INIT

/// Writes snapshots as CSV (header + one row per snapshot).
[[nodiscard]] Status write_metrics_csv(
    const std::vector<MetricsSnapshot>& snapshots, const std::string& path);

}  // namespace arb::runtime
