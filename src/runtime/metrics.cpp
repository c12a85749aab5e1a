#include "runtime/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "common/csv.hpp"
#include "common/error.hpp"

namespace arb::runtime {
namespace {

using H = LatencyHistogram;

/// Bucket 0 holds [0, 1) µs; bucket 1 + 8e + s holds
/// [2^e (1 + s/8), 2^e (1 + (s+1)/8)). The sub-bucket s comes from the
/// sample's mantissa: its integer part has fewer than three bits below
/// 8 µs, which would lose the 12.5% bound there.
std::size_t bucket_of(double microseconds) {
  if (!(microseconds >= 1.0)) return 0;
  if (!(microseconds < std::ldexp(1.0, H::kOctaves))) return H::kBuckets - 1;
  int exponent = 0;
  const double mantissa = std::frexp(microseconds, &exponent);  // [0.5, 1)
  const auto sub = static_cast<std::size_t>(mantissa * 2 * H::kSubBuckets) -
                   H::kSubBuckets;
  return 1 + static_cast<std::size_t>(exponent - 1) * H::kSubBuckets + sub;
}

/// Lower edge of bucket b >= 1; bucket b ends where bucket b + 1 starts.
double lower_edge(std::size_t b) {
  const std::size_t octave = (b - 1) / H::kSubBuckets;
  const std::size_t sub = (b - 1) % H::kSubBuckets;
  return std::ldexp(1.0 + static_cast<double>(sub) / H::kSubBuckets,
                    static_cast<int>(octave));
}

constexpr std::array kLatencyColumns = {"_samples", "_p50_us", "_p90_us",
                                        "_p99_us", "_max_us"};

}  // namespace

void LatencyHistogram::record(double microseconds) {
  if (microseconds < 0.0 || std::isnan(microseconds)) return;
  counts_[bucket_of(microseconds)].fetch_add(1, std::memory_order_relaxed);
  total_.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t seen = max_us_bits_.load(std::memory_order_relaxed);
  while (microseconds > std::bit_cast<double>(seen) &&
         !max_us_bits_.compare_exchange_weak(
             seen, std::bit_cast<std::uint64_t>(microseconds),
             std::memory_order_relaxed)) {
  }
}

double LatencyHistogram::max_us() const {
  return std::bit_cast<double>(max_us_bits_.load(std::memory_order_relaxed));
}

double LatencyHistogram::quantile(double q) const {
  q = std::clamp(q, 0.0, 1.0);
  std::array<std::uint64_t, kBuckets> counts;
  std::uint64_t total = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    counts[b] = counts_[b].load(std::memory_order_relaxed);
    total += counts[b];
  }
  if (total == 0) return 0.0;
  const double rank = q * static_cast<double>(total);
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    if (counts[b] == 0) continue;
    if (static_cast<double>(seen + counts[b]) >= rank) {
      const double lo = b == 0 ? 0.0 : lower_edge(b);
      const double hi = lower_edge(b + 1);
      const double within =
          (rank - static_cast<double>(seen)) / static_cast<double>(counts[b]);
      // The true sample never exceeds the observed maximum; clamp the
      // bucket interpolation so high quantiles stay <= max_us().
      return std::min(lo + within * (hi - lo), max_us());
    }
    seen += counts[b];
  }
  return max_us();
}

std::uint64_t MetricsSnapshot::events_rejected_total() const {
  std::uint64_t total = 0;
  for (std::size_t r = 0; r < kRejectReasonCount; ++r) {
    total += (*this)[rejected_counter(static_cast<RejectReason>(r))];
  }
  return total;
}

std::uint64_t MetricsSnapshot::shard_repriced_min() const {
  const auto it = std::ranges::min_element(shard_repriced);
  return it == shard_repriced.end() ? 0 : *it;
}

std::uint64_t MetricsSnapshot::shard_repriced_max() const {
  const auto it = std::ranges::max_element(shard_repriced);
  return it == shard_repriced.end() ? 0 : *it;
}

std::string MetricsSnapshot::summary() const {
  std::string line;
  char cell[192];
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    std::snprintf(cell, sizeof(cell), "%s=%llu ", kCounterNames[i],
                  static_cast<unsigned long long>(counters[i]));
    line += cell;
  }
  for (std::size_t i = 0; i < kGaugeCount; ++i) {
    std::snprintf(cell, sizeof(cell), "%s=%.10g ", kGaugeNames[i], gauges[i]);
    line += cell;
  }
  for (std::size_t i = 0; i < kLatencyCount; ++i) {
    const LatencyStats& l = latencies[i];
    std::snprintf(cell, sizeof(cell),
                  "%s_us{n=%llu p50=%.1f p90=%.1f p99=%.1f max=%.1f} ",
                  kLatencyNames[i], static_cast<unsigned long long>(l.samples),
                  l.p50_us, l.p90_us, l.p99_us, l.max_us);
    line += cell;
  }
  std::snprintf(cell, sizeof(cell), "shard_repriced=[%llu..%llu]",
                static_cast<unsigned long long>(shard_repriced_min()),
                static_cast<unsigned long long>(shard_repriced_max()));
  return line + cell;
}

std::vector<std::string> MetricsSnapshot::csv_columns() {
  std::vector<std::string> columns(kCounterNames.begin(), kCounterNames.end());
  columns.insert(columns.end(), kGaugeNames.begin(), kGaugeNames.end());
  for (const char* name : kLatencyNames) {
    for (const char* suffix : kLatencyColumns) {
      columns.push_back(std::string(name) + suffix);
    }
  }
  columns.insert(columns.end(), {"shard_repriced_min", "shard_repriced_max"});
  return columns;
}

void RuntimeMetrics::set_shard_plan(std::size_t shards, double imbalance) {
  set(Gauge::shards, shards);
  set(Gauge::shard_imbalance, imbalance);
  // Atomics are neither copyable nor movable; swap in a fresh buffer of
  // value-initialized counters instead of resizing element-wise.
  shard_repriced_ = std::vector<std::atomic<std::uint64_t>>(shards);
}

MetricsSnapshot RuntimeMetrics::snapshot() const {
  MetricsSnapshot snap;
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    snap.counters[i] = counters_[i].load(std::memory_order_relaxed);
  }
  for (std::size_t i = 0; i < kGaugeCount; ++i) {
    snap.gauges[i] = gauges_[i].load(std::memory_order_relaxed);
  }
  for (std::size_t i = 0; i < kLatencyCount; ++i) {
    snap.latencies[i] = latencies_[i].stats();
  }
  snap.shard_repriced.reserve(shard_repriced_.size());
  for (const std::atomic<std::uint64_t>& n : shard_repriced_) {
    snap.shard_repriced.push_back(n.load(std::memory_order_relaxed));
  }
  return snap;
}

Status write_metrics_csv(const std::vector<MetricsSnapshot>& snapshots,
                         const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return make_error(ErrorCode::kIoError, "cannot open " + path);
  }
  CsvWriter csv(out);
  csv.header(MetricsSnapshot::csv_columns());
  for (const MetricsSnapshot& s : snapshots) {
    for (const std::uint64_t n : s.counters) {
      csv.cell(static_cast<std::size_t>(n));
    }
    for (const double g : s.gauges) csv.cell(g);
    // Cells in kLatencyColumns order.
    for (const LatencyStats& l : s.latencies) {
      csv.cell(static_cast<std::size_t>(l.samples))
          .cell(l.p50_us)
          .cell(l.p90_us)
          .cell(l.p99_us)
          .cell(l.max_us);
    }
    csv.row(static_cast<std::size_t>(s.shard_repriced_min()),
            static_cast<std::size_t>(s.shard_repriced_max()));
  }
  return Status::success();
}

}  // namespace arb::runtime
