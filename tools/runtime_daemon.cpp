// Streaming-runtime driver: loads the committed sample snapshot, replays
// it as a pool-update stream through the ScannerService, and reports the
// ranked opportunity set plus the metrics layer's view of the run.
//
// Usage: runtime_daemon [--shards N] [snapshot_dir] [blocks]
//                       [worker_threads] [fault_rate] [fault_seed]
// Defaults: the repo's data/sample_snapshot, 50 blocks, 4 threads, one
// shard, no fault injection. --shards N partitions the cycle universe
// across N parallel shard scanners (the ranked output is bit-identical
// for any N). Counts must be positive integers and fault_rate a number
// in [0, 1]; anything else prints the usage and exits 2. The service
// validates every event and overlaps epoch N+1's validate/write stages
// with epoch N's repricing. A positive fault_rate wraps the stream in a
// seeded FaultInjector (uniform rate across all five fault classes) to
// exercise the validation/quarantine stage; the run then reports the
// injector's fault counts next to the service's rejection metrics.
// Writes runtime_metrics.csv (one metrics snapshot per block, including
// the per-stage latency and epoch-lag columns).

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "amm/any_pool.hpp"
#include "market/io.hpp"
#include "market/snapshot.hpp"
#include "runtime/fault.hpp"
#include "runtime/replay_stream.hpp"
#include "runtime/service.hpp"
#include "runtime/validation.hpp"
#include "cli_args.hpp"

using namespace arb;

namespace {

[[noreturn]] void die(const std::string& what, const Error& error) {
  std::fprintf(stderr, "%s: %s\n", what.c_str(), error.to_string().c_str());
  std::exit(1);
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: runtime_daemon [--shards N] [snapshot_dir] [blocks] "
               "[worker_threads] [fault_rate] [fault_seed]\nblocks, "
               "worker_threads and shards must be positive integers, "
               "fault_rate in [0, 1], fault_seed a non-negative integer\n");
  std::exit(2);
}

/// The parsed value, or the usage message and exit 2.
template <typename T>
T or_usage(std::optional<T> value) {
  if (!value) usage();
  return *value;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t shards = 1;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--shards" && i + 1 < argc) {
      shards = or_usage(tools::parse_count(argv[++i]));
    } else if (arg.size() > 1 && arg[0] == '-') {
      usage();
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.size() > 5) usage();
  const std::string dir =
      !positional.empty() ? positional[0]
                          : std::string(ARB_REPO_DIR) + "/data/sample_snapshot";
  const auto arg = [&](std::size_t i, auto parse, auto fallback) {
    return positional.size() > i ? or_usage(parse(positional[i].c_str()))
                                 : fallback;
  };
  const std::size_t blocks = arg(1, tools::parse_count, std::uint64_t{50});
  const std::size_t threads = arg(2, tools::parse_count, std::uint64_t{4});
  const double fault_rate = arg(3, tools::parse_finite, 0.0);
  const std::uint64_t fault_seed = arg(4, tools::parse_uint, std::uint64_t{1});
  if (fault_rate < 0.0 || fault_rate > 1.0) usage();

  auto loaded = market::load_snapshot(dir);
  if (!loaded) die("load_snapshot(" + dir + ")", loaded.error());
  const market::MarketSnapshot snapshot =
      loaded->filtered(market::PoolFilter{});
  std::size_t cpmm_pools = 0;
  std::size_t stable_pools = 0;
  std::size_t concentrated_pools = 0;
  for (const amm::AnyPool& pool : snapshot.graph.pools()) {
    switch (pool.kind()) {
      case amm::PoolKind::kCpmm: ++cpmm_pools; break;
      case amm::PoolKind::kStable: ++stable_pools; break;
      case amm::PoolKind::kConcentrated: ++concentrated_pools; break;
    }
  }
  std::printf("snapshot: %s — %zu tokens, %zu pools after filter "
              "(cpmm=%zu stable=%zu concentrated=%zu)\n",
              snapshot.label.c_str(), snapshot.graph.token_count(),
              snapshot.graph.pool_count(), cpmm_pools, stable_pools,
              concentrated_pools);

  runtime::ServiceConfig config;
  config.scanner.loop_lengths = {3};
  config.worker_threads = threads;
  config.shards = shards;
  auto service = runtime::ScannerService::start(snapshot, config);
  if (!service) die("ScannerService::start", service.error());

  runtime::ReplayStreamConfig stream_config;
  stream_config.blocks = blocks;
  runtime::ReplayUpdateStream replay(snapshot, stream_config);

  std::unique_ptr<runtime::FaultInjector> injector;
  runtime::UpdateStream* stream = &replay;
  if (fault_rate > 0.0) {
    const auto profile = runtime::FaultProfile::uniform(fault_rate, fault_seed);
    injector = std::make_unique<runtime::FaultInjector>(
        replay, profile, snapshot.graph.pool_count());
    stream = injector.get();
    std::printf("fault injection: rate %.3f seed %llu on all classes\n",
                fault_rate, static_cast<unsigned long long>(profile.seed));
  }

  std::vector<runtime::MetricsSnapshot> per_block;
  std::size_t published = 0;
  std::size_t block_events = 0;
  while (auto event = stream->next()) {
    if ((*service)->publish(*event)) ++published;
    // One metrics snapshot per block (every pool shocked once per block;
    // under fault injection drops/duplicates make this approximate).
    if (++block_events >= snapshot.graph.pool_count()) {
      (*service)->drain();
      per_block.push_back((*service)->metrics());
      block_events = 0;
    }
  }
  (*service)->drain();
  if (Status status = (*service)->status(); !status.ok()) {
    die("service", status.error());
  }

  std::vector<core::Opportunity> opportunities;
  (*service)->opportunities_into(opportunities);
  const auto quarantined = (*service)->quarantined_pools();
  const runtime::MetricsSnapshot metrics = (*service)->metrics();
  (*service)->stop();

  std::printf("published %zu events over %zu blocks\n", published, blocks);
  std::printf("metrics: %s\n", metrics.summary().c_str());
  if (injector != nullptr) {
    const runtime::FaultCounts& counts = injector->counts();
    std::printf("injected faults: corrupted=%llu duplicated=%llu "
                "dropped=%llu reordered=%llu stale=%llu "
                "(pulled=%llu delivered=%llu)\n",
                static_cast<unsigned long long>(counts.corrupted),
                static_cast<unsigned long long>(counts.duplicated),
                static_cast<unsigned long long>(counts.dropped),
                static_cast<unsigned long long>(counts.reordered),
                static_cast<unsigned long long>(counts.stale_replayed),
                static_cast<unsigned long long>(counts.pulled),
                static_cast<unsigned long long>(counts.delivered));
  }
  using runtime::Counter;
  using runtime::Gauge;
  using runtime::Latency;
  const auto count = [&](auto row) {
    return static_cast<unsigned long long>(metrics[row]);
  };
  if (metrics.events_rejected_total() > 0 || injector != nullptr) {
    std::printf("rejected by reason:");
    for (std::size_t r = 0; r < runtime::kRejectReasonCount; ++r) {
      const auto reason = static_cast<runtime::RejectReason>(r);
      std::printf(" %s=%llu", runtime::to_string(reason),
                  count(runtime::rejected_counter(reason)));
    }
    std::printf("\n");
    std::printf("quarantine: entered=%llu now=%zu resyncs=%llu "
                "solver_fallbacks=%llu\n",
                count(Counter::pools_quarantined), quarantined.size(),
                count(Counter::resyncs), count(Counter::solver_fallbacks));
    for (const PoolId pool : quarantined) {
      std::printf("  quarantined: %s\n",
                  snapshot.graph.pool(pool).to_string().c_str());
    }
  }
  const auto latency = [&](const char* label, Latency row) {
    const runtime::LatencyStats& l = metrics[row];
    std::printf("%s: us p50=%.1f p99=%.1f max=%.1f (%llu samples)\n", label,
                l.p50_us, l.p99_us, l.max_us,
                static_cast<unsigned long long>(l.samples));
  };
  std::printf("repricing by venue kind: %llu cpmm + %llu mixed solves, "
              "%llu loops gated\n",
              count(Counter::loops_repriced_cpmm),
              count(Counter::loops_repriced_mixed),
              count(Counter::loops_gated));
  latency("  cpmm per-loop ", Latency::cpmm_reprice);
  latency("  mixed per-loop", Latency::mixed_reprice);
  std::printf("pipeline: epoch lag %llu, worker queue %llu, "
              "warm invalidations %llu\n",
              count(Gauge::epoch_lag), count(Gauge::worker_queue_depth),
              count(Counter::warm_invalidations));
  latency("  validate stage", Latency::stage_validate);
  latency("  write stage   ", Latency::stage_write);
  latency("  reprice stage ", Latency::reprice);
  std::printf("shard router: %llu shards, plan imbalance %.3f\n",
              count(Gauge::shards), metrics[Gauge::shard_imbalance]);
  for (std::size_t s = 0; s < metrics.shard_repriced.size(); ++s) {
    std::printf("  shard %zu: %llu loops repriced\n", s,
                static_cast<unsigned long long>(metrics.shard_repriced[s]));
  }
  std::printf("\ntop opportunities after final block:\n");
  const std::size_t top = std::min<std::size_t>(5, opportunities.size());
  for (std::size_t i = 0; i < top; ++i) {
    const auto& op = opportunities[i];
    std::printf("  %2zu. $%9.2f  %s\n", i + 1, op.net_profit_usd,
                op.cycle.describe(snapshot.graph).c_str());
  }
  if (opportunities.empty()) std::printf("  (none)\n");

  if (Status status = runtime::write_metrics_csv(per_block,
                                                 "runtime_metrics.csv");
      !status.ok()) {
    die("write_metrics_csv", status.error());
  }
  std::printf("\nper-block metrics written to runtime_metrics.csv\n");
  return 0;
}
