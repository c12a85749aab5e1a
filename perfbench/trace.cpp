// Traced run: the per-layer ledger. Every span wraps a call into a public
// function from this file, so the program under test runs unmodified.
//
// Phases, each a share of the run's seconds:
//   service  closed-loop ScannerService blocks, publish / drain / poll
//            timed separately;
//   ledger   the same block stream through the staged IncrementalScanner
//            API with a ShardedValidator and WorkerPool configured like
//            the service. Two scanners get every block: one is traced
//            stage by stage, its twin runs the same calls under one
//            span, and the two give the tracing overhead;
//   probe    the stream continues through the same scanner, and after
//            each block every loop it dirtied is gated and solved one at
//            a time (kept apart from the ledger so the probes' cache and
//            wake-up effects do not leak into the stage spans);
//   serial   IncrementalScanner::apply with no worker pool, the
//            single-thread baseline;
//   router   enumerate_paths vs route on a copy of the committed market.

#include <cstdio>
#include <utility>
#include <vector>

#include "core/router.hpp"
#include "core/scanner.hpp"
#include "runtime/incremental_scanner.hpp"
#include "runtime/service.hpp"
#include "runtime/validation.hpp"
#include "runtime/worker_pool.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

using arb::core::Opportunity;
using arb::runtime::ApplyReport;
using arb::runtime::IncrementalScanner;
using arb::runtime::PoolUpdateEvent;
using arb::runtime::ScannerService;

constexpr int kSetupCreates = 5;
constexpr int kWarmupBlocks = 32;
constexpr double kServiceShare = 0.2;
constexpr double kLedgerShare = 0.2;
constexpr double kProbeShare = 0.2;
constexpr double kSerialShare = 0.2;
constexpr double kRouterShare = 0.2;

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct ServiceLedger {
  std::vector<double> publish_us;
  std::vector<double> drain_us;
  std::vector<double> poll_us;
  std::uint64_t events = 0;
  double busy_us = 0.0;
};

ServiceLedger trace_service(const Workload& workload,
                            const arb::market::MarketSnapshot& snapshot,
                            std::uint64_t seed, double seconds, Tally& tally) {
  ServiceLedger ledger;
  auto started = ScannerService::start(snapshot, service_config(workload));
  ++tally.attempted;
  if (!started) {
    std::fprintf(stderr, "ScannerService::start failed: %s\n",
                 started.error().to_string().c_str());
    ++tally.failed;
    return ledger;
  }
  ScannerService& service = **started;
  BlockStream blocks(snapshot, workload.pools_per_block, seed);
  std::vector<PoolUpdateEvent> block;
  std::vector<Opportunity> poll;
  const auto start = Clock::now();
  for (int n = 0; n < kWarmupBlocks || seconds_since(start) < seconds; ++n) {
    blocks.next(block);
    const auto t0 = Clock::now();
    for (const PoolUpdateEvent& event : block) {
      if (!service.publish(event)) ++tally.failed;
    }
    const auto t1 = Clock::now();
    service.drain();
    const auto t2 = Clock::now();
    service.opportunities_into(poll);
    const auto t3 = Clock::now();
    tally.attempted += block.size() + 1;
    if (n < kWarmupBlocks) continue;
    ledger.publish_us.push_back(micros(t0, t1));
    ledger.drain_us.push_back(micros(t1, t2));
    ledger.poll_us.push_back(micros(t2, t3));
    ledger.busy_us += micros(t0, t3);
    ledger.events += block.size();
  }
  if (!service.status().ok()) ++tally.failed;
  tally.failed += service.metrics().events_rejected_total();
  service.stop();
  return ledger;
}

/// Stage spans of the traced replay blocks, the program's own counts, and
/// the per-loop probes.
struct ReplayLedger {
  std::vector<double> validate_us, write_us, commit_us, reprice_us, collect_us;
  /// Whole-block spans of the traced scanner and of its untraced twin.
  std::vector<double> traced_block_us, untraced_block_us;
  double traced_stage_us = 0.0;

  // ApplyReport sums over the ledger phase (both scanners).
  std::uint64_t events = 0;
  std::uint64_t unique_pools = 0;
  std::uint64_t repriced = 0;
  std::uint64_t warm_hits = 0;
  std::uint64_t warm_misses = 0;
  std::uint64_t newton_iterations = 0;

  // Probes.
  std::vector<double> gate_ns_per_loop;
  std::uint64_t gate_loops = 0;
  std::uint64_t gate_passed = 0;
  std::vector<double> cpmm_solve_us;
  std::vector<double> mixed_solve_us;
  std::uint64_t mixed_generic = 0;
};

/// Staged replay state: the scanner, the validator and the probes' own
/// per-cycle solver contexts.
class Replay {
 public:
  Replay(IncrementalScanner scanner, const arb::runtime::ServiceConfig& config)
      : scanner_(std::move(scanner)),
        config_(config.scanner),
        validator_(scanner_.view(), config.validation, owners(scanner_),
                   config.shards),
        contexts_(scanner_.index().cycles().size()),
        warm_(scanner_.index().cycles().size()),
        probed_(scanner_.index().cycles().size(), 0) {}

  /// Applies one block through validate → begin_epoch → commit_epoch →
  /// launch/wait_reprice → collect_into, tracing each stage when asked.
  void run_block(const std::vector<PoolUpdateEvent>& block, bool traced,
                 ReplayLedger& ledger, Tally& tally) {
    const auto b0 = Clock::now();
    auto s0 = b0;
    const auto span = [&](std::vector<double>& into) {
      if (!traced) return;
      const auto now = Clock::now();
      into.push_back(micros(s0, now));
      ledger.traced_stage_us += into.back();
      s0 = Clock::now();
    };

    filtered_.clear();
    for (const PoolUpdateEvent& event : block) {
      const arb::runtime::EventVerdict verdict = validator_.check(event);
      if (verdict.accepted) filtered_.push_back(event);
    }
    span(ledger.validate_us);
    const arb::Status written = scanner_.begin_epoch(filtered_);
    span(ledger.write_us);
    scanner_.commit_epoch();
    span(ledger.commit_us);
    scanner_.launch_reprice();
    const arb::Result<ApplyReport> report = scanner_.wait_reprice();
    span(ledger.reprice_us);
    scanner_.collect_into(ranked_);
    span(ledger.collect_us);
    (traced ? ledger.traced_block_us : ledger.untraced_block_us)
        .push_back(micros(b0, Clock::now()));
    tally.attempted += block.size() + 1;
    tally.failed += block.size() - filtered_.size();
    if (!written.ok() || !report) {
      ++tally.failed;
      return;
    }
    ledger.events += report->events;
    ledger.unique_pools += report->unique_pools;
    ledger.repriced += report->repriced;
    ledger.warm_hits += report->warm_hits;
    ledger.warm_misses += report->warm_misses;
    ledger.newton_iterations += report->solver_iterations;
  }

  /// Times the gate (price product) and the solve (evaluate_opportunity)
  /// of every loop the last block dirtied, one loop at a time, on the
  /// committed market.
  void probe(ReplayLedger& ledger, Tally& tally) {
    const auto& cycles = scanner_.index().cycles();
    dirty_.clear();
    for (const PoolUpdateEvent& event : filtered_) {
      for (const std::uint32_t u : scanner_.index().cycles_of(event.pool)) {
        if (probed_[u] == 0) {
          probed_[u] = 1;
          dirty_.push_back(u);
        }
      }
    }
    for (const std::uint32_t u : dirty_) probed_[u] = 0;
    if (dirty_.empty()) return;

    const arb::market::MarketView& view = scanner_.view();
    survivors_.clear();
    const auto g0 = Clock::now();
    for (const std::uint32_t u : dirty_) {
      if (view.price_product(cycles[u]) > 1.0) survivors_.push_back(u);
    }
    const double gate_us = micros(g0, Clock::now());
    ledger.gate_ns_per_loop.push_back(1e3 * gate_us /
                                      static_cast<double>(dirty_.size()));
    ledger.gate_loops += dirty_.size();
    ledger.gate_passed += survivors_.size();

    const arb::market::MarketSnapshot& market = scanner_.snapshot();
    for (const std::uint32_t u : survivors_) {
      arb::core::ConvexContext& ctx = contexts_[u];
      ctx.warm = config_.convex_warm_start ? &warm_[u] : nullptr;
      const auto t0 = Clock::now();
      const auto priced = arb::core::evaluate_opportunity(
          market.graph, market.prices, cycles[u], config_, ctx);
      const double us = micros(t0, Clock::now());
      ++tally.attempted;
      if (!priced) {
        ++tally.failed;
        continue;
      }
      if (cycles[u].all_cpmm(market.graph)) {
        ledger.cpmm_solve_us.push_back(us);
      } else {
        ledger.mixed_solve_us.push_back(us);
        if (ctx.used_generic) ++ledger.mixed_generic;
      }
    }
  }

  IncrementalScanner& scanner() { return scanner_; }
  const std::vector<Opportunity>& ranked() const { return ranked_; }

 private:
  static std::vector<std::uint32_t> owners(const IncrementalScanner& scanner) {
    std::vector<std::uint32_t> out(scanner.view().pool_count());
    for (std::size_t p = 0; p < out.size(); ++p) {
      out[p] = scanner.plan().owner_of_pool(
          arb::PoolId(static_cast<arb::PoolId::underlying_type>(p)));
    }
    return out;
  }

  IncrementalScanner scanner_;
  arb::core::ScannerConfig config_;
  arb::runtime::ShardedValidator validator_;
  std::vector<PoolUpdateEvent> filtered_;
  std::vector<Opportunity> ranked_;
  std::vector<arb::core::ConvexContext> contexts_;
  std::vector<arb::optim::WarmStart> warm_;
  std::vector<char> probed_;
  std::vector<std::uint32_t> dirty_;
  std::vector<std::uint32_t> survivors_;
};

/// Single-thread baseline: apply() inline plus the poll's deep copy.
double serial_events_per_s(const Workload& workload,
                           const arb::market::MarketSnapshot& snapshot,
                           const arb::runtime::ServiceConfig& config,
                           std::uint64_t seed, double seconds, Tally& tally) {
  auto created = IncrementalScanner::create(snapshot, config.scanner, nullptr,
                                            config.shards);
  ++tally.attempted;
  if (!created) {
    ++tally.failed;
    return 0.0;
  }
  IncrementalScanner& scanner = *created;
  BlockStream blocks(snapshot, workload.pools_per_block, seed);
  std::vector<PoolUpdateEvent> block;
  std::vector<Opportunity> ranked;
  double busy_us = 0.0;
  std::uint64_t events = 0;
  const auto start = Clock::now();
  for (int n = 0; n < kWarmupBlocks || seconds_since(start) < seconds; ++n) {
    blocks.next(block);
    const auto t0 = Clock::now();
    const auto report = scanner.apply(block);
    scanner.collect_into(ranked);
    const double us = micros(t0, Clock::now());
    ++tally.attempted;
    if (!report) ++tally.failed;
    if (n < kWarmupBlocks) continue;
    busy_us += us;
    events += block.size();
  }
  return ratio(static_cast<double>(events), busy_us * 1e-6);
}

struct RouterLedger {
  std::vector<double> enumerate_us;
  std::vector<double> solve_us;
  std::uint64_t flow = 0;
  std::uint64_t routed = 0;
};

RouterLedger trace_router(const arb::market::MarketSnapshot& committed,
                          std::uint64_t seed, double seconds, Tally& tally) {
  const arb::market::MarketSnapshot market = committed;
  QueryStream queries(market, seed);
  arb::core::RouterContext ctx;
  RouterLedger ledger;
  const auto start = Clock::now();
  while (seconds_since(start) < seconds) {
    const arb::core::RouteQuery query = queries.next();
    const auto t0 = Clock::now();
    const auto paths =
        arb::core::enumerate_paths(market.graph, query.token_in,
                                   query.token_out, query.max_hops,
                                   query.max_paths);
    const auto t1 = Clock::now();
    const auto result = arb::core::route(market.graph, query, ctx);
    const auto t2 = Clock::now();
    ++tally.attempted;
    if (!result || paths.empty()) {
      ++tally.failed;
      continue;
    }
    const double enumerate = micros(t0, t1);
    ledger.enumerate_us.push_back(enumerate);
    ledger.solve_us.push_back(micros(t1, t2) - enumerate);
    ++ledger.routed;
    if (result->method == arb::core::RouteMethod::kFlowSolve) ++ledger.flow;
  }
  return ledger;
}

}  // namespace

int run_traced(const Workload& workload, std::uint64_t seed, double seconds) {
  const arb::market::MarketSnapshot snapshot = make_market(workload);
  const arb::runtime::ServiceConfig config = service_config(workload);
  Tally tally;

  const ServiceLedger service =
      trace_service(workload, snapshot, seed, seconds * kServiceShare, tally);

  // Set-up: several creates with a pool sized like the service's. The
  // last two scanners serve: one traced, one untraced twin fed the same
  // blocks, so the tracing overhead compares identical work.
  arb::runtime::WorkerPool pool(arb::runtime::WorkerPool::Config{
      .threads = config.worker_threads,
      .queue_capacity = 4096,
      .overflow = arb::runtime::WorkerPool::Overflow::kBlock});
  std::vector<double> create_s;
  std::vector<IncrementalScanner> created;
  for (int i = 0; i < kSetupCreates; ++i) {
    const auto t0 = Clock::now();
    auto scanner =
        IncrementalScanner::create(snapshot, config.scanner, &pool, config.shards);
    create_s.push_back(seconds_since(t0));
    if (!scanner) {
      std::fprintf(stderr, "IncrementalScanner::create failed: %s\n",
                   scanner.error().to_string().c_str());
      return 1;
    }
    if (i >= kSetupCreates - 2) created.push_back(std::move(scanner).value());
  }
  Replay replay(std::move(created[0]), config);
  Replay twin(std::move(created[1]), config);

  ReplayLedger ledger;
  ReplayLedger discard;
  BlockStream blocks(snapshot, workload.pools_per_block, seed);
  std::vector<PoolUpdateEvent> block;
  for (int n = 0; n < kWarmupBlocks; ++n) {
    blocks.next(block);
    replay.run_block(block, false, discard, tally);
    twin.run_block(block, false, discard, tally);
  }
  const auto ledger_start = Clock::now();
  for (std::uint64_t n = 0; seconds_since(ledger_start) < seconds * kLedgerShare;
       ++n) {
    blocks.next(block);
    // Alternate which scanner goes first, so cache order favours neither.
    if (n % 2 == 0) {
      replay.run_block(block, true, ledger, tally);
      twin.run_block(block, false, ledger, tally);
    } else {
      twin.run_block(block, false, ledger, tally);
      replay.run_block(block, true, ledger, tally);
    }
  }
  const auto probe_start = Clock::now();
  while (seconds_since(probe_start) < seconds * kProbeShare) {
    blocks.next(block);
    replay.run_block(block, false, discard, tally);
    replay.probe(ledger, tally);
  }
  if (!ranked_set_matches_oracle(replay.scanner().snapshot(), config.scanner,
                                 replay.ranked())) {
    tally.correct = false;
  }

  const double serial = serial_events_per_s(workload, snapshot, config, seed,
                                            seconds * kSerialShare, tally);
  const RouterLedger router = trace_router(replay.scanner().snapshot(), seed,
                                           seconds * kRouterShare, tally);

  const double service_events_per_s =
      ratio(static_cast<double>(service.events), service.busy_us * 1e-6);
  double traced_wall_us = 0.0;
  for (const double us : ledger.traced_block_us) traced_wall_us += us;
  double untraced_wall_us = 0.0;
  for (const double us : ledger.untraced_block_us) untraced_wall_us += us;
  const double solves =
      static_cast<double>(ledger.warm_hits + ledger.warm_misses);

  std::fprintf(stderr,
               "%s seed=%llu traced: %zu service blocks, %zu traced replay "
               "blocks, %zu cpmm / %zu mixed solve probes, %llu routes\n",
               workload.name.c_str(), static_cast<unsigned long long>(seed),
               service.poll_us.size(), ledger.reprice_us.size(),
               ledger.cpmm_solve_us.size(), ledger.mixed_solve_us.size(),
               static_cast<unsigned long long>(router.routed));
  print_result(
      tally,
      {{"solve.cpmm_loop_us_p50", quantile(ledger.cpmm_solve_us, 0.50), "us"},
       {"solve.cpmm_loop_us_p99", quantile(ledger.cpmm_solve_us, 0.99), "us"},
       {"solve.newton_per_solve",
        ratio(static_cast<double>(ledger.newton_iterations), solves), "count"},
       {"solve.warm_hit_ratio",
        ratio(static_cast<double>(ledger.warm_hits), solves), "share"},
       {"solve.mixed_loop_us_p50", quantile(ledger.mixed_solve_us, 0.50), "us"},
       {"solve.mixed_loop_us_p99", quantile(ledger.mixed_solve_us, 0.99), "us"},
       {"solve.generic_share",
        ratio(static_cast<double>(ledger.mixed_generic),
              static_cast<double>(ledger.mixed_solve_us.size())),
        "share"},
       {"gate.loop_ns", quantile(ledger.gate_ns_per_loop, 0.50), "ns"},
       {"gate.pass_ratio",
        ratio(static_cast<double>(ledger.gate_passed),
              static_cast<double>(ledger.gate_loops)),
        "share"},
       {"validate.batch_us", quantile(ledger.validate_us, 0.50), "us"},
       {"validate.batch_us_p99", quantile(ledger.validate_us, 0.99), "us"},
       {"write.batch_us", quantile(ledger.write_us, 0.50), "us"},
       {"write.batch_us_p99", quantile(ledger.write_us, 0.99), "us"},
       {"commit.batch_us", quantile(ledger.commit_us, 0.50), "us"},
       {"commit.batch_us_p99", quantile(ledger.commit_us, 0.99), "us"},
       {"reprice.batch_us", quantile(ledger.reprice_us, 0.50), "us"},
       {"reprice.batch_us_p99", quantile(ledger.reprice_us, 0.99), "us"},
       {"loops_per_event",
        ratio(static_cast<double>(ledger.repriced),
              static_cast<double>(ledger.events)),
        "count"},
       {"coalesced_share",
        ratio(static_cast<double>(ledger.events - ledger.unique_pools),
              static_cast<double>(ledger.events)),
        "share"},
       {"collect.batch_us", quantile(ledger.collect_us, 0.50), "us"},
       {"collect.batch_us_p99", quantile(ledger.collect_us, 0.99), "us"},
       {"service.publish_us", quantile(service.publish_us, 0.50), "us"},
       {"service.drain_us", quantile(service.drain_us, 0.50), "us"},
       {"service.poll_us", quantile(service.poll_us, 0.50), "us"},
       {"router.enumerate_us", quantile(router.enumerate_us, 0.50), "us"},
       {"router.solve_us", quantile(router.solve_us, 0.50), "us"},
       {"router.flow_share",
        ratio(static_cast<double>(router.flow),
              static_cast<double>(router.routed)),
        "share"},
       {"setup.scanner_create_s", quantile(create_s, 0.50), "s"},
       {"serial.events_per_s", serial, "events/s"},
       {"parallel_gain", ratio(service_events_per_s, serial), "x"},
       {"unattributed_share",
        ratio(traced_wall_us - ledger.traced_stage_us, traced_wall_us),
        "share"},
       {"trace_overhead_share",
        ratio(traced_wall_us - untraced_wall_us, traced_wall_us),
        "share"}});
  return tally.correct && tally.failed == 0 ? 0 : 1;
}

}  // namespace perfbench
