#include "runtime/service.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/logging.hpp"

namespace arb::runtime {

namespace {

using Clock = std::chrono::steady_clock;

double micros_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

}  // namespace

ScannerService::ScannerService(const ServiceConfig& config)
    : config_(config),
      workers_(WorkerPool::Config{
          .threads = config.worker_threads,
          // Re-price tasks are produced by the consumer thread only and
          // bounded by the dirty-set size; kBlock keeps submission
          // lossless if a burst ever outruns the task queue.
          .queue_capacity = 4096,
          .overflow = WorkerPool::Overflow::kBlock}) {}

Result<std::unique_ptr<ScannerService>> ScannerService::start(
    const market::MarketSnapshot& snapshot, const ServiceConfig& config) {
  if (config.max_batch == 0 || config.queue_capacity == 0 ||
      config.worker_threads == 0 || config.shards == 0) {
    return make_error(ErrorCode::kInvalidArgument,
                      "service needs positive max_batch, queue_capacity, "
                      "worker_threads and shards");
  }
  std::unique_ptr<ScannerService> service(new ScannerService(config));
  auto scanner = IncrementalScanner::create(snapshot, config.scanner,
                                            &service->workers_, config.shards);
  if (!scanner) return scanner.error();
  service->scanner_ =
      std::make_unique<IncrementalScanner>(std::move(scanner).value());
  service->metrics_.set_shard_plan(service->scanner_->shard_count(),
                                   service->scanner_->plan().imbalance());
  // Each pool's validator state lives in its owner shard.
  const std::size_t pools = service->scanner_->view().pool_count();
  std::vector<std::uint32_t> owners(pools);
  for (std::size_t p = 0; p < pools; ++p) {
    owners[p] = service->scanner_->plan().owner_of_pool(
        PoolId(static_cast<PoolId::underlying_type>(p)));
  }
  service->validator_ = std::make_unique<ShardedValidator>(
      service->scanner_->view(), config.validation, std::move(owners),
      config.shards);
  service->consumer_ = std::thread([raw = service.get()] { raw->run(); });
  return service;
}

ScannerService::~ScannerService() { stop(); }

bool ScannerService::publish(const PoolUpdateEvent& event) {
  {
    std::unique_lock lock(queue_mutex_);
    queue_not_full_.wait(lock, [this] {
      return stopping_ || failed_ || queue_.size() < config_.queue_capacity;
    });
    if (stopping_ || failed_) return false;
    queue_.push_back(event);
    metrics_.set(Gauge::queue_depth, queue_.size());
  }
  metrics_.add(Counter::events_ingested);
  queue_not_empty_.notify_one();
  return true;
}

void ScannerService::take_batch_locked(std::vector<PoolUpdateEvent>& out) {
  const auto take = static_cast<std::ptrdiff_t>(
      std::min(config_.max_batch, queue_.size()));
  out.assign(queue_.begin(), queue_.begin() + take);
  queue_.erase(queue_.begin(), queue_.begin() + take);
  metrics_.set(Gauge::queue_depth, queue_.size());
}

void ScannerService::drain() {
  std::unique_lock lock(queue_mutex_);
  queue_drained_.wait(lock, [this] {
    return failed_ || (queue_.empty() && !applying_);
  });
}

void ScannerService::stop() {
  {
    std::lock_guard lock(queue_mutex_);
    stopping_ = true;
  }
  queue_not_empty_.notify_all();
  queue_not_full_.notify_all();
  if (consumer_.joinable()) consumer_.join();
  workers_.shutdown();
}

Status ScannerService::status() const {
  std::lock_guard lock(scanner_mutex_);
  return status_;
}

MetricsSnapshot ScannerService::metrics() const {
  MetricsSnapshot snap = metrics_.snapshot();
  // The task-queue gauge is cheap to read live; everything else in the
  // snapshot is already monotonic counters.
  snap[Gauge::worker_queue_depth] = workers_.queue_depth();
  return snap;
}

std::vector<core::Opportunity> ScannerService::opportunities() const {
  std::lock_guard lock(scanner_mutex_);
  return scanner_->collect();
}

void ScannerService::opportunities_into(
    std::vector<core::Opportunity>& out) const {
  std::lock_guard lock(scanner_mutex_);
  scanner_->collect_into(out);
}

std::vector<PoolId> ScannerService::quarantined_pools() const {
  std::lock_guard lock(scanner_mutex_);
  return validator_->quarantined_pools();
}

void ScannerService::run() {
  // The batch slot, reused across epochs (steady state allocates
  // nothing): a batch taken from the ingress queue, its validated
  // survivors, and the quarantine transitions its validation produced
  // (replayed, in stream order, at the epoch barrier — the validator
  // state machine is stream-order-only, so deferring the scanner-side
  // transition to the barrier leaves every epoch's frozen state
  // bit-identical to the serial engine's).
  struct Transition {
    PoolId pool;
    bool entered = false;
  };
  std::vector<PoolUpdateEvent> batch;
  std::vector<PoolUpdateEvent> survivors;
  std::vector<Transition> transitions;
  bool inflight = false;
  Clock::time_point launched{};

  // The consumer holds the scanner lock for the whole busy stretch and
  // releases it only when the pipeline settles (queue empty, no epoch in
  // flight), so observers see exactly the serial engine's quiescent
  // states. Lock order is always scanner_mutex_ -> queue_mutex_.
  std::unique_lock slock(scanner_mutex_, std::defer_lock);

  // Harvest stage (requires slock): joins the in-flight lanes and folds
  // their report into the metrics. Returns false on a lane error (status_
  // is then set; the caller runs the fail path).
  const auto harvest = [&]() -> bool {
    Result<ApplyReport> report = scanner_->wait_reprice();
    inflight = false;
    const double micros = micros_between(launched, Clock::now());
    if (!report) {
      ARB_LOG_WARN("scanner service stopping on error: "
                   << report.error().to_string());
      status_ = report.error();
      return false;
    }
    metrics_.add(Counter::batches);
    metrics_.add(Counter::events_coalesced,
                 report->events - report->unique_pools);
    metrics_.add(Counter::loops_repriced, report->repriced);
    metrics_.add(Counter::loops_repriced_cpmm, report->repriced_cpmm);
    metrics_.add(Counter::loops_repriced_mixed, report->repriced_mixed);
    metrics_.add(Counter::loops_repriced_mixed_fast,
                 report->repriced_mixed_fast);
    metrics_.add(Counter::loops_repriced_mixed_generic,
                 report->repriced_mixed_generic);
    metrics_.add(Counter::loops_convex_active_set,
                 report->repriced_active_set);
    metrics_.add(Counter::loops_convex_certified, report->repriced_certified);
    metrics_.add(Counter::loops_gated, report->gated);
    metrics_.add(Counter::solver_iterations, report->solver_iterations);
    metrics_.add(Counter::solver_fallbacks, report->solver_fallbacks);
    metrics_.add(Counter::warm_hits, report->warm_hits);
    metrics_.add(Counter::warm_misses, report->warm_misses);
    metrics_.add(Counter::warm_invalidations, report->warm_invalidations);
    metrics_.record(Latency::reprice, micros);
    for (std::size_t s = 0; s < report->shard_repriced.size(); ++s) {
      metrics_.add_shard_repriced(s, report->shard_repriced[s]);
    }
    // Per-kind per-loop solve latency, one sample per batch (the batch
    // mean over the loops that reached the solver ladder; gate rejects
    // are neither timed nor counted here).
    if (report->repriced_cpmm > 0) {
      metrics_.record(Latency::cpmm_reprice,
                      report->reprice_cpmm_us /
                          static_cast<double>(report->repriced_cpmm));
    }
    if (report->repriced_mixed > 0) {
      metrics_.record(Latency::mixed_reprice,
                      report->reprice_mixed_us /
                          static_cast<double>(report->repriced_mixed));
    }
    metrics_.set(Gauge::worker_queue_depth, workers_.queue_depth());
    return true;
  };

  // Terminal error path: status_ was already set under slock. Marks the
  // service failed, abandons queued events (fail fast) and wakes every
  // waiter: drain() returns and blocked producers get false.
  const auto fail = [&] {
    slock.unlock();
    {
      std::lock_guard qlock(queue_mutex_);
      applying_ = false;
      failed_ = true;
    }
    queue_drained_.notify_all();
    queue_not_full_.notify_all();
  };

  for (;;) {
    {
      std::unique_lock qlock(queue_mutex_);
      if (queue_.empty() && slock.owns_lock()) {
        // Pipeline still busy with nothing left to feed it: settle —
        // harvest the in-flight epoch, then go quiescent.
        qlock.unlock();
        if (inflight && !harvest()) {
          fail();
          return;
        }
        metrics_.set(Gauge::epoch_lag, 0);
        slock.unlock();
        qlock.lock();
        applying_ = false;
        if (queue_.empty()) queue_drained_.notify_all();
      }
      queue_not_empty_.wait(qlock,
                            [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and fully drained
      take_batch_locked(batch);
      applying_ = true;
    }
    queue_not_full_.notify_all();
    if (!slock.owns_lock()) slock.lock();

    // Validation stage: reject malformed events, record quarantine
    // transitions for the barrier, keep the survivors. An empty surviving
    // batch still runs an epoch so the ranked view reflects quarantine
    // entries immediately.
    const auto v0 = Clock::now();
    survivors.clear();
    transitions.clear();
    for (const PoolUpdateEvent& event : batch) {
      const EventVerdict verdict = validator_->check(event);
      if (verdict.entered_quarantine) {
        transitions.push_back({event.pool, true});
        metrics_.add(Counter::pools_quarantined);
      }
      if (verdict.released_quarantine) {
        // The releasing event rides in the surviving batch, dirtying
        // exactly this pool's cycles — the full-repricing resync.
        transitions.push_back({event.pool, false});
        metrics_.add(Counter::resyncs);
      }
      if (!verdict.accepted) {
        metrics_.add(rejected_counter(verdict.reason));
        continue;
      }
      survivors.push_back(event);
    }
    metrics_.set(Gauge::pools_quarantined_now, validator_->quarantined_count());
    metrics_.record(Latency::stage_validate, micros_between(v0, Clock::now()));

    // Write stage: stage epoch N+1 into the back market buffer. This
    // overlaps the in-flight reprice of epoch N (the lanes read the
    // frozen front buffer). On error begin_epoch rolled the whole batch
    // back already.
    const auto w0 = Clock::now();
    const Status written = scanner_->begin_epoch(survivors);
    metrics_.record(Latency::stage_write, micros_between(w0, Clock::now()));

    // Harvest epoch N before the barrier.
    if (inflight && !harvest()) {
      fail();
      return;
    }
    if (!written.ok()) {
      ARB_LOG_WARN("scanner service stopping on error: "
                   << written.error().to_string());
      status_ = written.error();
      fail();
      return;
    }

    // Barrier: replay this batch's quarantine transitions in stream
    // order, then swap the epoch buffers and launch the lanes.
    for (const Transition& t : transitions) {
      scanner_->set_quarantined(t.pool, t.entered);
    }
    scanner_->commit_epoch();
    scanner_->launch_reprice();
    launched = Clock::now();
    inflight = true;
    metrics_.set(Gauge::epoch_lag, 1);
  }
}

}  // namespace arb::runtime
