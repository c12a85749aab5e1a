#pragma once

/// \file service.hpp
/// The event-driven scanner service: one bounded ingress FIFO feeding one
/// consumer thread that batches/coalesces bursts and drives the
/// incremental scanner's staged epochs as an overlapped pipeline
/// (DESIGN.md §12) — validating and writing epoch N+1 into the back
/// market buffer while epoch N's reprice lanes still run on the worker
/// pool. Producers call publish() from any thread and wait while the
/// queue is full; observers read opportunities() and metrics() from any
/// thread.
///
/// Observer consistency: the consumer holds the scanner lock while the
/// pipeline is busy, so opportunities()/quarantined_pools() see only
/// settled states — every observation is bit-identical to some state of
/// the serial engine, and after drain() it is *the* serial state. Under
/// sustained saturation observers therefore wait for the next queue
/// drain; metrics() never blocks.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/result.hpp"
#include "core/scanner.hpp"
#include "market/snapshot.hpp"
#include "runtime/event.hpp"
#include "runtime/incremental_scanner.hpp"
#include "runtime/metrics.hpp"
#include "runtime/validation.hpp"
#include "runtime/worker_pool.hpp"

namespace arb::runtime {

struct ServiceConfig {
  core::ScannerConfig scanner;
  std::size_t worker_threads = 4;
  /// Shards the cycle universe is partitioned into (DESIGN.md §11).
  /// Validator state shards with it; the published ranked set is
  /// bit-identical for any value. 1 = the classic single-shard engine.
  std::size_t shards = 1;
  std::size_t queue_capacity = 4096;
  /// Events drained per epoch; bursts beyond this are split across
  /// epochs (and within one, per-pool last-wins coalescing collapses
  /// duplicates).
  std::size_t max_batch = 256;
  /// Every event runs through the sharded validator before it is applied
  /// (DESIGN.md §10): malformed events are rejected and counted by
  /// RejectReason, repeat offenders quarantine, and the service keeps
  /// running.
  ValidationConfig validation;
};

class ScannerService {
 public:
  /// Prices the initial snapshot and starts the consumer thread.
  [[nodiscard]] static Result<std::unique_ptr<ScannerService>> start(
      const market::MarketSnapshot& snapshot, const ServiceConfig& config = {});

  ~ScannerService();

  ScannerService(const ScannerService&) = delete;
  ScannerService& operator=(const ScannerService&) = delete;

  /// Publishes one event into the ingress queue, waiting while it is
  /// full. Returns false when the event was not accepted: the service is
  /// stopping or the consumer stopped on an error (status()).
  bool publish(const PoolUpdateEvent& event);

  /// Blocks until every accepted event has been applied and the
  /// pipeline has settled (or the service stopped on an error).
  void drain();

  /// Stops intake, drains the queue, joins the consumer and workers.
  /// Idempotent.
  void stop();

  /// First error the consumer hit (the service stops consuming on error).
  [[nodiscard]] Status status() const;

  [[nodiscard]] MetricsSnapshot metrics() const;

  /// Thread-safe deep copy of the current ranked opportunity set.
  [[nodiscard]] std::vector<core::Opportunity> opportunities() const;

  /// Same, but into a caller-owned vector whose capacity survives across
  /// polls — the steady-state observer path allocates nothing once the
  /// vector has grown to the working-set size.
  void opportunities_into(std::vector<core::Opportunity>& out) const;

  /// Pools currently in quarantine (ascending ids).
  [[nodiscard]] std::vector<PoolId> quarantined_pools() const;

  /// Runs `fn` against the committed market snapshot under the scanner
  /// lock (same observer contract as opportunities(): only settled epoch
  /// states are visible, and the call waits out a busy pipeline). The
  /// snapshot reference is valid only inside `fn` — copy what outlives
  /// the call. This is the routing service's read primitive.
  template <typename Fn>
  auto with_snapshot(Fn&& fn) const {
    std::lock_guard<std::mutex> lock(scanner_mutex_);
    return std::forward<Fn>(fn)(scanner_->snapshot());
  }

  /// The live metric registry, for co-located components (the routing
  /// service) that publish into the same snapshot/CSV stream.
  [[nodiscard]] RuntimeMetrics& metrics_registry() { return metrics_; }

 private:
  ScannerService(const ServiceConfig& config);

  void run();
  /// Pops up to max_batch events in arrival order. Caller holds
  /// queue_mutex_.
  void take_batch_locked(std::vector<PoolUpdateEvent>& out);

  ServiceConfig config_;
  RuntimeMetrics metrics_;
  WorkerPool workers_;

  mutable std::mutex scanner_mutex_;
  std::unique_ptr<IncrementalScanner> scanner_;   ///< guarded by scanner_mutex_
  std::unique_ptr<ShardedValidator> validator_;   ///< guarded by scanner_mutex_
  Status status_;                                 ///< guarded by scanner_mutex_

  mutable std::mutex queue_mutex_;
  std::condition_variable queue_not_empty_;
  std::condition_variable queue_not_full_;
  std::condition_variable queue_drained_;
  /// The ingress FIFO; everything below guarded by queue_mutex_.
  std::deque<PoolUpdateEvent> queue_;
  bool applying_ = false;  ///< consumer pipeline busy
  bool stopping_ = false;
  bool failed_ = false;  ///< consumer stopped on error; publish() refuses

  std::thread consumer_;
};

}  // namespace arb::runtime
