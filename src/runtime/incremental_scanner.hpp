#pragma once

/// \file incremental_scanner.hpp
/// Maintains core::scan_market's output incrementally under pool-reserve
/// updates, across K parallel shards, with a staged epoch pipeline.
///
/// Dirty-set invariant: a cycle's valuation reads nothing but its own
/// pools' reserves and the (immutable) CEX feed, so after a batch's
/// epoch completes every universe slot equals what
/// core::evaluate_opportunity would produce from scratch on the current
/// reserves — yet only cycles traversing an updated pool were re-priced.
/// The ranked view is therefore bit-identical to a full scan_market on
/// the same state.
///
/// Staged epochs (DESIGN.md §12): the serial apply() is decomposed into
/// four stages the service overlaps into a pipeline —
///
///   begin_epoch(batch)   writes the batch into the EpochMarket's *back*
///                        buffer and routes dirty cycles into per-shard
///                        pending sets; may run while the previous
///                        epoch's reprice lanes are still in flight
///                        (they read the frozen *front* buffer).
///   wait_reprice()       harvests the in-flight lanes (from the
///                        previous launch) and returns their report.
///   commit_epoch()       the epoch-swap barrier: flips the back buffer
///                        to front and promotes pending dirty sets to
///                        active. Requires no lanes in flight.
///   launch_reprice()     fans the active dirty sets out as lanes on the
///                        WorkerPool (inline without one) and returns
///                        immediately.
///
/// apply() = begin + commit + launch + wait, which is exactly the serial
/// engine — the overlapped schedule replays the same write sequence into
/// each buffer and prices the same frozen states, so results stay
/// bit-identical to serial K=1 for any K.
///
/// Repricing itself is two passes per lane (the SoA gate): pass A sweeps
/// the lane's dirty cycles as a contiguous array walk over the dense
/// view's cached relative prices — computing each loop's price product
/// from flattened (pool, side) gate arrays, bit-identical to
/// MarketView::price_product — and only survivors (product > 1) fall
/// into pass B's per-cycle solver ladder (active set / warm-started
/// barrier / generic), which is untouched.
///
/// Sharding (DESIGN.md §11): a `ShardPlan` partitions the cycle universe
/// into K disjoint shards; each shard exclusively owns its cycles'
/// slots, warm-start entries and quarantine counters. The global ranked
/// set is a K-way merge of the per-shard rankings under the single-shard
/// comparator (net profit descending, canonical rotation key ascending);
/// rotation keys are unique, the order is strictly total, and the merge
/// is therefore bit-identical to the K=1 ranking for any K.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/result.hpp"
#include "core/scanner.hpp"
#include "market/snapshot.hpp"
#include "market/view.hpp"
#include "runtime/epoch_market.hpp"
#include "runtime/event.hpp"
#include "runtime/pool_index.hpp"
#include "runtime/shard_plan.hpp"
#include "runtime/worker_pool.hpp"

namespace arb::runtime {

/// What one apply() round did (feeds the metrics layer).
struct ApplyReport {
  std::size_t events = 0;        ///< batch size received
  std::size_t unique_pools = 0;  ///< after last-wins coalescing
  /// Dirty cycles visited: repriced_cpmm + repriced_mixed + gated
  /// (cycles skipped for a quarantined pool count in none).
  std::size_t repriced = 0;
  /// Convex strategy with convex_warm_start only: barrier-rung solves
  /// (uncertified loops longer than core::kActiveSetMaxEnumerated) that
  /// resumed from the cycle's previous optimum vs. ones that
  /// cold-started. Active-set, generic-routed and price-product-gated
  /// cycles count as neither.
  std::size_t warm_hits = 0;
  std::size_t warm_misses = 0;
  /// Warm slots that went valid → invalid this round: quarantine entries
  /// plus solver-side invalidations (generic routing, rescue fallbacks,
  /// failed warm retries). Profitless gate visits deliberately do NOT
  /// invalidate — that was the live warm-hit-rate leak.
  std::size_t warm_invalidations = 0;
  /// Convex strategy only: total Newton iterations across this round's
  /// barrier-rung solves (0 for active-set and generic solves).
  std::uint64_t solver_iterations = 0;
  /// Convex strategy only: gate survivors the exact active-set rung
  /// priced, and how many of those the KKT certificate settled on the
  /// MaxMax trade (certified ≤ active_set).
  std::size_t repriced_active_set = 0;
  std::size_t repriced_certified = 0;
  /// Dirty cycles the price-product gate rejected (profitless
  /// orientation): never solved, and not timed per kind.
  std::size_t gated = 0;
  /// Gate survivors that went through the solver ladder, split by kind:
  /// loops whose hops are all CPMM vs. loops crossing at least one
  /// StableSwap/concentrated pool, plus wall time spent solving each.
  std::size_t repriced_cpmm = 0;
  std::size_t repriced_mixed = 0;
  double reprice_cpmm_us = 0.0;
  double reprice_mixed_us = 0.0;
  /// Convex strategy only: split of the mixed solves by route — the
  /// analytic kernels (the active set, or the barrier on uncertified
  /// long loops) vs. the derivative-free generic solver (state the
  /// barrier cannot model, or rescue). Failed solves count in neither,
  /// so fast + generic ≤ repriced_mixed.
  std::size_t repriced_mixed_fast = 0;
  std::size_t repriced_mixed_generic = 0;
  /// Convex strategy only: barrier solves rescued by the generic
  /// derivative-free fallback rung of the containment ladder.
  std::uint64_t solver_fallbacks = 0;
  /// Per-shard share of `repriced` (size = shard count).
  std::vector<std::size_t> shard_repriced;
};

class IncrementalScanner {
 public:
  /// Builds the pool→cycle index, partitions the universe into `shards`
  /// shards and prices every cycle once. `workers` (optional, not owned,
  /// must outlive the scanner) sizes dirty loops in parallel; with
  /// nullptr everything runs inline. `shards` = 1 is the classic
  /// single-shard engine; any K produces bit-identical ranked sets.
  [[nodiscard]] static Result<IncrementalScanner> create(
      market::MarketSnapshot snapshot, core::ScannerConfig config,
      WorkerPool* workers = nullptr, std::size_t shards = 1);

  IncrementalScanner(IncrementalScanner&&) = default;
  IncrementalScanner& operator=(IncrementalScanner&&) = default;

  /// Applies a batch of reserve updates and re-prices affected loops —
  /// the serial composition begin_epoch + commit_epoch + launch_reprice
  /// + wait_reprice. Events carry absolute reserves; within a batch the
  /// last event per pool wins (earlier ones are coalesced away). Updated
  /// pools are routed to every shard whose cycles traverse them.
  [[nodiscard]] Result<ApplyReport> apply(
      const std::vector<PoolUpdateEvent>& batch);

  /// Stage 1: stages a batch into the back market buffer and the
  /// per-shard pending dirty sets. Safe to call while a reprice is in
  /// flight (the lanes read the frozen front buffer). On error the
  /// entire batch is rolled back — the back buffer is restored to the
  /// front state and no pending dirty survives. At most one epoch may be
  /// staged at a time.
  [[nodiscard]] Status begin_epoch(const std::vector<PoolUpdateEvent>& batch);

  /// Stage 3 (barrier): commits the staged epoch — swaps the market
  /// buffers and promotes pending dirty sets to active. Requires a
  /// staged epoch and no reprice in flight.
  void commit_epoch();

  /// Stage 4: fans the active dirty sets out as gate+solve lanes on the
  /// worker pool (inline without one) and returns. Requires no reprice
  /// already in flight.
  void launch_reprice();

  /// Stage 2: joins the in-flight lanes and returns the completed
  /// epoch's report (first lane error otherwise). Requires a launched
  /// reprice.
  [[nodiscard]] Result<ApplyReport> wait_reprice();

  /// True between launch_reprice() and wait_reprice().
  [[nodiscard]] bool reprice_in_flight() const { return in_flight_; }

  /// Deep copy of the ranked set (best first) — element-for-element what
  /// core::scan_market would return on the current reserves. Non-const:
  /// the ranking is finalized lazily here — apply() only marks shards
  /// stale, and the per-shard re-sorts plus the K-way merge run on first
  /// observation, keeping the merge cost out of the event hot path. Must
  /// not be called while a reprice is in flight.
  [[nodiscard]] std::vector<core::Opportunity> collect();

  /// Same, but into a caller-owned vector whose capacity is reused
  /// across polls (the allocation-free polling path).
  void collect_into(std::vector<core::Opportunity>& out);

  /// Marks a pool (un)quarantined. Every cycle traversing a quarantined
  /// pool is excluded from the ranked set: its slot empties and its warm
  /// start invalidates on entry, and it stays skipped by reprice() until
  /// every quarantined pool on it is released. The ranked view updates on
  /// the next apply() (an empty batch suffices). Un-quarantining alone
  /// does not re-price — the caller follows up with an update event for
  /// the pool (the resync), which dirties exactly its cycles. Must not
  /// be called while a reprice is in flight.
  void set_quarantined(PoolId pool, bool quarantined);
  [[nodiscard]] bool pool_quarantined(PoolId pool) const;

  /// The committed (front) market buffer.
  [[nodiscard]] const market::MarketSnapshot& snapshot() const {
    return market_.front();
  }
  [[nodiscard]] const PoolCycleIndex& index() const { return index_; }
  [[nodiscard]] const core::ScannerConfig& config() const { return config_; }
  /// Dense read-only market projection, fresh as of the last committed
  /// epoch.
  [[nodiscard]] const market::MarketView& view() const {
    return market_.front_view();
  }
  [[nodiscard]] const ShardPlan& plan() const { return plan_; }
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }

 private:
  /// Per-lane accumulator for one reprice round.
  struct LaneStats {
    std::size_t warm_hits = 0;
    std::size_t warm_misses = 0;
    std::size_t warm_invalidations = 0;
    std::uint64_t solver_iterations = 0;
    std::size_t repriced_active_set = 0;
    std::size_t repriced_certified = 0;
    std::size_t repriced_cpmm = 0;
    std::size_t repriced_mixed = 0;
    std::size_t repriced_mixed_fast = 0;
    std::size_t repriced_mixed_generic = 0;
    std::size_t gated = 0;
    double cpmm_us = 0.0;
    double mixed_us = 0.0;
    std::uint64_t solver_fallbacks = 0;
  };

  /// Everything one shard exclusively owns, indexed by the shard-local
  /// cycle position (plan_.cycles_of(s)[local] is the universe index).
  struct Shard {
    /// One slot per owned cycle; empty = not currently an opportunity
    /// (wrong orientation, unprofitable, or below the net threshold).
    std::vector<std::optional<core::Opportunity>> slots;
    /// Per-cycle warm-start cache (previous barrier optimum in raw token
    /// units + terminal sharpness). Consulted only when
    /// config_.convex_warm_start is set.
    std::vector<optim::WarmStart> warm;
    /// Per-cycle "crosses a non-CPMM pool" flag, precomputed once (pool
    /// kinds never change).
    std::vector<char> mixed;
    /// How many of the cycle's pools are quarantined — excluded exactly
    /// while non-zero.
    std::vector<std::uint32_t> quarantine_count;
    /// Flattened SoA gate tables, built once: for shard-local cycle i,
    /// positions gate_offset[i]..gate_offset[i+1] of gate_pool/gate_side
    /// name the (pool, price side) factors of its price product in cycle
    /// order — side 0 reads rel_price0 (token_in == token0), side 1
    /// reads rel_price1. Walking them over the view's raw price arrays
    /// reproduces MarketView::price_product bit for bit.
    std::vector<std::uint32_t> gate_offset;
    std::vector<std::uint32_t> gate_pool;
    std::vector<std::uint8_t> gate_side;
    /// Local positions of present slots, best first. Rebuilt lazily:
    /// only when `ranking_stale` (set by reprice or quarantine entry).
    std::vector<std::uint32_t> ranked;
    /// Active dirty set (sorted local positions) the in-flight reprice
    /// lanes chunk over, and the pending set begin_epoch() routes into
    /// (promoted to active at commit_epoch()).
    std::vector<std::uint32_t> dirty;
    std::vector<std::uint32_t> pending_dirty;
    /// Pending-set membership flags (dedup during routing only).
    std::vector<char> dirty_flag;
    /// Per-lane solver contexts: the shard's dirty set is split into
    /// contiguous chunks, one context per chunk, so workspaces are
    /// reused without contention.
    std::vector<core::ConvexContext> contexts;
    /// Per-round lane scratch, reused across epochs (no steady-state
    /// allocation): stats, per-position statuses, pass-A survivors.
    std::vector<LaneStats> lane_stats;
    std::vector<Status> lane_statuses;
    std::vector<std::vector<std::uint32_t>> lane_survivors;
    bool ranking_stale = true;
  };

  IncrementalScanner(market::MarketSnapshot snapshot,
                     core::ScannerConfig config, PoolCycleIndex index,
                     ShardPlan plan, WorkerPool* workers);

  /// Discards a partially staged epoch (market rollback + pending dirty
  /// clear).
  void rollback_epoch();

  /// One lane: SoA gate sweep (pass A) then the solver ladder over the
  /// survivors (pass B), over positions [begin, end) of shard s's active
  /// dirty list.
  void price_range(std::size_t s, std::size_t begin, std::size_t end,
                   std::size_t lane);

  /// Re-sorts stale per-shard rankings and K-way merges them into the
  /// global ranked view. No-op when nothing changed since the last call;
  /// the collect paths invoke it lazily so apply() never pays for
  /// rankings nobody observes between batches.
  void rebuild_ranking();

  EpochMarket market_;
  core::ScannerConfig config_;
  PoolCycleIndex index_;
  ShardPlan plan_;
  WorkerPool* workers_;  ///< nullable, not owned

  std::vector<Shard> shards_;
  std::vector<const core::Opportunity*> ranked_;
  /// True until the first merge; per-shard staleness drives re-merges
  /// after that.
  bool merge_stale_ = true;
  /// Per-pool quarantine flag (pool → 0/1), shared by all shards; the
  /// per-cycle counts live with their owning shard.
  std::vector<char> pool_quarantined_;

  /// Last-wins coalescing scratch, reused across batches (no per-batch
  /// allocation): pool → index of its final event in the current batch.
  /// Only entries for pools in the batch are read, and the first pass
  /// rewrites exactly those, so no generation stamp is needed.
  std::vector<std::uint32_t> coalesce_winner_;

  /// Pipeline state. The TaskGroup joins exactly this scanner's lanes
  /// (not the whole pool — the service keeps other work in flight);
  /// unique_ptr keeps the scanner movable.
  std::unique_ptr<TaskGroup> group_ = std::make_unique<TaskGroup>();
  std::vector<std::function<void()>> lane_tasks_;
  bool staged_ = false;     ///< begin_epoch done, commit pending
  bool in_flight_ = false;  ///< launch_reprice done, wait pending
  ApplyReport staging_report_;   ///< events/unique_pools of the staged epoch
  ApplyReport inflight_report_;  ///< report of the launched epoch
  /// Warm invalidations from quarantine entries between rounds, folded
  /// into the next harvested report.
  std::size_t pending_warm_invalidations_ = 0;
};

}  // namespace arb::runtime
