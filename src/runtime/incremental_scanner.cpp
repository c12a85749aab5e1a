#include "runtime/incremental_scanner.hpp"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <utility>

#include "common/error.hpp"

namespace arb::runtime {

IncrementalScanner::IncrementalScanner(market::MarketSnapshot snapshot,
                                       core::ScannerConfig config,
                                       PoolCycleIndex index, ShardPlan plan,
                                       WorkerPool* workers)
    : market_(std::move(snapshot)),
      config_(std::move(config)),
      index_(std::move(index)),
      plan_(std::move(plan)),
      workers_(workers) {
  const graph::TokenGraph& graph = market_.front().graph;
  const market::MarketView& view = market_.front_view();
  pool_quarantined_.resize(graph.pool_count(), 0);
  coalesce_winner_.assign(graph.pool_count(), 0);
  shards_.resize(plan_.shard_count());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = shards_[s];
    const std::vector<std::uint32_t>& universe = plan_.cycles_of(s);
    shard.slots.resize(universe.size());
    shard.warm.resize(universe.size());
    shard.mixed.resize(universe.size());
    shard.quarantine_count.assign(universe.size(), 0);
    shard.dirty_flag.assign(universe.size(), 0);
    // Flattened gate tables: pool ids and price sides of every hop, in
    // cycle order, with prefix offsets. Immutable — pool/token topology
    // never changes after build.
    shard.gate_offset.resize(universe.size() + 1);
    shard.gate_offset[0] = 0;
    for (std::size_t i = 0; i < universe.size(); ++i) {
      const graph::Cycle& cycle = index_.cycles()[universe[i]];
      shard.mixed[i] = cycle.all_cpmm(graph) ? 0 : 1;
      const std::size_t hops = cycle.length();
      for (std::size_t k = 0; k < hops; ++k) {
        const PoolId pool = cycle.pools()[k];
        shard.gate_pool.push_back(pool.value());
        shard.gate_side.push_back(
            cycle.tokens()[k] == view.token0(pool) ? 0 : 1);
      }
      shard.gate_offset[i + 1] =
          static_cast<std::uint32_t>(shard.gate_pool.size());
    }
  }
}

Result<IncrementalScanner> IncrementalScanner::create(
    market::MarketSnapshot snapshot, core::ScannerConfig config,
    WorkerPool* workers, std::size_t shards) {
  if (Status valid = core::check_loop_strategy(config.strategy); !valid) {
    return valid.error();
  }
  auto index = PoolCycleIndex::build(snapshot.graph, config.loop_lengths);
  if (!index) return index.error();
  auto plan = ShardPlan::build(*index, shards);
  if (!plan) return plan.error();
  IncrementalScanner scanner(std::move(snapshot), std::move(config),
                             *std::move(index), *std::move(plan), workers);
  // Initial full pricing: every cycle is dirty, one synchronous round.
  for (Shard& shard : scanner.shards_) {
    shard.dirty.resize(shard.slots.size());
    std::iota(shard.dirty.begin(), shard.dirty.end(), 0u);
  }
  scanner.launch_reprice();
  // Stats of the initial full pricing are discarded.
  if (auto initial = scanner.wait_reprice(); !initial) {
    return initial.error();
  }
  return scanner;
}

Result<ApplyReport> IncrementalScanner::apply(
    const std::vector<PoolUpdateEvent>& batch) {
  if (Status staged = begin_epoch(batch); !staged.ok()) {
    return staged.error();
  }
  commit_epoch();
  launch_reprice();
  return wait_reprice();
}

Status IncrementalScanner::begin_epoch(
    const std::vector<PoolUpdateEvent>& batch) {
  ARB_REQUIRE(!staged_, "begin_epoch with an epoch already staged");
  staging_report_ = ApplyReport{};
  staging_report_.events = batch.size();

  // Last-wins coalescing: events carry absolute reserves, so applying
  // only each pool's final event is equivalent to applying all of them
  // in order. The id check happens here, before anything mutates, so an
  // unknown pool fails the batch with both buffers untouched.
  const std::size_t pools = pool_quarantined_.size();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const PoolId pool = batch[i].pool;
    if (pool.value() >= pools) {
      return make_error(ErrorCode::kNotFound,
                        "update for unknown " + to_string(pool));
    }
    coalesce_winner_[pool.value()] = static_cast<std::uint32_t>(i);
  }

  // Catch the back buffer up to the committed front, then write the
  // batch winners into it. The front buffer — which in-flight lanes may
  // still be pricing against — is never touched.
  market_.begin_writes();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const PoolUpdateEvent& event = batch[i];
    if (coalesce_winner_[event.pool.value()] != i) continue;  // superseded
    ++staging_report_.unique_pools;
    if (Status written = market_.write(event); !written.ok()) {
      rollback_epoch();
      return written;
    }
    // Route the update to every shard whose cycles traverse the pool.
    for (const std::uint32_t s : plan_.shards_of_pool(event.pool)) {
      Shard& shard = shards_[s];
      for (const std::uint32_t local : plan_.sub_index(s, event.pool)) {
        if (!shard.dirty_flag[local]) {
          shard.dirty_flag[local] = 1;
          shard.pending_dirty.push_back(local);
        }
      }
    }
  }
  staged_ = true;
  return Status::success();
}

void IncrementalScanner::rollback_epoch() {
  market_.rollback();
  for (Shard& shard : shards_) {
    for (const std::uint32_t local : shard.pending_dirty) {
      shard.dirty_flag[local] = 0;
    }
    shard.pending_dirty.clear();
  }
  staging_report_ = ApplyReport{};
  staged_ = false;
}

void IncrementalScanner::commit_epoch() {
  ARB_REQUIRE(staged_, "commit_epoch without a staged epoch");
  ARB_REQUIRE(!in_flight_, "commit_epoch with a reprice in flight");
  market_.commit();
  for (Shard& shard : shards_) {
    // The previous wait_reprice() left the active list empty; promote
    // the pending set and clear its routing flags.
    shard.dirty.swap(shard.pending_dirty);
    for (const std::uint32_t local : shard.dirty) shard.dirty_flag[local] = 0;
    std::sort(shard.dirty.begin(), shard.dirty.end());
  }
  inflight_report_ = std::move(staging_report_);
  staging_report_ = ApplyReport{};
  staged_ = false;
}

void IncrementalScanner::price_range(std::size_t s, std::size_t begin,
                                     std::size_t end, std::size_t lane) {
  Shard& shard = shards_[s];
  const std::vector<std::uint32_t>& universe = plan_.cycles_of(s);
  core::ConvexContext& ctx = shard.contexts[lane];
  LaneStats& stats = shard.lane_stats[lane];
  std::vector<std::uint32_t>& survivors = shard.lane_survivors[lane];
  survivors.clear();
  const bool convex =
      config_.strategy == core::StrategyKind::kConvexOptimization;
  const market::MarketView& view = market_.front_view();
  const double* rel0 = view.rel_price0_data();
  const double* rel1 = view.rel_price1_data();

  // Pass A — the SoA gate: one contiguous sweep over the lane's dirty
  // cycles, computing each loop's price product straight from the dense
  // view's cached price arrays (identical factors in identical order to
  // view.price_product, hence bit-identical). Only the profitable
  // orientation (product > 1) survives into the solver ladder — the
  // filter_arbitrage gate of scan_market. The sweep is not timed: the
  // per-kind latencies cover solves only.
  for (std::size_t position = begin; position < end; ++position) {
    const std::uint32_t local = shard.dirty[position];
    if (shard.quarantine_count[local] != 0) {
      // Excluded while any of its pools is quarantined: keep the slot
      // empty (and no warm start) so the ranked set matches scan_market
      // on the surviving pool set. Not accounted as repriced.
      shard.slots[local].reset();
      if (shard.warm[local].valid) {
        shard.warm[local].valid = false;
        ++stats.warm_invalidations;
      }
      continue;
    }
    double product = 1.0;
    for (std::uint32_t k = shard.gate_offset[local];
         k < shard.gate_offset[local + 1]; ++k) {
      const std::uint32_t pool = shard.gate_pool[k];
      product *= shard.gate_side[k] ? rel1[pool] : rel0[pool];
    }
    if (!(product > 1.0)) {
      // Profitless orientation: empty the slot but KEEP the warm start —
      // the next profitable visit resumes from the cached iterate (the
      // interior projection guards against genuine staleness).
      shard.slots[local].reset();
      ++stats.gated;
      continue;
    }
    survivors.push_back(static_cast<std::uint32_t>(position));
  }

  // Pass B — the per-cycle solver ladder over the gate's survivors,
  // unchanged: active set / warm-started barrier / generic fallback.
  for (const std::uint32_t position : survivors) {
    const std::uint32_t local = shard.dirty[position];
    const graph::Cycle& cycle = index_.cycles()[universe[local]];
    std::optional<core::Opportunity>& out = shard.slots[local];
    const bool mixed = shard.mixed[local] != 0;
    const auto t0 = std::chrono::steady_clock::now();
    const auto account = [&] {
      const double us = std::chrono::duration<double, std::micro>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
      (mixed ? stats.mixed_us : stats.cpmm_us) += us;
      ++(mixed ? stats.repriced_mixed : stats.repriced_cpmm);
    };
    optim::WarmStart& warm = shard.warm[local];
    const bool was_valid = warm.valid;
    ctx.warm = &warm;
    auto priced = core::evaluate_opportunity(
        market_.front().graph, market_.front().prices, cycle, config_, ctx);
    ctx.warm = nullptr;
    if (was_valid && !warm.valid) ++stats.warm_invalidations;
    if (!priced) {
      shard.lane_statuses[position] = priced.error();
      out.reset();
      account();
      continue;
    }
    if (convex) {
      stats.solver_iterations += static_cast<std::uint64_t>(
          std::max(0, ctx.report.total_newton_iterations));
      if (ctx.used_fallback) ++stats.solver_fallbacks;
      if (ctx.used_active_set) {
        ++stats.repriced_active_set;
        if (ctx.certified) ++stats.repriced_certified;
      }
      // Only barrier-rung solves are warm hits or misses; mixed loops
      // count like CPMM ones.
      if (config_.convex_warm_start && !ctx.used_active_set &&
          !ctx.used_generic) {
        ++(ctx.warm_hit ? stats.warm_hits : stats.warm_misses);
      }
      if (mixed) {
        ++(ctx.used_generic ? stats.repriced_mixed_generic
                            : stats.repriced_mixed_fast);
      }
    }
    out = *std::move(priced);
    account();
  }
}

void IncrementalScanner::launch_reprice() {
  ARB_REQUIRE(!in_flight_, "launch_reprice with a reprice in flight");
  inflight_report_.shard_repriced.assign(shards_.size(), 0);

  // Lane sizing: chunk every shard's dirty list so the whole round
  // yields ~4 tasks per pool thread. Oversubscribing lets the pool's
  // queue balance load dynamically — without it each dirty shard runs as
  // one task and the harvest stalls on the slowest shard (per-batch
  // dirty sets are not as balanced as the static plan). Chunking is
  // performance-only: each cycle's solve is independent and warm state
  // is per-cycle, so the results never depend on the lane split.
  const std::size_t threads = workers_ ? workers_->thread_count() : 0;
  std::size_t total_dirty = 0;
  for (const Shard& shard : shards_) total_dirty += shard.dirty.size();
  const std::size_t chunk =
      threads == 0
          ? std::max<std::size_t>(1, total_dirty)
          : std::max<std::size_t>(1, total_dirty / (threads * 4));
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = shards_[s];
    if (shard.dirty.empty()) {
      // No lanes this round — drop the previous round's stats so the
      // harvest aggregation sees nothing from this shard.
      shard.lane_stats.clear();
      continue;
    }
    const std::size_t len = shard.dirty.size();
    const std::size_t lanes =
        workers_ == nullptr ? 1 : (len + chunk - 1) / chunk;
    if (shard.contexts.size() < lanes) shard.contexts.resize(lanes);
    if (shard.lane_survivors.size() < lanes) shard.lane_survivors.resize(lanes);
    shard.lane_stats.assign(lanes, LaneStats{});
    shard.lane_statuses.assign(len, Status());
    shard.ranking_stale = true;
    if (workers_ == nullptr) {
      price_range(s, 0, len, 0);
      continue;
    }
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      const std::size_t lane_begin = lane * len / lanes;
      const std::size_t lane_end = (lane + 1) * len / lanes;
      if (lane_begin == lane_end) continue;
      lane_tasks_.push_back([this, s, lane_begin, lane_end, lane] {
        price_range(s, lane_begin, lane_end, lane);
      });
    }
  }
  if (!lane_tasks_.empty()) {
    if (!workers_->submit_many(lane_tasks_, group_.get())) {
      // Pool shutting down or the round cannot fit: run inline so the
      // invariant (slots match committed reserves) still holds.
      for (const std::function<void()>& task : lane_tasks_) task();
      lane_tasks_.clear();
    }
  }
  in_flight_ = true;
}

Result<ApplyReport> IncrementalScanner::wait_reprice() {
  ARB_REQUIRE(in_flight_, "wait_reprice without a launched reprice");
  group_->wait();
  in_flight_ = false;

  ApplyReport report = std::move(inflight_report_);
  inflight_report_ = ApplyReport{};
  Status first_error = Status::success();
  for (Shard& shard : shards_) {
    shard.dirty.clear();  // routing flags were cleared at promotion
    for (const Status& status : shard.lane_statuses) {
      if (!status.ok() && first_error.ok()) first_error = status;
    }
    shard.lane_statuses.clear();
  }
  if (!first_error.ok()) return first_error.error();
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    for (const LaneStats& stats : shards_[s].lane_stats) {
      report.warm_hits += stats.warm_hits;
      report.warm_misses += stats.warm_misses;
      report.warm_invalidations += stats.warm_invalidations;
      report.solver_iterations += stats.solver_iterations;
      report.repriced_active_set += stats.repriced_active_set;
      report.repriced_certified += stats.repriced_certified;
      report.repriced_cpmm += stats.repriced_cpmm;
      report.repriced_mixed += stats.repriced_mixed;
      report.repriced_mixed_fast += stats.repriced_mixed_fast;
      report.repriced_mixed_generic += stats.repriced_mixed_generic;
      report.gated += stats.gated;
      report.reprice_cpmm_us += stats.cpmm_us;
      report.reprice_mixed_us += stats.mixed_us;
      report.solver_fallbacks += stats.solver_fallbacks;
      report.shard_repriced[s] +=
          stats.repriced_cpmm + stats.repriced_mixed + stats.gated;
    }
  }
  // Cycles skipped because they traverse a quarantined pool are not
  // counted as repriced, so the total stays the sum of the per-kind
  // splits and the gate rejects (the parity the metrics tests pin down).
  report.repriced =
      report.repriced_cpmm + report.repriced_mixed + report.gated;
  report.warm_invalidations += pending_warm_invalidations_;
  pending_warm_invalidations_ = 0;
  // The ranking is NOT rebuilt here: reprice marked the touched shards
  // stale, and the next collect()/collect_into() call re-sorts and merges.
  return report;
}

void IncrementalScanner::set_quarantined(PoolId pool, bool quarantined) {
  ARB_REQUIRE(pool.value() < pool_quarantined_.size(),
              "unknown " + to_string(pool));
  ARB_REQUIRE(!in_flight_, "set_quarantined with a reprice in flight");
  char& flag = pool_quarantined_[pool.value()];
  if (static_cast<bool>(flag) == quarantined) return;
  flag = quarantined ? 1 : 0;
  for (const std::uint32_t cycle : index_.cycles_of(pool)) {
    Shard& shard = shards_[plan_.shard_of(cycle)];
    const std::uint32_t local = plan_.local_of(cycle);
    if (quarantined) {
      if (++shard.quarantine_count[local] == 1) {
        shard.slots[local].reset();
        if (shard.warm[local].valid) {
          shard.warm[local].valid = false;
          ++pending_warm_invalidations_;
        }
        shard.ranking_stale = true;
      }
    } else {
      ARB_REQUIRE(shard.quarantine_count[local] > 0,
                  "quarantine count underflow");
      --shard.quarantine_count[local];
    }
  }
}

bool IncrementalScanner::pool_quarantined(PoolId pool) const {
  ARB_REQUIRE(pool.value() < pool_quarantined_.size(),
              "unknown " + to_string(pool));
  return pool_quarantined_[pool.value()] != 0;
}

void IncrementalScanner::rebuild_ranking() {
  const std::vector<std::string>& keys = index_.rotation_keys();
  // Only shards whose slots changed re-sort; clean shards keep their
  // ranking from the previous round. If no shard changed since the last
  // merge the global view is still valid and the whole call is a no-op.
  bool changed = merge_stale_;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = shards_[s];
    if (!shard.ranking_stale) continue;
    changed = true;
    const std::vector<std::uint32_t>& universe = plan_.cycles_of(s);
    shard.ranked.clear();
    for (std::uint32_t i = 0; i < shard.slots.size(); ++i) {
      if (shard.slots[i].has_value()) shard.ranked.push_back(i);
    }
    std::sort(shard.ranked.begin(), shard.ranked.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                const double pa = shard.slots[a]->net_profit_usd;
                const double pb = shard.slots[b]->net_profit_usd;
                if (pa != pb) return pa > pb;
                return keys[universe[a]] < keys[universe[b]];
              });
    shard.ranking_stale = false;
  }
  if (!changed) return;
  merge_stale_ = false;

  // K-way merge under the same comparator. Rotation keys are unique, so
  // the comparator is a strict total order and merging the per-shard
  // sorted runs reproduces the K=1 global sort exactly.
  ranked_.clear();
  std::size_t total = 0;
  for (const Shard& shard : shards_) total += shard.ranked.size();
  ranked_.reserve(total);
  if (shards_.size() == 1) {
    const Shard& shard = shards_[0];
    for (const std::uint32_t local : shard.ranked) {
      ranked_.push_back(&*shard.slots[local]);
    }
    return;
  }
  std::vector<std::size_t> head(shards_.size(), 0);
  while (ranked_.size() < total) {
    std::size_t best = shards_.size();
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      if (head[s] >= shards_[s].ranked.size()) continue;
      if (best == shards_.size()) {
        best = s;
        continue;
      }
      const core::Opportunity& cand =
          *shards_[s].slots[shards_[s].ranked[head[s]]];
      const core::Opportunity& lead =
          *shards_[best].slots[shards_[best].ranked[head[best]]];
      if (cand.net_profit_usd != lead.net_profit_usd) {
        if (cand.net_profit_usd > lead.net_profit_usd) best = s;
        continue;
      }
      const std::string& cand_key =
          index_.rotation_keys()[plan_.cycles_of(s)[shards_[s].ranked[head[s]]]];
      const std::string& lead_key =
          index_.rotation_keys()[plan_.cycles_of(best)
                                     [shards_[best].ranked[head[best]]]];
      if (cand_key < lead_key) best = s;
    }
    ranked_.push_back(&*shards_[best].slots[shards_[best].ranked[head[best]]]);
    ++head[best];
  }
}

void IncrementalScanner::collect_into(std::vector<core::Opportunity>& out) {
  rebuild_ranking();
  out.clear();
  out.reserve(ranked_.size());
  for (const core::Opportunity* op : ranked_) out.push_back(*op);
}

std::vector<core::Opportunity> IncrementalScanner::collect() {
  std::vector<core::Opportunity> out;
  collect_into(out);
  return out;
}

}  // namespace arb::runtime
