#include "runtime/validation.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace arb::runtime {

const char* to_string(RejectReason reason) {
  switch (reason) {
    case RejectReason::kUnknownPool:
      return "unknown_pool";
    case RejectReason::kNonFinite:
      return "non_finite";
    case RejectReason::kNonPositive:
      return "non_positive";
    case RejectReason::kWrongKind:
      return "wrong_kind";
    case RejectReason::kOutOfRange:
      return "out_of_range";
    case RejectReason::kStaleSequence:
      return "stale_sequence";
  }
  return "unknown_reason";
}

EventValidator::EventValidator(const graph::TokenGraph& graph,
                               const ValidationConfig& config)
    : config_(config) {
  shapes_.reserve(graph.pool_count());
  for (const amm::AnyPool& pool : graph.pools()) {
    PoolShape shape;
    shape.kind = pool.kind();
    if (shape.kind == amm::PoolKind::kConcentrated) {
      shape.p_lo = pool.concentrated().p_lo();
      shape.p_hi = pool.concentrated().p_hi();
    }
    shapes_.push_back(shape);
  }
  states_.resize(shapes_.size());
}

EventValidator::EventValidator(const market::MarketView& view,
                               const ValidationConfig& config)
    : config_(config) {
  shapes_.reserve(view.pool_count());
  for (std::size_t i = 0; i < view.pool_count(); ++i) {
    const PoolId pool{static_cast<PoolId::underlying_type>(i)};
    PoolShape shape;
    shape.kind = view.kind(pool);
    if (shape.kind == amm::PoolKind::kConcentrated) {
      shape.p_lo = view.price_lo(pool);
      shape.p_hi = view.price_hi(pool);
    }
    shapes_.push_back(shape);
  }
  states_.resize(shapes_.size());
}

bool EventValidator::payload_invalid(const PoolUpdateEvent& event,
                                     const PoolShape& shape,
                                     RejectReason& reason) const {
  // Written as !(x > 0) rather than x <= 0 so NaN takes the non-finite
  // branch instead of slipping past a comparison that is always false.
  if (!std::isfinite(event.reserve0) || !std::isfinite(event.reserve1) ||
      !std::isfinite(event.liquidity) || !std::isfinite(event.price)) {
    reason = RejectReason::kNonFinite;
    return true;
  }
  const bool concentrated_payload = event.liquidity > 0.0;
  if (shape.kind == amm::PoolKind::kConcentrated) {
    if (!concentrated_payload) {
      // liquidity < 0 is a corrupted concentrated payload, liquidity == 0
      // is a reserve payload aimed at the wrong pool.
      reason = event.liquidity < 0.0 ? RejectReason::kNonPositive
                                     : RejectReason::kWrongKind;
      return true;
    }
    if (!(event.price > 0.0)) {
      reason = RejectReason::kNonPositive;
      return true;
    }
    // set_concentrated_state requires the open range; mirror it exactly
    // so every accepted event is guaranteed to apply cleanly.
    if (!(event.price > shape.p_lo) || !(event.price < shape.p_hi)) {
      reason = RejectReason::kOutOfRange;
      return true;
    }
    return false;
  }
  if (concentrated_payload || event.price != 0.0) {
    reason = RejectReason::kWrongKind;
    return true;
  }
  if (event.liquidity < 0.0 || !(event.reserve0 > 0.0) ||
      !(event.reserve1 > 0.0)) {
    reason = RejectReason::kNonPositive;
    return true;
  }
  return false;
}

std::uint64_t EventValidator::backoff_for(std::uint32_t quarantines) const {
  std::uint64_t backoff = std::max<std::uint64_t>(1, config_.base_backoff);
  const std::uint64_t cap =
      std::max<std::uint64_t>(backoff, config_.max_backoff);
  for (std::uint32_t i = 1; i < quarantines && backoff < cap; ++i) {
    backoff = std::min(cap, backoff * 2);
  }
  return backoff;
}

EventVerdict EventValidator::check(const PoolUpdateEvent& event) {
  EventVerdict verdict;
  if (event.pool.value() >= shapes_.size()) {
    verdict.accepted = false;
    verdict.reason = RejectReason::kUnknownPool;
    return verdict;
  }
  const PoolShape& shape = shapes_[event.pool.value()];
  PoolState& state = states_[event.pool.value()];

  RejectReason reason = RejectReason::kUnknownPool;
  if (payload_invalid(event, shape, reason)) {
    verdict.accepted = false;
    verdict.reason = reason;
    // A malformed payload is evidence the pool's feed is corrupt: strike,
    // reset any release progress, quarantine at the threshold.
    state.valid_streak = 0;
    if (!state.quarantined &&
        ++state.strikes >= config_.quarantine_strikes) {
      state.quarantined = true;
      state.strikes = 0;
      ++state.quarantines;
      ++quarantined_;
      verdict.entered_quarantine = true;
    }
    verdict.pool_quarantined = state.quarantined;
    return verdict;
  }

  if (state.has_sequence && event.sequence <= state.last_sequence) {
    // Duplicate / reordered / stale retransmission. Rejecting it is safe
    // because events carry absolute state, so the newest accepted event
    // is always the right one. Not a strike (the payload itself is fine)
    // and not release progress either — a quarantined pool recovers on
    // fresh data only.
    verdict.accepted = false;
    verdict.reason = RejectReason::kStaleSequence;
    verdict.pool_quarantined = state.quarantined;
    return verdict;
  }
  state.last_sequence = event.sequence;
  state.has_sequence = true;
  state.strikes = 0;

  if (state.quarantined) {
    if (++state.valid_streak >= backoff_for(state.quarantines)) {
      state.quarantined = false;
      state.valid_streak = 0;
      --quarantined_;
      verdict.released_quarantine = true;
    }
  }
  verdict.pool_quarantined = state.quarantined;
  return verdict;
}

bool EventValidator::quarantined(PoolId pool) const {
  ARB_REQUIRE(pool.value() < states_.size(), "unknown pool");
  return states_[pool.value()].quarantined;
}

std::vector<PoolId> EventValidator::quarantined_pools() const {
  std::vector<PoolId> out;
  out.reserve(quarantined_);
  for (std::size_t i = 0; i < states_.size(); ++i) {
    if (states_[i].quarantined) out.push_back(PoolId(static_cast<std::uint32_t>(i)));
  }
  return out;
}

std::uint64_t EventValidator::backoff_of(PoolId pool) const {
  ARB_REQUIRE(pool.value() < states_.size(), "unknown pool");
  const PoolState& state = states_[pool.value()];
  return backoff_for(std::max<std::uint32_t>(1, state.quarantines));
}

ShardedValidator::ShardedValidator(const market::MarketView& view,
                                   const ValidationConfig& config,
                                   std::vector<std::uint32_t> owners,
                                   std::size_t shards)
    : owners_(std::move(owners)) {
  ARB_REQUIRE(shards >= 1, "sharded validator needs at least one shard");
  for (const std::uint32_t owner : owners_) {
    ARB_REQUIRE(owner < shards, "pool owner beyond shard count");
  }
  // Every shard captures the full shape table (immutable, cheap); only
  // the mutable per-pool state is exclusive, by construction of the
  // owner routing below.
  shards_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    shards_.emplace_back(view, config);
  }
}

EventVerdict ShardedValidator::check(const PoolUpdateEvent& event) {
  return shards_[owner_of(event.pool)].check(event);
}

bool ShardedValidator::quarantined(PoolId pool) const {
  return shards_[owner_of(pool)].quarantined(pool);
}

std::size_t ShardedValidator::quarantined_count() const {
  std::size_t total = 0;
  for (const EventValidator& shard : shards_) {
    total += shard.quarantined_count();
  }
  return total;
}

std::vector<PoolId> ShardedValidator::quarantined_pools() const {
  std::vector<PoolId> out;
  for (const EventValidator& shard : shards_) {
    const std::vector<PoolId> pools = shard.quarantined_pools();
    out.insert(out.end(), pools.begin(), pools.end());
  }
  std::sort(out.begin(), out.end(),
            [](PoolId a, PoolId b) { return a.value() < b.value(); });
  return out;
}

std::uint64_t ShardedValidator::backoff_of(PoolId pool) const {
  return shards_[owner_of(pool)].backoff_of(pool);
}

}  // namespace arb::runtime
