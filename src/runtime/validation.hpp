#pragma once

/// \file validation.hpp
/// The runtime's event-validation and quarantine stage.
///
/// A live feed misbehaves in ways a snapshot never does: corrupted
/// payloads (NaN / negative / zero reserves), payloads of the wrong kind
/// for the target pool, duplicated or reordered events, and stale
/// retransmissions. Before PR 4, any of these either killed the
/// `ScannerService` consumer (hard error from `IncrementalScanner::apply`)
/// or silently poisoned scanner state. The `EventValidator` sits between
/// the queue and the scanner: every event is checked against the pool's
/// immutable shape (kind, concentrated range) and its per-pool sequence
/// history, and rejected events are counted by typed `RejectReason`
/// instead of propagating.
///
/// Quarantine state machine (DESIGN.md §10): repeated *payload*
/// corruption on one pool — `quarantine_strikes` consecutive malformed
/// events — moves the pool into quarantine. While quarantined, the pool's
/// cycles are excluded from the ranked set (the scanner keeps parity with
/// `scan_market` on the surviving pool set), but well-formed events are
/// still applied to the graph so state stays fresh. The pool is released
/// after a run of consecutive valid events whose required length grows
/// exponentially with each quarantine entry (capped); the releasing event
/// triggers a full re-pricing resync of the pool's cycles.
///
/// The validator is deliberately clock-free: strikes, backoff and release
/// are counted in events, so every trajectory is reproducible from the
/// event stream alone (the property the fault-injection suite relies on).

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "graph/token_graph.hpp"
#include "market/view.hpp"
#include "runtime/event.hpp"

namespace arb::runtime {

/// Why an event was rejected. Values index metric counters — keep the
/// order stable and `kStaleSequence` last (see kRejectReasonCount).
enum class RejectReason : std::uint8_t {
  kUnknownPool = 0,   ///< pool id beyond the snapshot's pool count
  kNonFinite = 1,     ///< NaN or infinite reserve / liquidity / price
  kNonPositive = 2,   ///< zero or negative reserve or price
  kWrongKind = 3,     ///< payload kind does not match the pool kind
  kOutOfRange = 4,    ///< concentrated price outside the position range
  kStaleSequence = 5, ///< sequence not newer than the last accepted one
};
inline constexpr std::size_t kRejectReasonCount = 6;

[[nodiscard]] const char* to_string(RejectReason reason);

/// Tuning of the quarantine state machine.
struct ValidationConfig {
  /// Consecutive payload-invalid events that quarantine a pool. Stale
  /// and unknown-pool rejects never count: they are transport artifacts,
  /// not evidence the pool's feed is corrupt.
  std::uint32_t quarantine_strikes = 3;
  /// Consecutive valid events required to release a freshly quarantined
  /// pool. Doubles on every re-entry (capped below) — the capped
  /// exponential backoff of the resync path.
  std::uint64_t base_backoff = 8;
  std::uint64_t max_backoff = 256;
};

/// What the validator decided about one event.
struct EventVerdict {
  bool accepted = true;
  /// Valid only when !accepted.
  RejectReason reason = RejectReason::kUnknownPool;
  /// The target pool is quarantined *after* this event was processed
  /// (accepted events for quarantined pools update graph state but their
  /// cycles stay excluded).
  bool pool_quarantined = false;
  /// This event's strike pushed the pool into quarantine.
  bool entered_quarantine = false;
  /// This (accepted) event completed the backoff run and released the
  /// pool — the caller re-prices all its cycles (a resync).
  bool released_quarantine = false;
};

/// Sequential, deterministic validation over one event stream. Not
/// thread-safe; the scanner service drives it from the consumer thread.
class EventValidator {
 public:
  /// Captures each pool's immutable shape (kind and, for concentrated
  /// positions, the price range) from the snapshot's graph. Updates
  /// never change a pool's shape, so the capture stays valid for the
  /// stream's lifetime.
  explicit EventValidator(const graph::TokenGraph& graph,
                          const ValidationConfig& config = {});

  /// Same capture from a dense MarketView — the sharded service uses
  /// this so validation never touches the pool variants.
  explicit EventValidator(const market::MarketView& view,
                          const ValidationConfig& config = {});

  /// Validates one event and advances the per-pool state machine.
  [[nodiscard]] EventVerdict check(const PoolUpdateEvent& event);

  [[nodiscard]] bool quarantined(PoolId pool) const;
  [[nodiscard]] std::size_t quarantined_count() const { return quarantined_; }
  /// Ascending pool ids currently in quarantine.
  [[nodiscard]] std::vector<PoolId> quarantined_pools() const;
  /// Valid-event run length required to release the pool the next time
  /// it is (or currently is) quarantined.
  [[nodiscard]] std::uint64_t backoff_of(PoolId pool) const;

  [[nodiscard]] const ValidationConfig& config() const { return config_; }

 private:
  /// Immutable per-pool facts the payload check needs.
  struct PoolShape {
    amm::PoolKind kind = amm::PoolKind::kCpmm;
    double p_lo = 0.0;  ///< concentrated only
    double p_hi = 0.0;  ///< concentrated only
  };
  struct PoolState {
    std::uint64_t last_sequence = 0;
    bool has_sequence = false;
    std::uint32_t strikes = 0;       ///< consecutive payload rejects
    std::uint32_t quarantines = 0;   ///< times entered (backoff exponent)
    std::uint64_t valid_streak = 0;  ///< consecutive valid while quarantined
    bool quarantined = false;
  };

  /// Payload well-formedness against the pool's shape. Returns true and
  /// sets \p reason on rejection.
  [[nodiscard]] bool payload_invalid(const PoolUpdateEvent& event,
                                     const PoolShape& shape,
                                     RejectReason& reason) const;
  [[nodiscard]] std::uint64_t backoff_for(std::uint32_t quarantines) const;

  ValidationConfig config_;
  std::vector<PoolShape> shapes_;
  std::vector<PoolState> states_;
  std::size_t quarantined_ = 0;
};

/// Validation state sharded by pool owner (DESIGN.md §12): one
/// EventValidator per shard, each exclusively owning the strike /
/// sequence / quarantine state of the pools routed to it, so the
/// validation stage carries no state shared across shards. Because the
/// per-pool state machine reads nothing but that pool's own event
/// subsequence, routing by owner leaves every verdict bit-identical to
/// a single shared validator — the differential suite's contract.
///
/// Like EventValidator, not thread-safe per shard; the service's
/// consumer drives it in stream order (per-pool order is what the state
/// machines observe, and the per-shard ingress queues preserve it).
class ShardedValidator {
 public:
  /// `owners[p]` names the owning shard of pool p (the ShardPlan's
  /// `owner_of_pool`); ids beyond the vector route to shard 0, whose
  /// validator rejects them as kUnknownPool.
  ShardedValidator(const market::MarketView& view,
                   const ValidationConfig& config,
                   std::vector<std::uint32_t> owners, std::size_t shards);

  /// Validates one event against its owner shard's state machine.
  [[nodiscard]] EventVerdict check(const PoolUpdateEvent& event);

  [[nodiscard]] std::uint32_t owner_of(PoolId pool) const {
    return pool.value() < owners_.size() ? owners_[pool.value()] : 0;
  }
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  /// The per-shard validator (diagnostics and tests).
  [[nodiscard]] const EventValidator& shard(std::size_t s) const {
    return shards_[s];
  }

  [[nodiscard]] bool quarantined(PoolId pool) const;
  /// Total pools in quarantine across all shards.
  [[nodiscard]] std::size_t quarantined_count() const;
  /// Ascending pool ids currently in quarantine (ownership partitions
  /// the pools, so the per-shard lists merge without duplicates).
  [[nodiscard]] std::vector<PoolId> quarantined_pools() const;
  [[nodiscard]] std::uint64_t backoff_of(PoolId pool) const;

  [[nodiscard]] const ValidationConfig& config() const {
    return shards_.front().config();
  }

 private:
  std::vector<EventValidator> shards_;
  std::vector<std::uint32_t> owners_;  ///< pool value → owning shard
};

}  // namespace arb::runtime
