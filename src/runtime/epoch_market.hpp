#pragma once

/// \file epoch_market.hpp
/// Double-buffered market epochs for the pipelined runtime (DESIGN.md
/// §12).
///
/// The serial engine interleaves writes and reads on one buffer:
/// write pool → refresh view → reprice → repeat. The pipelined engine
/// overlaps the stages instead, so repricing lanes for epoch N must read
/// a *frozen* market while the consumer thread is already applying epoch
/// N+1's events. `EpochMarket` provides exactly that: two full
/// (MarketSnapshot, MarketView) buffers, a front the readers see and a
/// back the single writer mutates, with `commit()` as the epoch-swap
/// barrier.
///
/// Write protocol (single writer — the service's consumer thread):
///
///   begin_writes();              // catch the back buffer up to front
///   write(e0); write(e1); ...    // apply epoch N+1's events to back
///   commit();                    // barrier: back becomes front
///
/// Because events carry *absolute* pool state, catching the back buffer
/// up does not require copying the snapshot: `begin_writes()` replays
/// the journal of the previously committed epoch's events into the back
/// buffer, which lands it bit-identically on the front state (the same
/// writes, applied to the same starting state, through the same code
/// path). Each buffer therefore sees the exact write sequence the serial
/// single-buffer engine would have seen, which keeps the pipelined
/// results bit-identical to serial.
///
/// Readers never lock: the swap is a plain index flip on the writer
/// thread, and the pipeline guarantees (ARB_REQUIRE'd by the scanner)
/// that no repricing lane is in flight across a commit. Stale-read
/// detection is the per-buffer epoch pair: after commit(),
/// `front_view().epoch() == front().graph.epoch()` — a view epoch
/// lagging its graph marks a buffer that is mid-write (the back buffer
/// between begin_writes() and commit()).

#include <cstdint>
#include <vector>

#include "common/result.hpp"
#include "market/snapshot.hpp"
#include "market/view.hpp"
#include "runtime/event.hpp"

namespace arb::runtime {

class EpochMarket {
 public:
  /// Seeds both buffers from one snapshot (epoch 0; zero committed
  /// epochs). The views are built once and refreshed per-pool afterwards.
  explicit EpochMarket(market::MarketSnapshot snapshot);

  EpochMarket(EpochMarket&&) = default;
  EpochMarket& operator=(EpochMarket&&) = default;

  /// Opens the back buffer for the next epoch's writes: replays the
  /// previously committed epoch's journal so the back buffer matches the
  /// front. Cheap when the previous batch was small — cost is
  /// proportional to the events written, never to the market size.
  void begin_writes();

  /// Applies one absolute-state event to the back buffer (graph write +
  /// per-pool view refresh) and journals it for the next catch-up.
  /// Precondition: the pool id is in range (callers bounds-check before
  /// mutating anything). On error the back buffer may hold a partial
  /// batch — call rollback().
  [[nodiscard]] Status write(const PoolUpdateEvent& event);

  /// Epoch-swap barrier: seals the back buffer (its view adopts its
  /// graph's epoch) and flips it to front. Must not run while any reader
  /// still prices against the current front.
  void commit();

  /// Discards a partially written epoch: the back buffer is restored to
  /// a copy of the front and both journals clear. O(market); error paths
  /// only.
  void rollback();

  /// The committed buffer readers price against.
  [[nodiscard]] const market::MarketSnapshot& front() const {
    return snaps_[front_];
  }
  [[nodiscard]] const market::MarketView& front_view() const {
    return views_[front_];
  }
  /// The in-progress buffer (tests and diagnostics only — readers must
  /// never price against it).
  [[nodiscard]] const market::MarketSnapshot& back() const {
    return snaps_[front_ ^ 1];
  }
  [[nodiscard]] const market::MarketView& back_view() const {
    return views_[front_ ^ 1];
  }

  /// Committed epochs since construction.
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }

 private:
  /// The one write path both fresh writes and catch-up replays go
  /// through (absolute state → replay is exact).
  [[nodiscard]] Status apply_to_back(const PoolUpdateEvent& event);

  market::MarketSnapshot snaps_[2];
  market::MarketView views_[2];
  std::size_t front_ = 0;
  std::uint64_t epoch_ = 0;
  /// Events written since begin_writes() — becomes the next catch-up.
  std::vector<PoolUpdateEvent> journal_;
  /// The committed epoch's journal, pending replay into the back buffer.
  std::vector<PoolUpdateEvent> catch_up_;
};

}  // namespace arb::runtime
