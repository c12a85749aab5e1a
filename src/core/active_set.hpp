#pragma once

/// \file active_set.hpp
/// Exact solver for the one-cycle Convex program (eq. 8) by enumeration
/// over its retaining sets, checked first by a KKT certificate on the
/// MaxMax trade.
///
/// Fix the set R of loop tokens allowed to retain profit. Every other
/// token's flow constraint is tight, so the loop splits into segments
/// between consecutive R tokens, and segment a → b (composed hop map G)
/// maximizes P_b·G(x) − P_a·x on its own over x ∈ [0, x_cap], where
/// x_cap maps each concentrated hop's range cap back through the
/// segment prefix. CPMM and concentrated segments are Möbius maps with a
/// closed-form optimum; segments crossing a StableSwap hop take a
/// safeguarded Newton solve on P_b·G'(x) = P_a. A candidate is feasible
/// when every R token keeps a non-negative retention; the Convex optimum
/// is the best feasible candidate (or the zero trade). The singletons
/// R = {s} are the Traditional trades, so Convex ≥ MaxMax by
/// construction: SegmentTable is the one code that prices a loop, and
/// the single-start strategies read their rotations off it
/// (core/single_start.hpp).
///
/// Certificate first: on the best singleton s, walk the tight chain with
/// shadow prices q_s = P_s, q_{j+1} = q_j / F_j'(d_j). If q_j ≥ P_j at
/// every token, eq. (8)'s KKT conditions hold with multipliers q_j − P_j,
/// so the MaxMax trade is the optimum and nothing is enumerated.
/// docs/ALGORITHMS.md §9 derives both.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/loop_nlp.hpp"
#include "graph/token_graph.hpp"

namespace arb::core {

/// Uncertified loops longer than this are not enumerated (2^n − 1
/// retaining sets); solve_convex sends them to the barrier.
inline constexpr std::size_t kActiveSetMaxEnumerated = 8;

/// One segment's optimum: the input at its first token, the output at
/// its last, and P_b·output − P_a·input.
struct Segment {
  double input = 0.0;
  double output = 0.0;
  double value = 0.0;
  bool capped = false;  ///< the cap, not stationarity, set the input
};

/// The segment optima of one loop, solved on demand and kept: entry
/// (a, len) starts at token t_a and spans len hops. The singleton (s, n)
/// is rotation s's single-start trade (its prices cancel: λ = 1), so one
/// table per loop serves the certificate, the enumeration and the
/// rotations. It owns the loop's hops (as make_hop_data returns them).
class SegmentTable {
 public:
  explicit SegmentTable(std::vector<LoopHopData> hops);

  [[nodiscard]] const std::vector<LoopHopData>& hops() const { return hops_; }
  [[nodiscard]] std::size_t size() const { return n_; }
  /// Fewer than two hops, or a hop with non-positive or non-finite
  /// reserves or prices, or a fee multiplier outside (0, 1].
  [[nodiscard]] bool degenerate() const { return degenerate_; }

  /// Segment (a, len); precondition !degenerate(). An optimum that is
  /// not finite (extreme state) reads as the zero segment and marks the
  /// table broken: the loop's answer is then not trusted.
  const Segment& at(std::size_t a, std::size_t len);
  /// Rotation s's single-start trade: the singleton segment (s, n).
  const Segment& rotation(std::size_t s) { return at(s, n_); }
  [[nodiscard]] bool broken() const { return broken_; }

 private:
  std::vector<LoopHopData> hops_;
  std::size_t n_;
  bool degenerate_;
  std::vector<Segment> table_;
  std::vector<char> solved_;
  bool broken_ = false;
};

struct ActiveSetSolution {
  std::vector<double> inputs;   ///< d_i per hop, raw units of t_i
  /// Output per hop at d_i; with a graph, non-CPMM hops are the pools'
  /// own quotes, and inside a segment each next input is the previous
  /// output (tight tokens retain exactly 0).
  std::vector<double> outputs;
  /// Σ_j P_j · (out_{j−1} − d_j): the monetized profit of the answer.
  double profit_usd = 0.0;
  /// Bit j set: token t_j may retain profit at the optimum (its segment
  /// boundary). 0 for the zero trade.
  std::uint32_t retaining = 0;
  /// The best singleton passed the KKT certificate (no enumeration).
  bool certified = false;
};

/// Solves eq. (8) on the table's loop, solving every rotation on the way
/// (the certificate runs on the best one) whatever the answer. `graph`,
/// when given, supplies the non-CPMM quotes of the answer (plan
/// honesty). Returns nullopt when the loop is longer than
/// kActiveSetMaxEnumerated and the certificate fails, or when the table
/// is degenerate or breaks; the caller then runs the barrier.
[[nodiscard]] std::optional<ActiveSetSolution> solve_active_set(
    SegmentTable& table, const graph::TokenGraph* graph = nullptr);

/// The enumeration alone, over every non-empty retaining set of any
/// loop, without the certificate (`certified` stays false): the
/// reference the certificate is tested against. Cost grows as 2^n;
/// returns nullopt for a degenerate or broken table or n > 20.
[[nodiscard]] std::optional<ActiveSetSolution> enumerate_active_set(
    SegmentTable& table, const graph::TokenGraph* graph = nullptr);

}  // namespace arb::core
