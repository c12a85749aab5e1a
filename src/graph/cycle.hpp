#pragma once

/// \file cycle.hpp
/// Directed cycle representation shared by all enumeration algorithms.

#include <string>
#include <vector>

#include "amm/path.hpp"
#include "common/result.hpp"
#include "common/types.hpp"
#include "graph/token_graph.hpp"

namespace arb::graph {

/// A directed cycle: tokens[i] is the input token of pools[i], and the
/// output of pools[i] is tokens[(i+1) % n]. Tokens are distinct; so are
/// pools. Invariants are checked by Cycle::create.
class Cycle {
 public:
  [[nodiscard]] static Result<Cycle> create(const TokenGraph& graph,
                                            std::vector<TokenId> tokens,
                                            std::vector<PoolId> pools);

  [[nodiscard]] std::size_t length() const { return tokens_.size(); }
  [[nodiscard]] const std::vector<TokenId>& tokens() const { return tokens_; }
  [[nodiscard]] const std::vector<PoolId>& pools() const { return pools_; }

  /// The cycle rotated to start at position `offset` (same orientation).
  [[nodiscard]] Cycle rotated(std::size_t offset) const;

  /// The same loop walked in the opposite direction.
  [[nodiscard]] Cycle reversed() const;

  /// Canonical key identifying the cycle up to rotation (orientation
  /// preserved): rotated so the smallest token id comes first.
  [[nodiscard]] std::string rotation_key() const;

  /// Canonical key identifying the cycle up to rotation AND reflection.
  [[nodiscard]] std::string loop_key() const;

  /// True iff every pool of this loop is constant-product (path() is
  /// defined only then; reports and differentials split loops by it).
  [[nodiscard]] bool all_cpmm(const TokenGraph& graph) const;

  /// Builds the swap path starting the walk at tokens()[offset].
  /// Precondition: all_cpmm(graph) — the Möbius path algebra is
  /// constant-product-only.
  [[nodiscard]] amm::PoolPath path(const TokenGraph& graph,
                                   std::size_t offset = 0) const;

  /// Product of relative prices around the cycle; > 1 ⇔ profitable
  /// orientation (the paper's detection condition).
  [[nodiscard]] double price_product(const TokenGraph& graph) const;

  /// "A -> B -> C -> A" with token symbols.
  [[nodiscard]] std::string describe(const TokenGraph& graph) const;

 private:
  Cycle(std::vector<TokenId> tokens, std::vector<PoolId> pools)
      : tokens_(std::move(tokens)), pools_(std::move(pools)) {}

  std::vector<TokenId> tokens_;
  std::vector<PoolId> pools_;
};

}  // namespace arb::graph
