#pragma once

/// \file loop_nlp.hpp
/// Per-hop analytic kernels of the paper's equation (8).
///
/// Notation: the loop rotation fixes hops i = 0..n−1; hop i swaps token
/// t_i into token t_{i+1 mod n} against reserves (x_i, y_i) with fee
/// multiplier γ_i, so its output is F_i(d) = γ_i·d·y_i / (x_i + γ_i·d).
/// P_i is the CEX price of t_i.
///
/// The CPMM constraint of eq. (8) is active at any optimum (output is
/// monotone in it), so out_i = F_i(d_i) can be substituted: profit
/// telescopes to Σ_i [P_{t_{i+1}}·F_i(d_i) − P_{t_i}·d_i] subject to
/// d_i ≥ 0 and d_{i+1} ≤ F_i(d_i). core/flow_nlp.hpp transcribes that
/// program (over any set of edges, one cycle included) for the barrier
/// solver; the kernels here supply F_i and its derivatives.

#include <cstdint>
#include <limits>
#include <vector>

#include "common/result.hpp"
#include "graph/cycle.hpp"
#include "graph/token_graph.hpp"
#include "market/price_feed.hpp"

namespace arb::core {

/// Which analytic hop kernel `LoopHopData::swap` evaluates.
enum class HopKind : std::uint8_t {
  kCpmm = 0,          ///< F(d) = γ·d·y / (x + γ·d) on real reserves
  kStable = 1,        ///< fixed-D StableSwap closed form (amm::StableCurve)
  kConcentrated = 2,  ///< CPMM form on *virtual* reserves, capped in range
};

/// Per-hop data: one directed pool traversal and its kernel state.
///
/// CPMM hops use the real reserves. Concentrated hops store the virtual
/// reserves (x_v = L/√P, y_v = L·√P oriented by trade direction), on
/// which the CPMM formula is *exactly* the in-range V3 swap function;
/// `input_cap` bounds the input to the range, and the barrier adds a
/// cap constraint so iterates never cross a tick. Stable hops evaluate
/// the fixed-D closed-form curve; their `reserve_in`/`reserve_out` hold
/// an *osculating CPMM proxy* (matching F'(0) and F''(0)) so the Möbius
/// chain machinery used for interior starts and warm-start projection
/// keeps working, while swap()/derivs use the exact kernel.
struct LoopHopData {
  double reserve_in = 0.0;   ///< x_i (virtual / proxy for non-CPMM)
  double reserve_out = 0.0;  ///< y_i (virtual / proxy for non-CPMM)
  double gamma = 0.0;        ///< 1 − fee
  double price_in = 0.0;     ///< P_{t_i}
  double price_out = 0.0;    ///< P_{t_{i+1}}
  TokenId token_in;
  TokenId token_out;
  PoolId pool;
  HopKind kind = HopKind::kCpmm;

  /// Stable kernel state (kind == kStable): invariant, Ann = 4A, and the
  /// raw-unit balances of the input/output sides at solve time.
  double stable_d = 0.0;
  double stable_ann = 0.0;
  double stable_x0 = 0.0;
  double stable_y0 = 0.0;

  /// Normalization units (raw tokens per normalized unit). The CPMM and
  /// concentrated kernels are scale-equivariant so normalization simply
  /// rescales their reserves; the stable curve is not, so its kernel
  /// evaluates in raw units and converts through these factors.
  double unit_in = 1.0;
  double unit_out = 1.0;

  /// Largest admissible input (normalized units). Finite only for
  /// concentrated hops, where it is the exact in-range input bound.
  double input_cap = std::numeric_limits<double>::infinity();

  [[nodiscard]] double swap(double d) const;         ///< F_i(d)
  [[nodiscard]] double swap_deriv(double d) const;   ///< F_i'(d)
  [[nodiscard]] double swap_deriv2(double d) const;  ///< F_i''(d) (< 0)
};

/// Builds the analytic kernel for one directed pool traversal (the
/// per-kind dispatch behind every flow-form edge): CPMM real reserves /
/// stable closed-form state + osculating proxy / concentrated virtual
/// reserves + tick cap. Prices are left at zero — callers that monetize
/// fill them in.
/// Precondition: the pool contains both tokens and they are its two
/// distinct sides.
[[nodiscard]] LoopHopData make_edge_kernel(const amm::AnyPool& pool,
                                           TokenId token_in,
                                           TokenId token_out);

/// Extracts per-hop data for a cycle rotation, dispatching on pool kind
/// (CPMM real reserves / stable closed-form state + proxy / concentrated
/// virtual reserves + cap). Fails with kNotFound when a CEX price is
/// missing.
[[nodiscard]] Result<std::vector<LoopHopData>> make_hop_data(
    const graph::TokenGraph& graph, const market::CexPriceFeed& prices,
    const graph::Cycle& cycle, std::size_t start_offset = 0);

}  // namespace arb::core
