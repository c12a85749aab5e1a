#pragma once

/// \file closed_form.hpp
/// Analytic optimum for length-2 constant-product loops, bypassing the
/// iterative barrier solver.
///
/// For n = 2 the loop program (eq. 8 with the CPMM constraints
/// substituted, as solve_flow solves it for longer loops) is
///
///   maximize  Σ_i [P_{i+1}·F_i(d_i) − P_i·d_i]
///   s.t.      d_1 ≤ F_0(d_0),  d_0 ≤ F_1(d_1),  d_i ≥ 0,
///
/// a concave program over a compact set whose optimum admits active-set
/// enumeration over the two flow constraints:
///
///  A. Neither flow constraint active — the objective separates per hop,
///     so d_i is the unconstrained maximizer of P_{i+1}·F_i(d) − P_i·d,
///       d_i* = (√(γ·x·y·P_out/P_in) − x)/γ, clamped at 0
///     (the d ≥ 0 bounds fold into the clamp). Valid iff the pair
///     satisfies both flow constraints.
///  B. d_1 = F_0(d_0) active — profit telescopes to P_0·(F_1(F_0(d_0)) −
///     d_0): the traditional single-start trade from token 0, solved by
///     the Möbius closed form (amm/path.hpp).
///  C. d_0 = F_1(d_1) active — the single-start trade from token 1.
///  D. Both active ⇒ the telescoped profit is identically 0, dominated by
///     the zero trade.
///
/// Every candidate is feasible by construction, and by concavity the
/// argmax over {A if feasible, B, C, 0} is the global optimum. Tests
/// validate agreement with the barrier solver to ≤ 1e-9 relative.

#include <optional>
#include <vector>

#include "core/loop_nlp.hpp"

namespace arb::core {

/// Unconstrained maximizer of  hop.price_out·F(d) − hop.price_in·d  over
/// d ≥ 0 (candidate A's per-hop optimum). Returns 0 when the hop's
/// marginal rate at zero already loses money.
[[nodiscard]] double optimal_single_hop_input(const LoopHopData& hop);

/// Closed-form solution of the length-2 reduced program.
struct ClosedFormSolution {
  double inputs[2] = {0.0, 0.0};   ///< optimal d_0, d_1
  double outputs[2] = {0.0, 0.0};  ///< F_0(d_0), F_1(d_1)
  double profit_usd = 0.0;         ///< monetized profit at the optimum
};

/// Solves the length-2 loop analytically. Returns nullopt when the loop
/// is not length 2 or a hop's data is degenerate (non-positive reserves,
/// gamma, or prices), in which case the caller falls back to the barrier
/// solver.
[[nodiscard]] std::optional<ClosedFormSolution> solve_length2_closed_form(
    const std::vector<LoopHopData>& hops);

}  // namespace arb::core
