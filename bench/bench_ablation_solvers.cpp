// Ablation: solver choices behind the Convex Optimization strategy.
//
// Three routes to the same optimum are compared on the Section VI loops:
//   barrier    — log-barrier interior point on the one-cycle flow program
//                (solve_flow on FlowInstance::from_cycle)
//   generic    — the barrier-free, derivative-free generic solver over the
//                pools' own quotes (solve_generic_convex)
//   active set — the exact certificate-first enumeration (solve_convex)
// plus MaxMax (closed form) as the baseline lower bound. Reported: profit
// agreement vs the barrier and wall-clock per loop.

#include <chrono>

#include "bench/bench_util.hpp"
#include "common/stats.hpp"
#include "core/flow_nlp.hpp"
#include "core/generic_convex.hpp"

using namespace arb;

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

int main() {
  const core::MarketStudy study = bench::section6_study(3);
  const auto& graph = study.market.graph;
  const auto& prices = study.market.prices;

  StreamingStats generic_gap;
  StreamingStats maxmax_gap;
  StreamingStats active_set_gap;
  double t_barrier = 0.0;
  double t_generic = 0.0;
  double t_maxmax = 0.0;
  double t_active_set = 0.0;
  optim::SolveWorkspace ws;

  for (const core::LoopComparison& row : study.loops) {
    const graph::Cycle& loop = row.cycle;

    double t0 = now_seconds();
    const auto barrier = bench::expect_ok(
        core::solve_flow(bench::expect_ok(
            core::FlowInstance::from_cycle(graph, prices, loop), "instance")),
        "barrier");
    t_barrier += now_seconds() - t0;
    const double reference = barrier.objective;
    if (reference <= 0.0) continue;

    t0 = now_seconds();
    const auto active_set = bench::expect_ok(
        core::solve_convex(graph, prices, loop), "active set");
    t_active_set += now_seconds() - t0;

    t0 = now_seconds();
    const auto generic = bench::expect_ok(
        core::solve_generic_convex(graph, prices, loop, ws), "generic");
    t_generic += now_seconds() - t0;

    t0 = now_seconds();
    const auto maxmax = bench::expect_ok(
        core::evaluate_max_max(graph, prices, loop), "maxmax");
    t_maxmax += now_seconds() - t0;

    generic_gap.add((generic.profit_usd - reference) / reference);
    maxmax_gap.add((maxmax.monetized_usd - reference) / reference);
    active_set_gap.add((active_set.outcome.monetized_usd - reference) /
                       reference);
  }

  bench::FigureSink sink(
      "ablation_solvers",
      "solver agreement (relative to the barrier) and cost",
      {"solver_id", "mean_rel_gap", "worst_rel_gap", "total_seconds"});
  sink.row({0.0, 0.0, 0.0, t_barrier});  // barrier (reference)
  sink.row({1.0, generic_gap.mean(),
            std::max(std::abs(generic_gap.min()), std::abs(generic_gap.max())),
            t_generic});
  sink.row({2.0, maxmax_gap.mean(),
            std::max(std::abs(maxmax_gap.min()), std::abs(maxmax_gap.max())),
            t_maxmax});
  sink.row({3.0, active_set_gap.mean(),
            std::max(std::abs(active_set_gap.min()),
                     std::abs(active_set_gap.max())),
            t_active_set});

  std::printf(
      "solver ids: 0=barrier 1=generic 2=maxmax-baseline 3=active-set\n");
  std::printf("generic gap:     %s\n", generic_gap.summary().c_str());
  std::printf("maxmax gap:      %s\n", maxmax_gap.summary().c_str());
  std::printf("active-set gap:  %s\n", active_set_gap.summary().c_str());
  std::printf("shape check: the three convex routes agree to ~1e-4 "
              "relative; MaxMax sits just below (it is the lower bound)\n\n");
  return 0;
}
