// Solver hot-path microbenchmarks:
//   (a) per-stage timings — phase-I feasibility, SPD factorization, and
//       the Armijo line search — each measured with warm-up + median,
//   (b) steady-state allocation count of the workspace barrier solve
//       (must be zero: the whole point of SolveWorkspace),
//   (c) cold-start vs warm-start barrier solves (solve_flow on the loop's
//       one-cycle flow instance) over a stream of reserve perturbations,
//       enforcing the >=3x warm speedup bar,
//   (d) the active-set solver (solve_convex) vs the barrier solver on
//       the same 2-pool loop's flow instance (agreement to <=1e-9
//       relative profit and the speedup).
// Emits BENCH_solver.json with median + p99 nanoseconds per section.
// Set ARB_BENCH_RELAXED=1 to relax the performance bars (CI smoke runs
// on shared hardware where a 3x median can wobble).

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/error.hpp"
#include "common/stats.hpp"
#include "core/convex.hpp"
#include "core/flow_nlp.hpp"
#include "graph/cycle.hpp"
#include "graph/token_graph.hpp"
#include "market/price_feed.hpp"
#include "math/alloc_stats.hpp"
#include "math/linear_solve.hpp"
#include "optim/line_search.hpp"
#include "optim/phase1.hpp"
#include "optim/workspace.hpp"

using namespace arb;

namespace {

/// Deterministic xorshift so perturbation streams are reproducible.
struct Rng {
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  double uniform() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return static_cast<double>(state >> 11) * 0x1.0p-53;
  }
  /// Multiplier in [1-spread, 1+spread].
  double jitter(double spread) { return 1.0 + spread * (2.0 * uniform() - 1.0); }
};

/// The paper's Section V market (profitable 3-loop).
struct Market3 {
  graph::TokenGraph graph;
  market::CexPriceFeed prices;
  TokenId x, y, z;
  PoolId xy, yz, zx;

  Market3() {
    x = graph.add_token("X");
    y = graph.add_token("Y");
    z = graph.add_token("Z");
    xy = graph.add_pool(x, y, 100.0, 200.0);
    yz = graph.add_pool(y, z, 300.0, 200.0);
    zx = graph.add_pool(z, x, 200.0, 400.0);
    prices.set_price(x, 2.0);
    prices.set_price(y, 10.2);
    prices.set_price(z, 20.0);
  }

  [[nodiscard]] graph::Cycle loop() const {
    return *graph::Cycle::create(graph, {x, y, z}, {xy, yz, zx});
  }
};

/// Two pools between the same token pair, priced apart: a 2-loop whose
/// optimum retains profit in both tokens.
struct Market2 {
  graph::TokenGraph graph;
  market::CexPriceFeed prices;
  TokenId a, b;
  PoolId ab, ba;

  Market2() {
    a = graph.add_token("A");
    b = graph.add_token("B");
    ab = graph.add_pool(a, b, 100.0, 200.0);
    ba = graph.add_pool(b, a, 150.0, 120.0);
    prices.set_price(a, 1.0);
    prices.set_price(b, 2.0);
  }

  [[nodiscard]] graph::Cycle loop() const {
    return *graph::Cycle::create(graph, {a, b}, {ab, ba});
  }
};

/// Minimal smooth objective for the line-search stage timing.
struct Quadratic final : optim::SmoothObjective {
  double value(const math::Vector& x) const override {
    double s = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) s += x[i] * x[i];
    return 0.5 * s;
  }
  void gradient_into(const math::Vector& x,
                     math::Vector& grad) const override {
    grad = x;
  }
  void hessian_into(const math::Vector& x, math::Matrix& hess) const override {
    hess.assign(x.size(), x.size(), 0.0);
    for (std::size_t i = 0; i < x.size(); ++i) hess(i, i) = 1.0;
  }
};

double relative_difference(double a, double b) {
  const double scale = std::max(std::abs(a), std::abs(b));
  return scale > 0.0 ? std::abs(a - b) / scale : 0.0;
}

}  // namespace

int main() {
  const bool relaxed = std::getenv("ARB_BENCH_RELAXED") != nullptr;
  bench::BenchJson json;
  bench::FigureSink sink("solver_hotpath", "solver fast-path timings",
                         {"metric", "value"});
  bool failed = false;

  Market3 market;
  const graph::Cycle loop = market.loop();
  // The loop's convex program in raw units: the one-cycle flow instance.
  const core::FlowProblem problem(bench::expect_ok(
      core::FlowInstance::from_cycle(market.graph, market.prices, loop),
      "from_cycle"));
  const std::size_t n = problem.dimension();

  // -- (a) Per-stage timings -----------------------------------------------
  {
    optim::SolveWorkspace ws;
    const optim::Phase1Options phase1;
    const math::Vector zero(n, 0.0);
    const bench::Timing phase1_timing = bench::measure([&] {
      auto found = optim::find_strictly_feasible(problem, zero, phase1, ws);
      if (!found.ok()) std::exit(2);
    });
    json.set("stage.phase1", phase1_timing);
    sink.labeled_row("phase1_median_ns", {phase1_timing.median_ns});

    // SPD solve (factorize + substitute), the inner Newton's kernel.
    constexpr std::size_t kDim = 8;
    math::Matrix a(kDim, kDim);
    Rng rng;
    for (std::size_t i = 0; i < kDim; ++i) {
      for (std::size_t j = 0; j <= i; ++j) {
        const double v = rng.uniform() - 0.5;
        a(i, j) += v;  // build B, then A = B·Bᵀ + I below
      }
    }
    math::Matrix spd = a.multiply(a.transposed());
    for (std::size_t i = 0; i < kDim; ++i) spd(i, i) += 1.0;
    math::Vector rhs(kDim, 1.0);
    math::Vector solution(kDim);
    math::LinearSolveScratch scratch;
    scratch.reserve(kDim);
    const bench::Timing factor_timing = bench::measure(
        [&] {
          if (!math::regularized_spd_solve_into(spd, rhs, solution, scratch)
                   .ok()) {
            std::exit(2);
          }
        },
        10, 200);
    json.set("stage.factorize_solve", factor_timing);
    sink.labeled_row("factorize_median_ns", {factor_timing.median_ns});

    const Quadratic quadratic;
    math::Vector point(kDim, 1.0);
    math::Vector direction(kDim, -1.0);
    math::Vector candidate(kDim);
    const double value = quadratic.value(point);
    const double slope = -static_cast<double>(kDim);
    const bench::Timing ls_timing = bench::measure(
        [&] {
          const auto result = optim::backtracking_line_search(
              quadratic, point, direction, value, slope, candidate);
          if (!result.success) std::exit(2);
        },
        10, 200);
    json.set("stage.line_search", ls_timing);
    sink.labeled_row("line_search_median_ns", {ls_timing.median_ns});
  }

  // -- (b) Steady-state allocation count -----------------------------------
  {
    const optim::BarrierSolver solver;
    optim::SolveWorkspace ws;
    optim::BarrierReport report;
    const auto start = bench::expect_ok(
        optim::find_strictly_feasible(problem, math::Vector(n, 0.0)),
        "interior start");
    // Warm-up grows every buffer to its steady-state capacity.
    if (!solver.solve_into(problem, start, ws, report).ok()) return 2;

    constexpr int kSolves = 100;
    math::reset_allocation_count();
    for (int i = 0; i < kSolves; ++i) {
      if (!solver.solve_into(problem, start, ws, report).ok()) return 2;
    }
    const std::uint64_t allocations = math::allocation_count();
    json.set("steady_state.solves", static_cast<double>(kSolves));
    json.set("steady_state.allocations", static_cast<double>(allocations));
    sink.labeled_row("steady_state_allocations",
                     {static_cast<double>(allocations)});
    if (allocations != 0) {
      std::fprintf(stderr,
                   "FAIL: %llu heap allocations across %d steady-state "
                   "barrier solves (expected 0)\n",
                   static_cast<unsigned long long>(allocations), kSolves);
      failed = true;
    }

    const bench::Timing solve_timing = bench::measure([&] {
      if (!solver.solve_into(problem, start, ws, report).ok()) std::exit(2);
    });
    json.set("barrier.solve_into", solve_timing);
    sink.labeled_row("barrier_solve_median_ns", {solve_timing.median_ns});
  }

  // -- (c) Cold vs warm over reserve perturbations --------------------------
  {
    const core::FlowOptions options;
    core::FlowContext cold_ctx;
    core::FlowContext warm_ctx;
    optim::WarmStart warm_slot;
    warm_ctx.warm = &warm_slot;
    // The barrier on the loop's one-cycle instance, rebuilt from the
    // current reserves (solve_convex answers this loop by active set).
    const auto barrier_solve = [&](core::FlowContext& ctx, const char* what) {
      return bench::expect_ok(
          core::solve_flow(
              bench::expect_ok(core::FlowInstance::from_cycle(
                                   market.graph, market.prices, loop),
                               "from_cycle"),
              options, ctx),
          what);
    };

    // Prime: one solve fills the warm slot and grows both workspaces.
    (void)barrier_solve(warm_ctx, "warm prime");
    (void)barrier_solve(cold_ctx, "cold prime");

    constexpr int kEvents = 300;
    constexpr double kSpread = 0.01;  // +-1% reserve moves
    Rng rng;
    std::vector<double> cold_ns, warm_ns;
    std::vector<double> cold_iters, warm_iters;
    cold_ns.reserve(kEvents);
    warm_ns.reserve(kEvents);
    int warm_hits = 0;
    double worst_disagreement = 0.0;

    const std::vector<PoolId> pools = {market.xy, market.yz, market.zx};
    for (int event = 0; event < kEvents; ++event) {
      for (const PoolId pool : pools) {
        const amm::AnyPool& p = market.graph.pool(pool);
        ARB_REQUIRE(market.graph
                        .set_pool_reserves(pool,
                                           p.reserve0() * rng.jitter(kSpread),
                                           p.reserve1() * rng.jitter(kSpread))
                        .ok(),
                    "jittered reserves invalid");
      }

      const auto warm_start_time = std::chrono::steady_clock::now();
      const auto warm = barrier_solve(warm_ctx, "warm solve");
      warm_ns.push_back(std::chrono::duration<double, std::nano>(
                            std::chrono::steady_clock::now() - warm_start_time)
                            .count());
      warm_hits += warm_ctx.warm_hit ? 1 : 0;
      warm_iters.push_back(static_cast<double>(warm.iterations));

      const auto cold_start_time = std::chrono::steady_clock::now();
      const auto cold = barrier_solve(cold_ctx, "cold solve");
      cold_ns.push_back(std::chrono::duration<double, std::nano>(
                            std::chrono::steady_clock::now() - cold_start_time)
                            .count());
      cold_iters.push_back(static_cast<double>(cold.iterations));

      worst_disagreement =
          std::max(worst_disagreement,
                   relative_difference(warm.objective, cold.objective));
    }

    const double cold_median = percentile(cold_ns, 0.50);
    const double warm_median = percentile(warm_ns, 0.50);
    const double speedup = cold_median / warm_median;
    const double hit_rate =
        static_cast<double>(warm_hits) / static_cast<double>(kEvents);

    json.set("cold.median_ns", cold_median);
    json.set("cold.p99_ns", percentile(cold_ns, 0.99));
    json.set("warm.median_ns", warm_median);
    json.set("warm.p99_ns", percentile(warm_ns, 0.99));
    json.set("warm.speedup_x", speedup);
    json.set("warm.hit_rate", hit_rate);
    json.set("cold.median_newton_iterations", percentile(cold_iters, 0.50));
    json.set("warm.median_newton_iterations", percentile(warm_iters, 0.50));
    json.set("warm.worst_profit_disagreement", worst_disagreement);

    sink.labeled_row("cold_median_ns", {cold_median});
    sink.labeled_row("warm_median_ns", {warm_median});
    sink.labeled_row("warm_speedup_x", {speedup});
    sink.labeled_row("warm_hit_rate", {hit_rate});

    std::printf("\ncold %.0fns (med %g Newton iters) -> warm %.0fns "
                "(med %g iters): %.2fx, hit rate %.1f%%\n",
                cold_median, percentile(cold_iters, 0.50), warm_median,
                percentile(warm_iters, 0.50), speedup, 100.0 * hit_rate);

    const double speedup_bar = relaxed ? 1.2 : 3.0;
    if (speedup < speedup_bar) {
      std::fprintf(stderr, "FAIL: warm-start speedup %.2fx below %.1fx bar\n",
                   speedup, speedup_bar);
      failed = true;
    }
    if (hit_rate < 0.95) {
      std::fprintf(stderr, "FAIL: warm hit rate %.2f below 0.95\n", hit_rate);
      failed = true;
    }
    if (worst_disagreement > 1e-6) {
      std::fprintf(stderr,
                   "FAIL: warm and cold profits disagree by %.3g relative\n",
                   worst_disagreement);
      failed = true;
    }
  }

  // -- (d) Active set vs barrier on a 2-pool loop ----------------------------
  {
    Market2 market2;
    const graph::Cycle loop2 = market2.loop();

    // The barrier route for the same loop: its one-cycle flow instance.
    const auto instance = bench::expect_ok(
        core::FlowInstance::from_cycle(market2.graph, market2.prices, loop2),
        "from_cycle");
    core::ConvexContext exact_ctx;
    core::FlowContext barrier_ctx;
    const auto exact = bench::expect_ok(
        core::solve_convex(market2.graph, market2.prices, loop2, {},
                           exact_ctx),
        "active-set solve");
    const auto barrier = bench::expect_ok(
        core::solve_flow(instance, {}, barrier_ctx), "barrier 2-pool solve");
    if (!exact_ctx.used_active_set) {
      std::fprintf(stderr, "FAIL: the active set did not answer\n");
      failed = true;
    }
    const double disagreement =
        relative_difference(exact.outcome.monetized_usd, barrier.objective);
    json.set("active_set.profit_usd", exact.outcome.monetized_usd);
    json.set("active_set.vs_barrier_relative", disagreement);
    sink.labeled_row("active_set_vs_barrier_rel", {disagreement});
    if (disagreement > 1e-9) {
      std::fprintf(stderr,
                   "FAIL: active set disagrees with barrier by %.3g\n",
                   disagreement);
      failed = true;
    }

    const bench::Timing exact_timing = bench::measure([&] {
      (void)bench::expect_ok(
          core::solve_convex(market2.graph, market2.prices, loop2, {},
                             exact_ctx),
          "active-set solve");
    });
    const bench::Timing barrier_timing = bench::measure([&] {
      (void)bench::expect_ok(core::solve_flow(instance, {}, barrier_ctx),
                             "barrier 2-pool solve");
    });
    json.set("active_set.solve", exact_timing);
    json.set("active_set.barrier_solve", barrier_timing);
    json.set("active_set.speedup_x",
             barrier_timing.median_ns / exact_timing.median_ns);
    sink.labeled_row("active_set_median_ns", {exact_timing.median_ns});
    sink.labeled_row("active_set_speedup_x",
                     {barrier_timing.median_ns / exact_timing.median_ns});
    std::printf("active set %.0fns vs barrier %.0fns (%.1fx)\n",
                exact_timing.median_ns, barrier_timing.median_ns,
                barrier_timing.median_ns / exact_timing.median_ns);
  }

  if (!json.write("BENCH_solver.json")) return 1;
  return failed ? 1 : 0;
}
