#include "sim/extraction.hpp"

#include <optional>

#include "core/plan.hpp"

namespace arb::sim {
namespace {

struct Candidate {
  std::size_t loop_index = 0;
  double planned_usd = 0.0;
  core::ArbitragePlan plan;
};

/// Evaluates one loop under the configured strategy on current state.
Result<std::optional<Candidate>> evaluate(const graph::TokenGraph& graph,
                                          const market::CexPriceFeed& prices,
                                          const graph::Cycle& loop,
                                          std::size_t index,
                                          const ExtractionConfig& config) {
  // Skip cheaply when the orientation holds no profit at current state.
  if (loop.price_product(graph) <= 1.0) {
    return std::optional<Candidate>{};
  }
  Candidate candidate;
  candidate.loop_index = index;
  if (config.strategy == core::StrategyKind::kConvexOptimization) {
    auto solution = core::solve_convex(graph, prices, loop);
    if (!solution) return solution.error();
    candidate.planned_usd = solution->outcome.monetized_usd;
    auto plan = core::plan_from_convex(graph, loop, *solution);
    if (!plan) return plan.error();
    candidate.plan = *std::move(plan);
  } else {
    auto outcome =
        config.strategy == core::StrategyKind::kMaxPrice
            ? core::evaluate_max_price(graph, prices, loop)
            : core::evaluate_max_max(graph, prices, loop);
    if (!outcome) return outcome.error();
    candidate.planned_usd = outcome->monetized_usd;
    auto plan = core::plan_from_single_start(graph, loop, *outcome);
    if (!plan) return plan.error();
    candidate.plan = *std::move(plan);
  }
  if (candidate.planned_usd < config.min_profit_usd) {
    return std::optional<Candidate>{};
  }
  return std::optional<Candidate>{std::move(candidate)};
}

}  // namespace

Result<ExtractionResult> extract_all(graph::TokenGraph& graph,
                                     const market::CexPriceFeed& prices,
                                     const std::vector<graph::Cycle>& loops,
                                     const ExtractionConfig& config) {
  ExtractionResult result;
  const ExecutionEngine engine;

  for (std::size_t round = 0; round < config.max_executions; ++round) {
    // Best remaining candidate at the current pool state.
    std::optional<Candidate> best;
    std::size_t profitable = 0;
    for (std::size_t i = 0; i < loops.size(); ++i) {
      auto candidate = evaluate(graph, prices, loops[i], i, config);
      if (!candidate) return candidate.error();
      if (!candidate->has_value()) continue;
      ++profitable;
      if (!best || (**candidate).planned_usd > best->planned_usd) {
        best = **candidate;
      }
    }
    if (!best) {
      result.remaining_profitable = 0;
      return result;
    }
    result.remaining_profitable = profitable;

    auto report = engine.execute(graph, prices, best->plan);
    if (!report) return report.error();
    result.steps.push_back(ExtractionStep{best->loop_index,
                                          best->planned_usd,
                                          report->realized_usd});
    result.total_realized_usd += report->realized_usd;
  }
  return result;
}

}  // namespace arb::sim
