#include "sim/extraction.hpp"

#include <optional>
#include <utility>

#include "core/scanner.hpp"

namespace arb::sim {
namespace {

struct Candidate {
  std::size_t loop_index = 0;
  double planned_usd = 0.0;
  core::ArbitragePlan plan;
};

}  // namespace

Result<ExtractionResult> extract_all(graph::TokenGraph& graph,
                                     const market::CexPriceFeed& prices,
                                     const std::vector<graph::Cycle>& loops,
                                     const ExtractionConfig& config) {
  if (Status valid = core::check_loop_strategy(config.strategy); !valid) {
    return valid.error();
  }
  ExtractionResult result;
  const ExecutionEngine engine;
  core::ConvexContext ctx;

  for (std::size_t round = 0; round < config.max_executions; ++round) {
    // Best remaining candidate at the current pool state.
    std::optional<Candidate> best;
    std::size_t profitable = 0;
    for (std::size_t i = 0; i < loops.size(); ++i) {
      // Skip cheaply when the orientation holds no profit at current state.
      if (loops[i].price_product(graph) <= 1.0) continue;
      auto priced =
          core::price_loop(graph, prices, loops[i], config.strategy, ctx);
      if (!priced) return priced.error();
      const double planned_usd = priced->outcome.monetized_usd;
      if (planned_usd < config.min_profit_usd) continue;
      ++profitable;
      if (!best || planned_usd > best->planned_usd) {
        best = Candidate{i, planned_usd, std::move(priced->plan)};
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
