#include "runtime/routing_service.hpp"

#include <chrono>

namespace arb::runtime {

Result<core::RouteResult> RoutingService::best_execution(
    const core::RouteQuery& query) {
  RuntimeMetrics& metrics = service_.metrics_registry();
  metrics.add(Counter::routing_queries);

  const auto start = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(mutex_);
  Result<core::RouteResult> result =
      service_.with_snapshot([&](const market::MarketSnapshot& snapshot) {
        return core::route(snapshot.graph, query, ctx_);
      });
  const auto elapsed = std::chrono::steady_clock::now() - start;
  metrics.record(Latency::routing,
                 std::chrono::duration<double, std::micro>(elapsed).count());

  if (!result) {
    metrics.add(Counter::routing_failures);
    return result;
  }
  switch (result->method) {
    case core::RouteMethod::kDirect:
      metrics.add(Counter::routing_direct);
      break;
    case core::RouteMethod::kWaterFilling:
      metrics.add(Counter::routing_water_filling);
      break;
    case core::RouteMethod::kFlowSolve:
      metrics.add(Counter::routing_flow_solves);
      break;
  }
  return result;
}

}  // namespace arb::runtime
