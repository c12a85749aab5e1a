#include "workload.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <unordered_map>
#include <unordered_set>

namespace perfbench {

namespace {

using arb::amm::AnyPool;
using arb::amm::PoolKind;

/// Log-price shock per event (the replay stream's block noise).
constexpr double kShockSigma = 0.01;
/// USD notional of every route query.
constexpr double kRouteNotionalUsd = 10'000.0;

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 finalizer over (seed, stream): independent RNG streams
  // for the update blocks and the route queries of one run.
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Two net profits agree within 1e-6 relative, with a floor of 1e-6 USD.
/// Warm and cold barrier solves differ by ~1e-8 relative on ordinary
/// loops, but on loops barely clearing the threshold (micro-dollar
/// profits) the solver's gap, not the profit, sets the error: observed
/// differences there reach 3e-10 USD, over 1e-6 relative.
bool equal_profit(double a, double b) {
  return std::abs(a - b) <= 1e-6 * std::max(std::abs(a), std::abs(b)) + 1e-6;
}

std::vector<Workload> make_workloads() {
  std::vector<Workload> out;

  Workload paper;
  paper.name = "paper-convex";
  paper.strategy = arb::core::StrategyKind::kConvexOptimization;
  paper.warm_start = true;
  paper.pools_per_block = 16;
  out.push_back(paper);

  Workload wide;
  wide.name = "wide-maxmax";
  wide.generator.token_count = 510;
  wide.generator.pool_count = 2080;
  wide.strategy = arb::core::StrategyKind::kMaxMax;
  wide.pools_per_block = 256;
  out.push_back(wide);

  Workload mixed;
  mixed.name = "mixed-route";
  mixed.generator.stable_fraction = 0.2;
  mixed.generator.concentrated_fraction = 0.2;
  mixed.strategy = arb::core::StrategyKind::kConvexOptimization;
  mixed.warm_start = true;
  mixed.pools_per_block = 16;
  mixed.route_per_block = true;
  out.push_back(mixed);
  return out;
}

}  // namespace

const Workload* find_workload(const std::string& name) {
  static const std::vector<Workload> workloads = make_workloads();
  for (const Workload& w : workloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

arb::market::MarketSnapshot make_market(const Workload& workload) {
  return arb::market::generate_snapshot(workload.generator)
      .filtered(arb::market::PoolFilter{});
}

arb::runtime::ServiceConfig service_config(const Workload& workload) {
  arb::runtime::ServiceConfig config;
  config.scanner.loop_lengths = {3};
  config.scanner.strategy = workload.strategy;
  config.scanner.convex_warm_start = workload.warm_start;
  config.worker_threads = 2;
  return config;
}

BlockStream::BlockStream(const arb::market::MarketSnapshot& snapshot,
                         std::size_t pools_per_block, std::uint64_t seed)
    : initial_(snapshot.graph.pools()),
      pools_per_block_(pools_per_block),
      rng_(mix_seed(seed, 1)) {}

void BlockStream::next(std::vector<arb::runtime::PoolUpdateEvent>& block) {
  block.clear();
  std::uniform_int_distribution<std::size_t> pick(0, initial_.size() - 1);
  std::normal_distribution<double> shock(0.0, kShockSigma);
  for (std::size_t i = 0; i < pools_per_block_; ++i) {
    const AnyPool& pool = initial_[pick(rng_)];
    const double z = shock(rng_);
    arb::runtime::PoolUpdateEvent event;
    event.pool = pool.id();
    event.sequence = ++sequence_;
    if (pool.kind() == PoolKind::kConcentrated) {
      const auto& clp = pool.concentrated();
      const double lo = std::log(clp.p_lo());
      const double hi = std::log(clp.p_hi());
      const double margin = 1e-6 * (hi - lo);
      event.liquidity = clp.liquidity();
      event.price = std::exp(
          std::clamp(std::log(clp.price()) + z, lo + margin, hi - margin));
    } else {
      // (r0·s, r1/s): the price moves by s², a CPMM's k is unchanged.
      const double s = std::exp(z / 2.0);
      event.reserve0 = pool.reserve0() * s;
      event.reserve1 = pool.reserve1() / s;
    }
    block.push_back(event);
  }
}

QueryStream::QueryStream(const arb::market::MarketSnapshot& snapshot,
                         std::uint64_t seed)
    : rng_(mix_seed(seed, 2)) {
  const arb::graph::TokenGraph& graph = snapshot.graph;
  std::vector<arb::TokenId> tokens = graph.tokens();
  std::stable_sort(tokens.begin(), tokens.end(),
                   [&](arb::TokenId a, arb::TokenId b) {
                     return graph.pools_of(a).size() > graph.pools_of(b).size();
                   });
  const std::size_t hubs = std::min<std::size_t>(4, tokens.size() / 2);
  hubs_.assign(tokens.begin(), tokens.begin() + hubs);
  others_.assign(tokens.begin() + hubs, tokens.end());
  usd_price_.resize(graph.token_count());
  for (arb::TokenId t : tokens) {
    usd_price_[t.value()] = snapshot.prices.price_unchecked(t);
  }
}

arb::core::RouteQuery QueryStream::next() {
  std::uniform_int_distribution<std::size_t> hub(0, hubs_.size() - 1);
  std::uniform_int_distribution<std::size_t> other(0, others_.size() - 1);
  arb::core::RouteQuery query;
  query.token_in = hubs_[hub(rng_)];
  query.token_out = others_[other(rng_)];
  query.amount_in = kRouteNotionalUsd / usd_price_[query.token_in.value()];
  return query;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const std::size_t k = std::clamp<std::size_t>(rank, 1, values.size()) - 1;
  std::nth_element(values.begin(), values.begin() + k, values.end());
  return values[k];
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

bool ranked_set_matches_oracle(const arb::market::MarketSnapshot& snapshot,
                               const arb::core::ScannerConfig& config,
                               const std::vector<arb::core::Opportunity>& ranked) {
  arb::core::ScannerConfig cold = config;
  cold.convex_warm_start = false;
  const auto oracle =
      arb::core::scan_market(snapshot.graph, snapshot.prices, cold);
  if (!oracle) {
    std::fprintf(stderr, "oracle scan_market failed: %s\n",
                 oracle.error().to_string().c_str());
    return false;
  }
  const double threshold = config.min_net_profit_usd;
  std::unordered_map<std::string, double> want;
  for (const arb::core::Opportunity& op : *oracle) {
    want.emplace(op.cycle.rotation_key(), op.net_profit_usd);
  }
  std::unordered_set<std::string> seen;
  std::optional<double> previous;  // oracle profit of the previous rank
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    const std::string key = ranked[i].cycle.rotation_key();
    const double got = ranked[i].net_profit_usd;
    seen.insert(key);
    const auto it = want.find(key);
    if (it == want.end()) {
      if (!equal_profit(got, threshold)) {
        std::fprintf(stderr, "rank %zu: loop %s (%.17g) not in the oracle\n",
                     i, key.c_str(), got);
        return false;
      }
      continue;
    }
    if (!equal_profit(got, it->second)) {
      std::fprintf(stderr, "rank %zu: loop %s net profit %.17g, oracle %.17g\n",
                   i, key.c_str(), got, it->second);
      return false;
    }
    if (previous && it->second > *previous &&
        !equal_profit(it->second, *previous)) {
      std::fprintf(stderr, "rank %zu: loop %s ranked below a less profitable "
                   "loop\n", i, key.c_str());
      return false;
    }
    previous = it->second;
  }
  for (const arb::core::Opportunity& op : *oracle) {
    if (seen.count(op.cycle.rotation_key()) == 0 &&
        !equal_profit(op.net_profit_usd, threshold)) {
      std::fprintf(stderr, "oracle loop %s (%.17g) missing from the ranked set\n",
                   op.cycle.rotation_key().c_str(), op.net_profit_usd);
      return false;
    }
  }
  return true;
}

void print_result(const Tally& tally, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              tally.correct ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double value = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench
