// Best-execution CLI: loads a market snapshot and answers one routing
// query — "swap AMOUNT of FROM into TO" — with the whole-graph router
// (path enumeration + water-filling / flow-form barrier dispatch).
//
// Usage: route_query [--snapshot DIR] [--max-hops N] [--max-paths N]
//                    FROM TO AMOUNT
// Defaults: the repo's data/sample_snapshot, 3 hops, 8 paths. FROM/TO
// are token symbols (first match wins); AMOUNT must be a finite number and
// N a positive integer, or the usage is printed and the exit code is 2.
// Prints the split table (per-path pools, input, output) plus the solve
// method and certificate.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "amm/any_pool.hpp"
#include "core/router.hpp"
#include "market/io.hpp"
#include "market/snapshot.hpp"
#include "cli_args.hpp"

using namespace arb;

namespace {

[[noreturn]] void die(const std::string& what, const Error& error) {
  std::fprintf(stderr, "%s: %s\n", what.c_str(), error.to_string().c_str());
  std::exit(1);
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: route_query [--snapshot DIR] [--max-hops N] "
               "[--max-paths N] FROM TO AMOUNT\n");
  std::exit(2);
}

/// The parsed value, or the usage message and exit 2.
template <typename T>
T or_usage(std::optional<T> value) {
  if (!value) usage();
  return *value;
}

const char* method_name(core::RouteMethod method) {
  switch (method) {
    case core::RouteMethod::kDirect: return "direct";
    case core::RouteMethod::kWaterFilling: return "water-filling";
    case core::RouteMethod::kFlowSolve: return "flow-solve";
  }
  return "unknown";
}

std::string describe_path(const graph::TokenGraph& graph, TokenId start,
                          const std::vector<PoolId>& pools) {
  std::string out = graph.symbol(start);
  TokenId cur = start;
  for (PoolId id : pools) {
    const amm::AnyPool& pool = graph.pool(id);
    cur = pool.other(cur);
    out += " -[#";
    out += std::to_string(id.value());
    out += "]-> ";
    out += graph.symbol(cur);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string dir = std::string(ARB_REPO_DIR) + "/data/sample_snapshot";
  core::RouteQuery query;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--snapshot" && i + 1 < argc) {
      dir = argv[++i];
    } else if (arg == "--max-hops" && i + 1 < argc) {
      query.max_hops = or_usage(tools::parse_count(argv[++i]));
    } else if (arg == "--max-paths" && i + 1 < argc) {
      query.max_paths = or_usage(tools::parse_count(argv[++i]));
    } else if (!arg.empty() && arg[0] == '-') {
      usage();
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.size() != 3) usage();
  query.amount_in = or_usage(tools::parse_finite(positional[2].c_str()));

  auto loaded = market::load_snapshot(dir);
  if (!loaded) die("load_snapshot(" + dir + ")", loaded.error());
  const market::MarketSnapshot snapshot =
      loaded->filtered(market::PoolFilter{});
  const graph::TokenGraph& graph = snapshot.graph;

  auto from = graph.find_token(positional[0]);
  if (!from) die("find_token(" + positional[0] + ")", from.error());
  auto to = graph.find_token(positional[1]);
  if (!to) die("find_token(" + positional[1] + ")", to.error());
  query.token_in = *from;
  query.token_out = *to;

  std::printf("snapshot: %s — %zu tokens, %zu pools after filter\n",
              snapshot.label.c_str(), graph.token_count(),
              graph.pool_count());
  std::printf("query: %.6g %s -> %s (max %zu hops, %zu paths)\n",
              query.amount_in, graph.symbol(query.token_in).c_str(),
              graph.symbol(query.token_out).c_str(), query.max_hops,
              query.max_paths);

  auto result = core::route(graph, query);
  if (!result) die("route", result.error());

  std::printf("\nmethod: %s  (%d iterations", method_name(result->method),
              result->iterations);
  if (result->method == core::RouteMethod::kFlowSolve) {
    std::printf(", duality gap %.3g", result->duality_gap);
  }
  std::printf(")\n");
  std::printf("%-10s %-14s %-14s path\n", "", "input", "output");
  for (std::size_t p = 0; p < result->paths.size(); ++p) {
    const core::RoutedPath& path = result->paths[p];
    std::printf("path %-4zu  %-14.6g %-14.6g %s\n", p, path.input,
                path.output,
                describe_path(graph, query.token_in, path.pools).c_str());
  }
  std::printf("\ntotal %s out: %.10g\n",
              graph.symbol(query.token_out).c_str(), result->amount_out);
  return 0;
}
