#include "graph/cycle.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_set>

namespace arb::graph {

Result<Cycle> Cycle::create(const TokenGraph& graph,
                            std::vector<TokenId> tokens,
                            std::vector<PoolId> pools) {
  if (tokens.size() != pools.size() || tokens.size() < 2) {
    return make_error(ErrorCode::kInvalidArgument,
                      "cycle needs equal token/pool counts of at least 2");
  }
  std::unordered_set<TokenId> seen_tokens;
  std::unordered_set<PoolId> seen_pools;
  const std::size_t n = tokens.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (!seen_tokens.insert(tokens[i]).second) {
      return make_error(ErrorCode::kInvalidArgument,
                        "repeated token in cycle");
    }
    if (!seen_pools.insert(pools[i]).second) {
      return make_error(ErrorCode::kInvalidArgument, "repeated pool in cycle");
    }
    const amm::AnyPool& pool = graph.pool(pools[i]);
    const TokenId in = tokens[i];
    const TokenId out = tokens[(i + 1) % n];
    if (!pool.contains(in) || pool.other(in) != out) {
      return make_error(ErrorCode::kInvalidArgument,
                        "pool " + to_string(pools[i]) +
                            " does not connect " + to_string(in) + " -> " +
                            to_string(out));
    }
  }
  return Cycle(std::move(tokens), std::move(pools));
}

Cycle Cycle::rotated(std::size_t offset) const {
  const std::size_t n = tokens_.size();
  offset %= n;
  std::vector<TokenId> tokens(n);
  std::vector<PoolId> pools(n);
  for (std::size_t i = 0; i < n; ++i) {
    tokens[i] = tokens_[(i + offset) % n];
    pools[i] = pools_[(i + offset) % n];
  }
  return Cycle(std::move(tokens), std::move(pools));
}

Cycle Cycle::reversed() const {
  // Reversing the walk: token sequence reverses starting from the same
  // anchor; pool i of the reverse walk is the pool previously walked
  // *into* that position.
  const std::size_t n = tokens_.size();
  std::vector<TokenId> tokens(n);
  std::vector<PoolId> pools(n);
  for (std::size_t i = 0; i < n; ++i) {
    tokens[i] = tokens_[(n - i) % n];
    pools[i] = pools_[n - 1 - i];
  }
  return Cycle(std::move(tokens), std::move(pools));
}

namespace {

std::string key_of(const std::vector<TokenId>& tokens,
                   const std::vector<PoolId>& pools) {
  std::ostringstream os;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    os << tokens[i].value() << "/" << pools[i].value() << ";";
  }
  return os.str();
}

}  // namespace

std::string Cycle::rotation_key() const {
  const auto smallest =
      std::min_element(tokens_.begin(), tokens_.end()) - tokens_.begin();
  const Cycle canonical = rotated(static_cast<std::size_t>(smallest));
  return key_of(canonical.tokens_, canonical.pools_);
}

std::string Cycle::loop_key() const {
  const std::string forward = rotation_key();
  const std::string backward = reversed().rotation_key();
  return std::min(forward, backward);
}

bool Cycle::all_cpmm(const TokenGraph& graph) const {
  for (const PoolId pool : pools_) {
    if (!graph.pool(pool).is_cpmm()) return false;
  }
  return true;
}

amm::PoolPath Cycle::path(const TokenGraph& graph, std::size_t offset) const {
  const Cycle r = rotated(offset);
  std::vector<amm::Hop> hops;
  hops.reserve(r.length());
  for (std::size_t i = 0; i < r.length(); ++i) {
    hops.push_back(amm::Hop{&graph.pool(r.pools_[i]).cpmm(), r.tokens_[i]});
  }
  auto path = amm::PoolPath::create(std::move(hops));
  // A validated Cycle always yields a valid path.
  return *std::move(path);
}

double Cycle::price_product(const TokenGraph& graph) const {
  double product = 1.0;
  const std::size_t n = tokens_.size();
  for (std::size_t i = 0; i < n; ++i) {
    product *= graph.pool(pools_[i]).relative_price_of(tokens_[i]);
  }
  return product;
}

std::string Cycle::describe(const TokenGraph& graph) const {
  std::ostringstream os;
  for (const TokenId token : tokens_) {
    os << graph.symbol(token) << " -> ";
  }
  os << graph.symbol(tokens_.front());
  return os.str();
}

}  // namespace arb::graph
