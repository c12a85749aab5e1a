// The committed sample snapshot (data/sample_snapshot) is the repo's
// "golden" market: exactly the paper's scale. These tests pin it so a
// regression in IO, filtering or the strategies shows up as a concrete
// diff against checked-in data.

#include <gtest/gtest.h>

#include "core/comparison.hpp"
#include "core/scanner.hpp"
#include "market/io.hpp"

#ifndef ARB_REPO_DIR
#define ARB_REPO_DIR "."
#endif

namespace arb {
namespace {

market::MarketSnapshot load_sample() {
  auto snapshot =
      market::load_snapshot(std::string(ARB_REPO_DIR) +
                            "/data/sample_snapshot");
  EXPECT_TRUE(snapshot.ok()) << (snapshot.ok()
                                     ? ""
                                     : snapshot.error().to_string());
  return *std::move(snapshot);
}

TEST(SampleDatasetTest, MatchesPaperScale) {
  const auto snapshot = load_sample();
  EXPECT_EQ(snapshot.graph.token_count(), 51u);
  EXPECT_EQ(snapshot.graph.pool_count(), 208u);
  const auto filtered = snapshot.filtered(market::PoolFilter{});
  EXPECT_EQ(filtered.graph.pool_count(), 208u);  // all pass the filter
}

TEST(SampleDatasetTest, HasExactly123ArbitrageLoops) {
  const auto snapshot = load_sample().filtered(market::PoolFilter{});
  core::ScannerConfig config;
  config.loop_lengths = {3};
  const auto opportunities =
      core::scan_market(snapshot.graph, snapshot.prices, config).value();
  EXPECT_EQ(opportunities.size(), 123u);  // the paper's count
}

TEST(SampleDatasetTest, ScannerAgreesWithMarketStudy) {
  const auto snapshot = load_sample();
  auto study = core::run_market_study(snapshot, 3).value();
  core::ScannerConfig config;
  config.loop_lengths = {3};
  const auto opportunities =
      core::scan_market(study.market.graph, study.market.prices, config)
          .value();
  ASSERT_EQ(opportunities.size(), study.loops.size());
  // The scanner's best equals the study's best MaxMax value.
  double best_study = 0.0;
  for (const auto& row : study.loops) {
    best_study = std::max(best_study, row.max_max.monetized_usd);
  }
  EXPECT_NEAR(opportunities.front().net_profit_usd, best_study, 1e-9);
  // Total value agrees too.
  double scanner_total = 0.0;
  for (const auto& o : opportunities) scanner_total += o.net_profit_usd;
  double study_total = 0.0;
  for (const auto& row : study.loops) {
    study_total += row.max_max.monetized_usd;
  }
  EXPECT_NEAR(scanner_total, study_total, 1e-6);
}

}  // namespace
}  // namespace arb
