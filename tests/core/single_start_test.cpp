#include "core/single_start.hpp"

#include <gtest/gtest.h>

#include "amm/path.hpp"
#include "tests/core/fixtures.hpp"

namespace arb::core {
namespace {

using testing::NoArbMarket;
using testing::Section5Market;

TEST(TraditionalTest, PaperNumbersStartX) {
  const Section5Market m;
  auto outcome = evaluate_traditional(m.graph, m.prices, m.loop(), 0);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->kind, StrategyKind::kTraditional);
  EXPECT_EQ(outcome->start_token, m.x);
  EXPECT_NEAR(outcome->input, 27.0, 0.1);             // paper: 27.0
  EXPECT_NEAR(outcome->profits[0].amount, 16.87, 0.1); // paper: 16.8
  EXPECT_NEAR(outcome->monetized_usd, 33.7, 0.2);     // paper: $33.7
}

TEST(TraditionalTest, PaperNumbersStartY) {
  const Section5Market m;
  auto outcome = evaluate_traditional(m.graph, m.prices, m.loop(), 1);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->start_token, m.y);
  EXPECT_NEAR(outcome->input, 31.5, 0.1);             // paper: 31.5
  EXPECT_NEAR(outcome->profits[0].amount, 19.7, 0.1); // paper: 19.7
  EXPECT_NEAR(outcome->monetized_usd, 201.1, 0.5);    // paper: $201.1
}

TEST(TraditionalTest, PaperNumbersStartZ) {
  const Section5Market m;
  auto outcome = evaluate_traditional(m.graph, m.prices, m.loop(), 2);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->start_token, m.z);
  EXPECT_NEAR(outcome->input, 16.4, 0.1);              // paper: 16.4
  EXPECT_NEAR(outcome->profits[0].amount, 10.3, 0.1);  // paper: 10.3
  EXPECT_NEAR(outcome->monetized_usd, 205.6, 0.5);     // paper: $205.6
}

TEST(TraditionalTest, AnalyticAndBisectionAgree) {
  // The strategy sizes CPMM rotations with the closed form; the paper's
  // bisection on d out/d in = 1 is the reference it must agree with.
  const Section5Market m;
  for (std::size_t offset = 0; offset < 3; ++offset) {
    const auto bisection =
        amm::optimize_input_bisection(m.loop().path(m.graph, offset));
    auto closed = evaluate_traditional(m.graph, m.prices, m.loop(), offset);
    ASSERT_TRUE(bisection.ok());
    ASSERT_TRUE(closed.ok());
    const double price =
        m.prices.price(m.loop().tokens()[offset]).value();
    EXPECT_NEAR(price * bisection->profit, closed->monetized_usd, 1e-5);
    EXPECT_GT(bisection->iterations, 0);
    EXPECT_EQ(closed->solver_iterations, 0);
  }
}

TEST(TraditionalTest, OffsetWrapsModuloLength) {
  const Section5Market m;
  auto a = evaluate_traditional(m.graph, m.prices, m.loop(), 1);
  auto b = evaluate_traditional(m.graph, m.prices, m.loop(), 4);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->start_token, b->start_token);
  EXPECT_DOUBLE_EQ(a->monetized_usd, b->monetized_usd);
}

TEST(TraditionalTest, MissingPriceFails) {
  Section5Market m;
  market::CexPriceFeed partial;
  partial.set_price(m.x, 2.0);  // y, z missing
  auto outcome = evaluate_traditional(m.graph, partial, m.loop(), 1);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.error().code, ErrorCode::kNotFound);

  // The rotation is read off the loop's segment table, whose kernels
  // carry every token's price: the start token's alone is not enough.
  market::CexPriceFeed start_priced;
  start_priced.set_price(m.y, 10.2);
  start_priced.set_price(m.z, 20.0);  // x missing; the walk starts at y
  outcome = evaluate_traditional(m.graph, start_priced, m.loop(), 1);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.error().code, ErrorCode::kNotFound);
}

TEST(TraditionalTest, NoArbLoopGivesZeroEverywhere) {
  const NoArbMarket m;
  for (std::size_t offset = 0; offset < 3; ++offset) {
    auto outcome = evaluate_traditional(m.graph, m.prices, m.loop(), offset);
    ASSERT_TRUE(outcome.ok());
    EXPECT_DOUBLE_EQ(outcome->input, 0.0);
    EXPECT_DOUBLE_EQ(outcome->monetized_usd, 0.0);
  }
}

TEST(MaxPriceTest, PicksHighestCexPriceToken) {
  const Section5Market m;
  auto outcome = evaluate_max_price(m.graph, m.prices, m.loop());
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->kind, StrategyKind::kMaxPrice);
  EXPECT_EQ(outcome->start_token, m.z);  // $20 is the highest price
  EXPECT_NEAR(outcome->monetized_usd, 205.6, 0.5);
}

TEST(MaxPriceTest, CanBeStrictlyWorseThanMaxMax) {
  // The paper's Fig. 6 phenomenon: raise X's price to ~$15 — MaxPrice
  // still starts from Z ($20) but starting from X now monetizes best.
  Section5Market m;
  m.prices.set_price(m.x, 15.0);
  auto max_price = evaluate_max_price(m.graph, m.prices, m.loop());
  auto max_max = evaluate_max_max(m.graph, m.prices, m.loop());
  ASSERT_TRUE(max_price.ok());
  ASSERT_TRUE(max_max.ok());
  EXPECT_EQ(max_price->start_token, m.z);
  EXPECT_EQ(max_max->start_token, m.x);
  EXPECT_GT(max_max->monetized_usd, max_price->monetized_usd * 1.05);
}

TEST(MaxMaxTest, PaperNumbers) {
  const Section5Market m;
  auto outcome = evaluate_max_max(m.graph, m.prices, m.loop());
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->kind, StrategyKind::kMaxMax);
  EXPECT_EQ(outcome->start_token, m.z);
  EXPECT_NEAR(outcome->monetized_usd, 205.6, 0.5);
}

TEST(MaxMaxTest, UpperBoundsEveryRotation) {
  const Section5Market m;
  auto rotations = evaluate_all_rotations(m.graph, m.prices, m.loop());
  auto max_max = evaluate_max_max(m.graph, m.prices, m.loop());
  ASSERT_TRUE(rotations.ok());
  ASSERT_TRUE(max_max.ok());
  ASSERT_EQ(rotations->size(), 3u);
  for (const StrategyOutcome& rotation : *rotations) {
    EXPECT_GE(max_max->monetized_usd, rotation.monetized_usd);
  }
}

TEST(MaxMaxTest, EqualsBestRotationExactly) {
  const Section5Market m;
  auto rotations = evaluate_all_rotations(m.graph, m.prices, m.loop());
  auto max_max = evaluate_max_max(m.graph, m.prices, m.loop());
  double best = 0.0;
  for (const StrategyOutcome& r : *rotations) {
    best = std::max(best, r.monetized_usd);
  }
  EXPECT_DOUBLE_EQ(max_max->monetized_usd, best);
}

TEST(MaxMaxTest, ZeroOnNoArbLoop) {
  const NoArbMarket m;
  auto outcome = evaluate_max_max(m.graph, m.prices, m.loop());
  ASSERT_TRUE(outcome.ok());
  EXPECT_DOUBLE_EQ(outcome->monetized_usd, 0.0);
}

TEST(AllRotationsTest, StartTokensAreDistinctLoopTokens) {
  const Section5Market m;
  auto rotations = evaluate_all_rotations(m.graph, m.prices, m.loop());
  ASSERT_TRUE(rotations.ok());
  EXPECT_EQ((*rotations)[0].start_token, m.x);
  EXPECT_EQ((*rotations)[1].start_token, m.y);
  EXPECT_EQ((*rotations)[2].start_token, m.z);
}

TEST(StrategyKindTest, Names) {
  EXPECT_EQ(to_string(StrategyKind::kTraditional), "Traditional");
  EXPECT_EQ(to_string(StrategyKind::kMaxPrice), "MaxPrice");
  EXPECT_EQ(to_string(StrategyKind::kMaxMax), "MaxMax");
  EXPECT_EQ(to_string(StrategyKind::kConvexOptimization),
            "ConvexOptimization");
}

}  // namespace
}  // namespace arb::core
