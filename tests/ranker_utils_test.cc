#include "rank/ranker.h"

#include <gtest/gtest.h>
#include "test_util.h"

namespace scholar {
namespace {

TEST(ScoresToRanksTest, BasicOrdering) {
  std::vector<uint32_t> ranks = ScoresToRanks({0.1, 0.9, 0.5});
  EXPECT_EQ(ranks[1], 0u);  // highest score = rank 0
  EXPECT_EQ(ranks[2], 1u);
  EXPECT_EQ(ranks[0], 2u);
}

TEST(ScoresToRanksTest, TiesBreakByNodeId) {
  std::vector<uint32_t> ranks = ScoresToRanks({0.5, 0.5, 0.9});
  EXPECT_EQ(ranks[2], 0u);
  EXPECT_EQ(ranks[0], 1u);  // id 0 beats id 1 on tie
  EXPECT_EQ(ranks[1], 2u);
}

TEST(ScoresToRanksTest, EmptyInput) {
  EXPECT_TRUE(ScoresToRanks({}).empty());
}

TEST(RankPercentilesTest, BestGetsOneWorstGetsOneOverN) {
  std::vector<double> pct = RankPercentiles({0.1, 0.9, 0.5, 0.3});
  EXPECT_DOUBLE_EQ(pct[1], 1.0);
  EXPECT_DOUBLE_EQ(pct[2], 0.75);
  EXPECT_DOUBLE_EQ(pct[3], 0.5);
  EXPECT_DOUBLE_EQ(pct[0], 0.25);
}

TEST(RankPercentilesTest, SingleElement) {
  std::vector<double> pct = RankPercentiles({42.0});
  ASSERT_EQ(pct.size(), 1u);
  EXPECT_DOUBLE_EQ(pct[0], 1.0);
}

TEST(MidrankPercentilesTest, NoTiesMatchesPlainPercentiles) {
  std::vector<double> scores = {0.1, 0.9, 0.5, 0.3};
  EXPECT_EQ(MidrankPercentiles(scores), RankPercentiles(scores));
}

TEST(MidrankPercentilesTest, TiesShareAverage) {
  // Scores: 0.9 best (1.0), then the two tied 0.5s share (0.75 + 0.5)/2.
  std::vector<double> pct = MidrankPercentiles({0.5, 0.5, 0.9, 0.1});
  EXPECT_DOUBLE_EQ(pct[2], 1.0);
  EXPECT_DOUBLE_EQ(pct[0], 0.625);
  EXPECT_DOUBLE_EQ(pct[1], 0.625);
  EXPECT_DOUBLE_EQ(pct[3], 0.25);
}

TEST(MidrankPercentilesTest, AllTiedGetSameValue) {
  std::vector<double> pct = MidrankPercentiles({3.0, 3.0, 3.0, 3.0});
  for (double p : pct) EXPECT_DOUBLE_EQ(p, 0.625);  // mean of 1, .75, .5, .25
}

TEST(MidrankPercentilesTest, EmptyInput) {
  EXPECT_TRUE(MidrankPercentiles({}).empty());
}

TEST(TopKTest, ReturnsBestFirst) {
  std::vector<NodeId> top = TopK({0.1, 0.9, 0.5, 0.7}, 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0], 1u);
  EXPECT_EQ(top[1], 3u);
}

TEST(TopKTest, KLargerThanNReturnsAll) {
  std::vector<NodeId> top = TopK({0.1, 0.9}, 10);
  EXPECT_EQ(top.size(), 2u);
}

TEST(TopKTest, DeterministicUnderTies) {
  std::vector<NodeId> a = TopK({0.5, 0.5, 0.5}, 2);
  std::vector<NodeId> b = TopK({0.5, 0.5, 0.5}, 2);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a[0], 0u);
  EXPECT_EQ(a[1], 1u);
}

TEST(ValidateContextTest, NullGraphFails) {
  RankContext ctx;
  EXPECT_TRUE(ValidateContext(ctx, false).IsInvalidArgument());
}

TEST(ValidateContextTest, AuthorsRequiredButMissing) {
  CitationGraph g = testing_util::MakeTinyGraph();
  RankContext ctx;
  ctx.graph = &g;
  EXPECT_TRUE(ValidateContext(ctx, false).ok());
  EXPECT_TRUE(ValidateContext(ctx, true).IsInvalidArgument());
}

TEST(ValidateContextTest, AuthorPaperCountMustMatch) {
  CitationGraph g = testing_util::MakeTinyGraph();
  PaperAuthors wrong = PaperAuthors::FromLists({{0}, {1}});  // 2 papers != 5
  RankContext ctx;
  ctx.graph = &g;
  ctx.authors = &wrong;
  EXPECT_TRUE(ValidateContext(ctx, true).IsInvalidArgument());

  PaperAuthors right =
      PaperAuthors::FromLists({{0}, {1}, {0}, {2}, {1}});
  ctx.authors = &right;
  EXPECT_TRUE(ValidateContext(ctx, true).ok());
}

TEST(RankContextTest, EffectiveNowDefaultsToMaxYear) {
  CitationGraph g = testing_util::MakeTinyGraph();
  RankContext ctx;
  ctx.graph = &g;
  EXPECT_EQ(ctx.EffectiveNow(), 2004);
  ctx.now_year = 2010;
  EXPECT_EQ(ctx.EffectiveNow(), 2010);
}

TEST(EffectiveThreadsTest, NegativeOptionRunsSerial) {
  RankContext ctx;
  EXPECT_EQ(EffectiveThreads(-3, ctx), 1u);
  ctx.max_threads = 2;
  EXPECT_EQ(EffectiveThreads(-3, ctx), 1u);
}

}  // namespace
}  // namespace scholar
