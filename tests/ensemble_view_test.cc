// Property tests for the ensemble's snapshot paths. A view-capable base
// ranks every snapshot as a zero-copy TemporalCsr view; wrapped in NoViews it
// ranks the same prefixes as materialized copies instead. The two must be
// bitwise indistinguishable on every graph, slice count, thread count,
// warm-start mode, and view-capable base ranker. Bases without view support
// must see authors and venues restricted to each snapshot in sorted space.

#include "ensemble/ensemble_ranker.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>
#include "core/registry.h"
#include "core/scholar_ranker.h"
#include "data/dataset.h"
#include "graph/graph_builder.h"
#include "rank/hits.h"
#include "rank/katz.h"
#include "rank/pagerank.h"
#include "rank/sceas.h"
#include "rank/time_weighted_pagerank.h"
#include "test_util.h"
#include "util/config.h"
#include "util/rng.h"

namespace scholar {
namespace {

using testing_util::MakeRandomGraph;
using testing_util::MakeShuffledYearGraph;

/// Forwards to `base` but reports no view support, so the ensemble ranks
/// each snapshot as a materialized copy: the oracle for the view path.
class NoViews : public Ranker {
 public:
  explicit NoViews(std::shared_ptr<const Ranker> base)
      : base_(std::move(base)) {}
  std::string name() const override { return base_->name(); }

 private:
  Result<RankResult> RankImpl(const RankContext& ctx) const override {
    return base_->Rank(ctx);
  }
  std::shared_ptr<const Ranker> base_;
};

/// Runs one EnsembleOptions config over `base` and over NoViews(base) and
/// requires bitwise equality of scores and per-snapshot details.
void ExpectViewMatchesMaterialized(std::shared_ptr<const Ranker> base,
                                   const CitationGraph& g,
                                   EnsembleOptions options,
                                   const std::string& label) {
  ASSERT_TRUE(base->SupportsSnapshotViews()) << label;
  RankContext ctx;
  ctx.graph = &g;

  EnsembleRanker view_ens(base, options);
  std::vector<EnsembleRanker::SnapshotDetail> view_details;
  Result<RankResult> view_result = view_ens.RankWithDetails(ctx, &view_details);
  ASSERT_TRUE(view_result.ok()) << label << ": "
                                << view_result.status().ToString();

  EnsembleRanker mat_ens(std::make_shared<NoViews>(base), options);
  std::vector<EnsembleRanker::SnapshotDetail> mat_details;
  Result<RankResult> mat_result = mat_ens.RankWithDetails(ctx, &mat_details);
  ASSERT_TRUE(mat_result.ok()) << label << ": "
                               << mat_result.status().ToString();

  EXPECT_EQ(view_result.value().iterations, mat_result.value().iterations)
      << label;
  // Bitwise, not approximate: both modes must execute identical arithmetic.
  EXPECT_TRUE(view_result.value().scores == mat_result.value().scores)
      << label;

  ASSERT_EQ(view_details.size(), mat_details.size()) << label;
  for (size_t i = 0; i < view_details.size(); ++i) {
    EXPECT_EQ(view_details[i].boundary_year, mat_details[i].boundary_year);
    EXPECT_EQ(view_details[i].num_nodes, mat_details[i].num_nodes);
    EXPECT_EQ(view_details[i].num_edges, mat_details[i].num_edges);
    EXPECT_EQ(view_details[i].iterations, mat_details[i].iterations);
  }
}

std::shared_ptr<const Ranker> TwprBase() {
  TwprOptions o;
  o.recency_jump = true;
  return std::make_shared<TimeWeightedPageRank>(o);
}

TEST(EnsembleViewTest, MatchesMaterializedAcrossGraphsSlicesAndThreads) {
  for (uint64_t seed : {1u, 2u}) {
    CitationGraph g = MakeShuffledYearGraph(250, 3.0, 2000, 12, seed);
    for (int num_slices : {1, 3, 5}) {
      for (int threads : {1, 2, 4, 8}) {
        for (bool warm : {false, true}) {
          EnsembleOptions o;
          o.num_slices = num_slices;
          o.threads = threads;
          o.warm_start = warm;
          ExpectViewMatchesMaterialized(
              TwprBase(), g, o,
              "seed=" + std::to_string(seed) +
                  " slices=" + std::to_string(num_slices) +
                  " threads=" + std::to_string(threads) +
                  " warm=" + std::to_string(warm));
        }
      }
    }
  }
}

TEST(EnsembleViewTest, MatchesMaterializedOnYearMonotoneGraphs) {
  // Identity fast path: node ids already year-sorted.
  CitationGraph g = MakeRandomGraph(300, 3.0, 1995, 10, 3);
  for (bool warm : {false, true}) {
    EnsembleOptions o;
    o.warm_start = warm;
    o.threads = 4;
    ExpectViewMatchesMaterialized(TwprBase(), g, o,
                                  "identity warm=" + std::to_string(warm));
  }
}

TEST(EnsembleViewTest, MatchesMaterializedForEveryViewCapableBase) {
  CitationGraph g = MakeShuffledYearGraph(220, 3.0, 2001, 9, 4);
  std::vector<std::shared_ptr<const Ranker>> bases = {
      std::make_shared<PageRankRanker>(),
      TwprBase(),
      std::make_shared<HitsRanker>(),
      std::make_shared<KatzRanker>(),
      std::make_shared<SceasRanker>(),
  };
  for (const auto& base : bases) {
    for (bool warm : {false, true}) {
      EnsembleOptions o;
      o.num_slices = 4;
      o.threads = 4;
      o.warm_start = warm;
      ExpectViewMatchesMaterialized(
          base, g, o, base->name() + " warm=" + std::to_string(warm));
    }
  }
}

TEST(EnsembleViewTest, MatchesMaterializedAcrossScopesCombinersAndWindow) {
  CitationGraph g = MakeShuffledYearGraph(220, 3.0, 2000, 10, 5);
  for (NormalizationScope scope :
       {NormalizationScope::kSnapshot, NormalizationScope::kSliceCohort,
        NormalizationScope::kYearCohort}) {
    for (EnsembleCombiner combiner :
         {EnsembleCombiner::kMean, EnsembleCombiner::kRecencyWeighted}) {
      for (int window : {0, 2}) {
        EnsembleOptions o;
        o.num_slices = 5;
        o.scope = scope;
        o.combiner = combiner;
        o.window = window;
        o.threads = 2;
        ExpectViewMatchesMaterialized(
            TwprBase(), g, o,
            "scope=" + NormalizationScopeToString(scope) +
                " combiner=" + EnsembleCombinerToString(combiner) +
                " window=" + std::to_string(window));
      }
    }
  }
}

TEST(EnsembleViewTest, ViewPathIsThreadCountInvariant) {
  CitationGraph g = MakeShuffledYearGraph(250, 3.0, 2000, 10, 6);
  RankContext ctx;
  ctx.graph = &g;
  std::vector<double> serial_scores;
  for (bool warm : {false, true}) {
    for (int threads : {1, 2, 4, 8}) {
      EnsembleOptions o;
      o.warm_start = warm;
      o.threads = threads;
      EnsembleRanker ens(TwprBase(), o);
      Result<RankResult> result = ens.Rank(ctx);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      if (threads == 1) {
        serial_scores = std::move(result.value().scores);
      } else {
        EXPECT_TRUE(result.value().scores == serial_scores)
            << "warm=" << warm << " threads=" << threads;
      }
    }
  }
}

TEST(EnsembleViewTest, NonViewBaseStillWorksViaLegacyFallback) {
  // cc has no view support, so the ensemble ranks materialized copies of
  // the sorted prefixes; the result must simply be well-formed.
  CitationGraph g = MakeShuffledYearGraph(150, 2.0, 2000, 8, 7);
  Result<std::shared_ptr<const Ranker>> ens = MakeRanker("ens_cc");
  ASSERT_TRUE(ens.ok());
  RankContext ctx;
  ctx.graph = &g;
  Result<RankResult> result = ens.value()->Rank(ctx);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().scores.size(), g.num_nodes());
}

/// A corpus over a shuffled-year graph with random author lists (1-3 of 40
/// authors per paper) and venues (one of 6, or -1).
Corpus MakeShuffledCorpus(uint64_t seed) {
  Corpus corpus;
  corpus.graph = MakeShuffledYearGraph(240, 3.0, 2000, 10, seed);
  Rng rng(seed + 100);
  std::vector<std::vector<AuthorId>> lists(corpus.graph.num_nodes());
  for (std::vector<AuthorId>& list : lists) {
    const size_t count = 1 + rng.NextBounded(3);
    for (size_t a = 0; a < count; ++a) {
      list.push_back(static_cast<AuthorId>(rng.NextBounded(40)));
    }
  }
  corpus.authors = PaperAuthors::FromLists(lists);
  for (size_t p = 0; p < corpus.graph.num_nodes(); ++p) {
    corpus.venues.push_back(static_cast<int32_t>(rng.NextBounded(7)) - 1);
  }
  return corpus;
}

TEST(EnsembleViewTest, RankCorpusMatchesRankGraphForViewBase) {
  // Authors and venues in the context must not push a view-capable base off
  // the view path (no such base reads them).
  const Corpus corpus = MakeShuffledCorpus(8);
  Config config;
  config.Set("ranker", "ens_twpr");
  config.SetInt("threads", 4);
  Result<ScholarRanker> ranker = ScholarRanker::Create(config);
  ASSERT_TRUE(ranker.ok()) << ranker.status().ToString();
  Result<RankingOutput> from_corpus = ranker->RankCorpus(corpus);
  Result<RankingOutput> from_graph = ranker->RankGraph(corpus.graph);
  ASSERT_TRUE(from_corpus.ok()) << from_corpus.status().ToString();
  ASSERT_TRUE(from_graph.ok()) << from_graph.status().ToString();
  EXPECT_EQ(from_corpus->iterations, from_graph->iterations);
  EXPECT_TRUE(from_corpus->scores == from_graph->scores);
}

TEST(EnsembleViewTest, NonViewBasesSeeAuthorsAndVenuesOfTheirSnapshot) {
  // Relabel the corpus into publication-year order by hand (graph, authors
  // and venues together). The ensemble then runs the identity permutation
  // on it, so any slip in how it restricts authors or venues to a sorted
  // snapshot prefix of the shuffled corpus changes some score bits.
  const Corpus shuffled = MakeShuffledCorpus(9);
  const CitationGraph& g = shuffled.graph;
  const size_t n = g.num_nodes();
  std::vector<NodeId> to_parent(n);
  std::iota(to_parent.begin(), to_parent.end(), NodeId{0});
  std::stable_sort(to_parent.begin(), to_parent.end(),
                   [&g](NodeId a, NodeId b) { return g.year(a) < g.year(b); });
  std::vector<NodeId> from_parent(n);
  for (NodeId s = 0; s < n; ++s) from_parent[to_parent[s]] = s;

  Corpus sorted;
  GraphBuilder builder;
  std::vector<std::vector<AuthorId>> lists(n);
  for (NodeId s = 0; s < n; ++s) {
    const NodeId p = to_parent[s];
    builder.AddNode(g.year(p));
    auto authors = shuffled.authors.AuthorsOf(p);
    lists[s].assign(authors.begin(), authors.end());
    sorted.venues.push_back(shuffled.venues[p]);
  }
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v : g.References(u)) {
      ASSERT_TRUE(builder.AddEdge(from_parent[u], from_parent[v]).ok());
    }
  }
  Result<CitationGraph> built = std::move(builder).Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  sorted.graph = std::move(built).value();
  sorted.authors = PaperAuthors::FromLists(lists);

  for (const std::string& name : {std::string("ens_futurerank"),
                                  std::string("ens_venuerank")}) {
    Config config;
    config.Set("ranker", name);
    config.SetInt("threads", 2);
    Result<ScholarRanker> ranker = ScholarRanker::Create(config);
    ASSERT_TRUE(ranker.ok()) << name << ": " << ranker.status().ToString();
    ASSERT_FALSE(ranker->ranker().SupportsSnapshotViews());
    Result<RankingOutput> from_shuffled = ranker->RankCorpus(shuffled);
    Result<RankingOutput> from_sorted = ranker->RankCorpus(sorted);
    ASSERT_TRUE(from_shuffled.ok())
        << name << ": " << from_shuffled.status().ToString();
    ASSERT_TRUE(from_sorted.ok())
        << name << ": " << from_sorted.status().ToString();
    std::vector<double> mapped_back(n);
    for (NodeId s = 0; s < n; ++s) {
      mapped_back[to_parent[s]] = from_sorted->scores[s];
    }
    EXPECT_TRUE(from_shuffled->scores == mapped_back) << name;
  }
}

}  // namespace
}  // namespace scholar
