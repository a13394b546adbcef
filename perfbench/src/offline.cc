// offline_rank: the paper's job end to end, the same work as
// `scholar_cli snapshot` followed by `scholar_cli serve` start-up:
// AMiner text -> ens_twpr -> snapshot build + write -> load -> first answer.
#include <memory>

#include "core/scholar_ranker.h"
#include "data/dataset.h"
#include "rank/time_weighted_pagerank.h"
#include "serve/query_engine.h"
#include "serve/snapshot.h"
#include "serve/snapshot_manager.h"
#include "workloads.h"

namespace perfbench {

namespace {

/// What one round leaves behind for the checks.
struct OfflineRound {
  bool ok = false;
  scholar::RankingOutput ranking;
  std::string first_answer;
};

OfflineRound RunOneRound(const RunOptions& opt,
                         scholar::serve::SnapshotManager* manager) {
  OfflineRound round;
  scholar::Result<scholar::Corpus> corpus =
      scholar::ReadAMinerCorpusFile(WorkPath(opt, "corpus.txt"));
  if (!corpus.ok()) return round;
  scholar::Result<scholar::ScholarRanker> ranker =
      scholar::ScholarRanker::Create(PaperRankerConfig(opt.threads));
  if (!ranker.ok()) return round;
  scholar::Result<scholar::RankingOutput> ranking = ranker->RankCorpus(*corpus);
  if (!ranking.ok()) return round;
  scholar::serve::SnapshotMeta meta;
  meta.snapshot_id = 1;
  meta.ranker_name = ranker->name();
  meta.corpus_name = corpus->name;
  {
    scholar::Result<scholar::serve::ScoreSnapshot> snapshot =
        scholar::serve::ScoreSnapshot::Build(corpus->graph, *ranking, meta);
    if (!snapshot.ok() ||
        !snapshot->WriteToFile(WorkPath(opt, "snapshot.bin")).ok()) {
      return round;
    }
  }
  if (!manager->LoadFile(WorkPath(opt, "snapshot.bin")).ok()) return round;
  scholar::serve::QueryEngine engine(manager);
  round.first_answer = engine.Execute("top_k 10");
  round.ranking = std::move(ranking).value();
  round.ok = round.first_answer.rfind("OK", 0) == 0;
  return round;
}

}  // namespace

RunResult RunOfflineRank(const RunOptions& opt) {
  const WorkloadShape shape = ShapeOf(opt.workload);
  PrepareInputs(opt, shape, {.aminer_text = true});
  const double setup_s = SecondsSince(opt.process_start);

  // Whole rounds until the next one would overrun the run length.
  RunResult result;
  std::vector<double> round_s;
  double peak_rss = 0.0;
  OfflineRound last;
  std::unique_ptr<scholar::serve::SnapshotManager> manager;
  const Clock::time_point measure_start = Clock::now();
  do {
    // The previous round's state is released before the next one starts.
    last = OfflineRound{};
    manager = std::make_unique<scholar::serve::SnapshotManager>();
    const Clock::time_point t0 = Clock::now();
    last = RunOneRound(opt, manager.get());
    round_s.push_back(SecondsSince(t0));
    // The memory of one cold pipeline; later rounds add only allocator reuse.
    if (round_s.size() == 1) peak_rss = PeakRssMiB();
    ++result.attempted;
    if (!last.ok) ++result.failed;
  } while (SecondsSince(measure_start) + round_s.back() <= opt.seconds);

  // Checks, outside the measured phase.
  CheckLog log;
  const BenchCorpus corpus = LoadCorpus(WorkPath(opt, "corpus.bin"));
  {
    scholar::Result<scholar::Corpus> parsed =
        scholar::ReadAMinerCorpusFile(WorkPath(opt, "corpus.txt"));
    if (log.Expect(parsed.ok(), "offline.corpus_read")) {
      CheckGraphMatchesCorpus(parsed->graph, corpus, "offline", &log);
      // The base ranker on the same graph against the benchmark's TWPR.
      scholar::Config config;
      config.Set("ranker", "twpr");
      config.SetInt("threads", opt.threads);
      scholar::Result<scholar::ScholarRanker> twpr =
          scholar::ScholarRanker::Create(config);
      scholar::Result<scholar::RankingOutput> base =
          twpr.ok() ? twpr->RankGraph(parsed->graph)
                    : scholar::Result<scholar::RankingOutput>(twpr.status());
      if (log.Expect(base.ok(), "offline.twpr_ran")) {
        const double drift = MaxAbsDiff(
            base->scores, ReferenceTwpr(corpus, corpus.num_articles()));
        log.Expect(drift <= 1e-9, "offline.twpr_matches_reference",
                   "max abs diff " + Sci(drift));
      }
    }
  }
  double accuracy = 0.0;
  if (log.Expect(last.ok, "offline.round_completed")) {
    CheckRankingProperties(last.ranking.scores, last.ranking.ranks,
                           "offline.ens_twpr", &log);
    const AnswerOracle oracle(corpus, last.ranking.scores);
    log.Expect(last.first_answer == oracle.Expected("top_k 10"),
               "offline.first_answer", last.first_answer.substr(0, 120));
    scholar::serve::QueryEngine engine(manager.get());
    CheckServedSample(&engine, oracle, opt.seed, 2000, "offline", &log);
    accuracy = PairwiseAccuracy(last.ranking.scores, corpus.impact, opt.seed);
  }

  result.correct = log.all_passed();
  result.metrics = EndToEndMetrics(
      setup_s, Median(round_s) * 1e3,
      static_cast<double>(corpus.num_articles()) / Median(round_s), peak_rss,
      accuracy);
  return result;
}

}  // namespace perfbench
