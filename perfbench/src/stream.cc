// stream_replay: the warm re-rank loop. Each epoch hands one batch's wire
// bytes to the program: ReadEdgeBatch -> EpochPipeline::Step (ingest, warm
// twpr in mode=full, publish = snapshot build + install) -> the first
// QueryEngine answers that reflect the batch.
#include <sstream>

#include "graph/graph_io.h"
#include "serve/query_engine.h"
#include "serve/snapshot.h"
#include "serve/snapshot_manager.h"
#include "stream/edge_batch.h"
#include "stream/epoch_pipeline.h"
#include "stream/incremental_ranker.h"
#include "stream/streaming_graph.h"
#include "workloads.h"

namespace perfbench {

namespace {

using scholar::CitationGraph;
using scholar::RankResult;
using scholar::Status;
namespace serve = scholar::serve;
namespace stream = scholar::stream;

/// Parses "nodes=<n>" out of an `info` answer; 0 when absent.
size_t InfoNodes(const std::string& info) {
  const size_t at = info.find(" nodes=");
  return at == std::string::npos ? 0 : std::stoull(info.substr(at + 7));
}

struct Replay {
  std::vector<double> freshness_s;  // one per epoch
  uint64_t failed = 0;
  size_t articles = 0;              // articles made servable
  std::vector<double> final_scores; // warm scores after the last epoch
};

}  // namespace

/// Publishes like `scholar_cli stream`: ranks, percentiles, Build, Install.
Status PublishRanking(const CitationGraph& graph, const RankResult& result,
                      uint64_t snapshot_id, serve::SnapshotManager* manager) {
  serve::SnapshotMeta meta;
  meta.snapshot_id = snapshot_id;
  meta.ranker_name = "twpr";
  meta.corpus_name = "perfbench";
  SCHOLAR_ASSIGN_OR_RETURN(
      serve::ScoreSnapshot snapshot,
      serve::ScoreSnapshot::Build(graph, ToRankingOutput(result), std::move(meta)));
  manager->Install(std::move(snapshot));
  return Status::OK();
}

scholar::Result<stream::IncrementalRanker> MakeWarmRanker(int threads) {
  stream::IncrementalRankerOptions options;
  options.ranker = "twpr";
  options.config.SetInt("threads", threads);
  options.mode = "full";
  return stream::IncrementalRanker::Create(options);
}

namespace {

Replay RunReplay(const RunOptions& opt, const CitationGraph& base,
                 const std::vector<std::string>& batches, CheckLog* log) {
  Replay replay;
  scholar::Result<stream::IncrementalRanker> ranker =
      MakeWarmRanker(opt.threads);
  if (!ranker.ok()) {
    replay.failed = batches.size();
    return replay;
  }
  stream::StreamingGraph graph(base);
  serve::SnapshotManager manager;
  serve::QueryEngine engine(&manager);
  stream::EpochPipeline pipeline(
      &graph, &*ranker,
      [&](const CitationGraph& g, const RankResult& r,
          const stream::EpochStats& stats) {
        return PublishRanking(g, r, stats.epoch, &manager);
      });
  if (!pipeline.Bootstrap().ok()) {
    replay.failed = batches.size();
    return replay;
  }
  size_t expected_nodes = base.num_nodes();
  for (const std::string& bytes : batches) {
    const Clock::time_point t0 = Clock::now();
    std::istringstream in(bytes);
    scholar::Result<stream::EdgeBatch> batch = stream::ReadEdgeBatch(&in);
    const size_t added = batch.ok() ? batch->num_nodes() : 0;
    const bool stepped = batch.ok() && pipeline.Step(std::move(*batch)).ok();
    const std::string info = engine.Execute("info");
    const std::string newest =
        engine.Execute("score " + std::to_string(expected_nodes + added - 1));
    replay.freshness_s.push_back(SecondsSince(t0));
    expected_nodes += added;
    const bool fresh =
        log->Expect(InfoNodes(info) == expected_nodes, "stream.info_nodes",
                    info + " (expected nodes=" + std::to_string(expected_nodes) + ")") &
        log->Expect(newest.rfind("OK ", 0) == 0, "stream.newest_score", newest);
    if (!stepped || !fresh) ++replay.failed;
    replay.articles += added;
  }
  replay.final_scores = ranker->previous_scores();
  return replay;
}

}  // namespace

RunResult RunStreamReplay(const RunOptions& opt) {
  const WorkloadShape shape = ShapeOf(opt.workload);
  PrepareInputs(opt, shape, {.stream = true});
  scholar::Result<CitationGraph> base =
      scholar::ReadGraphBinaryFile(WorkPath(opt, "base.graph"));
  if (!base.ok()) Die("base graph: " + base.status().ToString());
  const std::vector<std::string> batches = LoadBatchBytes(opt);
  const double setup_s = SecondsSince(opt.process_start);

  // Whole replays of the stream until the next would overrun the run length.
  RunResult result;
  CheckLog log;
  std::vector<double> freshness_s;
  double peak_rss = 0.0;
  double servable_articles = 0.0;
  Replay last;
  const Clock::time_point measure_start = Clock::now();
  double replay_s = 0.0;
  do {
    last = Replay{};
    const Clock::time_point t0 = Clock::now();
    last = RunReplay(opt, *base, batches, &log);
    replay_s = SecondsSince(t0);
    freshness_s.insert(freshness_s.end(), last.freshness_s.begin(),
                       last.freshness_s.end());
    // The memory of one replay from a cold start.
    if (peak_rss == 0.0) peak_rss = PeakRssMiB();
    servable_articles += static_cast<double>(last.articles);
    result.attempted += batches.size();
    result.failed += last.failed;
  } while (SecondsSince(measure_start) + replay_s <= opt.seconds);

  const BenchCorpus corpus = LoadCorpus(WorkPath(opt, "corpus.bin"));
  const size_t final_nodes = base->num_nodes() + batches.size() * shape.batch_articles;
  CheckWarmScores(last.final_scores, corpus, final_nodes, "stream", &log);
  const double accuracy = PairwiseAccuracy(last.final_scores, corpus.impact, opt.seed);

  double total_s = 0.0;
  for (double s : freshness_s) total_s += s;
  result.correct = log.all_passed();
  result.metrics = EndToEndMetrics(setup_s, Median(freshness_s) * 1e3,
                                   servable_articles / total_s, peak_rss,
                                   accuracy);
  return result;
}

}  // namespace perfbench
