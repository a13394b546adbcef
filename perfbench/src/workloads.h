// The benchmark's workloads, their input sizes, and the input files the
// generator process prepares for them.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "generator.h"
#include "graph/citation_graph.h"
#include "oracle.h"
#include "core/scholar_ranker.h"
#include "rank/ranker.h"
#include "serve/query_engine.h"
#include "serve/snapshot_manager.h"
#include "stream/incremental_ranker.h"
#include "util/config.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  std::string work_dir;   // temporary inputs, removed by run.py
  std::string trace_dir;  // trace output of --trace 1
  int threads = 1;        // UsableCpus()
  Clock::time_point process_start;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
};

/// Input sizes of one workload.
struct WorkloadShape {
  CorpusShape corpus;
  /// Articles per streamed EdgeBatch; the oldest half of the corpus is the
  /// stream's base and the rest is cut into batches of this size.
  size_t batch_articles = 0;
};

/// The sizes of `workload`; dies on an unknown name.
WorkloadShape ShapeOf(const std::string& workload);

/// Which input files PrepareInputs writes into the work directory.
struct InputPlan {
  bool aminer_text = false;  // corpus.txt (AMiner V8)
  bool stream = false;       // base.graph, batches.bin, batches.idx
  bool snapshot = false;     // snapshot.bin + scores.bin (ens_twpr ranking)
};

/// Runs the generator in a child process, so its memory never counts in
/// this process's peak RSS, and waits for it. Always writes corpus.bin
/// (the benchmark's own copy with the ground truth).
void PrepareInputs(const RunOptions& opt, const WorkloadShape& shape,
                   const InputPlan& plan);

/// Paths inside the work directory.
std::string WorkPath(const RunOptions& opt, const std::string& name);

/// Stream inputs as the parent process holds them: the wire bytes of every
/// batch, in sequence order.
std::vector<std::string> LoadBatchBytes(const RunOptions& opt);

/// The value of `result`, or exit 2 with `what` and the error.
template <typename T>
T OrDie(scholar::Result<T> result, const std::string& what) {
  if (!result.ok()) Die(what + ": " + result.status().ToString());
  return std::move(result).value();
}
void OrDie(const scholar::Status& status, const std::string& what);

/// Ranks and percentiles of a ranker's scores, as ScholarRanker derives them.
scholar::RankingOutput ToRankingOutput(const scholar::RankResult& result);

/// The end-to-end metrics every workload reports, each with the meaning
/// of the workload's own operation (see README.md).
std::vector<Metric> EndToEndMetrics(double setup_s, double latency_p50_ms,
                                    double throughput_per_s, double peak_rss_mb,
                                    double pairwise_accuracy);

/// The paper's method, ens_twpr with paper defaults, on `threads` workers.
scholar::Config PaperRankerConfig(int threads);

/// Checks that `graph` (as the program built it) holds exactly the years
/// and reference lists of the first graph.num_nodes() articles of `corpus`.
void CheckGraphMatchesCorpus(const scholar::CitationGraph& graph,
                             const BenchCorpus& corpus, const std::string& what,
                             CheckLog* log);

/// The serving verb mix (the load generator's default weights), with
/// article ids drawn from `ids`: one request line.
std::string MakeRequest(const ZipfSampler& ids, BenchRng* rng);

/// Sends `count` requests drawn from `seed` through `engine` and checks
/// every answer against `oracle`. Returns the number of wrong answers.
uint64_t CheckServedSample(scholar::serve::QueryEngine* engine,
                           const AnswerOracle& oracle, uint64_t seed,
                           size_t count, const std::string& what,
                           CheckLog* log);

/// Publishes a warm ranking the way `scholar_cli stream` does: ranks,
/// percentiles, ScoreSnapshot::Build, SnapshotManager::Install.
scholar::Status PublishRanking(const scholar::CitationGraph& graph,
                               const scholar::RankResult& result,
                               uint64_t snapshot_id,
                               scholar::serve::SnapshotManager* manager);

/// The stream workload's warm ranker: twpr, mode=full, `threads` workers.
scholar::Result<scholar::stream::IncrementalRanker> MakeWarmRanker(int threads);

RunResult RunOfflineRank(const RunOptions& opt);
RunResult RunStreamReplay(const RunOptions& opt);
RunResult RunServeMixed(const RunOptions& opt);
/// --trace 1: every layer timed from outside, spans written as a Chrome
/// trace plus a per-layer summary.
RunResult RunLayerProbe(const RunOptions& opt);
/// Corrupts one served score, one warm score and one parsed edge and
/// asserts that the corresponding checks fail. Returns a process exit code.
int RunSelfTest(const RunOptions& opt);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
