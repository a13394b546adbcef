// Workload sizes, input preparation in a generator process, and the checks
// and request mix that several workloads share.
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <sstream>

#include "core/scholar_ranker.h"
#include "graph/graph_builder.h"
#include "graph/graph_io.h"
#include "serve/snapshot.h"
#include "stream/edge_batch.h"
#include "workloads.h"

namespace perfbench {

using scholar::CitationGraph;

WorkloadShape ShapeOf(const std::string& workload) {
  WorkloadShape shape;
  if (workload == "offline_rank" || workload == "serve_mixed") {
    shape.corpus.articles = 200000;
    shape.batch_articles = 2000;
  } else if (workload == "stream_replay") {
    shape.corpus.articles = 80000;
    shape.batch_articles = 400;
  } else {
    Die("unknown workload '" + workload +
        "' (offline_rank, stream_replay, serve_mixed)");
  }
  return shape;
}

std::string WorkPath(const RunOptions& opt, const std::string& name) {
  return opt.work_dir + "/" + name;
}

scholar::Config PaperRankerConfig(int threads) {
  scholar::Config config;
  config.Set("ranker", "ens_twpr");
  config.SetInt("threads", threads);
  return config;
}

std::vector<Metric> EndToEndMetrics(double setup_s, double latency_p50_ms,
                                    double throughput_per_s, double peak_rss_mb,
                                    double pairwise_accuracy) {
  return {
      {"setup_s", setup_s, "s"},
      {"latency_p50_ms", latency_p50_ms, "ms"},
      {"throughput_per_s", throughput_per_s, "1/s"},
      {"peak_rss_mb", peak_rss_mb, "MiB"},
      {"pairwise_accuracy", pairwise_accuracy, "fraction"},
  };
}

void OrDie(const scholar::Status& status, const std::string& what) {
  if (!status.ok()) Die(what + ": " + status.ToString());
}

scholar::RankingOutput ToRankingOutput(const scholar::RankResult& result) {
  scholar::RankingOutput out;
  out.ranks = scholar::ScoresToRanks(result.scores);
  out.percentiles = scholar::RankPercentiles(result.scores);
  out.scores = result.scores;
  out.iterations = result.iterations;
  out.converged = result.converged;
  return out;
}

namespace {

CitationGraph BuildPrefixGraph(const BenchCorpus& corpus, size_t n) {
  scholar::GraphBuilder builder;
  for (size_t i = 0; i < n; ++i) builder.AddNode(corpus.years[i]);
  for (size_t u = 0; u < n; ++u) {
    for (uint32_t v : corpus.References(u)) {
      OrDie(builder.AddEdge(static_cast<scholar::NodeId>(u), v), "AddEdge");
    }
  }
  return OrDie(std::move(builder).Build(), "GraphBuilder::Build");
}

void WriteStreamInputs(const RunOptions& opt, const BenchCorpus& corpus,
                       size_t batch_articles) {
  const size_t n = corpus.num_articles();
  const size_t base = n / 2;
  OrDie(scholar::WriteGraphBinaryFile(BuildPrefixGraph(corpus, base),
                                      WorkPath(opt, "base.graph")),
        "WriteGraphBinaryFile");
  std::string bytes;
  std::string index;
  uint64_t sequence = 1;
  for (size_t start = base; start + batch_articles <= n;
       start += batch_articles, ++sequence) {
    scholar::stream::EdgeBatch batch;
    batch.sequence = sequence;
    batch.node_years.assign(corpus.years.begin() + static_cast<long>(start),
                            corpus.years.begin() +
                                static_cast<long>(start + batch_articles));
    for (size_t u = start; u < start + batch_articles; ++u) {
      for (uint32_t v : corpus.References(u)) {
        batch.edges.push_back({static_cast<scholar::NodeId>(u), v});
      }
    }
    std::ostringstream out;
    OrDie(scholar::stream::WriteEdgeBatch(batch, &out), "WriteEdgeBatch");
    bytes += out.str();
    index += std::to_string(bytes.size()) + "\n";
  }
  WriteFileOrDie(WorkPath(opt, "batches.bin"), bytes);
  WriteFileOrDie(WorkPath(opt, "batches.idx"), index);
}

void WriteSnapshotInputs(const RunOptions& opt, const BenchCorpus& corpus) {
  const CitationGraph graph = BuildPrefixGraph(corpus, corpus.num_articles());
  const scholar::ScholarRanker ranker = OrDie(
      scholar::ScholarRanker::Create(PaperRankerConfig(opt.threads)), "ranker");
  scholar::RankingOutput ranking =
      OrDie(ranker.RankGraph(graph), "ScholarRanker::RankGraph");
  scholar::serve::SnapshotMeta meta;
  meta.ranker_name = ranker.name();
  meta.corpus_name = "perfbench";
  // Two artifacts with identical scores and distinct snapshot ids: the
  // serving workload hot-swaps between them.
  for (uint64_t id : {1, 2}) {
    meta.snapshot_id = id;
    const scholar::serve::ScoreSnapshot snapshot = OrDie(
        scholar::serve::ScoreSnapshot::Build(graph, ranking, meta), "Build");
    OrDie(snapshot.WriteToFile(WorkPath(
              opt, id == 1 ? "snapshot.bin" : "snapshot2.bin")),
          "WriteToFile");
  }
  WriteFileOrDie(WorkPath(opt, "scores.bin"),
                 std::string_view(reinterpret_cast<const char*>(ranking.scores.data()),
                                  ranking.scores.size() * sizeof(double)));
}

}  // namespace

void PrepareInputs(const RunOptions& opt, const WorkloadShape& shape,
                   const InputPlan& plan) {
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) Die("fork failed");
  if (pid == 0) {
    const BenchCorpus corpus = GenerateCorpus(shape.corpus, opt.seed);
    SaveCorpus(corpus, WorkPath(opt, "corpus.bin"));
    if (plan.aminer_text) {
      WriteAMinerText(corpus, shape.corpus, opt.seed, WorkPath(opt, "corpus.txt"));
    }
    if (plan.stream) WriteStreamInputs(opt, corpus, shape.batch_articles);
    if (plan.snapshot) WriteSnapshotInputs(opt, corpus);
    std::fflush(nullptr);
    ::_exit(0);
  }
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    Die("input generation failed");
  }
}

std::vector<std::string> LoadBatchBytes(const RunOptions& opt) {
  const std::string bytes = ReadFileOrDie(WorkPath(opt, "batches.bin"));
  std::istringstream index(ReadFileOrDie(WorkPath(opt, "batches.idx")));
  std::vector<std::string> batches;
  size_t begin = 0, end = 0;
  while (index >> end) {
    if (end < begin || end > bytes.size()) Die("bad batches.idx");
    batches.push_back(bytes.substr(begin, end - begin));
    begin = end;
  }
  return batches;
}

void CheckGraphMatchesCorpus(const CitationGraph& graph,
                             const BenchCorpus& corpus, const std::string& what,
                             CheckLog* log) {
  const size_t n = graph.num_nodes();
  if (!log->Expect(n <= corpus.num_articles() &&
                       graph.num_edges() == corpus.ref_offsets[n],
                   what + ".graph_matches_corpus",
                   std::to_string(n) + " nodes / " +
                       std::to_string(graph.num_edges()) + " edges")) {
    return;
  }
  size_t mismatched = 0;
  for (size_t u = 0; u < n; ++u) {
    const auto refs = graph.References(static_cast<scholar::NodeId>(u));
    const auto want = corpus.References(u);
    if (graph.year(static_cast<scholar::NodeId>(u)) != corpus.years[u] ||
        !std::equal(refs.begin(), refs.end(), want.begin(), want.end())) {
      ++mismatched;
    }
  }
  log->Expect(mismatched == 0, what + ".graph_matches_corpus",
              std::to_string(mismatched) + " articles differ");
}

std::string MakeRequest(const ZipfSampler& ids, BenchRng* rng) {
  // serve_loadgen's default mix: score 40, top_k 25, percentile 15,
  // rank 10, neighbors 10 (citers or refs, evenly); k = 10.
  const uint64_t pick = rng->Bounded(100);
  const uint32_t id = ids.Sample(rng);
  if (pick < 40) return "score " + std::to_string(id);
  if (pick < 65) return "top_k 10 " + std::to_string(10 * rng->Bounded(10));
  if (pick < 80) return "percentile " + std::to_string(id);
  if (pick < 90) return "rank " + std::to_string(id);
  return "neighbors " + std::to_string(id) +
         (rng->Bounded(2) == 0 ? " citers 10" : " refs 10");
}

uint64_t CheckServedSample(scholar::serve::QueryEngine* engine,
                           const AnswerOracle& oracle, uint64_t seed,
                           size_t count, const std::string& what,
                           CheckLog* log) {
  const ZipfSampler ids(oracle.num_nodes(), 1.1);
  BenchRng rng(seed ^ 0x5e4feULL);
  uint64_t wrong = 0;
  for (size_t i = 0; i < count; ++i) {
    const std::string request = MakeRequest(ids, &rng);
    const std::string got = engine->Execute(request);
    if (!log->Expect(got == oracle.Expected(request), what + ".served_answer",
                     request + " -> " + got.substr(0, 120))) {
      ++wrong;
    }
  }
  return wrong;
}

}  // namespace perfbench
