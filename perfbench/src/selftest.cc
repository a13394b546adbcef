// --self-test: shows that the benchmark's checks can fail. Each check runs
// once on the program's real output, where it must pass, and once on a copy
// with one value corrupted, where it must report a failure.
#include <cstdio>
#include <functional>
#include <sstream>

#include "core/scholar_ranker.h"
#include "data/dataset.h"
#include "graph/graph_io.h"
#include "serve/query_engine.h"
#include "serve/snapshot.h"
#include "serve/snapshot_manager.h"
#include "stream/edge_batch.h"
#include "stream/streaming_graph.h"
#include "workloads.h"

namespace perfbench {

namespace {

/// Runs `check` on clean and on corrupted input; true when it passes the
/// first and fails the second.
bool Detects(const std::string& name,
             const std::function<uint64_t(bool corrupt)>& check) {
  const uint64_t clean = check(false);
  const uint64_t corrupted = check(true);
  const bool ok = clean == 0 && corrupted > 0;
  std::printf("self-test %-28s clean: %llu failures, corrupted: %llu failures  %s\n",
              name.c_str(), static_cast<unsigned long long>(clean),
              static_cast<unsigned long long>(corrupted), ok ? "ok" : "FAILED");
  return ok;
}

}  // namespace

int RunSelfTest(const RunOptions& base_opt) {
  RunOptions opt = base_opt;
  opt.seed = 7;
  WorkloadShape shape;
  shape.corpus.articles = 6000;
  shape.batch_articles = 300;
  PrepareInputs(opt, shape, {.aminer_text = true, .stream = true});
  const BenchCorpus bench = LoadCorpus(WorkPath(opt, "corpus.bin"));
  bool all = true;

  // One parsed edge: a reference line of the AMiner text points elsewhere.
  const std::string text = ReadFileOrDie(WorkPath(opt, "corpus.txt"));
  all &= Detects("parsed edge", [&](bool corrupt) {
    std::string input = text;
    if (corrupt) {
      const size_t at = input.find("\n#% ") + 4;
      const size_t end = input.find('\n', at);
      const uint64_t ref = std::stoull(input.substr(at, end - at));
      input.replace(at, end - at, std::to_string(ref == 0 ? 1 : ref - 1));
    }
    const std::string path = WorkPath(opt, "selftest.txt");
    WriteFileOrDie(path, input);
    const scholar::Corpus parsed = OrDie(scholar::ReadAMinerCorpusFile(path), "read");
    CheckLog log;
    CheckGraphMatchesCorpus(parsed.graph, bench, "selftest", &log);
    return log.failures();
  });

  // One served score: the snapshot serves a ranking with one score changed;
  // the answers are checked against the unchanged ranking. Id 0 is the
  // hottest id of the request mix, so the fixed sample queries it.
  const scholar::Corpus corpus =
      OrDie(scholar::ReadAMinerCorpusFile(WorkPath(opt, "corpus.txt")), "read");
  const scholar::ScholarRanker ranker =
      OrDie(scholar::ScholarRanker::Create(PaperRankerConfig(opt.threads)), "ranker");
  const scholar::RankingOutput ranking = OrDie(ranker.RankCorpus(corpus), "rank");
  const AnswerOracle oracle(bench, ranking.scores);
  all &= Detects("served score", [&](bool corrupt) {
    scholar::RankingOutput served = ranking;
    if (corrupt) served.scores[0] *= 0.999;
    scholar::serve::SnapshotManager manager;
    manager.Install(OrDie(scholar::serve::ScoreSnapshot::Build(corpus.graph, served, {}),
                          "Build"));
    scholar::serve::QueryEngine engine(&manager);
    CheckLog log;
    return CheckServedSample(&engine, oracle, opt.seed, 2000, "selftest", &log);
  });
  all &= Detects("ranking properties", [&](bool corrupt) {
    std::vector<double> scores = ranking.scores;
    if (corrupt) scores[1] = 0.0;
    CheckLog log;
    CheckRankingProperties(scores, ranking.ranks, "selftest", &log);
    return log.failures();
  });

  // One warm score: the stream's final warm scores, one nudged by 1e-7.
  const scholar::CitationGraph base =
      OrDie(scholar::ReadGraphBinaryFile(WorkPath(opt, "base.graph")), "base");
  scholar::stream::StreamingGraph graph(base);
  scholar::stream::IncrementalRanker warm = OrDie(MakeWarmRanker(opt.threads), "ranker");
  OrDie(warm.RankCold(graph.graph()), "RankCold");
  for (const std::string& bytes : LoadBatchBytes(opt)) {
    std::istringstream in(bytes);
    if (!graph.Ingest(OrDie(scholar::stream::ReadEdgeBatch(&in), "decode")).ok()) {
      Die("ingest failed");
    }
    OrDie(warm.RankWarm(graph.graph()), "RankWarm");
  }
  all &= Detects("warm score", [&](bool corrupt) {
    std::vector<double> scores = warm.previous_scores();
    if (corrupt) scores.back() += 1e-7;
    CheckLog log;
    CheckWarmScores(scores, bench, graph.num_nodes(), "selftest", &log);
    return log.failures();
  });

  std::printf("self-test %s\n", all ? "passed" : "FAILED");
  return all ? 0 : 1;
}

}  // namespace perfbench
