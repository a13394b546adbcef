// The traced run (--trace 1): drives each layer's public functions one call
// at a time, in the order the end-to-end paths use them, inside spans of
// the benchmark's own. Spans stay in memory and are written at the end as
// a Chrome trace, together with a per-layer summary. End-to-end metrics are
// never taken from this run.
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include "core/scholar_ranker.h"
#include "data/dataset.h"
#include "ensemble/ensemble_ranker.h"
#include "graph/graph_io.h"
#include "graph/temporal_csr.h"
#include "rank/pagerank.h"
#include "rank/time_weighted_pagerank.h"
#include "serve/query_engine.h"
#include "serve/snapshot.h"
#include "serve/snapshot_manager.h"
#include "serve_session.h"
#include "stream/edge_batch.h"
#include "stream/streaming_graph.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace serve = scholar::serve;
namespace stream = scholar::stream;
using scholar::CitationGraph;
using scholar::RankContext;
using scholar::RankResult;

/// Per sweep, the pull gather reads each in-edge's source id (4 B), weight
/// (8 B) and gathered contribution (8 B), and per node the row bounds
/// (2 x 8 B), inverse row weight, score, contribution and next score
/// (4 x 8 B). A model from array sizes, not a hardware counter.
constexpr double kGatherBytesPerEdge = 20.0;
constexpr double kGatherBytesPerNode = 48.0;

size_t LastLevelCacheBytes() {
  const long llc = ::sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (llc > 0) return static_cast<size_t>(llc);
  const long l2 = ::sysconf(_SC_LEVEL2_CACHE_SIZE);
  return l2 > 0 ? static_cast<size_t>(l2) : (32u << 20);
}

/// STREAM triad a[i] = b[i] + s * c[i] on `threads` threads over three
/// arrays whose combined size is four times the last-level cache; best of
/// five passes, 24 bytes per element.
double TriadGbps(int threads, double* array_mib) {
  const size_t elements = 4 * LastLevelCacheBytes() / (3 * sizeof(double));
  *array_mib = static_cast<double>(elements * sizeof(double)) / (1 << 20);
  std::vector<double> a(elements), b(elements, 1.0), c(elements, 2.0);
  double best_s = 1e30;
  for (int pass = 0; pass < 5; ++pass) {
    const Clock::time_point t0 = Clock::now();
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        const size_t begin = elements * static_cast<size_t>(t) / threads;
        const size_t end = elements * static_cast<size_t>(t + 1) / threads;
        for (size_t i = begin; i < end; ++i) a[i] = b[i] + 3.0 * c[i];
      });
    }
    for (std::thread& w : workers) w.join();
    best_s = std::min(best_s, SecondsSince(t0));
  }
  if (a[elements / 2] != 7.0) Die("triad produced a wrong value");
  return 24.0 * static_cast<double>(elements) / best_s / 1e9;
}

std::string VerbOf(const std::string& request) {
  const size_t sp = request.find(' ');
  std::string verb = request.substr(0, sp);
  if (verb == "neighbors") {
    verb += request.find(" citers") != std::string::npos ? "_citers" : "_refs";
  }
  return verb;
}

class Probe {
 public:
  explicit Probe(const RunOptions& opt) : opt_(opt), shape_(ShapeOf(opt.workload)) {}

  RunResult Run();

 private:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  void ProbeOffline(const BenchCorpus& corpus);
  void ProbeStream(const BenchCorpus& corpus);
  void ProbeServe();
  void WriteSummary() const;

  const RunOptions opt_;
  const WorkloadShape shape_;
  Tracer tracer_;
  CheckLog log_;
  std::vector<Metric> metrics_;
  double e2e_ms_ = 0.0;
  std::map<std::string, std::string> notes_;
};

void Probe::ProbeOffline(const BenchCorpus& bench) {
  const std::string corpus_path = WorkPath(opt_, "corpus.txt");
  std::optional<scholar::Result<scholar::Corpus>> read;
  scholar::Result<scholar::ScholarRanker> ranker =
      scholar::ScholarRanker::Create(PaperRankerConfig(opt_.threads));
  const auto* ensemble =
      ranker.ok() ? dynamic_cast<const scholar::EnsembleRanker*>(&ranker->ranker())
                  : nullptr;
  if (ensemble == nullptr) Die("ens_twpr is not an EnsembleRanker");
  std::vector<scholar::EnsembleRanker::SnapshotDetail> details;
  RankResult ranked;
  serve::SnapshotManager manager;
  std::string first_answer;
  double ms = 0.0;

  // The offline path, stage by stage: as offline_rank runs it, except that
  // RankWithDetails stands in for RankCorpus (same context, same work).
  const size_t path = tracer_.Begin("offline_path", "e2e");
  ms = tracer_.Time("ReadAMinerCorpusFile", "data", 0, [&] {
    read.emplace(scholar::ReadAMinerCorpusFile(corpus_path));
  });
  const scholar::Corpus corpus = OrDie(std::move(*read), "corpus read");
  struct stat st{};
  ::stat(corpus_path.c_str(), &st);
  Add("data.corpus_read_ms", ms, "ms");
  Add("data.corpus_read_mb_per_s", static_cast<double>(st.st_size) / (1 << 20) / (ms / 1e3),
      "MiB/s");
  RankContext ctx;
  ctx.graph = &corpus.graph;
  if (corpus.has_authors()) ctx.authors = &corpus.authors;
  if (!corpus.venues.empty()) ctx.venues = &corpus.venues;
  const double rank_ms = tracer_.Time("EnsembleRanker::RankWithDetails", "ensemble", 0, [&] {
    ranked = OrDie(ensemble->RankWithDetails(ctx, &details), "RankWithDetails");
  });
  const scholar::RankingOutput ranking = ToRankingOutput(ranked);
  serve::SnapshotMeta meta;
  meta.snapshot_id = 1;
  meta.ranker_name = ensemble->name();
  meta.corpus_name = corpus.name;
  std::unique_ptr<serve::ScoreSnapshot> snapshot;
  Add("serve.snapshot_build_ms", tracer_.Time("ScoreSnapshot::Build", "serve", 0, [&] {
    snapshot = std::make_unique<serve::ScoreSnapshot>(
        OrDie(serve::ScoreSnapshot::Build(corpus.graph, ranking, meta), "Build"));
  }), "ms");
  const std::string snap_path = WorkPath(opt_, "probe_snapshot.bin");
  Add("serve.snapshot_write_ms", tracer_.Time("ScoreSnapshot::WriteToFile", "serve", 0, [&] {
    if (!snapshot->WriteToFile(snap_path).ok()) Die("snapshot write failed");
  }), "ms");
  ::stat(snap_path.c_str(), &st);
  Add("serve.snapshot_mb", static_cast<double>(st.st_size) / (1 << 20), "MiB");
  Add("serve.snapshot_read_ms", tracer_.Time("ScoreSnapshot::ReadFile", "serve", 0, [&] {
    *snapshot = OrDie(serve::ScoreSnapshot::ReadFile(snap_path), "ReadFile");
  }), "ms");
  Add("serve.install_ms", tracer_.Time("SnapshotManager::Install", "serve", 0, [&] {
    manager.Install(std::move(*snapshot));
  }), "ms");
  serve::QueryEngine engine(&manager);
  Add("serve.first_answer_us", 1e3 * tracer_.Time("QueryEngine::Execute", "serve", 0, [&] {
    first_answer = engine.Execute("top_k 10");
  }), "us");
  const double path_ms = tracer_.End(path);
  if (opt_.workload == "offline_rank") e2e_ms_ = path_ms;

  CheckRankingProperties(ranking.scores, ranking.ranks, "probe.ens_twpr", &log_);
  const AnswerOracle oracle(bench, ranking.scores);
  log_.Expect(first_answer == oracle.Expected("top_k 10"), "probe.first_answer",
              first_answer.substr(0, 120));

  // graph: the time-prefix index over the graph that was read.
  std::unique_ptr<scholar::TemporalCsr> tcsr;
  Add("graph.temporal_csr_ms", tracer_.Time("TemporalCsr", "graph", 0, [&] {
    tcsr = std::make_unique<scholar::TemporalCsr>(corpus.graph);
  }), "ms");

  // rank: the base ranker on each prefix view, warm-started from the
  // previous snapshot as the ensemble does.
  int iterations_total = 0;
  for (const auto& d : details) iterations_total += d.iterations;
  Add("ensemble.rank_ms", rank_ms, "ms");
  Add("rank.iterations_total", iterations_total, "count");
  scholar::TwprWeightCache cache;
  scholar::PowerIterationScratch scratch;
  std::vector<double> prev;
  double solve_ms_total = 0.0, gather_bytes = 0.0;
  const size_t solves = tracer_.Begin("per-snapshot solves", "rank");
  for (size_t i = 0; i < details.size(); ++i) {
    const scholar::SnapshotView view = tcsr->MakeView(details[i].boundary_year);
    const size_t sn = view.num_nodes();
    std::vector<double> initial;
    if (!prev.empty()) {
      double total = 0.0;
      size_t known = 0;
      for (size_t s = 0; s < prev.size(); ++s) {
        if (prev[s] > 0.0) total += prev[s], ++known;
      }
      initial.assign(sn, known ? total / static_cast<double>(known) : 1.0 / sn);
      std::copy(prev.begin(), prev.end(), initial.begin());
    }
    RankContext sub;
    sub.view = &view;
    sub.twpr_cache = &cache;
    sub.scratch = &scratch;
    sub.now_year = details[i].boundary_year;
    if (!initial.empty()) sub.initial_scores = &initial;
    RankResult r;
    const double solve_ms =
        tracer_.Time("twpr snapshot " + std::to_string(i), "rank", i, [&] {
          r = OrDie(ensemble->base().Rank(sub), "twpr on view");
        });
    Add("rank.snapshot_solve_ms." + std::to_string(i), solve_ms, "ms");
    solve_ms_total += solve_ms;
    gather_bytes += r.iterations * (kGatherBytesPerEdge * details[i].num_edges +
                                    kGatherBytesPerNode * sn);
    prev = std::move(r.scores);
  }
  tracer_.End(solves);
  Add("ensemble.combine_ms", rank_ms - solve_ms_total, "ms");
  Add("rank.gather_gbps", gather_bytes / (solve_ms_total / 1e3) / 1e9, "GB/s");
  notes_["rank.gather_gbps"] =
      "computed, not counted: 20 B per in-edge + 48 B per node per sweep, "
      "times sweeps, over the per-snapshot solve time";

  // Parallel efficiency of the whole ensemble: 1 thread against all.
  scholar::Result<scholar::ScholarRanker> serial =
      scholar::ScholarRanker::Create(PaperRankerConfig(1));
  const auto* serial_ensemble =
      dynamic_cast<const scholar::EnsembleRanker*>(&serial->ranker());
  const double serial_ms = tracer_.Time("RankWithDetails threads=1", "ensemble", 0, [&] {
    std::vector<scholar::EnsembleRanker::SnapshotDetail> unused;
    OrDie(serial_ensemble->RankWithDetails(ctx, &unused), "RankWithDetails serial");
  });
  Add("ensemble.rank_1thread_ms", serial_ms, "ms");
  Add("rank.parallel_efficiency", serial_ms / (opt_.threads * rank_ms), "fraction");
}

void Probe::ProbeStream(const BenchCorpus& bench) {
  const CitationGraph base =
      OrDie(scholar::ReadGraphBinaryFile(WorkPath(opt_, "base.graph")), "base graph");
  const std::vector<std::string> batches = LoadBatchBytes(opt_);
  stream::StreamingGraph graph(base);
  stream::IncrementalRanker ranker = OrDie(MakeWarmRanker(opt_.threads), "ranker");
  serve::SnapshotManager manager;
  serve::QueryEngine engine(&manager);
  {
    const CitationGraph& g = graph.graph();
    const RankResult cold = OrDie(ranker.RankCold(g), "bootstrap");
    if (!PublishRanking(g, cold, 0, &manager).ok()) Die("bootstrap publish");
  }
  std::map<std::string, std::vector<double>> stage;
  std::vector<double> epoch_ms;
  // Every batch of stream_replay's own stream, so the traced epochs match the
  // untraced ones; ten of the larger workloads' batches.
  const size_t epochs =
      opt_.workload == "stream_replay" ? batches.size() : std::min<size_t>(batches.size(), 10);
  size_t expected_nodes = base.num_nodes();
  for (size_t e = 0; e < epochs; ++e) {
    const size_t span = tracer_.Begin("epoch", "e2e", e + 1);
    std::optional<scholar::Result<stream::EdgeBatch>> decoded;
    stage["stream.decode_ms"].push_back(tracer_.Time("ReadEdgeBatch", "stream", e + 1, [&] {
      std::istringstream in(batches[e]);
      decoded.emplace(stream::ReadEdgeBatch(&in));
    }));
    stream::EdgeBatch batch = OrDie(std::move(*decoded), "batch decode");
    expected_nodes += batch.num_nodes();
    stage["stream.ingest_ms"].push_back(tracer_.Time("StreamingGraph::Ingest", "stream", e + 1, [&] {
      if (!graph.Ingest(std::move(batch)).ok()) Die("ingest failed");
    }));
    const CitationGraph* g = nullptr;
    stage["stream.graph_refresh_ms"].push_back(
        tracer_.Time("StreamingGraph::graph", "stream", e + 1, [&] { g = &graph.graph(); }));
    RankResult warm;
    stage["stream.warm_rank_ms"].push_back(tracer_.Time("IncrementalRanker::RankWarm", "stream", e + 1, [&] {
      warm = OrDie(ranker.RankWarm(*g), "RankWarm");
    }));
    stage["stream.warm_iterations"].push_back(warm.iterations);
    stage["stream.publish_ms"].push_back(tracer_.Time("publish", "serve", e + 1, [&] {
      if (!PublishRanking(*g, warm, e + 1, &manager).ok()) Die("publish failed");
    }));
    std::string info;
    tracer_.Time("QueryEngine::Execute info", "serve", e + 1, [&] { info = engine.Execute("info"); });
    epoch_ms.push_back(tracer_.End(span));
    log_.Expect(info.find(" nodes=" + std::to_string(expected_nodes) + " ") != std::string::npos,
                "probe.stream_info_nodes", info);
  }
  for (const auto& [name, values] : stage) {
    Add(name, Median(values), name.find("iterations") != std::string::npos ? "count" : "ms");
  }
  {
    stream::IncrementalRanker cold = OrDie(MakeWarmRanker(opt_.threads), "ranker");
    const RankResult reference = OrDie(cold.RankCold(graph.graph()), "RankCold");
    Add("stream.cold_iterations", reference.iterations, "count");
  }
  CheckWarmScores(ranker.previous_scores(), bench, expected_nodes, "probe", &log_);
  Add("stream.epoch_p90_ms", Percentile(epoch_ms, 0.9), "ms");
  if (opt_.workload == "stream_replay") e2e_ms_ = Median(epoch_ms);
}

void Probe::ProbeServe() {
  ServeSetup setup(opt_, &log_);
  serve::QueryEngine engine(setup.manager());
  std::map<std::string, std::vector<double>> ns_by_verb;
  tracer_.Time("QueryEngine::Execute mix", "serve", 0, [&] {
    for (const std::string& request : setup.requests(0)) {
      const Clock::time_point t0 = Clock::now();
      const std::string answer = engine.Execute(request);
      ns_by_verb[VerbOf(request)].push_back(
          std::chrono::duration<double, std::nano>(Clock::now() - t0).count());
      if (answer.rfind("OK", 0) != 0) log_.Expect(false, "probe.execute", answer);
    }
  });
  for (const auto& [verb, ns] : ns_by_verb) {
    Add("serve.execute_ns." + verb, Median(ns), "ns");
  }
  const double lookups = static_cast<double>(engine.cache_hits() + engine.cache_misses());
  Add("serve.cache_hit_ratio", lookups > 0 ? engine.cache_hits() / lookups : 0.0, "fraction");

  ServeReport report;
  tracer_.Time("server session", "serve", 0, [&] {
    report = setup.RunSession(1.5, 2.5, kOpenLoopRate);
  });
  log_.Expect(report.wrong == 0 && report.errors + report.busy + report.dropped == 0,
              "probe.served_answers", std::to_string(report.wrong) + " wrong");
  Add("serve.server_p50_us", report.server_p50_us, "us");
  Add("serve.server_p99_us", report.server_p99_us, "us");
  Add("serve.client_p90_us", 1e3 * report.open_p90_ms, "us");
  Add("serve.client_p99_us", 1e3 * Percentile(report.open_latency_ms, 0.99), "us");
  Add("serve.swap_ms", Median(report.swap_ms), "ms");
  Add("serve.shed", static_cast<double>(report.shed), "count");
  Add("loadgen.lag_p99_ms", Percentile(report.lag_ms, 0.99), "ms");
  notes_["serve.server_p50_us"] =
      "the server's stats verb: its histogram covers both the closed-loop and "
      "the open-loop phase";
  if (opt_.workload == "serve_mixed") e2e_ms_ = Median(report.open_latency_ms);
}

void Probe::WriteSummary() const {
  std::ostringstream out;
  out << "{\n  \"workload\": \"" << opt_.workload << "\",\n  \"threads\": "
      << opt_.threads << ",\n  \"spans\": " << tracer_.num_spans()
      << ",\n  \"self_time_ms_by_layer\": {";
  bool first = true;
  for (const auto& [layer, ms] : tracer_.SelfTimeMsByLayer()) {
    out << (first ? "" : ",") << "\n    \"" << layer << "\": " << ms;
    first = false;
  }
  out << "\n  },\n  \"notes\": {";
  first = true;
  for (const auto& [name, note] : notes_) {
    out << (first ? "" : ",") << "\n    \"" << name << "\": \"" << note << "\"";
    first = false;
  }
  out << "\n  },\n  \"metrics\": " << ResultJson(log_.all_passed(), 1, 0, metrics_)
      << "\n}\n";
  WriteFileOrDie(opt_.trace_dir + "/summary.json", out.str());
}

RunResult Probe::Run() {
  PrepareInputs(opt_, shape_, {.aminer_text = true, .stream = true, .snapshot = true});
  const BenchCorpus bench = LoadCorpus(WorkPath(opt_, "corpus.bin"));

  double array_mib = 0.0;
  double gbps = 0.0;
  tracer_.Time("STREAM triad", "host", 0, [&] { gbps = TriadGbps(opt_.threads, &array_mib); });
  Add("host.mem_bw_gbps", gbps, "GB/s");
  char sizes[160];
  std::snprintf(sizes, sizeof(sizes),
                "STREAM triad, best of 5 passes on %d threads: three arrays of "
                "%.0f MiB each against a last-level cache of %.0f MiB",
                opt_.threads, array_mib,
                static_cast<double>(LastLevelCacheBytes()) / (1 << 20));
  notes_["host.mem_bw_gbps"] = sizes;

  ProbeOffline(bench);
  ProbeStream(bench);
  ProbeServe();
  Add("trace.e2e_ms", e2e_ms_, "ms");
  notes_["trace.e2e_ms"] =
      "this workload's end-to-end operation measured with tracing on: "
      "offline_rank the offline path, stream_replay the median epoch, "
      "serve_mixed the open-loop median; compare with latency_p50_ms of an "
      "untraced run for the tracing overhead";

  tracer_.WriteChromeTrace(opt_.trace_dir + "/trace.json");
  WriteSummary();
  RunResult result;
  result.correct = log_.all_passed();
  result.attempted = 1;
  result.metrics = metrics_;
  return result;
}

}  // namespace

RunResult RunLayerProbe(const RunOptions& opt) { return Probe(opt).Run(); }

}  // namespace perfbench
