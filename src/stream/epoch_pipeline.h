#ifndef SCHOLARRANK_STREAM_EPOCH_PIPELINE_H_
#define SCHOLARRANK_STREAM_EPOCH_PIPELINE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "graph/citation_graph.h"
#include "rank/ranker.h"
#include "stream/edge_batch.h"
#include "stream/incremental_ranker.h"
#include "stream/streaming_graph.h"
#include "util/status.h"

namespace scholar {
namespace stream {

/// One epoch's accounting, handed to the publisher and kept in history().
struct EpochStats {
  uint64_t epoch = 0;            // 0 = bootstrap (cold rank of the base)
  uint64_t graph_version = 0;    // StreamingGraph::version() after apply
  size_t batches_applied = 0;    // 0 = the arriving batch was staged
  size_t nodes_added = 0;
  size_t edges_added = 0;
  size_t num_nodes = 0;          // graph size after the epoch
  size_t num_edges = 0;
  int iterations = 0;            // solver rounds this epoch (warm)
  bool converged = true;
  double apply_ms = 0.0;         // Ingest + frozen-CSR rebuild
  double rank_ms = 0.0;
  double publish_ms = 0.0;
};

/// Receives each epoch's freshly ranked graph. The CLI wires this to
/// ScoreSnapshot::Build + SnapshotManager::Install (serve lives *above*
/// stream in the module DAG, so the pipeline cannot name it — publication
/// is injected); tests capture the arguments instead. Both references are
/// only valid for the duration of the call.
using EpochPublisher = std::function<Status(
    const CitationGraph& graph, const RankResult& result,
    const EpochStats& stats)>;

/// The streaming epoch loop: apply a batch, re-rank warm, republish.
///
///   batch -> StreamingGraph::Ingest      (validate, suffix-append, stage)
///         -> IncrementalRanker::RankWarm (seed = previous scores)
///         -> publisher                   (snapshot build + hot swap)
///
/// A staged (out-of-order) batch produces an epoch with batches_applied=0
/// and no rank/publish — served scores simply stay at the previous epoch
/// until the gap fills, at which point one epoch applies the whole run.
class EpochPipeline {
 public:
  /// All pointers are borrowed and must outlive the pipeline.
  EpochPipeline(StreamingGraph* graph, IncrementalRanker* ranker,
                EpochPublisher publisher);

  /// Cold-ranks and publishes the base graph (epoch 0). Call once before
  /// streaming so queries never observe an unranked corpus.
  Status Bootstrap();

  /// Runs one epoch for an arriving batch. Returns the epoch's stats; on
  /// error the pipeline keeps serving the last published epoch.
  Result<EpochStats> Step(EdgeBatch batch);

  const std::vector<EpochStats>& history() const { return history_; }

  /// Sum of warm iterations across all ranked epochs (the number a cold
  /// re-rank per epoch would have to beat).
  int total_iterations() const;

 private:
  /// Nodes whose adjacency the suffix [old_n, old_e) -> [new_n, new_e)
  /// touched: the new articles and everything they cite.
  std::vector<NodeId> DirtyNodes(const CitationGraph& graph, size_t old_n,
                                 size_t old_e) const;

  StreamingGraph* const graph_;       // not owned
  IncrementalRanker* const ranker_;   // not owned
  EpochPublisher publisher_;
  uint64_t next_epoch_ = 0;
  std::vector<EpochStats> history_;
};

}  // namespace stream
}  // namespace scholar

#endif  // SCHOLARRANK_STREAM_EPOCH_PIPELINE_H_
