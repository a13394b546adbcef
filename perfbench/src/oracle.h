// Computations the benchmark makes apart from the program, against which
// the program's outputs are checked: a TWPR power iteration written from
// its formula, ranking quality against the latent impact, the expected
// answer to every serving request, and properties every ranking must have.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common.h"
#include "generator.h"

namespace perfbench {

/// Time-Weighted PageRank of the first `num_nodes` articles of `corpus`:
///   s(v) = (1-d)/n + d * dangling/n + d * sum_{u->v} s(u) w(u,v) / W(u),
///   w(u,v) = exp(-sigma * max(0, t(u) - t(v))), W(u) = sum_v w(u,v),
/// with a uniform jump and dangling mass spread uniformly, iterated from the
/// uniform vector until the L1 change is below 1e-14. Sums to 1.
std::vector<double> ReferenceTwpr(const BenchCorpus& corpus, size_t num_nodes,
                                  double sigma = 0.4, double damping = 0.85);

/// Checks warm `mode=full` scores of the first `num_nodes` articles against
/// ReferenceTwpr within that mode's documented bound (1e-8 absolute).
void CheckWarmScores(const std::vector<double>& warm, const BenchCorpus& corpus,
                     size_t num_nodes, const std::string& what, CheckLog* log);

/// Largest |a[i] - b[i]|; infinity when the sizes differ.
double MaxAbsDiff(const std::vector<double>& a, const std::vector<double>& b);

/// Share of sampled article pairs whose latent impacts differ by at least a
/// factor e that `scores` orders the way the impact does (a tie counts
/// half). The pairs are drawn from `seed`, the same pairs for every ranking
/// of the same corpus.
double PairwiseAccuracy(const std::vector<double>& scores,
                        const std::vector<double>& impact, uint64_t seed);

/// Checks the properties every final ranking must have: one score per
/// article, each in (0, 1], and ranks that form a permutation consistent
/// with the scores.
void CheckRankingProperties(const std::vector<double>& scores,
                            const std::vector<uint32_t>& ranks,
                            const std::string& what, CheckLog* log);

/// Expected serving answers, rendered exactly as the line protocol does,
/// from the benchmark's own sort of a ranking's scores (score descending,
/// id ascending) and the benchmark's own adjacency of the corpus.
class AnswerOracle {
 public:
  AnswerOracle(const BenchCorpus& corpus, std::vector<double> scores);

  /// The expected response to `request`; empty for verbs it does not model.
  std::string Expected(std::string_view request) const;

  size_t num_nodes() const { return scores_.size(); }

 private:
  void AppendIdScore(uint32_t id, std::string* out) const;
  std::string RankedNeighbors(const uint32_t* begin, const uint32_t* end,
                              size_t k) const;

  std::vector<double> scores_;
  std::vector<uint32_t> order_;  // ids, best first
  std::vector<uint32_t> rank_;   // inverse of order_
  std::vector<uint64_t> ref_offsets_;
  std::vector<uint32_t> refs_;
  std::vector<uint64_t> citer_offsets_;
  std::vector<uint32_t> citers_;
};

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
