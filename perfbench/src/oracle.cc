#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <numeric>

namespace perfbench {

namespace {

/// Reverse adjacency of the first `n` articles: who cites each article.
void BuildCiters(const BenchCorpus& corpus, size_t n,
                 std::vector<uint64_t>* offsets, std::vector<uint32_t>* citers) {
  offsets->assign(n + 1, 0);
  for (size_t u = 0; u < n; ++u) {
    for (uint32_t v : corpus.References(u)) ++(*offsets)[v + 1];
  }
  for (size_t v = 0; v < n; ++v) (*offsets)[v + 1] += (*offsets)[v];
  citers->resize((*offsets)[n]);
  std::vector<uint64_t> cursor(offsets->begin(), offsets->end() - 1);
  for (size_t u = 0; u < n; ++u) {  // ascending u: citer lists come out sorted
    for (uint32_t v : corpus.References(u)) {
      (*citers)[cursor[v]++] = static_cast<uint32_t>(u);
    }
  }
}

}  // namespace

std::vector<double> ReferenceTwpr(const BenchCorpus& corpus, size_t num_nodes,
                                  double sigma, double damping) {
  const size_t n = num_nodes;
  std::vector<uint64_t> in_offsets;
  std::vector<uint32_t> in_src;
  BuildCiters(corpus, n, &in_offsets, &in_src);

  // Transition probability of every in-edge, u -> v: w(u,v) / W(u).
  std::vector<double> inv_total(n, 0.0);
  for (size_t u = 0; u < n; ++u) {
    double total = 0.0;
    for (uint32_t v : corpus.References(u)) {
      total += std::exp(-sigma * std::max(0, corpus.years[u] - corpus.years[v]));
    }
    inv_total[u] = total > 0.0 ? 1.0 / total : 0.0;
  }
  std::vector<double> prob(in_src.size());
  for (size_t v = 0; v < n; ++v) {
    for (uint64_t p = in_offsets[v]; p < in_offsets[v + 1]; ++p) {
      const uint32_t u = in_src[p];
      prob[p] = std::exp(-sigma * std::max(0, corpus.years[u] - corpus.years[v])) *
                inv_total[u];
    }
  }

  std::vector<double> s(n, 1.0 / static_cast<double>(n)), next(n);
  for (int iter = 0; iter < 5000; ++iter) {
    double dangling = 0.0;
    for (size_t u = 0; u < n; ++u) {
      if (inv_total[u] == 0.0) dangling += s[u];
    }
    const double base =
        ((1.0 - damping) + damping * dangling) / static_cast<double>(n);
    double change = 0.0;
    for (size_t v = 0; v < n; ++v) {
      double sum = 0.0;
      for (uint64_t p = in_offsets[v]; p < in_offsets[v + 1]; ++p) {
        sum += prob[p] * s[in_src[p]];
      }
      next[v] = base + damping * sum;
      change += std::abs(next[v] - s[v]);
    }
    s.swap(next);
    if (change < 1e-14) break;
  }
  const double total = std::accumulate(s.begin(), s.end(), 0.0);
  for (double& x : s) x /= total;
  return s;
}

void CheckWarmScores(const std::vector<double>& warm, const BenchCorpus& corpus,
                     size_t num_nodes, const std::string& what, CheckLog* log) {
  const double drift = MaxAbsDiff(warm, ReferenceTwpr(corpus, num_nodes));
  log->Expect(drift <= 1e-8, what + ".warm_scores_match_reference",
              "max abs diff " + Sci(drift));
}

double MaxAbsDiff(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return std::numeric_limits<double>::infinity();
  double worst = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = std::abs(a[i] - b[i]);
    if (!(d <= worst)) worst = d;  // also propagates NaN
  }
  return worst;
}

double PairwiseAccuracy(const std::vector<double>& scores,
                        const std::vector<double>& impact, uint64_t seed) {
  constexpr size_t kPairs = 200000;
  constexpr double kLogMargin = 1.0;
  const size_t n = std::min(scores.size(), impact.size());
  if (n < 2) return 0.0;
  BenchRng rng(seed ^ 0x9a1e5ULL);
  double agree = 0.0;
  size_t pairs = 0;
  while (pairs < kPairs) {
    const size_t i = rng.Bounded(n);
    const size_t j = rng.Bounded(n);
    if (std::abs(std::log(impact[i]) - std::log(impact[j])) < kLogMargin) {
      continue;
    }
    ++pairs;
    const bool truth = impact[i] > impact[j];
    if (scores[i] == scores[j]) {
      agree += 0.5;
    } else if ((scores[i] > scores[j]) == truth) {
      agree += 1.0;
    }
  }
  return agree / static_cast<double>(pairs);
}

void CheckRankingProperties(const std::vector<double>& scores,
                            const std::vector<uint32_t>& ranks,
                            const std::string& what, CheckLog* log) {
  const size_t n = scores.size();
  log->Expect(ranks.size() == n, what + ".every_article_ranked",
              std::to_string(ranks.size()) + " ranks for " +
                  std::to_string(n) + " scores");
  size_t out_of_range = 0;
  for (double s : scores) {
    if (!(s > 0.0 && s <= 1.0)) ++out_of_range;
  }
  log->Expect(out_of_range == 0, what + ".scores_in_unit_interval",
              std::to_string(out_of_range) + " scores outside (0, 1]");
  if (ranks.size() != n) return;
  std::vector<uint32_t> by_rank(n, UINT32_MAX);
  size_t bad = 0;
  for (size_t id = 0; id < n; ++id) {
    if (ranks[id] >= n || by_rank[ranks[id]] != UINT32_MAX) {
      ++bad;
      continue;
    }
    by_rank[ranks[id]] = static_cast<uint32_t>(id);
  }
  log->Expect(bad == 0, what + ".ranks_form_permutation",
              std::to_string(bad) + " duplicate or out-of-range ranks");
  if (bad != 0) return;
  size_t misordered = 0;
  for (size_t r = 1; r < n; ++r) {
    const uint32_t a = by_rank[r - 1], b = by_rank[r];
    if (scores[a] < scores[b] || (scores[a] == scores[b] && a > b)) ++misordered;
  }
  log->Expect(misordered == 0, what + ".ranks_follow_scores",
              std::to_string(misordered) + " adjacent ranks out of order");
}

AnswerOracle::AnswerOracle(const BenchCorpus& corpus, std::vector<double> scores)
    : scores_(std::move(scores)) {
  const size_t n = scores_.size();
  order_.resize(n);
  std::iota(order_.begin(), order_.end(), 0u);
  std::sort(order_.begin(), order_.end(), [&](uint32_t a, uint32_t b) {
    if (scores_[a] != scores_[b]) return scores_[a] > scores_[b];
    return a < b;
  });
  rank_.resize(n);
  for (size_t r = 0; r < n; ++r) rank_[order_[r]] = static_cast<uint32_t>(r);
  ref_offsets_.assign(corpus.ref_offsets.begin(),
                      corpus.ref_offsets.begin() + static_cast<long>(n) + 1);
  refs_.assign(corpus.refs.begin(),
               corpus.refs.begin() + static_cast<long>(ref_offsets_.back()));
  BuildCiters(corpus, n, &citer_offsets_, &citers_);
}

void AnswerOracle::AppendIdScore(uint32_t id, std::string* out) const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), " %u:%.10f", id, scores_[id]);
  *out += buf;
}

std::string AnswerOracle::RankedNeighbors(const uint32_t* begin,
                                          const uint32_t* end, size_t k) const {
  std::vector<uint32_t> ranked(begin, end);
  std::sort(ranked.begin(), ranked.end(),
            [&](uint32_t a, uint32_t b) { return rank_[a] < rank_[b]; });
  ranked.resize(std::min(k, ranked.size()));
  std::string out = "OK";
  for (uint32_t v : ranked) AppendIdScore(v, &out);
  return out;
}

std::string AnswerOracle::Expected(std::string_view request) const {
  // Requests are generated by the benchmark: "<verb> <a> [<b> [<c>]]".
  std::vector<std::string_view> t;
  size_t pos = 0;
  while (pos < request.size()) {
    const size_t sp = request.find(' ', pos);
    const size_t end = sp == std::string_view::npos ? request.size() : sp;
    t.push_back(request.substr(pos, end - pos));
    pos = end + 1;
  }
  if (t.size() < 2) return "";
  auto num = [](std::string_view s) { return std::stoull(std::string(s)); };
  const std::string_view verb = t[0];
  char buf[64];
  if (verb == "top_k") {
    const size_t k = num(t[1]);
    const size_t offset = t.size() > 2 ? num(t[2]) : 0;
    std::string out = "OK";
    for (size_t r = offset; r < std::min(order_.size(), offset + k); ++r) {
      AppendIdScore(order_[r], &out);
    }
    return out;
  }
  const size_t id = num(t[1]);
  if (id >= scores_.size()) return "";
  if (verb == "score") {
    std::snprintf(buf, sizeof(buf), "OK %.10f", scores_[id]);
    return buf;
  }
  if (verb == "rank") return "OK " + std::to_string(rank_[id]);
  if (verb == "percentile") {
    const double n = static_cast<double>(scores_.size());
    std::snprintf(buf, sizeof(buf), "OK %.10f",
                  (n - static_cast<double>(rank_[id])) / n);
    return buf;
  }
  if (verb == "neighbors" && t.size() == 4) {
    const size_t k = num(t[3]);
    if (t[2] == "citers") {
      return RankedNeighbors(citers_.data() + citer_offsets_[id],
                             citers_.data() + citer_offsets_[id + 1], k);
    }
    return RankedNeighbors(refs_.data() + ref_offsets_[id],
                           refs_.data() + ref_offsets_[id + 1], k);
  }
  return "";
}

}  // namespace perfbench
