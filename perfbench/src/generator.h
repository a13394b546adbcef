// Seeded input generation: a citation corpus grown by preferential
// attachment with ageing, driven by a latent per-article impact that is the
// ground truth of the accuracy metric; its AMiner V8 text rendering; and the
// Zipf id sampler of the serving workload.
#ifndef PERFBENCH_GENERATOR_H_
#define PERFBENCH_GENERATOR_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

/// Shape of a generated corpus.
struct CorpusShape {
  size_t articles = 200000;
  int first_year = 1990;
  int num_years = 30;
  /// Articles per year grow by this factor each year.
  double growth = 1.06;
  /// Reference-list length, uniform in [min_refs, max_refs] (capped by the
  /// number of older articles). Articles of the first year cite nothing.
  int min_refs = 4;
  int max_refs = 20;
  /// Latent impact is lognormal(0, impact_sigma).
  double impact_sigma = 1.0;
  /// A reference `a` years back is drawn with weight exp(-(a - 1) / ageing).
  double ageing_years = 4.0;
  /// Venue names drawn Zipf(1) over this many venues (text format only).
  int num_venues = 200;
};

/// The benchmark's own copy of a generated corpus. Articles are numbered in
/// publication order (years non-decreasing) and every reference points to
/// an article of a strictly earlier year, so every id prefix is a valid
/// time-prefix corpus and every suffix is a valid stream of batches.
struct BenchCorpus {
  std::vector<int32_t> years;
  std::vector<uint64_t> ref_offsets{0};  // CSR over references
  std::vector<uint32_t> refs;            // ascending within each article
  std::vector<double> impact;            // latent impact (ground truth)

  size_t num_articles() const { return years.size(); }
  std::span<const uint32_t> References(size_t u) const {
    return {refs.data() + ref_offsets[u], ref_offsets[u + 1] - ref_offsets[u]};
  }
};

BenchCorpus GenerateCorpus(const CorpusShape& shape, uint64_t seed);

/// Writes `corpus` in the AMiner V8 text format (title, authors, year,
/// venue, #index = article id, one #% line per reference). Titles, authors
/// and venues are drawn from `seed`; they do not affect the graph.
void WriteAMinerText(const BenchCorpus& corpus, const CorpusShape& shape,
                     uint64_t seed, const std::string& path);

/// Binary round trip of BenchCorpus (the benchmark's own format).
void SaveCorpus(const BenchCorpus& corpus, const std::string& path);
BenchCorpus LoadCorpus(const std::string& path);

/// Zipf(s) over ids 0..n-1, P(k) ∝ (k+1)^-s, by inverse CDF over a
/// precomputed table (one binary search per draw).
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s);
  uint32_t Sample(BenchRng* rng) const;
  double Pmf(size_t k) const { return Weight(k) / total_; }

 private:
  double Weight(size_t k) const;
  double s_;
  double total_ = 0.0;
  std::vector<double> cdf_;
};

}  // namespace perfbench

#endif  // PERFBENCH_GENERATOR_H_
