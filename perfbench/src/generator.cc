#include "generator.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace perfbench {

namespace {

/// Fenwick tree of non-negative weights with prefix search.
class Fenwick {
 public:
  explicit Fenwick(const std::vector<double>& weights)
      : tree_(weights.size() + 1, 0.0) {
    for (size_t i = 0; i < weights.size(); ++i) {
      tree_[i + 1] += weights[i];
      const size_t parent = (i + 1) + ((i + 1) & (~(i + 1) + 1));
      if (parent < tree_.size()) tree_[parent] += tree_[i + 1];
    }
  }
  void Add(size_t i, double delta) {
    for (size_t x = i + 1; x < tree_.size(); x += x & (~x + 1)) {
      tree_[x] += delta;
    }
  }
  /// Sum of weights [0, end).
  double Prefix(size_t end) const {
    double sum = 0.0;
    for (size_t x = end; x > 0; x -= x & (~x + 1)) sum += tree_[x];
    return sum;
  }
  /// Smallest i with Prefix(i + 1) > target.
  size_t Find(double target) const {
    size_t pos = 0;
    size_t step = 1;
    while (step * 2 < tree_.size()) step *= 2;
    for (; step > 0; step /= 2) {
      if (pos + step < tree_.size() && tree_[pos + step] <= target) {
        pos += step;
        target -= tree_[pos];
      }
    }
    return pos;
  }

 private:
  std::vector<double> tree_;
};

template <typename T>
void PutArray(std::string* out, const std::vector<T>& v) {
  const uint64_t n = v.size();
  out->append(reinterpret_cast<const char*>(&n), sizeof(n));
  out->append(reinterpret_cast<const char*>(v.data()), n * sizeof(T));
}

template <typename T>
std::vector<T> GetArray(const std::string& in, size_t* pos) {
  uint64_t n = 0;
  if (*pos + sizeof(n) > in.size()) Die("truncated corpus file");
  std::memcpy(&n, in.data() + *pos, sizeof(n));
  *pos += sizeof(n);
  if (n > (in.size() - *pos) / sizeof(T)) Die("truncated corpus file");
  std::vector<T> v(n);
  std::memcpy(v.data(), in.data() + *pos, n * sizeof(T));
  *pos += n * sizeof(T);
  return v;
}

}  // namespace

BenchCorpus GenerateCorpus(const CorpusShape& shape, uint64_t seed) {
  BenchRng rng(seed);
  const size_t n = shape.articles;
  const int num_years = shape.num_years;

  // Articles per year grow geometrically; rounding leftovers go to the
  // last year.
  std::vector<size_t> year_start(num_years + 1, 0);
  double total_weight = 0.0;
  for (int y = 0; y < num_years; ++y) total_weight += std::pow(shape.growth, y);
  for (int y = 0; y < num_years; ++y) {
    const size_t count = static_cast<size_t>(
        static_cast<double>(n) * std::pow(shape.growth, y) / total_weight);
    year_start[y + 1] = y + 1 == num_years ? n : year_start[y] + count;
  }

  BenchCorpus corpus;
  corpus.years.resize(n);
  corpus.impact.resize(n);
  for (int y = 0; y < num_years; ++y) {
    for (size_t i = year_start[y]; i < year_start[y + 1]; ++i) {
      corpus.years[i] = shape.first_year + y;
    }
  }
  for (size_t i = 0; i < n; ++i) {
    corpus.impact[i] = std::exp(shape.impact_sigma * rng.Normal());
  }

  // Attachment weight of article j: impact(j) * (citations(j) + 1).
  Fenwick tree(corpus.impact);
  std::vector<double> year_weight(num_years, 0.0);
  for (int y = 0; y < num_years; ++y) {
    for (size_t i = year_start[y]; i < year_start[y + 1]; ++i) {
      year_weight[y] += corpus.impact[i];
    }
  }

  corpus.refs.reserve(n * static_cast<size_t>(shape.max_refs + shape.min_refs) / 2);
  corpus.ref_offsets.reserve(n + 1);
  std::vector<double> cumulative(num_years);
  std::vector<uint32_t> chosen;
  for (int y = 0; y < num_years; ++y) {
    for (size_t i = year_start[y]; i < year_start[y + 1]; ++i) {
      chosen.clear();
      if (y > 0) {
        double acc = 0.0;
        for (int py = 0; py < y; ++py) {
          acc += year_weight[py] *
                 std::exp(-static_cast<double>(y - py - 1) / shape.ageing_years);
          cumulative[py] = acc;
        }
        const size_t older = year_start[y];
        const size_t want = std::min<size_t>(
            shape.min_refs +
                rng.Bounded(static_cast<uint64_t>(shape.max_refs - shape.min_refs + 1)),
            older / 2);
        for (size_t attempt = 0; chosen.size() < want && attempt < want * 8;
             ++attempt) {
          const double u = rng.NextDouble() * acc;
          const int py = static_cast<int>(
              std::upper_bound(cumulative.begin(), cumulative.begin() + y, u) -
              cumulative.begin());
          const int ty = std::min(py, y - 1);
          const double lo = tree.Prefix(year_start[ty]);
          const double hi = tree.Prefix(year_start[ty + 1]);
          size_t j = tree.Find(lo + rng.NextDouble() * (hi - lo));
          j = std::clamp(j, year_start[ty], year_start[ty + 1] - 1);
          if (std::find(chosen.begin(), chosen.end(), j) == chosen.end()) {
            chosen.push_back(static_cast<uint32_t>(j));
          }
        }
        for (uint32_t j : chosen) {
          tree.Add(j, corpus.impact[j]);
          const int jy = corpus.years[j] - shape.first_year;
          year_weight[jy] += corpus.impact[j];
        }
        std::sort(chosen.begin(), chosen.end());
      }
      corpus.refs.insert(corpus.refs.end(), chosen.begin(), chosen.end());
      corpus.ref_offsets.push_back(corpus.refs.size());
    }
  }
  return corpus;
}

void WriteAMinerText(const BenchCorpus& corpus, const CorpusShape& shape,
                     uint64_t seed, const std::string& path) {
  BenchRng rng(seed ^ 0x41a11e5ULL);
  const ZipfSampler venues(static_cast<size_t>(shape.num_venues), 1.0);
  const uint64_t num_authors = std::max<uint64_t>(1, corpus.num_articles() / 2);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) Die("cannot write " + path);
  std::string record;
  for (size_t i = 0; i < corpus.num_articles(); ++i) {
    record.clear();
    record += "#* Synthetic article " + std::to_string(i) + "\n#@ ";
    const uint64_t authors = 1 + rng.Bounded(3);
    for (uint64_t a = 0; a < authors; ++a) {
      if (a > 0) record += ';';
      record += "Author " + std::to_string(rng.Bounded(num_authors));
    }
    record += "\n#t " + std::to_string(corpus.years[i]);
    record += "\n#c Venue " + std::to_string(venues.Sample(&rng));
    record += "\n#index " + std::to_string(i) + "\n";
    for (uint32_t r : corpus.References(i)) {
      record += "#% " + std::to_string(r) + "\n";
    }
    record += '\n';
    if (std::fwrite(record.data(), 1, record.size(), f) != record.size()) {
      Die("short write to " + path);
    }
  }
  if (std::fclose(f) != 0) Die("cannot close " + path);
}

void SaveCorpus(const BenchCorpus& corpus, const std::string& path) {
  std::string out = "PBC1";
  PutArray(&out, corpus.years);
  PutArray(&out, corpus.ref_offsets);
  PutArray(&out, corpus.refs);
  PutArray(&out, corpus.impact);
  WriteFileOrDie(path, out);
}

BenchCorpus LoadCorpus(const std::string& path) {
  const std::string in = ReadFileOrDie(path);
  if (in.compare(0, 4, "PBC1") != 0) Die("not a corpus file: " + path);
  size_t pos = 4;
  BenchCorpus corpus;
  corpus.years = GetArray<int32_t>(in, &pos);
  corpus.ref_offsets = GetArray<uint64_t>(in, &pos);
  corpus.refs = GetArray<uint32_t>(in, &pos);
  corpus.impact = GetArray<double>(in, &pos);
  if (corpus.ref_offsets.size() != corpus.years.size() + 1 ||
      corpus.ref_offsets.back() != corpus.refs.size() ||
      corpus.impact.size() != corpus.years.size()) {
    Die("inconsistent corpus file: " + path);
  }
  return corpus;
}

ZipfSampler::ZipfSampler(size_t n, double s) : s_(s), cdf_(n) {
  for (size_t k = 0; k < n; ++k) {
    total_ += Weight(k);
    cdf_[k] = total_;
  }
}

double ZipfSampler::Weight(size_t k) const {
  return std::pow(static_cast<double>(k + 1), -s_);
}

uint32_t ZipfSampler::Sample(BenchRng* rng) const {
  const double u = rng->NextDouble() * total_;
  const size_t k = static_cast<size_t>(
      std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  return static_cast<uint32_t>(std::min(k, cdf_.size() - 1));
}

}  // namespace perfbench
