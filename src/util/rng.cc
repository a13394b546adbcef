#include "util/rng.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace scholar {
namespace {

constexpr double kTwoPi = 6.283185307179586476925286766559;

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) s = SplitMix64(&sm);
}

uint64_t Rng::Next() {
  // xoshiro256++ by Blackman & Vigna (public domain reference code).
  const uint64_t result = Rotl(state_[0] + state_[3], 23) + state_[0];
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

uint64_t Rng::NextBounded(uint64_t bound) {
  SCHOLAR_CHECK_GT(bound, 0u);
  // Lemire's multiply-shift with rejection for exact uniformity.
  uint64_t x = Next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  uint64_t low = static_cast<uint64_t>(m);
  if (low < bound) {
    uint64_t threshold = -bound % bound;
    while (low < threshold) {
      x = Next();
      m = static_cast<__uint128_t>(x) * bound;
      low = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

double Rng::NextDouble() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::NextDouble(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

int64_t Rng::NextInt(int64_t lo, int64_t hi) {
  SCHOLAR_CHECK_LE(lo, hi);
  uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(NextBounded(span));
}

bool Rng::NextBernoulli(double p) { return NextDouble() < p; }

double Rng::NextGaussian() {
  // Box-Muller; u1 guarded away from 0.
  double u1 = NextDouble();
  if (u1 < 1e-300) u1 = 1e-300;
  double u2 = NextDouble();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(kTwoPi * u2);
}

double Rng::NextExponential(double lambda) {
  SCHOLAR_CHECK_GT(lambda, 0.0);
  double u = NextDouble();
  if (u >= 1.0) u = std::nextafter(1.0, 0.0);
  return -std::log1p(-u) / lambda;
}

double Rng::NextLogNormal(double mu, double sigma) {
  return std::exp(mu + sigma * NextGaussian());
}

double Rng::NextPareto(double x_min, double alpha) {
  SCHOLAR_CHECK_GT(x_min, 0.0);
  SCHOLAR_CHECK_GT(alpha, 0.0);
  double u = NextDouble();
  if (u >= 1.0) u = std::nextafter(1.0, 0.0);
  return x_min / std::pow(1.0 - u, 1.0 / alpha);
}

uint64_t Rng::NextZipf(uint64_t n, double s) {
  SCHOLAR_CHECK_GT(n, 0u);
  SCHOLAR_CHECK_GE(s, 0.0);
  if (n == 1) return 0;
  if (s == 0.0) return NextBounded(n);
  // Rejection-inversion (Hormann & Derflinger). Ranks are 1..n internally.
  const double q = s;
  auto h = [q](double x) {
    if (std::abs(q - 1.0) < 1e-12) return std::log(x);
    return (std::pow(x, 1.0 - q) - 1.0) / (1.0 - q);
  };
  auto h_inv = [q](double y) {
    if (std::abs(q - 1.0) < 1e-12) return std::exp(y);
    return std::pow(1.0 + y * (1.0 - q), 1.0 / (1.0 - q));
  };
  const double hx0 = h(0.5) - 1.0;
  const double hn = h(static_cast<double>(n) + 0.5);
  while (true) {
    const double u = hx0 + NextDouble() * (hn - hx0);
    const double x = h_inv(u);
    const double k = std::floor(x + 0.5);
    // Written to reject a NaN k too (h_inv of a small-s draw near hx0).
    if (!(k >= 1.0 && k <= static_cast<double>(n))) continue;
    // Accept only the top k^-q of k's hat interval, so P(k) ∝ k^-q.
    if (u < h(k + 0.5) - std::pow(k, -q)) continue;
    return static_cast<uint64_t>(k) - 1;
  }
}

size_t Rng::NextDiscrete(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) total += w;
  if (total <= 0.0) return weights.size();
  double target = NextDouble() * total;
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (target < acc) return i;
  }
  return weights.size() - 1;
}

Rng Rng::Fork(uint64_t label) {
  uint64_t seed = Next() ^ (label * 0x9e3779b97f4a7c15ULL);
  return Rng(seed);
}

DiscreteSampler::DiscreteSampler(const std::vector<double>& weights) {
  SCHOLAR_CHECK(!weights.empty());
  cumulative_.reserve(weights.size());
  double acc = 0.0;
  for (double w : weights) {
    SCHOLAR_CHECK_GE(w, 0.0);
    acc += w;
    cumulative_.push_back(acc);
  }
  SCHOLAR_CHECK_GT(acc, 0.0) << "total weight must be positive";
}

size_t DiscreteSampler::Sample(Rng* rng) const {
  double target = rng->NextDouble() * cumulative_.back();
  auto it = std::upper_bound(cumulative_.begin(), cumulative_.end(), target);
  if (it == cumulative_.end()) --it;
  return static_cast<size_t>(it - cumulative_.begin());
}

}  // namespace scholar
