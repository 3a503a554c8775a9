// Deterministic random number generation.
//
// Every stochastic component (topology generation, trace synthesis, the
// iPlane model) takes an explicit Rng so whole experiments are reproducible
// from a single seed — required because the paper's inputs are proprietary
// and our substitutes must at least be stable across runs.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <random>
#include <vector>

namespace softmow {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 42) : engine_(seed) {}

  /// Uniform integer in [lo, hi] inclusive.
  std::uint64_t uniform_u64(std::uint64_t lo, std::uint64_t hi) {
    assert(lo <= hi);
    return std::uniform_int_distribution<std::uint64_t>(lo, hi)(engine_);
  }
  int uniform_int(int lo, int hi) {
    assert(lo <= hi);
    return std::uniform_int_distribution<int>(lo, hi)(engine_);
  }
  double uniform(double lo = 0.0, double hi = 1.0) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }
  bool bernoulli(double p) { return std::bernoulli_distribution(p)(engine_); }
  double exponential(double rate) {
    return std::exponential_distribution<double>(rate)(engine_);
  }
  double normal(double mean, double stddev) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }
  std::uint64_t poisson(double mean) {
    return static_cast<std::uint64_t>(std::poisson_distribution<long>(mean)(engine_));
  }

  /// Uniformly chosen element.
  template <class T>
  const T& choice(const std::vector<T>& v) {
    assert(!v.empty());
    return v[uniform_u64(0, v.size() - 1)];
  }

  /// Index drawn proportional to non-negative weights (at least one > 0).
  std::size_t weighted_index(const std::vector<double>& weights) {
    assert(!weights.empty());
    return std::discrete_distribution<std::size_t>(weights.begin(), weights.end())(engine_);
  }

  template <class T>
  void shuffle(std::vector<T>& v) {
    std::shuffle(v.begin(), v.end(), engine_);
  }

  /// Derives an independent child stream (split-by-salt).
  Rng fork(std::uint64_t salt) {
    return Rng(engine_() ^ (salt * 0x9e3779b97f4a7c15ull));
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace softmow
