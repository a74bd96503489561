#pragma once
/// \file rng.hpp
/// \brief Deterministic random number generation and measurement-noise
/// models.
///
/// We implement xoshiro256++ (plus a SplitMix64 seeder) rather than using
/// `std::mt19937` + `std::normal_distribution` because the standard
/// distributions are not bit-reproducible across standard library
/// implementations, and golden-value tests require identical streams
/// everywhere.

#include <array>
#include <cstdint>

#include "core/error.hpp"
#include "core/units.hpp"

namespace nodebench {

/// SplitMix64: used to expand a single seed into xoshiro state.
class SplitMix64 {
 public:
  constexpr explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256++ by Blackman & Vigna: fast, high-quality, tiny state.
class Xoshiro256 {
 public:
  explicit Xoshiro256(std::uint64_t seed);

  /// Uniform 64-bit value.
  std::uint64_t next();

  /// Uniform double in [0, 1).
  double uniform01();

  /// Uniform double in [lo, hi). Precondition: lo < hi.
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Precondition: n > 0.
  std::uint64_t uniformInt(std::uint64_t n);

  /// The rejection limit of uniformInt(n): the largest multiple of n
  /// representable in 64 bits. A loop drawing many integers below one n
  /// can compute it once and reproduce uniformInt's stream with
  /// `x = next(); while (x >= limit) x = next(); x % n`.
  [[nodiscard]] static constexpr std::uint64_t uniformIntLimit(
      std::uint64_t n) {
    return ~std::uint64_t{0} - (~std::uint64_t{0} % n);
  }

  /// Standard normal deviate (Box-Muller on our own uniform stream).
  double normal();

  /// Normal deviate with the given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Derives an independent child stream (for per-rank / per-device RNGs).
  [[nodiscard]] Xoshiro256 split();

 private:
  std::array<std::uint64_t, 4> s_{};
  bool haveCachedNormal_ = false;
  double cachedNormal_ = 0.0;
};

/// Multiplicative measurement-noise model.
///
/// Real microbenchmark repetitions jitter around a machine-determined mean;
/// the paper reports that jitter as the "±" column of every table. We model
/// a measured quantity as `truth * factor` where `factor ~ N(1, cv)`
/// truncated to `[max(0.01, 1-4cv), 1+4cv]` — truncation keeps simulated
/// latencies positive and excludes pathological tails that 100-run samples
/// of a well-behaved benchmark do not exhibit.
class NoiseModel {
 public:
  /// `cv` is the coefficient of variation (sigma/mean). A cv of 0 produces
  /// noiseless measurements. Precondition: cv >= 0 and cv < 0.5.
  constexpr explicit NoiseModel(double cv) : cv_(cv) {
    NB_EXPECTS(cv >= 0.0 && cv < 0.5);
  }

  [[nodiscard]] constexpr double cv() const { return cv_; }

  /// Samples a multiplicative noise factor.
  [[nodiscard]] double sampleFactor(Xoshiro256& rng) const;

  /// Applies noise to a duration.
  [[nodiscard]] Duration apply(Duration truth, Xoshiro256& rng) const;

  /// Applies noise to a bandwidth.
  [[nodiscard]] Bandwidth apply(Bandwidth truth, Xoshiro256& rng) const;

  /// Convenience: a noiseless model.
  [[nodiscard]] static constexpr NoiseModel none() { return NoiseModel(0.0); }

 private:
  double cv_;
};

}  // namespace nodebench
