#include "core/rng.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace nodebench {

namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Xoshiro256::Xoshiro256(std::uint64_t seed) {
  SplitMix64 seeder(seed);
  for (auto& word : s_) {
    word = seeder.next();
  }
}

std::uint64_t Xoshiro256::next() {
  const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Xoshiro256::uniform01() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Xoshiro256::uniform(double lo, double hi) {
  NB_EXPECTS(lo < hi);
  return lo + (hi - lo) * uniform01();
}

std::uint64_t Xoshiro256::uniformInt(std::uint64_t n) {
  NB_EXPECTS(n > 0);
  // Rejection sampling to remove modulo bias.
  const std::uint64_t limit = uniformIntLimit(n);
  std::uint64_t x = next();
  while (x >= limit) {
    x = next();
  }
  return x % n;
}

double Xoshiro256::normal() {
  if (haveCachedNormal_) {
    haveCachedNormal_ = false;
    return cachedNormal_;
  }
  // Box-Muller transform; u1 nudged away from 0 so log() stays finite.
  double u1 = uniform01();
  if (u1 < 1e-300) {
    u1 = 1e-300;
  }
  const double u2 = uniform01();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * std::numbers::pi * u2;
  cachedNormal_ = radius * std::sin(angle);
  haveCachedNormal_ = true;
  return radius * std::cos(angle);
}

double Xoshiro256::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

Xoshiro256 Xoshiro256::split() { return Xoshiro256(next()); }

double NoiseModel::sampleFactor(Xoshiro256& rng) const {
  if (cv_ == 0.0) {
    return 1.0;
  }
  const double lo = std::max(0.01, 1.0 - 4.0 * cv_);
  const double hi = 1.0 + 4.0 * cv_;
  double f = rng.normal(1.0, cv_);
  // Truncated normal by resampling; the acceptance region covers ±4 sigma
  // so rejection is vanishingly rare and cannot loop for long.
  while (f < lo || f > hi) {
    f = rng.normal(1.0, cv_);
  }
  return f;
}

Duration NoiseModel::apply(Duration truth, Xoshiro256& rng) const {
  return truth * sampleFactor(rng);
}

Bandwidth NoiseModel::apply(Bandwidth truth, Xoshiro256& rng) const {
  return truth * sampleFactor(rng);
}

}  // namespace nodebench
