#include "core/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace nodebench {

std::string Summary::toString(int precision) const {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%.*f ± %.*f", precision, mean,
                precision, stddev);
  return buf;
}

double Summary::ci95() const {
  if (count < 2) {
    return 0.0;
  }
  return 1.96 * stddev / std::sqrt(static_cast<double>(count));
}

void Welford::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double Welford::mean() const {
  NB_EXPECTS(n_ > 0);
  return mean_;
}

double Welford::sampleVariance() const {
  NB_EXPECTS(n_ > 0);
  if (n_ < 2) {
    return 0.0;
  }
  return m2_ / static_cast<double>(n_ - 1);
}

double Welford::populationVariance() const {
  NB_EXPECTS(n_ > 0);
  return m2_ / static_cast<double>(n_);
}

double Welford::stddev() const { return std::sqrt(sampleVariance()); }

double Welford::min() const {
  NB_EXPECTS(n_ > 0);
  return min_;
}

double Welford::max() const {
  NB_EXPECTS(n_ > 0);
  return max_;
}

Summary Welford::summary() const {
  NB_EXPECTS(n_ > 0);
  return Summary{n_, mean(), stddev(), min(), max()};
}

void Welford::merge(const Welford& other) {
  if (other.n_ == 0) {
    return;
  }
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

Summary summarize(std::span<const double> xs) {
  Welford w;
  for (double x : xs) {
    w.add(x);
  }
  NB_EXPECTS(!w.empty());
  return w.summary();
}

double median(std::span<const double> xs) {
  NB_EXPECTS(!xs.empty());
  std::vector<double> v(xs.begin(), xs.end());
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid), v.end());
  if (v.size() % 2 == 1) {
    return v[mid];
  }
  const double hi = v[mid];
  const double lo = *std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (lo + hi);
}

double mad(std::span<const double> xs) {
  NB_EXPECTS(!xs.empty());
  const double m = median(xs);
  std::vector<double> dev(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    dev[i] = std::abs(xs[i] - m);
  }
  return median(dev);
}

std::string RobustSummary::toString(int precision) const {
  char buf[160];
  if (outliers == 0) {
    std::snprintf(buf, sizeof(buf), "%.*f ~ %.*f", precision, median,
                  precision, mad);
  } else {
    std::snprintf(buf, sizeof(buf), "%.*f ~ %.*f (%zu outliers)", precision,
                  median, precision, mad, outliers);
  }
  return buf;
}

RobustSummary robustSummarize(std::span<const double> xs) {
  NB_EXPECTS(!xs.empty());
  RobustSummary r;
  r.count = xs.size();
  r.median = median(xs);
  r.mad = mad(xs);
  // Modified z-score cutoff: 3.5 on the 1.4826*MAD normal-consistent
  // scale. A zero MAD (>= half the samples identical) degenerates to
  // "anything off the median is an outlier".
  const double scale = 3.5 * 1.4826 * r.mad;
  for (const double x : xs) {
    const double dev = std::abs(x - r.median);
    if (dev > scale || (r.mad == 0.0 && dev > 0.0)) {
      ++r.outliers;
    }
  }
  return r;
}

double percentile(std::span<const double> xs, double p) {
  std::vector<double> v(xs.begin(), xs.end());
  std::sort(v.begin(), v.end());
  return percentileSorted(v, p);
}

double percentileSorted(std::span<const double> sorted, double p) {
  NB_EXPECTS(!sorted.empty());
  NB_EXPECTS(p >= 0.0 && p <= 100.0);
  if (sorted.size() == 1) {
    return sorted.front();
  }
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

}  // namespace nodebench
