#pragma once
/// \file stats.hpp
/// \brief Streaming statistics used to aggregate the paper's "mean and
/// standard deviation over 100 binary runs".

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "core/error.hpp"

namespace nodebench {

/// Summary statistics of a sample.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;  ///< Sample standard deviation (n-1 denominator); 0 for n < 2.
  double min = 0.0;
  double max = 0.0;

  /// Coefficient of variation (stddev / mean); 0 when mean == 0.
  [[nodiscard]] double cv() const { return mean != 0.0 ? stddev / mean : 0.0; }

  /// Half-width of the ~95% normal-approximation confidence interval of
  /// the mean: 1.96 * stddev / sqrt(count). 0 for count < 2.
  [[nodiscard]] double ci95() const;

  /// Renders "12.36 ± 0.16" with `precision` digits after the point,
  /// matching the formatting of Tables 4-6 in the paper.
  [[nodiscard]] std::string toString(int precision = 2) const;
};

/// Numerically stable streaming accumulator (Welford's algorithm).
///
/// Used instead of the naive sum-of-squares formula because bandwidth
/// samples span nine orders of magnitude across the experiment set.
class Welford {
 public:
  void add(double x);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] bool empty() const { return n_ == 0; }

  /// Precondition for all of the below: !empty().
  [[nodiscard]] double mean() const;
  [[nodiscard]] double sampleVariance() const;  ///< n-1 denominator; 0 for n < 2.
  [[nodiscard]] double populationVariance() const;  ///< n denominator.
  [[nodiscard]] double stddev() const;  ///< sqrt(sampleVariance()).
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;

  [[nodiscard]] Summary summary() const;

  /// Merges another accumulator into this one (Chan et al. parallel merge);
  /// enables per-thread accumulation followed by reduction.
  void merge(const Welford& other);

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// One-shot summary of a sample vector.
[[nodiscard]] Summary summarize(std::span<const double> xs);

/// Median of a sample (copied and partially sorted internally).
/// Precondition: !xs.empty().
[[nodiscard]] double median(std::span<const double> xs);

/// Percentile in [0, 100] via linear interpolation between order statistics.
/// Precondition: !xs.empty(), 0 <= p <= 100.
[[nodiscard]] double percentile(std::span<const double> xs, double p);

/// percentile() of a sample already sorted ascending, without the copy and
/// sort — for callers reading several percentiles of one sample.
/// Precondition: !sorted.empty(), 0 <= p <= 100.
[[nodiscard]] double percentileSorted(std::span<const double> sorted,
                                      double p);

/// Median absolute deviation: median(|x - median(xs)|). A robust spread
/// estimator that, unlike stddev, is not dragged by fault-injected
/// outlier runs. Returns 0 for a single sample.
/// Precondition: !xs.empty().
[[nodiscard]] double mad(std::span<const double> xs);

/// Robust counterpart of Summary for fault-tolerant reporting: location
/// and spread that survive contaminated samples, plus an explicit count
/// of samples flagged as outliers.
struct RobustSummary {
  std::size_t count = 0;
  double median = 0.0;
  double mad = 0.0;
  std::size_t outliers = 0;  ///< Samples with |x - median| > 3.5 * scaled MAD.

  /// Renders "12.36 ~ 0.16 (2 outliers)"; the outlier note is omitted
  /// when no sample was flagged.
  [[nodiscard]] std::string toString(int precision = 2) const;
};

/// One-shot robust summary. Outliers use the modified z-score rule
/// (Iglewicz & Hoaglin): |x - median| > 3.5 * 1.4826 * MAD; when MAD is 0
/// every sample different from the median counts as an outlier.
/// Precondition: !xs.empty().
[[nodiscard]] RobustSummary robustSummarize(std::span<const double> xs);

}  // namespace nodebench
