#pragma once
/// \file analysis.hpp
/// \brief Statistical engine over raw per-repetition samples.
///
/// The paper reports mean ± sigma over 100 binary runs; Hunold &
/// Carpen-Amarie ("MPI Benchmarking Revisited") show that for exactly
/// these latency/bandwidth microbenchmarks that pair of numbers is not
/// enough to decide whether two runs differ: the distributions are
/// skewed, occasionally multi-modal, and a mean shift smaller than sigma
/// can still be systematic. This engine supplies what a defensible
/// regression verdict needs, computed from the full sample vectors the
/// results store persists:
///
///  - a percentile **bootstrap confidence interval of the mean** —
///    deterministic: the resampling RNG is seeded from a fingerprint of
///    the sample data itself, so any `--jobs` value (and any call order)
///    produces bit-identical intervals;
///  - **Welch's t-test** (unequal variances) for a mean shift, with the
///    Student-t CDF evaluated via the regularized incomplete beta
///    function (no external math library);
///  - the **Mann-Whitney U test** (tie-corrected normal approximation,
///    continuity-corrected) as a distribution-free second opinion that
///    is robust to the outlier runs fault injection produces;
///  - **effect sizes**: Cohen's d (standardized mean difference) and
///    Cliff's delta (ordinal dominance), because with 100 repetitions
///    even irrelevant differences become "significant" — the compare
///    layer gates on magnitude as well as p-values.
///
/// Everything here is a pure function of its inputs: no global state,
/// no wall-clock, no entropy. That is what makes `nodebench compare`
/// output byte-identical at any worker count.

#include <cstdint>
#include <span>

namespace nodebench::stats {

/// FNV-1a fingerprint of a sample vector (length + IEEE-754 bit
/// patterns, in order). Used to derive the bootstrap seed from the data
/// itself, which keeps resampling deterministic and independent of how
/// the caller schedules work.
[[nodiscard]] std::uint64_t sampleFingerprint(std::span<const double> xs);

/// Standard normal CDF.
[[nodiscard]] double normalCdf(double z);

/// Student-t CDF with `df` degrees of freedom (df > 0), via the
/// regularized incomplete beta function (Lentz's continued fraction).
[[nodiscard]] double studentTCdf(double t, double df);

/// Percentile bootstrap confidence interval of the mean.
struct BootstrapCi {
  double lo = 0.0;
  double hi = 0.0;
  double level = 0.95;  ///< Two-sided coverage.
  int resamples = 0;
};

/// Deterministic percentile bootstrap: `resamples` means of
/// with-replacement resamples of `xs`, interval at the (1±level)/2
/// percentiles. The RNG seed is `sampleFingerprint(xs)` — two calls on
/// the same data give bit-identical intervals, on any thread.
/// Preconditions: !xs.empty(), 0 < level < 1, resamples > 0.
[[nodiscard]] BootstrapCi bootstrapMeanCi(std::span<const double> xs,
                                          double level = 0.95,
                                          int resamples = 2000);

/// Welch's unequal-variance t-test (two-sided).
struct WelchResult {
  double t = 0.0;   ///< Signed: positive when mean(b) > mean(a).
  double df = 0.0;  ///< Welch-Satterthwaite degrees of freedom.
  double p = 1.0;   ///< Two-sided p-value.
};

/// Preconditions: a.size() >= 2, b.size() >= 2. When both variances are
/// zero the test degenerates: p = 1 for equal means, p = 0 otherwise.
[[nodiscard]] WelchResult welchTTest(std::span<const double> a,
                                     std::span<const double> b);

/// Mann-Whitney U test (two-sided, tie-corrected normal approximation
/// with continuity correction).
struct MannWhitneyResult {
  double u = 0.0;  ///< U statistic of sample `a`.
  double z = 0.0;  ///< Normal-approximation z-score.
  double p = 1.0;  ///< Two-sided p-value; 1.0 when every value is tied.
};

/// Preconditions: !a.empty(), !b.empty().
[[nodiscard]] MannWhitneyResult mannWhitneyU(std::span<const double> a,
                                             std::span<const double> b);

/// Cohen's d: (mean(b) - mean(a)) / pooled stddev; 0 when the pooled
/// stddev is 0. Available to callers; the compare report prints Cliff's
/// delta only. Preconditions: a.size() >= 2, b.size() >= 2.
[[nodiscard]] double cohensD(std::span<const double> a,
                             std::span<const double> b);

/// Cliff's delta: P(b > a) - P(b < a), in [-1, 1].
/// Preconditions: !a.empty(), !b.empty().
[[nodiscard]] double cliffsDelta(std::span<const double> a,
                                 std::span<const double> b);

}  // namespace nodebench::stats
