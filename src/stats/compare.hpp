#pragma once
/// \file compare.hpp
/// \brief Regression detection between two results stores
/// (`nodebench compare` / `nodebench gate`).
///
/// A comparison joins two stores on (machine, cell, quantity) and runs
/// the verdict battery (analysis.hpp: Welch, Mann-Whitney U, Cliff's
/// delta) on each matched pair of sample vectors. The verdict for a cell
/// requires *three* things to call a change real, following Hunold &
/// Carpen-Amarie's critique of mean-only benchmark comparisons:
///
///  1. **Welch's t-test** significant at `alpha` (mean shift, unequal
///     variances), AND
///  2. **Mann-Whitney U** significant at `alpha` (distribution shift —
///     robust against the heavy-tailed runs fault injection produces),
///     AND
///  3. a **material magnitude**: |delta| >= `thresholdPct` percent of the
///     baseline mean. With 100 repetitions per cell, trivial differences
///     reach statistical significance; the threshold keeps the gate
///     focused on changes someone would act on.
///
/// Direction comes from each record's lower/higher-is-better flag, so a
/// latency increase and a bandwidth decrease both read "Regression".
///
/// Cost: the bootstrap CIs of the two means are not part of the verdict,
/// so compareStores does not compute them. renderCompare, the only
/// renderer that prints them, runs the two bootstraps per cell itself;
/// `gate` pays for the tests alone.
///
/// Determinism: cells are compared, and their CIs computed, via the
/// order-preserving parallel map over a sorted key union, and every
/// statistic is a pure function of the sample data (the bootstrap seeds
/// from a data fingerprint) — compare/gate output is byte-identical at
/// any `--jobs`.

#include <string>
#include <vector>

#include "stats/analysis.hpp"
#include "stats/store.hpp"

namespace nodebench::stats {

struct CompareOptions {
  int jobs = 0;                   ///< Worker threads (0 = hardware default).
  double alpha = 0.05;            ///< Significance level for both tests.
  double thresholdPct = 2.0;      ///< Materiality threshold, percent.
  double ciLevel = 0.95;          ///< Bootstrap CI coverage (compare only).
  int bootstrapResamples = 2000;  ///< Bootstrap resamples (compare only).
};

enum class Verdict {
  Unchanged,      ///< Not significant, or significant but immaterial.
  Regression,     ///< Significant, material, worse.
  Improvement,    ///< Significant, material, better.
  BaselineOnly,   ///< Record missing from the candidate store.
  CandidateOnly,  ///< Record missing from the baseline store.
  Insufficient,   ///< Too few samples (or zero baseline) to test.
};

[[nodiscard]] std::string_view verdictName(Verdict v);

/// One joined (machine, cell, quantity) with its statistics. The
/// statistical fields are meaningful only when both sides are present
/// with enough samples (verdict not *Only/Insufficient).
struct CellComparison {
  std::string machine;
  std::string cell;
  std::string quantity;
  std::string unit;
  Better better = Better::Lower;
  Summary baseline;
  Summary candidate;
  double deltaPct = 0.0;  ///< (cand.mean - base.mean) / |base.mean| * 100.
  WelchResult welch;
  MannWhitneyResult mw;
  double cliffsDelta = 0.0;
  Verdict verdict = Verdict::Unchanged;
};

struct CompareReport {
  CompareOptions options;
  /// Non-blocking notes about configuration fields that differ between
  /// the stores (`jobs` excluded). A cross-configuration compare is
  /// allowed — measuring a fault plan's impact *is* such a compare — but
  /// the reader must see what changed.
  std::vector<std::string> configNotes;
  std::vector<CellComparison> cells;  ///< Sorted by machine, cell, quantity.
  std::size_t regressions = 0;
  std::size_t improvements = 0;
  std::size_t unchanged = 0;
  std::size_t unmatched = 0;    ///< BaselineOnly + CandidateOnly.
  std::size_t insufficient = 0;
};

/// Joins and tests every (machine, cell, quantity) present in either
/// store. First occurrence wins when a store carries duplicate keys.
[[nodiscard]] CompareReport compareStores(const StoreContents& baseline,
                                          const StoreContents& candidate,
                                          const CompareOptions& options = {});

/// Full human-readable report: config notes, one table per machine
/// (baseline/candidate means with bootstrap CIs, delta, p-values,
/// Cliff's delta, verdict with significance markers), summary counts.
/// `baseline` and `candidate` are the stores `report` was built from: the
/// CIs are computed here, on `report.options.jobs` workers, from the
/// same first-occurrence records the verdicts used.
[[nodiscard]] std::string renderCompare(const CompareReport& report,
                                        const StoreContents& baseline,
                                        const StoreContents& candidate);

/// Compact gate output: config notes, each regression on one line, and
/// a final "gate: PASS" / "gate: FAIL" line.
[[nodiscard]] std::string renderGate(const CompareReport& report);

/// Exit status for `nodebench gate`: 0 when no regression,
/// kGateRegressionExitCode otherwise.
inline constexpr int kGateRegressionExitCode = 3;
[[nodiscard]] int gateExit(const CompareReport& report);

}  // namespace nodebench::stats
