/// \file compare_golden_test.cpp
/// \brief Golden text of `renderCompare` / `renderGate` and golden bit
/// patterns of `bootstrapMeanCi`.
///
/// The determinism tests would pass even if a rewrite of the comparison
/// layer changed a digit, a CI bound or a verdict, so these pin the exact
/// bytes for a store pair built by hand. It covers a regression and an
/// improvement in each direction, an unchanged cell, a record on only one
/// side of each store, an insufficient single-sample cell, a zero-mean
/// baseline, a differing configuration knob, and a duplicate key whose
/// second record carries different samples (the first occurrence must
/// decide both the verdict and the printed CI). The bootstrap goldens pin
/// the resampling stream itself: any change to the seeding, the draw or
/// the percentile interpolation shows here as a changed bit.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "stats/analysis.hpp"
#include "stats/compare.hpp"

namespace nodebench::stats {
namespace {

std::vector<double> around(double center, double spread, int n,
                           std::uint64_t salt) {
  std::vector<double> xs;
  xs.reserve(static_cast<std::size_t>(n));
  std::uint64_t state = 0x13198a2e03707344ull ^ salt;
  for (int i = 0; i < n; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const double unit = static_cast<double>(state >> 11) / 9007199254740992.0;
    xs.push_back(center + (unit - 0.5) * 2.0 * spread);
  }
  return xs;
}

SampleRecord record(const char* machine, const char* cell, Better better,
                    std::vector<double> samples) {
  SampleRecord rec;
  rec.machine = machine;
  rec.cell = cell;
  rec.quantity = better == Better::Lower ? "latency" : "bandwidth";
  rec.unit = better == Better::Lower ? "us" : "GB/s";
  rec.better = better;
  rec.summary = summarize(samples);
  rec.samples = std::move(samples);
  return rec;
}

/// The golden store pair. Records are appended out of key order so the
/// sorted join shows.
std::pair<StoreContents, StoreContents> goldenStores() {
  StoreContents base;
  StoreContents cand;
  base.config.runs = 40;
  cand.config.runs = 30;
  const Better lo = Better::Lower;
  const Better hi = Better::Higher;

  base.records.push_back(
      record("Summit", "host latency", lo, around(1.2, 0.02, 40, 1)));
  cand.records.push_back(
      record("Summit", "host latency", lo, around(1.5, 0.02, 30, 2)));
  base.records.push_back(
      record("Frontier", "device bandwidth", hi, around(1300.0, 4.0, 40, 3)));
  cand.records.push_back(
      record("Frontier", "device bandwidth", hi, around(1200.0, 4.0, 30, 4)));
  base.records.push_back(
      record("Frontier", "host latency", lo, around(0.45, 0.01, 40, 5)));
  cand.records.push_back(
      record("Frontier", "host latency", lo, around(0.40, 0.01, 30, 6)));
  base.records.push_back(
      record("Summit", "device bandwidth", hi, around(800.0, 3.0, 40, 7)));
  cand.records.push_back(
      record("Summit", "device bandwidth", hi, around(880.0, 3.0, 30, 8)));
  base.records.push_back(
      record("Frontier", "noisy latency", lo, around(10.0, 0.3, 40, 9)));
  cand.records.push_back(
      record("Frontier", "noisy latency", lo, around(10.0, 0.3, 30, 10)));
  base.records.push_back(
      record("Frontier", "baseline only", lo, around(2.0, 0.1, 12, 11)));
  cand.records.push_back(
      record("Frontier", "candidate only", hi, around(50.0, 1.0, 12, 12)));
  base.records.push_back(record("Summit", "single sample", lo, {3.25}));
  cand.records.push_back(record("Summit", "single sample", lo, {3.5}));
  base.records.push_back(
      record("Summit", "zero mean", lo, {-1.5, 1.5, -0.25, 0.25}));
  cand.records.push_back(
      record("Summit", "zero mean", lo, around(0.5, 0.1, 8, 13)));
  // Duplicate key: the first baseline record (5.0) regresses against the
  // candidate (5.5); the second (8.0) would read as an improvement.
  base.records.push_back(
      record("Frontier", "duplicated", lo, around(5.0, 0.05, 24, 14)));
  cand.records.push_back(
      record("Frontier", "duplicated", lo, around(5.5, 0.05, 24, 15)));
  base.records.push_back(
      record("Frontier", "duplicated", lo, around(8.0, 0.05, 24, 16)));
  return {std::move(base), std::move(cand)};
}

/// Renders through whichever `renderCompare` signature the tree has: the
/// store-taking one that computes the CIs at render time, or the older
/// report-only one. The same file then pins the bytes on both sides of
/// that split.
template <typename Store>
std::string renderedCompare(const Store& base, const Store& cand) {
  if constexpr (requires {
                  renderCompare(compareStores(base, cand), base, cand);
                }) {
    return renderCompare(compareStores(base, cand), base, cand);
  } else {
    return renderCompare(compareStores(base, cand));
  }
}

constexpr const char* kGoldenCompare =
    R"golden(comparison: alpha=0.050, threshold=2.00%, bootstrap 2000 resamples at 95% coverage
note: --runs differs between the stores (40 in the baseline, 30 in the candidate)

Frontier
+------------------+-----------+------+----------------------------------+----------------------------------+---------+----------+---------+---------+----------------+
| Cell             | Quantity  | Unit | Baseline [95% CI]                | Candidate [95% CI]               | Delta % | p(Welch) | p(MWU)  | Cliff d | Verdict        |
+------------------+-----------+------+----------------------------------+----------------------------------+---------+----------+---------+---------+----------------+
| baseline only    | latency   | us   |          2.0169 [1.9831, 2.0495] |                                - |       - |        - |       - |       - | baseline-only  |
| candidate only   | bandwidth | GB/s |                                - |       49.6797 [49.4059, 49.9667] |       - |        - |       - |       - | candidate-only |
| device bandwidth | bandwidth | GB/s | 1300.0696 [1299.2998, 1300.8798] | 1199.4517 [1198.5591, 1200.3588] |   -7.74 |  <0.0001 | <0.0001 |  -1.000 | REGRESSION **  |
| duplicated       | latency   | us   |          4.9879 [4.9765, 4.9993] |          5.4953 [5.4845, 5.5068] |  +10.17 |  <0.0001 | <0.0001 |   1.000 | REGRESSION **  |
| host latency     | latency   | us   |          0.4487 [0.4469, 0.4506] |          0.4009 [0.3993, 0.4027] |  -10.65 |  <0.0001 | <0.0001 |  -1.000 | improvement ** |
| noisy latency    | latency   | us   |         9.9740 [9.9147, 10.0379] |        10.0018 [9.9426, 10.0615] |   +0.28 |   0.5337 |  0.4875 |   0.098 | unchanged      |
+------------------+-----------+------+----------------------------------+----------------------------------+---------+----------+---------+---------+----------------+

Summit
+------------------+-----------+------+-------------------------------+-------------------------------+---------+----------+---------+---------+----------------+
| Cell             | Quantity  | Unit | Baseline [95% CI]             | Candidate [95% CI]            | Delta % | p(Welch) | p(MWU)  | Cliff d | Verdict        |
+------------------+-----------+------+-------------------------------+-------------------------------+---------+----------+---------+---------+----------------+
| device bandwidth | bandwidth | GB/s | 799.8100 [799.3286, 800.2785] | 879.9279 [879.2566, 880.5527] |  +10.02 |  <0.0001 | <0.0001 |   1.000 | improvement ** |
| host latency     | latency   | us   |       1.2010 [1.1975, 1.2044] |       1.5004 [1.4964, 1.5041] |  +24.92 |  <0.0001 | <0.0001 |   1.000 | REGRESSION **  |
| single sample    | latency   | us   |       3.2500 [3.2500, 3.2500] |       3.5000 [3.5000, 3.5000] |       - |        - |       - |       - | insufficient   |
| zero mean        | latency   | us   |      0.0000 [-1.0625, 1.0625] |       0.5116 [0.4742, 0.5470] |       - |        - |       - |       - | insufficient   |
+------------------+-----------+------+-------------------------------+-------------------------------+---------+----------+---------+---------+----------------+

10 cell(s) compared: 3 regression(s), 2 improvement(s), 1 unchanged, 2 unmatched, 2 insufficient
significance markers: ** both tests p < 0.01, * both tests p < 0.050
)golden";

constexpr const char* kGoldenGate =
    R"golden(note: --runs differs between the stores (40 in the baseline, 30 in the candidate)
REGRESSION: Frontier / device bandwidth / bandwidth: -7.74% (higher is better), p(Welch)=<0.0001, p(MWU)=<0.0001, Cliff d=-1.000
REGRESSION: Frontier / duplicated / latency: +10.17% (lower is better), p(Welch)=<0.0001, p(MWU)=<0.0001, Cliff d=1.000
REGRESSION: Summit / host latency / latency: +24.92% (lower is better), p(Welch)=<0.0001, p(MWU)=<0.0001, Cliff d=1.000
gate: 10 cell(s) compared, 3 regression(s) at threshold 2.00% -> FAIL
)golden";

constexpr const char* kGoldenSelfGate =
    "gate: 9 cell(s) compared, 0 regression(s) at threshold 2.00% -> PASS\n";

TEST(CompareGolden, RenderCompare) {
  const auto [base, cand] = goldenStores();
  EXPECT_EQ(renderedCompare(base, cand), kGoldenCompare);
}

TEST(CompareGolden, RenderGate) {
  const auto [base, cand] = goldenStores();
  const CompareReport report = compareStores(base, cand);
  EXPECT_EQ(renderGate(report), kGoldenGate);
  EXPECT_EQ(gateExit(report), kGateRegressionExitCode);
}

TEST(CompareGolden, SelfGatePasses) {
  const StoreContents base = goldenStores().first;
  const CompareReport report = compareStores(base, base);
  EXPECT_EQ(renderGate(report), kGoldenSelfGate);
  EXPECT_EQ(gateExit(report), 0);
}

struct BootstrapGolden {
  int n;
  int resamples;
  double level;
  std::uint64_t loBits;
  std::uint64_t hiBits;
};

/// bootstrapMeanCi(around(100, 7.5, n, 100 + n), level, resamples).
constexpr BootstrapGolden kBootstrapGoldens[] = {
    {1, 1, 0.90, 0x4059eb8347b29b99ull, 0x4059eb8347b29b99ull},
    {1, 1, 0.95, 0x4059eb8347b29b99ull, 0x4059eb8347b29b99ull},
    {1, 2000, 0.90, 0x4059eb8347b29b99ull, 0x4059eb8347b29b99ull},
    {1, 2000, 0.95, 0x4059eb8347b29b99ull, 0x4059eb8347b29b9aull},
    {2, 1, 0.90, 0x405867714b86c668ull, 0x405867714b86c668ull},
    {2, 1, 0.95, 0x405867714b86c668ull, 0x405867714b86c668ull},
    {2, 2000, 0.90, 0x405776b69b5c7acaull, 0x4059582bfbb11205ull},
    {2, 2000, 0.95, 0x405776b69b5c7acaull, 0x4059582bfbb11205ull},
    {37, 1, 0.90, 0x40587661e4405e7cull, 0x40587661e4405e7cull},
    {37, 1, 0.95, 0x40587661e4405e7cull, 0x40587661e4405e7cull},
    {37, 2000, 0.90, 0x405879fd213ec319ull, 0x40590d2c889efdcaull},
    {37, 2000, 0.95, 0x40586b65586780cbull, 0x40591b3046f73f64ull},
    {110, 1, 0.90, 0x4059287a4db60464ull, 0x4059287a4db60464ull},
    {110, 1, 0.95, 0x4059287a4db60464ull, 0x4059287a4db60464ull},
    {110, 2000, 0.90, 0x4058ee22f9874785ull, 0x4059470a83fccbebull},
    {110, 2000, 0.95, 0x4058e51fbe5b338cull, 0x40594eb3c79f5d6full},
};

TEST(CompareGolden, BootstrapMeanCiBitPatterns) {
  for (const BootstrapGolden& g : kBootstrapGoldens) {
    const std::vector<double> xs =
        around(100.0, 7.5, g.n, 100 + static_cast<std::uint64_t>(g.n));
    const BootstrapCi ci = bootstrapMeanCi(xs, g.level, g.resamples);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(ci.lo), g.loBits)
        << "n=" << g.n << " resamples=" << g.resamples
        << " level=" << g.level;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(ci.hi), g.hiBits)
        << "n=" << g.n << " resamples=" << g.resamples
        << " level=" << g.level;
    EXPECT_EQ(ci.level, g.level);
    EXPECT_EQ(ci.resamples, g.resamples);
  }
}

}  // namespace
}  // namespace nodebench::stats
