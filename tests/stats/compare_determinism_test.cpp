/// \file compare_determinism_test.cpp
/// \brief Golden-output determinism of the comparison layer: the full
/// renderCompare/renderGate text must be byte-identical at any worker
/// count and on repeated evaluation — the property that makes a stored
/// compare table reviewable evidence rather than a one-off printout.
/// renderCompare fans its bootstrap CIs out on the report's worker count,
/// so the worker-count check covers both parallel maps.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "stats/compare.hpp"

namespace nodebench::stats {
namespace {

std::vector<double> around(double center, double spread, int n,
                           std::uint64_t salt) {
  std::vector<double> xs;
  xs.reserve(static_cast<std::size_t>(n));
  std::uint64_t state = 0x452821e638d01377ull ^ salt;
  for (int i = 0; i < n; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const double unit = static_cast<double>(state >> 11) / 9007199254740992.0;
    xs.push_back(center + (unit - 0.5) * 2.0 * spread);
  }
  return xs;
}

/// A store pair large enough that any worker-count-dependent ordering or
/// rounding in the compare fan-out would show: several machines, mixed
/// directions, regressions, improvements, an unmatched cell and an
/// insufficient one.
std::pair<StoreContents, StoreContents> testStores() {
  StoreContents base;
  StoreContents cand;
  base.config.runs = cand.config.runs = 50;
  std::uint64_t salt = 1;
  for (const char* machine : {"Frontier", "Summit", "Perlmutter", "Aurora"}) {
    for (const char* cell : {"alpha", "beta", "gamma", "delta", "epsilon"}) {
      SampleRecord rec;
      rec.machine = machine;
      rec.cell = cell;
      rec.quantity = "latency";
      rec.unit = "us";
      rec.better = Better::Lower;
      rec.samples = around(10.0, 0.2, 40, salt);
      rec.summary = summarize(rec.samples);
      base.records.push_back(rec);
      // Candidate: every other cell drifts by a machine-dependent amount.
      const double shift = (salt % 3 == 0) ? 1.5 : (salt % 3 == 1 ? -1.0 : 0.0);
      rec.samples = around(10.0 + shift, 0.2, 40, salt + 1000);
      rec.summary = summarize(rec.samples);
      cand.records.push_back(rec);
      ++salt;
    }
  }
  // One unmatched cell per side and one too-small-to-test pair.
  SampleRecord extra;
  extra.machine = "Frontier";
  extra.cell = "baseline only";
  extra.quantity = "latency";
  extra.unit = "us";
  extra.better = Better::Lower;
  extra.samples = around(1.0, 0.01, 10, 99);
  extra.summary = summarize(extra.samples);
  base.records.push_back(extra);
  extra.cell = "candidate only";
  cand.records.push_back(extra);
  extra.cell = "insufficient";
  extra.samples = {1.0};
  extra.summary = summarize(extra.samples);
  base.records.push_back(extra);
  cand.records.push_back(extra);
  return {std::move(base), std::move(cand)};
}

TEST(CompareDeterminism, OutputByteIdenticalAcrossWorkerCounts) {
  const auto [base, cand] = testStores();
  CompareOptions opt;
  opt.jobs = 1;
  const CompareReport sequential = compareStores(base, cand, opt);
  const std::string compareSeq = renderCompare(sequential, base, cand);
  const std::string gateSeq = renderGate(sequential);
  ASSERT_GT(sequential.regressions, 0u);  // the fixture must exercise FAIL
  for (const int jobs : {2, 3, 8}) {
    opt.jobs = jobs;
    const CompareReport parallel = compareStores(base, cand, opt);
    EXPECT_EQ(renderCompare(parallel, base, cand), compareSeq)
        << "jobs=" << jobs;
    EXPECT_EQ(renderGate(parallel), gateSeq) << "jobs=" << jobs;
    EXPECT_EQ(gateExit(parallel), gateExit(sequential)) << "jobs=" << jobs;
  }
}

TEST(CompareDeterminism, RepeatedRunsAreByteIdentical) {
  const auto [base, cand] = testStores();
  const std::string first =
      renderCompare(compareStores(base, cand), base, cand);
  const std::string second =
      renderCompare(compareStores(base, cand), base, cand);
  EXPECT_EQ(first, second);
}

TEST(CompareDeterminism, RecordFileOrderDoesNotMatter) {
  // The harness appends store records in completion order, which varies
  // with --jobs; the comparison must be a pure function of the keyed
  // record *set*.
  auto [base, cand] = testStores();
  const std::string forward =
      renderCompare(compareStores(base, cand), base, cand);
  std::reverse(base.records.begin(), base.records.end());
  std::reverse(cand.records.begin(), cand.records.end());
  EXPECT_EQ(renderCompare(compareStores(base, cand), base, cand), forward);
}

}  // namespace
}  // namespace nodebench::stats
