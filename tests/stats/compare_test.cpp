/// \file compare_test.cpp
/// \brief Regression-detection tests: verdict logic (direction,
/// significance, materiality), unmatched/insufficient handling, config
/// notes, the gate exit-code contract, and the split between the verdict
/// battery (compareStores) and the bootstrap CIs (renderCompare only).

#include "stats/compare.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

namespace nodebench::stats {
namespace {

std::vector<double> around(double center, double spread, int n,
                           std::uint64_t salt = 0) {
  std::vector<double> xs;
  xs.reserve(static_cast<std::size_t>(n));
  std::uint64_t state = 0x243f6a8885a308d3ull ^ salt;
  for (int i = 0; i < n; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const double unit = static_cast<double>(state >> 11) / 9007199254740992.0;
    xs.push_back(center + (unit - 0.5) * 2.0 * spread);
  }
  return xs;
}

SampleRecord record(const std::string& machine, const std::string& cell,
                    const std::string& quantity, Better better,
                    std::vector<double> samples) {
  SampleRecord rec;
  rec.machine = machine;
  rec.cell = cell;
  rec.quantity = quantity;
  rec.unit = better == Better::Lower ? "us" : "GB/s";
  rec.better = better;
  rec.summary = summarize(samples);
  rec.samples = std::move(samples);
  return rec;
}

StoreContents storeWith(std::vector<SampleRecord> records,
                        std::uint32_t runs = 100) {
  StoreContents contents;
  contents.config.runs = runs;
  contents.records = std::move(records);
  return contents;
}

const CellComparison& findCell(const CompareReport& report,
                               const std::string& cell) {
  for (const CellComparison& c : report.cells) {
    if (c.cell == cell) {
      return c;
    }
  }
  ADD_FAILURE() << "cell not found: " << cell;
  static const CellComparison none{};
  return none;
}

TEST(CompareStores, SelfComparisonIsAllUnchangedAndGatePasses) {
  const StoreContents s = storeWith({
      record("Frontier", "device bandwidth", "bandwidth", Better::Higher,
             around(1300.0, 5.0, 50, 1)),
      record("Frontier", "host-to-host latency", "latency", Better::Lower,
             around(0.45, 0.01, 50, 2)),
  });
  const CompareReport report = compareStores(s, s);
  EXPECT_EQ(report.cells.size(), 2u);
  EXPECT_EQ(report.regressions, 0u);
  EXPECT_EQ(report.unchanged, 2u);
  EXPECT_TRUE(report.configNotes.empty());
  EXPECT_EQ(gateExit(report), 0);
  EXPECT_NE(renderGate(report).find("PASS"), std::string::npos);
}

TEST(CompareStores, DirectionAwareVerdicts) {
  const StoreContents base = storeWith({
      record("Frontier", "latency up", "latency", Better::Lower,
             around(10.0, 0.05, 50, 1)),
      record("Frontier", "latency down", "latency", Better::Lower,
             around(10.0, 0.05, 50, 2)),
      record("Frontier", "bandwidth down", "bandwidth", Better::Higher,
             around(1000.0, 2.0, 50, 3)),
      record("Frontier", "bandwidth up", "bandwidth", Better::Higher,
             around(1000.0, 2.0, 50, 4)),
  });
  const StoreContents cand = storeWith({
      record("Frontier", "latency up", "latency", Better::Lower,
             around(12.0, 0.05, 50, 5)),
      record("Frontier", "latency down", "latency", Better::Lower,
             around(8.0, 0.05, 50, 6)),
      record("Frontier", "bandwidth down", "bandwidth", Better::Higher,
             around(900.0, 2.0, 50, 7)),
      record("Frontier", "bandwidth up", "bandwidth", Better::Higher,
             around(1100.0, 2.0, 50, 8)),
  });
  const CompareReport report = compareStores(base, cand);
  EXPECT_EQ(findCell(report, "latency up").verdict, Verdict::Regression);
  EXPECT_EQ(findCell(report, "latency down").verdict, Verdict::Improvement);
  EXPECT_EQ(findCell(report, "bandwidth down").verdict, Verdict::Regression);
  EXPECT_EQ(findCell(report, "bandwidth up").verdict, Verdict::Improvement);
  EXPECT_EQ(report.regressions, 2u);
  EXPECT_EQ(report.improvements, 2u);
  EXPECT_EQ(gateExit(report), kGateRegressionExitCode);
  EXPECT_NE(renderGate(report).find("FAIL"), std::string::npos);
}

TEST(CompareStores, SignificantButImmaterialIsUnchanged) {
  // A genuine 0.5% shift with tiny spread: both tests scream, but the
  // default 2% materiality threshold holds the verdict at unchanged.
  const StoreContents base = storeWith({record(
      "M", "c", "latency", Better::Lower, around(10.0, 0.001, 100, 1))});
  const StoreContents cand = storeWith({record(
      "M", "c", "latency", Better::Lower, around(10.05, 0.001, 100, 2))});
  const CompareReport report = compareStores(base, cand);
  const CellComparison& cell = findCell(report, "c");
  EXPECT_LT(cell.welch.p, 0.05);
  EXPECT_EQ(cell.verdict, Verdict::Unchanged);
  EXPECT_EQ(gateExit(report), 0);
  // ... and a tighter threshold flips it to a regression.
  CompareOptions tight;
  tight.thresholdPct = 0.1;
  EXPECT_EQ(gateExit(compareStores(base, cand, tight)),
            kGateRegressionExitCode);
}

TEST(CompareStores, NoiseWithoutShiftIsNotSignificant) {
  const StoreContents base = storeWith({record(
      "M", "c", "latency", Better::Lower, around(10.0, 0.3, 40, 10))});
  const StoreContents cand = storeWith({record(
      "M", "c", "latency", Better::Lower, around(10.0, 0.3, 40, 20))});
  const CompareReport report = compareStores(base, cand);
  EXPECT_EQ(findCell(report, "c").verdict, Verdict::Unchanged);
}

TEST(CompareStores, UnmatchedAndInsufficientCells) {
  const StoreContents base = storeWith({
      record("M", "base only", "latency", Better::Lower,
             around(1.0, 0.01, 20, 1)),
      record("M", "tiny", "latency", Better::Lower, {1.0}),
  });
  const StoreContents cand = storeWith({
      record("M", "cand only", "latency", Better::Lower,
             around(1.0, 0.01, 20, 2)),
      record("M", "tiny", "latency", Better::Lower, {1.0}),
  });
  const CompareReport report = compareStores(base, cand);
  EXPECT_EQ(findCell(report, "base only").verdict, Verdict::BaselineOnly);
  EXPECT_EQ(findCell(report, "cand only").verdict, Verdict::CandidateOnly);
  EXPECT_EQ(findCell(report, "tiny").verdict, Verdict::Insufficient);
  EXPECT_EQ(report.unmatched, 2u);
  EXPECT_EQ(report.insufficient, 1u);
  // Missing and untestable cells are surfaced, not gated on.
  EXPECT_EQ(gateExit(report), 0);
}

TEST(CompareStores, CellsSortedByMachineCellQuantity) {
  const auto xs = [] { return around(1.0, 0.01, 10); };
  const StoreContents s = storeWith({
      record("Zed", "b", "q", Better::Lower, xs()),
      record("Alpha", "b", "z", Better::Lower, xs()),
      record("Alpha", "b", "a", Better::Lower, xs()),
      record("Alpha", "a", "q", Better::Lower, xs()),
  });
  const CompareReport report = compareStores(s, s);
  ASSERT_EQ(report.cells.size(), 4u);
  EXPECT_EQ(report.cells[0].machine, "Alpha");
  EXPECT_EQ(report.cells[0].cell, "a");
  EXPECT_EQ(report.cells[1].quantity, "a");
  EXPECT_EQ(report.cells[2].quantity, "z");
  EXPECT_EQ(report.cells[3].machine, "Zed");
}

TEST(CompareStores, ConfigNotesNameDifferingKnobsButNotJobs) {
  StoreContents base = storeWith({}, /*runs=*/100);
  StoreContents cand = storeWith({}, /*runs=*/50);
  base.config.jobs = 1;
  cand.config.jobs = 16;
  const CompareReport report = compareStores(base, cand);
  ASSERT_EQ(report.configNotes.size(), 1u);
  EXPECT_NE(report.configNotes[0].find("--runs"), std::string::npos);
  // The note must appear in both renderings.
  EXPECT_NE(renderCompare(report, base, cand).find("--runs"),
            std::string::npos);
  EXPECT_NE(renderGate(report).find("--runs"), std::string::npos);
}

TEST(CompareStores, RenderCompareCarriesVerdictMarkers) {
  const StoreContents base = storeWith({record(
      "M", "c", "latency", Better::Lower, around(10.0, 0.05, 50, 1))});
  const StoreContents cand = storeWith({record(
      "M", "c", "latency", Better::Lower, around(14.0, 0.05, 50, 2))});
  const std::string out =
      renderCompare(compareStores(base, cand), base, cand);
  EXPECT_NE(out.find("REGRESSION"), std::string::npos);
  EXPECT_NE(out.find("**"), std::string::npos);  // p < 0.01 marker
  EXPECT_NE(out.find("1 regression(s)"), std::string::npos);
}

TEST(CompareStores, VerdictsDoNotDependOnTheBootstrap) {
  // The verdict battery runs no bootstrap, so the resample count (which
  // only sizes the CIs renderCompare prints) cannot move a verdict.
  const StoreContents base = storeWith({
      record("M", "up", "latency", Better::Lower, around(10.0, 0.05, 30, 1)),
      record("M", "down", "latency", Better::Lower,
             around(10.0, 0.05, 30, 2)),
      record("M", "flat", "latency", Better::Lower, around(10.0, 0.3, 30, 3)),
      record("M", "tiny", "latency", Better::Lower, {1.0}),
  });
  const StoreContents cand = storeWith({
      record("M", "up", "latency", Better::Lower, around(11.0, 0.05, 30, 4)),
      record("M", "down", "latency", Better::Lower, around(9.0, 0.05, 30, 5)),
      record("M", "flat", "latency", Better::Lower, around(10.0, 0.3, 30, 6)),
      record("M", "tiny", "latency", Better::Lower, {1.0}),
  });
  const CompareReport reference = compareStores(base, cand);
  for (const int resamples : {1, 7, 50000}) {
    CompareOptions opt;
    opt.bootstrapResamples = resamples;
    const CompareReport report = compareStores(base, cand, opt);
    ASSERT_EQ(report.cells.size(), reference.cells.size());
    for (std::size_t i = 0; i < report.cells.size(); ++i) {
      const CellComparison& got = report.cells[i];
      const CellComparison& want = reference.cells[i];
      EXPECT_EQ(got.verdict, want.verdict) << got.cell;
      EXPECT_EQ(got.deltaPct, want.deltaPct) << got.cell;
      EXPECT_EQ(got.welch.p, want.welch.p) << got.cell;
      EXPECT_EQ(got.mw.p, want.mw.p) << got.cell;
      EXPECT_EQ(got.cliffsDelta, want.cliffsDelta) << got.cell;
    }
    EXPECT_EQ(report.regressions, 1u);
    EXPECT_EQ(report.improvements, 1u);
    EXPECT_EQ(report.unchanged, 1u);
    EXPECT_EQ(report.insufficient, 1u);
    EXPECT_EQ(renderGate(report), renderGate(reference));
    EXPECT_EQ(gateExit(report), kGateRegressionExitCode);
  }
}

/// The trimmed columns of the compare-table row whose first column is
/// `cell`; empty when no such row exists.
std::vector<std::string> rowColumns(const std::string& rendered,
                                    const std::string& cell) {
  std::istringstream lines(rendered);
  std::string line;
  while (std::getline(lines, line)) {
    std::vector<std::string> columns;
    std::istringstream fields(line);
    std::string field;
    std::getline(fields, field, '|');  // text before the first border
    while (std::getline(fields, field, '|')) {
      const auto first = field.find_first_not_of(' ');
      const auto last = field.find_last_not_of(' ');
      columns.push_back(first == std::string::npos
                            ? ""
                            : field.substr(first, last - first + 1));
    }
    if (!columns.empty() && columns.front() == cell) {
      return columns;
    }
  }
  return {};
}

TEST(CompareStores, EmptySampleRecordRendersDashWithoutCi) {
  SampleRecord empty;
  empty.machine = "M";
  empty.cell = "empty";
  empty.quantity = "latency";
  empty.unit = "us";
  empty.better = Better::Lower;
  const StoreContents base = storeWith({empty});
  const StoreContents cand = storeWith({record(
      "M", "empty", "latency", Better::Lower, around(2.0, 0.1, 20, 1))});
  const CompareReport report = compareStores(base, cand);
  EXPECT_EQ(findCell(report, "empty").verdict, Verdict::Insufficient);

  const std::vector<std::string> row =
      rowColumns(renderCompare(report, base, cand), "empty");
  ASSERT_EQ(row.size(), 10u);
  EXPECT_EQ(row[3], "-");  // baseline: no mean, no CI
  EXPECT_NE(row[4].find(" ["), std::string::npos) << row[4];  // CI shown
  EXPECT_EQ(row[9], "insufficient");

  // Empty on both sides: two dashes, and nothing to resample.
  const std::vector<std::string> both =
      rowColumns(renderCompare(compareStores(base, base), base, base),
                 "empty");
  ASSERT_EQ(both.size(), 10u);
  EXPECT_EQ(both[3], "-");
  EXPECT_EQ(both[4], "-");
}

}  // namespace
}  // namespace nodebench::stats
