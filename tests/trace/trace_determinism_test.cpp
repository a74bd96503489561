/// \file trace_determinism_test.cpp
/// \brief Golden-trace determinism (extends the tables determinism suite
/// to the trace layer): the exported Chrome JSON and metrics summary are
/// byte-identical at --jobs 1 and --jobs 8, and across two consecutive
/// runs at the same worker count. Scope closure order *does* vary with
/// the worker count — the (label, occurrence) export ordering is what
/// makes the bytes stable.

#include <gtest/gtest.h>

#include <string>

#include "core/json_value.hpp"
#include "report/tables.hpp"
#include "trace/sink.hpp"
#include "trace/trace.hpp"

namespace nodebench {
namespace {

struct Export {
  std::string json;
  std::string metrics;
};

/// One traced Table 4 run (every CPU machine x every cell) at the given
/// worker count, exported through both sinks.
Export tracedTable4(int jobs) {
  trace::Session session;
  report::TableOptions opt;
  opt.binaryRuns = 5;
  opt.jobs = jobs;
  (void)report::computeTable4(opt);
  return Export{trace::chromeJson(session), trace::metricsSummary(session)};
}

TEST(TraceDeterminism, ChromeJsonIdenticalAcrossWorkerCounts) {
  const Export seq = tracedTable4(1);
  const Export par = tracedTable4(8);
  EXPECT_EQ(seq.json, par.json);
  EXPECT_EQ(seq.metrics, par.metrics);
  EXPECT_GT(seq.json.size(), 1000u);  // a real trace, not an empty shell
}

TEST(TraceDeterminism, ConsecutiveRunsAreIdentical) {
  const Export first = tracedTable4(8);
  const Export second = tracedTable4(8);
  EXPECT_EQ(first.json, second.json);
  EXPECT_EQ(first.metrics, second.metrics);
}

TEST(TraceDeterminism, ExportedJsonIsValid) {
  const Export e = tracedTable4(4);
  const auto parsed = nodebench::JsonValue::parse(e.json);  // throws if invalid
  const auto* events = parsed.find("traceEvents");
  ASSERT_NE(events, nullptr);
  EXPECT_FALSE(events->asArray().empty());
  // One process per (machine, cell) scope: every entry carries a pid.
  for (const auto& entry : events->asArray()) {
    EXPECT_NE(entry.find("pid"), nullptr);
    const std::string ph = entry.stringOr("ph", "");
    EXPECT_TRUE(ph == "M" || ph == "X") << ph;
  }
}

}  // namespace
}  // namespace nodebench
