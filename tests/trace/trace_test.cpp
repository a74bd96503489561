/// \file trace_test.cpp
/// \brief Unit tests of the trace layer: scope install/restore semantics,
/// deterministic ordering, histogram arithmetic, and both sinks (Chrome
/// JSON validated with the repo's JSON parser, metrics summary by
/// content).

#include "trace/trace.hpp"

#include <gtest/gtest.h>

#include <string>

#include "core/error.hpp"
#include "core/json_value.hpp"
#include "trace/sink.hpp"

namespace nodebench::trace {
namespace {

Event makeEvent(Category c, int actor, double beginUs, double durUs) {
  Event e;
  e.category = c;
  e.actorKind = ActorKind::Rank;
  e.actor = actor;
  e.begin = Duration::microseconds(beginUs);
  e.duration = Duration::microseconds(durUs);
  return e;
}

TEST(Trace, DisabledIsInert) {
  EXPECT_EQ(Session::active(), nullptr);
  EXPECT_EQ(current(), nullptr);
  const Scope scope("no-session");
  EXPECT_EQ(scope.buffer(), nullptr);
  EXPECT_EQ(current(), nullptr);
}

TEST(Trace, ScopeInstallsAndRestoresCurrent) {
  Session session;
  EXPECT_EQ(Session::active(), &session);
  EXPECT_EQ(current(), nullptr);  // session alone records nothing
  {
    const Scope outer("outer");
    ASSERT_NE(outer.buffer(), nullptr);
    EXPECT_EQ(current(), outer.buffer());
    {
      const Scope inner("inner");
      EXPECT_EQ(current(), inner.buffer());  // innermost wins
    }
    EXPECT_EQ(current(), outer.buffer());
  }
  EXPECT_EQ(current(), nullptr);
}

TEST(Trace, SecondSessionIsRejected) {
  Session session;
  EXPECT_THROW(Session{}, PreconditionError);
  // The failed construction must not have unhooked the live session.
  EXPECT_EQ(Session::active(), &session);
}

TEST(Trace, OrderedSortsByLabelThenOccurrence) {
  Session session;
  {
    const Scope b("beta");
    b.buffer()->count("n");
  }
  {
    const Scope a("alpha");
  }
  {
    const Scope b2("beta");  // sequential repeat of the same label
  }
  const auto ordered = session.ordered();
  ASSERT_EQ(ordered.size(), 3u);
  EXPECT_EQ(ordered[0]->label(), "alpha");
  EXPECT_EQ(ordered[1]->label(), "beta");
  EXPECT_EQ(ordered[1]->occurrence(), 0);
  EXPECT_EQ(ordered[1]->counters().at("n"), 1u);
  EXPECT_EQ(ordered[2]->label(), "beta");
  EXPECT_EQ(ordered[2]->occurrence(), 1);
}

TEST(Trace, CountersAccumulate) {
  Session session;
  const Scope scope("s");
  scope.buffer()->count("a");
  scope.buffer()->count("a", 41);
  scope.buffer()->count("b", 7);
  EXPECT_EQ(scope.buffer()->counters().at("a"), 42u);
  EXPECT_EQ(scope.buffer()->counters().at("b"), 7u);
}

TEST(Trace, HistogramExactMoments) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
  h.add(1.0);
  h.add(2.0);
  h.add(4.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 4.0);
  EXPECT_NEAR(h.mean(), 7.0 / 3.0, 1e-12);
}

TEST(Trace, HistogramQuantilesAreBucketApproximations) {
  Histogram h;
  for (int i = 0; i < 100; ++i) {
    h.add(1.5);  // bucket (1, 2]
  }
  // The bucket upper edge bounds the sample from above within 2x.
  EXPECT_GE(h.quantile(0.5), 1.5);
  EXPECT_LE(h.quantile(0.5), 2.0);
  // The extreme quantile is clamped to the observed max.
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 1.5);
  h.add(100.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 100.0);
  EXPECT_LE(h.quantile(0.25), 2.0);
}

TEST(Trace, ChromeJsonIsParseableAndComplete) {
  Session session;
  {
    const Scope scope("Eagle/\"quoted\\label\"");
    scope.buffer()->event(makeEvent(Category::Send, 0, 1.0, 0.5));
    scope.buffer()->event(makeEvent(Category::Recv, 1, 1.5, 0.25));
  }
  const std::string doc = chromeJson(session);
  const auto parsed = nodebench::JsonValue::parse(doc);  // throws if invalid
  const auto* events = parsed.find("traceEvents");
  ASSERT_NE(events, nullptr);
  // 2 metadata records (process_name + one thread_name per actor... the
  // two events sit on distinct rank lanes: 1 process + 2 threads) + 2
  // event slices.
  ASSERT_EQ(events->asArray().size(), 5u);
  const auto& slice = events->asArray()[3];
  EXPECT_EQ(slice.stringOr("ph", ""), "X");
  EXPECT_EQ(slice.stringOr("name", ""), "send");
  EXPECT_EQ(slice.stringOr("cat", ""), "rank");
  EXPECT_DOUBLE_EQ(slice.numberOr("ts", 0.0), 1.0);
  EXPECT_DOUBLE_EQ(slice.numberOr("dur", 0.0), 0.5);
  // The escaped label round-trips through the parser.
  const auto& meta = events->asArray()[0];
  EXPECT_EQ(meta.stringOr("name", ""), "process_name");
  ASSERT_NE(meta.find("args"), nullptr);
  EXPECT_EQ(meta.find("args")->stringOr("name", ""),
            "Eagle/\"quoted\\label\"");
}

TEST(Trace, ChromeJsonEmptySessionIsValid) {
  Session session;
  const std::string doc = chromeJson(session);
  const auto parsed = nodebench::JsonValue::parse(doc);
  ASSERT_NE(parsed.find("traceEvents"), nullptr);
  EXPECT_TRUE(parsed.find("traceEvents")->asArray().empty());
}

TEST(Trace, MetricsSummaryAggregates) {
  Session session;
  {
    const Scope scope("Eagle/cell");
    scope.buffer()->event(makeEvent(Category::Send, 0, 1.0, 2.0));
    scope.buffer()->event(makeEvent(Category::Send, 1, 3.0, 4.0));
    scope.buffer()->count("mpisim.retransmits", 3);
    scope.buffer()->sample("osu.latency_us", 1.25);
  }
  const std::string summary = metricsSummary(session);
  EXPECT_NE(summary.find("Eagle/cell"), std::string::npos) << summary;
  EXPECT_NE(summary.find("send"), std::string::npos);
  EXPECT_NE(summary.find("6.000"), std::string::npos)
      << "busy time should sum both send durations:\n" << summary;
  EXPECT_NE(summary.find("mpisim.retransmits"), std::string::npos);
  EXPECT_NE(summary.find("osu.latency_us"), std::string::npos);
}

TEST(Trace, MetricsSummaryEmptySession) {
  Session session;
  EXPECT_NE(metricsSummary(session).find("(nothing recorded)"),
            std::string::npos);
}

}  // namespace
}  // namespace nodebench::trace
