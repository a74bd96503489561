/// \file chrome_json_golden_test.cpp
/// \brief Golden text of both trace exports: the Chrome `trace_event`
/// JSON and the metrics appendix.
///
/// The determinism and parse tests would pass even if a rewrite of the
/// exporter changed a digit, an escape or a tid, so these pin the exact
/// bytes for a session built by hand. It covers two scopes with the same
/// label (occurrence ordering), a label that needs escaping, all five
/// actor kinds recorded out of order (tids are assigned in sorted lane
/// order), `peer = -1` and the largest byte count, and the duration edge
/// cases of the `%.3f` microsecond convention: zero, negative zero,
/// sub-nanosecond, above 1e12 ns, exact and inexact half-way ties, and
/// infinity. A failure here means traces written before and after a
/// change no longer compare equal.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "core/units.hpp"
#include "trace/sink.hpp"
#include "trace/trace.hpp"

namespace nodebench::trace {
namespace {

Event laneEvent(Category c, ActorKind kind, int actor, double beginNs,
                double durNs, int peer = -1, std::uint64_t bytes = 0) {
  Event e;
  e.category = c;
  e.actorKind = kind;
  e.actor = actor;
  e.peer = peer;
  e.begin = Duration::nanoseconds(beginNs);
  e.duration = Duration::nanoseconds(durNs);
  e.bytes = bytes;
  return e;
}

/// Records the golden session. Scopes close in a different order from the
/// one they are exported in, so the (label, occurrence) sort shows.
void recordGoldenSession() {
  {
    const Scope scope("lanes");
    TraceBuffer& b = *scope.buffer();
    b.event(laneEvent(Category::JournalAppend, ActorKind::Campaign, 0, 0.0,
                      0.0));
    b.event(laneEvent(Category::LinkOccupancy, ActorKind::Node, 1, 1500.0,
                      -0.0, 0, std::numeric_limits<std::uint64_t>::max()));
    b.event(laneEvent(Category::Memcpy, ActorKind::Device, 2, 0.4, 0.5, 3,
                      64));
    b.event(laneEvent(Category::LinkOccupancy, ActorKind::Link, 3, 62.5,
                      187.5, -1, 8));
    b.event(laneEvent(Category::Send, ActorKind::Rank, 1, 2.5e12, 1.0005e3,
                      0, 8));
    b.event(laneEvent(Category::Recv, ActorKind::Rank, 0, 2.5e12 + 0.25,
                      std::numeric_limits<double>::infinity(), 1, 8));
    b.event(laneEvent(Category::Send, ActorKind::Rank, 1, 3.0e12, 2.0, 0,
                      8));
    b.count("mpisim.retransmits", 3);
    b.sample("osu.latency_us", 1.25);
    b.sample("osu.latency_us", 0.0625);
    b.sample("osu.latency_us", 40.0);
  }
  {
    const Scope scope("dup");
    scope.buffer()->event(laneEvent(Category::KernelLaunch, ActorKind::Device,
                                    0, 10.0, 25000.0, 0));
  }
  {
    const Scope scope("dup");
    scope.buffer()->event(laneEvent(Category::KernelSync, ActorKind::Device, 0,
                                    20.0, 5.0, 0));
    scope.buffer()->count("gpusim.syncs");
  }
  {
    const Scope scope(std::string("esc/\"q\"\\p\x01"));
    scope.buffer()->event(
        laneEvent(Category::CacheMiss, ActorKind::Node, 0, 7.0, 0.0));
  }
}

constexpr const char* kGoldenJson =
    R"golden({"traceEvents":[
{"name":"process_name","ph":"M","pid":0,"args":{"name":"dup"}},
{"name":"thread_name","ph":"M","pid":0,"tid":0,"args":{"name":"device 0"}},
{"name":"kernel","cat":"device","ph":"X","pid":0,"tid":0,"ts":0.010,"dur":25.000,"args":{"peer":0,"bytes":0}},
{"name":"process_name","ph":"M","pid":1,"args":{"name":"dup"}},
{"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"device 0"}},
{"name":"sync","cat":"device","ph":"X","pid":1,"tid":0,"ts":0.020,"dur":0.005,"args":{"peer":0,"bytes":0}},
{"name":"process_name","ph":"M","pid":2,"args":{"name":"esc/\"q\"\\p\u0001"}},
{"name":"thread_name","ph":"M","pid":2,"tid":0,"args":{"name":"node 0"}},
{"name":"cache miss","cat":"node","ph":"X","pid":2,"tid":0,"ts":0.007,"dur":0.000,"args":{"peer":-1,"bytes":0}},
{"name":"process_name","ph":"M","pid":3,"args":{"name":"lanes"}},
{"name":"thread_name","ph":"M","pid":3,"tid":0,"args":{"name":"rank 0"}},
{"name":"thread_name","ph":"M","pid":3,"tid":1,"args":{"name":"rank 1"}},
{"name":"thread_name","ph":"M","pid":3,"tid":2,"args":{"name":"device 2"}},
{"name":"thread_name","ph":"M","pid":3,"tid":3,"args":{"name":"link 3"}},
{"name":"thread_name","ph":"M","pid":3,"tid":4,"args":{"name":"node 1"}},
{"name":"thread_name","ph":"M","pid":3,"tid":5,"args":{"name":"campaign 0"}},
{"name":"journal append","cat":"campaign","ph":"X","pid":3,"tid":5,"ts":0.000,"dur":0.000,"args":{"peer":-1,"bytes":0}},
{"name":"link busy","cat":"node","ph":"X","pid":3,"tid":4,"ts":1.500,"dur":-0.000,"args":{"peer":0,"bytes":18446744073709551615}},
{"name":"memcpy","cat":"device","ph":"X","pid":3,"tid":2,"ts":0.000,"dur":0.001,"args":{"peer":3,"bytes":64}},
{"name":"link busy","cat":"link","ph":"X","pid":3,"tid":3,"ts":0.062,"dur":0.188,"args":{"peer":-1,"bytes":8}},
{"name":"send","cat":"rank","ph":"X","pid":3,"tid":1,"ts":2500000000.000,"dur":1.000,"args":{"peer":0,"bytes":8}},
{"name":"recv","cat":"rank","ph":"X","pid":3,"tid":0,"ts":2500000000.000,"dur":inf,"args":{"peer":1,"bytes":8}},
{"name":"send","cat":"rank","ph":"X","pid":3,"tid":1,"ts":3000000000.000,"dur":0.002,"args":{"peer":0,"bytes":8}}
],"displayTimeUnit":"ms"}
)golden";

// The escaped scope label carries a raw \x01 into the table, spliced in
// between two raw literals.
constexpr const char* kGoldenMetrics =
    R"golden(
Trace metrics appendix

Events by scope and category
+------------+----------------+--------+-----------+
| Scope      | Category       | Events | Busy (us) |
+------------+----------------+--------+-----------+
| dup        |         kernel |      1 |    25.000 |
| dup #2     |           sync |      1 |     0.005 |
| esc/"q"\p)golden" "\x01"
    R"golden( |     cache miss |      1 |     0.000 |
| lanes      |           send |      2 |     1.002 |
| lanes      |           recv |      1 |       inf |
| lanes      |         memcpy |      1 |     0.001 |
| lanes      |      link busy |      2 |     0.188 |
| lanes      | journal append |      1 |     0.000 |
+------------+----------------+--------+-----------+

Counters
+--------+--------------------+-------+
| Scope  | Counter            | Value |
+--------+--------------------+-------+
| dup #2 |       gpusim.syncs |     1 |
| lanes  | mpisim.retransmits |     3 |
+--------+--------------------+-------+

Histograms (quantiles are bucket approximations)
+-------+----------------+-------+-------+--------+--------+---------+--------+
| Scope | Histogram      | Count | Min   | Mean   | P50    | P99     | Max    |
+-------+----------------+-------+-------+--------+--------+---------+--------+
| lanes | osu.latency_us |     3 | 0.062 | 13.771 | ~2.000 | ~40.000 | 40.000 |
+-------+----------------+-------+-------+--------+--------+---------+--------+
)golden";

constexpr const char* kEmptyJson =
    R"golden({"traceEvents":[
],"displayTimeUnit":"ms"}
)golden";

constexpr const char* kEmptyMetrics =
    R"golden(
Trace metrics appendix
(nothing recorded)
)golden";

TEST(ChromeJsonGolden, HandBuiltSession) {
  Session session;
  recordGoldenSession();
  EXPECT_EQ(chromeJson(session), kGoldenJson);
}

TEST(ChromeJsonGolden, HandBuiltSessionMetrics) {
  Session session;
  recordGoldenSession();
  EXPECT_EQ(metricsSummary(session), kGoldenMetrics);
}

TEST(ChromeJsonGolden, EmptySession) {
  Session session;
  EXPECT_EQ(chromeJson(session), kEmptyJson);
  EXPECT_EQ(metricsSummary(session), kEmptyMetrics);
}

}  // namespace
}  // namespace nodebench::trace
