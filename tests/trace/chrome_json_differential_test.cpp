/// \file chrome_json_differential_test.cpp
/// \brief Differential test of the Chrome trace's microsecond numbers:
/// every `ts` and `dur` that `chromeJson` writes must be exactly what
/// `snprintf("%.3f")` prints for the same value.
///
/// The exporter formats with `std::to_chars(fixed, 3)`; `snprintf` stays
/// here only as the reference. Over a million seeded doubles go through
/// the real export: random bit patterns (every magnitude, denormals, inf
/// and NaN), log-uniform magnitudes of both signs, near and exact
/// half-way ties at the third decimal, and a fixed list of edge values.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "core/units.hpp"
#include "trace/sink.hpp"
#include "trace/trace.hpp"

namespace nodebench::trace {
namespace {

constexpr std::size_t kRandomDoubles = 1'000'000;
constexpr std::size_t kBatch = 40'000;  // doubles per session

std::string printfUs(double ns) {
  char buf[512];
  std::snprintf(buf, sizeof buf, "%.3f", Duration::nanoseconds(ns).us());
  return buf;
}

/// Records `ns` as the begin/duration pairs of one scope's events and
/// returns how many exported numbers differ from the printf reference
/// (reporting the first few).
std::size_t countMismatches(const std::vector<double>& ns) {
  Session session;
  {
    const Scope scope("numbers");
    for (std::size_t i = 0; i < ns.size(); i += 2) {
      Event e;
      e.begin = Duration::nanoseconds(ns[i]);
      e.duration = Duration::nanoseconds(i + 1 < ns.size() ? ns[i + 1] : 0.0);
      scope.buffer()->event(e);
    }
  }
  const std::string doc = chromeJson(session);

  std::size_t mismatches = 0;
  std::size_t checked = 0;
  const auto check = [&](std::size_t begin, std::size_t end) {
    if (checked >= ns.size()) {
      return;
    }
    const double value = ns[checked++];
    const std::string got = doc.substr(begin, end - begin);
    const std::string want = printfUs(value);
    if (got != want && ++mismatches <= 10) {
      ADD_FAILURE() << "ns=" << value << " (us=" << value / 1e3
                    << "): exported " << got << ", printf gives " << want;
    }
  };
  for (std::size_t pos = doc.find("\"ts\":"); pos != std::string::npos;
       pos = doc.find("\"ts\":", pos)) {
    const std::size_t ts = pos + 5;
    const std::size_t tsEnd = doc.find(",\"dur\":", ts);
    const std::size_t dur = tsEnd + 7;
    const std::size_t durEnd = doc.find(",\"args\":", dur);
    check(ts, tsEnd);
    check(dur, durEnd);
    pos = durEnd;
  }
  EXPECT_EQ(checked, ns.size());
  return mismatches;
}

/// One seeded double drawn from a mix of shapes.
double draw(std::mt19937_64& rng) {
  const std::uint64_t bits = rng();
  const double unit = static_cast<double>(rng() >> 11) * 0x1.0p-53;
  switch (bits % 4) {
    case 0: {  // any bit pattern: all magnitudes, denormals, inf, NaN
      const std::uint64_t pattern = rng();
      double v = 0.0;
      std::memcpy(&v, &pattern, sizeof v);
      return v;
    }
    case 1: {  // log-uniform 1e-6 .. 1e18 ns, either sign
      const double v = std::pow(10.0, -6.0 + 24.0 * unit);
      return (bits & 4) != 0 ? -v : v;
    }
    case 2:  // near ties: (n + 0.5) ns is n.5e-3 us, never exact in binary
      return std::floor(unit * 1e12) + 0.5;
    default:  // exact ties: k * 62.5 ns = k/16 us, a tie for odd k
      return std::floor(unit * 1e9) * 62.5;
  }
}

TEST(ChromeJsonDifferential, SeededRandomDoublesMatchPrintf) {
  std::mt19937_64 rng(20230614);
  std::size_t mismatches = 0;
  std::vector<double> batch;
  batch.reserve(kBatch);
  for (std::size_t done = 0; done < kRandomDoubles; done += kBatch) {
    batch.clear();
    for (std::size_t i = 0; i < kBatch; ++i) {
      batch.push_back(draw(rng));
    }
    mismatches += countMismatches(batch);
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(ChromeJsonDifferential, EdgeValuesMatchPrintf) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kMax = std::numeric_limits<double>::max();
  constexpr double kMinNormal = std::numeric_limits<double>::min();
  constexpr double kDenorm = std::numeric_limits<double>::denorm_min();
  const double k2p53Us = 0x1.0p53 * 1e3;  // 2^53 us, exact in ns too
  const std::vector<double> edges = {
      0.0,          -0.0,          0.4,         0.5,          -0.5,
      62.5,         187.5,         -62.5,       1.0005e3,     2.5e12 + 0.25,
      1e12,         1e15,          k2p53Us,     -k2p53Us,     k2p53Us + 2e3,
      kDenorm,      -kDenorm,      kMinNormal,  -kMinNormal,  kDenorm * 1e3,
      kMax,         -kMax,         kInf,        -kInf,        kNan,
      -kNan,        999.9995,      999.9994999, 0.0005e3,     -999.9995,
  };
  EXPECT_EQ(countMismatches(edges), 0u);
}

}  // namespace
}  // namespace nodebench::trace
