#include "trace/sink.hpp"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <map>
#include <string_view>
#include <utility>
#include <vector>

#include "core/table.hpp"

namespace nodebench::trace {

namespace {

constexpr std::string_view kHeader = "{\"traceEvents\":[\n";
constexpr std::string_view kTail = "],\"displayTimeUnit\":\"ms\"}\n";

/// Longest `%.3f` text of a double: sign, 309 integer digits, point and
/// three decimals (inf and nan are shorter).
constexpr std::size_t kMaxFixed3 = 1 + 309 + 1 + 3;

/// Longest record: two such numbers plus the fixed text, names and
/// integers around them.
constexpr std::size_t kMaxRecord = 2 * kMaxFixed3 + 256;

/// Bytes reserved per event; real slices average a little over 110, and
/// a longer trace just grows the buffer as usual.
constexpr std::size_t kReservePerEvent = 128;

/// One actor lane of a scope: a Chrome thread.
using Lane = std::pair<ActorKind, int>;

char* put(char* p, std::string_view s) {
  std::memcpy(p, s.data(), s.size());
  return p + s.size();
}

/// Decimal integer; room for any 64-bit value and its sign.
template <typename Int>
char* putInt(char* p, Int v) {
  return std::to_chars(p, p + 24, v).ptr;
}

/// Microseconds with fixed sub-ns resolution — the `%.3f` convention the
/// mpisim timeline tracer uses. `std::to_chars` with fixed precision is
/// specified to print exactly what `printf("%.3f")` prints.
char* putUs(char* p, Duration d) {
  return std::to_chars(p, p + kMaxFixed3, d.us(), std::chars_format::fixed, 3)
      .ptr;
}

/// Appends `s` as the body of a JSON string. Scope labels only ever carry
/// printable ASCII, but quotes/backslashes must never corrupt the
/// document; control characters become `\u00XX`.
void appendEscaped(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (u < 0x20) {
      out += "\\u00";
      out += kHex[u >> 4];
      out += kHex[u & 0xf];
    } else {
      out += c;
    }
  }
}

/// Appends one scope's records — its process name, one thread name per
/// lane and one "X" slice per event — each followed by ",\n".
void appendScope(std::string& out, const TraceBuffer& buffer, int pid) {
  char rec[kMaxRecord];
  char pidBuf[24];
  const std::string_view pidText(
      pidBuf, static_cast<std::size_t>(putInt(pidBuf, pid) - pidBuf));

  out += R"({"name":"process_name","ph":"M","pid":)";
  out += pidText;
  out += R"(,"args":{"name":")";
  appendEscaped(out, buffer.label());
  out += "\"}},\n";

  // Tids follow sorted lane order, so they are deterministic regardless
  // of event order.
  std::vector<Lane> lanes;
  for (const Event& e : buffer.events()) {
    const Lane lane{e.actorKind, e.actor};
    if (lanes.empty() || lanes.back() != lane) {
      lanes.push_back(lane);
    }
  }
  std::sort(lanes.begin(), lanes.end());
  lanes.erase(std::unique(lanes.begin(), lanes.end()), lanes.end());
  for (std::size_t tid = 0; tid < lanes.size(); ++tid) {
    char* p = put(rec, R"({"name":"thread_name","ph":"M","pid":)");
    p = put(p, pidText);
    p = put(p, R"(,"tid":)");
    p = putInt(p, tid);
    p = put(p, R"(,"args":{"name":")");
    p = put(p, actorKindName(lanes[tid].first));  // never needs escaping
    *p++ = ' ';
    p = putInt(p, lanes[tid].second);
    p = put(p, "\"}},\n");
    out.append(rec, static_cast<std::size_t>(p - rec));
  }

  // The text between an event's name and its timestamp depends only on
  // its lane, so it is built once per run of same-lane events.
  std::string laneText;
  Lane current{};
  for (const Event& e : buffer.events()) {
    const Lane lane{e.actorKind, e.actor};
    if (laneText.empty() || lane != current) {
      current = lane;
      const auto tid =
          std::lower_bound(lanes.begin(), lanes.end(), lane) - lanes.begin();
      char* p = put(rec, R"(","cat":")");
      p = put(p, actorKindName(lane.first));
      p = put(p, R"(","ph":"X","pid":)");
      p = put(p, pidText);
      p = put(p, R"(,"tid":)");
      p = putInt(p, tid);
      p = put(p, R"(,"ts":)");
      laneText.assign(rec, static_cast<std::size_t>(p - rec));
    }
    char* p = put(rec, R"({"name":")");
    p = put(p, categoryName(e.category));
    p = put(p, laneText);
    p = putUs(p, e.begin);
    p = put(p, R"(,"dur":)");
    p = putUs(p, e.duration);
    p = put(p, R"(,"args":{"peer":)");
    p = putInt(p, e.peer);
    p = put(p, R"(,"bytes":)");
    p = putInt(p, e.bytes);
    p = put(p, "}},\n");
    out.append(rec, static_cast<std::size_t>(p - rec));
  }
}

using Rows = std::vector<std::vector<std::string>>;

/// Appends a titled ASCII table of `rows` to `doc`; nothing when empty.
void appendTable(std::string& doc, std::vector<std::string> headers,
                 std::string title, Rows rows) {
  if (rows.empty()) {
    return;
  }
  Table t(std::move(headers));
  t.setTitle(std::move(title));
  for (auto& row : rows) {
    t.addRow(std::move(row));
  }
  doc += '\n' + t.renderAscii();
}

}  // namespace

std::string chromeJson(const Session& session) {
  const std::vector<const TraceBuffer*> buffers = session.ordered();
  std::size_t events = 0;
  for (const TraceBuffer* buffer : buffers) {
    events += buffer->events().size();
  }
  std::string out;
  out.reserve(kHeader.size() + kTail.size() + buffers.size() * kMaxRecord +
              events * kReservePerEvent);
  out += kHeader;
  int pid = 0;
  for (const TraceBuffer* buffer : buffers) {
    appendScope(out, *buffer, pid++);
  }
  if (out.size() > kHeader.size()) {
    out.resize(out.size() - 2);  // the last record's ",\n"
    out += '\n';
  }
  out += kTail;
  return out;
}

std::string metricsSummary(const Session& session) {
  Rows eventRows;
  Rows counterRows;
  Rows histogramRows;
  for (const TraceBuffer* buffer : session.ordered()) {
    const std::string scopeName =
        buffer->occurrence() == 0
            ? buffer->label()
            : buffer->label() + " #" + std::to_string(buffer->occurrence() + 1);

    // Per-category totals, in Category declaration order.
    std::map<Category, std::pair<std::uint64_t, Duration>> byCategory;
    for (const Event& e : buffer->events()) {
      auto& [n, busy] = byCategory[e.category];
      ++n;
      busy = busy + e.duration;
    }
    for (const auto& [category, total] : byCategory) {
      eventRows.push_back({scopeName, std::string(categoryName(category)),
                           std::to_string(total.first),
                           formatFixed(total.second.us(), 3)});
    }
    for (const auto& [name, value] : buffer->counters()) {
      counterRows.push_back({scopeName, name, std::to_string(value)});
    }
    for (const auto& [name, h] : buffer->histograms()) {
      histogramRows.push_back(
          {scopeName, name, std::to_string(h.count()), formatFixed(h.min(), 3),
           formatFixed(h.mean(), 3), "~" + formatFixed(h.quantile(0.5), 3),
           "~" + formatFixed(h.quantile(0.99), 3), formatFixed(h.max(), 3)});
    }
  }

  std::string doc = "\nTrace metrics appendix\n";
  if (eventRows.empty() && counterRows.empty() && histogramRows.empty()) {
    return doc + "(nothing recorded)\n";
  }
  appendTable(doc, {"Scope", "Category", "Events", "Busy (us)"},
              "Events by scope and category", std::move(eventRows));
  appendTable(doc, {"Scope", "Counter", "Value"}, "Counters",
              std::move(counterRows));
  appendTable(doc,
              {"Scope", "Histogram", "Count", "Min", "Mean", "P50", "P99",
               "Max"},
              "Histograms (quantiles are bucket approximations)",
              std::move(histogramRows));
  return doc;
}

}  // namespace nodebench::trace
