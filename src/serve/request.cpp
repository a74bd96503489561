#include "serve/request.hpp"

#include <algorithm>
#include <cmath>

#include "core/error.hpp"
#include "core/json_value.hpp"
#include "machines/registry.hpp"
#include "report/family.hpp"
#include "serve/json_writer.hpp"

namespace nodebench::serve {

namespace {

/// The request fields the decoder accepts; anything else is an error.
/// Strictness is the fuzz-hardening posture: a typo'd "run" silently
/// falling back to 100 runs would waste hours of measurement.
constexpr const char* kKnownFields[] = {
    "tenant",          "tables",
    "families",
    "runs",            "jobs",
    "machines",        "fault_plan",
    "seed",            "store_samples",
    "watchdog_ms",     "wait",
    "cell_retries",    "retry_backoff_base_ms",
    "retry_backoff_max_ms", "debug_cell_delay_ms",
};

bool knownField(std::string_view key) {
  return std::any_of(std::begin(kKnownFields), std::end(kKnownFields),
                     [&](const char* f) { return key == f; });
}

bool validTenantChar(char c) {
  return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
         (c >= '0' && c <= '9') || c == '_' || c == '-';
}

/// Integral number in [lo, hi]; throws naming the field otherwise.
int intField(const JsonValue& v, const char* field, long lo, long hi) {
  const double d = v.asNumber();
  if (!std::isfinite(d) || d != std::floor(d)) {
    throw Error(std::string("\"") + field + "\" must be an integer");
  }
  if (d < static_cast<double>(lo) || d > static_cast<double>(hi)) {
    throw Error(std::string("\"") + field + "\" must be in [" +
                std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }
  return static_cast<int>(d);
}

}  // namespace

CampaignRequest CampaignRequest::fromJson(std::string_view text) {
  const JsonValue doc = JsonValue::parse(text);
  if (!doc.isObject()) {
    throw Error("campaign request must be a JSON object");
  }
  for (const auto& [key, unused] : doc.asObject()) {
    if (!knownField(key)) {
      throw Error("unknown request field \"" + key + "\"");
    }
  }

  CampaignRequest req;
  if (const JsonValue* v = doc.find("tenant")) {
    req.tenant = v->asString();
    if (req.tenant.empty() || req.tenant.size() > 64 ||
        !std::all_of(req.tenant.begin(), req.tenant.end(), validTenantChar)) {
      throw Error(
          "\"tenant\" must be 1..64 characters of [A-Za-z0-9_-]");
    }
  }

  if (const JsonValue* v = doc.find("tables")) {
    for (const JsonValue& entry : v->asArray()) {
      req.tables.push_back(intField(entry, "tables", 4, 7));
    }
    if (req.tables.empty()) {
      // An explicit empty list is a request to measure nothing — almost
      // certainly a client bug; reject it instead of guessing.
      throw Error("\"tables\" must not be empty");
    }
    std::sort(req.tables.begin(), req.tables.end());
    req.tables.erase(std::unique(req.tables.begin(), req.tables.end()),
                     req.tables.end());
  } else if (doc.find("families") == nullptr) {
    // Only when the request names neither tables nor families: a
    // families-only request runs just the families.
    req.tables = {4};
  }

  if (const JsonValue* v = doc.find("families")) {
    for (const JsonValue& entry : v->asArray()) {
      const std::string f = entry.asString();
      const report::Family* family = report::findFamily(f);
      if (family == nullptr || family->paperTable) {
        throw Error("\"families\" entries must be \"sweep\" or \"chase\", "
                    "got \"" + f + "\"");
      }
      req.families.push_back(f);
    }
    if (req.families.empty()) {
      throw Error("\"families\" must not be empty");
    }
    std::sort(req.families.begin(), req.families.end());
    req.families.erase(
        std::unique(req.families.begin(), req.families.end()),
        req.families.end());
  }

  if (const JsonValue* v = doc.find("runs")) {
    req.runs = intField(*v, "runs", 1, 100000);
  }
  if (const JsonValue* v = doc.find("jobs")) {
    req.jobs = intField(*v, "jobs", 1, 256);
  }

  if (const JsonValue* v = doc.find("machines")) {
    for (const JsonValue& entry : v->asArray()) {
      // byName throws for unknown names; re-throw with the field named
      // so the client knows which part of the request to fix. The
      // canonical registry spelling is what the harness filter matches.
      try {
        req.machines.push_back(machines::byName(entry.asString()).info.name);
      } catch (const Error&) {
        throw Error("\"machines\" names unknown machine \"" +
                    entry.asString() + "\"");
      }
    }
    std::sort(req.machines.begin(), req.machines.end());
    req.machines.erase(
        std::unique(req.machines.begin(), req.machines.end()),
        req.machines.end());
  }

  if (const JsonValue* v = doc.find("fault_plan")) {
    req.faultPlan = faults::FaultPlan::fromJsonValue(*v);
  }
  if (const JsonValue* v = doc.find("seed")) {
    if (!req.faultPlan) {
      throw Error("\"seed\" requires \"fault_plan\" (the seed drives the "
                  "plan's deterministic draws)");
    }
    const double d = v->asNumber();
    if (!std::isfinite(d) || d != std::floor(d) || d < 0.0 ||
        d >= 9007199254740992.0 /* 2^53 */) {
      throw Error("\"seed\" must be an integer in [0, 2^53)");
    }
    req.faultPlan->seed = static_cast<std::uint64_t>(d);
  }

  if (const JsonValue* v = doc.find("store_samples")) {
    req.storeSamples = v->asBool();
  }
  if (const JsonValue* v = doc.find("watchdog_ms")) {
    req.watchdogMs = intField(*v, "watchdog_ms", 0, 86400000);
  }
  if (const JsonValue* v = doc.find("wait")) {
    req.wait = v->asBool();
  }
  if (const JsonValue* v = doc.find("cell_retries")) {
    req.cellRetries = intField(*v, "cell_retries", 0, 100);
  }
  if (const JsonValue* v = doc.find("retry_backoff_base_ms")) {
    req.retryBackoffBaseMs =
        intField(*v, "retry_backoff_base_ms", 0, 60000);
  }
  if (const JsonValue* v = doc.find("retry_backoff_max_ms")) {
    req.retryBackoffMaxMs =
        intField(*v, "retry_backoff_max_ms", 1, 600000);
  }
  if (req.retryBackoffMaxMs < req.retryBackoffBaseMs) {
    throw Error(
        "\"retry_backoff_max_ms\" must be >= \"retry_backoff_base_ms\"");
  }
  if (const JsonValue* v = doc.find("debug_cell_delay_ms")) {
    req.debugCellDelayMs = intField(*v, "debug_cell_delay_ms", 0, 60000);
  }
  return req;
}

std::string CampaignRequest::canonicalJson() const {
  JsonWriter w;
  w.beginObject();
  w.key("tenant").value(tenant);
  // A families-only request has no tables; omitting the key (rather than
  // emitting an empty array the strict decoder would reject) keeps the
  // canonical form re-parseable, and pre-families canonical documents
  // keep their exact bytes.
  if (!tables.empty()) {
    w.key("tables").beginArray();
    for (const int t : tables) {
      w.value(t);
    }
    w.endArray();
  }
  if (!families.empty()) {
    w.key("families").beginArray();
    for (const std::string& f : families) {
      w.value(f);
    }
    w.endArray();
  }
  w.key("runs").value(runs);
  w.key("jobs").value(jobs);
  w.key("machines").beginArray();
  for (const std::string& m : machines) {
    w.value(m);
  }
  w.endArray();
  if (faultPlan) {
    w.key("fault_plan").beginObject();
    // Seeds reach the plan through a double, so every stored value is
    // exactly double-representable and the decimal rendering round-trips.
    w.key("seed").value(static_cast<std::uint64_t>(faultPlan->seed));
    w.key("faults").beginArray();
    for (const faults::FaultSpec& f : faultPlan->faults) {
      w.beginObject();
      w.key("type").value(faults::faultTypeName(f.type));
      w.key("machine").value(f.machine);
      w.key("link").value(f.link);
      w.key("bandwidth_factor").value(f.bandwidthFactor);
      w.key("added_latency_us").value(f.addedLatency.us());
      w.key("cv_factor").value(f.cvFactor);
      w.key("slowdown").value(f.slowdown);
      w.key("rate").value(f.rate);
      w.endObject();
    }
    w.endArray();
    w.endObject();
  }
  w.key("store_samples").value(storeSamples);
  w.key("watchdog_ms").value(watchdogMs);
  w.key("wait").value(wait);
  w.key("cell_retries").value(cellRetries);
  w.key("retry_backoff_base_ms").value(retryBackoffBaseMs);
  w.key("retry_backoff_max_ms").value(retryBackoffMaxMs);
  w.key("debug_cell_delay_ms").value(debugCellDelayMs);
  w.endObject();
  return w.str();
}

std::string CampaignRequest::measurementKey() const {
  JsonWriter w;
  w.beginObject();
  if (!tables.empty()) {
    w.key("tables").beginArray();
    for (const int t : tables) {
      w.value(t);
    }
    w.endArray();
  }
  if (!families.empty()) {
    w.key("families").beginArray();
    for (const std::string& f : families) {
      w.value(f);
    }
    w.endArray();
  }
  w.key("runs").value(runs);
  w.key("machines").beginArray();
  for (const std::string& m : machines) {
    w.value(m);
  }
  w.endArray();
  w.key("cell_retries").value(cellRetries);
  if (faultPlan) {
    // The plan's canonical rendering, reused from canonicalJson via a
    // stripped-down request: only the plan differs between keys.
    CampaignRequest planOnly;
    planOnly.faultPlan = faultPlan;
    w.key("fault_plan").value(planOnly.canonicalJson());
  }
  w.endObject();
  return w.str();
}

report::TableOptions CampaignRequest::tableOptions() const {
  report::TableOptions opt;
  opt.binaryRuns = runs;
  opt.jobs = jobs;
  opt.cellRetries = cellRetries;
  opt.retryBackoffBaseMs = retryBackoffBaseMs;
  opt.retryBackoffMaxMs = retryBackoffMaxMs;
  opt.testCellDelayMs = debugCellDelayMs;
  if (faultPlan) {
    opt.faults = &*faultPlan;
  }
  if (!machines.empty()) {
    opt.machines = &machines;
  }
  return opt;
}

}  // namespace nodebench::serve
