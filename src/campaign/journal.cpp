#include "campaign/journal.hpp"

#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "campaign/shard.hpp"
#include "trace/trace.hpp"

namespace nodebench::campaign {

namespace {

/// Defensive decode limits: a record longer than any legitimate cell
/// payload (1 MiB), a string longer than any machine/cell/error text, or
/// a journal larger than any real campaign (256 MiB) is treated as
/// corruption, not an allocation request.
constexpr FramedFormat kFormat{
    .magic = {'N', 'B', 'C', 'J'},
    .version = 1,
    .maxFrameBytes = 1u << 20,
    .maxFileBytes = 256ull << 20,
    .tail = TailPolicy::Truncate,
    .raise = &raiseAs<JournalCorruptError>,
    .title = "campaign journal",
    .noun = "journal",
    .fileNoun = "journal file",
    .unit = "record",
};
constexpr std::uint32_t kMaxStringBytes = 1u << 16;

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

std::string cellKey(std::string_view machine, std::string_view cell) {
  std::string key;
  key.reserve(machine.size() + 1 + cell.size());
  key.append(machine);
  key.push_back('\x1f');
  key.append(cell);
  return key;
}

// --- PayloadWriter / PayloadReader ------------------------------------------

void PayloadWriter::putU32(std::uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    bytes_.push_back(static_cast<std::uint8_t>((value >> (8 * i)) & 0xffu));
  }
}

void PayloadWriter::putU64(std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    bytes_.push_back(static_cast<std::uint8_t>((value >> (8 * i)) & 0xffu));
  }
}

void PayloadWriter::putF64(double value) {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof value);
  std::memcpy(&bits, &value, sizeof bits);
  putU64(bits);
}

void PayloadWriter::putString(std::string_view s) {
  NB_EXPECTS(s.size() <= kMaxStringBytes);
  putU32(static_cast<std::uint32_t>(s.size()));
  bytes_.insert(bytes_.end(), s.begin(), s.end());
}

void PayloadReader::need(std::size_t n) const {
  if (bytes_.size() - pos_ < n) {
    throw JournalCorruptError("journal payload truncated: wanted " +
                              std::to_string(n) + " byte(s) at offset " +
                              std::to_string(pos_));
  }
}

std::uint32_t PayloadReader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(bytes_[pos_ + i]) << (8 * i);
  }
  pos_ += 4;
  return v;
}

std::uint64_t PayloadReader::u64() {
  const std::uint64_t lo = u32();
  const std::uint64_t hi = u32();
  return lo | (hi << 32);
}

double PayloadReader::f64() {
  const std::uint64_t bits = u64();
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof value);
  return value;
}

std::string PayloadReader::string() {
  const std::uint32_t len = u32();
  if (len > kMaxStringBytes) {
    throw JournalCorruptError("journal string length " + std::to_string(len) +
                              " exceeds the " +
                              std::to_string(kMaxStringBytes) + "-byte limit");
  }
  need(len);
  std::string out(reinterpret_cast<const char*>(bytes_.data() + pos_), len);
  pos_ += len;
  return out;
}

std::vector<std::uint8_t> PayloadReader::blob(std::uint32_t len) {
  need(len);
  std::vector<std::uint8_t> out(bytes_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                bytes_.begin() + static_cast<std::ptrdiff_t>(pos_ + len));
  pos_ += len;
  return out;
}

void putSummary(PayloadWriter& w, const Summary& s) {
  w.putU64(static_cast<std::uint64_t>(s.count));
  w.putF64(s.mean);
  w.putF64(s.stddev);
  w.putF64(s.min);
  w.putF64(s.max);
}

Summary readSummary(PayloadReader& r) {
  Summary s;
  s.count = static_cast<std::size_t>(r.u64());
  s.mean = r.f64();
  s.stddev = r.f64();
  s.min = r.f64();
  s.max = r.f64();
  return s;
}

// --- CampaignConfig ----------------------------------------------------------

std::string describeConfigMismatch(const CampaignConfig& recorded,
                                   const CampaignConfig& current,
                                   std::string_view noun,
                                   std::string_view advice) {
  const auto diff = [&](const std::string& param, const std::string& was,
                        const std::string& now) {
    std::string n(noun);
    return n + " configuration mismatch: " + param + " was " + was +
           " when the " + n + " was recorded but is " + now +
           " in this run; " + std::string(advice);
  };
  // Compared in this order; the two hashes print as hex.
  static constexpr const char* kParams[] = {
      "the machine registry",       "the fault plan (--faults)",
      "the fault-plan seed",        "--runs",
      "the cell retry budget",      "the CPU array size (bytes)",
      "the GPU array size (bytes)", "the MPI message size (bytes)"};
  const auto fields = [](const CampaignConfig& c) {
    return std::array<std::uint64_t, 8>{
        c.registryHash,  c.faultPlanHash, c.seed,          c.runs,
        c.cellRetries,   c.cpuArrayBytes, c.gpuArrayBytes, c.mpiMessageSize};
  };
  const auto was = fields(recorded);
  const auto now = fields(current);
  for (std::size_t i = 0; i < was.size(); ++i) {
    if (was[i] != now[i]) {
      const auto text = [i](std::uint64_t v) {
        return i < 2 ? hex(v) : std::to_string(v);
      };
      return diff(kParams[i], text(was[i]), text(now[i]));
    }
  }
  if (recorded.shardIndex != current.shardIndex ||
      recorded.shardCount != current.shardCount) {
    return diff("the shard spec (--shard)",
                shardSpecText({recorded.shardIndex, recorded.shardCount}),
                shardSpecText({current.shardIndex, current.shardCount}));
  }
  // Note: `jobs` is deliberately not compared — output is byte-identical
  // at any worker count (DESIGN.md §7), so resuming at a different --jobs
  // is safe.
  return {};
}

void putCampaignConfig(PayloadWriter& w, const CampaignConfig& config,
                       bool shardExtension) {
  w.putU64(config.registryHash);
  w.putU64(config.faultPlanHash);
  w.putU64(config.seed);
  w.putU32(config.runs);
  w.putU32(config.jobs);
  w.putU32(config.cellRetries);
  w.putU64(config.cpuArrayBytes);
  w.putU64(config.gpuArrayBytes);
  w.putU64(config.mpiMessageSize);
  if (shardExtension && config.shardCount != 0) {
    w.putU32(config.shardIndex);
    w.putU32(config.shardCount);
  }
}

CampaignConfig readCampaignConfig(PayloadReader& r, const FramedFormat& format,
                                  bool shardExtension) {
  CampaignConfig c;
  c.registryHash = r.u64();
  c.faultPlanHash = r.u64();
  c.seed = r.u64();
  c.runs = r.u32();
  c.jobs = r.u32();
  c.cellRetries = r.u32();
  c.cpuArrayBytes = r.u64();
  c.gpuArrayBytes = r.u64();
  c.mpiMessageSize = r.u64();
  if (!shardExtension) {
    return c;
  }
  const std::string noun = format.noun;
  if (!r.atEnd()) {
    c.shardIndex = r.u32();
    c.shardCount = r.u32();
    if (c.shardCount == 0 || c.shardCount > kMaxShardCount ||
        c.shardIndex >= c.shardCount) {
      format.raise(noun + " header carries an invalid shard spec " +
                   std::to_string(c.shardIndex) + "/" +
                   std::to_string(c.shardCount));
    }
  }
  if (!r.atEnd()) {
    format.raise(noun + " header carries unexpected bytes");
  }
  return c;
}

// --- encode / decode ---------------------------------------------------------

std::vector<std::uint8_t> Journal::encodeHeader(const CampaignConfig& config) {
  PayloadWriter w;
  putCampaignConfig(w, config, /*shardExtension=*/true);
  return encodeFramedHeader(kFormat, w.bytes());
}

std::vector<std::uint8_t> Journal::encodeRecord(const CellRecord& record) {
  PayloadWriter w;
  w.putString(record.machine);
  w.putString(record.cell);
  w.putU32(record.attempts);
  w.putU32(record.failed ? 1 : 0);
  w.putString(record.error);
  w.putU32(static_cast<std::uint32_t>(record.payload.size()));
  std::vector<std::uint8_t> bytes = w.bytes();
  bytes.insert(bytes.end(), record.payload.begin(), record.payload.end());
  return frame(bytes);
}

Journal::Decoded Journal::decode(std::span<const std::uint8_t> bytes) {
  Decoded out;
  const auto onHeader = [&](std::span<const std::uint8_t> payload) {
    PayloadReader r(payload);
    out.config = readCampaignConfig(r, kFormat, /*shardExtension=*/true);
  };
  const auto onRecord = [&](std::span<const std::uint8_t> payload) {
    PayloadReader r(payload);
    CellRecord record;
    record.machine = utf8Checked(kFormat, r.string(), "machine");
    record.cell = utf8Checked(kFormat, r.string(), "cell");
    record.attempts = r.u32();
    const std::uint32_t failed = r.u32();
    if (failed > 1) {
      throw JournalCorruptError("journal record 'failed' flag out of range");
    }
    record.failed = failed == 1;
    record.error = utf8Checked(kFormat, r.string(), "error");
    const std::uint32_t blobLen = r.u32();
    record.payload = r.blob(blobLen);
    if (!r.atEnd()) {
      throw JournalCorruptError("journal record carries trailing bytes");
    }
    out.records.push_back(std::move(record));
  };
  out.validBytes = decodeFramed(kFormat, bytes, onHeader, onRecord, out.warnings);
  return out;
}

// --- Journal lifecycle -------------------------------------------------------

namespace {

void traceJournalEvent(trace::Category category, std::uint64_t bytes) {
  if (trace::TraceBuffer* tb = trace::current()) {
    trace::Event e;
    e.category = category;
    e.actorKind = trace::ActorKind::Campaign;
    e.actor = 0;
    e.bytes = bytes;
    tb->event(e);
    tb->count(category == trace::Category::JournalAppend
                  ? "campaign.records appended"
                  : "campaign.records replayed");
  }
}

}  // namespace

std::unique_ptr<Journal> Journal::create(const std::string& path,
                                         const CampaignConfig& config) {
  auto journal = std::unique_ptr<Journal>(new Journal());
  journal->log_ = FramedLog::create(kFormat, path, encodeHeader(config));
  journal->config_ = config;
  return journal;
}

std::unique_ptr<Journal> Journal::resume(const std::string& path,
                                         const CampaignConfig& current) {
  const std::vector<std::uint8_t> bytes = loadCapped(kFormat, path);
  Decoded decoded = decode(bytes);
  refuseMismatch(path, describeConfigMismatch(decoded.config, current));
  auto journal = std::unique_ptr<Journal>(new Journal());
  journal->log_ = FramedLog::reopen(kFormat, path, bytes, decoded.validBytes);
  journal->config_ = decoded.config;
  journal->warnings_ = std::move(decoded.warnings);
  for (CellRecord& record : decoded.records) {
    std::string key = cellKey(record.machine, record.cell);
    journal->records_.emplace(std::move(key), std::move(record));
  }
  return journal;
}

const CellRecord* Journal::find(std::string_view machine,
                                std::string_view cell) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = records_.find(cellKey(machine, cell));
  if (it == records_.end()) {
    return nullptr;
  }
  traceJournalEvent(trace::Category::JournalReplay,
                    it->second.payload.size());
  // Records are never mutated or erased after insertion, so the pointer
  // stays valid outside the lock (std::map nodes are address-stable).
  return &it->second;
}

void Journal::append(CellRecord record) {
  const std::lock_guard<std::mutex> lock(mu_);
  std::string key = cellKey(record.machine, record.cell);
  if (records_.find(key) != records_.end()) {
    return;  // idempotent: `table all` recomputes Tables 5/6 for Table 7
  }
  const std::vector<std::uint8_t> framed = encodeRecord(record);
  log_->append(framed);
  traceJournalEvent(trace::Category::JournalAppend, framed.size());
  const bool isCell = !record.machine.empty();
  records_.emplace(std::move(key), std::move(record));
  if (!isCell) {
    // Shard manifests (machine == "") are bookkeeping, not measurements:
    // they neither count toward --crash-after-cell nor toward
    // appendedThisProcess(), so "crash after N cells" still means cells.
    return;
  }
  ++appended_;
  if (crashAfter_ >= 0 &&
      appended_ >= static_cast<std::size_t>(crashAfter_)) {
    // Crash-injection hook: simulate an operator kill / OOM at an
    // arbitrary campaign point. The record just written is durable
    // (fsync above); everything in flight is lost, as in a real crash.
    std::_Exit(kCrashExitCode);
  }
}

std::size_t Journal::recordCount() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

std::size_t Journal::cellRecordCount() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& [key, record] : records_) {
    if (!record.machine.empty()) {
      ++n;
    }
  }
  return n;
}

std::size_t Journal::appendedThisProcess() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return appended_;
}

}  // namespace nodebench::campaign
