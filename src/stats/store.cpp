#include "stats/store.hpp"

#include <sys/stat.h>

#include <utility>

namespace nodebench::stats {

namespace {

/// Defensive decode limits. A record carries a full sample vector (8
/// bytes per repetition), so the per-record cap is far above the
/// journal's: 64 MiB covers ~8.4M samples, three orders of magnitude
/// beyond the paper's 100-run methodology; a store above 512 MiB is
/// refused unread. Anything larger is treated as corruption, not an
/// allocation request.
constexpr campaign::FramedFormat kFormat{
    .magic = {'N', 'B', 'R', 'S'},
    .version = 1,
    .maxFrameBytes = 64u << 20,
    .maxFileBytes = 512ull << 20,
    .tail = campaign::TailPolicy::Refuse,
    .raise = &campaign::raiseAs<StoreCorruptError>,
    .title = "results store",
    .noun = "store",
    .fileNoun = "store file",
    .unit = "record",
};
constexpr std::uint32_t kMaxSampleCount = 1u << 22;

using campaign::cellKey;

std::string recordKey(std::string_view machine, std::string_view cell,
                      std::string_view quantity) {
  std::string key = cellKey(machine, cell);
  key.push_back('\x1f');
  key.append(quantity);
  return key;
}

}  // namespace

// --- configuration compatibility --------------------------------------------

std::string describeStoreMismatch(const campaign::CampaignConfig& recorded,
                                  const campaign::CampaignConfig& current) {
  return campaign::describeConfigMismatch(
      recorded, current, "store",
      "samples measured under different configurations are not comparable "
      "— rerun with the original parameters or write a fresh store");
}

// --- encode / decode ---------------------------------------------------------

std::vector<std::uint8_t> ResultStore::encodeHeader(
    const campaign::CampaignConfig& config) {
  campaign::PayloadWriter w;
  campaign::putCampaignConfig(w, config, /*shardExtension=*/true);
  return campaign::encodeFramedHeader(kFormat, w.bytes());
}

std::vector<std::uint8_t> ResultStore::encodeRecord(
    const SampleRecord& record) {
  NB_EXPECTS(record.samples.size() == record.summary.count);
  NB_EXPECTS(record.samples.size() <= kMaxSampleCount);
  campaign::PayloadWriter w;
  w.putString(record.machine);
  w.putString(record.cell);
  w.putString(record.quantity);
  w.putString(record.unit);
  w.putU32(static_cast<std::uint32_t>(record.better));
  campaign::putSummary(w, record.summary);
  w.putU32(static_cast<std::uint32_t>(record.samples.size()));
  for (const double x : record.samples) {
    w.putF64(x);
  }
  return campaign::frame(w.bytes());
}

StoreContents ResultStore::decode(std::span<const std::uint8_t> bytes) {
  // Unlike the journal, every frame here is mandatory-valid: a store is a
  // finished results artifact, and comparing against a silently truncated
  // baseline would be worse than refusing.
  StoreContents out;
  const auto onHeader = [&](std::span<const std::uint8_t> payload) {
    campaign::PayloadReader r(payload);
    out.config = campaign::readCampaignConfig(r, kFormat, /*shardExtension=*/true);
  };
  const auto onRecord = [&](std::span<const std::uint8_t> payload) {
    campaign::PayloadReader r(payload);
    SampleRecord record;
    record.machine = utf8Checked(kFormat, r.string(), "machine");
    record.cell = utf8Checked(kFormat, r.string(), "cell");
    record.quantity = utf8Checked(kFormat, r.string(), "quantity");
    record.unit = utf8Checked(kFormat, r.string(), "unit");
    const std::uint32_t better = r.u32();
    if (better > 1) {
      throw StoreCorruptError("store record 'better' flag out of range");
    }
    record.better = static_cast<Better>(better);
    record.summary = campaign::readSummary(r);
    const std::uint32_t nSamples = r.u32();
    if (nSamples > kMaxSampleCount) {
      throw StoreCorruptError("store record sample count " +
                              std::to_string(nSamples) + " exceeds the " +
                              std::to_string(kMaxSampleCount) + " limit");
    }
    if (nSamples != record.summary.count) {
      throw StoreCorruptError(
          "store record sample count " + std::to_string(nSamples) +
          " disagrees with its summary count " +
          std::to_string(record.summary.count));
    }
    record.samples.reserve(nSamples);
    for (std::uint32_t i = 0; i < nSamples; ++i) {
      record.samples.push_back(r.f64());
    }
    if (!r.atEnd()) {
      throw StoreCorruptError("store record carries trailing bytes");
    }
    out.records.push_back(std::move(record));
  };
  std::vector<std::string> noWarnings;  // Refuse never warns.
  (void)campaign::decodeFramed(kFormat, bytes, onHeader, onRecord, noWarnings);
  return out;
}

// --- ResultStore lifecycle ---------------------------------------------------

std::unique_ptr<ResultStore> ResultStore::create(
    const std::string& path, const campaign::CampaignConfig& config) {
  auto store = std::unique_ptr<ResultStore>(new ResultStore());
  store->log_ = campaign::FramedLog::create(kFormat, path, encodeHeader(config));
  store->config_ = config;
  return store;
}

std::unique_ptr<ResultStore> ResultStore::attach(
    const std::string& path, const campaign::CampaignConfig& current,
    bool resume) {
  if (!resume) {
    return create(path, current);
  }
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) {
    // Resuming a campaign whose first run predates --store (or crashed
    // before the header landed): start the store fresh.
    return create(path, current);
  }
  const std::vector<std::uint8_t> bytes = campaign::loadCapped(kFormat, path);
  StoreContents contents = decode(bytes);
  campaign::refuseMismatch(path, describeStoreMismatch(contents.config, current));
  auto store = std::unique_ptr<ResultStore>(new ResultStore());
  store->log_ = campaign::FramedLog::reopen(kFormat, path, bytes, bytes.size());
  store->config_ = contents.config;
  for (const SampleRecord& record : contents.records) {
    store->recordKeys_.insert(
        recordKey(record.machine, record.cell, record.quantity));
    store->cellKeys_.insert(cellKey(record.machine, record.cell));
  }
  return store;
}

StoreContents ResultStore::load(const std::string& path) {
  return decode(campaign::loadCapped(kFormat, path));
}

void ResultStore::append(SampleRecord record) {
  const std::lock_guard<std::mutex> lock(mu_);
  std::string key = recordKey(record.machine, record.cell, record.quantity);
  if (recordKeys_.find(key) != recordKeys_.end()) {
    return;  // idempotent: `table all` recomputes Tables 5/6 for Table 7
  }
  log_->append(encodeRecord(record));
  cellKeys_.insert(cellKey(record.machine, record.cell));
  recordKeys_.insert(std::move(key));
}

bool ResultStore::containsCell(std::string_view machine,
                               std::string_view cell) const {
  const std::lock_guard<std::mutex> lock(mu_);
  return cellKeys_.find(cellKey(machine, cell)) != cellKeys_.end();
}

std::size_t ResultStore::recordCount() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return recordKeys_.size();
}

}  // namespace nodebench::stats
