#pragma once
/// \file store.hpp
/// \brief Versioned on-disk results store: full per-repetition sample
/// vectors, the raw material of regression detection.
///
/// The campaign journal (campaign/journal.hpp) persists *summaries* so a
/// crashed run can resume; this store persists *samples* so two runs can
/// be compared statistically (`nodebench compare` / `gate`).
///
/// The file is an "NBRS" framed log (campaign/framed_log.hpp). Its header
/// is the journal's campaign-configuration fingerprint, so a comparison
/// between stores can name exactly which knob differed; each record is
/// machine, cell, quantity, unit, direction (lower- or higher-is-better),
/// the Summary and every raw sample as an exact IEEE-754 bit pattern.
/// Unlike the journal it refuses a torn tail: a store is a finished
/// artifact, so any invalid frame throws StoreCorruptError instead of
/// silently comparing against a partial run. The decoder is a fuzz
/// target (tests/fuzz/).
///
/// Appends are idempotent per (machine, cell, quantity) and thread-safe:
/// the parallel table harness writes records from worker threads, so
/// *file order* varies with `--jobs`, but consumers index records by key
/// — every comparison built from a store is byte-identical at any
/// worker count.

#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/journal.hpp"
#include "core/error.hpp"
#include "core/stats.hpp"

namespace nodebench::stats {

/// Thrown when a store file is unusable: bad magic, unsupported schema
/// version, or any framing/payload corruption. Unlike the journal there
/// is no torn-tail recovery — a results artifact is all-or-nothing.
class StoreCorruptError : public Error {
 public:
  using Error::Error;
};

/// Which direction of change is a regression for a quantity.
enum class Better : std::uint8_t {
  Lower = 0,   ///< Latencies: an increase is a regression.
  Higher = 1,  ///< Bandwidths: a decrease is a regression.
};

/// One stored measurement: a cell quantity with its full sample vector.
struct SampleRecord {
  std::string machine;
  std::string cell;      ///< Harness cell name (e.g. "host bandwidth").
  std::string quantity;  ///< Quantity within the cell (e.g. "latency").
  std::string unit;      ///< "us", "GB/s", ...
  Better better = Better::Lower;
  Summary summary;  ///< Aggregate of `samples`, stored for cheap scans.
  std::vector<double> samples;
};

/// A fully decoded store: the recorded configuration plus every record
/// in file order.
struct StoreContents {
  campaign::CampaignConfig config;
  std::vector<SampleRecord> records;
};

/// "" when resume-compatible (every field except `jobs` equal), else a
/// diagnostic naming the first mismatched parameter and both values.
[[nodiscard]] std::string describeStoreMismatch(
    const campaign::CampaignConfig& recorded,
    const campaign::CampaignConfig& current);

/// The append-side handle the measurement harness writes through.
class ResultStore {
 public:
  /// Starts a fresh store at `path` (atomic header write, then append
  /// stream). Refuses to overwrite an existing file.
  [[nodiscard]] static std::unique_ptr<ResultStore> create(
      const std::string& path, const campaign::CampaignConfig& config);

  /// Opens a store for a campaign: `resume == false` is create();
  /// `resume == true` reopens an existing file for appending — after
  /// verifying its recorded configuration matches `current`
  /// (campaign::ConfigMismatchError naming the parameter otherwise) — or
  /// creates the file when it does not exist yet.
  [[nodiscard]] static std::unique_ptr<ResultStore> attach(
      const std::string& path, const campaign::CampaignConfig& current,
      bool resume);

  /// Reads and strictly decodes a store file.
  [[nodiscard]] static StoreContents load(const std::string& path);

  /// Pure in-memory decode — the fuzz-target entry point. Throws
  /// StoreCorruptError on any deviation from the format.
  [[nodiscard]] static StoreContents decode(
      std::span<const std::uint8_t> bytes);

  /// Serialized forms (exposed for tests and the fuzz corpus).
  [[nodiscard]] static std::vector<std::uint8_t> encodeHeader(
      const campaign::CampaignConfig& config);
  [[nodiscard]] static std::vector<std::uint8_t> encodeRecord(
      const SampleRecord& record);

  ResultStore(const ResultStore&) = delete;
  ResultStore& operator=(const ResultStore&) = delete;

  /// CRC-framed append. Idempotent per (machine, cell, quantity) and
  /// thread-safe — the harness calls this from parallel workers.
  void append(SampleRecord record);

  /// True when any quantity of (machine, cell) is already stored — the
  /// harness's "skip re-measuring this cell" test.
  [[nodiscard]] bool containsCell(std::string_view machine,
                                  std::string_view cell) const;

  [[nodiscard]] const campaign::CampaignConfig& config() const {
    return config_;
  }
  [[nodiscard]] std::size_t recordCount() const;

 private:
  ResultStore() = default;

  std::unique_ptr<campaign::FramedLog> log_;
  campaign::CampaignConfig config_;
  std::set<std::string, std::less<>> recordKeys_;
  std::set<std::string, std::less<>> cellKeys_;
  mutable std::mutex mu_;
};

}  // namespace nodebench::stats
