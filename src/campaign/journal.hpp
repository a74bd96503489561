#pragma once
/// \file journal.hpp
/// \brief Crash-safe measurement journal: the durability layer of a
/// benchmark campaign.
///
/// The paper's methodology ("run each benchmark binary 100 times,
/// aggregate mean ± stddev") makes a full table run expensive; before
/// this layer, a crash, OOM-kill or Ctrl-C anywhere in a multi-machine
/// run discarded every completed cell. The journal makes campaigns
/// durable and resumable:
///
///  - **Append-only record log** ("NBCJ" framed log,
///    campaign/framed_log.hpp): one record per *completed* cell
///    measurement (success or exhausted-retries failure).
///  - **Schema-versioned header** carrying the campaign configuration
///    fingerprint: machine-registry hash, fault-plan hash, seed,
///    `--runs`/`--jobs` and the array/message-size knobs. Resuming under
///    a different configuration is refused with a diagnostic naming the
///    mismatched parameter — silently mixing configurations is exactly
///    the reproducibility failure the journal exists to prevent.
///  - **Torn-tail recovery.** A kill at any byte boundary leaves a file
///    the reader recovers from: the valid record prefix replays, the torn
///    tail is truncated with a warning (never an abort).
///  - **Deterministic replay.** Record payloads store result values as
///    exact IEEE-754 bit patterns, so a resumed campaign's tables are
///    byte-identical to an uninterrupted run at any `--jobs` value.
///
/// The journal trusts nothing it reads back: record lengths, string
/// sizes and UTF-8 validity are all bounds-checked (the decoder is a
/// fuzz target, see tests/fuzz/), and header corruption raises
/// `JournalCorruptError` rather than guessing.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/framed_log.hpp"
#include "core/error.hpp"
#include "core/stats.hpp"

namespace nodebench::campaign {

/// Thrown when a journal file is unusable (bad magic, unsupported
/// schema version, corrupt header). Record-level corruption is *not* an
/// error — it is recovered by torn-tail truncation.
class JournalCorruptError : public Error {
 public:
  using Error::Error;
};

/// Little-endian byte serializer for record payloads. Cells encode
/// their result values through this so replay restores bit-exact
/// doubles (byte-identical tables are the whole point).
class PayloadWriter {
 public:
  void putU32(std::uint32_t value);
  void putU64(std::uint64_t value);
  void putF64(double value);  ///< Exact bit pattern, not text.
  void putString(std::string_view s);

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const {
    return bytes_;
  }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Bounds-checked reader over a payload. Every accessor throws
/// JournalCorruptError on overrun or oversized strings — payloads come
/// from disk and are untrusted even after their CRC passed.
class PayloadReader {
 public:
  explicit PayloadReader(std::span<const std::uint8_t> bytes)
      : bytes_(bytes) {}

  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] double f64();
  [[nodiscard]] std::string string();
  /// Raw byte run of exactly `len` bytes (an opaque nested blob).
  [[nodiscard]] std::vector<std::uint8_t> blob(std::uint32_t len);
  [[nodiscard]] bool atEnd() const { return pos_ == bytes_.size(); }

 private:
  void need(std::size_t n) const;

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

/// Summary round-trip helpers shared by every journalled cell.
void putSummary(PayloadWriter& w, const Summary& s);
[[nodiscard]] Summary readSummary(PayloadReader& r);

/// The configuration fingerprint a journal header carries. Two campaign
/// runs are resume-compatible iff every field except `jobs` matches —
/// `jobs` is provenance only, because harness output is byte-identical
/// at any worker count (DESIGN.md §7), so resuming at a different
/// `--jobs` is safe and explicitly supported.
struct CampaignConfig {
  std::uint64_t registryHash = 0;   ///< campaign::registryHash()
  std::uint64_t faultPlanHash = 0;  ///< campaign::faultPlanHash(); 0 = none
  std::uint64_t seed = 0;           ///< Fault-plan seed; 0 without a plan.
  std::uint32_t runs = 100;         ///< --runs (binary runs per cell).
  std::uint32_t jobs = 0;           ///< --jobs at recording time (informational).
  std::uint32_t cellRetries = 2;
  std::uint64_t cpuArrayBytes = 0;
  std::uint64_t gpuArrayBytes = 0;
  std::uint64_t mpiMessageSize = 0;
  /// Shard identity (`--shard i/N`); count == 0 = unsharded. Encoded as
  /// an optional header extension only when sharded, so unsharded
  /// journals stay byte-identical to the pre-shard format. Resuming a
  /// shard journal under a different spec is refused like any other
  /// fingerprint mismatch.
  std::uint32_t shardIndex = 0;
  std::uint32_t shardCount = 0;
};

/// "" when compatible, else a diagnostic naming the first mismatched
/// parameter and both values (the `--resume` refusal message):
/// "<noun> configuration mismatch: <param> was <x> when the <noun> was
/// recorded but is <y> in this run; <advice>".
[[nodiscard]] std::string describeConfigMismatch(
    const CampaignConfig& recorded, const CampaignConfig& current,
    std::string_view noun = "journal",
    std::string_view advice =
        "rerun with the original parameters or start a fresh journal");

/// The CampaignConfig codec every framed header shares: the nine fixed
/// fields, then — with `shardExtension` — the shard spec, written only
/// when sharded so unsharded files stay byte-identical to the pre-shard
/// format. NBSV passes false and follows the fixed fields with its own.
void putCampaignConfig(PayloadWriter& w, const CampaignConfig& config,
                       bool shardExtension);
/// Reads what putCampaignConfig wrote. With `shardExtension` the header
/// must end after the optional shard spec; an invalid spec or extra
/// bytes throw `format`'s corruption error.
[[nodiscard]] CampaignConfig readCampaignConfig(PayloadReader& r,
                                                const FramedFormat& format,
                                                bool shardExtension);

/// "machine\x1fcell": the one key every journal, store and merge index
/// uses for a cell (the unit separator cannot appear in valid UTF-8
/// names).
[[nodiscard]] std::string cellKey(std::string_view machine,
                                  std::string_view cell);

/// One journalled cell outcome. `payload` is the cell-specific value
/// blob (empty for failed cells, which only carry their incident).
struct CellRecord {
  std::string machine;
  std::string cell;
  std::uint32_t attempts = 0;
  bool failed = false;
  std::string error;  ///< Last attempt's error text ("" when clean).
  std::vector<std::uint8_t> payload;
};

/// The journal proper. Thread-safe: the parallel harness appends and
/// looks up records concurrently from worker threads.
class Journal {
 public:
  /// Starts a fresh journal at `path` via write-temp/fsync/rename.
  /// Refuses to overwrite an existing file — resuming must be an
  /// explicit decision (`--resume`), not an accident.
  [[nodiscard]] static std::unique_ptr<Journal> create(
      const std::string& path, const CampaignConfig& config);

  /// Reopens an existing journal for resumption: replays the valid
  /// record prefix, truncates a torn tail (recorded in `warnings()`),
  /// and throws ConfigMismatchError when the recorded
  /// configuration is incompatible with `current`.
  [[nodiscard]] static std::unique_ptr<Journal> resume(
      const std::string& path, const CampaignConfig& current);

  /// Pure in-memory decode — the fuzz-target entry point and the core
  /// of resume(). `validBytes` reports the length of the valid prefix
  /// (file content beyond it is a torn tail).
  struct Decoded {
    CampaignConfig config;
    std::vector<CellRecord> records;
    std::size_t validBytes = 0;
    std::vector<std::string> warnings;
  };
  [[nodiscard]] static Decoded decode(std::span<const std::uint8_t> bytes);

  /// Serialized forms (exposed for tests and the fuzz corpus).
  [[nodiscard]] static std::vector<std::uint8_t> encodeHeader(
      const CampaignConfig& config);
  [[nodiscard]] static std::vector<std::uint8_t> encodeRecord(
      const CellRecord& record);

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// The completed-cell record for (machine, cell), or nullptr when the
  /// cell still needs measuring.
  [[nodiscard]] const CellRecord* find(std::string_view machine,
                                       std::string_view cell) const;

  /// Appends one completed cell: CRC-framed write + fsync, then the
  /// in-memory index. Idempotent — a key that is already journalled
  /// (e.g. `table all` computing Table 5 twice) is not re-appended.
  void append(CellRecord record);

  [[nodiscard]] const CampaignConfig& config() const { return config_; }
  [[nodiscard]] std::size_t recordCount() const;
  /// Records with a non-empty machine name — i.e. measured cells,
  /// excluding shard manifests (the honest "N cell(s) already measured"
  /// count for resume messages).
  [[nodiscard]] std::size_t cellRecordCount() const;
  [[nodiscard]] std::size_t appendedThisProcess() const;
  [[nodiscard]] const std::vector<std::string>& warnings() const {
    return warnings_;
  }

  /// Crash-injection test hook (`table --crash-after-cell N`): after the
  /// Nth append of this process the journal fsyncs and terminates the
  /// process immediately (exit code 42), simulating an operator kill at
  /// an arbitrary campaign point.
  void setCrashAfterAppends(int n) { crashAfter_ = n; }
  static constexpr int kCrashExitCode = 42;

 private:
  Journal() = default;

  std::unique_ptr<FramedLog> log_;
  CampaignConfig config_;
  std::map<std::string, CellRecord, std::less<>> records_;
  std::vector<std::string> warnings_;
  int crashAfter_ = -1;
  std::size_t appended_ = 0;
  mutable std::mutex mu_;
};

}  // namespace nodebench::campaign
