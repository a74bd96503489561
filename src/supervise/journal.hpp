#pragma once
/// \file journal.hpp
/// \brief The supervisor's own crash-safe state journal.
///
/// The supervisor must survive its own SIGKILL: which shard is leased to
/// which pid, how many attempts each shard has burned, and which shards
/// are done or poisoned all have to be reconstructable on `--resume`.
/// This journal records that state as an "NBSV" framed log
/// (campaign/framed_log.hpp): a header carrying the campaign fingerprint
/// plus the supervise parameters, then one fsynced event per lease
/// transition. A torn tail is truncated with a warning on resume, like
/// the campaign journal's; resuming under different parameters is
/// refused naming the parameter.
///
/// Event semantics on replay (see LeaseScheduler::replay):
///  - AttemptStarted without a matching terminal event = the supervisor
///    died while that worker ran. Resume kills any stale worker and
///    releases the lease *without* burning the attempt.
///  - AttemptFailed counts toward the poison threshold.
///  - ShardDone / ShardPoisoned are terminal.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "campaign/journal.hpp"
#include "core/error.hpp"

namespace nodebench::supervise {

/// Thrown when the supervisor journal is unusable (bad magic, corrupt
/// header) — torn event tails are recovered, not thrown.
class SupervisorJournalError : public Error {
 public:
  using Error::Error;
};

enum class EventKind : std::uint32_t {
  AttemptStarted = 1,  ///< shard leased; pid = the worker
  AttemptFailed = 2,   ///< attempt terminal-failed; detail = incident
  ShardDone = 3,       ///< worker exited 0; shard complete
  ShardPoisoned = 4,   ///< attempts exhausted; detail = last incident
};

struct SupervisorEvent {
  EventKind kind = EventKind::AttemptStarted;
  std::uint32_t shard = 0;
  std::uint32_t attempt = 0;  ///< 1-based attempt number
  std::uint64_t pid = 0;      ///< worker pid (AttemptStarted), else 0
  std::string detail;         ///< incident text; "" when not applicable

  [[nodiscard]] bool operator==(const SupervisorEvent& o) const {
    return kind == o.kind && shard == o.shard && attempt == o.attempt &&
           pid == o.pid && detail == o.detail;
  }
};

/// What the supervisor journal header fingerprints: the campaign config
/// the workers run under, plus every supervise parameter that shapes the
/// lease/retry schedule. Resuming under different values is refused.
struct SupervisorConfig {
  campaign::CampaignConfig campaign;
  std::uint32_t shards = 0;
  std::uint32_t maxAttempts = 0;
  std::uint32_t backoffBaseMs = 0;
  std::uint32_t backoffCapMs = 0;

  [[nodiscard]] bool operator==(const SupervisorConfig& o) const;
};

/// "" when resume-compatible, else a diagnostic naming the first
/// mismatched parameter and both values. The campaign fields reuse
/// campaign::describeConfigMismatch (so `jobs` stays provenance-only).
[[nodiscard]] std::string describeSupervisorConfigMismatch(
    const SupervisorConfig& recorded, const SupervisorConfig& current);

class SupervisorJournal {
 public:
  /// Fresh journal via write-temp/fsync/rename; refuses an existing
  /// file (resuming must be explicit, exactly like the campaign
  /// journal).
  [[nodiscard]] static std::unique_ptr<SupervisorJournal> create(
      const std::string& path, const SupervisorConfig& config);

  /// Replays the valid event prefix, truncates a torn tail (recorded in
  /// warnings()), refuses a parameter mismatch naming the parameter
  /// (campaign::ConfigMismatchError, like the journal and the store).
  [[nodiscard]] static std::unique_ptr<SupervisorJournal> resume(
      const std::string& path, const SupervisorConfig& current);

  struct Decoded {
    SupervisorConfig config;
    std::vector<SupervisorEvent> events;
    std::size_t validBytes = 0;
    std::vector<std::string> warnings;
  };
  /// Pure in-memory decode (tests exercise torn tails through this).
  [[nodiscard]] static Decoded decode(std::span<const std::uint8_t> bytes);
  /// Reads (under the format's 64 MiB file cap) and decodes a file
  /// without opening it for appending — the quarantine record
  /// `merge --supervisor-journal` reads.
  [[nodiscard]] static Decoded load(const std::string& path);

  [[nodiscard]] static std::vector<std::uint8_t> encodeHeader(
      const SupervisorConfig& config);
  [[nodiscard]] static std::vector<std::uint8_t> encodeEvent(
      const SupervisorEvent& event);

  SupervisorJournal(const SupervisorJournal&) = delete;
  SupervisorJournal& operator=(const SupervisorJournal&) = delete;

  /// CRC-framed durable append (write + fsync, rollback on failure).
  void append(const SupervisorEvent& event);

  [[nodiscard]] const SupervisorConfig& config() const { return config_; }
  [[nodiscard]] const std::vector<SupervisorEvent>& events() const {
    return events_;
  }
  [[nodiscard]] const std::vector<std::string>& warnings() const {
    return warnings_;
  }

 private:
  SupervisorJournal() = default;

  std::unique_ptr<campaign::FramedLog> log_;
  SupervisorConfig config_;
  std::vector<SupervisorEvent> events_;
  std::vector<std::string> warnings_;
};

}  // namespace nodebench::supervise
