#pragma once
/// \file supervisor.hpp
/// \brief `nodebench supervise` — the fault-tolerant lease-based
/// campaign coordinator.
///
/// The one multi-process campaign driver. Instead of a fork-and-wait
/// loop (launch N workers, wait, hope) it runs a worker-pull protocol:
/// shard leases live in a bounded slot pool, workers are launched as
/// slots free up, each worker heartbeats through the file contract
/// (heartbeat.hpp) and journals its slice as any `table --shard i/N` run
/// does. The supervisor:
///
///  - expires a lease when the worker dies, misses heartbeats, or
///    exceeds the attempt wall-clock budget, and reassigns the shard
///    with deterministic capped-exponential backoff (backoff.hpp) — the
///    replacement *resumes* the dead worker's crash-safe journal, never
///    re-measures finished cells;
///  - quarantines a shard as poisoned after `maxAttempts` failed
///    attempts and degrades to a partial merge: merged journal/store of
///    the healthy shards plus a gap manifest naming every missing shard
///    and cell, exiting with a distinct code (44) — never a silently
///    smaller table;
///  - survives its own SIGKILL: every lease transition is an fsynced
///    CRC-framed event in the supervisor journal (journal.hpp), so
///    `--resume` replays the state, kills/releases stale workers, and
///    continues;
///  - stays byte-identical: an all-shards-healthy supervised campaign's
///    merged journal and store `cmp` equal to a single-process
///    `--jobs 1` run, chaos or no chaos.
///
/// Workers are local processes today, but every contract they depend on
/// (journals, stores, heartbeats, leases) is a file, so the protocol is
/// host-agnostic by construction.

#include <csignal>
#include <cstdint>
#include <string>
#include <vector>

#include "campaign/shard.hpp"
#include "supervise/backoff.hpp"

namespace nodebench::supervise {

/// Exit code of a supervised campaign that completed with poisoned
/// shards: the merged artifacts are partial (see the gap manifest).
/// Distinct from success (0), generic failure (1), and interruption
/// (43), so scripts can tell "partial but explicit" from everything
/// else.
inline constexpr int kPartialCampaignExitCode = 44;

struct SuperviseOptions {
  std::string table;        ///< table selector ("4", "all", "sweep", ...)
  std::uint32_t shards = 0;
  /// Concurrent worker slots (the bounded lease pool); 0 = one slot per
  /// shard (full fan-out).
  std::uint32_t workers = 0;
  std::string journalBase;  ///< workers journal to BASE.shard<i>of<N>
  std::string storeBase;    ///< optional shard stores
  std::string supervisorJournalPath;  ///< default: journalBase + ".supervisor"
  std::uint32_t runs = 0;   ///< 0 = table default
  std::uint32_t jobs = 0;   ///< per-worker --jobs; 0 = worker default
  std::string faultsPath;
  std::uint32_t maxAttempts = 3;
  BackoffPolicy backoff;
  std::uint32_t heartbeatIntervalMs = 100;
  std::uint32_t heartbeatTimeoutMs = 5000;
  std::uint32_t attemptTimeoutMs = 0;  ///< 0 = no wall-clock straggler cap
  bool resume = false;
  std::string mergeOut;       ///< merged journal path ("" = skip merge)
  std::string mergeStoreOut;  ///< merged store path (requires storeBase)
  std::string gapOut;         ///< gap manifest path; default mergeOut + ".gaps.json"
  std::uint32_t testCellDelayMs = 0;  ///< forwarded test hook
  /// Test hook: workers for this shard run `--test-fail-run` (fail after
  /// opening the journal), deterministically poisoning the shard.
  std::int64_t testPoisonShard = -1;
  /// Test hook: this shard's *first* attempt stalls its heartbeat after
  /// one beat, forcing a heartbeat expiry + reassignment.
  std::int64_t testStallShard = -1;
  /// Set by the CLI's SIGINT/SIGTERM handler; the event loop polls it
  /// and drains (SIGTERM to workers, exit 43). nullptr = no signal
  /// integration (tests).
  const volatile std::sig_atomic_t* stopFlag = nullptr;
};

struct SuperviseResult {
  int exitCode = 0;  ///< 0, kInterruptedExitCode, or kPartialCampaignExitCode
  std::vector<campaign::ShardGap> quarantined;  ///< poisoned shards
};

/// Runs the supervised campaign to completion (or interruption). Throws
/// Error on configuration problems; worker failures are not exceptions,
/// they are the job.
[[nodiscard]] SuperviseResult runSupervise(const SuperviseOptions& options);

/// The merge step `supervise --merge-out` and `nodebench merge` share:
/// merges the shard journals (and, when `storeOut` is set, the shard
/// stores) and atomically writes the merged artifacts, labelling I/O
/// errors with `what`. A partial merge also writes the gap manifest to
/// `gapOut` ("" = "<out>.gaps.json") and returns its path in `gapPath`.
struct MergedFiles {
  campaign::MergedCampaign merged;
  std::string gapPath;
};
[[nodiscard]] MergedFiles mergeShardFiles(
    const std::vector<std::string>& journalPaths,
    const std::vector<std::string>& storePaths, const std::string& out,
    const std::string& storeOut, const std::string& gapOut,
    const campaign::MergeOptions& options, const char* what);

}  // namespace nodebench::supervise
