#pragma once
/// \file fuzz_targets.hpp
/// \brief The fuzz entry points, callable by name.
///
/// Each target lives in its own .cpp which also defines the canonical
/// `LLVMFuzzerTestOneInput` symbol when built as a libFuzzer driver
/// (NODEBENCH_FUZZ_DRIVER). The deterministic smoke test links *both*
/// targets into one gtest binary, which is only possible through these
/// named wrappers — two definitions of the C entry point cannot coexist.

#include <cstddef>
#include <cstdint>

namespace nodebench::fuzz {

/// Feeds `data` to the fault-plan JSON parser (raw JsonValue::parse and
/// the semantic FaultPlan::fromJson layer). Returns 0; any escape other
/// than the repository's Error hierarchy is a fuzz finding.
int runJsonOneInput(const std::uint8_t* data, std::size_t size);

/// Feeds `data` to the campaign-journal decoder (Journal::decode).
int runJournalOneInput(const std::uint8_t* data, std::size_t size);

/// Feeds `data` to the results-store decoder (stats::ResultStore::decode).
int runStoreOneInput(const std::uint8_t* data, std::size_t size);

/// Feeds `data` to the supervisor-journal decoder
/// (supervise::SupervisorJournal::decode).
int runSupervisorJournalOneInput(const std::uint8_t* data, std::size_t size);

/// Feeds `data` to the shard-merge validator (mergeShardJournals): the
/// input is a length-prefixed container of up to eight shard journal
/// images, so the fuzzer explores cross-shard validation (fingerprint
/// comparison, manifest forgery, coverage proofs) and not just
/// single-journal decoding.
int runMergeOneInput(const std::uint8_t* data, std::size_t size);

/// Feeds `data` to the machine-JSON cache-hierarchy parsers
/// (machines::machineCacheHierarchyFromJson and the bare section parser)
/// and, for accepted inputs, checks emit -> parse -> emit reaches a
/// fixed point (the hand-edited-card round-trip contract).
int runMachineJsonOneInput(const std::uint8_t* data, std::size_t size);

/// Feeds `data` to the serve campaign-request decoder
/// (serve::CampaignRequest::fromJson) and, for accepted inputs, checks
/// the canonical re-rendering is a fixed point (the crash-recovery
/// contract).
int runServeOneInput(const std::uint8_t* data, std::size_t size);

}  // namespace nodebench::fuzz
