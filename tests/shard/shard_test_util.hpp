#pragma once
/// \file shard_test_util.hpp
/// \brief Shared machinery of the shard test suites: scratch
/// directories, in-process shard workers, and the single-process
/// reference run the merged bytes are compared against.

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "campaign/journal.hpp"
#include "campaign/shard.hpp"
#include "faults/fault_plan.hpp"
#include "report/tables.hpp"
#include "stats/store.hpp"

namespace nodebench::shardtest {

using Bytes = std::vector<std::uint8_t>;

inline Bytes readFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return Bytes((std::istreambuf_iterator<char>(in)),
               std::istreambuf_iterator<char>());
}

/// Per-process scratch directory, wiped on construction and destruction.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& stem)
      : dir_(std::filesystem::temp_directory_path() /
             (stem + "." + std::to_string(::getpid()))) {
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  ~ScratchDir() { std::filesystem::remove_all(dir_); }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

 private:
  std::filesystem::path dir_;
};

/// The campaign shape a suite runs: small binary-run counts and machine
/// subsets keep the matrix fast while still crossing CPU and GPU tables.
struct CampaignKnobs {
  int jobs = 1;
  int binaryRuns = 3;
  const faults::FaultPlan* faults = nullptr;
  const std::vector<std::string>* machines = nullptr;
  bool withGpuTables = true;  ///< Table 4 alone when false (small sets).
};

inline report::TableOptions tableOptions(const CampaignKnobs& knobs) {
  report::TableOptions opt;
  opt.binaryRuns = knobs.binaryRuns;
  opt.jobs = knobs.jobs;
  opt.faults = knobs.faults;
  opt.machines = knobs.machines;
  return opt;
}

/// One worker's in-process campaign: shard `spec`'s slice of Table 4
/// (and 5 and 6), written to shardPath()-named journal + store files.
inline void runShardWorker(const std::string& journalBase,
                           const std::string& storeBase,
                           const campaign::ShardSpec& spec,
                           const CampaignKnobs& knobs) {
  report::TableOptions opt = tableOptions(knobs);
  campaign::ShardPlan plan(spec);
  opt.shard = &plan;
  const campaign::CampaignConfig cfg = report::campaignConfig(opt);
  const auto journal =
      campaign::Journal::create(campaign::shardPath(journalBase, spec), cfg);
  const auto store =
      stats::ResultStore::create(campaign::shardPath(storeBase, spec), cfg);
  opt.journal = journal.get();
  opt.store = store.get();
  (void)report::computeTable4(opt);
  if (knobs.withGpuTables) {
    (void)report::computeTable5(opt);
    (void)report::computeTable6(opt);
  }
}

struct Artifacts {
  Bytes journal;
  Bytes store;
};

/// The uninterrupted single-process `--jobs 1` run every merged shard
/// set must reproduce byte-for-byte.
inline Artifacts runReference(const std::string& journalPath,
                              const std::string& storePath,
                              CampaignKnobs knobs) {
  knobs.jobs = 1;
  report::TableOptions opt = tableOptions(knobs);
  const campaign::CampaignConfig cfg = report::campaignConfig(opt);
  {
    const auto journal = campaign::Journal::create(journalPath, cfg);
    const auto store = stats::ResultStore::create(storePath, cfg);
    opt.journal = journal.get();
    opt.store = store.get();
    (void)report::computeTable4(opt);
    if (knobs.withGpuTables) {
      (void)report::computeTable5(opt);
      (void)report::computeTable6(opt);
    }
  }
  return Artifacts{readFileBytes(journalPath), readFileBytes(storePath)};
}

/// Collects the shard journal inputs of a complete worker set.
inline std::vector<campaign::ShardInput> collectShardJournals(
    const std::string& journalBase, std::uint32_t count) {
  std::vector<campaign::ShardInput> inputs;
  for (std::uint32_t i = 0; i < count; ++i) {
    inputs.push_back(campaign::readShardInput(
        campaign::shardPath(journalBase, {i, count})));
  }
  return inputs;
}

}  // namespace nodebench::shardtest
