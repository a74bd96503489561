/// \file shard_matrix_test.cpp
/// \brief The sharded-campaign determinism matrix: for every shard
/// count in {1, 2, 3, 7, 16} x `--jobs` {1, 4} x {fair-weather,
/// faulted}, N independent worker runs merge to a journal and store
/// byte-identical to the uninterrupted single-process `--jobs 1` run.
///
/// The matrix deliberately crosses the partition edge cases: count 1
/// (the degenerate shard), 3 (uneven tail over the Table 4 grid), 7
/// (uneven nearly everywhere), and 16 (more shards than some tables
/// have cells, so whole shards contribute manifests only).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/shard.hpp"
#include "faults/fault_plan.hpp"
#include "stats/merge.hpp"
#include "shard_test_util.hpp"

namespace nodebench::campaign {
namespace {

using shardtest::Artifacts;
using shardtest::Bytes;
using shardtest::CampaignKnobs;
using shardtest::runReference;
using shardtest::runShardWorker;
using shardtest::ScratchDir;

TEST(ShardMatrix, MergedBytesMatchSingleProcessAcrossCountsJobsAndFaults) {
  ScratchDir dir("nb_shard_matrix");
  // Two CPU + two GPU machines: Tables 4, 5 and 6 all participate, the
  // grids stay small enough that the full matrix runs in seconds.
  const std::vector<std::string> machines = {"Trinity", "Manzano", "Frontier",
                                             "Perlmutter"};
  // The faulted variant exercises failed cells (journalled, storeless)
  // and recovered retries inside the byte-identity property.
  const faults::FaultPlan plan = faults::FaultPlan::fromJson(
      R"({"seed": 42, "faults": [
            {"type": "link-kill", "machine": "Perlmutter",
             "link": "host-gpu0"},
            {"type": "os-noise", "machine": "Frontier", "cv_factor": 2.0},
            {"type": "flaky-cell", "rate": 0.2}]})");

  for (const bool faulted : {false, true}) {
    CampaignKnobs knobs;
    knobs.machines = &machines;
    knobs.faults = faulted ? &plan : nullptr;

    const std::string tag = faulted ? "faulted" : "plain";
    const Artifacts ref = runReference(dir.path("ref-" + tag + ".journal"),
                                       dir.path("ref-" + tag + ".store"),
                                       knobs);
    ASSERT_FALSE(ref.journal.empty());
    ASSERT_FALSE(ref.store.empty());

    for (const std::uint32_t count : {1u, 2u, 3u, 7u, 16u}) {
      for (const int jobs : {1, 4}) {
        SCOPED_TRACE(tag + ", " + std::to_string(count) + " shard(s), jobs " +
                     std::to_string(jobs));
        CampaignKnobs worker = knobs;
        worker.jobs = jobs;
        const std::string base = dir.path(tag + "-n" + std::to_string(count) +
                                          "-j" + std::to_string(jobs));
        for (std::uint32_t i = 0; i < count; ++i) {
          runShardWorker(base + ".journal", base + ".store", {i, count},
                         worker);
        }

        const MergedCampaign merged =
            mergeShardJournals(shardtest::collectShardJournals(
                base + ".journal", count));
        EXPECT_EQ(merged.shardCount, count);
        EXPECT_TRUE(merged.journalBytes == ref.journal)
            << "merged journal differs from the single-process reference ("
            << merged.journalBytes.size() << " vs " << ref.journal.size()
            << " bytes)";

        std::vector<stats::ShardStoreInput> stores;
        for (std::uint32_t i = 0; i < count; ++i) {
          stores.push_back(stats::loadShardStoreInput(
              shardPath(base + ".store", {i, count})));
        }
        const Bytes mergedStore = stats::mergeShardStores(stores, merged);
        EXPECT_TRUE(mergedStore == ref.store)
            << "merged store differs from the single-process reference ("
            << mergedStore.size() << " vs " << ref.store.size() << " bytes)";
      }
    }
  }
}

TEST(ShardMatrix, MergedConfigIsNormalizedToTheReferenceRun) {
  ScratchDir dir("nb_shard_matrix_cfg");
  const std::vector<std::string> machines = {"Trinity", "Manzano"};
  CampaignKnobs knobs;
  knobs.machines = &machines;
  knobs.withGpuTables = false;
  knobs.jobs = 4;
  for (std::uint32_t i = 0; i < 2; ++i) {
    runShardWorker(dir.path("c.journal"), dir.path("c.store"), {i, 2}, knobs);
  }
  const MergedCampaign merged = mergeShardJournals(
      shardtest::collectShardJournals(dir.path("c.journal"), 2));
  // The merged artifact presents as an unsharded --jobs 1 run: that is
  // the only header a byte-identical reference file can carry.
  EXPECT_EQ(merged.config.shardCount, 0u);
  EXPECT_EQ(merged.config.shardIndex, 0u);
  EXPECT_EQ(merged.config.jobs, 1u);
  EXPECT_EQ(merged.shardCount, 2u);
  // Two machines x three Table 4 cells.
  EXPECT_EQ(merged.grid.size(), 6u);
  EXPECT_EQ(merged.ownerShard.size(), 6u);
  const Journal::Decoded decoded = Journal::decode(merged.journalBytes);
  EXPECT_EQ(decoded.records.size(), 6u);
  for (const CellRecord& record : decoded.records) {
    EXPECT_FALSE(isShardManifest(record)) << "manifests must be stripped";
  }
}

}  // namespace
}  // namespace nodebench::campaign
