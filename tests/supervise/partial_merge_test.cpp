/// \file partial_merge_test.cpp
/// \brief The degrade-to-partial merge contract (DESIGN.md §15): an
/// all-present partial merge is byte-identical to the strict merge, a
/// missing shard becomes an enumerated gap (never a silently smaller
/// table), quarantine records annotate gaps and refusals with attempt
/// counts and incidents, and the negative paths — out-of-range
/// quarantine indices, stores for quarantined shards — are refused.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/shard.hpp"
#include "stats/merge.hpp"
#include "stats/store.hpp"
#include "../shard/shard_test_util.hpp"

namespace nodebench::campaign {
namespace {

using shardtest::Bytes;
using shardtest::CampaignKnobs;
using shardtest::ScratchDir;

/// One three-way-sharded campaign (Table 4 over two CPU machines, six
/// cells, two cells per shard), built once. Partial-merge cases drop
/// shards from copies of this set.
struct PartialFixtureData {
  std::vector<ShardInput> shards;  ///< complete: 0/3, 1/3, 2/3
  std::vector<stats::ShardStoreInput> stores;
  Bytes reference;       ///< unsharded --jobs 1 journal
  Bytes referenceStore;  ///< its results store
};

const PartialFixtureData& fixture() {
  static const PartialFixtureData data = [] {
    static const ScratchDir dir("nb_supervise_partial");
    static const std::vector<std::string> machines = {"Trinity", "Manzano"};
    CampaignKnobs knobs;
    knobs.machines = &machines;
    knobs.withGpuTables = false;
    knobs.binaryRuns = 2;

    PartialFixtureData out;
    const shardtest::Artifacts ref = shardtest::runReference(
        dir.path("ref.journal"), dir.path("ref.store"), knobs);
    out.reference = ref.journal;
    out.referenceStore = ref.store;
    for (std::uint32_t i = 0; i < 3; ++i) {
      shardtest::runShardWorker(dir.path("c.journal"), dir.path("c.store"),
                                {i, 3}, knobs);
      out.stores.push_back(stats::loadShardStoreInput(
          shardPath(dir.path("c.store"), {i, 3})));
    }
    out.shards = shardtest::collectShardJournals(dir.path("c.journal"), 3);
    return out;
  }();
  return data;
}

/// The merge set with shard `dropped` absent.
std::vector<ShardInput> without(std::uint32_t dropped) {
  std::vector<ShardInput> set;
  for (const ShardInput& s : fixture().shards) {
    const Journal::Decoded d = Journal::decode(s.bytes);
    if (d.config.shardIndex != dropped) {
      set.push_back(s);
    }
  }
  return set;
}

ShardGap quarantine(std::uint32_t shard, std::uint32_t attempts,
                    std::string incident) {
  ShardGap gap;
  gap.shard = shard;
  gap.attempts = attempts;
  gap.lastIncident = std::move(incident);
  return gap;
}

TEST(PartialMerge, AllPresentPartialMergeIsByteIdenticalToStrict) {
  const MergedCampaign strict = mergeShardJournals(fixture().shards);
  MergeOptions mopt;
  mopt.allowPartial = true;
  const MergedCampaign partial = mergeShardJournals(fixture().shards, mopt);
  EXPECT_FALSE(partial.partial);
  EXPECT_TRUE(partial.missingShards.empty());
  EXPECT_TRUE(partial.missingCells.empty());
  EXPECT_TRUE(partial.journalBytes == strict.journalBytes);
  EXPECT_TRUE(strict.journalBytes == fixture().reference);
  EXPECT_EQ(partial.presentShards,
            (std::vector<std::uint32_t>{0, 1, 2}));
}

TEST(PartialMerge, MissingShardBecomesEnumeratedGapNotRefusal) {
  MergeOptions mopt;
  mopt.allowPartial = true;
  const MergedCampaign merged = mergeShardJournals(without(1), mopt);
  EXPECT_TRUE(merged.partial);
  EXPECT_EQ(merged.presentShards, (std::vector<std::uint32_t>{0, 2}));
  ASSERT_EQ(merged.missingShards.size(), 1u);
  EXPECT_EQ(merged.missingShards[0].shard, 1u);
  EXPECT_EQ(merged.missingShards[0].attempts, 0u) << "no quarantine given";
  EXPECT_EQ(merged.missingShards[0].lastIncident,
            "shard journal missing from the merge set");
  // Six cells, three shards: shard 1 owned exactly two, and every one of
  // its cells — no more, no fewer — is enumerated as missing.
  ASSERT_EQ(merged.grid.size(), 6u);
  ASSERT_EQ(merged.missingCells.size(), 2u);
  for (const std::size_t g : merged.missingCells) {
    EXPECT_EQ(merged.ownerShard[g], 1u);
  }
  // The merged journal is the reference minus the gap cells: decodable,
  // with exactly the present cells, never byte-equal to the full run.
  const Journal::Decoded d = Journal::decode(merged.journalBytes);
  EXPECT_EQ(d.records.size(), 4u);
  EXPECT_FALSE(merged.journalBytes == fixture().reference);
}

TEST(PartialMerge, QuarantineRecordAnnotatesGapAndManifest) {
  MergeOptions mopt;
  mopt.allowPartial = true;
  mopt.quarantined = {
      quarantine(1, 3, "worker was killed by signal 9")};
  const MergedCampaign merged = mergeShardJournals(without(1), mopt);
  ASSERT_EQ(merged.missingShards.size(), 1u);
  EXPECT_EQ(merged.missingShards[0].attempts, 3u);
  EXPECT_EQ(merged.missingShards[0].lastIncident,
            "worker was killed by signal 9");

  const std::string manifest = renderGapManifest(merged);
  EXPECT_NE(manifest.find("\"schema\": \"nodebench-gap-manifest-v1\""),
            std::string::npos)
      << manifest;
  EXPECT_NE(manifest.find("\"shards\": 3"), std::string::npos) << manifest;
  EXPECT_NE(manifest.find("\"present_shards\": [0, 2]"), std::string::npos)
      << manifest;
  EXPECT_NE(manifest.find("{\"shard\": 1, \"attempts\": 3, "
                          "\"last_incident\": \"worker was killed by "
                          "signal 9\"}"),
            std::string::npos)
      << manifest;
  EXPECT_NE(manifest.find("\"total_cells\": 6"), std::string::npos)
      << manifest;
  EXPECT_NE(manifest.find("\"present_cells\": 4"), std::string::npos)
      << manifest;
  // Every missing cell is named with its machine, cell, and owner shard.
  for (const std::size_t g : merged.missingCells) {
    EXPECT_NE(
        manifest.find("{\"machine\": \"" + merged.grid[g].machine +
                      "\", \"cell\": \"" + merged.grid[g].cell +
                      "\", \"shard\": 1}"),
        std::string::npos)
        << manifest;
  }
}

TEST(PartialMerge, GapManifestIsByteStableAcrossReruns) {
  MergeOptions mopt;
  mopt.allowPartial = true;
  mopt.quarantined = {quarantine(2, 2, "worker exited with code 1")};
  const std::string a =
      renderGapManifest(mergeShardJournals(without(2), mopt));
  const std::string b =
      renderGapManifest(mergeShardJournals(without(2), mopt));
  EXPECT_EQ(a, b);
}

TEST(PartialMerge, PartialStoreMergeSkipsTheQuarantinedShard) {
  MergeOptions mopt;
  mopt.allowPartial = true;
  mopt.quarantined = {quarantine(1, 2, "oom")};
  const MergedCampaign plan = mergeShardJournals(without(1), mopt);
  const Bytes merged = stats::mergeShardStores(
      {fixture().stores[0], fixture().stores[2]}, plan);
  // Decodable and smaller than the full-campaign store: the gap shard's
  // samples are absent by declaration, not silently.
  const stats::StoreContents contents = stats::ResultStore::decode(merged);
  EXPECT_LT(contents.records.size(),
            stats::ResultStore::decode(fixture().referenceStore)
                .records.size());
}

// --- negative paths ----------------------------------------------------------

TEST(PartialMerge, StrictRefusalNamesTheQuarantineIncident) {
  MergeOptions mopt;  // allowPartial stays false
  mopt.quarantined = {
      quarantine(1, 2, "worker missed heartbeats for 5000ms")};
  try {
    (void)mergeShardJournals(without(1), mopt);
    FAIL() << "strict merge with a missing shard must refuse";
  } catch (const ShardMergeError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("shard 1/3 is missing"), std::string::npos) << what;
    EXPECT_NE(what.find("quarantined after 2 failed attempt(s)"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("worker missed heartbeats for 5000ms"),
              std::string::npos)
        << what;
  }
}

TEST(PartialMerge, OutOfRangeQuarantineShardIsRefusedEvenInPartialMode) {
  MergeOptions mopt;
  mopt.allowPartial = true;
  mopt.quarantined = {quarantine(7, 1, "x")};
  try {
    (void)mergeShardJournals(without(1), mopt);
    FAIL() << "quarantining a shard outside [0, N) must refuse";
  } catch (const ShardMergeError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("quarantine list names shard 7"), std::string::npos)
        << what;
    EXPECT_NE(what.find("3 shard(s)"), std::string::npos) << what;
  }
}

TEST(PartialMerge, StoreForAQuarantinedJournalShardIsRefused) {
  MergeOptions mopt;
  mopt.allowPartial = true;
  mopt.quarantined = {quarantine(1, 2, "oom")};
  const MergedCampaign plan = mergeShardJournals(without(1), mopt);
  try {
    (void)stats::mergeShardStores(fixture().stores, plan);
    FAIL() << "a store whose journal is a gap must refuse to merge";
  } catch (const ShardMergeError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("store shard 1/3"), std::string::npos) << what;
    EXPECT_NE(what.find("quarantined gap"), std::string::npos) << what;
  }
}

TEST(PartialMerge, PartialModeStillValidatesPresentShards) {
  // A present shard with a torn tail is refused exactly as strictly
  // under --allow-partial: degradation covers absent shards, never
  // corrupt ones.
  MergeOptions mopt;
  mopt.allowPartial = true;
  std::vector<ShardInput> set = without(1);
  for (int i = 0; i < 6; ++i) {
    set[0].bytes.push_back(0xff);
  }
  try {
    (void)mergeShardJournals(set, mopt);
    FAIL() << "partial mode must not accept a corrupt present shard";
  } catch (const ShardMergeError& e) {
    EXPECT_NE(std::string(e.what()).find("torn tail"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace nodebench::campaign
