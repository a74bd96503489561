/// \file merge_negative_test.cpp
/// \brief The merge refusal contract: every malformed shard set —
/// mismatched fingerprints, missing/duplicate/overlapping shards, torn
/// tails, forged manifests, incomplete coverage — is refused with a
/// ShardMergeError naming the offending shard (and, for fingerprint
/// mismatches, the parameter). A merge that silently accepted any of
/// these would be exactly the reproducibility failure the shard layer
/// exists to prevent.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "campaign/journal.hpp"
#include "campaign/shard.hpp"
#include "stats/merge.hpp"
#include "stats/store.hpp"
#include "shard_test_util.hpp"

namespace nodebench::campaign {
namespace {

using shardtest::Bytes;
using shardtest::CampaignKnobs;
using shardtest::ScratchDir;

/// One small, fully-built campaign reused by every case: Table 4 over
/// two CPU machines (six cells) split two ways, plus the unsharded
/// reference and one worker of a three-way split. Built once — the
/// negative cases mutate decoded copies, never the originals.
struct NegativeFixtureData {
  std::vector<ShardInput> good;       ///< shards 0/2 and 1/2, complete
  Bytes reference;                    ///< unsharded --jobs 1 journal
  Bytes referenceStore;               ///< its results store
  ShardInput oneOfThree;              ///< shard 1/3 of the same campaign
  std::vector<stats::ShardStoreInput> goodStores;  ///< stores 0/2, 1/2
};

const NegativeFixtureData& fixture() {
  static const NegativeFixtureData data = [] {
    static const ScratchDir dir("nb_shard_negative");
    static const std::vector<std::string> machines = {"Trinity", "Manzano"};
    CampaignKnobs knobs;
    knobs.machines = &machines;
    knobs.withGpuTables = false;
    knobs.binaryRuns = 2;

    NegativeFixtureData out;
    const shardtest::Artifacts ref = shardtest::runReference(
        dir.path("ref.journal"), dir.path("ref.store"), knobs);
    out.reference = ref.journal;
    out.referenceStore = ref.store;
    for (std::uint32_t i = 0; i < 2; ++i) {
      shardtest::runShardWorker(dir.path("two.journal"), dir.path("two.store"),
                                {i, 2}, knobs);
      out.goodStores.push_back(stats::loadShardStoreInput(
          shardPath(dir.path("two.store"), {i, 2})));
    }
    out.good = shardtest::collectShardJournals(dir.path("two.journal"), 2);
    shardtest::runShardWorker(dir.path("three.journal"), dir.path("three.store"),
                              {1, 3}, knobs);
    out.oneOfThree =
        readShardInput(shardPath(dir.path("three.journal"), {1, 3}));
    return out;
  }();
  return data;
}

/// Re-serializes a decoded journal — the mutation path of every case
/// that needs to tamper with a shard's config, records, or manifests.
Bytes reencode(const Journal::Decoded& decoded) {
  Bytes out = Journal::encodeHeader(decoded.config);
  for (const CellRecord& record : decoded.records) {
    const Bytes framed = Journal::encodeRecord(record);
    out.insert(out.end(), framed.begin(), framed.end());
  }
  return out;
}

ShardInput named(std::string name, Bytes bytes) {
  return ShardInput{std::move(name), std::move(bytes)};
}

/// Runs the merge and returns the diagnostic it refused with.
std::string refusal(const std::vector<ShardInput>& shards) {
  try {
    (void)mergeShardJournals(shards);
  } catch (const ShardMergeError& e) {
    return e.what();
  }
  ADD_FAILURE() << "merge accepted a malformed shard set";
  return {};
}

std::string storeRefusal(const std::vector<stats::ShardStoreInput>& stores,
                         const MergedCampaign& plan) {
  try {
    (void)stats::mergeShardStores(stores, plan);
  } catch (const ShardMergeError& e) {
    return e.what();
  }
  ADD_FAILURE() << "store merge accepted a malformed shard set";
  return {};
}

std::size_t manifestIndex(const Journal::Decoded& decoded) {
  for (std::size_t i = 0; i < decoded.records.size(); ++i) {
    if (isShardManifest(decoded.records[i])) {
      return i;
    }
  }
  ADD_FAILURE() << "shard journal carries no manifest";
  return 0;
}

// --- shard-set shape ---------------------------------------------------------

TEST(MergeNegative, EmptySetIsRefused) {
  EXPECT_NE(refusal({}).find("at least one shard journal"),
            std::string::npos);
}

TEST(MergeNegative, UnshardedJournalIsRefused) {
  const std::string what =
      refusal({named("ref.journal", fixture().reference)});
  EXPECT_NE(what.find("not a shard journal"), std::string::npos) << what;
  EXPECT_NE(what.find("ref.journal"), std::string::npos) << what;
}

TEST(MergeNegative, MissingShardIsNamed) {
  const std::string what = refusal({fixture().good[0]});
  EXPECT_NE(what.find("shard 1/2 is missing"), std::string::npos) << what;
  EXPECT_NE(what.find("1 of 2"), std::string::npos) << what;
}

TEST(MergeNegative, DuplicateShardIsNamed) {
  const std::string what =
      refusal({fixture().good[0], fixture().good[0], fixture().good[1]});
  EXPECT_NE(what.find("shard 0/2 appears twice"), std::string::npos) << what;
}

TEST(MergeNegative, ShardCountDisagreementIsNamed) {
  const std::string what =
      refusal({fixture().good[0], fixture().oneOfThree});
  EXPECT_NE(what.find("one of 2"), std::string::npos) << what;
  EXPECT_NE(what.find("one of 3"), std::string::npos) << what;
}

TEST(MergeNegative, TornTailIsRefusedTowardResume) {
  Bytes torn = fixture().good[1].bytes;
  for (int i = 0; i < 6; ++i) {
    torn.push_back(0xff);
  }
  const std::string what =
      refusal({fixture().good[0], named("torn.journal", torn)});
  EXPECT_NE(what.find("torn tail"), std::string::npos) << what;
  EXPECT_NE(what.find("resume that shard with --resume"), std::string::npos)
      << what;
  EXPECT_NE(what.find("torn.journal"), std::string::npos) << what;
}

// --- fingerprint mismatches --------------------------------------------------

TEST(MergeNegative, SeedMismatchNamesParameterAndShard) {
  Journal::Decoded d = Journal::decode(fixture().good[1].bytes);
  d.config.seed += 1;
  const std::string what =
      refusal({fixture().good[0], named("seed.journal", reencode(d))});
  EXPECT_NE(what.find("shard 1/2"), std::string::npos) << what;
  EXPECT_NE(what.find("the fault-plan seed"), std::string::npos) << what;
}

TEST(MergeNegative, RunsMismatchNamesParameterAndShard) {
  Journal::Decoded d = Journal::decode(fixture().good[1].bytes);
  d.config.runs += 10;
  const std::string what =
      refusal({fixture().good[0], named("runs.journal", reencode(d))});
  EXPECT_NE(what.find("shard 1/2"), std::string::npos) << what;
  EXPECT_NE(what.find("--runs"), std::string::npos) << what;
}

TEST(MergeNegative, RegistryMismatchNamesParameterAndShard) {
  Journal::Decoded d = Journal::decode(fixture().good[1].bytes);
  d.config.registryHash ^= 0xdeadbeefull;
  const std::string what =
      refusal({fixture().good[0], named("reg.journal", reencode(d))});
  EXPECT_NE(what.find("the machine registry"), std::string::npos) << what;
}

TEST(MergeNegative, FaultPlanMismatchNamesParameterAndShard) {
  Journal::Decoded d = Journal::decode(fixture().good[1].bytes);
  d.config.faultPlanHash ^= 0x1234ull;
  const std::string what =
      refusal({fixture().good[0], named("plan.journal", reencode(d))});
  EXPECT_NE(what.find("the fault plan (--faults)"), std::string::npos) << what;
}

// --- manifest forgery --------------------------------------------------------

TEST(MergeNegative, MissingManifestIsRefused) {
  Journal::Decoded d = Journal::decode(fixture().good[1].bytes);
  d.records.erase(d.records.begin() +
                  static_cast<std::ptrdiff_t>(manifestIndex(d)));
  const std::string what =
      refusal({fixture().good[0], named("nomanifest.journal", reencode(d))});
  EXPECT_NE(what.find("measured different campaigns"), std::string::npos)
      << what;
}

TEST(MergeNegative, GridDriftBetweenShardsIsRefused) {
  Journal::Decoded d = Journal::decode(fixture().good[1].bytes);
  const std::size_t mi = manifestIndex(d);
  TableManifest manifest = decodeManifestPayload(d.records[mi].payload);
  manifest.cells[0].cell += " (drifted)";
  d.records[mi].payload = encodeManifestPayload(manifest);
  const std::string what =
      refusal({fixture().good[0], named("drift.journal", reencode(d))});
  EXPECT_NE(what.find("does not match the one in"), std::string::npos) << what;
  EXPECT_NE(what.find("drift.journal"), std::string::npos) << what;
}

TEST(MergeNegative, ForgedOverlappingRangeIsRefused) {
  Journal::Decoded d = Journal::decode(fixture().good[1].bytes);
  const std::size_t mi = manifestIndex(d);
  TableManifest manifest = decodeManifestPayload(d.records[mi].payload);
  // Shard 1/2 claims the whole grid — overlapping shard 0's slice.
  manifest.assigned = ShardRange{0, manifest.cells.size()};
  d.records[mi].payload = encodeManifestPayload(manifest);
  const std::string what =
      refusal({fixture().good[0], named("forged.journal", reencode(d))});
  EXPECT_NE(what.find("shard 1/2"), std::string::npos) << what;
  EXPECT_NE(what.find("canonical partition"), std::string::npos) << what;
  EXPECT_NE(what.find("overlapping or gapped"), std::string::npos) << what;
}

TEST(MergeNegative, ManifestSpecHeaderDisagreementIsRefused) {
  Journal::Decoded d = Journal::decode(fixture().good[1].bytes);
  const std::size_t mi = manifestIndex(d);
  TableManifest manifest = decodeManifestPayload(d.records[mi].payload);
  manifest.spec = ShardSpec{0, 2};  // header says 1/2
  d.records[mi].payload = encodeManifestPayload(manifest);
  const std::string what =
      refusal({fixture().good[0], named("spec.journal", reencode(d))});
  EXPECT_NE(what.find("disagrees with the journal header's"),
            std::string::npos)
      << what;
}

// --- record-level overlap and coverage ---------------------------------------

TEST(MergeNegative, RecordOwnedByAnotherShardIsRefusedAsOverlap) {
  const Journal::Decoded owner = Journal::decode(fixture().good[0].bytes);
  Journal::Decoded d = Journal::decode(fixture().good[1].bytes);
  // Splice one of shard 0's measured cells into shard 1's journal.
  for (const CellRecord& record : owner.records) {
    if (!isShardManifest(record)) {
      d.records.push_back(record);
      break;
    }
  }
  const std::string what =
      refusal({fixture().good[0], named("overlap.journal", reencode(d))});
  EXPECT_NE(what.find("assigned to shard 0/2"), std::string::npos) << what;
  EXPECT_NE(what.find("recorded by shard 1/2"), std::string::npos) << what;
  EXPECT_NE(what.find("overlapping shard journals"), std::string::npos)
      << what;
}

TEST(MergeNegative, DuplicateCellRecordIsRefused) {
  Journal::Decoded d = Journal::decode(fixture().good[1].bytes);
  for (const CellRecord& record : d.records) {
    if (!isShardManifest(record)) {
      d.records.push_back(record);
      break;
    }
  }
  const std::string what =
      refusal({fixture().good[0], named("dup.journal", reencode(d))});
  EXPECT_NE(what.find("twice"), std::string::npos) << what;
}

TEST(MergeNegative, RecordOutsideTheGridIsRefused) {
  Journal::Decoded d = Journal::decode(fixture().good[1].bytes);
  CellRecord stray;
  stray.machine = "Eagle";  // a real machine, but not in this campaign
  stray.cell = "host bandwidth";
  stray.attempts = 1;
  d.records.push_back(stray);
  const std::string what =
      refusal({fixture().good[0], named("stray.journal", reencode(d))});
  EXPECT_NE(what.find("not in the campaign grid"), std::string::npos) << what;
  EXPECT_NE(what.find("Eagle"), std::string::npos) << what;
}

TEST(MergeNegative, IncompleteShardIsRefusedTowardResume) {
  Journal::Decoded d = Journal::decode(fixture().good[1].bytes);
  // Drop the last measured cell, as if the worker was killed mid-run.
  for (std::size_t i = d.records.size(); i-- > 0;) {
    if (!isShardManifest(d.records[i])) {
      d.records.erase(d.records.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    }
  }
  const std::string what =
      refusal({fixture().good[0], named("partial.journal", reencode(d))});
  EXPECT_NE(what.find("shard 1/2"), std::string::npos) << what;
  EXPECT_NE(what.find("has not measured its assigned cell"),
            std::string::npos)
      << what;
  EXPECT_NE(what.find("resume that shard with --resume"), std::string::npos)
      << what;
}

// --- store merge negatives ---------------------------------------------------

MergedCampaign goodPlan() {
  return mergeShardJournals(fixture().good);
}

TEST(MergeNegative, GoodSetMergesAndMatchesReference) {
  const MergedCampaign merged = goodPlan();
  EXPECT_TRUE(merged.journalBytes == fixture().reference);
  const Bytes store = stats::mergeShardStores(fixture().goodStores, merged);
  EXPECT_TRUE(store == fixture().referenceStore);
}

TEST(MergeNegative, UnshardedStoreIsRefused) {
  const MergedCampaign plan = goodPlan();
  stats::ShardStoreInput bad;
  bad.name = "ref.store";
  bad.contents = stats::ResultStore::decode(fixture().referenceStore);
  const std::string what =
      storeRefusal({fixture().goodStores[0], bad}, plan);
  EXPECT_NE(what.find("not a shard store"), std::string::npos) << what;
}

TEST(MergeNegative, MissingStoreShardIsNamed) {
  const MergedCampaign plan = goodPlan();
  const std::string what = storeRefusal({fixture().goodStores[0]}, plan);
  EXPECT_NE(what.find("store shard 1/2 is missing"), std::string::npos)
      << what;
}

TEST(MergeNegative, DuplicateStoreShardIsNamed) {
  const MergedCampaign plan = goodPlan();
  const std::string what = storeRefusal(
      {fixture().goodStores[0], fixture().goodStores[0]}, plan);
  EXPECT_NE(what.find("store shard 0/2 appears twice"), std::string::npos)
      << what;
}

TEST(MergeNegative, StoreConfigMismatchNamesParameterAndShard) {
  const MergedCampaign plan = goodPlan();
  stats::ShardStoreInput bad = fixture().goodStores[1];
  bad.name = "seed.store";
  bad.contents.config.seed += 1;
  const std::string what =
      storeRefusal({fixture().goodStores[0], bad}, plan);
  EXPECT_NE(what.find("store shard 1/2"), std::string::npos) << what;
  EXPECT_NE(what.find("the fault-plan seed"), std::string::npos) << what;
}

TEST(MergeNegative, StoreRecordOwnedByAnotherShardIsRefused) {
  const MergedCampaign plan = goodPlan();
  stats::ShardStoreInput bad = fixture().goodStores[1];
  bad.name = "overlap.store";
  ASSERT_FALSE(fixture().goodStores[0].contents.records.empty());
  bad.contents.records.push_back(fixture().goodStores[0].contents.records[0]);
  const std::string what =
      storeRefusal({fixture().goodStores[0], bad}, plan);
  EXPECT_NE(what.find("overlapping shard stores"), std::string::npos) << what;
}

TEST(MergeNegative, DuplicateStoreRecordIsRefused) {
  const MergedCampaign plan = goodPlan();
  stats::ShardStoreInput bad = fixture().goodStores[1];
  bad.name = "dup.store";
  ASSERT_FALSE(bad.contents.records.empty());
  bad.contents.records.push_back(bad.contents.records[0]);
  const std::string what =
      storeRefusal({fixture().goodStores[0], bad}, plan);
  EXPECT_NE(what.find("twice"), std::string::npos) << what;
}

TEST(MergeNegative, StoreRecordOutsideTheGridIsRefused) {
  const MergedCampaign plan = goodPlan();
  stats::ShardStoreInput bad = fixture().goodStores[1];
  bad.name = "stray.store";
  ASSERT_FALSE(bad.contents.records.empty());
  stats::SampleRecord stray = bad.contents.records[0];
  stray.machine = "Eagle";
  bad.contents.records.push_back(stray);
  const std::string what =
      storeRefusal({fixture().goodStores[0], bad}, plan);
  EXPECT_NE(what.find("not in the campaign grid"), std::string::npos) << what;
}

}  // namespace
}  // namespace nodebench::campaign
