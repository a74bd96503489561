/// \file framed_golden_test.cpp
/// \brief Golden on-disk bytes of the three framed file formats: the
/// campaign journal (NBCJ), the results store (NBRS) and the supervisor
/// journal (NBSV).
///
/// Round-trip tests alone would pass even if a codec rewrite silently
/// changed a format, so these pin the exact bytes as hex literals:
/// encoding must reproduce them, and decoding them must give back the
/// values they were made from. A failure here means existing journals,
/// stores or supervisor journals would no longer read back.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/journal.hpp"
#include "campaign/shard.hpp"
#include "stats/store.hpp"
#include "supervise/journal.hpp"

namespace nodebench {
namespace {

using Bytes = std::vector<std::uint8_t>;

Bytes fromHex(const std::string& hex) {
  Bytes out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<std::uint8_t>(std::stoul(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

Bytes concat(std::initializer_list<Bytes> parts) {
  Bytes out;
  for (const Bytes& p : parts) {
    out.insert(out.end(), p.begin(), p.end());
  }
  return out;
}

campaign::CampaignConfig goldenConfig() {
  campaign::CampaignConfig c;
  c.registryHash = 0x0123456789abcdefULL;
  c.faultPlanHash = 0xfedcba9876543210ULL;
  c.seed = 42;
  c.runs = 100;
  c.jobs = 8;
  c.cellRetries = 2;
  c.cpuArrayBytes = 268435456;
  c.gpuArrayBytes = 1073741824;
  c.mpiMessageSize = 8;
  return c;
}

campaign::CampaignConfig goldenShardConfig() {
  campaign::CampaignConfig c = goldenConfig();
  c.shardIndex = 1;
  c.shardCount = 3;
  return c;
}

void expectSameConfig(const campaign::CampaignConfig& a,
                      const campaign::CampaignConfig& b) {
  EXPECT_EQ(a.registryHash, b.registryHash);
  EXPECT_EQ(a.faultPlanHash, b.faultPlanHash);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.jobs, b.jobs);
  EXPECT_EQ(a.cellRetries, b.cellRetries);
  EXPECT_EQ(a.cpuArrayBytes, b.cpuArrayBytes);
  EXPECT_EQ(a.gpuArrayBytes, b.gpuArrayBytes);
  EXPECT_EQ(a.mpiMessageSize, b.mpiMessageSize);
  EXPECT_EQ(a.shardIndex, b.shardIndex);
  EXPECT_EQ(a.shardCount, b.shardCount);
}

// --- NBCJ: campaign journal --------------------------------------------------

const Bytes kJournalHeader = fromHex(
    "4e42434a010000003c0000007db78be8efcdab89674523011032547698badcfe"
    "2a00000000000000640000000800000002000000000000100000000000000040"
    "000000000800000000000000");

const Bytes kJournalShardHeader = fromHex(
    "4e42434a010000004400000073ed6905efcdab89674523011032547698badcfe"
    "2a00000000000000640000000800000002000000000000100000000000000040"
    "0000000008000000000000000100000003000000");

const Bytes kJournalCellRecord = fromHex(
    "5600000090d89ea20800000046726f6e746965720e000000543520626162656c"
    "73747265616d0200000000000000000000002800000064000000000000000000"
    "00000000f83f000000000000d03f000000000000f03f0000000000000040");

const Bytes kJournalManifestRecord = fromHex(
    "97000000c415cb4b00000000070000007461626c652034000000000000000000"
    "00000078000000010000000100000003000000070000007461626c6520340300"
    "00000800000046726f6e746965720e000000686f73742062616e647769647468"
    "0600000053756d6d69740e000000686f73742062616e64776964746805000000"
    "4561676c650e000000686f73742062616e6477696474680100000002000000");

campaign::CellRecord goldenCell() {
  campaign::CellRecord r;
  r.machine = "Frontier";
  r.cell = "T5 babelstream";
  r.attempts = 2;
  Summary s;
  s.count = 100;
  s.mean = 1.5;
  s.stddev = 0.25;
  s.min = 1.0;
  s.max = 2.0;
  campaign::PayloadWriter w;
  campaign::putSummary(w, s);
  r.payload = w.bytes();
  return r;
}

campaign::TableManifest goldenManifest() {
  campaign::TableManifest m;
  m.label = "table 4";
  m.spec = {1, 3};
  m.cells = {{"Frontier", "host bandwidth"},
             {"Summit", "host bandwidth"},
             {"Eagle", "host bandwidth"}};
  m.assigned = campaign::shardRangeFor(m.cells.size(), m.spec);
  return m;
}

void expectSameCell(const campaign::CellRecord& a, const campaign::CellRecord& b) {
  EXPECT_EQ(a.machine, b.machine);
  EXPECT_EQ(a.cell, b.cell);
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.error, b.error);
  EXPECT_EQ(a.payload, b.payload);
}

TEST(FramedGolden, JournalEncodesTheCommittedBytes) {
  EXPECT_EQ(campaign::Journal::encodeHeader(goldenConfig()), kJournalHeader);
  EXPECT_EQ(campaign::Journal::encodeHeader(goldenShardConfig()),
            kJournalShardHeader);
  EXPECT_EQ(campaign::Journal::encodeRecord(goldenCell()), kJournalCellRecord);
  EXPECT_EQ(campaign::Journal::encodeRecord(
                campaign::manifestRecord(goldenManifest())),
            kJournalManifestRecord);
}

TEST(FramedGolden, JournalDecodesTheCommittedBytes) {
  const Bytes plain = concat({kJournalHeader, kJournalCellRecord});
  const auto decoded = campaign::Journal::decode(plain);
  expectSameConfig(decoded.config, goldenConfig());
  EXPECT_EQ(decoded.validBytes, plain.size());
  EXPECT_TRUE(decoded.warnings.empty());
  ASSERT_EQ(decoded.records.size(), 1u);
  expectSameCell(decoded.records[0], goldenCell());

  const Bytes sharded =
      concat({kJournalShardHeader, kJournalManifestRecord, kJournalCellRecord});
  const auto shard = campaign::Journal::decode(sharded);
  expectSameConfig(shard.config, goldenShardConfig());
  EXPECT_EQ(shard.validBytes, sharded.size());
  EXPECT_TRUE(shard.warnings.empty());
  ASSERT_EQ(shard.records.size(), 2u);
  ASSERT_TRUE(campaign::isShardManifest(shard.records[0]));
  EXPECT_EQ(shard.records[0].cell, "table 4");
  EXPECT_EQ(campaign::decodeManifestPayload(shard.records[0].payload),
            goldenManifest());
  expectSameCell(shard.records[1], goldenCell());
}

// --- NBRS: results store -----------------------------------------------------

const Bytes kStoreHeader = fromHex(
    "4e425253010000003c0000007db78be8efcdab89674523011032547698badcfe"
    "2a00000000000000640000000800000002000000000000100000000000000040"
    "000000000800000000000000");

const Bytes kStoreRecord = fromHex(
    "7b000000ccdbe1b40600000053756d6d6974100000006465766963652062616e"
    "6477696474680900000062616e6477696474680400000047422f730100000003"
    "000000000000000000000000000440000000000000e03f000000000000f03f00"
    "0000000000104003000000000000000000f03f00000000000000400000000000"
    "001040");

stats::SampleRecord goldenSample() {
  stats::SampleRecord r;
  r.machine = "Summit";
  r.cell = "device bandwidth";
  r.quantity = "bandwidth";
  r.unit = "GB/s";
  r.better = stats::Better::Higher;
  r.samples = {1.0, 2.0, 4.0};
  r.summary.count = 3;
  r.summary.mean = 2.5;
  r.summary.stddev = 0.5;
  r.summary.min = 1.0;
  r.summary.max = 4.0;
  return r;
}

TEST(FramedGolden, StoreEncodesTheCommittedBytes) {
  EXPECT_EQ(stats::ResultStore::encodeHeader(goldenConfig()), kStoreHeader);
  EXPECT_EQ(stats::ResultStore::encodeRecord(goldenSample()), kStoreRecord);
}

TEST(FramedGolden, StoreDecodesTheCommittedBytes) {
  const auto contents =
      stats::ResultStore::decode(concat({kStoreHeader, kStoreRecord}));
  expectSameConfig(contents.config, goldenConfig());
  ASSERT_EQ(contents.records.size(), 1u);
  const stats::SampleRecord& r = contents.records[0];
  const stats::SampleRecord want = goldenSample();
  EXPECT_EQ(r.machine, want.machine);
  EXPECT_EQ(r.cell, want.cell);
  EXPECT_EQ(r.quantity, want.quantity);
  EXPECT_EQ(r.unit, want.unit);
  EXPECT_EQ(r.better, want.better);
  EXPECT_EQ(r.summary.count, want.summary.count);
  EXPECT_EQ(r.summary.mean, want.summary.mean);
  EXPECT_EQ(r.summary.stddev, want.summary.stddev);
  EXPECT_EQ(r.summary.min, want.summary.min);
  EXPECT_EQ(r.summary.max, want.summary.max);
  EXPECT_EQ(r.samples, want.samples);
}

// --- NBSV: supervisor journal ------------------------------------------------

const Bytes kSupervisorHeader = fromHex(
    "4e425356010000004c000000117b8b32efcdab89674523011032547698badcfe"
    "2a00000000000000640000000800000002000000000000100000000000000040"
    "000000000800000000000000030000000300000064000000d0070000");

const Bytes kEventStarted = fromHex(
    "1800000098ddf9c7010000000100000001000000921000000000000000000000");

const Bytes kEventFailed = fromHex(
    "350000007da142b202000000010000000100000000000000000000001d000000"
    "776f726b657220776173206b696c6c6564206279207369676e616c2039");

const Bytes kEventDone = fromHex(
    "1800000099f2b755030000000000000001000000000000000000000000000000");

const Bytes kEventPoisoned = fromHex(
    "230000007ae0b78904000000020000000300000000000000000000000b000000"
    "6578697420636f64652031");

supervise::SupervisorConfig goldenSupervisorConfig() {
  supervise::SupervisorConfig c;
  c.campaign = goldenConfig();
  c.shards = 3;
  c.maxAttempts = 3;
  c.backoffBaseMs = 100;
  c.backoffCapMs = 2000;
  return c;
}

std::vector<supervise::SupervisorEvent> goldenEvents() {
  using supervise::EventKind;
  return {
      {EventKind::AttemptStarted, 1, 1, 4242, ""},
      {EventKind::AttemptFailed, 1, 1, 0, "worker was killed by signal 9"},
      {EventKind::ShardDone, 0, 1, 0, ""},
      {EventKind::ShardPoisoned, 2, 3, 0, "exit code 1"},
  };
}

TEST(FramedGolden, SupervisorJournalEncodesTheCommittedBytes) {
  EXPECT_EQ(supervise::SupervisorJournal::encodeHeader(goldenSupervisorConfig()),
            kSupervisorHeader);
  const auto events = goldenEvents();
  EXPECT_EQ(supervise::SupervisorJournal::encodeEvent(events[0]), kEventStarted);
  EXPECT_EQ(supervise::SupervisorJournal::encodeEvent(events[1]), kEventFailed);
  EXPECT_EQ(supervise::SupervisorJournal::encodeEvent(events[2]), kEventDone);
  EXPECT_EQ(supervise::SupervisorJournal::encodeEvent(events[3]), kEventPoisoned);
}

TEST(FramedGolden, SupervisorJournalDecodesTheCommittedBytes) {
  const Bytes file = concat({kSupervisorHeader, kEventStarted, kEventFailed,
                             kEventDone, kEventPoisoned});
  const auto decoded = supervise::SupervisorJournal::decode(file);
  EXPECT_TRUE(decoded.config == goldenSupervisorConfig());
  expectSameConfig(decoded.config.campaign, goldenConfig());
  EXPECT_EQ(decoded.validBytes, file.size());
  EXPECT_TRUE(decoded.warnings.empty());
  EXPECT_EQ(decoded.events, goldenEvents());
}

}  // namespace
}  // namespace nodebench
