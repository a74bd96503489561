/// \file grid_golden_test.cpp
/// \brief Golden journal and store bytes of the five measured families
/// (Tables 4, 5 and 6, sweep and chase).
///
/// The journal record order, the cell names, the payload codecs, the
/// store channels and the shard manifests are all on-disk bytes, and all
/// of them come out of the compute functions' cell grids. These tests pin
/// a digest of every file a small `--runs 3` campaign writes: fault-free,
/// under a flaky-cell plan (one recovered retry, one "n/a" cell), and as
/// three shard workers. A refactor of the grid code must leave every
/// digest unchanged, or existing journals would stop resuming and shard
/// sets would stop merging.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "campaign/journal.hpp"
#include "campaign/shard.hpp"
#include "core/checksum.hpp"
#include "faults/fault_plan.hpp"
#include "report/memlab_report.hpp"
#include "report/tables.hpp"
#include "stats/store.hpp"
#include "../shard/shard_test_util.hpp"

namespace nodebench::report {
namespace {

using shardtest::Bytes;
using shardtest::ScratchDir;

// One CPU and one GPU machine: every family measures something. Frontier
// comes first in registry order, so the memlab grids start on it.
const std::vector<std::string> kMachines = {"Eagle", "Frontier"};

/// "<size>:<fnv1a-64 hex>" of a file's bytes.
std::string digest(const Bytes& bytes) {
  char hex[17];
  const std::uint64_t h =
      Fnv1a::mix(Fnv1a::init(), std::span<const std::uint8_t>(bytes));
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(h));
  return std::to_string(bytes.size()) + ":" + hex;
}

TableOptions baseOptions() {
  TableOptions opt;
  opt.binaryRuns = 3;
  opt.jobs = 1;  // the journal's record order is the task order at --jobs 1
  opt.machines = &kMachines;
  return opt;
}

/// Runs the five families into a fresh journal + store pair and returns
/// their digests (journal first).
std::vector<std::string> runCampaign(TableOptions opt,
                                     const std::string& journalPath,
                                     const std::string& storePath,
                                     std::vector<CellIncident>* incidents) {
  const campaign::CampaignConfig cfg = campaignConfig(opt);
  {
    const auto journal = campaign::Journal::create(journalPath, cfg);
    const auto store = stats::ResultStore::create(storePath, cfg);
    opt.journal = journal.get();
    opt.store = store.get();
    (void)computeTable4(opt, incidents);
    (void)computeTable5(opt, incidents);
    (void)computeTable6(opt, incidents);
    (void)computeSweep(opt, incidents);
    (void)computeChase(opt, incidents);
  }
  return {digest(shardtest::readFileBytes(journalPath)),
          digest(shardtest::readFileBytes(storePath))};
}

TEST(GridGolden, FaultFreeCampaignBytes) {
  ScratchDir dir("nb_grid_golden_clean");
  std::vector<CellIncident> incidents;
  const auto got = runCampaign(baseOptions(), dir.path("j"), dir.path("s"),
                               &incidents);
  EXPECT_TRUE(incidents.empty());
  EXPECT_EQ(got[0], "9172:1b6009dc608ffe65");
  EXPECT_EQ(got[1], "11111:8965dd051c30bd64");
}

TEST(GridGolden, FlakyCellCampaignBytes) {
  // Seed 147 at rate 0.2 on Eagle yields exactly one recovered retry and
  // one cell that stays "n/a" after all three attempts — on Eagle, which
  // is not the first machine of the memlab grids.
  const faults::FaultPlan plan = faults::FaultPlan::fromJson(
      R"({"seed":147,"faults":[)"
      R"({"type":"flaky-cell","machine":"Eagle","rate":0.2}]})");
  TableOptions opt = baseOptions();
  opt.faults = &plan;
  ScratchDir dir("nb_grid_golden_flaky");
  std::vector<CellIncident> incidents;
  const auto got = runCampaign(opt, dir.path("j"), dir.path("s"), &incidents);
  ASSERT_EQ(incidents.size(), 2u);
  EXPECT_EQ(incidents[0].machine, "Eagle");
  EXPECT_EQ(incidents[0].cell, sweepCellName(ByteCount::kib(768)));
  EXPECT_TRUE(incidents[0].failed);
  EXPECT_EQ(incidents[0].attempts, 3);
  EXPECT_EQ(incidents[1].machine, "Eagle");
  EXPECT_EQ(incidents[1].cell, chaseCellName(ByteCount::mib(32)));
  EXPECT_FALSE(incidents[1].failed);
  EXPECT_EQ(got[0], "9210:a48ba9386d19beaf");
  EXPECT_EQ(got[1], "10982:0c085f60144c3590");
}

TEST(GridGolden, ThreeShardJournalsAndStores) {
  ScratchDir dir("nb_grid_golden_shard");
  const std::vector<std::vector<std::string>> want = {
      {"5828:46fddba647ad66c9", "3898:c36fb15b359ffc1a"},
      {"5814:da12d0a7e13d18fe", "3768:26ee28879c6b43b1"},
      {"5704:1b3a740e7eebb239", "3621:d9c877eaabc287d3"},
  };
  for (std::uint32_t i = 0; i < 3; ++i) {
    SCOPED_TRACE("shard " + std::to_string(i) + "/3");
    campaign::ShardPlan plan({i, 3});
    TableOptions opt = baseOptions();
    opt.shard = &plan;
    const auto got =
        runCampaign(opt, campaign::shardPath(dir.path("j"), {i, 3}),
                    campaign::shardPath(dir.path("s"), {i, 3}), nullptr);
    EXPECT_EQ(got, want[i]);
  }
}

}  // namespace
}  // namespace nodebench::report
