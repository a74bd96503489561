/// \file merge_io_fault_test.cpp
/// \brief I/O fault injection on merge *output* emission: the merged
/// journal/store and the gap manifest are written via
/// campaign::io::atomicWrite, so ENOSPC, a partial write, or a failed
/// fsync must (a) surface a named error, (b) leave neither the output
/// path nor its temp file behind, (c) leave every shard *input* byte-
/// untouched, and (d) allow a clean retry that emits byte-identical
/// output — a failed merge is always re-runnable.

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "campaign/io.hpp"
#include "campaign/shard.hpp"
#include "core/error.hpp"
#include "shard_test_util.hpp"

namespace nodebench::campaign {
namespace {

namespace fs = std::filesystem;

using shardtest::Bytes;
using shardtest::CampaignKnobs;
using shardtest::ScratchDir;

/// A two-way-sharded Table 4 campaign over two CPU machines, built once;
/// every case re-merges it in memory and faults only the output write.
struct MergeEmissionFixture {
  std::string journalBase;
  std::vector<ShardInput> shards;
  std::vector<Bytes> inputBytes;  ///< pristine copies for the untouched check
  Bytes mergedJournal;
};

const MergeEmissionFixture& fixture() {
  static const ScratchDir dir("nb_merge_io_fault");
  static const MergeEmissionFixture data = [] {
    static const std::vector<std::string> machines = {"Trinity", "Manzano"};
    CampaignKnobs knobs;
    knobs.machines = &machines;
    knobs.withGpuTables = false;
    knobs.binaryRuns = 2;

    MergeEmissionFixture out;
    out.journalBase = dir.path("c.journal");
    for (std::uint32_t i = 0; i < 2; ++i) {
      shardtest::runShardWorker(out.journalBase, dir.path("c.store"),
                                {i, 2}, knobs);
    }
    out.shards = shardtest::collectShardJournals(out.journalBase, 2);
    for (const ShardInput& s : out.shards) {
      out.inputBytes.push_back(s.bytes);
    }
    out.mergedJournal = mergeShardJournals(out.shards).journalBytes;
    return out;
  }();
  return data;
}

class MergeIoFaultTest : public ::testing::Test {
 protected:
  std::string scratch(const std::string& leaf) {
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    return (fs::temp_directory_path() /
            ("nbmio-" + std::string(info->name()) + "-" + leaf))
        .string();
  }
  void TearDown() override { io::clearIoFailure(); }

  /// Arms `op`, attempts the merged-journal emission, and asserts the
  /// atomic-rollback contract.
  void expectRolledBackEmission(io::IoOp op, int err,
                                const std::string& errFragment) {
    // Materialize the fixture *before* arming the fault: its lazy first
    // build writes the shard journals, and the injected failure must hit
    // the merge emission, not the fixture's own I/O.
    const MergeEmissionFixture& fx = fixture();
    const std::string out = scratch("merged.journal");
    fs::remove(out);
    fs::remove(out + ".tmp");

    io::setIoFailure(op, 0, err);
    try {
      io::atomicWrite(out, fx.mergedJournal, "merged journal");
      FAIL() << "emission should have failed";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("merged journal"), std::string::npos) << what;
      EXPECT_NE(what.find(errFragment), std::string::npos) << what;
    }
    EXPECT_EQ(io::ioFailuresFired(), 1);
    // Atomic rollback: no output, no temp debris.
    EXPECT_FALSE(fs::exists(out)) << "failed merge left an output file";
    EXPECT_FALSE(fs::exists(out + ".tmp"))
        << "failed merge left its temp file behind";
    // The shard inputs are read-only to the merge: byte-untouched.
    for (std::size_t i = 0; i < fx.shards.size(); ++i) {
      EXPECT_EQ(shardtest::readFileBytes(fx.shards[i].name),
                fx.inputBytes[i])
          << "shard input " << fx.shards[i].name << " was modified";
    }

    // A clean retry emits byte-identical output: nothing about the
    // failure poisoned the merge.
    io::clearIoFailure();
    io::atomicWrite(out, fx.mergedJournal, "merged journal");
    EXPECT_EQ(shardtest::readFileBytes(out), fx.mergedJournal);
    fs::remove(out);
  }
};

TEST_F(MergeIoFaultTest, EnospcOnWriteRollsBackAtomically) {
  expectRolledBackEmission(io::IoOp::Write, ENOSPC, "No space left");
}

TEST_F(MergeIoFaultTest, PartialWriteThenErrorRollsBackAtomically) {
  expectRolledBackEmission(io::IoOp::PartialWrite, ENOSPC, "No space left");
}

TEST_F(MergeIoFaultTest, FsyncFailureRollsBackAtomically) {
  expectRolledBackEmission(io::IoOp::Fsync, EIO, "Input/output error");
}

TEST_F(MergeIoFaultTest, GapManifestEmissionRollsBackToo) {
  // The degrade-to-partial path writes one more artifact — the gap
  // manifest — through the same discipline.
  MergeOptions mopt;
  mopt.allowPartial = true;
  const MergedCampaign plan =
      mergeShardJournals({fixture().shards[0]}, mopt);
  ASSERT_TRUE(plan.partial);
  const std::string manifest = renderGapManifest(plan);
  const std::vector<std::uint8_t> bytes(manifest.begin(), manifest.end());

  const std::string out = scratch("merged.journal.gaps.json");
  fs::remove(out);
  io::setIoFailure(io::IoOp::Write, 0, ENOSPC);
  EXPECT_THROW(io::atomicWrite(out, bytes, "gap manifest"), Error);
  EXPECT_FALSE(fs::exists(out));
  EXPECT_FALSE(fs::exists(out + ".tmp"));

  io::clearIoFailure();
  io::atomicWrite(out, bytes, "gap manifest");
  const Bytes written = shardtest::readFileBytes(out);
  EXPECT_EQ(std::string(written.begin(), written.end()), manifest);
  fs::remove(out);
}

}  // namespace
}  // namespace nodebench::campaign
