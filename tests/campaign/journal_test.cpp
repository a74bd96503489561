/// \file journal_test.cpp
/// \brief Campaign-journal unit tests: payload round-trips, config
/// compatibility, torn-write recovery at every byte boundary, and the
/// file-backed create/append/resume lifecycle.

#include "campaign/journal.hpp"

#include <gtest/gtest.h>

#include <fcntl.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

namespace nodebench::campaign {
namespace {

using Bytes = std::vector<std::uint8_t>;

CampaignConfig testConfig() {
  CampaignConfig cfg;
  cfg.registryHash = 0x1122334455667788ull;
  cfg.faultPlanHash = 0xdeadbeefcafef00dull;
  cfg.seed = 42;
  cfg.runs = 100;
  cfg.jobs = 8;
  cfg.cellRetries = 2;
  cfg.cpuArrayBytes = 128ull << 20;
  cfg.gpuArrayBytes = 1ull << 30;
  cfg.mpiMessageSize = 8;
  return cfg;
}

std::vector<CellRecord> testRecords() {
  std::vector<CellRecord> records;
  CellRecord ok;
  ok.machine = "Frontier";
  ok.cell = "T5 babelstream";
  ok.attempts = 1;
  PayloadWriter w;
  Summary s;
  s.count = 100;
  s.mean = 1.5;
  s.stddev = 0.25;
  s.min = 1.0;
  s.max = 2.5;
  putSummary(w, s);
  ok.payload = w.bytes();
  records.push_back(ok);

  CellRecord failed;
  failed.machine = "Theta";
  failed.cell = "T4 stream-triad";
  failed.attempts = 3;
  failed.failed = true;
  failed.error = "injected: link flap";
  records.push_back(failed);

  CellRecord unicode;
  unicode.machine = "Perlmutter";
  unicode.cell = "cell \xc3\xa9\xe2\x82\xac";  // multi-byte UTF-8 is legal
  unicode.attempts = 2;
  PayloadWriter w2;
  putSummary(w2, Summary{});
  unicode.payload = w2.bytes();
  records.push_back(unicode);
  return records;
}

/// header bytes + every record's frame, plus the frame boundaries
/// (offsets where record i ends) for the torn-write sweeps.
struct EncodedJournal {
  Bytes bytes;
  std::vector<std::size_t> recordEnds;  // absolute offsets, one per record
  std::size_t headerSize = 0;
};

EncodedJournal encodeTestJournal() {
  EncodedJournal out;
  out.bytes = Journal::encodeHeader(testConfig());
  out.headerSize = out.bytes.size();
  for (const CellRecord& rec : testRecords()) {
    const Bytes frame = Journal::encodeRecord(rec);
    out.bytes.insert(out.bytes.end(), frame.begin(), frame.end());
    out.recordEnds.push_back(out.bytes.size());
  }
  return out;
}

void expectRecordsEqual(const CellRecord& a, const CellRecord& b) {
  EXPECT_EQ(a.machine, b.machine);
  EXPECT_EQ(a.cell, b.cell);
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.error, b.error);
  EXPECT_EQ(a.payload, b.payload);
}

TEST(JournalPayload, RoundTripsScalarsAndStrings) {
  PayloadWriter w;
  w.putU32(0xdeadbeefu);
  w.putU64(0x0123456789abcdefull);
  w.putF64(-1.5e300);
  w.putString("grüße");  // exercises multi-byte UTF-8
  PayloadReader r(w.bytes());
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.f64(), -1.5e300);
  EXPECT_EQ(r.string(), "grüße");
  EXPECT_TRUE(r.atEnd());
}

TEST(JournalPayload, SummaryRoundTripIsBitExact) {
  Summary s;
  s.count = 100;
  s.mean = 0.1 + 0.2;  // a value with no short decimal representation
  s.stddev = 1.0 / 3.0;
  s.min = 5e-324;  // denormal min
  s.max = 1.7976931348623157e308;
  PayloadWriter w;
  putSummary(w, s);
  PayloadReader r(w.bytes());
  const Summary back = readSummary(r);
  EXPECT_EQ(back.count, s.count);
  EXPECT_EQ(back.mean, s.mean);
  EXPECT_EQ(back.stddev, s.stddev);
  EXPECT_EQ(back.min, s.min);
  EXPECT_EQ(back.max, s.max);
}

TEST(JournalPayload, OverrunThrowsJournalCorrupt) {
  PayloadWriter w;
  w.putU32(7);
  PayloadReader r(w.bytes());
  (void)r.u32();
  EXPECT_THROW((void)r.u32(), JournalCorruptError);
}

TEST(JournalDecode, HeaderAndRecordsRoundTrip) {
  const EncodedJournal enc = encodeTestJournal();
  const Journal::Decoded d = Journal::decode(enc.bytes);
  EXPECT_TRUE(d.warnings.empty());
  EXPECT_EQ(d.validBytes, enc.bytes.size());
  const CampaignConfig cfg = testConfig();
  EXPECT_EQ(d.config.registryHash, cfg.registryHash);
  EXPECT_EQ(d.config.faultPlanHash, cfg.faultPlanHash);
  EXPECT_EQ(d.config.seed, cfg.seed);
  EXPECT_EQ(d.config.runs, cfg.runs);
  EXPECT_EQ(d.config.jobs, cfg.jobs);
  EXPECT_EQ(d.config.cellRetries, cfg.cellRetries);
  EXPECT_EQ(d.config.cpuArrayBytes, cfg.cpuArrayBytes);
  EXPECT_EQ(d.config.gpuArrayBytes, cfg.gpuArrayBytes);
  EXPECT_EQ(d.config.mpiMessageSize, cfg.mpiMessageSize);
  const std::vector<CellRecord> expected = testRecords();
  ASSERT_EQ(d.records.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    expectRecordsEqual(d.records[i], expected[i]);
  }
}

TEST(JournalDecode, RejectsForeignAndEmptyInput) {
  EXPECT_THROW((void)Journal::decode(Bytes{}), JournalCorruptError);
  const std::string text = "{\"not\": \"a journal\"}";
  Bytes bytes(text.begin(), text.end());
  EXPECT_THROW((void)Journal::decode(bytes), JournalCorruptError);
}

TEST(JournalConfig, EveryMismatchedParameterIsNamed) {
  const CampaignConfig base = testConfig();
  EXPECT_EQ(describeConfigMismatch(base, base), "");

  struct Case {
    void (*mutate)(CampaignConfig&);
    const char* expectInMessage;
  };
  const Case cases[] = {
      {[](CampaignConfig& c) { c.registryHash ^= 1; }, "machine registry"},
      {[](CampaignConfig& c) { c.faultPlanHash ^= 1; }, "fault plan"},
      {[](CampaignConfig& c) { c.seed ^= 1; }, "seed"},
      {[](CampaignConfig& c) { c.runs += 1; }, "--runs"},
      {[](CampaignConfig& c) { c.cellRetries += 1; }, "retry"},
      {[](CampaignConfig& c) { c.cpuArrayBytes += 1; }, "CPU array"},
      {[](CampaignConfig& c) { c.gpuArrayBytes += 1; }, "GPU array"},
      {[](CampaignConfig& c) { c.mpiMessageSize += 1; }, "MPI message"},
  };
  for (const Case& c : cases) {
    CampaignConfig changed = base;
    c.mutate(changed);
    const std::string msg = describeConfigMismatch(base, changed);
    EXPECT_NE(msg.find("journal configuration mismatch"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find(c.expectInMessage), std::string::npos) << msg;
  }
}

TEST(JournalConfig, JobsDifferenceIsCompatible) {
  // --jobs is provenance, not configuration: harness output is
  // byte-identical at any worker count, so resuming at a different
  // parallelism must be allowed.
  const CampaignConfig base = testConfig();
  CampaignConfig other = base;
  other.jobs = 1;
  EXPECT_EQ(describeConfigMismatch(base, other), "");
}

// --- Torn-write recovery sweeps ---------------------------------------------

TEST(JournalTornWrites, TruncationAtEveryByteRecoversOrDiagnoses) {
  const EncodedJournal enc = encodeTestJournal();
  for (std::size_t cut = 0; cut < enc.bytes.size(); ++cut) {
    Bytes torn(enc.bytes.begin(),
               enc.bytes.begin() + static_cast<std::ptrdiff_t>(cut));
    if (cut < enc.headerSize) {
      // No complete header: the file is unusable, not resumable.
      EXPECT_THROW((void)Journal::decode(torn), JournalCorruptError)
          << "cut at byte " << cut;
      continue;
    }
    // A complete header: every cut must recover the longest valid record
    // prefix, warning (not throwing) when the cut leaves a partial tail.
    Journal::Decoded d;
    ASSERT_NO_THROW(d = Journal::decode(torn)) << "cut at byte " << cut;
    std::size_t fullRecords = 0;
    std::size_t prefixEnd = enc.headerSize;
    for (const std::size_t end : enc.recordEnds) {
      if (end <= cut) {
        ++fullRecords;
        prefixEnd = end;
      }
    }
    EXPECT_EQ(d.records.size(), fullRecords) << "cut at byte " << cut;
    EXPECT_EQ(d.validBytes, prefixEnd) << "cut at byte " << cut;
    EXPECT_EQ(d.warnings.empty(), cut == prefixEnd) << "cut at byte " << cut;
  }
}

TEST(JournalTornWrites, BitFlipAtEveryRecordByteDropsTheDamagedTail) {
  const EncodedJournal enc = encodeTestJournal();
  for (std::size_t pos = enc.headerSize; pos < enc.bytes.size(); ++pos) {
    Bytes flipped = enc.bytes;
    flipped[pos] ^= 0x01;
    // The flipped record's CRC (or framing) no longer matches, so decode
    // keeps exactly the records before it and warns about the tail.
    std::size_t damagedIndex = 0;
    std::size_t prefixEnd = enc.headerSize;
    while (enc.recordEnds[damagedIndex] <= pos) {
      prefixEnd = enc.recordEnds[damagedIndex];
      ++damagedIndex;
    }
    Journal::Decoded d;
    ASSERT_NO_THROW(d = Journal::decode(flipped)) << "flip at byte " << pos;
    EXPECT_EQ(d.records.size(), damagedIndex) << "flip at byte " << pos;
    EXPECT_EQ(d.validBytes, prefixEnd) << "flip at byte " << pos;
    EXPECT_FALSE(d.warnings.empty()) << "flip at byte " << pos;
  }
}

TEST(JournalTornWrites, BitFlipInHeaderIsCorruption) {
  const EncodedJournal enc = encodeTestJournal();
  for (std::size_t pos = 0; pos < enc.headerSize; ++pos) {
    Bytes flipped = enc.bytes;
    flipped[pos] ^= 0x01;
    EXPECT_THROW((void)Journal::decode(flipped), JournalCorruptError)
        << "flip at byte " << pos;
  }
}

// --- File-backed lifecycle ---------------------------------------------------

class JournalFileTest : public ::testing::Test {
 protected:
  std::string path() const {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    return (std::filesystem::temp_directory_path() /
            (std::string("nodebench_journal_") + info->name() + ".bin"))
        .string();
  }

  void SetUp() override { std::filesystem::remove(path()); }
  void TearDown() override { std::filesystem::remove(path()); }

  /// The descriptor flags of this process's open fd on path(); -1 when
  /// none is open.
  int appendFdFlags() const {
    const std::filesystem::path target = std::filesystem::canonical(path());
    for (const auto& entry :
         std::filesystem::directory_iterator("/proc/self/fd")) {
      std::error_code ec;
      if (std::filesystem::read_symlink(entry.path(), ec) == target) {
        return ::fcntl(std::stoi(entry.path().filename().string()), F_GETFD);
      }
    }
    return -1;
  }
};

TEST_F(JournalFileTest, CreateAppendResumeReplays) {
  const CampaignConfig cfg = testConfig();
  {
    auto journal = Journal::create(path(), cfg);
    for (const CellRecord& rec : testRecords()) {
      journal->append(rec);
    }
    EXPECT_EQ(journal->recordCount(), 3u);
    EXPECT_EQ(journal->appendedThisProcess(), 3u);
  }
  auto resumed = Journal::resume(path(), cfg);
  EXPECT_TRUE(resumed->warnings().empty());
  EXPECT_EQ(resumed->recordCount(), 3u);
  EXPECT_EQ(resumed->appendedThisProcess(), 0u);
  const CellRecord* rec = resumed->find("Frontier", "T5 babelstream");
  ASSERT_NE(rec, nullptr);
  expectRecordsEqual(*rec, testRecords()[0]);
  EXPECT_EQ(resumed->find("Frontier", "no such cell"), nullptr);
}

TEST_F(JournalFileTest, AppendIsIdempotentPerCell) {
  auto journal = Journal::create(path(), testConfig());
  journal->append(testRecords()[0]);
  journal->append(testRecords()[0]);  // e.g. `table all` recomputing T5
  EXPECT_EQ(journal->recordCount(), 1u);
  EXPECT_EQ(journal->appendedThisProcess(), 1u);
}

TEST_F(JournalFileTest, CreateRefusesExistingFile) {
  { auto journal = Journal::create(path(), testConfig()); }
  EXPECT_THROW((void)Journal::create(path(), testConfig()), Error);
}

TEST_F(JournalFileTest, ResumeRefusesChangedConfigNamingParameter) {
  { auto journal = Journal::create(path(), testConfig()); }
  CampaignConfig changed = testConfig();
  changed.runs = 7;
  try {
    (void)Journal::resume(path(), changed);
    FAIL() << "expected ConfigMismatchError";
  } catch (const ConfigMismatchError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--runs"), std::string::npos) << what;
    EXPECT_NE(what.find("100"), std::string::npos) << what;
    EXPECT_NE(what.find("7"), std::string::npos) << what;
  }
}

TEST_F(JournalFileTest, ResumeTruncatesTornTailOnDisk) {
  const CampaignConfig cfg = testConfig();
  {
    auto journal = Journal::create(path(), cfg);
    journal->append(testRecords()[0]);
    journal->append(testRecords()[1]);
  }
  const auto fullSize = std::filesystem::file_size(path());
  {
    // Simulate a crash mid-append: 5 bytes of a partial record frame.
    std::ofstream out(path(), std::ios::binary | std::ios::app);
    out.write("\x21\x00\x00\x00\x7f", 5);
  }
  auto resumed = Journal::resume(path(), cfg);
  ASSERT_FALSE(resumed->warnings().empty());
  EXPECT_NE(resumed->warnings()[0].find("torn tail truncated"),
            std::string::npos)
      << resumed->warnings()[0];
  EXPECT_EQ(resumed->recordCount(), 2u);
  // The rewrite restored the valid prefix on disk: a second resume is
  // warning-free and the file is back to its pre-crash size.
  EXPECT_EQ(std::filesystem::file_size(path()), fullSize);
  resumed.reset();
  auto again = Journal::resume(path(), cfg);
  EXPECT_TRUE(again->warnings().empty());
  EXPECT_EQ(again->recordCount(), 2u);
}

TEST_F(JournalFileTest, AppendDescriptorIsCloseOnExec) {
  // The framed log's append fd must not leak into processes a
  // supervisor forks and execs while it holds its journal open.
  const CampaignConfig cfg = testConfig();
  {
    auto journal = Journal::create(path(), cfg);
    const int flags = appendFdFlags();
    ASSERT_GE(flags, 0) << "no open fd on " << path();
    EXPECT_NE(flags & FD_CLOEXEC, 0) << "created journal";
  }
  auto resumed = Journal::resume(path(), cfg);
  const int flags = appendFdFlags();
  ASSERT_GE(flags, 0) << "no open fd on " << path();
  EXPECT_NE(flags & FD_CLOEXEC, 0) << "resumed journal";
}

TEST_F(JournalFileTest, AppendAfterResumeExtendsTheFile) {
  const CampaignConfig cfg = testConfig();
  {
    auto journal = Journal::create(path(), cfg);
    journal->append(testRecords()[0]);
  }
  {
    auto resumed = Journal::resume(path(), cfg);
    resumed->append(testRecords()[1]);
    EXPECT_EQ(resumed->recordCount(), 2u);
    EXPECT_EQ(resumed->appendedThisProcess(), 1u);
  }
  auto final = Journal::resume(path(), cfg);
  EXPECT_EQ(final->recordCount(), 2u);
  ASSERT_NE(final->find("Theta", "T4 stream-triad"), nullptr);
  EXPECT_TRUE(final->find("Theta", "T4 stream-triad")->failed);
}

}  // namespace
}  // namespace nodebench::campaign
