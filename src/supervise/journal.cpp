#include "supervise/journal.hpp"

#include <utility>

#include "campaign/shard.hpp"
#include "core/utf8.hpp"

namespace nodebench::supervise {

using campaign::PayloadReader;
using campaign::PayloadWriter;

namespace {

/// Decode limits, sized like the campaign journal's: an event is a few
/// integers plus one incident string, and even a pathological campaign
/// journals a few thousand events.
constexpr campaign::FramedFormat kFormat{
    .magic = {'N', 'B', 'S', 'V'},
    .version = 1,
    .maxFrameBytes = 1u << 20,
    .maxFileBytes = 64ull << 20,
    .tail = campaign::TailPolicy::Truncate,
    .raise = &campaign::raiseAs<SupervisorJournalError>,
    .title = "supervisor journal",
    .noun = "supervisor journal",
    .fileNoun = "supervisor journal",
    .unit = "event",
};

}  // namespace

bool SupervisorConfig::operator==(const SupervisorConfig& o) const {
  return campaign::describeConfigMismatch(campaign, o.campaign).empty() &&
         shards == o.shards && maxAttempts == o.maxAttempts &&
         backoffBaseMs == o.backoffBaseMs && backoffCapMs == o.backoffCapMs;
}

std::string describeSupervisorConfigMismatch(const SupervisorConfig& recorded,
                                             const SupervisorConfig& current) {
  const std::string campaignMismatch =
      campaign::describeConfigMismatch(recorded.campaign, current.campaign);
  if (!campaignMismatch.empty()) {
    return campaignMismatch;
  }
  static constexpr std::pair<const char*, std::uint32_t SupervisorConfig::*>
      kFields[] = {{"--shards", &SupervisorConfig::shards},
                   {"--max-attempts", &SupervisorConfig::maxAttempts},
                   {"--backoff-base-ms", &SupervisorConfig::backoffBaseMs},
                   {"--backoff-cap-ms", &SupervisorConfig::backoffCapMs}};
  for (const auto& [param, field] : kFields) {
    if (recorded.*field != current.*field) {
      return "supervisor configuration mismatch: " + std::string(param) +
             " was " + std::to_string(recorded.*field) +
             " when the campaign started but is " +
             std::to_string(current.*field) +
             " in this run; rerun with the original parameters or start a "
             "fresh campaign";
    }
  }
  return {};
}

std::vector<std::uint8_t> SupervisorJournal::encodeHeader(
    const SupervisorConfig& config) {
  PayloadWriter w;
  campaign::putCampaignConfig(w, config.campaign, /*shardExtension=*/false);
  w.putU32(config.shards);
  w.putU32(config.maxAttempts);
  w.putU32(config.backoffBaseMs);
  w.putU32(config.backoffCapMs);
  return campaign::encodeFramedHeader(kFormat, w.bytes());
}

std::vector<std::uint8_t> SupervisorJournal::encodeEvent(
    const SupervisorEvent& event) {
  PayloadWriter w;
  w.putU32(static_cast<std::uint32_t>(event.kind));
  w.putU32(event.shard);
  w.putU32(event.attempt);
  w.putU64(event.pid);
  w.putString(event.detail);
  return campaign::frame(w.bytes());
}

SupervisorJournal::Decoded SupervisorJournal::decode(
    std::span<const std::uint8_t> bytes) {
  Decoded out;
  const auto onHeader = [&](std::span<const std::uint8_t> payload) {
    PayloadReader r(payload);
    out.config.campaign =
        campaign::readCampaignConfig(r, kFormat, /*shardExtension=*/false);
    out.config.shards = r.u32();
    out.config.maxAttempts = r.u32();
    out.config.backoffBaseMs = r.u32();
    out.config.backoffCapMs = r.u32();
    if (!r.atEnd()) {
      throw campaign::JournalCorruptError(
          "supervisor journal header carries unexpected bytes");
    }
    if (out.config.shards == 0 ||
        out.config.shards > campaign::kMaxShardCount) {
      throw SupervisorJournalError(
          "supervisor journal header carries an invalid shard count " +
          std::to_string(out.config.shards));
    }
  };
  const auto onEvent = [&](std::span<const std::uint8_t> payload) {
    PayloadReader r(payload);
    SupervisorEvent event;
    const std::uint32_t kind = r.u32();
    if (kind < 1 || kind > 4) {
      throw campaign::JournalCorruptError(
          "supervisor event kind " + std::to_string(kind) + " out of range");
    }
    event.kind = static_cast<EventKind>(kind);
    event.shard = r.u32();
    event.attempt = r.u32();
    event.pid = r.u64();
    event.detail = r.string();
    if (!validUtf8(event.detail)) {
      throw campaign::JournalCorruptError(
          "supervisor event carries invalid UTF-8 in its detail field");
    }
    if (event.shard >= out.config.shards) {
      throw campaign::JournalCorruptError(
          "supervisor event names shard " + std::to_string(event.shard) +
          " but the campaign has " + std::to_string(out.config.shards) +
          " shard(s)");
    }
    if (!r.atEnd()) {
      throw campaign::JournalCorruptError(
          "supervisor event carries trailing bytes");
    }
    out.events.push_back(std::move(event));
  };
  out.validBytes =
      campaign::decodeFramed(kFormat, bytes, onHeader, onEvent, out.warnings);
  return out;
}

SupervisorJournal::Decoded SupervisorJournal::load(const std::string& path) {
  return decode(campaign::loadCapped(kFormat, path));
}

std::unique_ptr<SupervisorJournal> SupervisorJournal::create(
    const std::string& path, const SupervisorConfig& config) {
  auto journal = std::unique_ptr<SupervisorJournal>(new SupervisorJournal());
  journal->log_ = campaign::FramedLog::create(kFormat, path, encodeHeader(config));
  journal->config_ = config;
  return journal;
}

std::unique_ptr<SupervisorJournal> SupervisorJournal::resume(
    const std::string& path, const SupervisorConfig& current) {
  const std::vector<std::uint8_t> bytes = campaign::loadCapped(kFormat, path);
  Decoded decoded = decode(bytes);
  campaign::refuseMismatch(
      path, describeSupervisorConfigMismatch(decoded.config, current));
  auto journal = std::unique_ptr<SupervisorJournal>(new SupervisorJournal());
  journal->log_ =
      campaign::FramedLog::reopen(kFormat, path, bytes, decoded.validBytes);
  journal->config_ = decoded.config;
  journal->events_ = std::move(decoded.events);
  journal->warnings_ = std::move(decoded.warnings);
  return journal;
}

void SupervisorJournal::append(const SupervisorEvent& event) {
  log_->append(encodeEvent(event));
  events_.push_back(event);
}

}  // namespace nodebench::supervise
