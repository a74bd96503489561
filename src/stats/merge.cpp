#include "stats/merge.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

namespace nodebench::stats {

using campaign::ShardMergeError;
using campaign::shardSpecText;

ShardStoreInput loadShardStoreInput(const std::string& path) {
  ShardStoreInput input;
  input.name = path;
  try {
    input.contents = ResultStore::load(path);
  } catch (const StoreCorruptError& e) {
    throw ShardMergeError("cannot merge store " + path + ": " + e.what());
  }
  return input;
}

std::vector<std::uint8_t> mergeShardStores(
    const std::vector<ShardStoreInput>& stores,
    const campaign::MergedCampaign& plan) {
  const std::uint32_t count = plan.shardCount;
  NB_EXPECTS_MSG(count >= 1, "merge plan carries no shard count");

  // Exactly one store per shard index; every index the journal merge saw
  // must be present, and — under a partial plan — a store for a shard
  // whose *journal* was missing is refused too: the journal is the
  // source of truth, and samples without journalled cells cannot merge.
  std::set<std::uint32_t> journalMissing;
  for (const campaign::ShardGap& gap : plan.missingShards) {
    journalMissing.insert(gap.shard);
  }
  std::vector<const ShardStoreInput*> byIndex(count, nullptr);
  for (const ShardStoreInput& s : stores) {
    const campaign::CampaignConfig& cfg = s.contents.config;
    if (cfg.shardCount == 0) {
      throw ShardMergeError("cannot merge store " + s.name +
                            ": not a shard store (it was recorded without "
                            "--shard)");
    }
    if (cfg.shardCount != count) {
      throw ShardMergeError("cannot merge store " + s.name +
                            ": recorded as one of " +
                            std::to_string(cfg.shardCount) +
                            " shard(s) but the journal set has " +
                            std::to_string(count));
    }
    if (journalMissing.count(cfg.shardIndex) != 0) {
      throw ShardMergeError(
          "cannot merge: store shard " +
          shardSpecText({cfg.shardIndex, count}) + " (" + s.name +
          ") has samples but its journal is a quarantined gap in the "
          "partial merge — a store without its journal cannot merge");
    }
    const ShardStoreInput*& slot = byIndex[cfg.shardIndex];
    if (slot != nullptr) {
      throw ShardMergeError("cannot merge: store shard " +
                            shardSpecText({cfg.shardIndex, count}) +
                            " appears twice (" + slot->name + " and " +
                            s.name + ")");
    }
    slot = &s;
  }
  for (std::uint32_t i = 0; i < count; ++i) {
    if (byIndex[i] == nullptr && journalMissing.count(i) == 0) {
      throw ShardMergeError("cannot merge: store shard " +
                            shardSpecText({i, count}) +
                            " is missing from the merge set (" +
                            std::to_string(stores.size()) + " of " +
                            std::to_string(count) + " shard store(s) given)");
    }
  }

  // One fingerprint, the journal plan's.
  for (std::uint32_t i = 0; i < count; ++i) {
    if (byIndex[i] == nullptr) {
      continue;
    }
    campaign::CampaignConfig normalized = byIndex[i]->contents.config;
    normalized.shardIndex = 0;
    normalized.shardCount = 0;
    const std::string mismatch =
        describeStoreMismatch(plan.config, normalized);
    if (!mismatch.empty()) {
      throw ShardMergeError("cannot merge: store shard " +
                            shardSpecText({i, count}) + " (" +
                            byIndex[i]->name +
                            ") does not match the shard journals' "
                            "configuration: " + mismatch);
    }
  }

  // Index the plan's grid, and the cells the partial journal merge
  // declared missing — a store record for one of those would be a sample
  // set with no journalled cell record backing it.
  std::map<std::string, std::size_t, std::less<>> gridIndex;
  for (std::size_t g = 0; g < plan.grid.size(); ++g) {
    gridIndex.emplace(campaign::cellKey(plan.grid[g].machine, plan.grid[g].cell), g);
  }
  std::set<std::size_t> missingCells(plan.missingCells.begin(),
                                     plan.missingCells.end());

  // Gather records, proving each one sits inside its shard's slice.
  struct Keyed {
    std::size_t gridPos;
    std::size_t fileOrder;
    const SampleRecord* record;
  };
  std::vector<Keyed> merged;
  std::set<std::string, std::less<>> seenKeys;
  std::size_t fileOrder = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    if (byIndex[i] == nullptr) {
      continue;
    }
    const ShardStoreInput& s = *byIndex[i];
    for (const SampleRecord& record : s.contents.records) {
      const auto git = gridIndex.find(campaign::cellKey(record.machine, record.cell));
      if (git == gridIndex.end()) {
        throw ShardMergeError("cannot merge: store " + s.name +
                              " contains a record for (" + record.machine +
                              ", " + record.cell +
                              ") which is not in the campaign grid");
      }
      if (missingCells.count(git->second) != 0) {
        throw ShardMergeError(
            "cannot merge: store " + s.name + " has samples for cell (" +
            record.machine + ", " + record.cell +
            ") which the partial journal merge lists as missing — a store "
            "record without its journal record cannot merge");
      }
      const std::uint32_t owner = plan.ownerShard[git->second];
      if (owner != i) {
        throw ShardMergeError(
            "cannot merge: store cell (" + record.machine + ", " +
            record.cell + ") is assigned to shard " +
            shardSpecText({owner, count}) + " but was recorded by shard " +
            shardSpecText({i, count}) + " (" + s.name +
            ") — overlapping shard stores cannot be merged");
      }
      std::string key = campaign::cellKey(record.machine, record.cell);
      key.push_back('\x1f');
      key.append(record.quantity);
      if (!seenKeys.insert(std::move(key)).second) {
        throw ShardMergeError("cannot merge: store " + s.name +
                              " records (" + record.machine + ", " +
                              record.cell + ", " + record.quantity +
                              ") twice");
      }
      merged.push_back(Keyed{git->second, fileOrder++, &record});
    }
  }

  // Grid order, stable within a cell: each shard's same-cell records are
  // appended by one worker thread in quantity order even at --jobs > 1,
  // so this reproduces the single-process --jobs 1 file order exactly.
  std::sort(merged.begin(), merged.end(), [](const Keyed& a, const Keyed& b) {
    if (a.gridPos != b.gridPos) {
      return a.gridPos < b.gridPos;
    }
    return a.fileOrder < b.fileOrder;
  });

  std::vector<std::uint8_t> out = ResultStore::encodeHeader(plan.config);
  for (const Keyed& k : merged) {
    const std::vector<std::uint8_t> framed =
        ResultStore::encodeRecord(*k.record);
    out.insert(out.end(), framed.begin(), framed.end());
  }
  return out;
}

}  // namespace nodebench::stats
