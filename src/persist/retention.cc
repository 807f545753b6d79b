#include "persist/retention.h"

#include <algorithm>
#include <unordered_map>

#include "persist/manager.h"

namespace dvs {
namespace persist {

namespace {

/// Every source's minimum consumer frontier, in one pass over the DTs'
/// edges. Suspended and failing DTs count too (they may resume).
std::unordered_map<ObjectId, VersionId> ConsumerFloors(const Catalog& catalog) {
  std::unordered_map<ObjectId, VersionId> floors;
  for (size_t i = 0; i < catalog.object_count(); ++i) {
    const CatalogObject* dt = catalog.ObjectAt(i);
    if (dt->dropped || dt->kind != ObjectKind::kDynamicTable) continue;
    for (ObjectId src : catalog.SourcesOf(dt->id)) {
      auto it = dt->dt->frontier.find(src);
      if (it == dt->dt->frontier.end()) continue;
      auto [floor, added] = floors.try_emplace(src, it->second);
      if (!added) floor->second = std::min(floor->second, it->second);
    }
  }
  return floors;
}

/// The watermark for one object given every source's consumer floor.
VersionId KeepFrom(const CatalogObject& obj, Micros now,
                   const std::unordered_map<ObjectId, VersionId>& floors) {
  if (obj.min_data_retention < 0 || obj.storage == nullptr || obj.dropped) {
    return kInvalidVersionId;
  }
  const VersionedTable& table = *obj.storage;

  // (a) Time travel: keep the version visible at the window's left edge —
  // reads at any t >= now - window resolve to it or something newer.
  const Micros horizon = now - obj.min_data_retention;
  VersionId keep_from =
      table.ResolveVersionAt(HlcTimestamp::AtWallTime(horizon));
  if (keep_from == kInvalidVersionId) {
    // Every retained version is newer than the horizon; nothing expires.
    return kInvalidVersionId;
  }

  // (b) Downstream incremental refreshes: never prune at or above a
  // consumer's frontier — its next change scan starts there.
  auto floor = floors.find(obj.id);
  if (floor != floors.end()) keep_from = std::min(keep_from, floor->second);

  // (c) The latest version is always kept (PruneVersionsBefore clamps too).
  keep_from = std::min(keep_from, table.latest_version());
  if (keep_from <= table.first_version()) return kInvalidVersionId;
  return keep_from;
}

}  // namespace

VersionId RetentionKeepFrom(const Catalog& catalog, const CatalogObject& obj,
                            Micros now) {
  return KeepFrom(obj, now, ConsumerFloors(catalog));
}

PruneOutcome ApplyPruneToObject(CatalogObject* obj, VersionId keep_from) {
  PruneOutcome out = obj->storage->PruneVersionsBefore(keep_from);
  if (obj->dt != nullptr) {
    // Trim refresh-timestamp entries whose version was pruned; exact-version
    // reads of those timestamps now fail like any out-of-retention read.
    // Goes through the locked mutator so concurrent serve-side ResolveRead
    // calls never observe the map mid-erase.
    obj->dt->TrimRefreshVersionsBelow(obj->storage->first_version());
  }
  return out;
}

RetentionOutcome RunRetentionGc(Catalog& catalog, Micros now,
                                Manager* manager) {
  const auto floors = ConsumerFloors(catalog);
  RetentionOutcome out;
  for (size_t i = 0; i < catalog.object_count(); ++i) {
    CatalogObject* obj = catalog.MutableObjectAt(i);
    VersionId keep_from = KeepFrom(*obj, now, floors);
    if (keep_from == kInvalidVersionId) continue;
    out.Add(ApplyPruneToObject(obj, keep_from));
    if (manager != nullptr) manager->AppendPrune(obj->id, keep_from);
  }
  return out;
}

}  // namespace persist
}  // namespace dvs
