#include "storage/batch_scan.h"

#include "obs/profile.h"

namespace dvs {

BatchVector PartitionToBatches(const MicroPartition& p) {
  return RowsToBatches(p.rows);
}

BatchVector ScanBatchesAt(const VersionedTable& table, VersionId version,
                          PartitionBatchCache* cache) {
  BatchVector out;
  obs::ExecCounters& counters = obs::ExecCounters::Instance();
  obs::OpStats* prof = obs::CurrentScanTarget();
  table.VisitPartitionsAt(version, [&](const MicroPartition& p) {
    if (cache != nullptr) {
      auto it = cache->find(&p);
      const bool hit = it != cache->end();
      if (!hit) {
        it = cache->emplace(&p, PartitionToBatches(p)).first;
      }
      (hit ? counters.batch_cache_hits : counters.batch_cache_misses) += 1;
      if (prof != nullptr) {
        (hit ? prof->batch_cache_hits : prof->batch_cache_misses) += 1;
      }
      out.insert(out.end(), it->second.begin(), it->second.end());
    } else {
      BatchVector converted = PartitionToBatches(p);
      out.insert(out.end(), converted.begin(), converted.end());
    }
  });
  return out;
}

}  // namespace dvs
