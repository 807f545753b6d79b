// Retention GC — piece (3) of the durability subsystem.
//
// A table with a MIN_DATA_RETENTION window keeps every version reachable by
// (a) time travel within the window ("read as of t" for t >= now - window),
// (b) any downstream DT's next incremental refresh (its recorded frontier
//     version is the change-scan start point), and
// (c) the latest version (always).
// Everything older is pruned: versions are dropped and micro-partitions no
// retained live set references are freed, bounding the memory of a
// long-running pipeline. For DTs the refresh-timestamp -> version map is
// trimmed in lockstep, so out-of-retention exact-version reads fail the
// same way out-of-retention time travel does.
//
// The scheduler runs the GC at the end of every tick's finalize phase
// (serial — never racing the execute phase); each applied pruning watermark
// is journaled to the WAL so recovery replays the identical prune.

#ifndef DVS_PERSIST_RETENTION_H_
#define DVS_PERSIST_RETENTION_H_

#include "catalog/catalog.h"

namespace dvs {
namespace persist {

class Manager;

struct RetentionOutcome {
  uint64_t versions_pruned = 0;
  uint64_t partitions_freed = 0;

  void Add(const PruneOutcome& p) {
    versions_pruned += p.versions_pruned;
    partitions_freed += p.partitions_freed;
  }
};

/// Computes the pruning watermark for one object under its retention window
/// and the downstream frontiers, or kInvalidVersionId when nothing can be
/// pruned. Pure — does not mutate. O(DT edges): RunRetentionGc shares one
/// pass over the edges among all objects instead of calling this per object.
VersionId RetentionKeepFrom(const Catalog& catalog, const CatalogObject& obj,
                            Micros now);

/// Applies a pruning watermark to one object: storage versions/partitions
/// plus, for DTs, refresh-version map entries pointing below the watermark.
/// Shared by the live GC and WAL replay, so both produce identical state.
PruneOutcome ApplyPruneToObject(CatalogObject* obj, VersionId keep_from);

/// One GC pass over every object with a retention window; journals each
/// applied watermark through `manager` when non-null.
RetentionOutcome RunRetentionGc(Catalog& catalog, Micros now,
                                Manager* manager);

}  // namespace persist
}  // namespace dvs

#endif  // DVS_PERSIST_RETENTION_H_
