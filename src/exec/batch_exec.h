// Batch-at-a-time plan execution: the one execution engine.
//
// ExecutePlanBatches (and ExecutePlan on top of it, exec/executor.h) moves
// data as ColumnBatches: scans adapt partitions to batches, filters compact
// selection vectors instead of copying rows, joins build/probe the HashedKey
// digest infrastructure a batch of keys at a time, and aggregation
// accumulates online over contiguous argument columns. Output rows, row
// ids, emission order, error selection and the rows_processed work metric
// match the row-at-a-time reference interpreter kept with the tests:
//
//  - all value semantics route through the shared scalar kernels
//    (ApplyBinaryOp / ApplyUnaryOp / CastValue / function registry),
//  - any vectorized evaluation error triggers a row-wise redo of the batch
//    (filter, project) or of the node (join, aggregate) through the scalar
//    code path, so the surfaced error — and which row "wins" — is the one
//    row-order evaluation would raise,
//  - operators with no batch kernel (distinct, window, flatten, order-by,
//    limit) materialize, run their row kernel (exec/executor.h), and
//    re-batch,
//  - every operator charges its output rows to rows_processed.
//
// Every batch an operator emits has its node's schema width. Storage
// rejects inserts of any other width (VersionedTable::ValidateChanges), and
// a scan whose source rows do not match the scan node's schema (e.g. a
// time-travel read of a DT version written before a §5.4 rebind changed
// the DT's schema) fails with FailedPrecondition.

#ifndef DVS_EXEC_BATCH_EXEC_H_
#define DVS_EXEC_BATCH_EXEC_H_

#include <unordered_map>

#include "exec/column_batch.h"
#include "exec/executor.h"
#include "exec/vector_eval.h"

namespace dvs {

/// Cached hash-join build + probe results, reused when the same join node
/// re-executes against pointer-identical right input batches (the
/// differentiator snapshots a plan at both refresh endpoints; unchanged
/// micro-partitions resolve to shared batches, so most of the second
/// execution is a cache hit). Only populated for kInner/kLeft joins whose
/// keys and residual are immutable — kRight/kFull track right_matched state
/// across the whole probe, and non-immutable expressions may evaluate
/// differently per endpoint.
struct BatchJoinCache {
  /// Owning: pointer identity is the cache key, so the cached batches must
  /// stay alive for the cache's lifetime (a freed batch's address could be
  /// recycled by a later allocation and alias a different batch).
  std::vector<BatchPtr> right_fingerprint;
  /// digest -> (right batch index << 32 | row), in right scan order.
  std::unordered_map<uint64_t, std::vector<uint64_t>> index;
  std::vector<BatchKeys> right_keys;  // per right batch, for collision confirm
  /// Per-left-batch join output (kInner/kLeft emission is independent of
  /// other left batches). Keys own the left batches, as above.
  std::unordered_map<BatchPtr, BatchPtr> outputs;
};

/// Per-refresh batch execution caches, owned by the differentiator's
/// DeltaContext (one refresh = one memo; batches referenced here stay alive
/// for the refresh via the snapshot caches / partition cache).
struct BatchMemo {
  /// Snapshot results per plan node, per interval endpoint (0 = start,
  /// 1 = end). Mirrors the row-side start_cache/end_cache.
  std::unordered_map<const PlanNode*, BatchVector> snapshots[2];
  std::unordered_map<const PlanNode*, BatchJoinCache> join;
  /// Memoized "all join/filter exprs immutable" verdicts per node.
  std::unordered_map<const PlanNode*, bool> immutable;
};

struct BatchExecEnv {
  ScanResolver resolve_scan;                // used when no batch source
  BatchScanResolver resolve_scan_batches;   // preferred scan source
  EvalContext eval;
  mutable uint64_t rows_processed = 0;
  /// Optional cross-execution caches (differentiator refreshes).
  BatchMemo* memo = nullptr;
  /// Optional per-operator profile collector (obs/profile.h). Null when
  /// profiling is disarmed — every hook site then costs one pointer check.
  obs::ProfileSink* profile = nullptr;
};

/// Executes the plan over column batches, charging env.rows_processed.
Result<BatchVector> ExecutePlanBatches(const PlanNode& plan,
                                       const BatchExecEnv& env);

/// Gathers `sel` rows of `batch` into a fresh compacted batch (ids and all
/// columns), preserving row order.
BatchPtr GatherBatch(const BatchPtr& batch, const Sel& sel);

/// Aggregation kernel over prepared input batches (`n` is a kAggregate
/// node). Matches ComputeAggregateRows bit-for-bit — values, row ids,
/// sorted-group emission order, and error selection; the differentiator's
/// affected-group recompute feeds it restricted batches. Vectorized
/// evaluation failures rerun through the row kernel internally.
Result<BatchVector> ComputeAggregateBatches(const PlanNode& n,
                                            const BatchVector& input,
                                            const BatchExecEnv& env,
                                            bool force_global_group);

}  // namespace dvs

#endif  // DVS_EXEC_BATCH_EXEC_H_
