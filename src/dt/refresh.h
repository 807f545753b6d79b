// The refresh engine (§5.3–§5.4): executes one refresh of a dynamic table
// to a given data timestamp, upholding delayed view semantics.
//
// Responsibilities:
//  - DVS version resolution: base tables "as of" the data timestamp by HLC
//    commit order; upstream DTs by *exact* refresh-timestamp lookup
//    (production validation 1 of §6.1 — a missing entry fails the refresh).
//  - Query evolution (§5.4): re-checks tracked dependencies before every
//    refresh; replaced upstream objects or changed schemas rebind the
//    defining query and force REINITIALIZE; dropped objects fail the
//    refresh until UNDROPped (§3.4).
//  - Refresh action decision (§3.3.2): NO_DATA / FULL / INCREMENTAL /
//    REINITIALIZE, with the initial refresh as INITIALIZE.
//  - Error bookkeeping (§3.3.3): consecutive user-error failures
//    auto-suspend the DT.
//
// The engine is synchronous and virtual-time-agnostic; the scheduler layers
// timing (durations, skips, warehouse slots) on top.
//
// Thread safety: Refresh may be called concurrently for *different* DTs
// (the runtime/ thread pool does). Each refresh mutates only its own DT's
// metadata and storage; reads of upstream objects must be ordered against
// the upstream's refresh by the caller (the scheduler's DAG barriers).
// Commit stamping and table locks are serialized by the TransactionManager;
// the commit observer is serialized here. Concurrent Refresh of the *same*
// DT is rejected by the §5.3 table lock.

#ifndef DVS_DT_REFRESH_H_
#define DVS_DT_REFRESH_H_

#include <mutex>

#include "catalog/catalog.h"
#include "exec/executor.h"
#include "ivm/differentiator.h"
#include "storage/batch_scan.h"
#include "txn/transaction_manager.h"

namespace dvs {

enum class RefreshAction {
  kInitialize,
  kNoData,
  kFull,
  kIncremental,
  kReinitialize,
};

const char* RefreshActionName(RefreshAction a);

struct RefreshOutcome {
  RefreshAction action = RefreshAction::kNoData;
  Micros data_timestamp = 0;
  /// Work done, for the cost model (0 for NO_DATA — "zero Virtual Warehouse
  /// compute", §5.4).
  uint64_t rows_processed = 0;
  /// Rows inserted+deleted in the DT by this refresh.
  size_t changes_applied = 0;
  /// Insert/delete breakdown of the applied changes, threaded through from
  /// the differentiator (computed once, never rescanned).
  ChangeStats change_stats;
  size_t dt_row_count = 0;
  bool consolidation_skipped = false;
  bool used_state_reuse = false;
};

struct RefreshEngineOptions {
  /// E12 extension: use the state-reusing aggregation derivative when
  /// applicable.
  bool enable_state_reuse = false;
  /// §5.5.2 insert-only specialization (skip consolidation when provable).
  bool enable_insert_only_optimization = true;
  /// Consecutive failures before auto-suspend (§3.3.3).
  int max_consecutive_failures = 5;
};

class RefreshEngine {
 public:
  RefreshEngine(Catalog* catalog, TransactionManager* txn,
                RefreshEngineOptions options = {})
      : catalog_(catalog), txn_(txn), options_(options) {}

  /// Refreshes `dt_id` so its contents equal its defining query as of
  /// `refresh_ts`. On user error: increments the failure counter (possibly
  /// suspending the DT) and returns the error.
  Result<RefreshOutcome> Refresh(ObjectId dt_id, Micros refresh_ts);

  /// Manual refresh (§3.1.2): refreshes everything upstream of `dt_id` at
  /// `refresh_ts` (dependency order), then `dt_id` itself.
  Result<RefreshOutcome> RefreshWithUpstream(ObjectId dt_id, Micros refresh_ts);

  /// Initializes a freshly created DT (§3.1.2): picks the most recent
  /// upstream-aligned data timestamp within the target lag to avoid wasted
  /// recomputation; falls back to `now` (refreshing upstreams) otherwise.
  /// Returns the chosen data timestamp.
  Result<Micros> Initialize(ObjectId dt_id, Micros now);

  /// Materializes any object's contents as of data timestamp `ts` under DVS
  /// resolution. `exact_dt`: DTs resolve by exact refresh timestamp
  /// (refresh-path rule); otherwise by latest refresh <= ts (query path).
  Result<std::vector<IdRow>> ScanAsOf(ObjectId id, Micros ts, bool exact_dt);

  /// Scan resolver for executing plans at data timestamp `ts`.
  ScanResolver MakeResolver(Micros ts, bool exact_dt);

  const RefreshEngineOptions& options() const { return options_; }
  RefreshEngineOptions* mutable_options() { return &options_; }

  /// Observer invoked after every committed refresh with the DT, its new
  /// table version, and the exact source versions consumed (the frontier).
  /// Used by the isolation recorder to emit derivation events.
  using CommitObserver = std::function<void(
      const CatalogObject& dt, VersionId new_version,
      const std::unordered_map<ObjectId, VersionId>& sources)>;
  void set_commit_observer(CommitObserver observer) {
    commit_observer_ = std::move(observer);
  }

  // ---- Durability hooks (persist/) ----

  /// Everything WAL replay needs to reproduce one committed refresh: the
  /// metadata transition (refresh_versions entry, frontier, data timestamp)
  /// plus the storage commit when it did not go through the transaction
  /// manager (Overwrite / CommitNoOp are direct storage calls; incremental
  /// ApplyChanges is journaled by the TransactionManager commit hook).
  struct RefreshCommitInfo {
    ObjectId dt = kInvalidObjectId;
    Micros refresh_ts = 0;
    RefreshAction action = RefreshAction::kNoData;
    enum class StorageCommit : uint8_t {
      kOverwrite = 0,  ///< Replay Overwrite(rows, commit_ts).
      kNoOp = 1,       ///< Replay CommitNoOp(commit_ts).
      kApplied = 2,    ///< Changes already replayed via the txn commit WAL.
    };
    StorageCommit commit = StorageCommit::kNoOp;
    HlcTimestamp commit_ts;   ///< kOverwrite / kNoOp payload.
    std::vector<IdRow> rows;  ///< kOverwrite payload (copied only when a
                              ///< persist hook is installed).
    VersionId new_version = kInvalidVersionId;
    std::unordered_map<ObjectId, VersionId> frontier;
  };
  using PersistHook = std::function<void(const RefreshCommitInfo&)>;
  void set_persist_hook(PersistHook hook) { persist_hook_ = std::move(hook); }
  bool has_persist_hook() const { return persist_hook_ != nullptr; }

  /// Invoked when a refresh fails, so recovery reproduces failure accounting
  /// and suspension. `transient` distinguishes retryable failures (tracked in
  /// transient_failures, never counted toward auto-suspend) from permanent
  /// ones (consecutive_failures / §3.3.3 suspension).
  using FailureHook =
      std::function<void(ObjectId dt, const Status& error, bool transient)>;
  void set_failure_hook(FailureHook hook) { failure_hook_ = std::move(hook); }

  /// Records a transient failure that happened *outside* Refresh (e.g. the
  /// scheduler's warehouse-outage gate rejects the attempt before the engine
  /// runs), keeping accounting and the failure hook on one code path.
  void NoteTransientFailure(ObjectId dt_id, const Status& error);

 private:
  /// §5.4 dependency re-validation; may rebind the plan and set
  /// needs_reinit. Fails if a dependency is missing.
  Status CheckQueryEvolution(CatalogObject* obj);

  /// Per-source table versions at `refresh_ts` under refresh-path rules.
  Result<std::unordered_map<ObjectId, VersionId>> ResolveSourceVersions(
      const CatalogObject& obj, Micros refresh_ts);

  /// Resolver pinned to explicit per-source versions — the frontier
  /// mechanism of §5.3. Wall-time resolution is ambiguous when several
  /// commits share a physical clock tick; refreshes must read the *exact*
  /// versions recorded at interval endpoints. `cache` memoizes per-partition
  /// batch conversions; an incremental refresh passes ONE cache to both
  /// endpoint resolvers, so partitions unchanged over the interval produce
  /// pointer-identical batches at both ends (the batch engine's
  /// cross-endpoint cache key).
  BatchScanResolver MakeBatchVersionResolver(
      std::shared_ptr<const std::unordered_map<ObjectId, VersionId>> versions,
      std::shared_ptr<PartitionBatchCache> cache);

  /// Full computation of the defining query against pinned source versions,
  /// with context functions evaluated at `ts` (INITIALIZE / FULL /
  /// REINITIALIZE). `profile` (nullable) collects per-operator stats.
  Result<std::vector<IdRow>> ComputeFull(
      const CatalogObject& obj,
      const std::unordered_map<ObjectId, VersionId>& versions, Micros ts,
      uint64_t* rows_processed, obs::ProfileSink* profile);

  /// The INCREMENTAL derivative (§5.5): the changes that move the DT from
  /// its frontier to `versions`. Fills `dctx` (the caller's, with its
  /// profile set) with the interval's deltas and endpoint resolvers, and
  /// `out` with the work and change statistics.
  Result<ChangeSet> ComputeIncremental(
      const CatalogObject& obj,
      const std::unordered_map<ObjectId, VersionId>& versions, Micros ts,
      DeltaContext* dctx, RefreshOutcome* out);

  /// Applies a user-error to the DT's failure accounting.
  void RecordFailure(CatalogObject* obj);

  Catalog* catalog_;
  TransactionManager* txn_;
  RefreshEngineOptions options_;
  CommitObserver commit_observer_;
  PersistHook persist_hook_;
  FailureHook failure_hook_;
  /// Serializes commit_observer_ invocations across refresh workers (the
  /// isolation recorder appends to one shared history).
  std::mutex observer_mu_;
};

}  // namespace dvs

#endif  // DVS_DT_REFRESH_H_
