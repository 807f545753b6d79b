// The refresh scheduler (§3.2, §3.3.3, §5.2).
//
// Drives scheduled refreshes over the DT dependency graph against a
// VirtualClock:
//  - Effective target lag: a DT's own duration, or for DOWNSTREAM the
//    minimum effective lag of its downstream consumers (§3.2).
//  - Canonical refresh periods 48·2^n seconds with a constant phase, each
//    DT's period >= all upstream periods, so data timestamps of a connected
//    component always align (§5.2).
//  - Refreshes of one DT never run concurrently: if the previous refresh is
//    still executing at the next tick, the tick is skipped; the following
//    refresh covers the whole interval, shedding the skipped fixed costs
//    (§3.3.3).
//  - Refresh durations come from the warehouse cost model; a DT's refresh
//    cannot start before its upstream refreshes for the same data timestamp
//    have finished (w_i >= max(w_j + d_j), §5.2), and co-located DTs queue
//    on their shared warehouse.
//  - Lag accounting reproduces Figure 4's sawtooth: peak lag of refresh i is
//    e_i − v_{i−1}, trough lag is e_i − v_i.
//
// Concurrent execution (the runtime/ subsystem). With
// SchedulerOptions::worker_threads > 0, every tick runs in three phases:
//   1. Plan (serial): topologically order the due DTs, decide busy-skips
//      from previous-tick state, and build the same-tick dependency edges.
//   2. Execute (parallel): refreshes of independent DTs run concurrently on
//      the thread pool; a DT starts only after all its same-tick upstream
//      refreshes finished (barrier), and per-warehouse admission gates cap
//      co-located concurrency at the warehouse's configured limit.
//   3. Finalize (serial, deterministic merge): warehouse slots, billing,
//      busy/skip state, lag accounting, and log records are computed in the
//      phase-1 topological order — so the refresh log, billing, and lag
//      numbers are byte-identical to serial mode (worker_threads = 0, the
//      default, which runs the same three phases inline).

#ifndef DVS_SCHED_SCHEDULER_H_
#define DVS_SCHED_SCHEDULER_H_

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "dt/engine.h"
#include "obs/metrics.h"
#include "runtime/dag_runner.h"
#include "runtime/thread_pool.h"

namespace dvs {

namespace persist {
class Manager;
}  // namespace persist

/// The canonical period base: 48 seconds (§5.2).
constexpr Micros kCanonicalBasePeriod = 48 * kMicrosPerSecond;

/// Largest canonical period 48·2^n <= `limit`, or the base period if none.
Micros LargestCanonicalPeriodAtMost(Micros limit);

struct RefreshRecord {
  ObjectId dt = kInvalidObjectId;
  std::string dt_name;
  Micros data_timestamp = 0;   ///< v_i
  Micros start_time = 0;       ///< s_i
  Micros end_time = 0;         ///< e_i
  RefreshAction action = RefreshAction::kNoData;
  bool skipped = false;        ///< Previous refresh still running.
  bool failed = false;
  std::string error;
  /// Status code of the failure (or of the upstream outage for
  /// upstream-missing skips); kOk for clean records. Post-mortems need the
  /// *class* of failure, not just its message text.
  StatusCode error_code = StatusCode::kOk;
  /// Engine refresh attempts behind this record (retries included). 0 for
  /// records where the engine never ran (skips, warehouse outage).
  int attempts = 0;
  /// Total virtual-time retry backoff accumulated before this record's
  /// outcome (capped exponential; see SchedulerOptions::retry_*).
  Micros retry_backoff = 0;
  uint64_t rows_processed = 0;
  size_t changes_applied = 0;
  size_t dt_row_count = 0;
  /// Peak lag just before this refresh committed: e_i − v_{i−1}.
  Micros peak_lag = 0;
  /// Trough lag right after commit: e_i − v_i.
  Micros trough_lag = 0;
};

/// Scheduler state captured into checkpoints and rebuilt by recovery. The
/// busy-until / last-end / previous-data-timestamp maps are not serialized:
/// ImportState re-derives them from the log the same way FinalizeNode
/// maintains them, so recovered scheduling decisions match the live run.
struct SchedulerPersistState {
  std::vector<RefreshRecord> log;
  Micros last_run = 0;
};

struct SchedulerOptions {
  CostModel cost_model;
  /// When false, disables the canonical-period heuristic and uses each DT's
  /// exact target lag as its period (the E9 ablation baseline).
  bool canonical_periods = true;
  /// Worker threads for DAG-parallel refresh execution; 0 (default) executes
  /// every refresh serially on the caller's thread. Any value produces the
  /// same refresh log, billing, and DT contents — only wall time differs.
  int worker_threads = 0;
  /// Durability manager (persist/). When set, every finalized log entry,
  /// tick boundary, and retention pruning decision is journaled to the WAL,
  /// and checkpoints are taken in the finalize phase per the manager's
  /// policy (never racing the execute phase). Must outlive the scheduler.
  persist::Manager* persistence = nullptr;
  /// Runs retention GC (persist/retention.h) at the end of every tick's
  /// finalize phase. A no-op for tables without a retention window.
  bool retention_gc = true;
  /// Transient-failure retry policy. A refresh that fails with a retryable
  /// status (Status::retryable(): kUnavailable / kResourceExhausted) is
  /// retried up to `retry_max_attempts` total attempts within the tick, with
  /// capped exponential backoff *in virtual time*: attempt k waits
  /// min(retry_cap, retry_base·2^(k-1)) before running. The accumulated
  /// backoff delays the refresh's warehouse slot on success, and on
  /// exhaustion extends the failed record's end_time (so a long backoff
  /// spills into next-tick busy-skip). Transient failures never count toward
  /// consecutive_failures / auto-suspend. retry_max_attempts <= 1 disables
  /// retrying (every failure is terminal for the tick, as before).
  int retry_max_attempts = 3;
  Micros retry_base = kMicrosPerSecond;
  Micros retry_cap = 30 * kMicrosPerSecond;
  /// Metrics registry for the scheduler's `sched.*` counters (tick and
  /// refresh accounting). All of them are bumped only in the serial plan /
  /// finalize phases, so they are deterministic — byte-identical at any
  /// worker count. Must outlive the scheduler; nullptr disables.
  obs::Registry* metrics = nullptr;
};

class Scheduler {
 public:
  Scheduler(DvsEngine* engine, VirtualClock* clock,
            SchedulerOptions options = {});
  ~Scheduler();

  /// Advances virtual time to `t`, firing all scheduled refreshes due in
  /// (now, t]. Ticks are aligned to the canonical base period.
  void RunUntil(Micros t);

  /// Effective target lag of a DT: its duration, or min over downstream for
  /// DOWNSTREAM (nullopt if DOWNSTREAM with no consumer — never scheduled).
  /// Memoized per catalog graph epoch.
  std::optional<Micros> EffectiveTargetLag(ObjectId dt_id);

  /// The refresh period chosen for a DT (§5.2 heuristic); 0 when never
  /// scheduled. Memoized per catalog graph epoch.
  Micros RefreshPeriod(ObjectId dt_id);

  const std::vector<RefreshRecord>& log() const { return log_; }
  void ClearLog() { log_.clear(); }

  /// Lag of a DT at wall time `t`, from the refresh log: t − (data timestamp
  /// of the last refresh that had *committed* by t).
  std::optional<Micros> LagAt(ObjectId dt_id, Micros t) const;

  /// Peak concurrent refreshes observed per warehouse admission gate across
  /// all ticks (parallel mode only; empty in serial mode). Admission tests
  /// assert these never exceed the warehouse's configured concurrency.
  const std::map<std::string, int>& max_gate_occupancy() const {
    return max_gate_occupancy_;
  }

  // ---- Durability support (persist/) ----

  /// Snapshot of the scheduler's persistent state for a checkpoint.
  SchedulerPersistState ExportState() const {
    return {log_, last_run_};
  }
  /// Recovery: adopts state produced by persist::Recover. Re-derives the
  /// busy/last-end/prev-data-ts maps from the log.
  void ImportState(SchedulerPersistState state);

 private:
  /// One due refresh inside a tick (phases share it).
  struct TickNode {
    ObjectId dt = kInvalidObjectId;
    CatalogObject* obj = nullptr;
    /// Direct upstream DTs, resolved once in the plan phase (the list a
    /// refresh-triggered rebind would change mid-tick must not be re-read).
    std::vector<ObjectId> upstream;
    /// Phase 1: previous refresh still running — never executed.
    bool busy_skip = false;
    /// Phase 1: the DT's warehouse is out this tick (injected outage) — the
    /// engine never runs; finalized as a transient failure.
    bool warehouse_out = false;
    Status warehouse_status;
    /// Phase 2: an upstream has no version at this timestamp — not executed.
    bool upstream_missing = false;
    /// Phase 2: engine attempts made and virtual-time backoff accumulated by
    /// the transient-retry loop.
    int attempts = 0;
    Micros backoff = 0;
    std::optional<Result<RefreshOutcome>> result;
  };

  /// `sched.*` registry counters (all deterministic; null when no registry
  /// was configured). Bumped only from the serial tick phases.
  struct Counters {
    obs::Counter* ticks = nullptr;
    obs::Counter* refreshes = nullptr;
    obs::Counter* refreshes_no_data = nullptr;
    obs::Counter* busy_skips = nullptr;
    obs::Counter* upstream_skips = nullptr;
    obs::Counter* failures = nullptr;
    obs::Counter* transient_failures = nullptr;
    obs::Counter* retry_attempts = nullptr;
    obs::Counter* retry_backoff_us = nullptr;
    obs::Counter* rows_processed = nullptr;
    obs::Counter* changes_applied = nullptr;
    obs::Counter* checkpoint_failures = nullptr;
  };

  /// Everything the scheduler derives from the catalog's dependency graph,
  /// rebuilt only when the graph epoch moves (DDL, ALTER ... TARGET_LAG, a
  /// §5.4 rebind) — a steady tick reads it without walking any plan.
  struct GraphMemo {
    uint64_t epoch = ~uint64_t{0};
    std::vector<ObjectId> order;  ///< Catalog::TopoOrder(); empty on a cycle.
    std::unordered_map<ObjectId, std::optional<Micros>> lag;
    std::unordered_map<ObjectId, Micros> period;
  };

  void Tick(Micros t);
  /// Phase 2 body for one node: post-barrier upstream check, then the
  /// engine refresh. Thread-safe w.r.t. other nodes' ExecuteNode calls.
  void ExecuteNode(TickNode* node, Micros t);
  /// Phase 3 body for one node: timing, billing, lag, log append. Serial.
  void FinalizeNode(TickNode* node, Micros t);
  /// Applies one finalized record to the registry counters (serial).
  void CountRecord(const RefreshRecord& rec);
  /// Brings memo_ up to the catalog's graph epoch. Caller holds memo_mu_.
  void RefreshMemoLocked();

  DvsEngine* engine_;
  VirtualClock* clock_;
  SchedulerOptions options_;
  std::vector<RefreshRecord> log_;
  /// Per-DT busy-until (end time of the in-flight refresh).
  std::map<ObjectId, Micros> busy_until_;
  /// Per-DT end time of the last *successful* refresh per data timestamp —
  /// used for upstream wait (w) computation within a tick.
  std::map<ObjectId, Micros> last_end_;
  /// Per-DT data timestamp of the previous committed refresh (for peak lag).
  std::map<ObjectId, Micros> prev_data_ts_;
  Micros last_run_ = 0;
  /// Present iff worker_threads > 0.
  std::unique_ptr<runtime::ThreadPool> pool_;
  std::unique_ptr<runtime::DagRefreshRunner> runner_;
  std::map<std::string, int> max_gate_occupancy_;
  Counters counters_;
  /// Guards memo_: GRAPH_HISTORY reads effective lags from query threads.
  std::mutex memo_mu_;
  GraphMemo memo_;
};

}  // namespace dvs

#endif  // DVS_SCHED_SCHEDULER_H_
