// Operator-level execution profiles (the observability tentpole, part 3;
// ROADMAP "Observability architecture").
//
// A ProfileSink mirrors one plan execution as a tree of per-operator
// counters, keyed by PlanNode::node_tag (stable across rebinds because the
// binder canonicalizes tags by DFS position). The batch engine's ExecB
// dispatcher and the differentiator's snapshot/restrict/delta paths both
// attribute work to the node they are executing, so a profile of an
// incremental refresh shows exactly where rows and cache hits went.
//
// Determinism contract (PR 9): every OpStats field except wall_ns derives
// only from virtual-time work and is byte-identical across scheduler worker
// counts — bench_e21 gates that at worker_threads 0 vs 4. wall_ns is a
// reporting artifact, excluded from every byte-compare (DeterministicText
// renders without it).
//
// Arming is a common/global_hook.h GlobalHook, like the fault injector and
// the trace recorder: one process-global atomic flag, installed by
// benches/tools/tests via ScopedProfiling. RefreshEngine allocates a
// RefreshProfile per attempt only while armed; a disarmed refresh pays one
// atomic load, and a disarmed hook site inside the engines (OpTimer) pays
// one null-pointer check (the sink pointer in ExecContext / BatchExecEnv /
// DeltaContext stays null).
// EXPLAIN ANALYZE arms per-execution by passing its own sink, independent of
// the global flag.
//
// Thread-safety: a ProfileSink is written by exactly one execution at a time
// (a refresh attempt runs on one worker; an EXPLAIN ANALYZE runs on the
// caller), mirroring the rows_processed discipline. Completed profiles are
// published into the per-DT ring under a mutex (catalog.h), so concurrent
// REFRESH_PROFILE scrapes only ever see finished, immutable profiles.

#ifndef DVS_OBS_PROFILE_H_
#define DVS_OBS_PROFILE_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/global_hook.h"
#include "obs/metrics.h"
#include "plan/logical_plan.h"

namespace dvs {
namespace obs {

// ---- Always-on execution counters (registered via EngineMetrics) ----

/// Process-global counters for the exec-layer caches and fallbacks that were
/// previously invisible outside the profiling layer. Bumped unconditionally
/// (one relaxed fetch_add, the same cost as the StorageStats fields), so
/// they show up in MetricsSnapshot::DeterministicText() even when profiling
/// is disarmed. EngineMetrics reports them as deltas against their values at
/// registration time, which keeps per-run registries (the bench determinism
/// gates) comparable across sequential runs in one process.
struct ExecCounters {
  Counter join_cache_hits;     ///< exec.join_cache.hits (build + probe).
  Counter join_cache_misses;   ///< exec.join_cache.misses.
  Counter batch_cache_hits;    ///< storage.batch_cache.hits (per partition).
  Counter batch_cache_misses;  ///< storage.batch_cache.misses.
  Counter row_redos;           ///< exec.row_redos (row-wise redo fallbacks).

  /// Zeroes every counter (bench runs isolating per-run totals).
  void ResetAll();

  static ExecCounters& Instance();
};

// ---- Per-operator profile ----

/// Counters for one plan operator within one execution. All fields except
/// wall_ns are deterministic (worker-count-invariant).
struct OpStats {
  uint64_t rows_out = 0;           ///< Rows emitted by this operator.
  uint64_t batches = 0;            ///< Column batches emitted.
  uint64_t join_build_hits = 0;    ///< BatchJoinCache build-side reuses.
  uint64_t join_build_misses = 0;  ///< Build-side (re)constructions.
  uint64_t join_probe_hits = 0;    ///< Cached per-left-batch join outputs.
  uint64_t join_probe_misses = 0;  ///< Probes that had to compute output.
  uint64_t batch_cache_hits = 0;   ///< PartitionBatchCache hits (scans).
  uint64_t batch_cache_misses = 0; ///< Partition->batch conversions.
  uint64_t sel_memo_hits = 0;      ///< Differentiator restrict-memo hits.
  uint64_t row_redos = 0;          ///< Row-wise redo fallbacks at this node.
  uint64_t wall_ns = 0;  ///< Wall time, inclusive of children. REPORT ONLY.
};

/// Collects per-operator stats for one plan execution. DeclarePlan records
/// the operator tree (pre-order) so rendering shows every operator — zeros
/// included — in plan order; Node() get-or-creates the stats slot hooks
/// write through.
class ProfileSink {
 public:
  struct OpEntry {
    uint64_t tag = 0;
    std::string label;  ///< "Join inner", "Scan orders", ...
    int depth = 0;
    int parent = -1;  ///< Index into operators(), -1 for the root.
  };

  /// Records the plan structure (idempotent per sink; later calls with new
  /// subtrees append — the EXPLAIN shim never needs that, but a refresh may
  /// profile both a plan and its differentiated form).
  void DeclarePlan(const PlanNode& root);

  /// Stats slot for `tag`, created on first use. The pointer stays valid
  /// for the sink's lifetime.
  OpStats* Node(uint64_t tag);

  const std::vector<OpEntry>& operators() const { return entries_; }
  const OpStats* Find(uint64_t tag) const;

  /// Rows entering operator `op_index` = sum of its children's rows_out
  /// (derived, not collected, so it is never counted twice).
  uint64_t RowsInOf(size_t op_index) const;

  /// Indented per-operator text. `include_wall` appends wall_ms per line;
  /// RenderDeterministic() (include_wall=false) is the byte-compare form.
  std::string Render(bool include_wall) const;
  std::string RenderDeterministic() const { return Render(false); }

 private:
  std::vector<OpEntry> entries_;
  std::unordered_map<uint64_t, OpStats> stats_;
};

/// Times one operator execution for a profile — the one timing hook of the
/// batch engine's ExecB and the differentiator's Delta. Reads the steady
/// clock only when a sink is attached (a disarmed site is one null check);
/// Record charges a successful execution's output and wall time to `tag`.
class OpTimer {
 public:
  OpTimer(ProfileSink* sink, uint64_t tag) : sink_(sink), tag_(tag) {
    if (sink_ != nullptr) start_ = std::chrono::steady_clock::now();
  }

  void Record(uint64_t rows_out, uint64_t batches) const {
    if (sink_ == nullptr) return;
    OpStats* s = sink_->Node(tag_);
    s->rows_out += rows_out;
    s->batches += batches;
    s->wall_ns += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
  }

 private:
  ProfileSink* sink_;
  uint64_t tag_;
  std::chrono::steady_clock::time_point start_;
};

/// One operator line (shared by ProfileSink::Render and EXPLAIN): label
/// followed by the nonzero counter groups.
std::string FormatOpStats(const OpStats& s, uint64_t rows_in,
                          bool include_wall);

/// Human label for a plan operator ("Scan orders", "Join left", ...).
std::string OpLabel(const PlanNode& n);

// ---- Per-refresh profile ----

/// Everything REFRESH_PROFILE renders about one refresh attempt. Built by
/// RefreshEngine while armed, retained in the owning DT's bounded ring
/// (catalog.h) for both successful and failed attempts.
struct RefreshProfile {
  std::string dt_name;
  int64_t refresh_ts = 0;   ///< Target data timestamp (virtual time).
  std::string action;       ///< INITIALIZE/REINITIALIZE/NO_DATA/FULL/INCREMENTAL.
  std::string outcome;      ///< SUCCESS or FAILURE.
  uint64_t rows_processed = 0;
  uint64_t wall_ns = 0;     ///< Whole-attempt wall time. REPORT ONLY.
  ProfileSink sink;
};

/// Number of profiles each DT retains (oldest evicted first).
inline constexpr size_t kProfileRingCapacity = 8;

// ---- Global arming ----

/// True when refresh profiling is armed (one atomic load); InstallProfiling
/// returns the previous state; ScopedProfiling is the RAII form.
using ProfilingHook = GlobalHook<bool, RefreshProfile>;
inline bool ProfilingArmed() { return ProfilingHook::Get(); }
inline bool InstallProfiling(bool armed) {
  return ProfilingHook::Install(armed);
}
using ScopedProfiling = ProfilingHook::Scoped;

// ---- Scan attribution ----

/// storage/batch_scan.cc has no plan context, so the batch engine's scan
/// operator (and the differentiator's snapshot scans) publish their OpStats
/// slot in a thread-local before invoking the scan resolver; ScanBatchesAt
/// attributes partition-cache hits/misses to it. Null when no profiled scan
/// is in flight on this thread.
OpStats* CurrentScanTarget();

/// RAII set/restore of the thread-local scan target.
class ScopedScanTarget {
 public:
  explicit ScopedScanTarget(OpStats* target);
  ~ScopedScanTarget();
  ScopedScanTarget(const ScopedScanTarget&) = delete;
  ScopedScanTarget& operator=(const ScopedScanTarget&) = delete;

 private:
  OpStats* previous_;
};

// ---- EXPLAIN rendering ----

/// EXPLAIN: the bound plan as indented operator lines (no counters).
std::vector<std::string> RenderPlanLines(const PlanNode& root);

/// EXPLAIN ANALYZE: plan lines annotated with the sink's live counters;
/// `include_wall` appends wall_ms (true for the SQL surface; tests compare
/// with false).
std::vector<std::string> RenderAnalyzedPlanLines(const PlanNode& root,
                                                 const ProfileSink& sink,
                                                 bool include_wall);

}  // namespace obs
}  // namespace dvs

#endif  // DVS_OBS_PROFILE_H_
