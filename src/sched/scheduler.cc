#include "sched/scheduler.h"

#include <algorithm>
#include <unordered_map>

#include "fault/injector.h"
#include "obs/trace.h"
#include "persist/manager.h"
#include "persist/retention.h"

namespace dvs {

Micros LargestCanonicalPeriodAtMost(Micros limit) {
  Micros p = kCanonicalBasePeriod;
  if (limit < p) return p;
  while (p * 2 <= limit) p *= 2;
  return p;
}

Scheduler::Scheduler(DvsEngine* engine, VirtualClock* clock,
                     SchedulerOptions options)
    : engine_(engine), clock_(clock), options_(options) {
  if (options_.worker_threads > 0) {
    pool_ = std::make_unique<runtime::ThreadPool>(options_.worker_threads);
    runner_ = std::make_unique<runtime::DagRefreshRunner>(pool_.get());
  }
  if (options_.metrics != nullptr) {
    obs::Registry& reg = *options_.metrics;
    // All bumped in the serial plan/finalize phases only — deterministic by
    // construction (the finalize merge is byte-identical at any worker
    // count), so every one of these is gated by bench_e20.
    counters_.ticks =
        reg.RegisterCounter("sched.ticks", "Scheduler ticks run", true);
    counters_.refreshes = reg.RegisterCounter(
        "sched.refreshes", "Successful refresh records", true);
    counters_.refreshes_no_data = reg.RegisterCounter(
        "sched.refreshes_no_data", "Refreshes short-circuited as NO_DATA",
        true);
    counters_.busy_skips = reg.RegisterCounter(
        "sched.busy_skips", "Ticks skipped: previous refresh still running",
        true);
    counters_.upstream_skips = reg.RegisterCounter(
        "sched.upstream_skips",
        "Ticks skipped: upstream version missing at the data timestamp", true);
    counters_.failures =
        reg.RegisterCounter("sched.failures", "Failed refresh records", true);
    counters_.transient_failures = reg.RegisterCounter(
        "sched.transient_failures",
        "Failures with a retryable status (outages, exhaustion)", true);
    counters_.retry_attempts = reg.RegisterCounter(
        "sched.retry_attempts", "Engine refresh retries (attempts beyond 1)",
        true);
    counters_.retry_backoff_us = reg.RegisterCounter(
        "sched.retry_backoff_us", "Virtual-time retry backoff accumulated",
        true);
    counters_.rows_processed = reg.RegisterCounter(
        "sched.rows_processed", "Rows processed by successful refreshes",
        true);
    counters_.changes_applied = reg.RegisterCounter(
        "sched.changes_applied", "Changes applied by successful refreshes",
        true);
    // Checkpoints run in the serial finalize phase and persist.file.* faults
    // decide per (seed, file path, counter), so failures are deterministic
    // too.
    counters_.checkpoint_failures = reg.RegisterCounter(
        "persist.checkpoint_failures",
        "Policy checkpoints that failed (the WAL stays authoritative)", true);
  }
}

Scheduler::~Scheduler() = default;

void Scheduler::RefreshMemoLocked() {
  Catalog& catalog = engine_->catalog();
  const uint64_t epoch = catalog.graph_epoch();
  if (memo_.epoch == epoch) return;
  memo_ = GraphMemo{};
  memo_.epoch = epoch;
  // A cycle (reachable only through §5.4 rebinds) can never refresh: every
  // member waits on another's version. Nothing is scheduled until DDL
  // breaks it.
  Result<std::vector<ObjectId>> order = catalog.TopoOrder();
  if (!order.ok()) return;
  memo_.order = order.take();

  // Effective lags, downstream first: DOWNSTREAM is the minimum over the
  // consumers' effective lags (§3.2) — refresh only when required by others.
  for (auto it = memo_.order.rbegin(); it != memo_.order.rend(); ++it) {
    const TargetLag& own = catalog.FindById(*it).value()->dt->def.target_lag;
    std::optional<Micros> lag;
    if (!own.downstream) {
      lag = own.duration;
    } else {
      for (ObjectId down : catalog.DownstreamDynamicTables(*it)) {
        const std::optional<Micros>& d = memo_.lag.at(down);
        if (d.has_value() && (!lag.has_value() || *d < *lag)) lag = d;
      }
    }
    memo_.lag[*it] = lag;
  }

  // Periods, upstream first.
  for (ObjectId id : memo_.order) {
    const std::optional<Micros>& lag = memo_.lag.at(id);
    Micros p = 0;  // never scheduled (manual only)
    if (lag.has_value()) {
      if (options_.canonical_periods) {
        // Leave headroom for waiting (w) and duration (d): target half the
        // lag, then snap down to the canonical set (§5.2).
        p = LargestCanonicalPeriodAtMost(*lag / 2);
      } else {
        // E9 ablation baseline: period = the target lag itself, floored to
        // the tick grid (no canonical snapping, no headroom).
        p = std::max(kCanonicalBasePeriod,
                     (*lag / kCanonicalBasePeriod) * kCanonicalBasePeriod);
      }
      // The period must be >= every upstream period so aligned data
      // timestamps exist (§5.2).
      for (ObjectId up : catalog.UpstreamDynamicTables(id)) {
        p = std::max(p, memo_.period.at(up));
      }
    }
    memo_.period[id] = p;
  }
}

std::optional<Micros> Scheduler::EffectiveTargetLag(ObjectId dt_id) {
  std::lock_guard<std::mutex> lock(memo_mu_);
  RefreshMemoLocked();
  auto it = memo_.lag.find(dt_id);
  return it == memo_.lag.end() ? std::nullopt : it->second;
}

Micros Scheduler::RefreshPeriod(ObjectId dt_id) {
  std::lock_guard<std::mutex> lock(memo_mu_);
  RefreshMemoLocked();
  auto it = memo_.period.find(dt_id);
  return it == memo_.period.end() ? 0 : it->second;
}

void Scheduler::ExecuteNode(TickNode* node, Micros t) {
  // Snapshot isolation requires every upstream DT to have a version at this
  // data timestamp; if an upstream skipped or failed, skip too. Runs after
  // the upstream barrier, so reading upstream metadata here is ordered
  // against the upstream refreshes that wrote it.
  Catalog& catalog = engine_->catalog();
  for (ObjectId up : node->upstream) {
    auto uobj = catalog.FindById(up);
    if (!uobj.ok() || !uobj.value()->dt->refresh_versions.count(t)) {
      node->upstream_missing = true;
      return;
    }
  }
  // Transient-retry loop: retryable failures (kUnavailable /
  // kResourceExhausted) are retried with capped exponential backoff charged
  // in *virtual time* (accumulated into node->backoff; FinalizeNode turns it
  // into slot delay / end-time extension). Everything here is per-DT state,
  // so retry sequences are identical at any worker count.
  RefreshEngine& eng = engine_->refresh_engine();
  const int max_attempts = std::max(1, options_.retry_max_attempts);
  for (;;) {
    node->attempts += 1;
    obs::TraceSpan span("refresh", "attempt", node->obj->name);
    if (span.armed()) span.AddArg("attempt", node->attempts);
    node->result = eng.Refresh(node->dt, t);
    if (node->result->ok() || !node->result->status().retryable() ||
        node->attempts >= max_attempts) {
      return;
    }
    Micros delay = options_.retry_base;
    for (int k = 1; k < node->attempts && delay < options_.retry_cap; ++k) {
      delay *= 2;
    }
    node->backoff += std::min(delay, options_.retry_cap);
  }
}

void Scheduler::CountRecord(const RefreshRecord& rec) {
  if (counters_.ticks == nullptr) return;  // no registry configured
  if (rec.attempts > 1) {
    *counters_.retry_attempts += static_cast<uint64_t>(rec.attempts - 1);
  }
  if (rec.retry_backoff > 0) {
    *counters_.retry_backoff_us += static_cast<uint64_t>(rec.retry_backoff);
  }
  if (rec.skipped) {
    if (rec.error_code == StatusCode::kUnavailable) {
      *counters_.upstream_skips += 1;
    } else {
      *counters_.busy_skips += 1;
    }
    return;
  }
  if (rec.failed) {
    *counters_.failures += 1;
    if (rec.error_code == StatusCode::kUnavailable ||
        rec.error_code == StatusCode::kResourceExhausted) {
      *counters_.transient_failures += 1;
    }
    return;
  }
  *counters_.refreshes += 1;
  if (rec.action == RefreshAction::kNoData) *counters_.refreshes_no_data += 1;
  *counters_.rows_processed += rec.rows_processed;
  *counters_.changes_applied += static_cast<uint64_t>(rec.changes_applied);
}

void Scheduler::FinalizeNode(TickNode* node, Micros t) {
  RefreshRecord rec;
  rec.dt = node->dt;
  rec.dt_name = node->obj->name;
  rec.data_timestamp = t;

  // Counts and journals the record just appended to the log, with the
  // warehouse whose billing it advanced (serial phase — appends stay in log
  // order).
  auto journal = [this](const Warehouse* wh) {
    CountRecord(log_.back());
    if (options_.persistence != nullptr) {
      options_.persistence->AppendSchedRecord(log_.back(), wh);
    }
  };

  // Skipped because the previous refresh is still executing (§3.3.3).
  if (node->busy_skip) {
    rec.skipped = true;
    rec.start_time = rec.end_time = t;
    log_.push_back(std::move(rec));
    journal(nullptr);
    return;
  }
  // Warehouse outage (injected, decided in the serial plan phase): the
  // engine never ran. Finalized as a transient failure — downstream DTs
  // degrade via the upstream-missing skip path, and accounting flows through
  // the same transient hook recovery replays.
  if (node->warehouse_out) {
    rec.failed = true;
    rec.error = node->warehouse_status.ToString();
    rec.error_code = node->warehouse_status.code();
    rec.start_time = rec.end_time = t;
    busy_until_[node->dt] = rec.end_time;
    engine_->refresh_engine().NoteTransientFailure(node->dt,
                                                   node->warehouse_status);
    log_.push_back(std::move(rec));
    journal(nullptr);
    return;
  }
  if (node->upstream_missing) {
    rec.skipped = true;
    rec.error = "upstream refresh unavailable at this data timestamp";
    rec.error_code = StatusCode::kUnavailable;
    rec.start_time = rec.end_time = t;
    log_.push_back(std::move(rec));
    journal(nullptr);
    return;
  }
  const Result<RefreshOutcome>& result = *node->result;
  rec.attempts = node->attempts;
  rec.retry_backoff = node->backoff;
  if (!result.ok()) {
    rec.failed = true;
    rec.error = result.status().ToString();
    rec.error_code = result.status().code();
    rec.start_time = t;
    // Exhausted transient retries charge their backoff to the record's end
    // time: a backoff longer than the period spills into next-tick
    // busy-skip, which is how retrying crosses tick boundaries.
    rec.end_time = t + node->backoff;
    busy_until_[node->dt] = rec.end_time;
    log_.push_back(std::move(rec));
    journal(nullptr);
    return;
  }
  const RefreshOutcome& outcome = result.value();
  rec.action = outcome.action;
  rec.rows_processed = outcome.rows_processed;
  rec.changes_applied = outcome.changes_applied;
  rec.dt_row_count = outcome.dt_row_count;

  // Retry backoff delays the refresh's earliest start the same way upstream
  // completions do.
  Micros upstream_end = t + node->backoff;
  for (ObjectId up : node->upstream) {
    auto ue = last_end_.find(up);
    if (ue != last_end_.end()) {
      upstream_end = std::max(upstream_end, ue->second);
    }
  }

  // Timing: a refresh waits for upstream completions (w_i >= max(w_j+d_j))
  // and queues on its warehouse; NO_DATA refreshes use no warehouse
  // compute (§5.4) and complete in cloud-services time.
  Warehouse* billed_wh = nullptr;
  if (outcome.action == RefreshAction::kNoData) {
    rec.start_time = upstream_end;
    rec.end_time = upstream_end + 100 * kMicrosPerMilli;
  } else {
    Warehouse* wh =
        engine_->warehouses().GetOrCreate(node->obj->dt->def.warehouse);
    Micros duration = options_.cost_model.RefreshDuration(
        outcome.rows_processed, wh->size());
    Warehouse::Slot slot = wh->Schedule(upstream_end, duration);
    rec.start_time = slot.start;
    rec.end_time = slot.end;
    billed_wh = wh;
  }
  busy_until_[node->dt] = rec.end_time;
  last_end_[node->dt] = rec.end_time;

  auto prev = prev_data_ts_.find(node->dt);
  rec.peak_lag = prev == prev_data_ts_.end() ? rec.end_time - t
                                             : rec.end_time - prev->second;
  rec.trough_lag = rec.end_time - t;
  prev_data_ts_[node->dt] = t;
  log_.push_back(std::move(rec));
  journal(billed_wh);
}

void Scheduler::Tick(Micros t) {
  clock_->AdvanceTo(t);
  Catalog& catalog = engine_->catalog();
  if (counters_.ticks != nullptr) *counters_.ticks += 1;

  // Phase 1 — plan (serial): decide which DTs are due, which are skipped as
  // still-busy, and keep them in topological order. All decisions here read
  // only pre-tick state, so they are identical in serial and parallel mode.
  std::vector<TickNode> nodes;
  {
    obs::TraceSpan plan_span("sched", "tick.plan");
    std::lock_guard<std::mutex> memo_lock(memo_mu_);
    RefreshMemoLocked();

    nodes.reserve(memo_.order.size());
    // Injected warehouse outages are decided here, serially, once per tick
    // per distinct warehouse (first due DT on it evaluates the site) — never
    // in the parallel execute phase, where evaluation order would depend on
    // thread interleaving. An outage spanning N ticks is the site armed with
    // burst = N.
    fault::FaultInjector* inj = fault::ActiveInjector();
    std::map<std::string, Status> outages;
    // Topological order, upstream first.
    for (ObjectId dt_id : memo_.order) {
      CatalogObject* obj = catalog.FindById(dt_id).value();
      DynamicTableMeta* meta = obj->dt.get();
      if (meta->state == DtState::kSuspended) continue;

      Micros period = memo_.period.at(dt_id);
      if (period == 0 || t % period != 0) continue;
      if (meta->refresh_versions.count(t)) continue;  // e.g. manual refresh

      TickNode node;
      node.dt = dt_id;
      node.obj = obj;
      node.upstream = catalog.UpstreamDynamicTables(dt_id);
      auto busy = busy_until_.find(dt_id);
      node.busy_skip = busy != busy_until_.end() && busy->second > t;
      if (!node.busy_skip && inj != nullptr) {
        const std::string& wh = obj->dt->def.warehouse;
        auto it = outages.find(wh);
        if (it == outages.end()) {
          it = outages
                   .emplace(wh, inj->Check(fault::kSiteWarehouseOutage, wh))
                   .first;
        }
        if (!it->second.ok()) {
          node.warehouse_out = true;
          node.warehouse_status = it->second;
        }
      }
      nodes.push_back(std::move(node));
    }
    if (plan_span.armed()) {
      plan_span.AddArg("due", static_cast<int64_t>(nodes.size()));
    }
  }

  // Phase 2 — execute. Runnable nodes refresh concurrently on the pool with
  // per-edge upstream barriers and per-warehouse admission gates; in serial
  // mode the same bodies run inline in topological order.
  {
    obs::TraceSpan exec_span("sched", "tick.execute");
    if (runner_ != nullptr) {
      std::unordered_map<ObjectId, size_t> task_of_node;
      std::vector<size_t> node_of_task;
      std::vector<runtime::DagTask> tasks;
      std::map<std::string, int> gate_limits;
      for (size_t i = 0; i < nodes.size(); ++i) {
        if (nodes[i].busy_skip || nodes[i].warehouse_out) continue;
        runtime::DagTask task;
        task.gate = nodes[i].obj->dt->def.warehouse;
        if (!task.gate.empty() && !gate_limits.count(task.gate)) {
          // Warehouse creation must stay on this thread: the pool map is not
          // synchronized, and phase 3 creates warehouses in the same order
          // serial mode would.
          gate_limits[task.gate] =
              engine_->warehouses().GetOrCreate(task.gate)->concurrency();
        }
        TickNode* node = &nodes[i];
        task.work = [this, node, t] { ExecuteNode(node, t); };
        for (ObjectId up : nodes[i].upstream) {
          auto it = task_of_node.find(up);
          if (it != task_of_node.end()) task.upstream.push_back(it->second);
        }
        task_of_node[nodes[i].dt] = tasks.size();
        node_of_task.push_back(i);
        tasks.push_back(std::move(task));
      }
      Status run = runner_->Run(tasks, gate_limits);
      for (const auto& [gate, stats] : runner_->gate_stats()) {
        int& peak = max_gate_occupancy_[gate];
        peak = std::max(peak, stats.max_in_flight);
      }
      if (!run.ok()) {
        // A task that never executed (cycle) or threw surfaces as a failed
        // refresh record rather than a crash.
        for (size_t ti : node_of_task) {
          TickNode& node = nodes[ti];
          if (!node.busy_skip && !node.warehouse_out &&
              !node.upstream_missing && !node.result.has_value()) {
            node.result = Result<RefreshOutcome>(run);
          }
        }
      }
    } else {
      for (TickNode& node : nodes) {
        if (!node.busy_skip && !node.warehouse_out) ExecuteNode(&node, t);
      }
    }
  }

  // Phase 3 — finalize (serial, deterministic merge): warehouse slots,
  // billing, busy/lag state, and log records in phase-1 topological order,
  // byte-identical to serial execution.
  obs::TraceSpan finalize_span("sched", "tick.finalize");
  for (TickNode& node : nodes) {
    FinalizeNode(&node, t);
  }

  // Retention GC and checkpointing also live in the serial finalize phase:
  // no refresh is executing, so capturing or pruning storage cannot race a
  // writer (the durability contract in ROADMAP.md).
  if (options_.retention_gc) {
    persist::RunRetentionGc(catalog, t, options_.persistence);
  }
  // Progress marker must cover this tick *before* a checkpoint captures the
  // scheduler state, or a recovered scheduler would re-run the tick.
  if (t > last_run_) last_run_ = t;
  if (options_.persistence != nullptr) {
    options_.persistence->OnTickFinalized(t);
    if (options_.persistence->ShouldCheckpoint()) {
      SchedulerPersistState state = ExportState();
      // A checkpoint failure leaves the previous generation authoritative;
      // the WAL keeps growing, so durability degrades to longer recovery
      // rather than data loss, and the next tick retries (the policy has not
      // been reset). Counted here, surfaced via Manager::wal_status.
      Status s = options_.persistence->Checkpoint(&state);
      if (!s.ok() && counters_.checkpoint_failures != nullptr) {
        *counters_.checkpoint_failures += 1;
      }
    }
  }
}

void Scheduler::RunUntil(Micros t) {
  Micros tick = ((last_run_ / kCanonicalBasePeriod) + 1) * kCanonicalBasePeriod;
  for (; tick <= t; tick += kCanonicalBasePeriod) {
    Tick(tick);
  }
  if (t > last_run_) last_run_ = t;
  clock_->AdvanceTo(t);
  // Journal the final (possibly off-grid) progress boundary so a recovered
  // scheduler resumes from the same last_run.
  if (options_.persistence != nullptr) {
    options_.persistence->AppendRunBoundary(t);
  }
}

void Scheduler::ImportState(SchedulerPersistState state) {
  log_ = std::move(state.log);
  last_run_ = state.last_run;
  busy_until_.clear();
  last_end_.clear();
  prev_data_ts_.clear();
  // Re-derive the bookkeeping maps exactly as FinalizeNode maintained them,
  // in log order. Failed records advance busy_until_ only: a transient
  // failure's end_time carries its retry backoff, and a recovered scheduler
  // must busy-skip the same follow-up ticks the live one did.
  for (const RefreshRecord& rec : log_) {
    if (rec.skipped) continue;
    busy_until_[rec.dt] = rec.end_time;
    if (rec.failed) continue;
    last_end_[rec.dt] = rec.end_time;
    prev_data_ts_[rec.dt] = rec.data_timestamp;
  }
}

std::optional<Micros> Scheduler::LagAt(ObjectId dt_id, Micros t) const {
  // Data timestamp of the last refresh committed by time t.
  std::optional<Micros> data_ts;
  for (const RefreshRecord& rec : log_) {
    if (rec.dt != dt_id || rec.skipped || rec.failed) continue;
    if (rec.end_time <= t &&
        (!data_ts.has_value() || rec.data_timestamp > *data_ts)) {
      data_ts = rec.data_timestamp;
    }
  }
  if (!data_ts.has_value()) return std::nullopt;
  return t - *data_ts;
}

}  // namespace dvs
