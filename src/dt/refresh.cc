#include "dt/refresh.h"

#include <algorithm>
#include <chrono>
#include <set>

#include "fault/injector.h"
#include "obs/profile.h"
#include "ivm/state_reuse.h"
#include "sql/binder.h"
#include "sql/parser.h"

namespace dvs {

namespace {

/// RAII table lock.
class LockGuard {
 public:
  LockGuard(TransactionManager* txn, ObjectId object, uint64_t holder)
      : txn_(txn), object_(object), holder_(holder) {}
  ~LockGuard() {
    if (locked_) txn_->Unlock(object_, holder_);
  }
  Status Acquire() {
    Status s = txn_->TryLock(object_, holder_);
    locked_ = s.ok();
    return s;
  }

 private:
  TransactionManager* txn_;
  ObjectId object_;
  uint64_t holder_;
  bool locked_ = false;
};

bool CountsAsFailure(const Status& s) {
  switch (s.code()) {
    case StatusCode::kLockConflict:
    case StatusCode::kInvalidArgument:
      return false;
    default:
      return true;
  }
}

}  // namespace

const char* RefreshActionName(RefreshAction a) {
  switch (a) {
    case RefreshAction::kInitialize: return "INITIALIZE";
    case RefreshAction::kNoData: return "NO_DATA";
    case RefreshAction::kFull: return "FULL";
    case RefreshAction::kIncremental: return "INCREMENTAL";
    case RefreshAction::kReinitialize: return "REINITIALIZE";
  }
  return "?";
}

ScanResolver RefreshEngine::MakeResolver(Micros ts, bool exact_dt) {
  return [this, ts, exact_dt](ObjectId id) -> Result<std::vector<IdRow>> {
    if (id == sql::kDualTableId) {
      return std::vector<IdRow>{{1, {}}};
    }
    return ScanAsOf(id, ts, exact_dt);
  };
}

Result<std::vector<IdRow>> RefreshEngine::ScanAsOf(ObjectId id, Micros ts,
                                                   bool exact_dt) {
  DVS_ASSIGN_OR_RETURN(CatalogObject * obj, catalog_->FindById(id));
  switch (obj->kind) {
    case ObjectKind::kBaseTable: {
      VersionId v = obj->storage->ResolveVersionAt(HlcTimestamp::AtWallTime(ts));
      if (v == kInvalidVersionId) {
        // No resolvable version: either the table did not exist yet (empty
        // result, the pre-durability behavior) or retention GC trimmed the
        // version that t would resolve to — which must fail loudly, never
        // silently read the wrong snapshot.
        if (obj->storage->first_version() > 1) {
          return FailedPrecondition(
              "time travel on '" + obj->name + "' at " + std::to_string(ts) +
              " is below the retention window (oldest retained version is " +
              std::to_string(obj->storage->first_version()) + ")");
        }
        return std::vector<IdRow>{};
      }
      return obj->storage->ScanAt(v);
    }
    case ObjectKind::kView: {
      ExecContext ctx;
      ctx.resolve_scan = MakeResolver(ts, exact_dt);
      ctx.eval.current_time = ts;
      return ExecutePlan(*obj->view_plan, ctx);
    }
    case ObjectKind::kDynamicTable: {
      const DynamicTableMeta& meta = *obj->dt;
      if (!meta.initialized) {
        return FailedPrecondition("dynamic table '" + obj->name +
                                  "' has not been initialized yet");
      }
      if (exact_dt) {
        auto v = meta.VersionForRefresh(ts);
        if (!v.has_value()) {
          // Production validation 1 (§6.1): reading an upstream DT requires
          // the exact version for this data timestamp; anything else would
          // silently violate snapshot isolation.
          return Corruption(
              "no table version of '" + obj->name + "' for data timestamp " +
              std::to_string(ts) + " (scheduler bug or skipped refresh)");
        }
        return obj->storage->ScanAt(*v);
      }
      auto latest = meta.LatestRefreshAtOrBefore(ts);
      if (!latest.has_value()) {
        return FailedPrecondition("dynamic table '" + obj->name +
                                  "' has no data at or before " +
                                  std::to_string(ts));
      }
      return obj->storage->ScanAt(*meta.VersionForRefresh(*latest));
    }
  }
  return Internal("unhandled object kind");
}

Status RefreshEngine::CheckQueryEvolution(CatalogObject* obj) {
  DynamicTableMeta* meta = obj->dt.get();
  bool rebind = false;
  for (const TrackedDependency& dep : meta->dependencies) {
    auto found = catalog_->Find(dep.name);
    if (!found.ok()) {
      // Upstream takes precedence (§3.4): the refresh fails, and resumes
      // automatically once the object is UNDROPped / recreated.
      return UserError("upstream object '" + dep.name +
                       "' no longer exists; refresh fails until it is "
                       "restored");
    }
    const CatalogObject* up = found.value();
    if (up->id != dep.object_id) {
      rebind = true;  // replaced under the same name
      break;
    }
    const Schema& current = up->storage != nullptr
                                ? up->storage->schema()
                                : up->view_plan->output_schema;
    if (!(current == dep.schema_at_bind)) {
      rebind = true;  // schema evolved
      break;
    }
  }
  if (!rebind) return OkStatus();

  // Re-bind the stored defining query against the current catalog. We are
  // conservative (paper: "choosing to reinitialize in some cases where it is
  // not necessary"): any rebind forces REINITIALIZE.
  DVS_ASSIGN_OR_RETURN(auto select, sql::ParseSelect(meta->def.sql));
  sql::Binder binder(*catalog_);
  DVS_ASSIGN_OR_RETURN(sql::BindResult bound, binder.BindSelect(*select));
  if (!(bound.plan->output_schema == obj->storage->schema())) {
    obj->storage->set_schema(bound.plan->output_schema);
  }
  catalog_->SetDtPlan(obj, bound.plan);
  meta->dependencies = std::move(bound.dependencies);
  meta->needs_reinit = true;
  return OkStatus();
}

Result<std::unordered_map<ObjectId, VersionId>>
RefreshEngine::ResolveSourceVersions(const CatalogObject& obj,
                                     Micros refresh_ts) {
  std::unordered_map<ObjectId, VersionId> out;
  for (ObjectId src : catalog_->SourcesOf(obj.id)) {
    if (src == sql::kDualTableId) continue;
    auto found = catalog_->FindById(src);
    if (!found.ok()) {
      return UserError("upstream object of '" + obj.name +
                       "' has been dropped");
    }
    const CatalogObject* up = found.value();
    if (up->kind == ObjectKind::kDynamicTable) {
      auto v = up->dt->VersionForRefresh(refresh_ts);
      if (!v.has_value()) {
        return FailedPrecondition(
            "upstream dynamic table '" + up->name +
            "' has no version for data timestamp " +
            std::to_string(refresh_ts) +
            "; it must refresh first (snapshot isolation)");
      }
      out[src] = *v;
    } else {
      VersionId v =
          up->storage->ResolveVersionAt(HlcTimestamp::AtWallTime(refresh_ts));
      if (v == kInvalidVersionId) {
        // Retention pruned the version visible at refresh_ts: there is no
        // version to pin and scan.
        return FailedPrecondition("'" + up->name +
                                  "' has no version at data timestamp " +
                                  std::to_string(refresh_ts));
      }
      out[src] = v;
    }
  }
  return out;
}

BatchScanResolver RefreshEngine::MakeBatchVersionResolver(
    std::shared_ptr<const std::unordered_map<ObjectId, VersionId>> versions,
    std::shared_ptr<PartitionBatchCache> cache) {
  return [this, versions, cache](ObjectId id) -> Result<BatchVector> {
    if (id == sql::kDualTableId) {
      auto dual = std::make_shared<ColumnBatch>();
      dual->rows = 1;
      dual->ids = {1};
      return BatchVector{std::move(dual)};
    }
    auto it = versions->find(id);
    if (it == versions->end()) {
      return Internal("no pinned version for source " + std::to_string(id));
    }
    DVS_ASSIGN_OR_RETURN(const CatalogObject* obj, catalog_->FindById(id));
    return ScanBatchesAt(*obj->storage, it->second, cache.get());
  };
}

Result<std::vector<IdRow>> RefreshEngine::ComputeFull(
    const CatalogObject& obj,
    const std::unordered_map<ObjectId, VersionId>& versions, Micros ts,
    uint64_t* rows_processed, obs::ProfileSink* profile) {
  ExecContext ctx;
  ctx.resolve_scan_batches = MakeBatchVersionResolver(
      std::make_shared<const std::unordered_map<ObjectId, VersionId>>(versions),
      std::make_shared<PartitionBatchCache>());
  ctx.eval.current_time = ts;
  ctx.profile = profile;
  auto rows = ExecutePlan(*obj.dt->plan, ctx);
  *rows_processed += ctx.rows_processed;
  return rows;
}

Result<ChangeSet> RefreshEngine::ComputeIncremental(
    const CatalogObject& obj,
    const std::unordered_map<ObjectId, VersionId>& versions, Micros ts,
    DeltaContext* dctx, RefreshOutcome* out) {
  const DynamicTableMeta& meta = *obj.dt;

  // Materialize source deltas (change interval = frontier -> versions).
  std::unordered_map<ObjectId, ChangeSet> deltas;
  bool insert_only = true;
  for (const auto& [src, v1] : versions) {
    auto it = meta.frontier.find(src);
    if (it == meta.frontier.end()) {
      return Internal("frontier missing source " + std::to_string(src));
    }
    auto found = catalog_->FindById(src);
    if (!found.ok()) return found.status();
    DVS_ASSIGN_OR_RETURN(ChangeSet cs,
                         found.value()->storage->ScanChanges(it->second, v1));
    insert_only = insert_only && IsInsertOnly(cs);
    deltas.emplace(src, std::move(cs));
  }

  // Interval endpoints are pinned to explicit versions (§5.3): the stored
  // frontier at the start, the freshly resolved versions at the end. Wall
  // time cannot disambiguate commits sharing a physical clock tick. One
  // partition->batch cache serves both endpoints: partitions unchanged over
  // the interval become pointer-identical batches at both ends, which the
  // batch engine's cross-endpoint caches key on.
  auto pcache = std::make_shared<PartitionBatchCache>();
  dctx->batch_resolve_at_start = MakeBatchVersionResolver(
      std::make_shared<const std::unordered_map<ObjectId, VersionId>>(
          meta.frontier),
      pcache);
  dctx->batch_resolve_at_end = MakeBatchVersionResolver(
      std::make_shared<const std::unordered_map<ObjectId, VersionId>>(
          versions),
      pcache);
  dctx->resolve_delta =
      [deltas = std::move(deltas)](ObjectId id) -> Result<ChangeSet> {
    if (id == sql::kDualTableId) return ChangeSet{};
    auto it = deltas.find(id);
    if (it == deltas.end()) {
      return Internal("no delta for source " + std::to_string(id));
    }
    return it->second;
  };
  dctx->eval_start.current_time = meta.data_timestamp;
  dctx->eval_end.current_time = ts;

  if (options_.enable_state_reuse) {
    std::string why;
    if (StateReuseApplicable(*meta.plan, &why)) {
      std::vector<IdRow> stored = obj.storage->ScanLatest();
      DVS_ASSIGN_OR_RETURN(
          StateReuseResult sr,
          DifferentiateAggregateWithState(*meta.plan, stored, *dctx));
      if (sr.applicable) {
        out->used_state_reuse = true;
        out->rows_processed = sr.rows_processed;
        out->change_stats = sr.stats;
        return std::move(sr.changes);
      }
    }
  }
  DVS_ASSIGN_OR_RETURN(
      DeltaResult dr,
      Differentiate(*meta.plan, *dctx,
                    insert_only && options_.enable_insert_only_optimization));
  out->consolidation_skipped = dr.consolidation_skipped;
  out->rows_processed = dctx->rows_processed;
  out->change_stats = dr.stats;
  return std::move(dr.changes);
}

void RefreshEngine::RecordFailure(CatalogObject* obj) {
  DynamicTableMeta* meta = obj->dt.get();
  meta->consecutive_failures += 1;
  if (meta->consecutive_failures >= options_.max_consecutive_failures) {
    // §3.3.3: auto-suspend to stop wasting compute.
    meta->state = DtState::kSuspended;
  }
}

Result<RefreshOutcome> RefreshEngine::Refresh(ObjectId dt_id,
                                              Micros refresh_ts) {
  DVS_ASSIGN_OR_RETURN(CatalogObject * obj, catalog_->FindById(dt_id));
  if (obj->kind != ObjectKind::kDynamicTable) {
    return InvalidArgument("'" + obj->name + "' is not a dynamic table");
  }
  DynamicTableMeta* meta = obj->dt.get();
  if (meta->state == DtState::kSuspended) {
    return FailedPrecondition("dynamic table '" + obj->name +
                              "' is suspended");
  }
  // Already refreshed at this data timestamp (e.g. by a manual refresh of a
  // downstream DT): nothing to do.
  if (meta->refresh_versions.count(refresh_ts)) {
    RefreshOutcome out;
    out.action = RefreshAction::kNoData;
    out.data_timestamp = refresh_ts;
    out.dt_row_count = obj->storage->RowCountAt(
        meta->refresh_versions.at(refresh_ts));
    return out;
  }
  if (meta->initialized && refresh_ts < meta->data_timestamp) {
    return InvalidArgument("refresh timestamp " + std::to_string(refresh_ts) +
                           " precedes current data timestamp " +
                           std::to_string(meta->data_timestamp));
  }

  LockGuard lock(txn_, dt_id, dt_id);
  DVS_RETURN_IF_ERROR(lock.Acquire());

  // Durability journal entry, filled at the commit site and emitted after
  // the refresh succeeds (persist hook installed only).
  RefreshCommitInfo pinfo;

  // Operator-level profile of this attempt, allocated only while profiling
  // is armed (obs/profile.h). Hoisted out of `run` (like pinfo) so the
  // post-run block can retain it for both successful and failed attempts.
  std::shared_ptr<obs::RefreshProfile> profile;
  if (obs::ProfilingArmed()) {
    profile = std::make_shared<obs::RefreshProfile>();
    profile->dt_name = obj->name;
    profile->refresh_ts = refresh_ts;
  }
  RefreshOutcome out;
  out.data_timestamp = refresh_ts;

  auto run = [&]() -> Result<RefreshOutcome> {
    // Chaos site: lets tests/benches make this refresh fail transiently
    // (retryable) or permanently, scoped by DT name. Evaluated in per-DT
    // program order — attempt k of DT d sees decision k regardless of which
    // worker thread runs it.
    if (fault::FaultInjector* inj = fault::ActiveInjector()) {
      DVS_RETURN_IF_ERROR(inj->Check(fault::kSiteRefreshExecute, obj->name));
    }

    DVS_RETURN_IF_ERROR(CheckQueryEvolution(obj));
    // Declare structure after query evolution — a rebind swaps the plan, and
    // the profile should mirror the plan that actually executes.
    if (profile != nullptr) profile->sink.DeclarePlan(*meta->plan);
    obs::ProfileSink* psink = profile != nullptr ? &profile->sink : nullptr;
    DVS_ASSIGN_OR_RETURN(auto source_versions,
                         ResolveSourceVersions(*obj, refresh_ts));

    // The decision (§3.3.2), made before any work so a failed attempt's
    // profile names the action it reached.
    if (!meta->initialized) {
      out.action = RefreshAction::kInitialize;  // first materialization
    } else {
      // A frontier version that retention pruned has no change scan to start
      // from: the DT was dropped while GC ran (dropped DTs hold no floor) and
      // then undropped. Recompute, like upstream DDL.
      for (const auto& [src, v] : meta->frontier) {
        auto found = catalog_->FindById(src);
        if (source_versions.count(src) && found.ok() &&
            !found.value()->storage->has_version(v)) {
          meta->needs_reinit = true;
        }
      }
      if (meta->needs_reinit) {
        // Upstream DDL invalidated stored contents (§5.4).
        out.action = RefreshAction::kReinitialize;
      } else {
        // NO_DATA: no source changed in the interval (§5.4: "negligible
        // resources and zero Virtual Warehouse compute").
        bool changed = false;
        for (const auto& [src, v1] : source_versions) {
          auto it = meta->frontier.find(src);
          if (it == meta->frontier.end()) {
            changed = true;  // new source without reinit: be safe
            break;
          }
          auto found = catalog_->FindById(src);
          if (!found.ok()) return found.status();
          if (found.value()->storage->HasDataChanges(it->second, v1)) {
            changed = true;
            break;
          }
        }
        out.action = !changed            ? RefreshAction::kNoData
                     : meta->incremental ? RefreshAction::kIncremental
                                         : RefreshAction::kFull;
      }
    }

    // INCREMENTAL's interval deltas and endpoint snapshots. They stay alive
    // until the refresh has published: released before the merge commits,
    // perfbench serve_mixed measured ~10% slower ticks and ~60% slower read
    // p95 (4-vCPU VM).
    DeltaContext dctx;
    dctx.profile = psink;
    VersionId vid;
    if (out.action == RefreshAction::kInitialize ||
        out.action == RefreshAction::kReinitialize ||
        out.action == RefreshAction::kFull) {
      // Full recompute, committed as INSERT OVERWRITE (§5.4). The journal
      // copies the rows only when a persist hook is installed.
      DVS_ASSIGN_OR_RETURN(std::vector<IdRow> rows,
                           ComputeFull(*obj, source_versions, refresh_ts,
                                       &out.rows_processed, psink));
      out.changes_applied = rows.size();
      out.change_stats.inserts = rows.size();
      pinfo.commit = RefreshCommitInfo::StorageCommit::kOverwrite;
      pinfo.commit_ts = txn_->NextCommitTimestamp();
      if (persist_hook_) pinfo.rows = rows;
      DVS_ASSIGN_OR_RETURN(vid, obj->storage->Overwrite(std::move(rows),
                                                        pinfo.commit_ts));
    } else {
      // NO_DATA, or INCREMENTAL (§5.5): merge the derivative's changes.
      ChangeSet changes;
      if (out.action == RefreshAction::kIncremental) {
        DVS_ASSIGN_OR_RETURN(changes,
                             ComputeIncremental(*obj, source_versions,
                                                refresh_ts, &dctx, &out));
      }
      out.changes_applied = changes.size();
      if (changes.empty()) {
        pinfo.commit = RefreshCommitInfo::StorageCommit::kNoOp;
        pinfo.commit_ts = txn_->NextCommitTimestamp();
        vid = obj->storage->CommitNoOp(pinfo.commit_ts);
      } else {
        // Merge with §6.1 validations enforced by the storage layer. The
        // StagedWrite carries the DT's object id so the transaction
        // manager's commit hook journals this merge; the refresh record then
        // only asserts the resulting version (StorageCommit::kApplied).
        DVS_ASSIGN_OR_RETURN(pinfo.commit_ts,
                             txn_->CommitWrites({{obj->storage.get(),
                                                  std::move(changes), dt_id}}));
        pinfo.commit = RefreshCommitInfo::StorageCommit::kApplied;
        vid = obj->storage->latest_version();
      }
    }

    // publish(vid): the one commit epilogue of every action.
    meta->initialized = true;
    meta->needs_reinit = false;
    meta->PublishRefresh(refresh_ts, vid);
    meta->frontier = std::move(source_versions);
    meta->data_timestamp = refresh_ts;
    out.dt_row_count = obj->storage->RowCountAt(vid);
    return out;
  };

  std::chrono::steady_clock::time_point attempt_start;
  if (profile != nullptr) attempt_start = std::chrono::steady_clock::now();
  Result<RefreshOutcome> result = run();
  if (profile != nullptr) {
    profile->wall_ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - attempt_start)
            .count());
    // `out.action` reflects the furthest decision the attempt reached even
    // when `run` failed mid-way (out is hoisted above the lambda for this).
    profile->action = RefreshActionName(out.action);
    profile->outcome = result.ok() ? "SUCCESS" : "FAILURE";
    profile->rows_processed = out.rows_processed;
    meta->RetainProfile(std::move(profile));
  }
  if (result.ok()) {
    meta->consecutive_failures = 0;
    meta->transient_failures = 0;
    if (persist_hook_) {
      // Journal the committed refresh for WAL replay. The WAL writer
      // serializes appends internally; ordering against this refresh's own
      // txn commit record is preserved because both happen on this thread.
      pinfo.dt = dt_id;
      pinfo.refresh_ts = refresh_ts;
      pinfo.action = result.value().action;
      pinfo.new_version = meta->refresh_versions.at(refresh_ts);
      pinfo.frontier = meta->frontier;
      persist_hook_(pinfo);
    }
    if (commit_observer_) {
      // The frontier now holds the exact source versions this refresh
      // consumed: precisely the derivation inputs of §4. Serialized:
      // concurrent refreshes feed one shared recorder.
      std::lock_guard<std::mutex> observer_lock(observer_mu_);
      commit_observer_(*obj, meta->refresh_versions.at(refresh_ts),
                       meta->frontier);
    }
  } else if (result.status().retryable()) {
    // Transient class: the caller may retry with backoff; never counts
    // toward auto-suspend.
    meta->transient_failures += 1;
    if (failure_hook_) failure_hook_(dt_id, result.status(), /*transient=*/true);
  } else if (CountsAsFailure(result.status())) {
    RecordFailure(obj);
    if (failure_hook_) failure_hook_(dt_id, result.status(), /*transient=*/false);
  }
  return result;
}

void RefreshEngine::NoteTransientFailure(ObjectId dt_id, const Status& error) {
  auto found = catalog_->FindById(dt_id);
  if (!found.ok()) return;
  found.value()->dt->transient_failures += 1;
  if (failure_hook_) failure_hook_(dt_id, error, /*transient=*/true);
}

Result<RefreshOutcome> RefreshEngine::RefreshWithUpstream(ObjectId dt_id,
                                                          Micros refresh_ts) {
  DVS_ASSIGN_OR_RETURN(std::vector<ObjectId> order,
                       catalog_->UpstreamClosure(dt_id));
  for (ObjectId up : order) {
    auto r = Refresh(up, refresh_ts);
    DVS_RETURN_IF_ERROR(r.ok() ? OkStatus() : r.status());
  }
  return Refresh(dt_id, refresh_ts);
}

Result<Micros> RefreshEngine::Initialize(ObjectId dt_id, Micros now) {
  DVS_ASSIGN_OR_RETURN(CatalogObject * obj, catalog_->FindById(dt_id));
  if (obj->kind != ObjectKind::kDynamicTable) {
    return InvalidArgument("'" + obj->name + "' is not a dynamic table");
  }
  DynamicTableMeta* meta = obj->dt.get();
  if (meta->initialized) return meta->data_timestamp;

  std::vector<ObjectId> upstream = catalog_->UpstreamDynamicTables(dt_id);
  if (!upstream.empty()) {
    // Candidate timestamps: refresh timestamps shared by *all* upstream DTs
    // (§3.1.2 — avoids the quadratic re-refresh cascade when users create
    // DTs in dependency order).
    std::set<Micros> candidates;
    bool first = true;
    for (ObjectId up : upstream) {
      DVS_ASSIGN_OR_RETURN(const CatalogObject* uobj, catalog_->FindById(up));
      std::set<Micros> mine;
      for (const auto& [ts, v] : uobj->dt->refresh_versions) {
        (void)v;
        mine.insert(ts);
      }
      if (first) {
        candidates = std::move(mine);
        first = false;
      } else {
        std::set<Micros> inter;
        std::set_intersection(candidates.begin(), candidates.end(),
                              mine.begin(), mine.end(),
                              std::inserter(inter, inter.begin()));
        candidates = std::move(inter);
      }
    }
    const Micros lag_limit = meta->def.target_lag.downstream
                                 ? INT64_MAX
                                 : meta->def.target_lag.duration;
    // Every base-table source must resolve at the candidate too: retention
    // may have pruned the version visible there.
    auto bases_resolve = [&](Micros ts) {
      for (ObjectId src : catalog_->SourcesOf(dt_id)) {
        auto found = catalog_->FindById(src);
        if (found.ok() && found.value()->kind == ObjectKind::kBaseTable &&
            found.value()->storage->ResolveVersionAt(
                HlcTimestamp::AtWallTime(ts)) == kInvalidVersionId) {
          return false;
        }
      }
      return true;
    };
    Micros chosen = -1;
    for (auto it = candidates.rbegin(); it != candidates.rend(); ++it) {
      if (*it <= now && (lag_limit == INT64_MAX || now - *it <= lag_limit) &&
          bases_resolve(*it)) {
        chosen = *it;
        break;
      }
    }
    if (chosen >= 0) {
      auto r = Refresh(dt_id, chosen);
      DVS_RETURN_IF_ERROR(r.ok() ? OkStatus() : r.status());
      return chosen;  // may be < creation time — the §3.1.2 trade-off
    }
  }
  // No usable upstream timestamp: refresh the whole upstream chain at `now`.
  auto r = RefreshWithUpstream(dt_id, now);
  DVS_RETURN_IF_ERROR(r.ok() ? OkStatus() : r.status());
  return now;
}

}  // namespace dvs
