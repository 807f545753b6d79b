#include "persist/recover.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <vector>

#include "persist/retention.h"
#include "sql/binder.h"
#include "sql/parser.h"

namespace dvs {
namespace persist {

namespace fs = std::filesystem;

namespace {

Result<PlanPtr> BindSql(Catalog& catalog, const std::string& sql) {
  DVS_ASSIGN_OR_RETURN(auto select, sql::ParseSelect(sql));
  sql::Binder binder(catalog);
  DVS_ASSIGN_OR_RETURN(sql::BindResult bound, binder.BindSelect(*select));
  return bound.plan;
}

bool DepsEqual(const std::vector<TrackedDependency>& a,
               const std::vector<TrackedDependency>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].name != b[i].name || a[i].object_id != b[i].object_id ||
        !(a[i].schema_at_bind == b[i].schema_at_bind)) {
      return false;
    }
  }
  return true;
}

void NoteTime(RecoveredSystem* sys, Micros t) {
  sys->recovered_time = std::max(sys->recovered_time, t);
}

Status ApplyCommitImage(RecoveredSystem* sys, const CommitImage& img) {
  Catalog& catalog = sys->engine->catalog();
  for (const CommitImage::TableCommit& t : img.tables) {
    DVS_ASSIGN_OR_RETURN(CatalogObject * obj, catalog.FindById(t.object));
    DVS_ASSIGN_OR_RETURN(VersionId vid,
                         obj->storage->ApplyChanges(t.changes, img.ts));
    (void)vid;
    obj->storage->RestoreNextRowId(t.next_row_id);
  }
  sys->engine->txn().ObserveCommitTimestamp(img.ts);
  NoteTime(sys, img.ts.physical);
  return OkStatus();
}

Status ApplyCommit(RecoveredSystem* sys, std::string_view payload) {
  DVS_ASSIGN_OR_RETURN(CommitImage img, DecodeCommit(payload));
  Catalog& catalog = sys->engine->catalog();
  // A commit that writes a dynamic table is an incremental refresh merge; it
  // is only durable together with its kRefresh record (see
  // RecoveredSystem::pending_dt_commits). Defer it — base DML applies
  // immediately. Refresh commits write exactly one table, so a commit either
  // defers whole or applies whole.
  for (const CommitImage::TableCommit& t : img.tables) {
    DVS_ASSIGN_OR_RETURN(CatalogObject * obj, catalog.FindById(t.object));
    if (obj->kind == ObjectKind::kDynamicTable) {
      sys->pending_dt_commits[t.object] = std::move(img);
      return OkStatus();
    }
  }
  return ApplyCommitImage(sys, img);
}

Status ApplyDdl(RecoveredSystem* sys, std::string_view payload) {
  DVS_ASSIGN_OR_RETURN(DdlImage img, DecodeDdl(payload));
  DvsEngine& engine = *sys->engine;
  Catalog& catalog = engine.catalog();
  switch (img.op) {
    case DdlOp::kCreateTable: {
      DVS_ASSIGN_OR_RETURN(ObjectId id,
                           catalog.CreateBaseTable(img.name, img.schema,
                                                   img.ts));
      DVS_ASSIGN_OR_RETURN(CatalogObject * obj, catalog.FindById(id));
      obj->min_data_retention = img.min_data_retention;
      break;
    }
    case DdlOp::kReplaceTable: {
      DVS_ASSIGN_OR_RETURN(ObjectId id,
                           catalog.ReplaceBaseTable(img.name, img.schema,
                                                    img.ts));
      DVS_ASSIGN_OR_RETURN(CatalogObject * obj, catalog.FindById(id));
      obj->min_data_retention = img.min_data_retention;
      break;
    }
    case DdlOp::kCreateView: {
      DVS_ASSIGN_OR_RETURN(PlanPtr plan, BindSql(catalog, img.sql));
      DVS_ASSIGN_OR_RETURN(
          ObjectId id, catalog.CreateView(img.name, img.sql, plan, img.ts));
      (void)id;
      break;
    }
    case DdlOp::kCreateDynamicTable: {
      // Mirror DvsEngine::ExecuteCreateDt: the warehouse exists before the
      // DT, and the owner role gets OWNERSHIP. Initialization is not re-run
      // — the initializing refresh has its own WAL record.
      engine.warehouses().GetOrCreate(img.def.warehouse);
      DVS_ASSIGN_OR_RETURN(PlanPtr plan, BindSql(catalog, img.def.sql));
      DVS_ASSIGN_OR_RETURN(
          ObjectId id,
          catalog.CreateDynamicTable(img.name, img.def, plan,
                                     img.output_schema, img.incremental,
                                     img.deps, img.ts));
      catalog.Grant(id, "owner", Privilege::kOwnership);
      break;
    }
    case DdlOp::kDrop:
      DVS_RETURN_IF_ERROR(catalog.DropObject(img.name, img.ts));
      break;
    case DdlOp::kUndrop:
      DVS_RETURN_IF_ERROR(catalog.UndropObject(img.name, img.ts));
      break;
    case DdlOp::kClone: {
      DVS_ASSIGN_OR_RETURN(ObjectId id,
                           catalog.CloneObject(img.name, img.detail, img.ts));
      DVS_ASSIGN_OR_RETURN(CatalogObject * obj, catalog.FindById(id));
      if (obj->kind == ObjectKind::kDynamicTable) {
        catalog.Grant(id, "owner", Privilege::kOwnership);
      }
      break;
    }
    case DdlOp::kAlterTargetLag: {
      DVS_ASSIGN_OR_RETURN(CatalogObject * obj, catalog.Find(img.name));
      catalog.AlterTargetLag(obj, img.lag, img.ts);
      break;
    }
    case DdlOp::kAlterSuspend: {
      DVS_ASSIGN_OR_RETURN(CatalogObject * obj, catalog.Find(img.name));
      obj->dt->state = DtState::kSuspended;
      catalog.NotifyAlter(DdlOp::kAlterSuspend, obj, img.ts);
      break;
    }
    case DdlOp::kAlterResume: {
      DVS_ASSIGN_OR_RETURN(CatalogObject * obj, catalog.Find(img.name));
      obj->dt->state = DtState::kActive;
      obj->dt->consecutive_failures = 0;
      obj->dt->transient_failures = 0;
      catalog.NotifyAlter(DdlOp::kAlterResume, obj, img.ts);
      break;
    }
  }
  sys->engine->txn().ObserveCommitTimestamp(img.ts);
  NoteTime(sys, img.ts.physical);
  return OkStatus();
}

Status ApplyRefresh(RecoveredSystem* sys, std::string_view payload) {
  DVS_ASSIGN_OR_RETURN(RefreshImage img, DecodeRefresh(payload));
  Catalog& catalog = sys->engine->catalog();
  DVS_ASSIGN_OR_RETURN(CatalogObject * obj, catalog.FindById(img.dt));
  DynamicTableMeta* meta = obj->dt.get();

  using StorageCommit = RefreshEngine::RefreshCommitInfo::StorageCommit;
  switch (static_cast<StorageCommit>(img.commit)) {
    case StorageCommit::kOverwrite: {
      DVS_ASSIGN_OR_RETURN(
          VersionId vid, obj->storage->Overwrite(img.rows, img.commit_ts));
      if (vid != img.new_version) {
        return Corruption("refresh replay version mismatch for '" +
                          obj->name + "'");
      }
      break;
    }
    case StorageCommit::kNoOp: {
      VersionId vid = obj->storage->CommitNoOp(img.commit_ts);
      if (vid != img.new_version) {
        return Corruption("no-op replay version mismatch for '" + obj->name +
                          "'");
      }
      break;
    }
    case StorageCommit::kApplied: {
      // The incremental merge was journaled by this refresh's commit
      // record, deferred until now so the pair replays atomically.
      auto pending = sys->pending_dt_commits.find(img.dt);
      if (pending != sys->pending_dt_commits.end()) {
        Status s = ApplyCommitImage(sys, pending->second);
        sys->pending_dt_commits.erase(pending);
        DVS_RETURN_IF_ERROR(s);
      }
      if (obj->storage->latest_version() != img.new_version) {
        return Corruption("incremental replay version mismatch for '" +
                          obj->name + "'");
      }
      break;
    }
  }

  // A dependency list that moved means the live refresh rebound its plan
  // (§5.4 query evolution) before committing; reproduce the rebind against
  // the recovered catalog, which is in the same state the live bind saw.
  if (!DepsEqual(meta->dependencies, img.deps)) {
    auto plan = BindSql(catalog, meta->def.sql);
    if (plan.ok()) catalog.SetDtPlan(obj, plan.take());
  }
  if (!(obj->storage->schema() == img.schema)) {
    obj->storage->set_schema(img.schema);
  }
  meta->dependencies = img.deps;
  meta->initialized = true;
  meta->needs_reinit = false;
  meta->refresh_versions[img.refresh_ts] = img.new_version;
  meta->frontier.clear();
  for (const auto& [src, v] : img.frontier) meta->frontier.emplace(src, v);
  meta->data_timestamp = img.refresh_ts;
  meta->consecutive_failures = 0;
  meta->transient_failures = 0;

  sys->engine->txn().ObserveCommitTimestamp(img.commit_ts);
  NoteTime(sys, std::max(img.refresh_ts, img.commit_ts.physical));
  return OkStatus();
}

Status ApplyRefreshFailure(RecoveredSystem* sys, std::string_view payload) {
  Decoder d(payload);
  ObjectId dt = d.U64();
  bool transient = d.Bool();
  d.I32();   // Status code — carried for post-mortems, not needed by replay.
  d.Str();   // Status message — likewise.
  if (!d.done()) return Corruption("malformed refresh-failure WAL record");
  DVS_ASSIGN_OR_RETURN(CatalogObject * obj,
                       sys->engine->catalog().FindById(dt));
  DynamicTableMeta* meta = obj->dt.get();
  if (transient) {
    // Retryable class: never advances the auto-suspend counter.
    meta->transient_failures += 1;
    return OkStatus();
  }
  meta->consecutive_failures += 1;
  if (meta->consecutive_failures >=
      sys->engine->refresh_engine().options().max_consecutive_failures) {
    meta->state = DtState::kSuspended;
  }
  return OkStatus();
}

Status ApplySchedRecord(RecoveredSystem* sys, std::string_view payload) {
  DVS_ASSIGN_OR_RETURN(SchedRecordImage img, DecodeSchedRecord(payload));
  sys->sched.log.push_back(img.record);
  if (img.has_warehouse) {
    Warehouse* wh = sys->engine->warehouses().GetOrCreate(
        img.warehouse, img.wh_size, img.wh_auto_suspend);
    wh->Resize(img.wh_size);
    if (img.wh_pinned) wh->set_concurrency(img.wh_concurrency);
    wh->RestoreBilling(img.wh_busy_until, img.wh_billed, img.wh_resumes);
  }
  // The record's end_time is *virtual* warehouse time, which legitimately
  // runs past the wall clock; only the tick's data timestamp is wall time.
  NoteTime(sys, img.record.data_timestamp);
  return OkStatus();
}

Status ApplyRecluster(RecoveredSystem* sys, std::string_view payload) {
  Decoder d(payload);
  ObjectId object = d.U64();
  HlcTimestamp commit_ts = d.Hlc();
  VersionId new_version = d.U64();
  if (!d.done()) return Corruption("malformed recluster WAL record");
  DVS_ASSIGN_OR_RETURN(CatalogObject * obj,
                       sys->engine->catalog().FindById(object));
  // Repacking ScanLatest() is a pure function of the prior state, so
  // re-running it reproduces the live partition layout byte-for-byte.
  VersionId vid = obj->storage->Recluster(commit_ts);
  if (vid != new_version) {
    return Corruption("recluster replay version mismatch for '" + obj->name +
                      "'");
  }
  sys->engine->txn().ObserveCommitTimestamp(commit_ts);
  NoteTime(sys, commit_ts.physical);
  return OkStatus();
}

Status ApplyPrune(RecoveredSystem* sys, std::string_view payload) {
  Decoder d(payload);
  ObjectId object = d.U64();
  VersionId keep_from = d.U64();
  if (!d.done()) return Corruption("malformed prune WAL record");
  DVS_ASSIGN_OR_RETURN(CatalogObject * obj,
                       sys->engine->catalog().FindById(object));
  ApplyPruneToObject(obj, keep_from);
  return OkStatus();
}

}  // namespace

Status ApplyWalRecord(RecoveredSystem* sys, uint8_t type,
                      std::string_view payload) {
  ++sys->wal_records_replayed;
  switch (static_cast<WalRecordType>(type)) {
    case WalRecordType::kCommit:
      return ApplyCommit(sys, payload);
    case WalRecordType::kDdl:
      return ApplyDdl(sys, payload);
    case WalRecordType::kRefresh:
      return ApplyRefresh(sys, payload);
    case WalRecordType::kRefreshFailure:
      return ApplyRefreshFailure(sys, payload);
    case WalRecordType::kSchedRecord:
      return ApplySchedRecord(sys, payload);
    case WalRecordType::kTickEnd: {
      Decoder d(payload);
      Micros t = d.I64();
      if (!d.done()) return Corruption("malformed tick WAL record");
      sys->sched.last_run = std::max(sys->sched.last_run, t);
      NoteTime(sys, t);
      return OkStatus();
    }
    case WalRecordType::kPrune:
      return ApplyPrune(sys, payload);
    case WalRecordType::kRecluster:
      return ApplyRecluster(sys, payload);
  }
  return Corruption("unknown WAL record type " + std::to_string(type));
}

Result<RecordFile> ReadWalSegment(const std::string& path) {
  return ReadRecordFile(path, kWalMagic, /*tolerate_torn_tail=*/true);
}

Result<RecoveredSystem> Recover(const std::string& dir, VirtualClock* clock,
                                RefreshEngineOptions refresh_options) {
  // Newest checkpoint that parses wins; earlier generations are the safety
  // net for a crash mid-checkpoint.
  std::vector<uint64_t> seqs;
  DVS_RETURN_IF_ERROR(ScanGenerations(dir, &seqs, nullptr));
  std::sort(seqs.rbegin(), seqs.rend());
  if (seqs.empty()) {
    return NotFound("no checkpoint in '" + dir + "'");
  }

  SystemImage image;
  uint64_t generation = 0;
  bool loaded = false;
  for (uint64_t seq : seqs) {
    auto read = ReadCheckpointFile(CheckpointPath(dir, seq), nullptr);
    if (read.ok()) {
      image = read.take();
      generation = seq;
      loaded = true;
      break;
    }
  }
  if (!loaded) {
    return Corruption("no valid checkpoint in '" + dir + "'");
  }

  RecoveredSystem sys;
  sys.generation = generation;
  sys.engine = std::make_unique<DvsEngine>(*clock, refresh_options);
  DVS_RETURN_IF_ERROR(InstallSystemImage(image, sys.engine.get(), &sys.sched));
  sys.recovered_time = image.clock_now;

  auto wal = ReadWalSegment(WalPath(dir, generation));
  if (wal.ok()) {
    sys.wal_torn_tail = wal.value().torn_tail;
    for (const FramedRecord& rec : wal.value().records) {
      DVS_RETURN_IF_ERROR(ApplyWalRecord(&sys, rec.type, rec.payload));
    }
  } else if (wal.status().code() != StatusCode::kNotFound) {
    return wal.status();
  }

  clock->AdvanceTo(sys.recovered_time);
  return sys;
}

}  // namespace persist
}  // namespace dvs
