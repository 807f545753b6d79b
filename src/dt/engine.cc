#include "dt/engine.h"

#include "exec/evaluator.h"
#include "ivm/incrementality.h"
#include "obs/profile.h"
#include "sql/binder.h"
#include "sql/parser.h"

namespace dvs {

const char* QueryIsolationName(QueryIsolation i) {
  return i == QueryIsolation::kSnapshotIsolation ? "SNAPSHOT_ISOLATION"
                                                 : "READ_COMMITTED";
}

Result<ObjectId> DvsEngine::ObjectIdOf(const std::string& name) const {
  DVS_ASSIGN_OR_RETURN(const CatalogObject* obj, catalog_.Find(name));
  return obj->id;
}

void DvsEngine::EnableIsolationRecording() {
  if (recorder_ != nullptr) return;
  recorder_ = std::make_unique<IsolationRecorder>();
  refresh_.set_commit_observer(
      [this](const CatalogObject& dt, VersionId new_version,
             const std::unordered_map<ObjectId, VersionId>& sources) {
        std::vector<std::pair<std::string, VersionId>> inputs;
        for (const auto& [id, v] : sources) {
          auto obj = catalog_.FindById(id);
          if (obj.ok()) inputs.emplace_back(obj.value()->name, v);
        }
        recorder_->RecordRefresh(dt.name, new_version, inputs);
      });
}

void DvsEngine::RecordQueryReads(const PlanPtr& plan) {
  if (recorder_ == nullptr) return;
  const Micros now = clock_.Now();
  std::vector<std::pair<std::string, VersionId>> reads;
  for (ObjectId id : CollectScanIds(plan)) {
    if (id == sql::kDualTableId) continue;
    auto found = catalog_.FindById(id);
    if (!found.ok()) continue;
    const CatalogObject* obj = found.value();
    if (obj->kind == ObjectKind::kDynamicTable) {
      auto latest = obj->dt->LatestRefreshAtOrBefore(now);
      if (latest.has_value()) {
        reads.emplace_back(obj->name, *obj->dt->VersionForRefresh(*latest));
      }
    } else if (obj->storage != nullptr) {
      VersionId v =
          obj->storage->ResolveVersionAt(HlcTimestamp::AtWallTime(now));
      if (v != kInvalidVersionId) reads.emplace_back(obj->name, v);
    }
  }
  if (!reads.empty()) recorder_->RecordQuery(reads);
}

Result<QueryResult> DvsEngine::Execute(const std::string& sql) {
  DVS_ASSIGN_OR_RETURN(sql::Statement stmt, sql::ParseStatement(sql));
  return ExecuteStatement(stmt);
}

Result<QueryResult> DvsEngine::Query(const std::string& sql) {
  DVS_ASSIGN_OR_RETURN(sql::Statement stmt, sql::ParseStatement(sql));
  if (stmt.kind != sql::StatementKind::kSelect) {
    return InvalidArgument("Query() accepts only SELECT statements");
  }
  return ExecuteSelect(*stmt.select);
}

Result<QueryResult> DvsEngine::ExecuteStatement(const sql::Statement& stmt) {
  switch (stmt.kind) {
    case sql::StatementKind::kSelect:
      return ExecuteSelect(*stmt.select);
    case sql::StatementKind::kCreateTable:
      return ExecuteCreateTable(*stmt.create_table);
    case sql::StatementKind::kCreateView:
      return ExecuteCreateView(*stmt.create_view);
    case sql::StatementKind::kCreateDynamicTable:
      return ExecuteCreateDt(*stmt.create_dt);
    case sql::StatementKind::kDrop:
      return ExecuteDrop(*stmt.drop);
    case sql::StatementKind::kInsert:
      return ExecuteInsert(*stmt.insert);
    case sql::StatementKind::kDelete:
      return ExecuteDelete(*stmt.del);
    case sql::StatementKind::kUpdate:
      return ExecuteUpdate(*stmt.update);
    case sql::StatementKind::kAlterDt:
      return ExecuteAlterDt(*stmt.alter_dt);
    case sql::StatementKind::kExplain:
      return ExecuteExplain(*stmt.explain);
  }
  return Internal("unhandled statement kind");
}

Result<QueryResult> DvsEngine::ExecuteSelect(const sql::SelectStmt& stmt) {
  sql::Binder binder(catalog_);
  if (table_fns_) binder.set_table_function_provider(&table_fns_);
  DVS_ASSIGN_OR_RETURN(sql::BindResult bound, binder.BindSelect(stmt));

  const Micros now = clock_.Now();
  ExecContext ctx;
  ctx.resolve_scan = refresh_.MakeResolver(now, /*exact_dt=*/false);
  ctx.eval.current_time = now;
  DVS_ASSIGN_OR_RETURN(std::vector<Row> rows,
                       ExecutePlanRows(*bound.plan, ctx));

  QueryResult out;
  out.schema = bound.plan->output_schema;
  out.rows = std::move(rows);

  // §4: single-DT reads get Snapshot Isolation; anything mixing tables is
  // Read Committed.
  size_t dt_count = 0, other_count = 0;
  for (ObjectId id : CollectScanIds(bound.plan)) {
    if (id == sql::kDualTableId) continue;
    auto obj = catalog_.FindById(id);
    if (!obj.ok()) continue;
    if (obj.value()->kind == ObjectKind::kDynamicTable) {
      ++dt_count;
    } else {
      ++other_count;
    }
  }
  out.isolation = (dt_count == 1 && other_count == 0)
                      ? QueryIsolation::kSnapshotIsolation
                      : QueryIsolation::kReadCommitted;
  RecordQueryReads(bound.plan);
  return out;
}

Result<QueryResult> DvsEngine::ExecuteExplain(const sql::ExplainStmt& stmt) {
  // Bind like a direct SELECT (table functions available) — EXPLAIN shows
  // exactly the plan ExecuteSelect would run.
  sql::Binder binder(catalog_);
  if (table_fns_) binder.set_table_function_provider(&table_fns_);
  DVS_ASSIGN_OR_RETURN(sql::BindResult bound, binder.BindSelect(*stmt.select));

  QueryResult out;
  out.schema.AddColumn("plan", DataType::kString);
  if (!stmt.analyze) {
    for (std::string& line : obs::RenderPlanLines(*bound.plan)) {
      out.rows.push_back({Value::String(std::move(line))});
    }
    out.message = "EXPLAIN";
    return out;
  }

  // ANALYZE: execute with a private sink — armed per-execution, independent
  // of the global profiling flag — then annotate the plan with its counters.
  obs::ProfileSink sink;
  sink.DeclarePlan(*bound.plan);
  const Micros now = clock_.Now();
  ExecContext ctx;
  ctx.resolve_scan = refresh_.MakeResolver(now, /*exact_dt=*/false);
  ctx.eval.current_time = now;
  ctx.profile = &sink;
  DVS_ASSIGN_OR_RETURN(std::vector<IdRow> rows, ExecutePlan(*bound.plan, ctx));
  for (std::string& line :
       obs::RenderAnalyzedPlanLines(*bound.plan, sink, /*include_wall=*/true)) {
    out.rows.push_back({Value::String(std::move(line))});
  }
  out.message = "EXPLAIN ANALYZE";
  out.affected_rows = static_cast<int64_t>(rows.size());
  RecordQueryReads(bound.plan);
  return out;
}

Result<std::vector<Row>> DvsEngine::QueryAsOf(const std::string& select_sql,
                                              Micros ts) {
  DVS_ASSIGN_OR_RETURN(auto select, sql::ParseSelect(select_sql));
  sql::Binder binder(catalog_);
  DVS_ASSIGN_OR_RETURN(sql::BindResult bound, binder.BindSelect(*select));
  ExecContext ctx;
  ctx.resolve_scan = refresh_.MakeResolver(ts, /*exact_dt=*/true);
  ctx.eval.current_time = ts;
  return ExecutePlanRows(*bound.plan, ctx);
}

Result<QueryResult> DvsEngine::QueryChanges(const std::string& table,
                                            Micros from_ts, Micros to_ts) {
  DVS_ASSIGN_OR_RETURN(const CatalogObject* obj, catalog_.Find(table));
  if (obj->storage == nullptr) {
    return InvalidArgument("'" + table + "' has no storage (view?)");
  }
  auto resolve = [&](Micros ts) -> Result<VersionId> {
    if (obj->kind == ObjectKind::kDynamicTable) {
      auto latest = obj->dt->LatestRefreshAtOrBefore(ts);
      if (!latest.has_value()) {
        return FailedPrecondition("'" + table + "' has no data at or before " +
                                  std::to_string(ts));
      }
      return *obj->dt->VersionForRefresh(*latest);
    }
    VersionId v = obj->storage->ResolveVersionAt(HlcTimestamp::AtWallTime(ts));
    if (v == kInvalidVersionId) {
      if (obj->storage->first_version() > 1) {
        return FailedPrecondition("'" + table + "' change scan at " +
                                  std::to_string(ts) +
                                  " is below the retention window");
      }
      return FailedPrecondition("'" + table + "' did not exist at " +
                                std::to_string(ts));
    }
    return v;
  };
  DVS_ASSIGN_OR_RETURN(VersionId v0, resolve(from_ts));
  DVS_ASSIGN_OR_RETURN(VersionId v1, resolve(to_ts));
  DVS_ASSIGN_OR_RETURN(ChangeSet changes, obj->storage->ScanChanges(v0, v1));

  QueryResult out;
  out.schema = obj->storage->schema();
  out.schema.AddColumn("$action", DataType::kString);
  out.schema.AddColumn("$row_id", DataType::kInt64);
  for (ChangeRow& c : changes) {
    Row row = std::move(c.values);
    row.push_back(Value::String(ChangeActionName(c.action)));
    row.push_back(Value::Int(static_cast<int64_t>(c.row_id)));
    out.rows.push_back(std::move(row));
  }
  return out;
}

Result<QueryResult> DvsEngine::ExecuteCreateTable(
    const sql::CreateTableStmt& stmt) {
  HlcTimestamp ts = txn_.NextCommitTimestamp();
  if (!stmt.clone_source.empty()) {
    DVS_ASSIGN_OR_RETURN(const CatalogObject* src,
                         catalog_.Find(stmt.clone_source));
    const bool src_dynamic = src->kind == ObjectKind::kDynamicTable;
    if (stmt.expect_dynamic != src_dynamic) {
      return InvalidArgument(
          "clone kind mismatch: source '" + stmt.clone_source + "' is a " +
          ObjectKindName(src->kind));
    }
    DVS_ASSIGN_OR_RETURN(ObjectId id,
                         catalog_.CloneObject(stmt.name, stmt.clone_source, ts));
    if (src_dynamic) catalog_.Grant(id, "owner", Privilege::kOwnership);
    QueryResult out;
    out.message = std::string(src_dynamic ? "Dynamic table " : "Table ") +
                  stmt.name + " cloned from " + stmt.clone_source;
    return out;
  }
  ObjectId id;
  if (stmt.or_replace) {
    DVS_ASSIGN_OR_RETURN(id, catalog_.ReplaceBaseTable(stmt.name, stmt.schema,
                                                       ts,
                                                       stmt.min_data_retention));
  } else {
    DVS_ASSIGN_OR_RETURN(id, catalog_.CreateBaseTable(stmt.name, stmt.schema,
                                                      ts,
                                                      stmt.min_data_retention));
  }
  (void)id;
  QueryResult out;
  out.message = "Table " + stmt.name + " created";
  return out;
}

Result<QueryResult> DvsEngine::ExecuteCreateView(
    const sql::CreateViewStmt& stmt) {
  sql::Binder binder(catalog_);
  DVS_ASSIGN_OR_RETURN(sql::BindResult bound, binder.BindSelect(*stmt.select));
  DVS_ASSIGN_OR_RETURN(
      ObjectId id, catalog_.CreateView(stmt.name, stmt.select_sql, bound.plan,
                                       txn_.NextCommitTimestamp()));
  (void)id;
  QueryResult out;
  out.message = "View " + stmt.name + " created";
  return out;
}

Result<QueryResult> DvsEngine::ExecuteCreateDt(
    const sql::CreateDynamicTableStmt& stmt) {
  if (stmt.or_replace && catalog_.Exists(stmt.name)) {
    DVS_RETURN_IF_ERROR(
        catalog_.DropObject(stmt.name, txn_.NextCommitTimestamp()));
  }

  sql::Binder binder(catalog_);
  DVS_ASSIGN_OR_RETURN(sql::BindResult bound, binder.BindSelect(*stmt.select));

  // Decide the effective refresh mode (§3.3.2).
  IncrementalityAnalysis analysis = AnalyzeIncrementality(*bound.plan);
  bool incremental;
  switch (stmt.refresh_mode) {
    case RefreshMode::kIncremental:
      if (!analysis.incremental) {
        return Unsupported("REFRESH_MODE = INCREMENTAL not possible: " +
                           analysis.reason);
      }
      incremental = true;
      break;
    case RefreshMode::kFull:
      incremental = false;
      break;
    case RefreshMode::kAuto:
      incremental = analysis.incremental;
      break;
  }

  // The warehouse is part of the definition; create lazily with defaults so
  // examples stay terse (real Snowflake requires a CREATE WAREHOUSE).
  warehouses_.GetOrCreate(stmt.warehouse);

  DynamicTableDef def;
  def.sql = stmt.select_sql;
  def.target_lag = stmt.target_lag;
  def.warehouse = stmt.warehouse;
  def.requested_mode = stmt.refresh_mode;
  def.initialize_on_create = stmt.initialize_on_create;
  def.min_data_retention = stmt.min_data_retention;

  DVS_ASSIGN_OR_RETURN(
      ObjectId id,
      catalog_.CreateDynamicTable(stmt.name, std::move(def), bound.plan,
                                  bound.plan->output_schema, incremental,
                                  std::move(bound.dependencies),
                                  txn_.NextCommitTimestamp()));
  // Owner role gets full control; MONITOR/OPERATE exist for finer grants.
  catalog_.Grant(id, "owner", Privilege::kOwnership);

  if (stmt.initialize_on_create) {
    auto init = refresh_.Initialize(id, clock_.Now());
    if (!init.ok()) {
      // A CREATE whose initializing refresh fails creates nothing: drop the
      // new DT (journaled like any DROP) so the scheduler never sees it.
      (void)catalog_.DropObject(stmt.name, txn_.NextCommitTimestamp());
      return init.status();
    }
  }

  QueryResult out;
  out.message = std::string("Dynamic table ") + stmt.name + " created (" +
                (incremental ? "INCREMENTAL" : "FULL") + ")";
  return out;
}

Result<QueryResult> DvsEngine::ExecuteDrop(const sql::DropStmt& stmt) {
  HlcTimestamp ts = txn_.NextCommitTimestamp();
  QueryResult out;
  if (stmt.undrop) {
    DVS_RETURN_IF_ERROR(catalog_.UndropObject(stmt.name, ts));
    out.message = stmt.name + " restored";
  } else {
    DVS_RETURN_IF_ERROR(catalog_.DropObject(stmt.name, ts));
    out.message = stmt.name + " dropped";
  }
  return out;
}

Result<QueryResult> DvsEngine::ExecuteInsert(const sql::InsertStmt& stmt) {
  DVS_ASSIGN_OR_RETURN(CatalogObject * obj, catalog_.Find(stmt.table));
  if (obj->kind != ObjectKind::kBaseTable) {
    return InvalidArgument("INSERT target '" + stmt.table +
                           "' is not a base table");
  }
  const Schema& schema = obj->storage->schema();
  sql::Binder binder(catalog_);
  EvalContext ec;
  ec.current_time = clock_.Now();

  std::vector<Row> rows;
  rows.reserve(stmt.rows.size());
  for (const auto& ast_row : stmt.rows) {
    if (ast_row.size() != schema.size()) {
      return InvalidArgument("INSERT row has " +
                             std::to_string(ast_row.size()) +
                             " values; table has " +
                             std::to_string(schema.size()) + " columns");
    }
    Row row;
    row.reserve(ast_row.size());
    for (size_t i = 0; i < ast_row.size(); ++i) {
      DVS_ASSIGN_OR_RETURN(ExprPtr e, binder.BindConstExpr(*ast_row[i]));
      DVS_ASSIGN_OR_RETURN(Value v, Eval(*e, {}, ec));
      DVS_ASSIGN_OR_RETURN(Value coerced,
                           CastValue(v, schema.column(i).type));
      row.push_back(std::move(coerced));
    }
    rows.push_back(std::move(row));
  }
  ChangeSet changes = obj->storage->MakeInsertChanges(std::move(rows));
  int64_t n = static_cast<int64_t>(changes.size());
  auto commit = txn_.CommitWrites({{obj->storage.get(), std::move(changes), obj->id}});
  if (!commit.ok()) return commit.status();
  if (recorder_ != nullptr) {
    recorder_->RecordWrite(obj->name, obj->storage->latest_version());
  }

  QueryResult out;
  out.affected_rows = n;
  out.message = std::to_string(n) + " rows inserted";
  return out;
}

Result<QueryResult> DvsEngine::ExecuteDelete(const sql::DeleteStmt& stmt) {
  DVS_ASSIGN_OR_RETURN(CatalogObject * obj, catalog_.Find(stmt.table));
  if (obj->kind != ObjectKind::kBaseTable) {
    return InvalidArgument("DELETE target '" + stmt.table +
                           "' is not a base table");
  }
  sql::Binder binder(catalog_);
  ExprPtr pred;
  if (stmt.where) {
    DVS_ASSIGN_OR_RETURN(
        pred, binder.BindExprForSchema(*stmt.where, obj->storage->schema()));
  }
  EvalContext ec;
  ec.current_time = clock_.Now();

  ChangeSet changes;
  for (const IdRow& r : obj->storage->ScanLatest()) {
    bool match = true;
    if (pred) {
      DVS_ASSIGN_OR_RETURN(match, EvalPredicate(*pred, r.values, ec));
    }
    if (match) {
      changes.push_back({ChangeAction::kDelete, r.id, r.values});
    }
  }
  int64_t n = static_cast<int64_t>(changes.size());
  if (n > 0) {
    auto commit = txn_.CommitWrites({{obj->storage.get(), std::move(changes), obj->id}});
    if (!commit.ok()) return commit.status();
    if (recorder_ != nullptr) {
      recorder_->RecordWrite(obj->name, obj->storage->latest_version());
    }
  }
  QueryResult out;
  out.affected_rows = n;
  out.message = std::to_string(n) + " rows deleted";
  return out;
}

Result<QueryResult> DvsEngine::ExecuteUpdate(const sql::UpdateStmt& stmt) {
  DVS_ASSIGN_OR_RETURN(CatalogObject * obj, catalog_.Find(stmt.table));
  if (obj->kind != ObjectKind::kBaseTable) {
    return InvalidArgument("UPDATE target '" + stmt.table +
                           "' is not a base table");
  }
  const Schema& schema = obj->storage->schema();
  sql::Binder binder(catalog_);
  ExprPtr pred;
  if (stmt.where) {
    DVS_ASSIGN_OR_RETURN(pred,
                         binder.BindExprForSchema(*stmt.where, schema));
  }
  std::vector<std::pair<size_t, ExprPtr>> assignments;
  for (const auto& [col, ast] : stmt.assignments) {
    auto idx = schema.FindColumn(col);
    if (!idx.has_value()) {
      return BindError("unknown column '" + col + "' in UPDATE");
    }
    DVS_ASSIGN_OR_RETURN(ExprPtr e, binder.BindExprForSchema(*ast, schema));
    assignments.emplace_back(*idx, std::move(e));
  }
  EvalContext ec;
  ec.current_time = clock_.Now();

  ChangeSet changes;
  int64_t n = 0;
  for (const IdRow& r : obj->storage->ScanLatest()) {
    bool match = true;
    if (pred) {
      DVS_ASSIGN_OR_RETURN(match, EvalPredicate(*pred, r.values, ec));
    }
    if (!match) continue;
    Row updated = r.values;
    for (const auto& [idx, e] : assignments) {
      DVS_ASSIGN_OR_RETURN(Value v, Eval(*e, r.values, ec));
      DVS_ASSIGN_OR_RETURN(Value coerced,
                           CastValue(v, schema.column(idx).type));
      updated[idx] = std::move(coerced);
    }
    // An update is a delete + insert with the same row id (§5.5).
    changes.push_back({ChangeAction::kDelete, r.id, r.values});
    changes.push_back({ChangeAction::kInsert, r.id, std::move(updated)});
    ++n;
  }
  if (n > 0) {
    auto commit = txn_.CommitWrites({{obj->storage.get(), std::move(changes), obj->id}});
    if (!commit.ok()) return commit.status();
    if (recorder_ != nullptr) {
      recorder_->RecordWrite(obj->name, obj->storage->latest_version());
    }
  }
  QueryResult out;
  out.affected_rows = n;
  out.message = std::to_string(n) + " rows updated";
  return out;
}

Result<QueryResult> DvsEngine::ExecuteAlterDt(const sql::AlterDtStmt& stmt) {
  DVS_ASSIGN_OR_RETURN(CatalogObject * obj, catalog_.Find(stmt.name));
  if (obj->kind != ObjectKind::kDynamicTable) {
    return InvalidArgument("'" + stmt.name + "' is not a dynamic table");
  }
  QueryResult out;
  switch (stmt.action) {
    case sql::AlterDtStmt::Action::kRefresh: {
      // Manual refresh (§3.1.2): data timestamp after the command was
      // issued; refreshes everything upstream first.
      auto r = refresh_.RefreshWithUpstream(obj->id, clock_.Now());
      if (!r.ok()) return r.status();
      out.message = "Refreshed " + stmt.name + " (" +
                    RefreshActionName(r.value().action) + ") to timestamp " +
                    std::to_string(r.value().data_timestamp);
      break;
    }
    case sql::AlterDtStmt::Action::kSuspend:
      obj->dt->state = DtState::kSuspended;
      catalog_.NotifyAlter(DdlOp::kAlterSuspend, obj,
                           txn_.NextCommitTimestamp());
      out.message = stmt.name + " suspended";
      break;
    case sql::AlterDtStmt::Action::kResume:
      obj->dt->state = DtState::kActive;
      obj->dt->consecutive_failures = 0;
      obj->dt->transient_failures = 0;
      catalog_.NotifyAlter(DdlOp::kAlterResume, obj,
                           txn_.NextCommitTimestamp());
      out.message = stmt.name + " resumed";
      break;
    case sql::AlterDtStmt::Action::kSetTargetLag:
      // A graph mutation: the scheduler's lag/period memo goes stale with
      // the epoch, so the new lag takes effect at the next tick.
      catalog_.AlterTargetLag(obj, stmt.target_lag,
                              txn_.NextCommitTimestamp());
      out.message = stmt.name + " target lag set to " +
                    stmt.target_lag.ToString();
      break;
  }
  return out;
}

}  // namespace dvs
