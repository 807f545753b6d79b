#include "catalog/catalog.h"

#include <algorithm>
#include <cctype>
#include <functional>
#include <mutex>

#include "obs/profile.h"

namespace dvs {

namespace {
std::string LowerName(const std::string& s) {
  std::string out = s;
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return out;
}
}  // namespace

const char* ObjectKindName(ObjectKind k) {
  switch (k) {
    case ObjectKind::kBaseTable: return "TABLE";
    case ObjectKind::kView: return "VIEW";
    case ObjectKind::kDynamicTable: return "DYNAMIC TABLE";
  }
  return "?";
}

const char* PrivilegeName(Privilege p) {
  switch (p) {
    case Privilege::kSelect: return "SELECT";
    case Privilege::kOwnership: return "OWNERSHIP";
    case Privilege::kMonitor: return "MONITOR";
    case Privilege::kOperate: return "OPERATE";
  }
  return "?";
}

std::string TargetLag::ToString() const {
  if (downstream) return "DOWNSTREAM";
  return FormatDuration(duration);
}

std::optional<VersionId> DynamicTableMeta::VersionForRefresh(
    Micros refresh_ts) const {
  auto it = refresh_versions.find(refresh_ts);
  if (it == refresh_versions.end()) return std::nullopt;
  return it->second;
}

std::optional<Micros> DynamicTableMeta::LatestRefreshAtOrBefore(
    Micros t) const {
  auto it = refresh_versions.upper_bound(t);
  if (it == refresh_versions.begin()) return std::nullopt;
  return std::prev(it)->first;
}

std::optional<std::pair<Micros, VersionId>> DynamicTableMeta::ResolveRead(
    Micros t) const {
  std::shared_lock<std::shared_mutex> lock(reads_mu);
  auto it = refresh_versions.upper_bound(t);
  if (it == refresh_versions.begin()) return std::nullopt;
  --it;
  return std::make_pair(it->first, it->second);
}

void DynamicTableMeta::PublishRefresh(Micros refresh_ts, VersionId vid) {
  std::unique_lock<std::shared_mutex> lock(reads_mu);
  refresh_versions[refresh_ts] = vid;
}

void DynamicTableMeta::TrimRefreshVersionsBelow(VersionId keep_from) {
  std::unique_lock<std::shared_mutex> lock(reads_mu);
  for (auto it = refresh_versions.begin(); it != refresh_versions.end();) {
    if (it->second < keep_from) {
      it = refresh_versions.erase(it);
    } else {
      ++it;
    }
  }
}

void DynamicTableMeta::RetainProfile(
    std::shared_ptr<const obs::RefreshProfile> p) {
  std::lock_guard<std::mutex> lock(profiles_mu);
  profiles.push_back(std::move(p));
  while (profiles.size() > obs::kProfileRingCapacity) profiles.pop_front();
}

std::vector<std::shared_ptr<const obs::RefreshProfile>>
DynamicTableMeta::ProfileSnapshot() const {
  std::lock_guard<std::mutex> lock(profiles_mu);
  return {profiles.begin(), profiles.end()};
}

void Catalog::Log(const std::string& op, const std::string& name, ObjectId id,
                  HlcTimestamp ts) {
  ddl_log_.push_back({ddl_log_.size() + 1, ts, op, name, id});
}

void Catalog::FireDdlHook(DdlOp op, const CatalogObject* obj,
                          const std::string& name, std::string detail,
                          HlcTimestamp ts) {
  if (!ddl_hook_) return;
  DdlHookInfo info;
  info.op = op;
  info.object = obj;
  info.name = name;
  info.detail = std::move(detail);
  info.ts = ts;
  ddl_hook_(info);
}

void Catalog::NotifyAlter(DdlOp op, const CatalogObject* obj,
                          HlcTimestamp ts) {
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    Log(op == DdlOp::kAlterSuspend ? "ALTER SUSPEND" : "ALTER RESUME",
        obj->name, obj->id, ts);
  }
  FireDdlHook(op, obj, obj->name, "", ts);
}

void Catalog::AlterTargetLag(CatalogObject* dt, TargetLag lag,
                             HlcTimestamp ts) {
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    dt->dt->def.target_lag = lag;
    ++graph_epoch_;
    Log("ALTER SET TARGET_LAG", dt->name, dt->id, ts);
  }
  FireDdlHook(DdlOp::kAlterTargetLag, dt, dt->name, lag.ToString(), ts);
}

void Catalog::AppendObjectLocked(std::unique_ptr<CatalogObject> obj) {
  graph_.emplace_back();
  objects_.push_back(std::move(obj));
  const CatalogObject& added = *objects_.back();
  if (added.dt != nullptr) RelinkLocked(added.id, added.dt->plan);
  ++graph_epoch_;
}

void Catalog::RelinkLocked(ObjectId dt, const PlanPtr& plan) {
  // Plans scan only objects that already exist (or the DUAL pseudo-table,
  // whose id is out of range).
  auto readers_of = [this](ObjectId src) -> std::vector<ObjectId>* {
    if (src == kInvalidObjectId || src > graph_.size()) return nullptr;
    return &graph_[src - 1].readers;
  };
  GraphEdges& edges = graph_[dt - 1];
  for (ObjectId src : edges.sources) {
    if (std::vector<ObjectId>* readers = readers_of(src)) {
      auto at = std::lower_bound(readers->begin(), readers->end(), dt);
      if (at != readers->end() && *at == dt) readers->erase(at);
    }
  }
  edges.sources = CollectScanIds(plan);
  for (ObjectId src : edges.sources) {
    if (std::vector<ObjectId>* readers = readers_of(src)) {
      readers->insert(std::lower_bound(readers->begin(), readers->end(), dt),
                      dt);
    }
  }
}

void Catalog::SetDtPlan(CatalogObject* dt, PlanPtr plan) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  dt->dt->plan = std::move(plan);
  RelinkLocked(dt->id, dt->dt->plan);
  ++graph_epoch_;
}

Status Catalog::RestoreObject(std::unique_ptr<CatalogObject> obj) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (obj->id != next_id_) {
    return Internal("catalog restore out of order: expected id " +
                    std::to_string(next_id_) + ", got " +
                    std::to_string(obj->id));
  }
  if (!obj->dropped) {
    std::string key = LowerName(obj->name);
    if (by_name_.count(key)) {
      return Corruption("catalog restore: duplicate live name '" + obj->name +
                        "'");
    }
    by_name_[key] = obj->id;
  }
  ++next_id_;
  AppendObjectLocked(std::move(obj));
  return OkStatus();
}

Result<ObjectId> Catalog::Register(std::unique_ptr<CatalogObject> obj,
                                   const std::string& op, HlcTimestamp ts) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  std::string key = LowerName(obj->name);
  if (by_name_.count(key)) {
    return AlreadyExists("object '" + obj->name + "' already exists");
  }
  obj->id = next_id_++;
  ObjectId id = obj->id;
  by_name_[key] = id;
  Log(op, obj->name, id, ts);
  AppendObjectLocked(std::move(obj));
  return id;
}

Result<ObjectId> Catalog::CreateBaseTable(const std::string& name,
                                          Schema schema, HlcTimestamp ts,
                                          Micros min_data_retention) {
  auto obj = std::make_unique<CatalogObject>();
  obj->name = name;
  obj->kind = ObjectKind::kBaseTable;
  obj->storage = std::make_unique<VersionedTable>(std::move(schema));
  obj->min_data_retention = min_data_retention;
  const CatalogObject* raw = obj.get();
  DVS_ASSIGN_OR_RETURN(ObjectId id, Register(std::move(obj), "CREATE TABLE", ts));
  FireDdlHook(DdlOp::kCreateTable, raw, name, "", ts);
  return id;
}

Result<ObjectId> Catalog::CreateView(const std::string& name, std::string sql,
                                     PlanPtr plan, HlcTimestamp ts) {
  auto obj = std::make_unique<CatalogObject>();
  obj->name = name;
  obj->kind = ObjectKind::kView;
  obj->view_sql = std::move(sql);
  obj->view_plan = std::move(plan);
  const CatalogObject* raw = obj.get();
  DVS_ASSIGN_OR_RETURN(ObjectId id, Register(std::move(obj), "CREATE VIEW", ts));
  FireDdlHook(DdlOp::kCreateView, raw, name, "", ts);
  return id;
}

Result<ObjectId> Catalog::CreateDynamicTable(
    const std::string& name, DynamicTableDef def, PlanPtr plan,
    Schema output_schema, bool incremental,
    std::vector<TrackedDependency> deps, HlcTimestamp ts) {
  auto obj = std::make_unique<CatalogObject>();
  obj->name = name;
  obj->kind = ObjectKind::kDynamicTable;
  obj->storage = std::make_unique<VersionedTable>(std::move(output_schema));
  obj->dt = std::make_unique<DynamicTableMeta>();
  obj->dt->def = std::move(def);
  obj->dt->plan = std::move(plan);
  obj->dt->incremental = incremental;
  obj->dt->dependencies = std::move(deps);
  obj->min_data_retention = obj->dt->def.min_data_retention;
  const CatalogObject* raw = obj.get();
  DVS_ASSIGN_OR_RETURN(ObjectId id,
                       Register(std::move(obj), "CREATE DYNAMIC TABLE", ts));
  FireDdlHook(DdlOp::kCreateDynamicTable, raw, name, "", ts);
  return id;
}

Status Catalog::DropObject(const std::string& name, HlcTimestamp ts) {
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    std::string key = LowerName(name);
    auto it = by_name_.find(key);
    if (it == by_name_.end()) {
      return NotFound("object '" + name + "' does not exist");
    }
    CatalogObject* obj = objects_[it->second - 1].get();
    obj->dropped = true;
    ++graph_epoch_;
    Log("DROP", name, obj->id, ts);
    by_name_.erase(it);
  }
  FireDdlHook(DdlOp::kDrop, nullptr, name, "", ts);
  return OkStatus();
}

Status Catalog::UndropObject(const std::string& name, HlcTimestamp ts) {
  CatalogObject* found = nullptr;
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    std::string key = LowerName(name);
    if (by_name_.count(key)) {
      return AlreadyExists("an object named '" + name + "' already exists");
    }
    // Most recently dropped object with this name.
    for (auto it = objects_.rbegin(); it != objects_.rend(); ++it) {
      if ((*it)->dropped && LowerName((*it)->name) == key) {
        found = it->get();
        break;
      }
    }
    if (found == nullptr) {
      return NotFound("no dropped object named '" + name + "'");
    }
    found->dropped = false;
    ++graph_epoch_;
    by_name_[key] = found->id;
    Log("UNDROP", name, found->id, ts);
  }
  FireDdlHook(DdlOp::kUndrop, found, name, "", ts);
  return OkStatus();
}

Result<ObjectId> Catalog::ReplaceBaseTable(const std::string& name,
                                           Schema schema, HlcTimestamp ts,
                                           Micros min_data_retention) {
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    std::string key = LowerName(name);
    auto it = by_name_.find(key);
    if (it != by_name_.end()) {
      CatalogObject* old = objects_[it->second - 1].get();
      if (old->kind != ObjectKind::kBaseTable) {
        return FailedPrecondition("'" + name + "' is not a base table");
      }
      old->dropped = true;
      ++graph_epoch_;
      by_name_.erase(it);
      Log("REPLACE (drop old)", name, old->id, ts);
    }
  }
  auto obj = std::make_unique<CatalogObject>();
  obj->name = name;
  obj->kind = ObjectKind::kBaseTable;
  obj->storage = std::make_unique<VersionedTable>(std::move(schema));
  obj->min_data_retention = min_data_retention;
  const CatalogObject* raw = obj.get();
  DVS_ASSIGN_OR_RETURN(
      ObjectId id, Register(std::move(obj), "CREATE OR REPLACE TABLE", ts));
  FireDdlHook(DdlOp::kReplaceTable, raw, name, "", ts);
  return id;
}

Result<ObjectId> Catalog::CloneObject(const std::string& new_name,
                                      const std::string& source_name,
                                      HlcTimestamp ts) {
  DVS_ASSIGN_OR_RETURN(const CatalogObject* src, Find(source_name));
  if (src->kind == ObjectKind::kView) {
    return FailedPrecondition("views cannot be cloned; recreate instead");
  }
  auto obj = std::make_unique<CatalogObject>();
  obj->name = new_name;
  obj->kind = src->kind;
  obj->storage = src->storage->Clone();
  if (src->kind == ObjectKind::kDynamicTable) {
    obj->dt = std::make_unique<DynamicTableMeta>(*src->dt);
    // A fresh clone starts with a clean slate of failures but keeps its
    // initialization state, frontier, and refresh-version history.
    obj->dt->consecutive_failures = 0;
    obj->dt->transient_failures = 0;
    obj->dt->state = DtState::kActive;
  }
  obj->min_data_retention = src->min_data_retention;
  const CatalogObject* raw = obj.get();
  DVS_ASSIGN_OR_RETURN(ObjectId id, Register(std::move(obj), "CLONE", ts));
  FireDdlHook(DdlOp::kClone, raw, new_name, source_name, ts);
  return id;
}

Result<CatalogObject*> Catalog::Find(const std::string& name) {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = by_name_.find(LowerName(name));
  if (it == by_name_.end()) {
    return NotFound("object '" + name + "' does not exist");
  }
  return objects_[it->second - 1].get();
}

Result<const CatalogObject*> Catalog::Find(const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = by_name_.find(LowerName(name));
  if (it == by_name_.end()) {
    return NotFound("object '" + name + "' does not exist");
  }
  return static_cast<const CatalogObject*>(objects_[it->second - 1].get());
}

Result<CatalogObject*> Catalog::FindById(ObjectId id) {
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (id == kInvalidObjectId || id > objects_.size()) {
    return NotFound("no object with id " + std::to_string(id));
  }
  CatalogObject* obj = objects_[id - 1].get();
  if (obj->dropped) {
    return NotFound("object '" + obj->name + "' (id " + std::to_string(id) +
                    ") has been dropped");
  }
  return obj;
}

Result<const CatalogObject*> Catalog::FindById(ObjectId id) const {
  Result<CatalogObject*> r = const_cast<Catalog*>(this)->FindById(id);
  if (!r.ok()) return r.status();
  return static_cast<const CatalogObject*>(r.value());
}

bool Catalog::Exists(const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return by_name_.count(LowerName(name)) > 0;
}

std::vector<CatalogObject*> Catalog::AllDynamicTables() {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<CatalogObject*> out;
  for (auto& obj : objects_) {
    if (!obj->dropped && obj->kind == ObjectKind::kDynamicTable) {
      out.push_back(obj.get());
    }
  }
  return out;
}

std::vector<ObjectId> Catalog::DownstreamDynamicTables(ObjectId id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<ObjectId> out;
  if (id == kInvalidObjectId || id > graph_.size()) return out;
  for (ObjectId reader : graph_[id - 1].readers) {
    if (!objects_[reader - 1]->dropped) out.push_back(reader);
  }
  return out;
}

void Catalog::UpstreamLocked(ObjectId dt_id, std::vector<ObjectId>* out) const {
  if (dt_id == kInvalidObjectId || dt_id > objects_.size()) return;
  for (ObjectId src : graph_[dt_id - 1].sources) {
    if (src == kInvalidObjectId || src > objects_.size()) continue;
    const CatalogObject* up = objects_[src - 1].get();
    if (up->kind == ObjectKind::kDynamicTable && !up->dropped) {
      out->push_back(src);
    }
  }
}

std::vector<ObjectId> Catalog::UpstreamDynamicTables(ObjectId dt_id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<ObjectId> out;
  UpstreamLocked(dt_id, &out);
  return out;
}

std::vector<ObjectId> Catalog::SourcesOf(ObjectId dt_id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (dt_id == kInvalidObjectId || dt_id > graph_.size()) return {};
  return graph_[dt_id - 1].sources;
}

bool Catalog::TopoVisitLocked(const std::vector<ObjectId>& roots,
                              std::vector<uint8_t>* state,
                              std::vector<ObjectId>* order) const {
  bool acyclic = true;
  std::function<void(ObjectId)> visit = [&](ObjectId id) {
    (*state)[id] = 1;
    std::vector<ObjectId> upstream;
    UpstreamLocked(id, &upstream);
    for (ObjectId up : upstream) {
      if ((*state)[up] == 1) acyclic = false;
      if ((*state)[up] == 0) visit(up);
    }
    (*state)[id] = 2;
    order->push_back(id);
  };
  for (ObjectId root : roots) {
    if ((*state)[root] == 0) visit(root);
  }
  return acyclic;
}

Result<std::vector<ObjectId>> Catalog::TopoOrder() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::lock_guard<std::mutex> cache_lock(topo_mu_);
  if (topo_epoch_ != graph_epoch_) {
    topo_epoch_ = graph_epoch_;
    ++graph_builds_;
    std::vector<ObjectId> roots;
    for (const auto& obj : objects_) {
      if (!obj->dropped && obj->kind == ObjectKind::kDynamicTable) {
        roots.push_back(obj->id);
      }
    }
    std::vector<uint8_t> state(objects_.size() + 1, 0);
    topo_order_.clear();
    topo_cyclic_ = !TopoVisitLocked(roots, &state, &topo_order_);
  }
  if (topo_cyclic_) {
    return FailedPrecondition("cycle detected in dynamic table graph");
  }
  return topo_order_;
}

Result<std::vector<ObjectId>> Catalog::UpstreamClosure(ObjectId dt_id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<ObjectId> roots;
  UpstreamLocked(dt_id, &roots);
  std::vector<uint8_t> state(objects_.size() + 1, 0);
  std::vector<ObjectId> order;
  if (!TopoVisitLocked(roots, &state, &order)) {
    return FailedPrecondition("cycle detected in dynamic table graph");
  }
  return order;
}

void Catalog::Grant(ObjectId object, const std::string& role, Privilege priv) {
  grants_[{object, LowerName(role)}].insert(priv);
}

void Catalog::Revoke(ObjectId object, const std::string& role,
                     Privilege priv) {
  auto it = grants_.find({object, LowerName(role)});
  if (it != grants_.end()) it->second.erase(priv);
}

bool Catalog::HasPrivilege(ObjectId object, const std::string& role,
                           Privilege priv) const {
  auto it = grants_.find({object, LowerName(role)});
  if (it == grants_.end()) return false;
  // OWNERSHIP implies everything.
  return it->second.count(priv) > 0 ||
         it->second.count(Privilege::kOwnership) > 0;
}

}  // namespace dvs
