// Catalog: named objects (base tables, views, dynamic tables), their
// storage, DT metadata, a linearizable DDL log (§5.1), dependency tracking
// for query evolution (§5.4), and role-based access control (§3.4).

#ifndef DVS_CATALOG_CATALOG_H_
#define DVS_CATALOG_CATALOG_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/hlc.h"
#include "common/ids.h"
#include "common/status.h"
#include "plan/logical_plan.h"
#include "storage/versioned_table.h"

namespace dvs {

namespace obs {
struct RefreshProfile;  // obs/profile.h
}  // namespace obs

enum class ObjectKind { kBaseTable, kView, kDynamicTable };

const char* ObjectKindName(ObjectKind k);

/// User-requested refresh mode (§3.3.2). kAuto lets the system pick
/// INCREMENTAL when the defining query is differentiable, FULL otherwise.
enum class RefreshMode { kAuto, kFull, kIncremental };

enum class DtState { kActive, kSuspended };

/// TARGET_LAG: a duration or DOWNSTREAM (§3.2).
struct TargetLag {
  bool downstream = false;
  Micros duration = 0;

  static TargetLag Downstream() { return {true, 0}; }
  static TargetLag Of(Micros d) { return {false, d}; }
  std::string ToString() const;
};

/// A dependency recorded when a DT is created, used by query evolution to
/// detect upstream DDL (§5.4): replaced objects (id changed under the same
/// name) or schema changes force REINITIALIZE; missing objects fail the
/// refresh.
struct TrackedDependency {
  std::string name;
  ObjectId object_id = kInvalidObjectId;
  Schema schema_at_bind;
};

/// Definition of a dynamic table. Immutable except `target_lag` (ALTER
/// DYNAMIC TABLE ... SET TARGET_LAG) and the retention window.
struct DynamicTableDef {
  std::string sql;  ///< Defining SELECT text.
  TargetLag target_lag;
  std::string warehouse;
  RefreshMode requested_mode = RefreshMode::kAuto;
  /// If true, CREATE initializes synchronously (§3.1); otherwise the first
  /// scheduled refresh initializes.
  bool initialize_on_create = true;
  /// MIN_DATA_RETENTION window for retention GC: table versions older than
  /// this (and unreachable by any downstream incremental refresh) are pruned.
  /// Negative = retain everything (the pre-durability behavior).
  Micros min_data_retention = -1;
};

/// Mutable runtime state of a dynamic table.
struct DynamicTableMeta {
  DynamicTableDef def;
  PlanPtr plan;              ///< Bound defining plan.
  bool incremental = false;  ///< Effective mode after incrementality analysis.
  DtState state = DtState::kActive;
  int consecutive_failures = 0;
  /// Consecutive *transient* (retryable) failures — tracked separately from
  /// consecutive_failures because they never count toward auto-suspend
  /// (§3.3.3 covers user errors; a warehouse outage is not the user's fault).
  /// Reset to 0 alongside consecutive_failures on any successful refresh.
  int transient_failures = 0;
  bool initialized = false;
  /// Data timestamp of the last committed refresh (§3.1.1); -1 before
  /// initialization.
  Micros data_timestamp = -1;
  /// Refresh-timestamp -> own table version: the mapping of §5.3 that lets
  /// downstream DTs resolve this DT "as of refresh timestamp t" exactly.
  std::map<Micros, VersionId> refresh_versions;
  /// Frontier (§5.3): source object id -> version consumed by the last
  /// refresh.
  std::unordered_map<ObjectId, VersionId> frontier;
  std::vector<TrackedDependency> dependencies;
  /// Set when upstream DDL invalidated stored contents; next refresh must
  /// REINITIALIZE (§5.4).
  bool needs_reinit = false;

  DynamicTableMeta() = default;
  /// Copy (CloneObject) duplicates the metadata but gives the clone a fresh
  /// mutex — required because std::shared_mutex deletes the implicit copy.
  DynamicTableMeta(const DynamicTableMeta& o)
      : def(o.def),
        plan(o.plan),
        incremental(o.incremental),
        state(o.state),
        consecutive_failures(o.consecutive_failures),
        transient_failures(o.transient_failures),
        initialized(o.initialized),
        data_timestamp(o.data_timestamp),
        refresh_versions(o.refresh_versions),
        frontier(o.frontier),
        dependencies(o.dependencies),
        needs_reinit(o.needs_reinit) {
    std::lock_guard<std::mutex> lock(o.profiles_mu);
    profiles = o.profiles;  // shared: published profiles are immutable
  }
  DynamicTableMeta& operator=(const DynamicTableMeta&) = delete;

  /// Looks up this DT's own version for a given refresh timestamp. Exact
  /// match required — production validation 1 of §6.1.
  std::optional<VersionId> VersionForRefresh(Micros refresh_ts) const;
  /// Latest refresh timestamp <= t, if any.
  std::optional<Micros> LatestRefreshAtOrBefore(Micros t) const;

  // ---- Serve read path (serve/query_service.h) ----
  //
  // The two lookups above are barrier-ordered against the owning refresh
  // (downstream refreshes resolve an upstream DT only after its refresh
  // finished) and stay lock-free. Serve readers have no such ordering, so
  // refresh publication goes through PublishRefresh (exclusive) and serve
  // resolution through ResolveRead (shared). The owning refresh may still
  // read refresh_versions without the lock — it is the only writer.

  /// §5 read-resolution rule for unordered readers: the latest committed
  /// refresh at or before `t`, as (refresh timestamp, own table version).
  /// nullopt if no refresh had committed by `t`.
  std::optional<std::pair<Micros, VersionId>> ResolveRead(Micros t) const;

  /// Publishes a committed refresh (refresh_ts -> vid) atomically w.r.t.
  /// ResolveRead. Called from the refresh commit sites only.
  void PublishRefresh(Micros refresh_ts, VersionId vid);

  /// Retention GC: drops refresh_versions entries whose version was pruned
  /// (version < keep_from), atomically w.r.t. ResolveRead.
  void TrimRefreshVersionsBelow(VersionId keep_from);

  /// Guards refresh_versions against serve-side ResolveRead. Exposed so the
  /// serve tests can assert the contract; everything else uses the methods.
  mutable std::shared_mutex reads_mu;

  // ---- Refresh profiles (obs/profile.h) ----
  //
  // While profiling is armed, every refresh attempt — success or failure —
  // publishes its operator-level profile here. Bounded ring: the last
  // obs::kProfileRingCapacity attempts, oldest evicted first. Published
  // profiles are immutable, so REFRESH_PROFILE() scrapes running on query
  // threads only need the ring mutex, never the profile contents.

  /// Appends `p` to the ring, evicting the oldest past capacity.
  void RetainProfile(std::shared_ptr<const obs::RefreshProfile> p);

  /// Snapshot of retained profiles, oldest first.
  std::vector<std::shared_ptr<const obs::RefreshProfile>> ProfileSnapshot()
      const;

  /// Guards `profiles` (refresh workers publish, query threads scrape).
  mutable std::mutex profiles_mu;
  std::deque<std::shared_ptr<const obs::RefreshProfile>> profiles;
};

struct CatalogObject {
  ObjectId id = kInvalidObjectId;
  std::string name;
  ObjectKind kind = ObjectKind::kBaseTable;
  std::unique_ptr<VersionedTable> storage;  ///< Base tables and DTs.
  // Views:
  std::string view_sql;
  PlanPtr view_plan;
  // Dynamic tables:
  std::unique_ptr<DynamicTableMeta> dt;
  bool dropped = false;
  /// Retention-GC window for this object's storage (see
  /// DynamicTableDef::min_data_retention; mirrored there for DTs so the
  /// definition serializes whole). Negative = retain everything.
  Micros min_data_retention = -1;
};

enum class Privilege { kSelect, kOwnership, kMonitor, kOperate };

const char* PrivilegeName(Privilege p);

/// One entry of the timestamped, linearizable DDL log the scheduler
/// consumes (§5.1).
struct DdlEvent {
  uint64_t seq = 0;
  HlcTimestamp ts;
  std::string op;  ///< "CREATE TABLE", "DROP", "UNDROP", "REPLACE", ...
  std::string object_name;
  ObjectId object_id = kInvalidObjectId;
};

/// Catalog operations surfaced to the durability hook, one per *logical*
/// DDL statement (REPLACE is one op even though the DDL log records two
/// events). The persist WAL replays these structurally at recovery.
enum class DdlOp : uint8_t {
  kCreateTable = 0,
  kCreateView = 1,
  kCreateDynamicTable = 2,
  kDrop = 3,
  kUndrop = 4,
  kReplaceTable = 5,
  kClone = 6,
  kAlterTargetLag = 7,
  kAlterSuspend = 8,
  kAlterResume = 9,
};

/// Payload handed to the DDL hook. `object` points at the affected catalog
/// entry (nullptr for DROP — the entry is looked up by name at replay);
/// `detail` carries op-specific extra state (clone source name, serialized
/// target lag).
struct DdlHookInfo {
  DdlOp op = DdlOp::kCreateTable;
  const CatalogObject* object = nullptr;
  std::string name;
  std::string detail;
  HlcTimestamp ts;
};

/// Thread-safety: DDL is single-threaded (never during a scheduler tick or
/// under serve load mid-flight DDL), but *lookups* run concurrently from
/// refresh workers and serve reader threads. The name→id map, the object
/// vector, and the dependency-graph index are therefore guarded by a
/// shared_mutex — shared in Find/FindById/Exists/AllDynamicTables and the
/// graph reads, exclusive in every DDL mutation — matching the
/// FunctionRegistry pattern. Object *contents* have their own per-layer
/// contracts (VersionedTable, DynamicTableMeta above).
///
/// Dependency graph (§3.2, §5.2). The catalog indexes, for every DT, the
/// objects its plan scans (CollectScanIds of the plan) and, for every
/// object, the DTs whose plans scan it. Every change to an edge, to an
/// object's dropped flag, or to a target lag goes through a mutator that
/// holds mu_ exclusively and bumps graph_epoch(): Register (CREATE, REPLACE,
/// CLONE), RestoreObject, Drop/Undrop, AlterTargetLag, and SetDtPlan (the
/// §5.4 refresh-time rebind, which runs during a tick's parallel execute
/// phase). Structures derived from the graph — TopoOrder() here, the
/// scheduler's effective-lag and period memo — are cached per epoch.
class Catalog {
 public:
  Catalog() = default;
  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  // ---- DDL ----

  Result<ObjectId> CreateBaseTable(const std::string& name, Schema schema,
                                   HlcTimestamp ts,
                                   Micros min_data_retention = -1);
  Result<ObjectId> CreateView(const std::string& name, std::string sql,
                              PlanPtr plan, HlcTimestamp ts);
  /// `incremental` is the effective mode decided by incrementality analysis.
  Result<ObjectId> CreateDynamicTable(const std::string& name,
                                      DynamicTableDef def, PlanPtr plan,
                                      Schema output_schema, bool incremental,
                                      std::vector<TrackedDependency> deps,
                                      HlcTimestamp ts);

  /// Drops by name. Downstream DT refreshes will fail until UNDROP
  /// (upstream-takes-precedence principle, §3.4).
  Status DropObject(const std::string& name, HlcTimestamp ts);

  /// Restores the most recently dropped object with this name; downstream
  /// DTs resume without intervention (§3.4).
  Status UndropObject(const std::string& name, HlcTimestamp ts);

  /// CREATE OR REPLACE TABLE: a *new object id* appears under the same name;
  /// DTs downstream detect the replacement and REINITIALIZE (§3.3.2, §5.4).
  Result<ObjectId> ReplaceBaseTable(const std::string& name, Schema schema,
                                    HlcTimestamp ts,
                                    Micros min_data_retention = -1);

  /// Zero-copy clone (§3.4): `new_name` becomes an independent object whose
  /// storage shares the source's immutable micro-partitions. Cloning a DT
  /// copies its definition, frontier, and refresh history too, so the clone
  /// "avoids reinitialization" — it keeps reading its original upstream
  /// sources and refreshes from where the source left off.
  Result<ObjectId> CloneObject(const std::string& new_name,
                               const std::string& source_name, HlcTimestamp ts);

  // ---- Lookup ----

  Result<CatalogObject*> Find(const std::string& name);
  Result<const CatalogObject*> Find(const std::string& name) const;
  Result<CatalogObject*> FindById(ObjectId id);
  Result<const CatalogObject*> FindById(ObjectId id) const;
  bool Exists(const std::string& name) const;

  /// All non-dropped dynamic tables, in creation order.
  std::vector<CatalogObject*> AllDynamicTables();

  /// Raw object access including dropped objects, in id order (persist/
  /// snapshot capture; UNDROP means dropped objects are persistent state).
  /// Guarded like every other lookup: objects_ only ever grows and object
  /// pointers are stable, but the vector itself may reallocate under a
  /// concurrent CREATE, so unlocked size()/operator[] was a footgun once
  /// metrics scrapes started walking the catalog from arbitrary threads.
  size_t object_count() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return objects_.size();
  }
  const CatalogObject* ObjectAt(size_t index) const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return objects_[index].get();
  }
  CatalogObject* MutableObjectAt(size_t index) {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return objects_[index].get();
  }

  // ---- Dependency graph (see the class comment) ----

  /// Object ids of non-dropped DTs that directly read `id`, ascending.
  /// O(in-degree).
  std::vector<ObjectId> DownstreamDynamicTables(ObjectId id) const;

  /// Direct upstream dependencies of a DT that are themselves non-dropped
  /// DTs, ascending. O(out-degree).
  std::vector<ObjectId> UpstreamDynamicTables(ObjectId dt_id) const;

  /// Every object id a DT's plan scans (dropped or not), ascending.
  std::vector<ObjectId> SourcesOf(ObjectId dt_id) const;

  /// Every non-dropped DT, upstream first: a depth-first walk over the DTs
  /// in id order that emits each DT after its upstream DTs (ascending id).
  /// Cached per graph epoch. FailedPrecondition if the DT graph has a cycle.
  Result<std::vector<ObjectId>> TopoOrder() const;

  /// The DTs `dt_id` transitively reads, excluding itself, upstream first:
  /// the same walk rooted at its upstream DTs. O(closure), uncached — DDL
  /// calls it per created DT. FailedPrecondition on a cycle.
  Result<std::vector<ObjectId>> UpstreamClosure(ObjectId dt_id) const;

  /// Bumped by every graph mutation; derived structures compare it to decide
  /// whether their cache is stale.
  uint64_t graph_epoch() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return graph_epoch_;
  }

  /// How many times TopoOrder() rebuilt its cache (one per epoch that was
  /// read). A steady pipeline with no DDL builds the graph zero times.
  uint64_t graph_builds() const {
    std::lock_guard<std::mutex> lock(topo_mu_);
    return graph_builds_;
  }

  /// §5.4 query evolution: installs a rebound plan for a DT and re-derives
  /// its edges. Safe during the execute phase: it touches only this DT's
  /// plan and the index, under mu_.
  void SetDtPlan(CatalogObject* dt, PlanPtr plan);

  // ---- RBAC ----

  void Grant(ObjectId object, const std::string& role, Privilege priv);
  void Revoke(ObjectId object, const std::string& role, Privilege priv);
  bool HasPrivilege(ObjectId object, const std::string& role,
                    Privilege priv) const;

  // ---- DDL log ----

  const std::vector<DdlEvent>& ddl_log() const { return ddl_log_; }

  // ---- Durability (persist/) ----

  /// Installed by persist::Manager::Attach; invoked once per logical DDL
  /// operation after it committed, so the WAL can journal it. Catalog DDL is
  /// single-threaded (no DDL during a scheduler tick), so the hook needs no
  /// internal ordering.
  using DdlHook = std::function<void(const DdlHookInfo&)>;
  void set_ddl_hook(DdlHook hook) { ddl_hook_ = std::move(hook); }

  /// Journals an ALTER DYNAMIC TABLE SUSPEND / RESUME into the DDL log and
  /// the durability hook. The engine mutates the DT state itself; this
  /// records that it happened.
  void NotifyAlter(DdlOp op, const CatalogObject* obj, HlcTimestamp ts);

  /// ALTER DYNAMIC TABLE ... SET TARGET_LAG: sets the lag (a graph
  /// mutation — DOWNSTREAM lags and refresh periods derive from it), then
  /// journals it like NotifyAlter.
  void AlterTargetLag(CatalogObject* dt, TargetLag lag, HlcTimestamp ts);

  /// Recovery: appends `obj` as the next object id — must be called in id
  /// order with ids dense from 1 — and registers its name when not dropped.
  /// Does not touch the DDL log (restored separately) or fire the hook.
  Status RestoreObject(std::unique_ptr<CatalogObject> obj);
  void RestoreDdlLog(std::vector<DdlEvent> log) { ddl_log_ = std::move(log); }

  const std::map<std::pair<ObjectId, std::string>, std::set<Privilege>>&
  grants() const {
    return grants_;
  }

 private:
  Result<ObjectId> Register(std::unique_ptr<CatalogObject> obj,
                            const std::string& op, HlcTimestamp ts);
  void Log(const std::string& op, const std::string& name, ObjectId id,
           HlcTimestamp ts);
  void FireDdlHook(DdlOp op, const CatalogObject* obj, const std::string& name,
                   std::string detail, HlcTimestamp ts);

  // Graph helpers; callers hold mu_ (exclusively for the mutating ones).
  void AppendObjectLocked(std::unique_ptr<CatalogObject> obj);
  /// Replaces a DT's edges with those of `plan`.
  void RelinkLocked(ObjectId dt, const PlanPtr& plan);
  void UpstreamLocked(ObjectId dt_id, std::vector<ObjectId>* out) const;
  /// Post-order DFS from `roots` over live upstream DTs, appending to
  /// `order`; `state` is indexed by id (1 = on the path, 2 = emitted).
  /// Returns false if it met a cycle.
  bool TopoVisitLocked(const std::vector<ObjectId>& roots,
                       std::vector<uint8_t>* state,
                       std::vector<ObjectId>* order) const;

  /// One DT plan's edges, indexed by object id - 1 like objects_.
  struct GraphEdges {
    std::vector<ObjectId> sources;  ///< CollectScanIds of the DT's plan.
    std::vector<ObjectId> readers;  ///< DTs whose plan scans this object.
  };

  /// Guards objects_ / by_name_ / ddl_log_ / graph_ per the class contract.
  mutable std::shared_mutex mu_;
  std::vector<std::unique_ptr<CatalogObject>> objects_;  // by id-1
  std::unordered_map<std::string, ObjectId> by_name_;    // live objects
  std::vector<GraphEdges> graph_;                        // by id-1
  uint64_t graph_epoch_ = 0;
  std::vector<DdlEvent> ddl_log_;

  /// TopoOrder cache. Lock order: mu_ (shared) before topo_mu_.
  mutable std::mutex topo_mu_;
  mutable uint64_t topo_epoch_ = ~uint64_t{0};
  mutable std::vector<ObjectId> topo_order_;
  mutable bool topo_cyclic_ = false;
  mutable uint64_t graph_builds_ = 0;
  std::map<std::pair<ObjectId, std::string>, std::set<Privilege>> grants_;
  ObjectId next_id_ = 1;
  DdlHook ddl_hook_;
};

}  // namespace dvs

#endif  // DVS_CATALOG_CATALOG_H_
