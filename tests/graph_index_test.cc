// Tests for the catalog's dependency-graph index: the O(degree) edge reads,
// the per-epoch TopoOrder cache, the scheduler's per-epoch lag/period memo,
// and retention GC's one-pass consumer floors, each checked against the
// brute-force plan walks they replaced (kept below as the reference) over a
// seeded random DDL/DML/tick history. Also: a diamond-chain DAG deep enough
// that the unmemoized upstream recursion would never finish, and the
// catalog.graph_builds counter (zero builds in steady ticks, one per DDL).

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <random>
#include <set>

#include "obs/introspect.h"
#include "obs/metrics.h"
#include "persist/retention.h"
#include "sched/scheduler.h"

namespace dvs {
namespace {

// ---- Reference: the plan walks the index replaced ----

namespace ref {

const CatalogObject* Obj(const Catalog& c, ObjectId id) {
  if (id == kInvalidObjectId || id > c.object_count()) return nullptr;
  return c.ObjectAt(id - 1);
}

std::vector<ObjectId> Downstream(const Catalog& c, ObjectId id) {
  std::vector<ObjectId> out;
  for (size_t i = 0; i < c.object_count(); ++i) {
    const CatalogObject* obj = c.ObjectAt(i);
    if (obj->dropped || obj->kind != ObjectKind::kDynamicTable) continue;
    for (ObjectId scanned : CollectScanIds(obj->dt->plan)) {
      if (scanned == id) {
        out.push_back(obj->id);
        break;
      }
    }
  }
  return out;
}

std::vector<ObjectId> Upstream(const Catalog& c, ObjectId dt_id) {
  std::vector<ObjectId> out;
  const CatalogObject* obj = Obj(c, dt_id);
  if (obj == nullptr || obj->kind != ObjectKind::kDynamicTable) return out;
  for (ObjectId scanned : CollectScanIds(obj->dt->plan)) {
    const CatalogObject* up = Obj(c, scanned);
    if (up != nullptr && up->kind == ObjectKind::kDynamicTable &&
        !up->dropped) {
      out.push_back(scanned);
    }
  }
  return out;
}

std::vector<ObjectId> TopoOrder(const Catalog& c) {
  std::vector<ObjectId> order;
  std::set<ObjectId> visited;
  std::function<void(ObjectId)> dfs = [&](ObjectId id) {
    if (!visited.insert(id).second) return;
    for (ObjectId up : Upstream(c, id)) dfs(up);
    order.push_back(id);
  };
  for (size_t i = 0; i < c.object_count(); ++i) {
    const CatalogObject* obj = c.ObjectAt(i);
    if (!obj->dropped && obj->kind == ObjectKind::kDynamicTable) dfs(obj->id);
  }
  return order;
}

std::vector<ObjectId> UpstreamClosure(const Catalog& c, ObjectId dt_id) {
  std::vector<ObjectId> order;
  std::set<ObjectId> visited;
  std::function<void(ObjectId)> dfs = [&](ObjectId id) {
    if (!visited.insert(id).second) return;
    for (ObjectId up : Upstream(c, id)) dfs(up);
    order.push_back(id);
  };
  for (ObjectId up : Upstream(c, dt_id)) dfs(up);
  return order;
}

std::optional<Micros> EffectiveTargetLag(const Catalog& c, ObjectId dt_id) {
  const CatalogObject* obj = Obj(c, dt_id);
  if (obj == nullptr || obj->dropped ||
      obj->kind != ObjectKind::kDynamicTable) {
    return std::nullopt;
  }
  const TargetLag& lag = obj->dt->def.target_lag;
  if (!lag.downstream) return lag.duration;
  std::optional<Micros> best;
  for (ObjectId down : Downstream(c, dt_id)) {
    std::optional<Micros> d = EffectiveTargetLag(c, down);
    if (d.has_value() && (!best.has_value() || *d < *best)) best = d;
  }
  return best;
}

Micros RefreshPeriod(const Catalog& c, ObjectId dt_id) {
  std::optional<Micros> lag = EffectiveTargetLag(c, dt_id);
  if (!lag.has_value()) return 0;
  Micros p = LargestCanonicalPeriodAtMost(*lag / 2);
  for (ObjectId up : Upstream(c, dt_id)) p = std::max(p, RefreshPeriod(c, up));
  return p;
}

VersionId RetentionKeepFrom(const Catalog& c, const CatalogObject& obj,
                            Micros now) {
  if (obj.min_data_retention < 0 || obj.storage == nullptr || obj.dropped) {
    return kInvalidVersionId;
  }
  const VersionedTable& table = *obj.storage;
  VersionId keep_from = table.ResolveVersionAt(
      HlcTimestamp::AtWallTime(now - obj.min_data_retention));
  if (keep_from == kInvalidVersionId) return kInvalidVersionId;
  for (ObjectId down : Downstream(c, obj.id)) {
    const auto& frontier = Obj(c, down)->dt->frontier;
    auto it = frontier.find(obj.id);
    if (it != frontier.end()) keep_from = std::min(keep_from, it->second);
  }
  keep_from = std::min(keep_from, table.latest_version());
  if (keep_from <= table.first_version()) return kInvalidVersionId;
  return keep_from;
}

}  // namespace ref

// ---- Randomized equivalence ----

/// Drives a random DDL/DML/tick history and checks every graph read against
/// the reference after each step.
class GraphHistory {
 public:
  explicit GraphHistory(uint64_t seed)
      : rng_(seed), clock_(0), engine_(clock_), sched_(&engine_, &clock_) {}

  void Run(int steps) {
    for (int b = 0; b < 3; ++b) {
      Exec("CREATE TABLE b" + std::to_string(b) +
           " (k INT, v INT) MIN_DATA_RETENTION = '2 minutes'");
      Exec("INSERT INTO b" + std::to_string(b) + " VALUES (1, 1), (2, 2)");
    }
    for (int step = 0; step < steps; ++step) {
      std::string op = Step();
      SCOPED_TRACE("step " + std::to_string(step) + ": " + op);
      Check();
      if (::testing::Test::HasFailure()) return;
    }
  }

  int succeeded() const { return succeeded_; }
  int rebinds() const { return rebinds_; }

 private:
  int Pick(int n) { return std::uniform_int_distribution<int>(0, n - 1)(rng_); }

  bool Exec(const std::string& sql) {
    bool ok = engine_.Execute(sql).ok();
    succeeded_ += ok;
    return ok;
  }

  /// Live objects whose name starts with one of `prefixes`.
  std::vector<std::string> Live(const std::string& prefixes) {
    std::vector<std::string> out;
    const Catalog& c = engine_.catalog();
    for (size_t i = 0; i < c.object_count(); ++i) {
      const CatalogObject* obj = c.ObjectAt(i);
      if (!obj->dropped && obj->kind != ObjectKind::kView &&
          prefixes.find(obj->name[0]) != std::string::npos) {
        out.push_back(obj->name);
      }
    }
    return out;
  }

  std::string Lag() {
    static const char* kLags[] = {"'2 minutes'", "'5 minutes'", "'10 minutes'",
                                  "DOWNSTREAM"};
    return kLags[Pick(4)];
  }

  std::string Step() {
    std::vector<std::string> sources = Live("bcde");
    std::vector<std::string> dts = Live("cd");
    std::string sql;
    switch (Pick(10)) {
      case 0:
      case 1: {  // CREATE DYNAMIC TABLE over one or two sources
        if (sources.empty()) break;
        const std::string& a = sources[Pick(sources.size())];
        const std::string& b = sources[Pick(sources.size())];
        std::string query;
        switch (Pick(3)) {
          case 0: query = "SELECT k, v FROM " + a + " WHERE v > 0"; break;
          case 1:
            query = "SELECT k, v FROM " + a + " UNION ALL SELECT k, v FROM " +
                    b;
            break;
          default:
            query = "SELECT x.k AS k, y.v AS v FROM " + a + " x JOIN " + b +
                    " y ON x.k = y.k";
        }
        sql = "CREATE DYNAMIC TABLE d" + std::to_string(next_++) +
              " TARGET_LAG = " + Lag() + " WAREHOUSE = wh" +
              (Pick(2) ? " INITIALIZE = ON_SCHEDULE" : "") +
              (Pick(2) ? " MIN_DATA_RETENTION = '2 minutes'" : "") + " AS " +
              query;
        break;
      }
      case 2: {  // DROP
        std::vector<std::string> all = Live("bcde");
        if (!all.empty()) sql = "DROP TABLE " + all[Pick(all.size())];
        break;
      }
      case 3: {  // UNDROP the most recently dropped object of some name
        const Catalog& c = engine_.catalog();
        std::vector<std::string> dropped;
        for (size_t i = 0; i < c.object_count(); ++i) {
          if (c.ObjectAt(i)->dropped) dropped.push_back(c.ObjectAt(i)->name);
        }
        if (!dropped.empty()) {
          sql = "UNDROP TABLE " + dropped[Pick(dropped.size())];
        }
        break;
      }
      case 4:  // CREATE OR REPLACE an upstream base table: readers rebind
        sql = "CREATE OR REPLACE TABLE b" + std::to_string(Pick(3)) +
              " (k INT, v INT) MIN_DATA_RETENTION = '2 minutes'";
        break;
      case 5:  // CLONE
        if (!dts.empty() && Pick(2)) {
          sql = "CREATE DYNAMIC TABLE c" + std::to_string(next_++) +
                " CLONE " + dts[Pick(dts.size())];
        } else {
          sql = "CREATE TABLE e" + std::to_string(next_++) + " CLONE b" +
                std::to_string(Pick(3));
        }
        break;
      case 6:  // ALTER TARGET_LAG, DOWNSTREAM included
        if (!dts.empty()) {
          sql = "ALTER DYNAMIC TABLE " + dts[Pick(dts.size())] +
                " SET TARGET_LAG = " + Lag();
        }
        break;
      case 7:
        sql = "INSERT INTO b" + std::to_string(Pick(3)) + " VALUES (" +
              std::to_string(Pick(4)) + ", " + std::to_string(Pick(100)) + ")";
        break;
      default: {  // ticks: refreshes (and their §5.4 rebinds), retention GC
        uint64_t epoch = engine_.catalog().graph_epoch();
        sched_.RunUntil(clock_.Now() + (1 + Pick(4)) * kCanonicalBasePeriod);
        rebinds_ += engine_.catalog().graph_epoch() != epoch;
        return "tick to " + std::to_string(clock_.Now());
      }
    }
    if (!sql.empty()) Exec(sql);
    return sql;
  }

  void Check() {
    Catalog& c = engine_.catalog();
    const Micros now = clock_.Now();
    for (ObjectId id = 1; id <= c.object_count(); ++id) {
      EXPECT_EQ(c.DownstreamDynamicTables(id), ref::Downstream(c, id)) << id;
      EXPECT_EQ(c.UpstreamDynamicTables(id), ref::Upstream(c, id)) << id;
      const CatalogObject* obj = c.ObjectAt(id - 1);
      EXPECT_EQ(persist::RetentionKeepFrom(c, *obj, now),
                ref::RetentionKeepFrom(c, *obj, now))
          << obj->name;
      if (obj->kind != ObjectKind::kDynamicTable) continue;
      EXPECT_EQ(sched_.EffectiveTargetLag(id), ref::EffectiveTargetLag(c, id))
          << obj->name;
      EXPECT_EQ(sched_.RefreshPeriod(id), ref::RefreshPeriod(c, id))
          << obj->name;
      if (obj->dropped) continue;
      auto closure = c.UpstreamClosure(id);
      ASSERT_TRUE(closure.ok()) << closure.status().ToString();
      EXPECT_EQ(closure.value(), ref::UpstreamClosure(c, id)) << obj->name;
    }
    auto order = c.TopoOrder();
    ASSERT_TRUE(order.ok()) << order.status().ToString();
    EXPECT_EQ(order.value(), ref::TopoOrder(c));

    // One GC pass prunes every object to exactly the reference watermark.
    std::map<ObjectId, VersionId> expect_first;
    for (ObjectId id = 1; id <= c.object_count(); ++id) {
      const CatalogObject* obj = c.ObjectAt(id - 1);
      if (obj->storage == nullptr) continue;
      VersionId keep = ref::RetentionKeepFrom(c, *obj, now);
      expect_first[id] =
          keep == kInvalidVersionId ? obj->storage->first_version() : keep;
    }
    persist::RunRetentionGc(c, now, nullptr);
    for (const auto& [id, first] : expect_first) {
      EXPECT_EQ(c.ObjectAt(id - 1)->storage->first_version(), first)
          << c.ObjectAt(id - 1)->name;
    }
  }

  std::mt19937_64 rng_;
  VirtualClock clock_;
  DvsEngine engine_;
  Scheduler sched_;
  int next_ = 0;
  int succeeded_ = 0;
  int rebinds_ = 0;
};

TEST(GraphIndexTest, MatchesPlanWalksOverRandomHistories) {
  int rebinds = 0;
  for (uint64_t seed : {1, 2, 3, 4}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    GraphHistory history(seed);
    history.Run(150);
    ASSERT_FALSE(::testing::Test::HasFailure());
    EXPECT_GT(history.succeeded(), 60);
    rebinds += history.rebinds();
  }
  // Some tick rebound a reader of a replaced table mid-execute (§5.4).
  EXPECT_GT(rebinds, 0);
}

// ---- Diamond chain: exponential for an unmemoized upstream recursion ----

TEST(GraphIndexTest, DeepDiamondChainPlansWithExactPeriods) {
  constexpr int kLevels = 24;
  VirtualClock clock(0);
  DvsEngine engine(clock);
  Scheduler sched(&engine, &clock);
  auto exec = [&engine](const std::string& sql) {
    auto r = engine.Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
  };
  exec("CREATE TABLE t (k INT, v INT)");
  exec("INSERT INTO t VALUES (1, 10), (2, 20)");
  // m0 sets the slowest lag; every level below inherits its period (§5.2).
  exec("CREATE DYNAMIC TABLE m0 TARGET_LAG = '20 minutes' WAREHOUSE = wh "
       "INITIALIZE = ON_SCHEDULE AS SELECT k, v FROM t");
  for (int i = 1; i <= kLevels; ++i) {
    const std::string prev = "m" + std::to_string(i - 1);
    const std::string l = "l" + std::to_string(i);
    const std::string r = "r" + std::to_string(i);
    exec("CREATE DYNAMIC TABLE " + l +
         " TARGET_LAG = DOWNSTREAM WAREHOUSE = wh INITIALIZE = ON_SCHEDULE "
         "AS SELECT k, v FROM " + prev);
    exec("CREATE DYNAMIC TABLE " + r +
         " TARGET_LAG = '2 minutes' WAREHOUSE = wh INITIALIZE = ON_SCHEDULE "
         "AS SELECT k, v + 1 AS v FROM " + prev);
    exec("CREATE DYNAMIC TABLE m" + std::to_string(i) +
         " TARGET_LAG = '2 minutes' WAREHOUSE = wh INITIALIZE = ON_SCHEDULE "
         "AS SELECT x.k AS k, y.v AS v FROM " + l + " x JOIN " + r +
         " y ON x.k = y.k");
  }
  const Micros period = 384 * kMicrosPerSecond;  // 48·2^3 <= 20 min / 2
  auto id = [&engine](const std::string& name) {
    return engine.ObjectIdOf(name).value();
  };
  EXPECT_EQ(sched.EffectiveTargetLag(id("m0")), 20 * kMicrosPerMinute);
  for (int i = 1; i <= kLevels; ++i) {
    const std::string n = std::to_string(i);
    // l_i is DOWNSTREAM of m_i only.
    EXPECT_EQ(sched.EffectiveTargetLag(id("l" + n)), 2 * kMicrosPerMinute);
    for (const std::string& name : {"l" + n, "r" + n, "m" + n}) {
      EXPECT_EQ(sched.RefreshPeriod(id(name)), period) << name;
    }
  }

  sched.RunUntil(2 * period);
  const size_t dts = 1 + 3 * kLevels;
  ASSERT_EQ(sched.log().size(), 2 * dts);
  for (const RefreshRecord& rec : sched.log()) {
    EXPECT_FALSE(rec.failed || rec.skipped) << rec.dt_name << ": " << rec.error;
    EXPECT_EQ(rec.data_timestamp % period, 0) << rec.dt_name;
  }
  // The tick ran in topological order: m_i after both of its inputs.
  std::map<std::string, size_t> pos;
  for (size_t i = 0; i < dts; ++i) pos[sched.log()[i].dt_name] = i;
  for (int i = 1; i <= kLevels; ++i) {
    const std::string n = std::to_string(i);
    EXPECT_LT(pos["l" + n], pos["m" + n]);
    EXPECT_LT(pos["r" + n], pos["m" + n]);
  }
  auto rows = engine.Query("SELECT k, v FROM m" + std::to_string(kLevels));
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows.value().rows.size(), 2u);
}

// ---- Graph builds: zero in steady ticks, one per DDL ----

class GraphBuildsTest : public ::testing::TestWithParam<int> {};

int64_t GraphBuilds(obs::Registry& reg) {
  for (const obs::MetricSample& s : reg.Snapshot().samples) {
    if (s.name == "catalog.graph_builds") return s.value;
  }
  ADD_FAILURE() << "catalog.graph_builds not registered";
  return -1;
}

TEST_P(GraphBuildsTest, SteadyTicksBuildNothingAndOneDdlBuildsOnce) {
  VirtualClock clock(0);
  DvsEngine engine(clock);
  obs::Registry reg;
  obs::EngineMetrics metrics(&engine, &reg);
  SchedulerOptions opts;
  opts.worker_threads = GetParam();
  opts.retention_gc = true;
  Scheduler sched(&engine, &clock, opts);
  auto exec = [&engine](const std::string& sql) {
    auto r = engine.Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
  };
  exec("CREATE TABLE src (k INT, v INT) MIN_DATA_RETENTION = '2 minutes'");
  exec("INSERT INTO src VALUES (1, 1), (2, 2)");
  exec("CREATE DYNAMIC TABLE a TARGET_LAG = '2 minutes' WAREHOUSE = wh "
       "MIN_DATA_RETENTION = '2 minutes' AS SELECT k, v FROM src");
  exec("CREATE DYNAMIC TABLE b TARGET_LAG = DOWNSTREAM WAREHOUSE = wh "
       "AS SELECT k, SUM(v) AS v FROM a GROUP BY k");
  exec("CREATE DYNAMIC TABLE c TARGET_LAG = '4 minutes' WAREHOUSE = wh "
       "AS SELECT k, v FROM b WHERE v > 0");
  sched.RunUntil(kCanonicalBasePeriod);

  // Steady state: DML and ticks (each running retention GC) walk no plan.
  const int64_t settled = GraphBuilds(reg);
  for (int i = 0; i < 10; ++i) {
    exec("INSERT INTO src VALUES (" + std::to_string(i) + ", 5)");
    sched.RunUntil(clock.Now() + kCanonicalBasePeriod);
  }
  EXPECT_EQ(GraphBuilds(reg), settled);
  int64_t pruned = 0;
  for (const obs::MetricSample& s : reg.Snapshot().samples) {
    if (s.name == "storage.versions_pruned") pruned = s.value;
  }
  EXPECT_GT(pruned, 0);  // GC really ran

  // One DDL statement: exactly one rebuild, at the next tick.
  exec("ALTER DYNAMIC TABLE c SET TARGET_LAG = '2 minutes'");
  for (int i = 0; i < 3; ++i) {
    sched.RunUntil(clock.Now() + kCanonicalBasePeriod);
  }
  EXPECT_EQ(GraphBuilds(reg), settled + 1);
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, GraphBuildsTest,
                         ::testing::Values(0, 4));

}  // namespace
}  // namespace dvs
