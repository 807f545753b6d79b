// Tests for src/obs/profile.h: ProfileSink mechanics (plan declaration,
// derived rows_in, rendering), per-refresh profile retention (ring bound,
// success and failure outcomes, disarmed = no allocation), EXPLAIN /
// EXPLAIN ANALYZE through the SQL surface, checked against the row-at-a-time
// reference interpreter (reference_exec.h),
// the REFRESH_PROFILE table function (args, limits, definition rejection),
// worker-count invariance of every deterministic profile counter, and
// concurrent scrapes against a running multi-worker scheduler (TSan target).

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "dt/engine.h"
#include "obs/introspect.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "plan/logical_plan.h"
#include "reference_exec.h"
#include "sched/scheduler.h"
#include "sql/parser.h"

namespace dvs {
namespace {

std::string RenderResult(const QueryResult& qr) {
  std::string out = qr.schema.ToString() + "\n";
  for (const Row& row : qr.rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i) out += "|";
      out += row[i].ToString();
    }
    out += "\n";
  }
  return out;
}

// ---- ProfileSink mechanics ----

PlanPtr SmallPlan() {
  Schema s;
  s.AddColumn("k", DataType::kInt64);
  s.AddColumn("v", DataType::kInt64);
  PlanPtr scan = MakeScan(7, "t", s);
  PlanPtr filter =
      MakeFilter(scan, Binary(BinaryOp::kGt, ColRef(1), LitInt(0)));
  PlanPtr project = MakeProject(filter, {ColRef(0)}, {"k"});
  return CanonicalizePlanTags(project);
}

TEST(ProfileSinkTest, DeclarePlanRecordsPreOrder) {
  PlanPtr plan = SmallPlan();
  obs::ProfileSink sink;
  sink.DeclarePlan(*plan);
  const auto& ops = sink.operators();
  ASSERT_EQ(ops.size(), 3u);
  EXPECT_EQ(ops[0].label, "Project");
  EXPECT_EQ(ops[1].label, "Filter");
  EXPECT_EQ(ops[2].label, "Scan t");
  EXPECT_EQ(ops[0].depth, 0);
  EXPECT_EQ(ops[1].depth, 1);
  EXPECT_EQ(ops[2].depth, 2);
  EXPECT_EQ(ops[1].parent, 0);
  EXPECT_EQ(ops[2].parent, 1);
  // Declaring again is idempotent.
  sink.DeclarePlan(*plan);
  EXPECT_EQ(sink.operators().size(), 3u);
}

TEST(ProfileSinkTest, RowsInDerivesFromChildren) {
  PlanPtr plan = SmallPlan();
  obs::ProfileSink sink;
  sink.DeclarePlan(*plan);
  const auto& ops = sink.operators();
  sink.Node(ops[2].tag)->rows_out = 10;  // scan emits 10
  sink.Node(ops[1].tag)->rows_out = 4;   // filter keeps 4
  sink.Node(ops[0].tag)->rows_out = 4;
  EXPECT_EQ(sink.RowsInOf(0), 4u);  // project reads filter's output
  EXPECT_EQ(sink.RowsInOf(1), 10u);
  EXPECT_EQ(sink.RowsInOf(2), 0u);  // leaves have no children
}

TEST(ProfileSinkTest, RenderDeterministicListsCounters) {
  PlanPtr plan = SmallPlan();
  obs::ProfileSink sink;
  sink.DeclarePlan(*plan);
  const uint64_t tag = sink.operators()[1].tag;
  sink.Node(tag)->rows_out = 8;
  sink.Node(tag)->batches = 2;

  std::string text = sink.RenderDeterministic();
  EXPECT_NE(text.find("Filter"), std::string::npos) << text;
  EXPECT_NE(text.find("rows_out=8"), std::string::npos) << text;
  EXPECT_NE(text.find("batches=2"), std::string::npos) << text;
  // Deterministic render never contains wall time.
  EXPECT_EQ(text.find("wall_ms"), std::string::npos) << text;
}

TEST(ProfileArmingTest, ScopedInstallAndRestore) {
  EXPECT_FALSE(obs::ProfilingArmed());
  {
    obs::ScopedProfiling armed(true);
    EXPECT_TRUE(obs::ProfilingArmed());
    {
      obs::ScopedProfiling disarmed(false);
      EXPECT_FALSE(obs::ProfilingArmed());
    }
    EXPECT_TRUE(obs::ProfilingArmed());
  }
  EXPECT_FALSE(obs::ProfilingArmed());
}

// ---- Refresh profile retention ----

class ProfileEngineTest : public ::testing::Test {
 protected:
  ProfileEngineTest()
      : clock_(0), engine_(clock_), sched_(&engine_, &clock_) {}

  void Exec(const std::string& sql) {
    auto r = engine_.Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
  }

  const DynamicTableMeta& Meta(const std::string& name) {
    auto obj = engine_.catalog().Find(name);
    EXPECT_TRUE(obj.ok());
    return *obj.value()->dt;
  }

  VirtualClock clock_;
  DvsEngine engine_;
  Scheduler sched_;
};

TEST_F(ProfileEngineTest, ArmedRefreshRetainsProfiles) {
  obs::ScopedProfiling armed(true);
  Exec("CREATE TABLE t (k INT, v INT)");
  Exec("CREATE DYNAMIC TABLE dt1 TARGET_LAG = '48 seconds' "
       "WAREHOUSE = wh AS SELECT k, v FROM t WHERE v > 0");
  Exec("INSERT INTO t VALUES (1, 10), (2, -5), (3, 30)");
  sched_.RunUntil(2 * kCanonicalBasePeriod);

  auto profiles = Meta("dt1").ProfileSnapshot();
  // INITIALIZE at create time plus at least one scheduled refresh.
  ASSERT_GE(profiles.size(), 2u);
  const obs::RefreshProfile& p = *profiles.front();
  EXPECT_EQ(p.dt_name, "dt1");
  EXPECT_EQ(p.outcome, "SUCCESS");
  EXPECT_FALSE(p.sink.operators().empty());
  // The INITIALIZE ran before the INSERT, but the later incremental refresh
  // saw real rows: across the ring, some operator emitted something.
  uint64_t total_rows = 0;
  for (const auto& prof : profiles) {
    for (const auto& op : prof->sink.operators()) {
      if (const obs::OpStats* s = prof->sink.Find(op.tag)) {
        total_rows += s->rows_out;
      }
    }
  }
  EXPECT_GT(total_rows, 0u);
}

TEST_F(ProfileEngineTest, DisarmedRefreshRetainsNothing) {
  ASSERT_FALSE(obs::ProfilingArmed());
  Exec("CREATE TABLE t (k INT, v INT)");
  Exec("CREATE DYNAMIC TABLE dt1 TARGET_LAG = '48 seconds' "
       "WAREHOUSE = wh AS SELECT k, v FROM t");
  Exec("INSERT INTO t VALUES (1, 10)");
  sched_.RunUntil(2 * kCanonicalBasePeriod);
  EXPECT_TRUE(Meta("dt1").ProfileSnapshot().empty());
}

TEST_F(ProfileEngineTest, RingIsBounded) {
  obs::ScopedProfiling armed(true);
  Exec("CREATE TABLE t (k INT, v INT)");
  Exec("CREATE DYNAMIC TABLE dt1 TARGET_LAG = '48 seconds' "
       "WAREHOUSE = wh AS SELECT k, v FROM t");
  for (int i = 0; i < 2 * static_cast<int>(obs::kProfileRingCapacity); ++i) {
    Exec("INSERT INTO t VALUES (" + std::to_string(i) + ", 1)");
    sched_.RunUntil(clock_.Now() + kCanonicalBasePeriod);
  }
  auto profiles = Meta("dt1").ProfileSnapshot();
  EXPECT_EQ(profiles.size(), obs::kProfileRingCapacity);
  // Newest retained: the last profile is an INCREMENTAL refresh, not the
  // long-evicted INITIALIZE.
  EXPECT_NE(profiles.back()->action, "INITIALIZE");
}

TEST_F(ProfileEngineTest, FailedRefreshRetainsFailureProfile) {
  obs::ScopedProfiling armed(true);
  Exec("CREATE TABLE t (k INT, v INT)");
  Exec("CREATE DYNAMIC TABLE dt1 TARGET_LAG = '48 seconds' "
       "WAREHOUSE = wh AS SELECT k, v FROM t");
  size_t before = Meta("dt1").ProfileSnapshot().size();
  Exec("DROP TABLE t");
  clock_.AdvanceTo(clock_.Now() + kCanonicalBasePeriod);
  auto id = engine_.ObjectIdOf("dt1");
  ASSERT_TRUE(id.ok());
  auto r = engine_.refresh_engine().Refresh(id.value(), clock_.Now());
  ASSERT_FALSE(r.ok());
  auto profiles = Meta("dt1").ProfileSnapshot();
  ASSERT_EQ(profiles.size(), before + 1);
  EXPECT_EQ(profiles.back()->outcome, "FAILURE");
}

// ---- EXPLAIN / EXPLAIN ANALYZE ----

class ExplainTest : public ::testing::Test {
 protected:
  ExplainTest() : clock_(0), engine_(clock_) {
    auto exec = [this](const std::string& sql) {
      auto r = engine_.Execute(sql);
      ASSERT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    };
    exec("CREATE TABLE t (k INT, v INT)");
    exec("INSERT INTO t VALUES (1, 10), (2, -5), (3, 30)");
  }

  /// Concatenates the single-column EXPLAIN output, with the trailing
  /// wall_ms token stripped from each line (report-only, nondeterministic).
  std::string ExplainLines(const std::string& sql) {
    auto r = engine_.Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    std::string out;
    if (!r.ok()) return out;
    EXPECT_EQ(r.value().schema.ToString(), "(plan STRING)");
    for (const Row& row : r.value().rows) {
      std::string line = row[0].string_value();
      size_t wall = line.find("  wall_ms=");
      if (wall != std::string::npos) line.resize(wall);
      out += line + "\n";
    }
    return out;
  }

  VirtualClock clock_;
  DvsEngine engine_;
};

TEST_F(ExplainTest, ExplainRendersBoundPlan) {
  std::string text = ExplainLines("EXPLAIN SELECT k FROM t WHERE v > 0");
  EXPECT_NE(text.find("Project"), std::string::npos) << text;
  EXPECT_NE(text.find("Filter"), std::string::npos) << text;
  EXPECT_NE(text.find("Scan t"), std::string::npos) << text;
  // Plain EXPLAIN never executes: no counters.
  EXPECT_EQ(text.find("rows_out"), std::string::npos) << text;
}

TEST_F(ExplainTest, ExplainAnalyzeAnnotatesCounters) {
  std::string text =
      ExplainLines("EXPLAIN ANALYZE SELECT k FROM t WHERE v > 0");
  // 3 rows scanned, 2 survive the filter.
  EXPECT_NE(text.find("rows_out=2"), std::string::npos) << text;
  EXPECT_NE(text.find("rows_out=3"), std::string::npos) << text;
  EXPECT_NE(text.find("rows_in=3"), std::string::npos) << text;
  EXPECT_NE(text.find("batches=1"), std::string::npos) << text;
}

TEST_F(ExplainTest, EngineAgreesWithReferenceOnDeterministicCounters) {
  const std::string select = "SELECT k, v * 2 AS v2 FROM t WHERE v > 0 "
                             "ORDER BY k";
  std::string batch = ExplainLines("EXPLAIN ANALYZE " + select);
  // The same plan through the reference interpreter, rendered the way
  // EXPLAIN ANALYZE renders it (wall time left out).
  auto parsed = sql::ParseSelect(select);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  sql::Binder binder(engine_.catalog());
  auto bound = binder.BindSelect(*parsed.value());
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  obs::ProfileSink sink;
  sink.DeclarePlan(*bound.value().plan);
  ExecContext ctx;
  ctx.resolve_scan = engine_.refresh_engine().MakeResolver(
      clock_.Now(), /*exact_dt=*/false);
  ctx.eval.current_time = clock_.Now();
  ctx.profile = &sink;
  ASSERT_TRUE(reference::Execute(*bound.value().plan, ctx).ok());
  std::string row;
  for (const std::string& line : obs::RenderAnalyzedPlanLines(
           *bound.value().plan, sink, /*include_wall=*/false)) {
    row += line + "\n";
  }
  // The batch engine reports batches=...; strip that token too, then the
  // deterministic remainder (labels, rows_in/rows_out) must agree exactly.
  // Counter tokens are "  key=value" with a two-space separator; a batches
  // token ends at the next separator or end of line.
  auto strip_batches = [](std::string text) {
    size_t pos;
    while ((pos = text.find("  batches=")) != std::string::npos) {
      size_t end = text.find("  ", pos + 2);
      size_t nl = text.find('\n', pos);
      size_t stop = std::min(end == std::string::npos ? text.size() : end,
                             nl == std::string::npos ? text.size() : nl);
      text.erase(pos, stop - pos);
    }
    return text;
  };
  EXPECT_EQ(strip_batches(batch), strip_batches(row));
  EXPECT_NE(row.find("rows_out=2"), std::string::npos) << row;
}

TEST_F(ExplainTest, ExplainRejectsNonSelect) {
  auto r = engine_.Execute("EXPLAIN INSERT INTO t VALUES (4, 4)");
  EXPECT_FALSE(r.ok());
  auto r2 = engine_.Execute("EXPLAIN ANALYZE DROP TABLE t");
  EXPECT_FALSE(r2.ok());
}

// ---- REFRESH_PROFILE SQL surface ----

class RefreshProfileSqlTest : public ::testing::Test {
 protected:
  RefreshProfileSqlTest()
      : clock_(0), engine_(clock_), sched_(&engine_, &clock_) {
    obs::InstallProfiling(true);
    Exec("CREATE TABLE t (k INT, v INT)");
    Exec("CREATE DYNAMIC TABLE dt1 TARGET_LAG = '48 seconds' "
         "WAREHOUSE = wh AS SELECT k, v FROM t WHERE v > 0");
    Exec("INSERT INTO t VALUES (1, 10), (2, 20)");
    sched_.RunUntil(2 * kCanonicalBasePeriod);
    obs::InstallIntrospection(&engine_, &sched_);
  }
  ~RefreshProfileSqlTest() override { obs::InstallProfiling(false); }

  void Exec(const std::string& sql) {
    auto r = engine_.Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
  }

  VirtualClock clock_;
  DvsEngine engine_;
  Scheduler sched_;
};

TEST_F(RefreshProfileSqlTest, ReturnsOperatorRows) {
  auto r = engine_.Query("SELECT * FROM refresh_profile('dt1')");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_FALSE(r.value().rows.empty());
  // One row per (profile, operator); dt1's plan has 3 operators.
  EXPECT_EQ(r.value().rows.size() % 3, 0u);
  const Row& row = r.value().rows.front();
  EXPECT_EQ(row[0].ToString(), Value::String("dt1").ToString());
  EXPECT_EQ(row[3].ToString(), Value::String("SUCCESS").ToString());
  // wall_ns is the LAST column, so deterministic consumers can project the
  // prefix.
  EXPECT_EQ(r.value().schema.columns().back().name, "wall_ns");
}

TEST_F(RefreshProfileSqlTest, CountLimitsProfiles) {
  Exec("INSERT INTO t VALUES (3, 30)");
  sched_.RunUntil(clock_.Now() + kCanonicalBasePeriod);
  auto all = engine_.Query("SELECT * FROM refresh_profile('dt1')");
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  auto one = engine_.Query("SELECT * FROM refresh_profile('dt1', 1)");
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  EXPECT_EQ(one.value().rows.size(), 3u);  // one profile x 3 operators
  EXPECT_GT(all.value().rows.size(), one.value().rows.size());
}

TEST_F(RefreshProfileSqlTest, BadArgumentsRejected) {
  EXPECT_FALSE(engine_.Query("SELECT * FROM refresh_profile()").ok());
  EXPECT_FALSE(engine_.Query("SELECT * FROM refresh_profile(42)").ok());
  EXPECT_FALSE(
      engine_.Query("SELECT * FROM refresh_profile('dt1', 0)").ok());
  EXPECT_FALSE(
      engine_.Query("SELECT * FROM refresh_profile('dt1', 1, 2)").ok());
  EXPECT_FALSE(engine_.Query("SELECT * FROM refresh_profile('no_such')").ok());
  EXPECT_FALSE(engine_.Query("SELECT * FROM refresh_profile('t')").ok());
}

TEST_F(RefreshProfileSqlTest, RejectedInsideDefinitions) {
  auto dt = engine_.Execute(
      "CREATE DYNAMIC TABLE dt_bad TARGET_LAG = '48 seconds' WAREHOUSE = wh "
      "AS SELECT * FROM refresh_profile('dt1')");
  EXPECT_FALSE(dt.ok());
  auto view = engine_.Execute(
      "CREATE VIEW v_bad AS SELECT * FROM refresh_profile('dt1')");
  EXPECT_FALSE(view.ok());
}

// ---- Worker-count invariance of deterministic profile counters ----

std::string ProfileFingerprint(int worker_threads) {
  obs::ScopedProfiling armed(true);
  VirtualClock clock(0);
  DvsEngine engine(clock);
  SchedulerOptions opts;
  opts.worker_threads = worker_threads;
  Scheduler sched(&engine, &clock, opts);
  auto exec = [&engine](const std::string& sql) {
    auto r = engine.Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
  };
  exec("CREATE TABLE src_a (k INT, v INT)");
  exec("CREATE TABLE src_b (k INT, v INT)");
  exec("CREATE DYNAMIC TABLE dt_j TARGET_LAG = '48 seconds' WAREHOUSE = wh "
       "AS SELECT a.k, a.v, b.v AS bv FROM src_a a JOIN src_b b ON a.k = b.k");
  exec("CREATE DYNAMIC TABLE dt_g TARGET_LAG = '96 seconds' WAREHOUSE = wh "
       "AS SELECT k, SUM(v) AS sv FROM src_a GROUP BY k");
  for (int round = 0; round < 5; ++round) {
    exec("INSERT INTO src_a VALUES (" + std::to_string(round % 3) + ", " +
         std::to_string(round + 1) + ")");
    exec("INSERT INTO src_b VALUES (" + std::to_string(round % 2) + ", 7)");
    sched.RunUntil(clock.Now() + kCanonicalBasePeriod);
  }
  obs::InstallIntrospection(&engine, &sched);
  // Project away the wall_ns column: everything left is deterministic.
  std::string out;
  for (const char* dt : {"dt_j", "dt_g"}) {
    auto r = engine.Query(
        std::string("SELECT name, refresh_ts, action, outcome, operator, "
                    "op_tag, rows_in, rows_out, batches, join_build_hits, "
                    "join_build_misses, join_probe_hits, join_probe_misses, "
                    "batch_cache_hits, batch_cache_misses, sel_memo_hits, "
                    "row_redos FROM refresh_profile('") +
        dt + "')");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (r.ok()) out += RenderResult(r.value());
  }
  return out;
}

TEST(ProfileDeterminismTest, WorkerCountInvariance) {
  std::string serial = ProfileFingerprint(0);
  std::string parallel_run = ProfileFingerprint(4);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel_run);
}

// ---- ExecCounters metrics (satellite: visible while disarmed) ----

TEST(ExecCountersTest, RegisteredDeterministicAndDeltaBased) {
  ASSERT_FALSE(obs::ProfilingArmed());
  VirtualClock clock(0);
  DvsEngine engine(clock);
  Scheduler sched(&engine, &clock);
  auto exec = [&engine](const std::string& sql) {
    auto r = engine.Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
  };
  exec("CREATE TABLE t (k INT, v INT)");
  exec("CREATE DYNAMIC TABLE dt1 TARGET_LAG = '48 seconds' "
       "WAREHOUSE = wh AS SELECT k, v FROM t WHERE v > 0");
  exec("INSERT INTO t VALUES (1, 10), (2, 20)");

  obs::Registry reg;
  obs::EngineMetrics metrics(&engine, &reg);  // baseline snapshotted here
  sched.RunUntil(2 * kCanonicalBasePeriod);
  std::string text = reg.Snapshot().DeterministicText();
  // All five exec-layer counters are registered as deterministic metrics
  // even though profiling is disarmed.
  for (const char* name :
       {"exec.join_cache.hits", "exec.join_cache.misses",
        "storage.batch_cache.hits", "storage.batch_cache.misses",
        "exec.row_redos"}) {
    EXPECT_NE(text.find(name), std::string::npos) << name << "\n" << text;
  }
  // The refresh converted partitions to batches: the delta since
  // registration is visible.
  EXPECT_NE(text.find("storage.batch_cache.misses"), std::string::npos);
}

// ---- Concurrent scrape (TSan target) ----

TEST(ProfileConcurrencyTest, ScrapeWhileSchedulerRuns) {
  obs::ScopedProfiling armed(true);
  VirtualClock clock(0);
  DvsEngine engine(clock);
  SchedulerOptions opts;
  opts.worker_threads = 4;
  Scheduler sched(&engine, &clock, opts);
  auto exec = [&engine](const std::string& sql) {
    auto r = engine.Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
  };
  exec("CREATE TABLE t (k INT, v INT)");
  for (int i = 0; i < 4; ++i) {
    exec("CREATE DYNAMIC TABLE dt_" + std::to_string(i) +
         " TARGET_LAG = '48 seconds' WAREHOUSE = wh_" + std::to_string(i) +
         " AS SELECT k, v FROM t WHERE v > " + std::to_string(i));
  }
  exec("INSERT INTO t VALUES (1, 1), (2, 2), (3, 3), (4, 4), (5, 5)");
  sched.RunUntil(kCanonicalBasePeriod);
  obs::InstallIntrospection(&engine, &sched);

  // Scraper thread hammers the mutex-guarded profile rings while refresh
  // workers publish into them. Handshake: the rounds start only after the
  // first scrape returned, so the scrapes overlap them however the threads
  // get scheduled.
  std::atomic<bool> stop{false};
  std::atomic<int> scrapes{0};
  std::promise<Status> first_scrape;
  std::thread scraper([&] {
    bool first = true;
    while (!stop.load(std::memory_order_relaxed)) {
      for (int i = 0; i < 4; ++i) {
        auto r = engine.Query("SELECT * FROM refresh_profile('dt_" +
                              std::to_string(i) + "')");
        if (r.ok()) scrapes.fetch_add(1, std::memory_order_relaxed);
        if (first) {
          first_scrape.set_value(r.ok() ? OkStatus() : r.status());
          first = false;
        }
      }
    }
  });
  Status first_status = first_scrape.get_future().get();
  if (!first_status.ok()) {
    stop.store(true, std::memory_order_relaxed);
    scraper.join();
    FAIL() << "first scrape failed: " << first_status.ToString();
  }
  for (int round = 0; round < 12; ++round) {
    exec("INSERT INTO t VALUES (" + std::to_string(round + 6) + ", " +
         std::to_string(round) + ")");
    sched.RunUntil(clock.Now() + kCanonicalBasePeriod);
  }
  stop.store(true, std::memory_order_relaxed);
  scraper.join();
  EXPECT_GT(scrapes.load(), 0);
  for (int i = 0; i < 4; ++i) {
    auto profiles = engine.catalog()
                        .Find("dt_" + std::to_string(i))
                        .value()
                        ->dt->ProfileSnapshot();
    EXPECT_FALSE(profiles.empty());
  }
}

}  // namespace
}  // namespace dvs
