// End-to-end dynamic table tests: DDL/DML through SQL, refresh actions,
// delayed view semantics invariants, query evolution, error handling.

#include <gtest/gtest.h>

#include <algorithm>

#include "dt/engine.h"
#include "persist/retention.h"
#include "sched/scheduler.h"

namespace dvs {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() : clock_(kMicrosPerHour), engine_(clock_) {}

  void Exec(const std::string& sql) {
    auto r = engine_.Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
  }

  QueryResult Q(const std::string& sql) {
    auto r = engine_.Query(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? r.take() : QueryResult{};
  }

  /// Sorted row text, for order-insensitive comparison.
  static std::vector<std::string> Rendered(const std::vector<Row>& rows) {
    std::vector<std::string> out;
    for (const Row& r : rows) out.push_back(RowToString(r));
    std::sort(out.begin(), out.end());
    return out;
  }

  /// The paper's core testing invariant (§6.1): the DT's contents must equal
  /// its defining query evaluated as of the DT's data timestamp.
  void ExpectDvsInvariant(const std::string& dt_name) {
    auto obj = engine_.catalog().Find(dt_name);
    ASSERT_TRUE(obj.ok());
    ASSERT_TRUE(obj.value()->dt != nullptr);
    const DynamicTableMeta& meta = *obj.value()->dt;
    ASSERT_TRUE(meta.initialized);
    auto expected =
        engine_.QueryAsOf(meta.def.sql, meta.data_timestamp);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    auto actual = Q("SELECT * FROM " + dt_name);
    EXPECT_EQ(Rendered(actual.rows), Rendered(expected.value()))
        << dt_name << " violates delayed view semantics at ts "
        << meta.data_timestamp;
  }

  RefreshOutcome ManualRefresh(const std::string& dt_name) {
    clock_.Advance(kMicrosPerMinute);
    auto id = engine_.ObjectIdOf(dt_name);
    EXPECT_TRUE(id.ok());
    auto r = engine_.refresh_engine().RefreshWithUpstream(id.value(),
                                                          clock_.Now());
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r.take() : RefreshOutcome{};
  }

  const DynamicTableMeta& Meta(const std::string& name) {
    return *engine_.catalog().Find(name).value()->dt;
  }

  VirtualClock clock_;
  DvsEngine engine_;
};

TEST_F(EngineTest, CreateInsertSelectRoundTrip) {
  Exec("CREATE TABLE t (a INT, b STRING)");
  Exec("INSERT INTO t VALUES (1, 'x'), (2, 'y')");
  QueryResult r = Q("SELECT a, b FROM t ORDER BY a");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].int_value(), 1);
  EXPECT_EQ(r.rows[1][1].string_value(), "y");
}

TEST_F(EngineTest, DmlDeleteAndUpdate) {
  Exec("CREATE TABLE t (a INT, b STRING)");
  Exec("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z')");
  auto del = engine_.Execute("DELETE FROM t WHERE a = 2");
  ASSERT_TRUE(del.ok());
  EXPECT_EQ(del.value().affected_rows, 1);
  auto upd = engine_.Execute("UPDATE t SET b = 'w' WHERE a = 3");
  ASSERT_TRUE(upd.ok());
  EXPECT_EQ(upd.value().affected_rows, 1);
  QueryResult r = Q("SELECT b FROM t ORDER BY a");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[1][0].string_value(), "w");
}

TEST_F(EngineTest, DynamicTableInitializesOnCreate) {
  Exec("CREATE TABLE src (k INT, v INT)");
  Exec("INSERT INTO src VALUES (1, 10), (2, 20)");
  Exec("CREATE DYNAMIC TABLE dt TARGET_LAG = '1 minute' WAREHOUSE = wh "
       "AS SELECT k, v * 2 AS v2 FROM src");
  QueryResult r = Q("SELECT * FROM dt ORDER BY k");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][1].int_value(), 20);
  EXPECT_TRUE(Meta("dt").initialized);
  EXPECT_TRUE(Meta("dt").incremental);  // AUTO picks incremental
  ExpectDvsInvariant("dt");
}

TEST_F(EngineTest, UninitializedDtQueryFails) {
  Exec("CREATE TABLE src (k INT)");
  Exec("CREATE DYNAMIC TABLE dt TARGET_LAG = '1 minute' WAREHOUSE = wh "
       "INITIALIZE = ON_SCHEDULE AS SELECT k FROM src");
  auto r = engine_.Query("SELECT * FROM dt");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(EngineTest, IncrementalRefreshAfterInserts) {
  Exec("CREATE TABLE src (k INT, v INT)");
  Exec("INSERT INTO src VALUES (1, 10)");
  Exec("CREATE DYNAMIC TABLE dt TARGET_LAG = '1 minute' WAREHOUSE = wh "
       "AS SELECT k, v FROM src WHERE v > 5");
  clock_.Advance(kMicrosPerMinute);
  Exec("INSERT INTO src VALUES (2, 20), (3, 1)");  // 3 filtered out
  RefreshOutcome outcome = ManualRefresh("dt");
  EXPECT_EQ(outcome.action, RefreshAction::kIncremental);
  EXPECT_EQ(outcome.changes_applied, 1u);  // only (2,20) passes the filter
  EXPECT_EQ(Q("SELECT * FROM dt").rows.size(), 2u);
  ExpectDvsInvariant("dt");
}

TEST_F(EngineTest, IncrementalRefreshHandlesUpdatesAndDeletes) {
  Exec("CREATE TABLE src (k INT, v INT)");
  Exec("INSERT INTO src VALUES (1, 10), (2, 20), (3, 30)");
  Exec("CREATE DYNAMIC TABLE agg TARGET_LAG = '1 minute' WAREHOUSE = wh "
       "AS SELECT k % 2 AS parity, sum(v) AS total, count(*) AS n "
       "FROM src GROUP BY ALL");
  clock_.Advance(kMicrosPerMinute);
  Exec("UPDATE src SET v = 100 WHERE k = 1");
  Exec("DELETE FROM src WHERE k = 2");
  RefreshOutcome outcome = ManualRefresh("agg");
  EXPECT_EQ(outcome.action, RefreshAction::kIncremental);
  ExpectDvsInvariant("agg");
  QueryResult r = Q("SELECT parity, total, n FROM agg ORDER BY parity");
  ASSERT_EQ(r.rows.size(), 1u);  // parity-0 group (k=2) disappeared
  EXPECT_EQ(r.rows[0][0].int_value(), 1);
  EXPECT_EQ(r.rows[0][1].int_value(), 130);
  EXPECT_EQ(r.rows[0][2].int_value(), 2);
}

TEST_F(EngineTest, NoDataRefreshWhenSourcesUnchanged) {
  Exec("CREATE TABLE src (k INT)");
  Exec("INSERT INTO src VALUES (1)");
  Exec("CREATE DYNAMIC TABLE dt TARGET_LAG = '1 minute' WAREHOUSE = wh "
       "AS SELECT k FROM src");
  RefreshOutcome outcome = ManualRefresh("dt");
  EXPECT_EQ(outcome.action, RefreshAction::kNoData);
  EXPECT_EQ(outcome.rows_processed, 0u);
  // The data timestamp still advanced (DVS upheld).
  EXPECT_EQ(Meta("dt").data_timestamp, clock_.Now());
  ExpectDvsInvariant("dt");
}

TEST_F(EngineTest, FullRefreshMode) {
  Exec("CREATE TABLE src (k INT)");
  Exec("INSERT INTO src VALUES (1)");
  Exec("CREATE DYNAMIC TABLE dt TARGET_LAG = '1 minute' WAREHOUSE = wh "
       "REFRESH_MODE = FULL AS SELECT k FROM src");
  EXPECT_FALSE(Meta("dt").incremental);
  clock_.Advance(kMicrosPerMinute);
  Exec("INSERT INTO src VALUES (2)");
  RefreshOutcome outcome = ManualRefresh("dt");
  EXPECT_EQ(outcome.action, RefreshAction::kFull);
  EXPECT_EQ(Q("SELECT * FROM dt").rows.size(), 2u);
  ExpectDvsInvariant("dt");
}

TEST_F(EngineTest, ScalarAggregateFallsBackToFull) {
  Exec("CREATE TABLE src (v INT)");
  Exec("CREATE DYNAMIC TABLE dt TARGET_LAG = '1 minute' WAREHOUSE = wh "
       "AS SELECT sum(v) AS total FROM src");
  EXPECT_FALSE(Meta("dt").incremental);  // paper: scalar aggregates full-only

  auto err = engine_.Execute(
      "CREATE DYNAMIC TABLE dt2 TARGET_LAG = '1 minute' WAREHOUSE = wh "
      "REFRESH_MODE = INCREMENTAL AS SELECT sum(v) AS total FROM src");
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kUnsupported);
}

TEST_F(EngineTest, VolatileFunctionForcesFull) {
  Exec("CREATE TABLE src (v INT)");
  Exec("CREATE DYNAMIC TABLE dt TARGET_LAG = '1 minute' WAREHOUSE = wh "
       "AS SELECT v, random() AS r FROM src");
  EXPECT_FALSE(Meta("dt").incremental);
}

TEST_F(EngineTest, CurrentTimestampEvaluatesToDataTimestamp) {
  Exec("CREATE TABLE src (v INT)");
  Exec("INSERT INTO src VALUES (1)");
  Exec("CREATE DYNAMIC TABLE dt TARGET_LAG = '1 minute' WAREHOUSE = wh "
       "AS SELECT v, current_timestamp() AS at FROM src");
  EXPECT_TRUE(Meta("dt").incremental);  // context functions are fine
  QueryResult r = Q("SELECT at FROM dt");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].timestamp_value(), Meta("dt").data_timestamp);
  ExpectDvsInvariant("dt");
}

TEST_F(EngineTest, StackedDynamicTables) {
  Exec("CREATE TABLE events (user_id INT, amount INT)");
  Exec("INSERT INTO events VALUES (1, 5), (1, 7), (2, 3)");
  Exec("CREATE DYNAMIC TABLE by_user TARGET_LAG = DOWNSTREAM WAREHOUSE = wh "
       "AS SELECT user_id, sum(amount) AS total FROM events GROUP BY ALL");
  Exec("CREATE DYNAMIC TABLE big_users TARGET_LAG = '1 minute' "
       "WAREHOUSE = wh AS SELECT user_id FROM by_user WHERE total > 4");
  EXPECT_EQ(Q("SELECT * FROM big_users").rows.size(), 1u);

  clock_.Advance(kMicrosPerMinute);
  Exec("INSERT INTO events VALUES (2, 9)");
  ManualRefresh("big_users");  // refreshes by_user first at the same ts
  EXPECT_EQ(Q("SELECT * FROM big_users").rows.size(), 2u);
  ExpectDvsInvariant("by_user");
  ExpectDvsInvariant("big_users");
  // Both share the data timestamp (snapshot isolation across the chain).
  EXPECT_EQ(Meta("by_user").data_timestamp, Meta("big_users").data_timestamp);
}

TEST_F(EngineTest, InitializationReusesUpstreamTimestamp) {
  Exec("CREATE TABLE src (v INT)");
  Exec("INSERT INTO src VALUES (1)");
  Exec("CREATE DYNAMIC TABLE up TARGET_LAG = '10 minutes' WAREHOUSE = wh "
       "AS SELECT v FROM src");
  Micros up_ts = Meta("up").data_timestamp;

  clock_.Advance(kMicrosPerMinute);  // within the 10 minute lag
  Exec("CREATE DYNAMIC TABLE down TARGET_LAG = '10 minutes' WAREHOUSE = wh "
       "AS SELECT v FROM up");
  // §3.1.2: initialized to the upstream's existing data timestamp, which is
  // *before* this DT's creation time — no wasted re-refresh of `up`.
  EXPECT_EQ(Meta("down").data_timestamp, up_ts);
  EXPECT_LT(Meta("down").data_timestamp, clock_.Now());
  EXPECT_EQ(Meta("up").refresh_versions.size(), 1u);
}

TEST_F(EngineTest, InitializationRefreshesStaleUpstream) {
  Exec("CREATE TABLE src (v INT)");
  Exec("CREATE DYNAMIC TABLE up TARGET_LAG = '1 minute' WAREHOUSE = wh "
       "AS SELECT v FROM src");
  clock_.Advance(30 * kMicrosPerMinute);  // upstream now far out of lag
  Exec("CREATE DYNAMIC TABLE down TARGET_LAG = '1 minute' WAREHOUSE = wh "
       "AS SELECT v FROM up");
  // Upstream timestamp was outside the lag: both refreshed at creation time.
  EXPECT_EQ(Meta("down").data_timestamp, clock_.Now());
  EXPECT_EQ(Meta("up").data_timestamp, clock_.Now());
}

TEST_F(EngineTest, InitializationSkipsTimestampsRetentionPruned) {
  Exec("CREATE TABLE src (k INT, v INT)");
  Exec("INSERT INTO src VALUES (1, 10), (2, 20)");
  Exec("CREATE TABLE dim (k INT, w INT) MIN_DATA_RETENTION = '1 minute'");
  Exec("INSERT INTO dim VALUES (1, 5)");
  Exec("CREATE DYNAMIC TABLE up TARGET_LAG = '10 minutes' WAREHOUSE = wh "
       "AS SELECT k, v FROM src");
  const Micros up_ts = Meta("up").data_timestamp;

  // Retention prunes dim's version at up's data timestamp, so that shared
  // upstream timestamp cannot initialize `j`: the chain refreshes now.
  for (int i = 0; i < 4; ++i) {
    clock_.Advance(kMicrosPerMinute);
    Exec("INSERT INTO dim VALUES (" + std::to_string(i + 2) + ", 6)");
  }
  persist::RunRetentionGc(engine_.catalog(), clock_.Now(), nullptr);
  Exec("CREATE DYNAMIC TABLE j TARGET_LAG = '10 minutes' WAREHOUSE = wh "
       "AS SELECT u.k AS k, d.w AS w FROM up u JOIN dim d ON u.k = d.k");
  EXPECT_GT(Meta("j").data_timestamp, up_ts);
  EXPECT_EQ(Meta("j").data_timestamp, clock_.Now());
  EXPECT_EQ(Q("SELECT * FROM j").rows.size(), 2u);
  ExpectDvsInvariant("j");
}

TEST_F(EngineTest, UndroppedDtReinitializesWhenRetentionPrunedItsFrontier) {
  Exec("CREATE TABLE src (v INT) MIN_DATA_RETENTION = '2 minutes'");
  Exec("INSERT INTO src VALUES (1)");
  Exec("CREATE DYNAMIC TABLE dt TARGET_LAG = '1 minute' WAREHOUSE = wh "
       "AS SELECT v FROM src");
  // While dt is dropped it holds no retention floor on src.
  Exec("DROP DYNAMIC TABLE dt");
  for (int i = 2; i < 8; ++i) {
    clock_.Advance(kMicrosPerMinute);
    Exec("INSERT INTO src VALUES (" + std::to_string(i) + ")");
    persist::RunRetentionGc(engine_.catalog(), clock_.Now(), nullptr);
  }
  Exec("UNDROP DYNAMIC TABLE dt");
  const CatalogObject* src = engine_.catalog().Find("src").value();
  const ObjectId src_id = src->id;
  ASSERT_LT(Meta("dt").frontier.at(src_id), src->storage->first_version());

  EXPECT_EQ(ManualRefresh("dt").action, RefreshAction::kReinitialize);
  EXPECT_EQ(Q("SELECT * FROM dt").rows.size(), 7u);
  ExpectDvsInvariant("dt");
}

TEST_F(EngineTest, DropUpstreamFailsRefreshUndropResumes) {
  Exec("CREATE TABLE src (v INT)");
  Exec("INSERT INTO src VALUES (1)");
  Exec("CREATE DYNAMIC TABLE dt TARGET_LAG = '1 minute' WAREHOUSE = wh "
       "AS SELECT v FROM src");
  Exec("DROP TABLE src");
  clock_.Advance(kMicrosPerMinute);
  ObjectId id = engine_.ObjectIdOf("dt").value();
  auto fail = engine_.refresh_engine().Refresh(id, clock_.Now());
  ASSERT_FALSE(fail.ok());
  EXPECT_EQ(Meta("dt").consecutive_failures, 1);

  Exec("UNDROP TABLE src");
  clock_.Advance(kMicrosPerMinute);
  auto ok = engine_.refresh_engine().Refresh(id, clock_.Now());
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();  // §3.4: resumes unaided
  EXPECT_EQ(Meta("dt").consecutive_failures, 0);
  ExpectDvsInvariant("dt");
}

TEST_F(EngineTest, ReplacedUpstreamTriggersReinitialize) {
  Exec("CREATE TABLE src (v INT)");
  Exec("INSERT INTO src VALUES (1)");
  Exec("CREATE DYNAMIC TABLE dt TARGET_LAG = '1 minute' WAREHOUSE = wh "
       "AS SELECT v FROM src");
  Exec("CREATE OR REPLACE TABLE src (v INT)");
  Exec("INSERT INTO src VALUES (7), (8)");
  clock_.Advance(kMicrosPerMinute);
  ObjectId id = engine_.ObjectIdOf("dt").value();
  auto outcome = engine_.refresh_engine().Refresh(id, clock_.Now());
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome.value().action, RefreshAction::kReinitialize);
  EXPECT_EQ(Q("SELECT * FROM dt").rows.size(), 2u);
  ExpectDvsInvariant("dt");

  // The reinitialization is done once: the next change refreshes
  // incrementally.
  Exec("INSERT INTO src VALUES (9)");
  EXPECT_EQ(ManualRefresh("dt").action, RefreshAction::kIncremental);
  ExpectDvsInvariant("dt");
}

TEST_F(EngineTest, TimeTravelAcrossSchemaChangingRebindFailsCleanly) {
  Exec("CREATE TABLE src (v INT, w INT)");
  Exec("INSERT INTO src VALUES (1, 2)");
  Exec("CREATE DYNAMIC TABLE dt TARGET_LAG = '1 minute' WAREHOUSE = wh "
       "AS SELECT * FROM src");
  ManualRefresh("dt");
  const Micros before_rebind = Meta("dt").data_timestamp;
  // §5.4: the replaced upstream widens the DT's schema on its next refresh.
  Exec("CREATE OR REPLACE TABLE src (v INT, w INT, x INT)");
  Exec("INSERT INTO src VALUES (7, 8, 9)");
  EXPECT_EQ(ManualRefresh("dt").action, RefreshAction::kReinitialize);
  EXPECT_EQ(Q("SELECT * FROM dt").schema.size(), 3u);
  ExpectDvsInvariant("dt");

  // The version written before the rebind has two-column rows; the DT's
  // schema now has three. Reading it fails; it never reads out of range or
  // returns rows of the wrong shape.
  for (const char* sql : {"SELECT * FROM dt", "SELECT v FROM dt"}) {
    auto r = engine_.QueryAsOf(sql, before_rebind);
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition) << sql;
    EXPECT_NE(r.status().message().find("Scan of 'dt' produced rows of "
                                        "width 2, but its schema has 3"),
              std::string::npos)
        << r.status().ToString();
  }
}

TEST_F(EngineTest, VolatileFunctionWithoutEntropySurfacesUserError) {
  // No production context carries an entropy source, so RANDOM() over a
  // non-empty source fails with the scalar evaluator's error: in a CREATE's
  // initializing refresh, in a later refresh, and in a QueryAsOf read.
  Exec("CREATE TABLE src (v INT)");
  Exec("INSERT INTO src VALUES (1), (2)");
  const std::string kError =
      "UserError: random(): no entropy source in this context";
  auto created = engine_.Execute(
      "CREATE DYNAMIC TABLE dt TARGET_LAG = '1 minute' WAREHOUSE = wh "
      "AS SELECT v, random() AS r FROM src");
  ASSERT_FALSE(created.ok());
  EXPECT_EQ(created.status().ToString(), kError);

  // A failed CREATE creates nothing: the name does not resolve and the
  // scheduler has nothing to refresh.
  EXPECT_FALSE(engine_.ObjectIdOf("dt").ok());
  Scheduler sched(&engine_, &clock_);
  sched.RunUntil(clock_.Now() + 3 * kMicrosPerMinute);
  EXPECT_TRUE(sched.log().empty());

  // Over an empty source the CREATE succeeds; the first refresh that
  // evaluates random() fails with the same error.
  Exec("CREATE TABLE empty_src (v INT)");
  Exec("CREATE DYNAMIC TABLE dt TARGET_LAG = '1 minute' WAREHOUSE = wh "
       "AS SELECT v, random() AS r FROM empty_src");
  Exec("INSERT INTO empty_src VALUES (1)");
  clock_.Advance(kMicrosPerMinute);
  auto refreshed = engine_.refresh_engine().Refresh(
      engine_.ObjectIdOf("dt").value(), clock_.Now());
  ASSERT_FALSE(refreshed.ok());
  EXPECT_EQ(refreshed.status().ToString(), kError);

  auto read = engine_.QueryAsOf("SELECT v, random() FROM src", clock_.Now());
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().ToString(), kError);
}

TEST_F(EngineTest, UserErrorCountsFailuresAndAutoSuspends) {
  Exec("CREATE TABLE src (v INT)");
  Exec("INSERT INTO src VALUES (1)");
  // Division by zero appears when v = 0 arrives (the paper's example).
  Exec("CREATE DYNAMIC TABLE dt TARGET_LAG = '1 minute' WAREHOUSE = wh "
       "AS SELECT 100 / v AS q FROM src");
  Exec("INSERT INTO src VALUES (0)");
  ObjectId id = engine_.ObjectIdOf("dt").value();
  for (int i = 0; i < 5; ++i) {
    clock_.Advance(kMicrosPerMinute);
    auto r = engine_.refresh_engine().Refresh(id, clock_.Now());
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kUserError);
  }
  // §3.3.3: suspended after the failure threshold.
  EXPECT_EQ(Meta("dt").state, DtState::kSuspended);
  clock_.Advance(kMicrosPerMinute);
  auto r = engine_.refresh_engine().Refresh(id, clock_.Now());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);

  // Fix the data, resume, and the DT picks up from where it left off.
  Exec("DELETE FROM src WHERE v = 0");
  Exec("ALTER DYNAMIC TABLE dt RESUME");
  clock_.Advance(kMicrosPerMinute);
  auto ok = engine_.refresh_engine().Refresh(id, clock_.Now());
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  ExpectDvsInvariant("dt");
}

TEST_F(EngineTest, AlterRefreshSuspendResume) {
  Exec("CREATE TABLE src (v INT)");
  Exec("CREATE DYNAMIC TABLE dt TARGET_LAG = '1 minute' WAREHOUSE = wh "
       "AS SELECT v FROM src");
  clock_.Advance(kMicrosPerMinute);
  Exec("INSERT INTO src VALUES (5)");
  Exec("ALTER DYNAMIC TABLE dt REFRESH");
  EXPECT_EQ(Q("SELECT * FROM dt").rows.size(), 1u);
  Exec("ALTER DYNAMIC TABLE dt SUSPEND");
  EXPECT_EQ(Meta("dt").state, DtState::kSuspended);
  Exec("ALTER DYNAMIC TABLE dt RESUME");
  EXPECT_EQ(Meta("dt").state, DtState::kActive);
}

TEST_F(EngineTest, IsolationLevelClassification) {
  Exec("CREATE TABLE src (v INT)");
  Exec("INSERT INTO src VALUES (1)");
  Exec("CREATE DYNAMIC TABLE dt TARGET_LAG = '1 minute' WAREHOUSE = wh "
       "AS SELECT v FROM src");
  // Single-DT read: Snapshot Isolation (§4).
  EXPECT_EQ(Q("SELECT * FROM dt").isolation,
            QueryIsolation::kSnapshotIsolation);
  // DT joined with a base table: Read Committed.
  EXPECT_EQ(Q("SELECT * FROM dt d JOIN src s ON d.v = s.v").isolation,
            QueryIsolation::kReadCommitted);
  // Plain table read: Read Committed bucket.
  EXPECT_EQ(Q("SELECT * FROM src").isolation,
            QueryIsolation::kReadCommitted);
}

TEST_F(EngineTest, ViewsExpandInDtDefinitions) {
  Exec("CREATE TABLE src (v INT)");
  Exec("INSERT INTO src VALUES (1), (2), (3)");
  Exec("CREATE VIEW big AS SELECT v FROM src WHERE v > 1");
  Exec("CREATE DYNAMIC TABLE dt TARGET_LAG = '1 minute' WAREHOUSE = wh "
       "AS SELECT v FROM big");
  EXPECT_EQ(Q("SELECT * FROM dt").rows.size(), 2u);
  clock_.Advance(kMicrosPerMinute);
  Exec("INSERT INTO src VALUES (4)");
  RefreshOutcome outcome = ManualRefresh("dt");
  EXPECT_EQ(outcome.action, RefreshAction::kIncremental);
  EXPECT_EQ(Q("SELECT * FROM dt").rows.size(), 3u);
}

TEST_F(EngineTest, OuterJoinDtStaysConsistent) {
  Exec("CREATE TABLE l (k INT, lv INT)");
  Exec("CREATE TABLE r (k INT, rv INT)");
  Exec("INSERT INTO l VALUES (1, 10), (2, 20)");
  Exec("INSERT INTO r VALUES (2, 200), (3, 300)");
  Exec("CREATE DYNAMIC TABLE dt TARGET_LAG = '1 minute' WAREHOUSE = wh "
       "AS SELECT l.k AS lk, r.k AS rk, lv, rv "
       "FROM l FULL OUTER JOIN r ON l.k = r.k");
  EXPECT_EQ(Q("SELECT * FROM dt").rows.size(), 3u);

  clock_.Advance(kMicrosPerMinute);
  // Insert the match for the dangling left row and delete a right row:
  // null-extended rows must flip to matched and vice versa.
  Exec("INSERT INTO r VALUES (1, 100)");
  Exec("DELETE FROM r WHERE k = 2");
  RefreshOutcome outcome = ManualRefresh("dt");
  EXPECT_EQ(outcome.action, RefreshAction::kIncremental);
  ExpectDvsInvariant("dt");
}

TEST_F(EngineTest, WindowFunctionDtStaysConsistent) {
  Exec("CREATE TABLE src (grp STRING, v INT)");
  Exec("INSERT INTO src VALUES ('a', 3), ('a', 1), ('b', 9)");
  Exec("CREATE DYNAMIC TABLE dt TARGET_LAG = '1 minute' WAREHOUSE = wh "
       "AS SELECT grp, v, row_number() OVER (PARTITION BY grp ORDER BY v) rn "
       "FROM src");
  clock_.Advance(kMicrosPerMinute);
  Exec("INSERT INTO src VALUES ('a', 2)");  // shifts ranks within 'a'
  RefreshOutcome outcome = ManualRefresh("dt");
  EXPECT_EQ(outcome.action, RefreshAction::kIncremental);
  ExpectDvsInvariant("dt");
  QueryResult r = Q("SELECT rn FROM dt WHERE grp = 'a' ORDER BY v");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0][0].int_value(), 1);
  EXPECT_EQ(r.rows[2][0].int_value(), 3);
}

TEST_F(EngineTest, DistinctDtStaysConsistent) {
  Exec("CREATE TABLE src (v INT)");
  Exec("INSERT INTO src VALUES (1), (1), (2)");
  Exec("CREATE DYNAMIC TABLE dt TARGET_LAG = '1 minute' WAREHOUSE = wh "
       "AS SELECT DISTINCT v FROM src");
  EXPECT_EQ(Q("SELECT * FROM dt").rows.size(), 2u);
  clock_.Advance(kMicrosPerMinute);
  Exec("DELETE FROM src WHERE v = 1");  // removes both copies
  ManualRefresh("dt");
  EXPECT_EQ(Q("SELECT * FROM dt").rows.size(), 1u);
  ExpectDvsInvariant("dt");

  clock_.Advance(kMicrosPerMinute);
  Exec("INSERT INTO src VALUES (2)");  // duplicate: DISTINCT output unchanged
  RefreshOutcome outcome = ManualRefresh("dt");
  EXPECT_EQ(outcome.changes_applied, 0u);
  ExpectDvsInvariant("dt");
}

TEST_F(EngineTest, TimeTravelAcrossRefreshes) {
  Exec("CREATE TABLE src (v INT)");
  Exec("INSERT INTO src VALUES (1)");
  Exec("CREATE DYNAMIC TABLE dt TARGET_LAG = '1 minute' WAREHOUSE = wh "
       "AS SELECT v FROM src");
  Micros ts1 = Meta("dt").data_timestamp;

  clock_.Advance(kMicrosPerMinute);
  Exec("INSERT INTO src VALUES (2)");
  ManualRefresh("dt");
  Micros ts2 = Meta("dt").data_timestamp;

  // Both historical results remain queryable via the refresh-version map.
  auto at1 = engine_.QueryAsOf("SELECT * FROM dt", ts1);
  auto at2 = engine_.QueryAsOf("SELECT * FROM dt", ts2);
  ASSERT_TRUE(at1.ok());
  ASSERT_TRUE(at2.ok());
  EXPECT_EQ(at1.value().size(), 1u);
  EXPECT_EQ(at2.value().size(), 2u);
}

TEST_F(EngineTest, RbacGrantsOnDt) {
  Exec("CREATE TABLE src (v INT)");
  Exec("CREATE DYNAMIC TABLE dt TARGET_LAG = '1 minute' WAREHOUSE = wh "
       "AS SELECT v FROM src");
  ObjectId id = engine_.ObjectIdOf("dt").value();
  Catalog& cat = engine_.catalog();
  EXPECT_TRUE(cat.HasPrivilege(id, "owner", Privilege::kOwnership));
  EXPECT_TRUE(cat.HasPrivilege(id, "owner", Privilege::kOperate));  // implied
  EXPECT_FALSE(cat.HasPrivilege(id, "analyst", Privilege::kMonitor));
  cat.Grant(id, "analyst", Privilege::kMonitor);
  EXPECT_TRUE(cat.HasPrivilege(id, "analyst", Privilege::kMonitor));
  EXPECT_FALSE(cat.HasPrivilege(id, "analyst", Privilege::kOperate));
  cat.Revoke(id, "analyst", Privilege::kMonitor);
  EXPECT_FALSE(cat.HasPrivilege(id, "analyst", Privilege::kMonitor));
}

TEST_F(EngineTest, DdlLogRecordsEverything) {
  Exec("CREATE TABLE src (v INT)");
  Exec("CREATE DYNAMIC TABLE dt TARGET_LAG = '1 minute' WAREHOUSE = wh "
       "AS SELECT v FROM src");
  Exec("DROP TABLE dt");
  const auto& log = engine_.catalog().ddl_log();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0].op, "CREATE TABLE");
  EXPECT_EQ(log[1].op, "CREATE DYNAMIC TABLE");
  EXPECT_EQ(log[2].op, "DROP");
  EXPECT_LT(log[0].ts, log[2].ts);
}

TEST_F(EngineTest, InsertOnlyOptimizationSkipsConsolidation) {
  Exec("CREATE TABLE src (v INT)");
  Exec("INSERT INTO src VALUES (1)");
  Exec("CREATE DYNAMIC TABLE dt TARGET_LAG = '1 minute' WAREHOUSE = wh "
       "AS SELECT v FROM src WHERE v > 0");
  clock_.Advance(kMicrosPerMinute);
  Exec("INSERT INTO src VALUES (2)");
  RefreshOutcome outcome = ManualRefresh("dt");
  EXPECT_EQ(outcome.action, RefreshAction::kIncremental);
  EXPECT_TRUE(outcome.consolidation_skipped);  // §5.5.2
}

}  // namespace
}  // namespace dvs
