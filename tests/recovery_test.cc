// End-to-end durability tests: checkpoint + WAL recovery reproduces the
// live system byte-identically (snapshot encoding) at worker_threads 0 and
// 4, recovered schedulers continue exactly where the live one would,
// checkpoint policy rotates the WAL, ALTER / suspend / DDL survive
// restarts, and retention GC bounds resident versions while every
// incremental refresh still succeeds.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>

#include "fault/injector.h"
#include "obs/metrics.h"
#include "persist/manager.h"
#include "persist/recover.h"
#include "persist/retention.h"
#include "sched/scheduler.h"

namespace dvs {
namespace persist {
namespace {

namespace fs = std::filesystem;

std::string UniqueDir(const std::string& tag) {
  static int counter = 0;
  std::string dir =
      (fs::temp_directory_path() /
       ("dvs_recovery_" + tag + "_" + std::to_string(::getpid()) + "_" +
        std::to_string(counter++)))
          .string();
  fs::remove_all(dir);
  return dir;
}

void Exec(DvsEngine& engine, const std::string& sql) {
  auto r = engine.Execute(sql);
  ASSERT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
}

std::string Fingerprint(DvsEngine& engine, const SchedulerPersistState* st) {
  return EncodeSystemImage(CaptureSystemImage(engine, st));
}

std::string LogBytes(const std::vector<RefreshRecord>& log) {
  Encoder e;
  for (const RefreshRecord& r : log) EncodeRefreshRecordInto(&e, r);
  return e.Take();
}

std::vector<Row> Rows(DvsEngine& engine, const std::string& sql) {
  auto r = engine.Query(sql);
  EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
  return r.ok() ? r.value().rows : std::vector<Row>{};
}

void ExpectSameRows(DvsEngine& a, DvsEngine& b, const std::string& sql) {
  std::vector<Row> ra = Rows(a, sql);
  std::vector<Row> rb = Rows(b, sql);
  ASSERT_EQ(ra.size(), rb.size()) << sql;
  for (size_t i = 0; i < ra.size(); ++i) {
    EXPECT_TRUE(RowsEqual(ra[i], rb[i])) << sql << " row " << i;
  }
}

/// DDL + a churn loop: inserts, updates, and deletes interleaved with
/// scheduler ticks, exercising INITIALIZE / INCREMENTAL / NO_DATA refreshes
/// and a DT-on-DT edge.
void BuildPipeline(DvsEngine& engine) {
  Exec(engine, "CREATE TABLE src (k INT, v INT)");
  Exec(engine, "INSERT INTO src VALUES (1, 10), (2, 20), (3, 30)");
  Exec(engine,
       "CREATE DYNAMIC TABLE agg TARGET_LAG = '2 minutes' WAREHOUSE = wh "
       "AS SELECT k, COUNT(*) AS c, SUM(v) AS s FROM src GROUP BY k");
  Exec(engine,
       "CREATE DYNAMIC TABLE wide TARGET_LAG = '4 minutes' WAREHOUSE = wh2 "
       "AS SELECT k, s FROM agg WHERE s >= 10");
}

/// Runs `ticks` iterations of DML + RunUntil starting at wall-time slot
/// `start_tick` (so a recovered scheduler can continue the exact sequence).
void Churn(DvsEngine& engine, Scheduler& sched, int start_tick, int ticks,
           int* next_key) {
  for (int i = start_tick; i < start_tick + ticks; ++i) {
    int k = (*next_key)++;
    Exec(engine, "INSERT INTO src VALUES (" + std::to_string(k % 5) + ", " +
                     std::to_string(k * 10) + ")");
    if (k % 3 == 0) {
      Exec(engine, "UPDATE src SET v = v + 1 WHERE k = " +
                       std::to_string(k % 5));
    }
    if (k % 4 == 0) {
      Exec(engine, "DELETE FROM src WHERE v > " + std::to_string(200 + k));
    }
    sched.RunUntil(kCanonicalBasePeriod * 2 * (i + 1));
  }
}

class RecoveryTest : public ::testing::TestWithParam<int> {};

TEST_P(RecoveryTest, RecoveredSystemIsByteIdenticalToLive) {
  const int workers = GetParam();
  const std::string dir = UniqueDir("identical_w" + std::to_string(workers));

  VirtualClock clock(0);
  DvsEngine engine(clock);
  auto manager = Manager::Open({dir, /*checkpoint_every_n_ticks=*/4}).take();
  ASSERT_TRUE(manager->Attach(&engine).ok());

  SchedulerOptions opts;
  opts.worker_threads = workers;
  opts.persistence = manager.get();
  Scheduler sched(&engine, &clock, opts);

  BuildPipeline(engine);
  int next_key = 100;
  Churn(engine, sched, 0, 9, &next_key);
  ASSERT_TRUE(manager->wal_status().ok())
      << manager->wal_status().ToString();

  SchedulerPersistState live_state = sched.ExportState();
  std::string live_fp = Fingerprint(engine, &live_state);

  // Recover into a fresh clock/engine and compare byte-for-byte.
  VirtualClock rclock(0);
  auto recovered = Recover(dir, &rclock);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  RecoveredSystem sys = recovered.take();
  rclock.AdvanceTo(clock.Now());
  EXPECT_EQ(Fingerprint(*sys.engine, &sys.sched), live_fp)
      << "recovered state diverges from live (workers=" << workers << ")";
  EXPECT_EQ(LogBytes(sys.sched.log), LogBytes(sched.log()));

  ExpectSameRows(engine, *sys.engine, "SELECT k, c, s FROM agg ORDER BY k");
  ExpectSameRows(engine, *sys.engine, "SELECT k, s FROM wide ORDER BY k");
  ExpectSameRows(engine, *sys.engine, "SELECT k, v FROM src ORDER BY k, v");

  // Billing parity.
  for (const auto& [name, wh] : engine.warehouses().all()) {
    Warehouse* rwh = sys.engine->warehouses().GetOrCreate(name);
    EXPECT_EQ(rwh->billed(), wh->billed()) << name;
    EXPECT_EQ(rwh->resumes(), wh->resumes()) << name;
  }

  // Row-id index parity on every stored table.
  for (const char* table : {"src", "agg", "wide"}) {
    const CatalogObject* a = engine.catalog().Find(table).value();
    const CatalogObject* b = sys.engine->catalog().Find(table).value();
    for (const IdRow& row : a->storage->ScanLatest()) {
      const RowLocation* la = a->storage->FindRow(row.id);
      const RowLocation* lb = b->storage->FindRow(row.id);
      ASSERT_NE(la, nullptr);
      ASSERT_NE(lb, nullptr);
      EXPECT_EQ(la->partition, lb->partition);
      EXPECT_EQ(la->offset, lb->offset);
    }
  }

  // The recovered scheduler continues exactly like the live one: run both
  // three more ticks (journaling off for the recovered copy) and compare.
  SchedulerOptions ropts;
  ropts.worker_threads = workers;
  Scheduler rsched(sys.engine.get(), &rclock, ropts);
  rsched.ImportState(sys.sched);

  int live_key = next_key, rec_key = next_key;
  Churn(engine, sched, 9, 3, &live_key);
  Churn(*sys.engine, rsched, 9, 3, &rec_key);
  EXPECT_EQ(LogBytes(rsched.log()), LogBytes(sched.log()));
  ExpectSameRows(engine, *sys.engine, "SELECT k, c, s FROM agg ORDER BY k");
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, RecoveryTest, ::testing::Values(0, 4));

TEST(RecoveryDdlTest, DropUndropCloneReplaceSurviveRestart) {
  const std::string dir = UniqueDir("ddl");
  VirtualClock clock(0);
  DvsEngine engine(clock);
  auto manager = Manager::Open({dir}).take();
  ASSERT_TRUE(manager->Attach(&engine).ok());

  Exec(engine, "CREATE TABLE t (a INT)");
  Exec(engine, "INSERT INTO t VALUES (1), (2)");
  Exec(engine, "CREATE VIEW v AS SELECT a FROM t");
  Exec(engine,
       "CREATE DYNAMIC TABLE dt TARGET_LAG = '1 minute' WAREHOUSE = wh "
       "AS SELECT a FROM t");
  Exec(engine, "CREATE TABLE t2 CLONE t");
  Exec(engine, "DROP TABLE t2");
  Exec(engine, "UNDROP TABLE t2");
  Exec(engine, "CREATE OR REPLACE TABLE r (b TEXT)");
  Exec(engine, "INSERT INTO r VALUES ('x')");
  Exec(engine, "DROP TABLE r");

  std::string live_fp = Fingerprint(engine, nullptr);
  VirtualClock rclock(0);
  auto recovered = Recover(dir, &rclock);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  rclock.AdvanceTo(clock.Now());
  EXPECT_EQ(Fingerprint(*recovered.value().engine, nullptr), live_fp);

  // The DDL log itself round-trips (linearizable history, §5.1).
  const auto& live_log = engine.catalog().ddl_log();
  const auto& rec_log = recovered.value().engine->catalog().ddl_log();
  ASSERT_EQ(live_log.size(), rec_log.size());
  for (size_t i = 0; i < live_log.size(); ++i) {
    EXPECT_EQ(live_log[i].op, rec_log[i].op);
    EXPECT_EQ(live_log[i].object_name, rec_log[i].object_name);
    EXPECT_EQ(live_log[i].ts, rec_log[i].ts);
  }
}

TEST(RecoveryDdlTest, FailedCreateLeavesNoDtAcrossRestart) {
  // A CREATE whose initializing refresh fails drops its DT again; replaying
  // the journal (create, failure, drop) rebuilds the same image.
  const std::string dir = UniqueDir("failed_create");
  VirtualClock clock(0);
  DvsEngine engine(clock);
  auto manager = Manager::Open({dir}).take();
  ASSERT_TRUE(manager->Attach(&engine).ok());

  Exec(engine, "CREATE TABLE t (a INT)");
  Exec(engine, "INSERT INTO t VALUES (1), (2)");
  auto created = engine.Execute(
      "CREATE DYNAMIC TABLE dt TARGET_LAG = '1 minute' WAREHOUSE = wh "
      "AS SELECT a, random() AS r FROM t");
  ASSERT_FALSE(created.ok());
  EXPECT_FALSE(engine.ObjectIdOf("dt").ok());
  Exec(engine,
       "CREATE DYNAMIC TABLE ok_dt TARGET_LAG = '1 minute' WAREHOUSE = wh "
       "AS SELECT a FROM t");

  std::string live_fp = Fingerprint(engine, nullptr);
  VirtualClock rclock(0);
  auto recovered = Recover(dir, &rclock);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  rclock.AdvanceTo(clock.Now());
  EXPECT_EQ(Fingerprint(*recovered.value().engine, nullptr), live_fp);
  EXPECT_FALSE(recovered.value().engine->ObjectIdOf("dt").ok());
  ExpectSameRows(engine, *recovered.value().engine,
                 "SELECT a FROM ok_dt ORDER BY a");
}

TEST(RecoveryAlterTest, TargetLagChangeSurvivesAndReschedules) {
  const std::string dir = UniqueDir("alter");
  VirtualClock clock(0);
  DvsEngine engine(clock);
  auto manager = Manager::Open({dir}).take();
  ASSERT_TRUE(manager->Attach(&engine).ok());

  Exec(engine, "CREATE TABLE t (a INT)");
  Exec(engine, "INSERT INTO t VALUES (1)");
  Exec(engine,
       "CREATE DYNAMIC TABLE dt TARGET_LAG = '2 minutes' WAREHOUSE = wh "
       "AS SELECT a FROM t");

  SchedulerOptions opts;
  opts.persistence = manager.get();
  Scheduler sched(&engine, &clock, opts);
  ObjectId dt = engine.ObjectIdOf("dt").value();
  EXPECT_EQ(sched.RefreshPeriod(dt), 48 * kMicrosPerSecond);

  Exec(engine, "ALTER DYNAMIC TABLE dt SET TARGET_LAG = '8 minutes'");
  // The scheduler rereads the definition: new period next tick.
  EXPECT_EQ(sched.RefreshPeriod(dt), 192 * kMicrosPerSecond);
  sched.RunUntil(20 * kMicrosPerMinute);

  Exec(engine, "ALTER DYNAMIC TABLE dt SUSPEND");

  SchedulerPersistState live_state = sched.ExportState();
  std::string live_fp = Fingerprint(engine, &live_state);

  VirtualClock rclock(0);
  auto recovered = Recover(dir, &rclock);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  RecoveredSystem sys = recovered.take();
  rclock.AdvanceTo(clock.Now());
  EXPECT_EQ(Fingerprint(*sys.engine, &sys.sched), live_fp);

  const CatalogObject* rdt = sys.engine->catalog().Find("dt").value();
  EXPECT_EQ(rdt->dt->def.target_lag.duration, 8 * kMicrosPerMinute);
  EXPECT_EQ(rdt->dt->state, DtState::kSuspended);

  Exec(*sys.engine, "ALTER DYNAMIC TABLE dt RESUME");
  EXPECT_EQ(sys.engine->catalog().Find("dt").value()->dt->state,
            DtState::kActive);

  // DOWNSTREAM is accepted too.
  Exec(*sys.engine, "ALTER DYNAMIC TABLE dt SET TARGET_LAG = DOWNSTREAM");
  EXPECT_TRUE(
      sys.engine->catalog().Find("dt").value()->dt->def.target_lag.downstream);
}

// The documented restart flow is Recover -> Attach a fresh manager -> import
// the scheduler state. The Attach checkpoint must carry that scheduler state:
// if it did not, a second crash before the first policy checkpoint would
// recover an empty refresh log and last_run = 0.
TEST(RecoveryCheckpointTest, ReAttachCheckpointCarriesSchedulerState) {
  const std::string dir = UniqueDir("reattach");
  VirtualClock clock(0);
  DvsEngine engine(clock);
  auto manager = Manager::Open({dir}).take();
  ASSERT_TRUE(manager->Attach(&engine).ok());
  SchedulerOptions opts;
  opts.persistence = manager.get();
  Scheduler sched(&engine, &clock, opts);
  BuildPipeline(engine);
  int next_key = 0;
  Churn(engine, sched, 0, 4, &next_key);
  const std::string live_log = LogBytes(sched.log());
  ASSERT_FALSE(live_log.empty());

  // Restart: recover, re-attach with the recovered scheduler state, and
  // "crash" again immediately — before any tick or policy checkpoint.
  VirtualClock rclock(0);
  auto recovered = Recover(dir, &rclock);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  RecoveredSystem sys = recovered.take();
  auto manager2 = Manager::Open({dir}).take();
  ASSERT_TRUE(manager2->Attach(sys.engine.get(), &sys.sched).ok());

  VirtualClock r2clock(0);
  auto again = Recover(dir, &r2clock);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(LogBytes(again.value().sched.log), live_log)
      << "refresh log lost across re-attach + immediate crash";
  EXPECT_EQ(again.value().sched.last_run, sys.sched.last_run);
}

TEST(RecoveryCheckpointTest, PolicyRotatesWalAndOldGenerationsAreDropped) {
  const std::string dir = UniqueDir("policy");
  VirtualClock clock(0);
  DvsEngine engine(clock);
  ManagerOptions mopts;
  mopts.dir = dir;
  mopts.checkpoint_every_n_ticks = 2;
  mopts.retain_checkpoints = 1;
  auto manager = Manager::Open(mopts).take();
  ASSERT_TRUE(manager->Attach(&engine).ok());
  EXPECT_EQ(manager->generation(), 0u);

  SchedulerOptions opts;
  opts.persistence = manager.get();
  Scheduler sched(&engine, &clock, opts);
  BuildPipeline(engine);
  int next_key = 0;
  Churn(engine, sched, 0, 8, &next_key);

  // 8 ticks / policy 2 => several checkpoints; WAL rotated each time.
  EXPECT_GE(manager->checkpoints_taken(), 4u);
  EXPECT_GT(manager->generation(), 2u);
  EXPECT_GT(manager->stats().checkpoint_bytes.load(), 0u);
  EXPECT_GT(manager->stats().wal_bytes.load(), 0u);

  // Only the retained generations remain on disk.
  size_t checkpoints = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    checkpoints += entry.path().filename().string().rfind("checkpoint-", 0) ==
                   0;
  }
  EXPECT_LE(checkpoints, 2u);

  SchedulerPersistState live_state = sched.ExportState();
  std::string live_fp = Fingerprint(engine, &live_state);
  VirtualClock rclock(0);
  auto recovered = Recover(dir, &rclock);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  rclock.AdvanceTo(clock.Now());
  EXPECT_EQ(Fingerprint(*recovered.value().engine, &recovered.value().sched),
            live_fp);
}

uint64_t CounterValue(obs::Registry& reg, const std::string& name) {
  for (const obs::MetricSample& s : reg.Snapshot().samples) {
    if (s.name == name) return static_cast<uint64_t>(s.value);
  }
  ADD_FAILURE() << name << " not registered";
  return 0;
}

TEST(RecoveryCheckpointTest, FailedPolicyCheckpointIsCountedAndRetried) {
  const std::string dir = UniqueDir("ckpt_fail");
  VirtualClock clock(0);
  DvsEngine engine(clock);
  ManagerOptions mopts;
  mopts.dir = dir;
  mopts.checkpoint_every_n_ticks = 2;
  auto manager = Manager::Open(mopts).take();
  ASSERT_TRUE(manager->Attach(&engine).ok());

  obs::Registry reg;
  SchedulerOptions opts;
  opts.persistence = manager.get();
  opts.metrics = &reg;
  Scheduler sched(&engine, &clock, opts);
  BuildPipeline(engine);
  const uint64_t taken = manager->checkpoints_taken();  // Attach's
  const uint64_t gen = manager->generation();

  // The next checkpoint file cannot be opened; the WAL is untouched.
  fault::FaultInjector inj(5);
  fault::SiteConfig cfg;
  cfg.max_fires = 1;
  cfg.scope_filter = "checkpoint-";
  cfg.message = "disk full";
  inj.Arm(fault::kSitePersistFileOpen, cfg);
  fault::ScopedInjector active(&inj);

  // Step 0 runs two ticks: the policy checkpoint at the second one fails.
  int next_key = 0;
  Churn(engine, sched, 0, 1, &next_key);
  EXPECT_EQ(CounterValue(reg, "persist.checkpoint_failures"), 1u);
  EXPECT_EQ(manager->checkpoints_taken(), taken);
  EXPECT_EQ(manager->generation(), gen);

  // The WAL stays authoritative: it alone recovers the live state.
  SchedulerPersistState live_state = sched.ExportState();
  {
    VirtualClock rclock(0);
    auto recovered = Recover(dir, &rclock);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_EQ(
        Fingerprint(*recovered.value().engine, &recovered.value().sched),
        Fingerprint(engine, &live_state));
  }

  // The policy was not reset, so the very next tick retries and succeeds.
  sched.RunUntil(clock.Now() + kCanonicalBasePeriod);
  EXPECT_EQ(manager->checkpoints_taken(), taken + 1);
  EXPECT_EQ(manager->generation(), gen + 1);
  EXPECT_EQ(CounterValue(reg, "persist.checkpoint_failures"), 1u);

  live_state = sched.ExportState();
  VirtualClock rclock(0);
  auto recovered = Recover(dir, &rclock);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(Fingerprint(*recovered.value().engine, &recovered.value().sched),
            Fingerprint(engine, &live_state));
}

TEST(RetentionTest, PruneBoundsVersionsWhileRefreshesSucceed) {
  const std::string dir = UniqueDir("retention");
  VirtualClock clock(0);
  DvsEngine engine(clock);
  auto manager = Manager::Open({dir, /*checkpoint_every_n_ticks=*/6}).take();
  ASSERT_TRUE(manager->Attach(&engine).ok());

  Exec(engine,
       "CREATE TABLE src (k INT, v INT) MIN_DATA_RETENTION = '4 minutes'");
  Exec(engine, "INSERT INTO src VALUES (1, 10), (2, 20)");
  Exec(engine,
       "CREATE DYNAMIC TABLE agg TARGET_LAG = '2 minutes' WAREHOUSE = wh "
       "MIN_DATA_RETENTION = '4 minutes' "
       "AS SELECT k, COUNT(*) AS c, SUM(v) AS s FROM src GROUP BY k");
  ASSERT_TRUE(
      engine.catalog().Find("agg").value()->dt->incremental);

  SchedulerOptions opts;
  opts.persistence = manager.get();
  Scheduler sched(&engine, &clock, opts);

  const int kTicks = 40;
  for (int i = 1; i <= kTicks; ++i) {
    Exec(engine, "INSERT INTO src VALUES (" + std::to_string(i % 7) + ", " +
                     std::to_string(i) + ")");
    if (i % 4 == 0) {
      // Deletes rewrite touched partitions (copy-on-write); once the
      // replaced partitions age past the window, GC frees them.
      Exec(engine, "DELETE FROM src WHERE v < " + std::to_string(i - 10));
    }
    sched.RunUntil(kCanonicalBasePeriod * 2 * i);
  }

  // Every scheduled refresh succeeded — pruning never ate a frontier.
  int incremental = 0;
  for (const RefreshRecord& rec : sched.log()) {
    EXPECT_FALSE(rec.failed) << rec.error;
    EXPECT_FALSE(rec.skipped) << rec.error;
    incremental += rec.action == RefreshAction::kIncremental;
  }
  EXPECT_GT(incremental, kTicks / 2);

  const VersionedTable& src = *engine.catalog().Find("src").value()->storage;
  const VersionedTable& agg = *engine.catalog().Find("agg").value()->storage;
  // GC fired and bounded the retained versions: a 4-minute window over a
  // 96-second cadence keeps a handful of versions, not one per commit.
  EXPECT_GT(src.stats().versions_pruned.load(), 0u);
  EXPECT_GT(src.stats().partitions_freed.load(), 0u);
  EXPECT_GT(agg.stats().versions_pruned.load(), 0u);
  EXPECT_LE(src.version_count(), 8u);
  EXPECT_LE(agg.version_count(), 8u);
  EXPECT_GT(src.first_version(), 1u);

  // The DT still equals its defining query at its data timestamp (§6.1).
  Micros data_ts = engine.catalog().Find("agg").value()->dt->data_timestamp;
  auto oracle = engine.QueryAsOf(
      "SELECT k, COUNT(*) AS c, SUM(v) AS s FROM src GROUP BY k", data_ts);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  std::vector<Row> stored = Rows(engine, "SELECT k, c, s FROM agg");
  std::vector<Row> expect = oracle.take();
  std::sort(stored.begin(), stored.end(), RowLess);
  std::sort(expect.begin(), expect.end(), RowLess);
  ASSERT_EQ(stored.size(), expect.size());
  for (size_t i = 0; i < stored.size(); ++i) {
    EXPECT_TRUE(RowsEqual(stored[i], expect[i]));
  }

  // Out-of-retention time travel now fails like production would: a clear
  // Status error, never a silently wrong (e.g. empty) snapshot.
  EXPECT_EQ(src.ResolveVersionAt(HlcTimestamp::AtWallTime(1)),
            kInvalidVersionId);
  auto below = engine.QueryAsOf("SELECT k, v FROM src", 1);
  ASSERT_FALSE(below.ok());
  EXPECT_NE(below.status().message().find("retention window"),
            std::string::npos)
      << below.status().ToString();
  // Inside the window (the DT's own data timestamp) stays exact — checked
  // against the oracle above.
  EXPECT_TRUE(engine.QueryAsOf("SELECT k, v FROM src", data_ts).ok());

  // Pruning replays: the recovered system matches the live one.
  SchedulerPersistState live_state = sched.ExportState();
  std::string live_fp = Fingerprint(engine, &live_state);
  VirtualClock rclock(0);
  auto recovered = Recover(dir, &rclock);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  rclock.AdvanceTo(clock.Now());
  EXPECT_EQ(Fingerprint(*recovered.value().engine, &recovered.value().sched),
            live_fp);
  const VersionedTable& rsrc =
      *recovered.value().engine->catalog().Find("src").value()->storage;
  EXPECT_EQ(rsrc.first_version(), src.first_version());
  EXPECT_EQ(rsrc.version_count(), src.version_count());
}

TEST(RetentionTest, KeepFromRespectsDownstreamFrontier) {
  // A suspended (stale) downstream pins the upstream's versions even when
  // the time-travel window would allow pruning them.
  VirtualClock clock(0);
  DvsEngine engine(clock);
  Exec(engine, "CREATE TABLE t (a INT) MIN_DATA_RETENTION = '1 minute'");
  Exec(engine, "INSERT INTO t VALUES (1)");
  Exec(engine,
       "CREATE DYNAMIC TABLE d TARGET_LAG = '1 minute' WAREHOUSE = wh "
       "AS SELECT a FROM t");
  CatalogObject* t = engine.catalog().Find("t").value();
  const CatalogObject* d = engine.catalog().Find("d").value();
  VersionId frontier = d->dt->frontier.at(t->id);

  // Age the table far past the window with more commits.
  for (int i = 0; i < 5; ++i) {
    clock.Advance(10 * kMicrosPerMinute);
    Exec(engine, "INSERT INTO t VALUES (" + std::to_string(i + 2) + ")");
  }
  VersionId keep = RetentionKeepFrom(engine.catalog(), *t, clock.Now());
  ASSERT_NE(keep, kInvalidVersionId);
  EXPECT_LE(keep, frontier);

  PruneOutcome pruned = ApplyPruneToObject(t, keep);
  EXPECT_GT(pruned.versions_pruned, 0u);
  EXPECT_TRUE(t->storage->has_version(frontier));

  // The downstream still refreshes incrementally across the prune.
  clock.Advance(kMicrosPerMinute);
  auto r = engine.refresh_engine().Refresh(d->id, clock.Now());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().action, RefreshAction::kIncremental);
}

TEST(RetentionTest, NoRetentionMeansNoPruning) {
  VirtualClock clock(0);
  DvsEngine engine(clock);
  Exec(engine, "CREATE TABLE t (a INT)");
  for (int i = 0; i < 10; ++i) {
    clock.Advance(kMicrosPerHour);
    Exec(engine, "INSERT INTO t VALUES (1)");
  }
  CatalogObject* t = engine.catalog().Find("t").value();
  EXPECT_EQ(RetentionKeepFrom(engine.catalog(), *t, clock.Now()),
            kInvalidVersionId);
  RetentionOutcome out = RunRetentionGc(engine.catalog(), clock.Now(), nullptr);
  EXPECT_EQ(out.versions_pruned, 0u);
  EXPECT_EQ(t->storage->version_count(), 11u);
}

TEST(RecoveryReclusterTest, MaintenanceRewriteSurvivesRestart) {
  // Recluster bypasses both the transaction manager and the refresh engine;
  // the per-table maintenance hook journals it, and replay re-runs the
  // deterministic repack to the same partition layout.
  const std::string dir = UniqueDir("recluster");
  VirtualClock clock(0);
  DvsEngine engine(clock);
  auto manager = Manager::Open({dir}).take();
  ASSERT_TRUE(manager->Attach(&engine).ok());

  Exec(engine, "CREATE TABLE t (a INT)");
  Exec(engine, "INSERT INTO t VALUES (1), (2), (3)");
  Exec(engine, "DELETE FROM t WHERE a = 2");
  CatalogObject* t = engine.catalog().Find("t").value();
  VersionId v = t->storage->Recluster(engine.txn().NextCommitTimestamp());
  EXPECT_TRUE(t->storage->version(v).data_equivalent);
  Exec(engine, "INSERT INTO t VALUES (4)");  // commits on top of the repack
  ASSERT_TRUE(manager->wal_status().ok()) << manager->wal_status().ToString();

  std::string live_fp = Fingerprint(engine, nullptr);
  VirtualClock rclock(0);
  auto recovered = Recover(dir, &rclock);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  rclock.AdvanceTo(clock.Now());
  EXPECT_EQ(Fingerprint(*recovered.value().engine, nullptr), live_fp);
  const VersionedTable& rt =
      *recovered.value().engine->catalog().Find("t").value()->storage;
  EXPECT_EQ(rt.latest_version(), t->storage->latest_version());
  EXPECT_TRUE(rt.version(v).data_equivalent);
}

TEST(RecoveryFailureTest, AutoSuspendAccountingSurvivesRestart) {
  const std::string dir = UniqueDir("failure");
  VirtualClock clock(0);
  DvsEngine engine(clock);
  auto manager = Manager::Open({dir}).take();
  ASSERT_TRUE(manager->Attach(&engine).ok());

  Exec(engine, "CREATE TABLE t (a INT)");
  Exec(engine, "INSERT INTO t VALUES (1)");
  Exec(engine,
       "CREATE DYNAMIC TABLE dt TARGET_LAG = '1 minute' WAREHOUSE = wh "
       "AS SELECT a FROM t");
  Exec(engine, "DROP TABLE t");

  // Failing refreshes count toward auto-suspend (§3.3.3).
  ObjectId dt = engine.ObjectIdOf("dt").value();
  for (int i = 0; i < 2; ++i) {
    clock.Advance(kMicrosPerMinute);
    auto r = engine.refresh_engine().Refresh(dt, clock.Now());
    EXPECT_FALSE(r.ok());
  }
  EXPECT_EQ(engine.catalog().Find("dt").value()->dt->consecutive_failures, 2);

  VirtualClock rclock(0);
  auto recovered = Recover(dir, &rclock);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(
      recovered.value().engine->catalog().Find("dt").value()->dt
          ->consecutive_failures,
      2);
}

// Satellite: the failing Status (code + message), retry attempts, and
// accumulated backoff on every refresh-log record round-trip through the
// WAL / checkpoint into recovery — and the kRefreshFailure journal replays
// the transient-failure accounting exactly, so a restarted system keeps the
// same "never counts toward auto-suspend" bookkeeping as the live one.
TEST_P(RecoveryTest, TransientRetryAccountingRoundTripsThroughRecovery) {
  const int workers = GetParam();
  const std::string dir = UniqueDir("retry_w" + std::to_string(workers));

  VirtualClock clock(0);
  DvsEngine engine(clock);
  auto manager = Manager::Open({dir, /*checkpoint_every_n_ticks=*/3}).take();
  ASSERT_TRUE(manager->Attach(&engine).ok());

  SchedulerOptions opts;
  opts.worker_threads = workers;
  opts.persistence = manager.get();
  Scheduler sched(&engine, &clock, opts);
  BuildPipeline(engine);

  // Every agg refresh attempt fails transiently: each scheduled run
  // exhausts its 3 attempts (1s + 2s backoff) and degrades gracefully.
  fault::FaultInjector inj(/*seed=*/7);
  fault::SiteConfig cfg;
  cfg.code = StatusCode::kUnavailable;
  cfg.message = "replica fetch timed out";
  cfg.scope_filter = "agg";
  inj.Arm(fault::kSiteRefreshExecute, cfg);

  int next_key = 100;
  {
    fault::ScopedInjector active(&inj);
    Churn(engine, sched, 0, 3, &next_key);
  }
  ASSERT_TRUE(manager->wal_status().ok()) << manager->wal_status().ToString();

  int failed = 0;
  for (const RefreshRecord& rec : sched.log()) {
    if (rec.dt_name != "agg" || !rec.failed) continue;
    failed += 1;
    EXPECT_EQ(rec.error_code, StatusCode::kUnavailable);
    EXPECT_EQ(rec.attempts, 3);
    EXPECT_EQ(rec.retry_backoff, 3 * kMicrosPerSecond);
    EXPECT_NE(rec.error.find("replica fetch timed out"), std::string::npos);
    EXPECT_NE(rec.error.find(fault::kSiteRefreshExecute), std::string::npos);
  }
  ASSERT_GT(failed, 0);
  const CatalogObject* agg = engine.catalog().Find("agg").value();
  EXPECT_EQ(agg->dt->state, DtState::kActive) << "transients must not suspend";
  EXPECT_EQ(agg->dt->consecutive_failures, 0);
  EXPECT_EQ(agg->dt->transient_failures, 3 * failed);

  // Restart mid-degradation: the retry accounting recovers field-for-field.
  SchedulerPersistState live_state = sched.ExportState();
  VirtualClock rclock(0);
  auto recovered = Recover(dir, &rclock);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  RecoveredSystem sys = recovered.take();
  rclock.AdvanceTo(clock.Now());
  EXPECT_EQ(Fingerprint(*sys.engine, &sys.sched),
            Fingerprint(engine, &live_state));
  ASSERT_EQ(sys.sched.log.size(), sched.log().size());
  for (size_t i = 0; i < sched.log().size(); ++i) {
    const RefreshRecord& live = sched.log()[i];
    const RefreshRecord& rec = sys.sched.log[i];
    EXPECT_EQ(rec.error_code, live.error_code) << "record " << i;
    EXPECT_EQ(rec.attempts, live.attempts) << "record " << i;
    EXPECT_EQ(rec.retry_backoff, live.retry_backoff) << "record " << i;
    EXPECT_EQ(rec.error, live.error) << "record " << i;
  }
  const CatalogObject* ragg = sys.engine->catalog().Find("agg").value();
  EXPECT_EQ(ragg->dt->transient_failures, agg->dt->transient_failures);
  EXPECT_EQ(ragg->dt->consecutive_failures, 0);
  EXPECT_EQ(ragg->dt->state, DtState::kActive);

  // Faults stop; live and recovered continue identically and converge.
  SchedulerOptions ropts;
  ropts.worker_threads = workers;
  Scheduler rsched(sys.engine.get(), &rclock, ropts);
  rsched.ImportState(sys.sched);
  int live_key = next_key, rec_key = next_key;
  Churn(engine, sched, 3, 3, &live_key);
  Churn(*sys.engine, rsched, 3, 3, &rec_key);
  EXPECT_EQ(LogBytes(rsched.log()), LogBytes(sched.log()));
  ExpectSameRows(engine, *sys.engine, "SELECT k, c, s FROM agg ORDER BY k");
  ExpectSameRows(engine, *sys.engine, "SELECT k, s FROM wide ORDER BY k");
  EXPECT_EQ(agg->dt->transient_failures, 0) << "success resets the counter";
  EXPECT_EQ(ragg->dt->transient_failures, 0);
}

// Satellite: injected *permanent* failures drive auto-suspend (§3.3.3)
// exactly as a real bug would, the suspension survives a restart, and the
// ALTER RESUME + post-resume successes recover byte-identically too.
TEST_P(RecoveryTest, InjectedPermanentFailuresSuspendResumeAndRecover) {
  const int workers = GetParam();
  const std::string dir = UniqueDir("suspend_w" + std::to_string(workers));

  VirtualClock clock(0);
  DvsEngine engine(clock);
  auto manager = Manager::Open({dir, /*checkpoint_every_n_ticks=*/4}).take();
  ASSERT_TRUE(manager->Attach(&engine).ok());

  SchedulerOptions opts;
  opts.worker_threads = workers;
  opts.persistence = manager.get();
  Scheduler sched(&engine, &clock, opts);
  BuildPipeline(engine);

  fault::FaultInjector inj(/*seed=*/11);
  fault::SiteConfig cfg;
  cfg.code = StatusCode::kInternal;
  cfg.message = "metadata corrupted";
  cfg.scope_filter = "agg";
  inj.Arm(fault::kSiteRefreshExecute, cfg);

  int next_key = 100;
  {
    fault::ScopedInjector active(&inj);
    Churn(engine, sched, 0, 4, &next_key);
  }
  const CatalogObject* agg = engine.catalog().Find("agg").value();
  ASSERT_EQ(agg->dt->state, DtState::kSuspended);
  EXPECT_EQ(agg->dt->consecutive_failures, 5);
  EXPECT_EQ(agg->dt->transient_failures, 0);
  int failed = 0;
  for (const RefreshRecord& rec : sched.log()) {
    if (rec.dt_name != "agg" || !rec.failed) continue;
    failed += 1;
    EXPECT_EQ(rec.error_code, StatusCode::kInternal);
    EXPECT_EQ(rec.attempts, 1) << "permanent failures never retry";
    EXPECT_EQ(rec.retry_backoff, 0);
    EXPECT_NE(rec.error.find("metadata corrupted"), std::string::npos);
  }
  EXPECT_EQ(failed, 5) << "suspension after max_consecutive_failures";

  // Restart while suspended: the suspension and its accounting persist.
  {
    VirtualClock rclock(0);
    auto recovered = Recover(dir, &rclock);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    const CatalogObject* ragg =
        recovered.value().engine->catalog().Find("agg").value();
    EXPECT_EQ(ragg->dt->state, DtState::kSuspended);
    EXPECT_EQ(ragg->dt->consecutive_failures, 5);
  }

  // Operator intervention: RESUME, then clean ticks.
  Exec(engine, "ALTER DYNAMIC TABLE agg RESUME");
  EXPECT_EQ(agg->dt->state, DtState::kActive);
  EXPECT_EQ(agg->dt->consecutive_failures, 0);
  Churn(engine, sched, 4, 2, &next_key);
  for (auto it = sched.log().rbegin(); it != sched.log().rend(); ++it) {
    if (it->dt_name != "agg") continue;
    EXPECT_FALSE(it->failed) << it->error;
    break;
  }

  SchedulerPersistState live_state = sched.ExportState();
  VirtualClock rclock(0);
  auto recovered = Recover(dir, &rclock);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  RecoveredSystem sys = recovered.take();
  rclock.AdvanceTo(clock.Now());
  EXPECT_EQ(Fingerprint(*sys.engine, &sys.sched),
            Fingerprint(engine, &live_state));
  EXPECT_EQ(LogBytes(sys.sched.log), LogBytes(sched.log()));
  const CatalogObject* ragg = sys.engine->catalog().Find("agg").value();
  EXPECT_EQ(ragg->dt->state, DtState::kActive);
  EXPECT_EQ(ragg->dt->consecutive_failures, 0);
  ExpectSameRows(engine, *sys.engine, "SELECT k, c, s FROM agg ORDER BY k");
}

}  // namespace
}  // namespace persist
}  // namespace dvs
