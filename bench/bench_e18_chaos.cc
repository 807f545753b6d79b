// E18 — chaos harness for the fault-injection framework (src/fault/): the
// robustness gates of the refresh + durability stack under deterministic,
// seed-driven faults. Every datapoint lands in BENCH_E18.json (stable flat
// points schema; see ROADMAP.md "Robustness architecture").
//
// Shape checks:
//   - determinism: the same chaos seed produces a byte-identical refresh log
//     and system fingerprint at worker_threads 0 and 4 — injected faults are
//     part of the deterministic simulation, not a source of flakiness;
//   - convergence: once faults stop, every DT converges to the contents of a
//     run that never saw a fault (graceful degradation, not divergence);
//   - crash-mid-retry recovery: crashing while a transient-retry backoff is
//     still pending recovers fingerprint-identically, and the recovered
//     scheduler continues exactly like the live one (retry accounting is
//     journaled, not in-memory-only);
//   - permanent faults still auto-suspend at the threshold, transient ones
//     never do, and ALTER RESUME + recovery restores a clean slate.
//
// `--smoke` runs the tiny tier (the `chaos-smoke` ctest target).

#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "fault/injector.h"
#include "persist/manager.h"
#include "persist/recover.h"
#include "sched/scheduler.h"

using namespace dvs;
namespace fs = std::filesystem;

namespace {

struct Tier {
  int rounds;       // scheduler rounds (two 48s ticks each)
  int fault_rounds; // rounds with the injector installed (<= rounds)
};

/// How one chaos run arms its injector.
struct ChaosConfig {
  uint64_t seed = 1;
  double refresh_p = 0.0;    // refresh.execute, transient (kUnavailable)
  double outage_p = 0.0;     // warehouse.outage, burst 2
  bool permanent_agg = false;  // refresh.execute on agg only, kInternal
  int agg_unavailable_fires = 0;  // refresh.execute on agg, p=1, max_fires=N
};

struct ChaosOutcome {
  std::string log_bytes;
  std::string fingerprint;
  std::map<std::string, std::vector<std::string>> contents;
  Micros live_now = 0;
  uint64_t fires = 0;
  int failed = 0;
  int skipped = 0;
  int retried = 0;  // successful records that needed > 1 attempt
  int consecutive_failures = 0;
  int transient_failures = 0;
  bool suspended = false;
  bool resumed_ok = true;
};

std::string LogBytes(const std::vector<RefreshRecord>& log) {
  persist::Encoder e;
  for (const RefreshRecord& r : log) persist::EncodeRefreshRecordInto(&e, r);
  return e.Take();
}

std::vector<std::string> SortedRows(DvsEngine& engine, const std::string& dt) {
  auto q = engine.Query("SELECT * FROM " + dt);
  if (!q.ok()) return {"<error: " + q.status().ToString() + ">"};
  std::vector<std::string> rows;
  for (const Row& r : q.value().rows) {
    std::string line;
    for (const Value& v : r) line += v.ToString() + "|";
    rows.push_back(std::move(line));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

void ArmInjector(fault::FaultInjector* inj, const ChaosConfig& cfg) {
  if (cfg.refresh_p > 0) {
    fault::SiteConfig site;
    site.probability = cfg.refresh_p;
    site.message = "injected refresh flap";
    inj->Arm(fault::kSiteRefreshExecute, site);
  }
  if (cfg.outage_p > 0) {
    fault::SiteConfig site;
    site.probability = cfg.outage_p;
    site.burst = 2;
    site.message = "injected warehouse outage";
    inj->Arm(fault::kSiteWarehouseOutage, site);
  }
  if (cfg.permanent_agg) {
    fault::SiteConfig site;
    site.probability = 1.0;
    site.scope_filter = "agg";
    site.code = StatusCode::kInternal;
    site.message = "injected permanent failure";
    inj->Arm(fault::kSiteRefreshExecute, site);
  }
  if (cfg.agg_unavailable_fires > 0) {
    fault::SiteConfig site;
    site.probability = 1.0;
    site.max_fires = cfg.agg_unavailable_fires;
    site.scope_filter = "agg";
    site.message = "injected storage stall";
    inj->Arm(fault::kSiteRefreshExecute, site);
  }
}

/// One chaos pipeline run: src -> incremental agg DT -> downstream filter DT,
/// churned for `tier.rounds` rounds with the injector installed during the
/// first `tier.fault_rounds`. With a non-empty `dir`, the run is journaled
/// through a persist::Manager. With `resume_after_suspend`, agg is resumed
/// (and the injector disarmed) once it auto-suspends.
ChaosOutcome RunChaos(int workers, Tier tier, const ChaosConfig& cfg,
                      const std::string& dir, SchedulerOptions opts,
                      bool resume_after_suspend = false) {
  VirtualClock clock(0);
  DvsEngine engine(clock);
  std::unique_ptr<persist::Manager> manager;
  if (!dir.empty()) {
    fs::remove_all(dir);
    persist::ManagerOptions mopts;
    mopts.dir = dir;
    mopts.checkpoint_every_n_ticks = 5;
    auto opened = persist::Manager::Open(mopts);
    if (!opened.ok()) {
      std::printf("FATAL: open: %s\n", opened.status().ToString().c_str());
      std::exit(1);
    }
    manager = opened.take();
    Status attached = manager->Attach(&engine);
    if (!attached.ok()) {
      std::printf("FATAL: attach: %s\n", attached.ToString().c_str());
      std::exit(1);
    }
    opts.persistence = manager.get();
  }
  opts.worker_threads = workers;

  bench::Run(engine, "CREATE TABLE src (k INT, v INT)");
  bench::Run(engine, "INSERT INTO src VALUES (1, 10), (2, 20), (3, 30)");
  bench::Run(engine,
             "CREATE DYNAMIC TABLE agg TARGET_LAG = '2 minutes' "
             "WAREHOUSE = wh AS "
             "SELECT k, COUNT(*) AS c, SUM(v) AS s FROM src GROUP BY k");
  bench::Run(engine,
             "CREATE DYNAMIC TABLE hot TARGET_LAG = '4 minutes' "
             "WAREHOUSE = wh2 AS SELECT k, s FROM agg WHERE c >= 1");

  Scheduler sched(&engine, &clock, opts);
  fault::FaultInjector inj(cfg.seed);
  ArmInjector(&inj, cfg);

  ChaosOutcome out;
  bool armed = false;
  bool chaos_over = false;  ///< Resume-after-suspend ends the fault window.
  for (int i = 1; i <= tier.rounds; ++i) {
    bool want_armed = !chaos_over && i <= tier.fault_rounds;
    if (want_armed != armed) {
      fault::InstallInjector(want_armed ? &inj : nullptr);
      armed = want_armed;
    }
    bench::Run(engine, "INSERT INTO src VALUES (" + std::to_string(100 + i) +
                           ", " + std::to_string(i) + ")");
    sched.RunUntil(2 * kCanonicalBasePeriod * i);
    if (resume_after_suspend &&
        engine.catalog().Find("agg").value()->dt->state ==
            DtState::kSuspended) {
      out.suspended = true;
      fault::InstallInjector(nullptr);
      armed = false;
      chaos_over = true;
      auto r = engine.Execute("ALTER DYNAMIC TABLE agg RESUME");
      out.resumed_ok = out.resumed_ok && r.ok();
      resume_after_suspend = false;  // resume once
    }
  }
  fault::InstallInjector(nullptr);

  out.fires = inj.total_fires();
  for (const RefreshRecord& rec : sched.log()) {
    out.failed += rec.failed;
    out.skipped += rec.skipped;
    out.retried += !rec.failed && !rec.skipped && rec.attempts > 1;
  }
  const DynamicTableMeta* agg = engine.catalog().Find("agg").value()->dt.get();
  out.consecutive_failures = agg->consecutive_failures;
  out.transient_failures = agg->transient_failures;
  out.suspended = out.suspended || agg->state == DtState::kSuspended;
  out.live_now = clock.Now();
  out.log_bytes = LogBytes(sched.log());
  for (const char* dt : {"agg", "hot"}) out.contents[dt] = SortedRows(engine, dt);
  SchedulerPersistState state = sched.ExportState();
  out.fingerprint =
      persist::EncodeSystemImage(persist::CaptureSystemImage(engine, &state));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  const Tier tier = smoke ? Tier{8, 4} : Tier{24, 12};
  const std::vector<uint64_t> seeds =
      smoke ? std::vector<uint64_t>{20250807}
            : std::vector<uint64_t>{20250807, 7, 404};
  const std::string base = "e18_chaos_dir";

  bench::BenchJson json("E18",
                        "Chaos: deterministic fault injection, transient "
                        "retry/backoff, graceful degradation, and "
                        "crash-mid-retry recovery");
  json.meta()
      .Str("workload", "base + incremental agg DT + downstream filter DT")
      .Bool("smoke", smoke)
      .Int("rounds", tier.rounds)
      .Int("fault_rounds", tier.fault_rounds);

  std::printf("== E18 chaos (%s tier) ==\n", smoke ? "smoke" : "full");

  // ---- Determinism sweep: same seed, worker_threads 0 vs 4, twice. ----
  for (uint64_t seed : seeds) {
    ChaosConfig cfg;
    cfg.seed = seed;
    cfg.refresh_p = 0.25;
    cfg.outage_p = 0.15;
    ChaosOutcome serial = RunChaos(0, tier, cfg, "", {});
    ChaosOutcome parallel = RunChaos(4, tier, cfg, "", {});
    ChaosOutcome again = RunChaos(4, tier, cfg, "", {});

    bench::Check(serial.fires > 0,
                 ("seed " + std::to_string(seed) + ": chaos actually fired")
                     .c_str());
    bench::Check(serial.failed + serial.skipped > 0,
                 "faults produced failed/skipped records");
    bench::Check(serial.log_bytes == parallel.log_bytes,
                 "refresh log byte-identical at worker_threads 0 and 4");
    bench::Check(serial.fingerprint == parallel.fingerprint,
                 "system fingerprint identical at worker_threads 0 and 4");
    bench::Check(parallel.log_bytes == again.log_bytes &&
                     parallel.fingerprint == again.fingerprint,
                 "repeat run with the same seed is byte-identical");
    bench::Check(serial.consecutive_failures == 0 && !serial.suspended,
                 "transient chaos never advanced auto-suspend accounting");

    json.AddPoint("determinism")
        .Str("phase", "determinism")
        .Int("seed", static_cast<int64_t>(seed))
        .Int("fires", static_cast<int64_t>(serial.fires))
        .Int("failed_records", serial.failed)
        .Int("skipped_records", serial.skipped)
        .Int("retried_successes", serial.retried)
        .Int("log_bytes", static_cast<int64_t>(serial.log_bytes.size()))
        .Bool("deterministic", serial.log_bytes == parallel.log_bytes &&
                                   serial.fingerprint == parallel.fingerprint);
    std::printf("determinism: seed=%llu fires=%llu failed=%d skipped=%d "
                "retried=%d\n",
                (unsigned long long)seed, (unsigned long long)serial.fires,
                serial.failed, serial.skipped, serial.retried);
  }

  // ---- Convergence: faults for the first half, then a clean tail; final
  // contents must equal a run that never saw a fault. ----
  {
    ChaosConfig cfg;
    cfg.seed = seeds[0];
    cfg.refresh_p = 0.3;
    cfg.outage_p = 0.2;
    ChaosOutcome chaotic = RunChaos(4, tier, cfg, "", {});
    ChaosOutcome clean =
        RunChaos(4, {tier.rounds, /*fault_rounds=*/0}, cfg, "", {});

    bench::Check(chaotic.failed + chaotic.skipped > 0,
                 "convergence run saw degradation while faults were armed");
    bench::Check(clean.failed == 0, "fault-free twin never failed");
    bench::Check(chaotic.contents == clean.contents,
                 "DT contents converge to the fault-free run once faults "
                 "stop");
    bench::Check(chaotic.transient_failures == 0,
                 "transient-failure counter reset by post-fault successes");
    json.AddPoint("convergence")
        .Str("phase", "convergence")
        .Int("failed_records", chaotic.failed)
        .Int("skipped_records", chaotic.skipped)
        .Bool("converged", chaotic.contents == clean.contents);
    std::printf("convergence: failed=%d skipped=%d converged=%s\n",
                chaotic.failed, chaotic.skipped,
                chaotic.contents == clean.contents ? "yes" : "no");
  }

  // ---- Crash mid-retry: a transient fault whose backoff spills past the
  // crash point; recovery must be fingerprint-identical and continue the
  // retry accounting exactly. ----
  for (int workers : {0, 4}) {
    ChaosConfig cfg;
    cfg.seed = seeds[0];
    cfg.agg_unavailable_fires = 3;  // one tick of exhausted retries on agg
    SchedulerOptions opts;
    opts.retry_base = 30 * kMicrosPerSecond;   // backoff 30+60 = 90s: the
    opts.retry_cap = 60 * kMicrosPerSecond;    // busy window crosses a tick
    const std::string dir = base + "_retry_w" + std::to_string(workers);
    // Stop ("crash") after round 1: agg's failed record at t=48s carries
    // end_time 138s, so its busy window is still pending at the crash.
    ChaosOutcome live =
        RunChaos(workers, {/*rounds=*/1, /*fault_rounds=*/1}, cfg, dir, opts);

    VirtualClock rclock(0);
    auto recovered = persist::Recover(dir, &rclock);
    bench::Check(recovered.ok(), "crash-mid-retry recovery succeeds");
    if (recovered.ok()) {
      persist::RecoveredSystem sys = recovered.take();
      rclock.AdvanceTo(live.live_now);
      std::string fp = persist::EncodeSystemImage(
          persist::CaptureSystemImage(*sys.engine, &sys.sched));
      bench::Check(fp == live.fingerprint,
                   ("crash-mid-retry recovery fingerprint-identical "
                    "(workers=" + std::to_string(workers) + ")")
                       .c_str());
      bench::Check(LogBytes(sys.sched.log) == live.log_bytes,
                   "recovered refresh log carries the failed-retry record "
                   "byte-identically");
      json.AddPoint("crash_mid_retry")
          .Str("phase", "crash_mid_retry")
          .Int("workers", workers)
          .Int("wal_records_replayed",
               static_cast<int64_t>(sys.wal_records_replayed))
          .Bool("fingerprint_match", fp == live.fingerprint);
    }
    fs::remove_all(dir);
  }

  // ---- Permanent faults: auto-suspend at the threshold, ALTER RESUME +
  // recovery restores a clean slate — at both worker counts. ----
  for (int workers : {0, 4}) {
    ChaosConfig cfg;
    cfg.seed = seeds[0];
    cfg.permanent_agg = true;
    const std::string dir = base + "_suspend_w" + std::to_string(workers);
    ChaosOutcome live = RunChaos(workers, tier, cfg, dir, {},
                                 /*resume_after_suspend=*/true);

    bench::Check(live.suspended,
                 ("permanent faults auto-suspend (workers=" +
                  std::to_string(workers) + ")")
                     .c_str());
    bench::Check(live.resumed_ok, "ALTER RESUME accepted after suspension");
    bench::Check(live.consecutive_failures == 0,
                 "failure counter clean after resume + recovery rounds");

    VirtualClock rclock(0);
    auto recovered = persist::Recover(dir, &rclock);
    bench::Check(recovered.ok(), "post-resume recovery succeeds");
    if (recovered.ok()) {
      rclock.AdvanceTo(live.live_now);
      std::string fp = persist::EncodeSystemImage(persist::CaptureSystemImage(
          *recovered.value().engine, &recovered.value().sched));
      bench::Check(fp == live.fingerprint,
                   "suspend/resume history recovers fingerprint-identically");
      const CatalogObject* agg =
          recovered.value().engine->catalog().Find("agg").value();
      bench::Check(agg->dt->state == DtState::kActive,
                   "recovered DT is active after replayed ALTER RESUME");
      json.AddPoint("auto_suspend")
          .Str("phase", "auto_suspend")
          .Int("workers", workers)
          .Bool("suspended", live.suspended)
          .Bool("fingerprint_match", fp == live.fingerprint);
    }
    fs::remove_all(dir);
  }

  json.WriteFile();
  return bench::Finish();
}
