// E21 — Operator-level refresh profiling: determinism and cost.
//
// The profiling PR's tentpole claim mirrors E20's, one level deeper:
//
//   1. Determinism: every profile counter except wall_ns — per-operator
//      rows_in/rows_out/batches, join-cache and partition-batch-cache
//      hits/misses, sel_memo hits, row redos — derives only
//      from virtual-time work, so an armed fleet run at worker_threads = 0
//      and 4 must render byte-identical REFRESH_PROFILE output (wall_ns
//      projected away in SQL, exactly how a deterministic consumer would)
//      and byte-identical deterministic metrics including the exec.* /
//      storage.batch_cache.* counters this PR registers.
//   2. Cost: profiling is free when disarmed. Every hook site is one
//      atomic load (ProfilingArmed) or one pointer null check; this
//      bench measures the load directly and models armed-site overhead as
//      offered_checks x per_check_cost over the armed run's wall time,
//      gated < 5%.
//
// A report-only section aggregates per-operator wall_ns across every
// retained profile — the EXPLAIN ANALYZE-style breakdown (§where does
// refresh time go), never gated because wall time is nondeterministic.
//
// --smoke runs a small fleet for CI (tier-1 ctest + TSan).

#include <algorithm>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "obs/introspect.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "sched/scheduler.h"
#include "workload/fleet.h"

using namespace dvs;

namespace {

struct RunConfig {
  int worker_threads = 0;
  int pipelines = 24;
  int rounds = 16;
};

struct RunOutcome {
  bool ok = false;
  std::string profile_render;         ///< REFRESH_PROFILE minus wall_ns.
  std::string deterministic_metrics;  ///< DeterministicText fingerprint.
  size_t profile_rows = 0;            ///< Operator rows rendered.
  size_t profiles_retained = 0;       ///< RefreshProfiles across all rings.
  uint64_t profile_sites = 0;         ///< Armed per-operator stat updates.
  int64_t rows_processed = 0;
  double wall_s = 0;
  /// Per-operator wall_ns totals, keyed by operator label (report only).
  std::map<std::string, uint64_t> wall_by_op;
};

/// The deterministic projection of REFRESH_PROFILE: every column except the
/// trailing wall_ns. This is the documented recipe for byte-comparable
/// profile output, exercised here through the SQL surface.
const char kDeterministicColumns[] =
    "name, refresh_ts, action, outcome, operator, op_tag, rows_in, rows_out, "
    "batches, join_build_hits, join_build_misses, join_probe_hits, "
    "join_probe_misses, batch_cache_hits, batch_cache_misses, sel_memo_hits, "
    "row_redos";

std::string RenderResult(const QueryResult& qr) {
  std::string out = qr.schema.ToString();
  out += "\n";
  for (const Row& row : qr.rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i) out += "|";
      out += row[i].ToString();
    }
    out += "\n";
  }
  return out;
}

/// One seeded fleet run with profiling armed: its own engine, scheduler,
/// and registry. Everything in RunOutcome except wall_s and wall_by_op is
/// derived from virtual time and must be byte-identical across worker
/// counts.
RunOutcome RunWorkload(const RunConfig& cfg) {
  RunOutcome out;

  VirtualClock clock(0);
  DvsEngine engine(clock);
  obs::Registry registry;

  SchedulerOptions sopts;
  sopts.worker_threads = cfg.worker_threads;
  sopts.metrics = &registry;
  Scheduler sched(&engine, &clock, sopts);
  obs::EngineMetrics engine_metrics(&engine, &registry);

  obs::ScopedProfiling armed(true);

  Rng rng(21);
  workload::FleetOptions fopts;
  fopts.pipelines = cfg.pipelines;
  fopts.chain_probability = 0.3;
  fopts.max_fan_out = 3;
  fopts.churn_fraction = 0.2;
  fopts.warehouses = 8;
  auto built = workload::Fleet::Build(&engine, &rng, fopts);
  if (!built.ok()) {
    std::printf("FATAL: %s\n", built.status().ToString().c_str());
    return out;
  }
  workload::Fleet fleet = built.take();

  bench::WallTimer timer;
  const Micros kWindow = kCanonicalBasePeriod;
  for (int round = 0; round < cfg.rounds; ++round) {
    Micros from = clock.Now();
    Micros to = from + kWindow;
    auto pumped = fleet.PumpArrivals(&engine, &rng, from, to);
    if (!pumped.ok()) {
      std::printf("FATAL: %s\n", pumped.ToString().c_str());
      return out;
    }
    sched.RunUntil(to);
  }
  out.wall_s = timer.Seconds();

  workload::ExportPumpStats(fleet.pump_stats(), &registry);
  out.deterministic_metrics = registry.Snapshot().DeterministicText();
  const obs::MetricsSnapshot snap = registry.Snapshot();
  if (const obs::MetricSample* s = snap.Find("sched.rows_processed")) {
    out.rows_processed = s->value;
  }

  // REFRESH_PROFILE through the SQL front end for every fleet DT, in name
  // order so the concatenation is canonical. The deterministic projection
  // drops wall_ns; the retained profiles also feed the wall breakdown and
  // the site count used by the overhead model.
  obs::InstallIntrospection(&engine, &sched);
  std::vector<workload::FleetDt> dts = fleet.AllDts();
  std::sort(dts.begin(), dts.end(),
            [](const workload::FleetDt& a, const workload::FleetDt& b) {
              return a.name < b.name;
            });
  for (const workload::FleetDt& dt : dts) {
    auto qr = engine.Query(std::string("SELECT ") + kDeterministicColumns +
                           " FROM refresh_profile('" + dt.name + "')");
    if (!qr.ok()) {
      std::printf("FATAL: refresh_profile('%s') failed: %s\n",
                  dt.name.c_str(), qr.status().ToString().c_str());
      return out;
    }
    out.profile_rows += qr.value().rows.size();
    out.profile_render += RenderResult(qr.value());

    auto obj = engine.catalog().Find(dt.name);
    if (!obj.ok() || obj.value()->dt == nullptr) continue;
    for (const auto& prof : obj.value()->dt->ProfileSnapshot()) {
      out.profiles_retained += 1;
      for (const auto& op : prof->sink.operators()) {
        out.profile_sites += 1;
        if (const obs::OpStats* s = prof->sink.Find(op.tag)) {
          out.wall_by_op[op.label] += s->wall_ns;
        }
      }
    }
  }
  out.ok = true;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;

  RunConfig base;
  base.pipelines = smoke ? 24 : 300;
  base.rounds = smoke ? 16 : 48;

  std::printf("E21 — refresh profiling: %d pipelines, %d rounds (%s mode)\n\n",
              base.pipelines, base.rounds, smoke ? "smoke" : "full");

  // ---- Pass 1 + 2: armed profiling, worker_threads 0 vs 4.
  RunConfig serial = base;
  serial.worker_threads = 0;
  RunOutcome r0 = RunWorkload(serial);

  RunConfig parallel_cfg = base;
  parallel_cfg.worker_threads = 4;
  RunOutcome r4 = RunWorkload(parallel_cfg);
  if (!r0.ok || !r4.ok) return 1;

  const bool profile_match = r0.profile_render == r4.profile_render;
  const bool metrics_match =
      r0.deterministic_metrics == r4.deterministic_metrics;

  std::printf("profile render: %zu operator rows, %zu bytes (serial) vs "
              "%zu rows, %zu bytes (4 workers)\n",
              r0.profile_rows, r0.profile_render.size(), r4.profile_rows,
              r4.profile_render.size());
  std::printf("profiles retained: %zu (serial) vs %zu (4 workers); "
              "rows_processed: %lld vs %lld\n",
              r0.profiles_retained, r4.profiles_retained,
              static_cast<long long>(r0.rows_processed),
              static_cast<long long>(r4.rows_processed));

  bench::Check(profile_match,
               "REFRESH_PROFILE (minus wall_ns) byte-identical at workers "
               "0 vs 4");
  bench::Check(metrics_match,
               "deterministic metrics (incl. exec.* counters) byte-identical "
               "at workers 0 vs 4");
  bench::Check(r0.profile_rows > 0, "REFRESH_PROFILE returned operator rows");
  bench::Check(r0.profiles_retained > 0, "refresh attempts retained profiles");
  bench::Check(r0.rows_processed > 0 &&
                   r0.rows_processed == r4.rows_processed,
               "rows_processed nonzero and unchanged across worker counts");

  // ---- Pass 3: disarmed hook cost. With no ScopedProfiling in scope every
  // hook site reduces to the ProfilingArmed atomic load measured here (the
  // per-operator sites are a pointer null check, which is no dearer).
  const int kCheckIters = 1 << 22;
  uint64_t sink = 0;
  bench::WallTimer check_timer;
  for (int i = 0; i < kCheckIters; ++i) {
    sink += obs::ProfilingArmed() ? 1u : 0u;
  }
  const double check_cost_ns = check_timer.Seconds() * 1e9 / kCheckIters;
  // Overhead model: every per-operator stat update the armed run performed
  // is one disarmed check when profiling is off. Compare that total against
  // the armed parallel run's wall time.
  const double offered = static_cast<double>(r4.profile_sites);
  const double overhead_pct =
      r4.wall_s > 0 ? offered * check_cost_ns / (r4.wall_s * 1e9) * 100.0 : 0;
  std::printf("\ndisarmed check cost: %.2f ns (%llu armed sink); %.0f sites "
              "over %.2fs wall => %.4f%% modeled overhead\n",
              check_cost_ns, static_cast<unsigned long long>(sink), offered,
              r4.wall_s, overhead_pct);
  bench::Check(sink == 0, "checks in the cost loop were genuinely disarmed");
  bench::Check(overhead_pct < 5.0,
               "modeled disarmed profiling overhead under 5% of run wall");

  // ---- Report: where refresh wall time goes, by operator (never gated).
  std::vector<std::pair<std::string, uint64_t>> by_wall(r4.wall_by_op.begin(),
                                                        r4.wall_by_op.end());
  std::sort(by_wall.begin(), by_wall.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  std::printf("\nper-operator wall breakdown (4-worker armed run):\n");
  for (size_t i = 0; i < by_wall.size() && i < 8; ++i) {
    std::printf("  %-24s %10.3f ms\n", by_wall[i].first.c_str(),
                by_wall[i].second / 1e6);
  }

  bench::BenchJson json(
      "E21",
      "Operator-level refresh profiling: worker-count determinism of "
      "REFRESH_PROFILE and exec counters, disarmed hook cost, and "
      "per-operator wall breakdown");
  json.meta()
      .Int("pipelines", base.pipelines)
      .Int("rounds", base.rounds)
      .Int("workers_parallel", 4)
      .Bool("smoke", smoke);
  json.AddPoint("determinism")
      .Bool("profile_render_match", profile_match)
      .Bool("deterministic_metrics_match", metrics_match)
      .Int("profile_rows", static_cast<int64_t>(r0.profile_rows))
      .Int("profiles_retained", static_cast<int64_t>(r0.profiles_retained))
      .Int("rows_processed", r0.rows_processed);
  json.AddPoint("overhead")
      .Int("profile_sites", static_cast<int64_t>(r4.profile_sites))
      .Num("check_cost_disarmed_ns", check_cost_ns)
      .Num("overhead_est_pct", overhead_pct);
  for (size_t i = 0; i < by_wall.size() && i < 3; ++i) {
    json.AddPoint("wall_breakdown")
        .Str("operator", by_wall[i].first)
        .Num("wall_ms", by_wall[i].second / 1e6);
  }
  json.WriteFile();

  return bench::Finish();
}
