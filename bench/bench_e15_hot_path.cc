// E15 — refresh hot-path microbench. Sweeps table sizes × change fractions
// over a join+aggregate dynamic table and times incremental refresh against
// a FULL-refresh twin of the same defining query. This is the measurement
// substrate for the executor/storage perf work: every datapoint lands in
// BENCH_E15.json (schema in ROADMAP.md, "Performance architecture") so
// successive PRs can compare trajectories.
//
// Shape checks use the deterministic rows_processed work metric (wall time
// is recorded but too noisy to gate CI on):
//   - incremental does less work than full recompute at small change
//     fractions, and
//   - the incremental advantage decays as the change fraction grows (the
//     crossover of §3.3.2 exists).
//
// `--smoke` runs only the smallest size tier (the `bench-smoke` ctest
// target); the default runs {10k, 100k, 1M} rows × {0.1%, 1%, 10%}.
//
// `--baseline=<file>` turns the run into a regression gate: every baseline
// line (`rows fraction inc_work full_work`, '#' comments) must match the
// measured rows_processed exactly. The work metric is deterministic, so any
// deviation is a semantic change in the executor/differentiator — the gate
// catches it in CI (bench-smoke) without gating on noisy wall time.

#include <cstring>
#include <fstream>
#include <sstream>

#include "bench_util.h"

using namespace dvs;

namespace {

struct Point {
  int64_t table_rows;
  double fraction;
  double inc_wall_s;
  double full_wall_s;
  uint64_t inc_work;
  uint64_t full_work;
  uint64_t changes_applied;
};

Result<CatalogObject*> MustFind(DvsEngine& engine, const std::string& name) {
  return engine.catalog().Find(name);
}

// Loads rows through the storage layer directly (the SQL INSERT path parses
// literals and would dominate setup at 1M rows). Returns the committed rows
// with their assigned ids so updates can be staged as precise CDC.
std::vector<IdRow> BulkLoad(DvsEngine& engine, const std::string& table,
                            std::vector<Row> rows) {
  auto obj = MustFind(engine, table);
  if (!obj.ok()) {
    std::printf("FATAL: %s\n", obj.status().ToString().c_str());
    std::exit(1);
  }
  VersionedTable* storage = obj.value()->storage.get();
  ChangeSet cs = storage->MakeInsertChanges(std::move(rows));
  std::vector<IdRow> loaded;
  loaded.reserve(cs.size());
  for (const ChangeRow& c : cs) loaded.push_back({c.row_id, c.values});
  auto commit = engine.txn().CommitWrites({{storage, std::move(cs)}});
  if (!commit.ok()) {
    std::printf("FATAL: bulk load commit: %s\n",
                commit.status().ToString().c_str());
    std::exit(1);
  }
  return loaded;
}

// Updates the first `fraction` of the fact rows (bump v) as a delete+insert
// ChangeSet with stable row ids — the storage-level shape of an UPDATE.
void ApplyUpdate(DvsEngine& engine, std::vector<IdRow>* fact_rows,
                 double fraction) {
  size_t n = static_cast<size_t>(static_cast<double>(fact_rows->size()) *
                                     fraction +
                                 0.5);
  if (n < 1) n = 1;
  auto obj = MustFind(engine, "fact");
  if (!obj.ok()) std::exit(1);
  ChangeSet cs;
  cs.reserve(2 * n);
  for (size_t i = 0; i < n; ++i) {
    IdRow& r = (*fact_rows)[i];
    cs.push_back({ChangeAction::kDelete, r.id, r.values});
    r.values[2] = Value::Int(r.values[2].int_value() + 1);
    cs.push_back({ChangeAction::kInsert, r.id, r.values});
  }
  auto commit =
      engine.txn().CommitWrites({{obj.value()->storage.get(), std::move(cs)}});
  if (!commit.ok()) {
    std::printf("FATAL: update commit: %s\n",
                commit.status().ToString().c_str());
    std::exit(1);
  }
}

RefreshOutcome MustRefresh(DvsEngine& engine, const char* dt, Micros ts) {
  auto r = engine.refresh_engine().Refresh(engine.ObjectIdOf(dt).value(), ts);
  if (!r.ok()) {
    std::printf("FATAL: refresh %s: %s\n", dt, r.status().ToString().c_str());
    std::exit(1);
  }
  return r.value();
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string baseline_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--baseline=", 11) == 0) {
      baseline_path = argv[i] + 11;
    } else {
      std::printf("FATAL: unknown argument '%s'\n", argv[i]);
      return 1;
    }
  }
  const int64_t kSizes[] = {10'000, 100'000, 1'000'000};
  const double kFractions[] = {0.001, 0.01, 0.1};
  const size_t n_sizes = smoke ? 1 : 3;

  std::printf("E15 — refresh hot path: join+aggregate DT, incremental vs "
              "full%s\n\n",
              smoke ? " (smoke tier)" : "");
  std::printf("%10s %9s %12s %12s %14s %14s %9s\n", "rows", "changed",
              "inc wall s", "full wall s", "inc work", "full work", "ratio");

  bench::BenchJson report(
      "E15", "refresh hot path: incremental vs full over join+aggregate DT");
  report.meta()
      .Str("workload", "SELECT cat, count(*), sum(v) FROM fact JOIN dim")
      .Bool("smoke", smoke);

  std::vector<Point> points;
  for (size_t si = 0; si < n_sizes; ++si) {
    const int64_t rows = kSizes[si];
    const int64_t dims = rows / 100 < 16 ? 16 : rows / 100;

    VirtualClock clock(0);
    DvsEngine engine(clock);
    bench::Run(engine, "CREATE TABLE fact (k INT, dim_id INT, v INT)");
    bench::Run(engine, "CREATE TABLE dim (dim_id INT, cat INT)");
    // Contiguous layout: fact row i maps to a dim block and each dim to a
    // category block, so updating a prefix of the fact table touches a
    // proportional share of groups (the locality incremental refresh
    // exploits; fully scattered updates degenerate to the crossover).
    const int64_t cats = 256;
    {
      std::vector<Row> d;
      d.reserve(static_cast<size_t>(dims));
      for (int64_t i = 0; i < dims; ++i) {
        d.push_back({Value::Int(i), Value::Int(i * cats / dims)});
      }
      BulkLoad(engine, "dim", std::move(d));
    }
    std::vector<Row> f;
    f.reserve(static_cast<size_t>(rows));
    for (int64_t i = 0; i < rows; ++i) {
      f.push_back({Value::Int(i), Value::Int(i * dims / rows),
                   Value::Int(i % 97)});
    }
    std::vector<IdRow> fact_rows = BulkLoad(engine, "fact", std::move(f));

    clock.Advance(kMicrosPerMinute);
    const std::string query =
        "SELECT d.cat AS cat, count(*) AS n, sum(f.v) AS sv "
        "FROM fact f JOIN dim d ON f.dim_id = d.dim_id GROUP BY ALL";
    bench::Run(engine,
               "CREATE DYNAMIC TABLE dt_inc TARGET_LAG = '1 minute' "
               "WAREHOUSE = wh REFRESH_MODE = INCREMENTAL AS " + query);
    bench::Run(engine,
               "CREATE DYNAMIC TABLE dt_full TARGET_LAG = '1 minute' "
               "WAREHOUSE = wh REFRESH_MODE = FULL AS " + query);

    for (double fraction : kFractions) {
      ApplyUpdate(engine, &fact_rows, fraction);
      clock.Advance(kMicrosPerMinute);
      const Micros ts = clock.Now();

      bench::WallTimer t_inc;
      RefreshOutcome inc = MustRefresh(engine, "dt_inc", ts);
      double inc_s = t_inc.Seconds();
      bench::WallTimer t_full;
      RefreshOutcome full = MustRefresh(engine, "dt_full", ts);
      double full_s = t_full.Seconds();

      if (inc.action != RefreshAction::kIncremental ||
          full.action != RefreshAction::kFull) {
        std::printf("FATAL: unexpected refresh actions (%s / %s)\n",
                    RefreshActionName(inc.action),
                    RefreshActionName(full.action));
        return 1;
      }

      Point p{rows,     fraction, inc_s, full_s, inc.rows_processed,
              full.rows_processed, inc.changes_applied};
      points.push_back(p);
      std::printf("%10lld %8.2f%% %12.4f %12.4f %14llu %14llu %8.2fx\n",
                  static_cast<long long>(rows), fraction * 100, inc_s, full_s,
                  static_cast<unsigned long long>(p.inc_work),
                  static_cast<unsigned long long>(p.full_work),
                  static_cast<double>(p.full_work) /
                      static_cast<double>(p.inc_work ? p.inc_work : 1));

      report.AddPoint("refresh")
          .Int("table_rows", rows)
          .Num("change_fraction", fraction)
          .Str("mode", "incremental")
          .Num("refresh_wall_s", inc_s)
          .Num("rows_per_sec",
               inc_s > 0 ? static_cast<double>(rows) / inc_s : 0)
          .Int("rows_processed", static_cast<int64_t>(p.inc_work))
          .Int("changes_applied", static_cast<int64_t>(p.changes_applied));
      report.AddPoint("refresh")
          .Int("table_rows", rows)
          .Num("change_fraction", fraction)
          .Str("mode", "full")
          .Num("refresh_wall_s", full_s)
          .Num("rows_per_sec",
               full_s > 0 ? static_cast<double>(rows) / full_s : 0)
          .Int("rows_processed", static_cast<int64_t>(p.full_work))
          .Int("changes_applied",
               static_cast<int64_t>(full.changes_applied));
    }
  }
  std::printf("\n");

  bool small_fraction_wins = true;
  for (const Point& p : points) {
    if (p.fraction <= 0.01 && p.inc_work >= p.full_work) {
      small_fraction_wins = false;
    }
  }
  bench::Check(small_fraction_wins,
               "incremental refresh does less work than full recompute at "
               "<=1% changed");

  bool decays = true;
  for (size_t i = 0; i < points.size(); ++i) {
    for (size_t j = 0; j < points.size(); ++j) {
      if (points[i].table_rows != points[j].table_rows) continue;
      if (points[i].fraction >= points[j].fraction) continue;
      double ri = static_cast<double>(points[i].full_work) /
                  static_cast<double>(points[i].inc_work ? points[i].inc_work : 1);
      double rj = static_cast<double>(points[j].full_work) /
                  static_cast<double>(points[j].inc_work ? points[j].inc_work : 1);
      if (rj > ri * 1.2) decays = false;  // allow noise, demand overall decay
    }
  }
  bench::Check(decays, "incremental advantage decays toward the crossover as "
                       "the change fraction grows");

  if (!baseline_path.empty()) {
    std::ifstream in(baseline_path);
    bench::Check(in.good(),
                 ("baseline file readable: " + baseline_path).c_str());
    std::string line;
    size_t checked = 0;
    bool all_match = in.good();
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::istringstream fields(line);
      int64_t rows = 0;
      double fraction = 0;
      uint64_t inc_work = 0, full_work = 0;
      if (!(fields >> rows >> fraction >> inc_work >> full_work)) {
        std::printf("FATAL: malformed baseline line: %s\n", line.c_str());
        return 1;
      }
      bool found = false;
      for (const Point& p : points) {
        if (p.table_rows != rows ||
            std::abs(p.fraction - fraction) > 1e-9) {
          continue;
        }
        found = true;
        if (p.inc_work != inc_work || p.full_work != full_work) {
          std::printf("BASELINE MISMATCH at rows=%lld fraction=%g: "
                      "inc %llu (want %llu), full %llu (want %llu)\n",
                      static_cast<long long>(rows), fraction,
                      static_cast<unsigned long long>(p.inc_work),
                      static_cast<unsigned long long>(inc_work),
                      static_cast<unsigned long long>(p.full_work),
                      static_cast<unsigned long long>(full_work));
          all_match = false;
        }
        ++checked;
      }
      if (!found) {
        std::printf("BASELINE MISMATCH: no measured point for rows=%lld "
                    "fraction=%g\n",
                    static_cast<long long>(rows), fraction);
        all_match = false;
      }
    }
    bench::Check(all_match && checked > 0,
                 ("rows_processed matches the checked-in baseline (" +
                  std::to_string(checked) + " points)")
                     .c_str());
  }

  bench::Check(!report.WriteFile().empty(), "BENCH_E15.json written");
  return bench::Finish();
}
