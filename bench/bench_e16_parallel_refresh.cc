// E16 — DAG-parallel refresh execution (the runtime/ subsystem). A wide
// star-schema graph of 32 sibling DTs over shared base tables refreshes
// under the scheduler at 1/2/4/8 worker threads (plus the serial baseline),
// measuring wall time of the same virtual-time workload. Every datapoint
// lands in BENCH_E16.json (schema in ROADMAP.md, "Performance
// architecture").
//
// Shape checks:
//   - determinism: the refresh log, total rows_processed (the gated work
//     metric), per-warehouse billing, and final DT contents are identical
//     at every worker count — parallel execution is an implementation
//     detail, not a semantics change;
//   - admission: no warehouse ever exceeds its configured concurrency;
//   - speedup: with >= 4 hardware threads on the non-smoke tier, 4 workers
//     beat 1 worker on wall time (reported always, gated only there —
//     wall time on an oversubscribed single-core box proves nothing).
//
// `--smoke` runs a tiny table (the `bench-smoke-e16` ctest target).

#include <algorithm>
#include <cstring>
#include <map>
#include <thread>

#include "bench_util.h"
#include "sched/scheduler.h"

using namespace dvs;

namespace {

constexpr int kSiblings = 32;
constexpr int kWarehouses = 8;
constexpr int kWarehouseSize = 4;  // concurrency defaults to size
constexpr int kUpdateRounds = 3;

std::vector<IdRow> BulkLoad(DvsEngine& engine, const std::string& table,
                            std::vector<Row> rows) {
  auto obj = engine.catalog().Find(table);
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

// Updates the first `fraction` of the fact rows (bump v) with stable row ids.
void ApplyUpdate(DvsEngine& engine, std::vector<IdRow>* fact_rows,
                 double fraction) {
  size_t n = static_cast<size_t>(static_cast<double>(fact_rows->size()) *
                                     fraction +
                                 0.5);
  if (n < 1) n = 1;
  auto obj = engine.catalog().Find("fact");
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

/// Serializes a refresh log so two runs can be compared byte-for-byte.
std::string SerializeLog(const std::vector<RefreshRecord>& log) {
  std::string out;
  char buf[256];
  for (const RefreshRecord& r : log) {
    std::snprintf(
        buf, sizeof(buf),
        "%llu|%s|v=%lld|s=%lld|e=%lld|%s|skip=%d|fail=%d|rp=%llu|ca=%zu|"
        "n=%zu|pl=%lld|tl=%lld|",
        static_cast<unsigned long long>(r.dt), r.dt_name.c_str(),
        static_cast<long long>(r.data_timestamp),
        static_cast<long long>(r.start_time),
        static_cast<long long>(r.end_time), RefreshActionName(r.action),
        r.skipped ? 1 : 0, r.failed ? 1 : 0,
        static_cast<unsigned long long>(r.rows_processed), r.changes_applied,
        r.dt_row_count, static_cast<long long>(r.peak_lag),
        static_cast<long long>(r.trough_lag));
    out += buf;
    out += r.error;
    out += '\n';
  }
  return out;
}

struct RunResult {
  double wall_s = 0;
  uint64_t rows_processed = 0;
  int refreshes = 0;
  std::string log_bytes;
  std::string contents;  ///< Concatenated sorted rows of every DT.
  std::string billing;   ///< warehouse -> billed micros, serialized.
  int max_gate = 0;      ///< Peak admission across all warehouse gates.
};

/// Builds the workload from scratch and drives the scheduler with
/// `workers` threads over an identical virtual-time script.
RunResult RunWorkload(int workers, int64_t fact_rows_n, double fraction) {
  VirtualClock clock(0);
  DvsEngine engine(clock);
  for (int w = 0; w < kWarehouses; ++w) {
    engine.warehouses().GetOrCreate("wh" + std::to_string(w), kWarehouseSize);
  }

  bench::Run(engine, "CREATE TABLE fact (k INT, dim_id INT, v INT)");
  bench::Run(engine, "CREATE TABLE dim (dim_id INT, cat INT)");
  const int64_t dims = std::max<int64_t>(kSiblings * 4, fact_rows_n / 100);
  {
    std::vector<Row> d;
    d.reserve(static_cast<size_t>(dims));
    for (int64_t i = 0; i < dims; ++i) {
      d.push_back({Value::Int(i), Value::Int(i * kSiblings / dims)});
    }
    BulkLoad(engine, "dim", std::move(d));
  }
  std::vector<Row> f;
  f.reserve(static_cast<size_t>(fact_rows_n));
  for (int64_t i = 0; i < fact_rows_n; ++i) {
    f.push_back({Value::Int(i), Value::Int(i * dims / fact_rows_n),
                 Value::Int(i % 97)});
  }
  std::vector<IdRow> fact = BulkLoad(engine, "fact", std::move(f));

  // 32 sibling DTs, one category slice each, round-robin over 8 warehouses:
  // a wide independent layer the runner can execute concurrently, with
  // enough co-location that the admission gates matter.
  for (int i = 0; i < kSiblings; ++i) {
    bench::Run(engine,
               "CREATE DYNAMIC TABLE s" + std::to_string(i) +
                   " TARGET_LAG = '2 minutes' WAREHOUSE = wh" +
                   std::to_string(i % kWarehouses) +
                   " REFRESH_MODE = INCREMENTAL INITIALIZE = ON_SCHEDULE "
                   "AS SELECT d.cat AS cat, count(*) AS n, sum(f.v) AS sv "
                   "FROM fact f JOIN dim d ON f.dim_id = d.dim_id "
                   "WHERE d.cat = " + std::to_string(i) + " GROUP BY ALL");
  }

  SchedulerOptions opts;
  opts.worker_threads = workers;
  Scheduler sched(&engine, &clock, opts);

  RunResult out;
  bench::WallTimer timer;
  // Tick 1 initializes all 32 DTs (the big parallel wave), then each update
  // round is one incremental tick.
  sched.RunUntil(kCanonicalBasePeriod);
  out.wall_s += timer.Seconds();
  for (int round = 0; round < kUpdateRounds; ++round) {
    ApplyUpdate(engine, &fact, fraction);
    timer.Reset();
    sched.RunUntil(clock.Now() + kCanonicalBasePeriod);
    out.wall_s += timer.Seconds();
  }

  for (const RefreshRecord& r : sched.log()) {
    if (r.skipped || r.failed) continue;
    out.rows_processed += r.rows_processed;
    out.refreshes += 1;
  }
  out.log_bytes = SerializeLog(sched.log());
  for (int i = 0; i < kSiblings; ++i) {
    auto q = engine.Query("SELECT * FROM s" + std::to_string(i));
    if (!q.ok()) {
      std::printf("FATAL: query s%d: %s\n", i, q.status().ToString().c_str());
      std::exit(1);
    }
    std::vector<std::string> rows;
    rows.reserve(q.value().rows.size());
    for (const Row& r : q.value().rows) {
      std::string line;
      for (const Value& v : r) line += v.ToString() + ",";
      rows.push_back(std::move(line));
    }
    std::sort(rows.begin(), rows.end());
    out.contents += "s" + std::to_string(i) + ":";
    for (const std::string& r : rows) out.contents += r + ";";
    out.contents += "\n";
  }
  for (const auto& [name, wh] : engine.warehouses().all()) {
    out.billing += name + "=" + std::to_string(wh->billed()) + ";";
  }
  for (const auto& [gate, peak] : sched.max_gate_occupancy()) {
    (void)gate;
    out.max_gate = std::max(out.max_gate, peak);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const int64_t fact_rows_n = smoke ? 4'000 : 120'000;
  const double fraction = 0.01;
  const unsigned hw = std::thread::hardware_concurrency();

  std::printf("E16 — DAG-parallel refresh: %d sibling DTs over shared bases, "
              "%d warehouses (concurrency %d)%s\n\n",
              kSiblings, kWarehouses, kWarehouseSize,
              smoke ? " (smoke tier)" : "");
  std::printf("%8s %12s %16s %10s %10s\n", "workers", "wall s",
              "rows_processed", "refreshes", "speedup");

  bench::BenchJson report(
      "E16",
      "DAG-parallel refresh execution: wall time vs worker threads over a "
      "32-sibling star-schema DT graph");
  report.meta()
      .Str("workload",
           "32x SELECT cat, count(*), sum(v) FROM fact JOIN dim WHERE cat=i")
      .Int("fact_rows", fact_rows_n)
      .Int("siblings", kSiblings)
      .Int("warehouses", kWarehouses)
      .Int("warehouse_concurrency", kWarehouseSize)
      .Int("hardware_threads", static_cast<int64_t>(hw))
      .Bool("smoke", smoke);

  RunResult serial = RunWorkload(0, fact_rows_n, fraction);
  const int kWorkerCounts[] = {1, 2, 4, 8};
  std::map<int, RunResult> runs;
  std::printf("%8s %12.4f %16llu %10d %10s\n", "serial", serial.wall_s,
              static_cast<unsigned long long>(serial.rows_processed),
              serial.refreshes, "-");
  for (int workers : kWorkerCounts) {
    runs[workers] = RunWorkload(workers, fact_rows_n, fraction);
    const RunResult& r = runs[workers];
    std::printf("%8d %12.4f %16llu %10d %9.2fx\n", workers, r.wall_s,
                static_cast<unsigned long long>(r.rows_processed),
                r.refreshes, serial.wall_s / (r.wall_s > 0 ? r.wall_s : 1));
    report.AddPoint("parallel_refresh")
        .Int("workers", workers)
        .Num("refresh_wall_s", r.wall_s)
        .Int("rows_processed", static_cast<int64_t>(r.rows_processed))
        .Int("refreshes", r.refreshes)
        .Num("speedup_vs_serial",
             r.wall_s > 0 ? serial.wall_s / r.wall_s : 0)
        .Int("max_gate_occupancy", r.max_gate);
  }
  std::printf("\n");

  bool logs_match = true, work_match = true, contents_match = true,
       billing_match = true, gates_ok = true;
  for (const auto& [workers, r] : runs) {
    (void)workers;
    logs_match = logs_match && r.log_bytes == serial.log_bytes;
    work_match = work_match && r.rows_processed == serial.rows_processed;
    contents_match = contents_match && r.contents == serial.contents;
    billing_match = billing_match && r.billing == serial.billing;
    gates_ok = gates_ok && r.max_gate <= kWarehouseSize;
  }
  bench::Check(logs_match,
               "refresh logs are byte-identical at every worker count");
  bench::Check(work_match,
               "rows_processed identical at every worker count (determinism)");
  bench::Check(contents_match,
               "final DT contents identical at every worker count");
  bench::Check(billing_match,
               "per-warehouse billed time identical at every worker count");
  bench::Check(gates_ok, "admission gates never exceeded warehouse "
                         "concurrency");
  if (!smoke && hw >= 4) {
    bench::Check(runs[4].wall_s < runs[1].wall_s,
                 "4 workers beat 1 worker on refresh wall time");
  } else {
    std::printf("note: wall-time speedup check %s (hardware threads: %u)\n",
                smoke ? "skipped on smoke tier" : "skipped — too few cores",
                hw);
  }

  bench::Check(!report.WriteFile().empty(), "BENCH_E16.json written");
  return bench::Finish();
}
