// Serving quickstart: build a tiny DT pipeline, refresh it while reader
// threads issue snapshot queries through serve::QueryService, and print the
// §5 read-resolution behavior plus the latency histogram. The whole
// read-while-refresh loop in ~100 lines.
//
//   $ ./serve_quickstart

#include <atomic>
#include <cstdio>
#include <thread>

#include "dt/engine.h"
#include "serve/query_service.h"

using namespace dvs;

namespace {
void Run(DvsEngine& engine, const std::string& sql) {
  auto r = engine.Execute(sql);
  if (!r.ok()) {
    std::printf("ERROR: %s\n  while executing: %s\n",
                r.status().ToString().c_str(), sql.c_str());
    std::exit(1);
  }
}
}  // namespace

int main() {
  VirtualClock clock(0);
  DvsEngine engine(clock);

  Run(engine, "CREATE TABLE orders (id INT, amount INT, region STRING)");
  Run(engine, "INSERT INTO orders VALUES (1, 120, 'eu'), (2, 80, 'us')");
  Run(engine,
      "CREATE DYNAMIC TABLE region_totals TARGET_LAG = '10 seconds' "
      "WAREHOUSE = wh INITIALIZE = ON_SCHEDULE "
      "AS SELECT region, count(*) AS n, sum(amount) AS total "
      "FROM orders GROUP BY ALL");
  const ObjectId dt = engine.ObjectIdOf("region_totals").value();

  // First refresh commits at t=10s; reads before that have nothing to see.
  clock.AdvanceTo(10 * kMicrosPerSecond);
  auto first = engine.refresh_engine().Refresh(dt, clock.Now());
  if (!first.ok()) {
    std::printf("ERROR: %s\n", first.status().ToString().c_str());
    return 1;
  }

  // Readers race the next refreshes. Every read resolves to the latest
  // refresh committed at or before its timestamp (§5) — never to a torn
  // in-between state — and the admission cap bounds concurrency.
  serve::ServeOptions opts;
  opts.max_concurrent_readers = 4;
  serve::QueryService service(&engine, opts);
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&service, &clock, &stop, dt] {
      serve::ReadQuery q;
      q.table = dt;
      q.kind = serve::ReadKind::kScan;
      q.sum_column = 2;  // SUM(total)
      while (!stop.load(std::memory_order_acquire)) {
        q.read_ts = clock.Now();
        service.Execute(q).status();  // pre-initialization misses are fine
      }
    });
  }

  for (int round = 0; round < 20; ++round) {
    Run(engine, "INSERT INTO orders VALUES (" + std::to_string(10 + round) +
                    ", " + std::to_string(50 + round) + ", 'eu')");
    clock.Advance(10 * kMicrosPerSecond);
    auto r = engine.refresh_engine().Refresh(dt, clock.Now());
    if (!r.ok()) {
      std::printf("ERROR: %s\n", r.status().ToString().c_str());
      return 1;
    }
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  // The §5 rule, visibly: a read between two refreshes sees the earlier one.
  serve::ReadQuery q;
  q.table = dt;
  q.kind = serve::ReadKind::kScan;
  q.read_ts = 15 * kMicrosPerSecond;  // between the t=10s and t=20s commits
  auto mid = service.Execute(q);
  std::printf("read at t=15s resolved to refresh_ts=%lld (%llu rows)\n",
              static_cast<long long>(mid.value().resolved_refresh_ts /
                                     kMicrosPerSecond),
              static_cast<unsigned long long>(mid.value().rows_scanned));

  const serve::ServeStats stats = service.stats();
  std::printf("served %llu queries (%llu rows), admission peak %d (cap 4)\n",
              static_cast<unsigned long long>(stats.queries),
              static_cast<unsigned long long>(stats.rows_scanned),
              stats.admission_peak);
  const obs::HistogramData scan_us = service.scan_latency().Export();
  std::printf("scan latency: p50 %.1f us  p95 %.1f us  p99 %.1f us  max %lld us\n",
              scan_us.Quantile(0.50), scan_us.Quantile(0.95),
              scan_us.Quantile(0.99), static_cast<long long>(scan_us.max));
  return 0;
}
