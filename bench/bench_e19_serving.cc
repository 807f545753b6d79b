// E19 — Fleet-scale query serving under live refresh load.
//
// The paper's fleets exist to be read: §5's snapshot rule says a query
// against a DT resolves to the latest *committed refresh* at or before its
// read timestamp, so readers never block refreshes and refreshes never tear
// reads. This experiment drives a synthetic fleet (Figure 5 lag marginals,
// Zipf fan-out, churn) with the real scheduler on the driver thread while
// OS reader threads hammer the serve front end, then checks:
//
//   1. Correctness under concurrency: sampled concurrent reads are
//      byte-identical (digest, row counts, sums) to a quiesced oracle
//      re-read at the same resolved refresh timestamp.
//   2. Admission: a bounded QueryService never exceeds its reader cap.
//   3. Reporting: read p50/p99 latency and QPS land in BENCH_E19.json next
//      to the fleet's refresh-lag percentiles (schema note in ROADMAP.md).
//
// --smoke runs a small fleet for CI (tier-1 ctest + TSan); the default run
// scales the generator to O(10k) DTs.

#include <atomic>
#include <cstring>
#include <thread>

#include "bench_util.h"
#include "sched/scheduler.h"
#include "serve/query_service.h"
#include "workload/fleet.h"

using namespace dvs;

namespace {

struct Sample {
  serve::ReadQuery query;
  serve::ReadResult result;
};

struct ReaderOutcome {
  uint64_t ok = 0;
  /// Reads that resolved to nothing servable yet (DT not initialized, or the
  /// resolved version aged out of retention between resolve and pin) — §5
  /// semantics, not bugs.
  uint64_t expected_misses = 0;
  uint64_t unexpected_errors = 0;
  std::vector<Sample> samples;
};

serve::ReadQuery MakeQuery(Rng* rng, const std::vector<workload::FleetDt>& dts,
                           Micros read_ts) {
  serve::ReadQuery q;
  // Zipf-picked target: a few hot DTs take most reads, the tail is cold.
  q.table = dts[static_cast<size_t>(rng->Zipf(
                    static_cast<int64_t>(dts.size())))].id;
  q.read_ts = read_ts;
  if (rng->Bernoulli(0.25)) {
    q.kind = serve::ReadKind::kPointLookup;
    q.key_column = 0;
    q.key = Value::Int(rng->Uniform(0, 50));
  } else {
    q.kind = serve::ReadKind::kScan;
    q.sum_column = 1;  // int column in both fleet DT shapes (n / v2)
  }
  return q;
}

void ReaderLoop(serve::QueryService* service, const std::vector<workload::FleetDt>& dts,
                VirtualClock* clock, uint64_t seed, std::atomic<bool>* stop,
                ReaderOutcome* out) {
  Rng rng(seed);
  uint64_t i = 0;
  while (!stop->load(std::memory_order_acquire)) {
    serve::ReadQuery q = MakeQuery(&rng, dts, clock->Now());
    auto r = service->Execute(q);
    if (r.ok()) {
      out->ok += 1;
      if ((i++ & 63) == 0 && out->samples.size() < 64) {
        out->samples.push_back({q, r.take()});
      }
    } else if (r.status().code() == StatusCode::kFailedPrecondition) {
      out->expected_misses += 1;
    } else {
      out->unexpected_errors += 1;
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;

  VirtualClock clock(0);
  DvsEngine engine(clock);
  Scheduler sched(&engine, &clock);
  Rng rng(19);

  workload::FleetOptions opts;
  opts.pipelines = smoke ? 48 : 4600;
  opts.chain_probability = 0.3;
  opts.max_fan_out = smoke ? 3 : 4;
  opts.churn_fraction = 0.2;
  opts.warehouses = 8;

  auto built = workload::Fleet::Build(&engine, &rng, opts);
  if (!built.ok()) {
    std::printf("FATAL: %s\n", built.status().ToString().c_str());
    return 1;
  }
  workload::Fleet fleet = built.take();
  const std::vector<workload::FleetDt> dts = fleet.AllDts();
  std::printf("E19 — serving under refresh load: %zu DTs across %d pipelines "
              "(%s mode)\n\n",
              dts.size(), opts.pipelines, smoke ? "smoke" : "full");

  // First tick before readers start: ON_SCHEDULE DTs have no committed
  // refresh (nothing servable) until the initialization wave runs.
  const Micros kWindow = kCanonicalBasePeriod;
  sched.RunUntil(clock.Now() + kWindow);

  // ---- Concurrent phase: real reader threads vs the virtual-time driver.
  serve::QueryService service(&engine);
  const int kReaders = smoke ? 4 : 8;
  const int kRounds = smoke ? 40 : 120;
  std::atomic<bool> stop{false};
  std::vector<ReaderOutcome> outcomes(static_cast<size_t>(kReaders));
  std::vector<std::thread> readers;
  bench::WallTimer timer;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back(ReaderLoop, &service, std::cref(dts), &clock,
                         static_cast<uint64_t>(100 + r), &stop, &outcomes[r]);
  }
  for (int round = 0; round < kRounds; ++round) {
    Micros from = clock.Now();
    Micros to = from + kWindow;
    auto pumped = fleet.PumpArrivals(&engine, &rng, from, to);
    if (!pumped.ok()) {
      std::printf("FATAL: %s\n", pumped.ToString().c_str());
      stop.store(true, std::memory_order_release);
      for (auto& t : readers) t.join();
      return 1;
    }
    sched.RunUntil(to);
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  const double wall_s = timer.Seconds();

  uint64_t ok = 0, misses = 0, bad = 0;
  std::vector<Sample> samples;
  for (const ReaderOutcome& o : outcomes) {
    ok += o.ok;
    misses += o.expected_misses;
    bad += o.unexpected_errors;
    samples.insert(samples.end(), o.samples.begin(), o.samples.end());
  }
  const double qps = wall_s > 0 ? static_cast<double>(ok) / wall_s : 0;

  // Snapshot counters and percentiles now — the oracle phase below reuses
  // the same service and would otherwise fold its re-reads into them.
  const serve::ServeStats stats = service.stats();
  const double read_p50_ms = service.scan_latency().P50Us() / 1000.0;
  const double read_p99_ms = service.scan_latency().P99Us() / 1000.0;
  const double point_p50_ms = service.point_latency().P50Us() / 1000.0;
  const double point_p99_ms = service.point_latency().P99Us() / 1000.0;

  // ---- Oracle: quiesced re-read at each sample's *resolved* refresh
  // timestamp must reproduce the concurrent result byte-for-byte.
  uint64_t oracle_checked = 0, oracle_mismatch = 0, oracle_skipped = 0;
  for (const Sample& s : samples) {
    serve::ReadQuery q = s.query;
    q.read_ts = s.result.resolved_refresh_ts;
    auto r = service.Execute(q);
    if (!r.ok()) {
      oracle_skipped += 1;  // resolved version aged out post-run
      continue;
    }
    oracle_checked += 1;
    const serve::ReadResult& a = s.result;
    const serve::ReadResult& b = r.value();
    if (a.version != b.version || a.digest != b.digest ||
        a.rows_scanned != b.rows_scanned || a.rows_matched != b.rows_matched ||
        a.sum_i64 != b.sum_i64 || a.sum_f64 != b.sum_f64) {
      oracle_mismatch += 1;
    }
  }

  // ---- Admission: a capped service never exceeds its reader bound.
  serve::ServeOptions gated_opts;
  gated_opts.max_concurrent_readers = 2;
  serve::QueryService gated(&engine, gated_opts);
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
      threads.emplace_back([&gated, &dts, &clock, t] {
        Rng r(static_cast<uint64_t>(900 + t));
        for (int i = 0; i < 25; ++i) {
          serve::ReadQuery q = MakeQuery(&r, dts, clock.Now());
          gated.Execute(q).status();  // misses fine; only admission matters
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  const int admission_peak = gated.stats().admission_peak;

  // ---- Refresh-lag percentiles from the same run, for side-by-side
  // freshness/latency reporting.
  bench::StreamingHistogram trough_ms, peak_ms;
  uint64_t committed = 0;
  for (const RefreshRecord& r : sched.log()) {
    if (r.skipped || r.failed) continue;
    ++committed;
    trough_ms.Add(r.trough_lag / 1000);
    peak_ms.Add(r.peak_lag / 1000);
  }

  std::printf("reads: %llu ok, %llu resolution misses, %llu errors "
              "(%.0f QPS over %.2fs)\n",
              static_cast<unsigned long long>(ok),
              static_cast<unsigned long long>(misses),
              static_cast<unsigned long long>(bad), qps, wall_s);
  std::printf("scan  latency: p50 %.3f ms  p99 %.3f ms\n", read_p50_ms,
              read_p99_ms);
  std::printf("point latency: p50 %.3f ms  p99 %.3f ms\n", point_p50_ms,
              point_p99_ms);
  std::printf("refresh lag:   trough p50 %.0f ms  peak p99 %.0f ms "
              "(%llu committed refreshes)\n",
              trough_ms.P50(), peak_ms.P99(),
              static_cast<unsigned long long>(committed));
  std::printf("oracle: %llu checked, %llu mismatched, %llu skipped\n",
              static_cast<unsigned long long>(oracle_checked),
              static_cast<unsigned long long>(oracle_mismatch),
              static_cast<unsigned long long>(oracle_skipped));
  std::printf("cache: %llu hits / %llu misses / %llu evictions; "
              "admission peak (cap 2): %d\n\n",
              static_cast<unsigned long long>(stats.cache_hits),
              static_cast<unsigned long long>(stats.cache_misses),
              static_cast<unsigned long long>(stats.cache_evictions),
              admission_peak);

  bench::BenchJson json("E19",
                        "Snapshot-read serving under live refresh load: read "
                        "latency/QPS vs refresh lag on a synthetic DT fleet");
  json.meta()
      .Int("dts", static_cast<int64_t>(dts.size()))
      .Int("pipelines", opts.pipelines)
      .Int("readers", kReaders)
      .Int("rounds", kRounds)
      .Bool("smoke", smoke);
  bench::AddReadLatency(json.AddPoint("scan"), read_p50_ms, read_p99_ms, qps)
      .Int("queries", static_cast<int64_t>(ok))
      .Num("refresh_trough_p50_ms", trough_ms.P50())
      .Num("refresh_peak_p99_ms", peak_ms.P99());
  bench::AddReadLatency(json.AddPoint("point_lookup"), point_p50_ms,
                        point_p99_ms, qps)
      .Int("cache_hits", static_cast<int64_t>(stats.cache_hits))
      .Int("cache_misses", static_cast<int64_t>(stats.cache_misses));
  json.WriteFile();

  bench::Check(dts.size() >= (smoke ? 70u : 10000u),
               smoke ? "fleet generator produced the scaled smoke fleet"
                     : "fleet generator produced O(10k) DTs");
  bench::Check(committed > 0, "scheduler committed refreshes during the run");
  bench::Check(ok > 0, "readers completed snapshot reads under refresh load");
  bench::Check(bad == 0, "no reader saw an unexpected error");
  bench::Check(oracle_checked > 0 && oracle_mismatch == 0,
               "concurrent reads byte-identical to quiesced oracle re-reads");
  bench::Check(admission_peak >= 1 && admission_peak <= 2,
               "admission cap bounds concurrent readers");
  bench::Check(stats.queries == ok + misses + bad,
               "service counters account for every query");
  return bench::Finish();
}
