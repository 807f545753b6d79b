// perfbench — the repository benchmark.
//
// Three workloads drive the DVS engine through its public entry points and
// time them from outside, at nanosecond resolution:
//
//   fleet_durable     200 small fleet pipelines (~550 DTs) through SQL,
//                     with the WAL, checkpoints and retention GC on;
//                     serial (worker_threads = 0).
//   star_incremental  a 250k-row fact table joined to a 10k-row dimension
//                     under an aggregate DT and a second-level DT, fed
//                     0.1% CDC per tick through CommitWrites; serial.
//   serve_mixed       400 pipelines refreshed every tick beside an
//                     open-loop snapshot reader; worker_threads = 1.
//
// Only serve_mixed runs a reader beside the ticks; the other two time a few
// probe reads on the quiesced engine after each tick, so that every
// workload reports every end-to-end metric.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--tiny] [--data-dir DIR] [--git-sha SHA]
//
// With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
// arms a trace recorder on three of every four loop iterations and reports
// the per-layer metrics instead. Every run checks its outputs (the DVS
// invariant on sampled DTs, sampled reads against quiesced re-reads, and a
// byte-identical recovery image). The last stdout line is one JSON object:
//
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
//
// perfbench/metrics.json describes every metric and which layer moves it.

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <set>
#include <shared_mutex>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "dt/engine.h"
#include "obs/introspect.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "persist/manager.h"
#include "persist/recover.h"
#include "persist/retention.h"
#include "persist/snapshot.h"
#include "sched/scheduler.h"
#include "serve/query_service.h"
#include "sql/parser.h"
#include "stats.h"
#include "workload/fleet.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

using namespace dvs;
using perfbench::ExactQuantile;
using perfbench::Median;

namespace {

namespace fs = std::filesystem;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ToSeconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }
double ToMillis(int64_t ns) { return static_cast<double>(ns) / 1e6; }
double ToMicros(int64_t ns) { return static_cast<double>(ns) / 1e3; }

/// Virtual start of every workload: a multiple of every canonical period
/// the workloads use, so the first tick is due for every DT at once (the
/// initialization wave) and later ticks fall into a fixed cadence.
constexpr Micros kT0 = kCanonicalBasePeriod * 8192;
constexpr Micros kTick = kCanonicalBasePeriod;

/// Recoveries repeat for at least this long (and at least 5 times).
constexpr int64_t kRecoverWindowNs = 3'000'000'000;

/// What a workload's reads draw. Workloads without a reader thread issue
/// `probes` reads after each tick, on the quiesced engine.
struct ReadMix {
  double point_share = 0.8;        ///< point lookups; the rest are scans
  double time_travel_share = 0.1;  ///< reads one or two ticks back
  int probes = 32;
};

[[noreturn]] void Fatal(const std::string& what) {
  std::fprintf(stderr, "perfbench: FATAL: %s\n", what.c_str());
  std::exit(2);
}

void Must(const Status& s, const std::string& what) {
  if (!s.ok()) Fatal(what + ": " + s.ToString());
}

// ---------------------------------------------------------------------------
// Arguments and output

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  std::string data_dir = ".perfbench-data";
  std::string git_sha = "unknown";
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) Fatal("missing value for " + k);
      return argv[++i];
    };
    if (k == "--workload") a.workload = next();
    else if (k == "--seed") a.seed = std::strtoull(next().c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::atof(next().c_str());
    else if (k == "--trace") a.trace = next() == "1";
    else if (k == "--tiny") a.tiny = true;
    else if (k == "--data-dir") a.data_dir = next();
    else if (k == "--git-sha") a.git_sha = next();
    else Fatal("unknown argument " + k);
  }
  if (a.seconds <= 0) Fatal("--seconds must be positive");
  return a;
}

/// Operations of one class: how many were tried and how many failed.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  void Add(bool ok) {
    attempted += 1;
    failed += ok ? 0 : 1;
  }
};

class Report {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    metrics_.emplace_back(name, value, unit);
  }
  void Print(bool correct, uint64_t attempted, uint64_t failed) const {
    for (const auto& [name, value, unit] : metrics_) {
      std::printf("%-34s %16.6f %s\n", name.c_str(), value, unit.c_str());
    }
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, value, unit] : metrics_) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.9g", value);
      json += (first ? "\"" : ", \"") + name + "\": {\"value\": " + buf +
              ", \"unit\": \"" + unit + "\"}";
      first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
  }

 private:
  std::vector<std::tuple<std::string, double, std::string>> metrics_;
};

/// Zipf(s) over [0, n) by inverse CDF, O(log n) per draw; s = 0 is uniform.
class ZipfTable {
 public:
  ZipfTable(size_t n, double s) : cdf_(n) {
    double acc = 0;
    for (size_t i = 0; i < n; ++i) {
      cdf_[i] = acc += std::pow(static_cast<double>(i + 1), -s);
    }
  }
  size_t Draw(Rng* rng) const {
    const double u = rng->NextDouble() * cdf_.back();
    return static_cast<size_t>(std::lower_bound(cdf_.begin(), cdf_.end(), u) -
                               cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

// ---------------------------------------------------------------------------
// The system under test, as a user assembles it.

struct SystemOptions {
  int worker_threads = 0;
  /// Non-empty: WAL + checkpoints in this directory from setup on.
  std::string persist_dir;
  int checkpoint_every_n_ticks = 0;
  /// 0: the scheduler runs retention GC in every tick's finalize phase.
  /// n > 0: the benchmark runs it after every tick at kT0 + k * n * kTick
  /// instead, inside that tick's timing (see FleetDurable).
  int gc_every_n_ticks = 0;
  /// Virtual time of the first tick.
  Micros first_tick = kT0;
};

struct System {
  explicit System(const SystemOptions& o) {
    metrics = std::make_unique<obs::EngineMetrics>(&engine, &registry);
    SchedulerOptions so;
    so.worker_threads = o.worker_threads;
    so.metrics = &registry;
    // The benchmark measures wall time; virtual refresh durations only need
    // to stay well inside a tick, so no DT is busy-skipped by its own cost.
    so.cost_model.fixed_cost = 10 * kMicrosPerMilli;
    so.cost_model.cost_per_krow = kMicrosPerMilli;
    so.retention_gc = o.gc_every_n_ticks == 0;
    gc_every = o.gc_every_n_ticks;
    if (!o.persist_dir.empty()) {
      fs::remove_all(o.persist_dir);
      persist::ManagerOptions mo;
      mo.dir = o.persist_dir;
      mo.checkpoint_every_n_ticks = o.checkpoint_every_n_ticks;
      mo.metrics = &registry;
      auto opened = persist::Manager::Open(mo);
      Must(opened.status(), "persist open");
      manager = opened.take();
      Must(manager->Attach(&engine), "persist attach");
      so.persistence = manager.get();
    }
    sched = std::make_unique<Scheduler>(&engine, &clock, so);
    // Start one tick before the first one, so the first RunUntil runs that
    // tick alone rather than every tick from time 0.
    clock.AdvanceTo(o.first_tick - kTick);
    sched->ImportState({{}, o.first_tick - kTick});
  }

  int64_t Metric(const std::string& name) const {
    obs::MetricsSnapshot snap = registry.Snapshot();
    const obs::MetricSample* s = snap.Find(name);
    return s == nullptr ? 0 : s->value;
  }

  // Declaration order is destruction order reversed: the scheduler and the
  // manager go before the engine they hook.
  VirtualClock clock{0};
  DvsEngine engine{clock};
  obs::Registry registry;
  std::unique_ptr<obs::EngineMetrics> metrics;
  std::unique_ptr<persist::Manager> manager;
  std::unique_ptr<Scheduler> sched;
  int gc_every = 0;  ///< SystemOptions::gc_every_n_ticks
};

void Run(DvsEngine& engine, const std::string& sql) {
  auto r = engine.Execute(sql);
  if (!r.ok()) Fatal(sql.substr(0, 120) + ": " + r.status().ToString());
}

// ---------------------------------------------------------------------------
// Workload interface

/// A DT the reader targets. Point lookups on column 0 draw an int key from
/// a moving window of a source's live keys, or from a fixed range; scans sum
/// column 1.
struct ReadTarget {
  ObjectId id = kInvalidObjectId;
  int source = -1;     ///< >= 0: index into the live-key heads.
  int64_t range = 1;   ///< source < 0: keys in [0, range).
};

struct DtDef {
  std::string name;
  std::string sql;
};

/// Per-commit timing shared by every workload's change feed.
struct CommitLog {
  std::vector<double> commit_us;
  std::vector<double> parse_us;  ///< Traced runs: ParseStatement on the same text.
  std::vector<double> txn_us;    ///< CommitWrites calls made directly.
  Tally commits;
  uint64_t rows = 0;  ///< Base rows inserted, updated or deleted.
  bool time_parse = false;

  void Sql(DvsEngine& engine, const std::string& sql) {
    if (time_parse) {
      const int64_t p0 = NowNs();
      auto parsed = sql::ParseStatement(sql);
      parse_us.push_back(ToMicros(NowNs() - p0));
      if (!parsed.ok()) Fatal("parse: " + parsed.status().ToString());
    }
    const int64_t t0 = NowNs();
    auto r = engine.Execute(sql);
    commit_us.push_back(ToMicros(NowNs() - t0));
    commits.Add(r.ok());
    if (r.ok()) rows += static_cast<uint64_t>(r.value().affected_rows);
  }

  void Writes(TransactionManager& txn, std::vector<StagedWrite> writes) {
    uint64_t n = 0;
    for (const StagedWrite& w : writes) {
      // A row id both deleted and inserted is an update: one changed row.
      std::unordered_set<RowId> deleted;
      for (const ChangeRow& c : w.changes) {
        if (c.action == ChangeAction::kDelete) deleted.insert(c.row_id);
      }
      n += deleted.size();
      for (const ChangeRow& c : w.changes) {
        n += c.action == ChangeAction::kInsert && deleted.count(c.row_id) == 0;
      }
    }
    const int64_t t0 = NowNs();
    auto r = txn.CommitWrites(std::move(writes));
    commit_us.push_back(ToMicros(NowNs() - t0));
    txn_us.push_back(commit_us.back());
    commits.Add(r.ok());
    if (r.ok()) rows += n;
  }
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Empty engine -> schema, initial load, initialization wave and warm-up
  /// ticks. When it returns, the next tick is the first measured one.
  virtual void Setup() = 0;
  /// Commits the base-table changes that arrive in (from, to].
  virtual void Pump(Micros from, Micros to, CommitLog* log) = 0;
  virtual std::vector<ReadTarget> Targets() const = 0;
  /// DTs whose contents the DVS-invariant check compares.
  virtual std::vector<DtDef> SampledDts() const = 0;
  /// Live-key heads for targets with a source (read concurrently by the
  /// reader).
  virtual const std::vector<std::atomic<int64_t>>* KeyHeads() const {
    return nullptr;
  }
  virtual int64_t KeyWindow() const { return 1; }
  /// Reads per second of the open-loop generator thread. 0: no reader runs
  /// beside the ticks; the loop's main thread issues ReadMix::probes reads
  /// after each tick instead, on the quiesced engine.
  virtual double ReadRate() const { return 0; }
  virtual ReadMix Reads() const { return {}; }
  /// Zipf exponent of the read targets (0: uniform).
  virtual double ReadSkew() const { return 0; }
  /// Ticks between checkpoints (0: persistence off in the loop).
  virtual int CheckpointEvery() const { return 0; }

  /// One canonical period: the period's arrivals commit mid-period (a
  /// commit stamped at an already-run tick's time would fall inside that
  /// tick's data timestamp), then the tick runs. Returns the tick's wall
  /// time in ms.
  double Step(CommitLog* log) {
    const Micros from = sys_->clock.Now();
    const Micros to = from + kTick;
    sys_->clock.AdvanceTo(from + kTick / 2);
    Pump(from, to, log);
    const int64_t t0 = NowNs();
    sys_->sched->RunUntil(to);
    if (sys_->gc_every > 0 && (to - kT0) / kTick % sys_->gc_every == 0) {
      const int64_t g0 = NowNs();
      persist::RunRetentionGc(sys_->engine.catalog(), to, sys_->manager.get());
      gc_ms.push_back(ToMillis(NowNs() - g0));
    }
    return ToMillis(NowNs() - t0);
  }

  /// Wall time of each retention GC the benchmark ran itself.
  std::vector<double> gc_ms;

  System& sys() { return *sys_; }

 protected:
  void Warmup(int ticks) {
    CommitLog scratch;
    for (int i = 0; i < ticks; ++i) Step(&scratch);
  }

  std::unique_ptr<System> sys_;
};

/// `n` values whose counts follow the weights of `mix` as closely as whole
/// numbers allow, in seeded random order: every seed gets the same mix, so
/// seeds vary which pipeline gets what, not how much work there is.
template <typename T>
std::vector<T> Quota(const std::vector<std::pair<T, double>>& mix, size_t n,
                     Rng* rng) {
  double total = 0;
  for (const auto& m : mix) total += m.second;
  std::vector<T> out;
  double acc = 0;
  for (const auto& [value, weight] : mix) {
    acc += weight;
    const size_t upto = static_cast<size_t>(std::llround(acc / total * static_cast<double>(n)));
    while (out.size() < upto) out.push_back(value);
  }
  std::shuffle(out.begin(), out.end(), rng->engine());
  return out;
}

// ---------------------------------------------------------------------------
// fleet_durable and serve_mixed: pipelines of small sources

/// Figure 5's lag marginals (~20% <= 5 min, ~55% in the middle, ~25% >= 16
/// h) with every sub-5-minute lag mapped to the 48 s canonical period, so
/// the ticks of a run fall into few, well-separated due-set sizes: 7 of 8
/// ticks refresh only the 48 s DTs.
const std::vector<std::pair<Micros, double>> kFleetLags = {
    {1 * kMicrosPerMinute, 0.08}, {2 * kMicrosPerMinute, 0.05},
    {3 * kMicrosPerMinute, 0.07}, {15 * kMicrosPerMinute, 0.12},
    {1 * kMicrosPerHour, 0.18},   {4 * kMicrosPerHour, 0.15},
    {8 * kMicrosPerHour, 0.10},   {16 * kMicrosPerHour, 0.13},
    {24 * kMicrosPerHour, 0.09},  {48 * kMicrosPerHour, 0.03},
};

/// Sources feeding one or more DTs, shaped like the fleet generator's
/// (workload/fleet.h) but steady: a source holds its last kBatches arrival
/// batches, and each arrival retires the oldest, so sizes, partition counts
/// and retained versions level off instead of growing with the run.
class PipelineWorkload : public Workload {
 protected:
  static constexpr size_t kBatches = 8;

  struct Source {
    std::string table;
    Micros period = 0;
    Micros next_arrival = 0;
    int64_t next_key = 0;
    std::deque<int64_t> batch_starts;  ///< First key of each live batch.
  };

  PipelineWorkload(SystemOptions options, uint64_t seed, int min_batch,
                   int max_batch)
      : options_(std::move(options)),
        rng_(seed),
        min_batch_(min_batch),
        max_batch_(max_batch) {}

  void CreateSource(int i, int width, const std::string& retention) {
    Source s;
    s.table = "src_" + workload::PaddedIndex(i, width);
    Run(sys_->engine, "CREATE TABLE " + s.table +
                          " (k INT, v INT, cat STRING) MIN_DATA_RETENTION = '" +
                          retention + "'");
    sources_.push_back(std::move(s));
  }

  void CreateDt(const std::string& name, Micros lag, const std::string& query,
                int wh, int source, bool aggregate,
                const std::string& retention) {
    Run(sys_->engine,
        "CREATE DYNAMIC TABLE " + name + " TARGET_LAG = '" +
            std::to_string(lag / kMicrosPerSecond) +
            " seconds' WAREHOUSE = wh_" + std::to_string(wh) +
            " INITIALIZE = ON_SCHEDULE MIN_DATA_RETENTION = '" + retention +
            "' AS " + query);
    dts_.push_back({name, query});
    // Reads go to the projection DTs: one shape, so the read mix does not
    // hang on which DTs a seed makes aggregates.
    if (aggregate) return;
    targets_.push_back({sys_->engine.ObjectIdOf(name).value(), source});
  }

  void InitHeads() {
    heads_ = std::make_unique<std::vector<std::atomic<int64_t>>>(sources_.size());
    PublishHeads();
  }
  void PublishHeads() {
    for (size_t i = 0; i < sources_.size(); ++i) {
      (*heads_)[i].store(sources_[i].next_key, std::memory_order_relaxed);
    }
  }

  int64_t BatchSize() { return rng_.Uniform(min_batch_, max_batch_); }
  int64_t NewV() { return rng_.Uniform(-50, 100); }
  int64_t NewCat() { return rng_.Uniform(0, 4); }

  /// One arrival at source `i`: a new batch, churn on a row of the batch
  /// before it, and (once the source is full) the oldest batch retired.
  virtual void Arrive(size_t i, CommitLog* log) = 0;

  void Pump(Micros, Micros to, CommitLog* log) override {
    for (size_t i = 0; i < sources_.size(); ++i) {
      while (sources_[i].next_arrival <= to) {
        sources_[i].next_arrival += sources_[i].period;
        Arrive(i, log);
      }
    }
    PublishHeads();
  }

  std::vector<ReadTarget> Targets() const override { return targets_; }
  std::vector<DtDef> SampledDts() const override {
    std::vector<DtDef> out;
    const size_t step = std::max<size_t>(1, dts_.size() / 48);
    for (size_t i = 0; i < dts_.size(); i += step) out.push_back(dts_[i]);
    return out;
  }
  const std::vector<std::atomic<int64_t>>* KeyHeads() const override {
    return heads_.get();
  }
  int64_t KeyWindow() const override {
    return static_cast<int64_t>(kBatches - 1) * min_batch_;
  }

  SystemOptions options_;
  Rng rng_;
  int min_batch_;
  int max_batch_;
  std::vector<Source> sources_;
  std::vector<ReadTarget> targets_;
  std::vector<DtDef> dts_;
  std::unique_ptr<std::vector<std::atomic<int64_t>>> heads_;
};

class FleetDurable : public PipelineWorkload {
 public:
  FleetDurable(const Args& a, const std::string& dir)
      : PipelineWorkload({0, dir, kCheckpointEvery, kCheckpointEvery, kT0},
                         a.seed, a.tiny ? 5 : 50, a.tiny ? 15 : 150),
        pipelines_(a.tiny ? 40 : 200) {}

  // Serial rather than three workers, and batches of 50-150 rows rather
  // than a few. On a shared 4-vCPU VM, hand-offs between threads stretch
  // with the host's load: with 3 workers tick_p50 ranged 7.4-15.9 ms over
  // ten runs, and with 1 worker it still moved 2.5x as much as the
  // checkpoint-bound tick_p90 in a noisy set. With 1-4-row batches a plain
  // tick was ~3 ms, mostly such fixed per-tick costs.

  /// A checkpoint and a retention GC every 4th tick: a quarter of the
  /// ticks, so tick_p50 falls inside the plain ticks and tick_p90 well
  /// inside the checkpoint ticks (half of which also refresh the 15-minute
  /// DTs, a cost far below a checkpoint's). GC runs on the checkpoint
  /// ticks rather than in every tick because persist::RunRetentionGc scans
  /// every DT's plan for each object: run per tick, that quadratic scan
  /// would be most of every tick, and the plain ticks would no longer show
  /// the per-DT scheduling overhead this workload is for.
  static constexpr int kCheckpointEvery = 4;

  void Setup() override {
    sys_ = std::make_unique<System>(options_);
    const size_t n = static_cast<size_t>(pipelines_);
    const int width = static_cast<int>(std::to_string(pipelines_ - 1).size());
    const std::string retention = "5 minutes";
    // Per lag class, by quota: Zipf-skewed fan-out 1-6 (weights 1, 1/2, ...,
    // 1/6), 30% chained, 40% of first-level DTs aggregating, and arrivals
    // every 0.5-8x the lag, spread evenly over the class. The specs come
    // from a fixed generator, so every seed gets the same set of pipeline
    // shapes (how fast a wide pipeline's source fills moves a tick by ~10%);
    // the seed decides which pipeline gets which shape, its arrival phase
    // and its data.
    Rng layout(1);
    struct Spec {
      Micros lag;
      double factor;
      int fan_out;
      bool chained;
      std::vector<bool> aggregate;
    };
    std::vector<Spec> specs;
    const std::vector<Micros> lags = Quota(kFleetLags, n, &layout);
    for (const auto& [lag, weight] : kFleetLags) {
      const size_t m = static_cast<size_t>(std::count(lags.begin(), lags.end(), lag));
      if (m == 0) continue;
      const std::vector<int> fan_outs =
          Quota<int>({{1, 60}, {2, 30}, {3, 20}, {4, 15}, {5, 12}, {6, 10}}, m, &layout);
      const std::vector<bool> chained = Quota<bool>({{true, 3}, {false, 7}}, m, &layout);
      size_t first_level = 0;
      for (int f : fan_outs) first_level += static_cast<size_t>(f);
      const std::vector<bool> aggregate =
          Quota<bool>({{true, 4}, {false, 6}}, first_level, &layout);
      std::vector<double> factors;
      for (size_t j = 0; j < m; ++j) {
        factors.push_back(0.5 + 7.5 * (static_cast<double>(j) + 0.5) / static_cast<double>(m));
      }
      std::shuffle(factors.begin(), factors.end(), layout.engine());
      for (size_t j = 0, next = 0; j < m; ++j) {
        Spec spec{lag, factors[j], fan_outs[j], chained[j], {}};
        for (int f = 0; f < spec.fan_out; ++f) spec.aggregate.push_back(aggregate[next++]);
        specs.push_back(std::move(spec));
      }
    }
    std::shuffle(specs.begin(), specs.end(), rng_.engine());

    for (int i = 0; i < pipelines_; ++i) {
      const Spec& spec = specs[static_cast<size_t>(i)];
      CreateSource(i, width, retention);
      Source& s = sources_.back();
      const Micros lag = spec.lag;
      s.period = std::max<Micros>(
          kMicrosPerMinute, static_cast<Micros>(static_cast<double>(lag) * spec.factor));
      s.next_arrival = kT0 + rng_.Uniform(1, s.period);
      // Siblings and the chained DT share the source's lag: a slower sibling
      // would pin the source's old versions against retention GC for the
      // whole run, and the state would never level off.
      const std::string idx = workload::PaddedIndex(i, width);
      bool first_agg = false;
      for (int f = 0; f < spec.fan_out; ++f) {
        const bool agg = spec.aggregate[static_cast<size_t>(f)];
        if (f == 0) first_agg = agg;
        const std::string query =
            agg ? "SELECT cat, count(*) AS n, sum(v) AS total FROM " + s.table +
                      " GROUP BY ALL"
                : "SELECT k, v * 2 AS v2, cat FROM " + s.table + " WHERE v > 0";
        CreateDt(f == 0 ? "dt_" + idx : "dt_" + idx + "_f" + std::to_string(f),
                 lag, query, (i + f) % 8, i, agg, retention);
      }
      if (spec.chained) {
        CreateDt("dt_" + idx + "_b", lag, "SELECT * FROM dt_" + idx, i % 8, i,
                 first_agg, retention);
      }
    }
    CommitLog load;
    for (size_t i = 0; i < n; ++i) {
      for (size_t b = 0; b < kBatches; ++b) Arrive(i, &load);
    }
    InitHeads();
    sys_->sched->RunUntil(kT0);  // the initialization wave
    // Checkpointing here restarts the policy's tick count, so its
    // checkpoints land on ticks that are multiples of kCheckpointEvery.
    SchedulerPersistState state = sys_->sched->ExportState();
    Must(sys_->manager->Checkpoint(&state), "checkpoint");
    Warmup(8);
  }

  int CheckpointEvery() const override { return kCheckpointEvery; }

 private:
  std::string InsertSql(Source& s, int64_t n) {
    std::string sql = "INSERT INTO " + s.table + " VALUES ";
    for (int64_t r = 0; r < n; ++r) {
      if (r) sql += ", ";
      sql += "(" + std::to_string(s.next_key++) + ", " + std::to_string(NewV()) +
             ", 'c" + std::to_string(NewCat()) + "')";
    }
    return sql;
  }

  void Arrive(size_t i, CommitLog* log) override {
    Source& s = sources_[i];
    const int64_t previous = s.batch_starts.empty() ? -1 : s.batch_starts.back();
    s.batch_starts.push_back(s.next_key);
    log->Sql(sys_->engine, InsertSql(s, BatchSize()));
    if (previous >= 0 && rng_.Bernoulli(0.2)) {
      const int64_t key = rng_.Uniform(previous, s.batch_starts.back() - 1);
      log->Sql(sys_->engine,
               rng_.Bernoulli(0.5)
                   ? "UPDATE " + s.table + " SET v = " + std::to_string(NewV()) +
                         " WHERE k = " + std::to_string(key)
                   : "DELETE FROM " + s.table + " WHERE k = " + std::to_string(key));
    }
    if (s.batch_starts.size() > kBatches) {
      s.batch_starts.pop_front();
      log->Sql(sys_->engine, "DELETE FROM " + s.table + " WHERE k < " +
                                 std::to_string(s.batch_starts.front()));
    }
  }

  int pipelines_;
};

/// serve_mixed's sources take CDC batches through CommitWrites; the
/// benchmark keeps each live row's id and values to stage deletes.
class ServeMixed : public PipelineWorkload {
 public:
  explicit ServeMixed(const Args& a)
      : PipelineWorkload({1, "", 0, 0, kT0 - static_cast<Micros>(kBatches - 1) * kTick},
                         a.seed, a.tiny ? 20 : 150, a.tiny ? 40 : 250),
        pipelines_(a.tiny ? 20 : 400) {}

  static constexpr double kReadRate = 2000;

  void Setup() override {
    sys_ = std::make_unique<System>(options_);
    const size_t n = static_cast<size_t>(pipelines_);
    const int width = static_cast<int>(std::to_string(pipelines_ - 1).size());
    const std::string retention = "4 minutes";
    for (int i = 0; i < pipelines_; ++i) {
      CreateSource(i, width, retention);
      Source& s = sources_.back();
      // Every DT is due every tick; a source receives a batch every 4-12
      // ticks, so about one refresh in eight merges changes. Periods and
      // chains follow the pipeline index, which is also the read-popularity
      // rank: seeds vary data, phases and reads, not which DTs are hot.
      const int64_t period = 4 + i % 9;
      s.period = kTick * period;
      s.next_arrival = kT0 + kTick * rng_.Uniform(1, period);
      const std::string idx = workload::PaddedIndex(i, width);
      CreateDt("dt_" + idx, kMicrosPerMinute,
               "SELECT k, v * 2 AS v2, cat FROM " + s.table + " WHERE v > 0",
               i % 4, i, false, retention);
      if (i % 10 < 3) {
        CreateDt("dt_" + idx + "_b", kMicrosPerMinute,
                 "SELECT k, v2 FROM dt_" + idx + " WHERE v2 > 50", i % 4, i,
                 false, retention);
      }
      objects_.push_back(sys_->engine.catalog().Find(s.table).value());
    }
    live_.resize(n);
    InitHeads();
    // Initial load: one batch per source per tick, so every DT (initialized
    // by the first of these ticks) holds one micro-partition per batch, as
    // it will in the measured loop.
    for (size_t b = 0; b < kBatches; ++b) {
      const Micros from = sys_->clock.Now();
      sys_->clock.AdvanceTo(from + kTick / 2);
      CommitLog scratch;
      for (size_t i = 0; i < n; ++i) Arrive(i, &scratch);
      PublishHeads();
      sys_->sched->RunUntil(from + kTick);
    }
  }

  double ReadRate() const override { return kReadRate; }
  double ReadSkew() const override { return 1; }

 private:
  struct LiveRow {
    RowId id;
    int64_t k, v, cat;
    Row Values() const {
      return {Value::Int(k), Value::Int(v), Value::String("c" + std::to_string(cat))};
    }
  };
  using Batch = std::vector<LiveRow>;

  /// Stages `changes` plus a new batch at source `i` in one commit.
  void Commit(size_t i, ChangeSet changes, CommitLog* log) {
    Source& s = sources_[i];
    CatalogObject* obj = objects_[i];
    std::vector<Row> rows;
    const int64_t n = BatchSize();
    s.batch_starts.push_back(s.next_key);
    for (int64_t r = 0; r < n; ++r) {
      rows.push_back({Value::Int(s.next_key++), Value::Int(NewV()),
                      Value::String("c" + std::to_string(NewCat()))});
    }
    Batch batch;
    for (ChangeRow& c : obj->storage->MakeInsertChanges(std::move(rows))) {
      batch.push_back({c.row_id, c.values[0].int_value(), c.values[1].int_value(),
                       c.values[2].string_value()[1] - '0'});
      changes.push_back(std::move(c));
    }
    live_[i].push_back(std::move(batch));
    log->Writes(sys_->engine.txn(), {{obj->storage.get(), std::move(changes), obj->id}});
  }

  void Arrive(size_t i, CommitLog* log) override {
    ChangeSet changes;
    std::deque<Batch>& batches = live_[i];
    // Churn: rewrite or retract one row of the newest batch.
    if (!batches.empty() && rng_.Bernoulli(0.2) && !batches.back().empty()) {
      Batch& newest = batches.back();
      const size_t at = static_cast<size_t>(rng_.Uniform(0, static_cast<int64_t>(newest.size()) - 1));
      LiveRow& row = newest[at];
      changes.push_back({ChangeAction::kDelete, row.id, row.Values()});
      if (rng_.Bernoulli(0.5)) {
        row.v = NewV();
        changes.push_back({ChangeAction::kInsert, row.id, row.Values()});
      } else {
        newest.erase(newest.begin() + static_cast<std::ptrdiff_t>(at));
      }
    }
    // Retire the oldest batch: mostly one whole micro-partition, so few
    // survivors are rewritten.
    if (batches.size() == kBatches) {
      for (const LiveRow& row : batches.front()) {
        changes.push_back({ChangeAction::kDelete, row.id, row.Values()});
      }
      batches.pop_front();
      sources_[i].batch_starts.pop_front();
    }
    Commit(i, std::move(changes), log);
  }

  int pipelines_;
  std::vector<CatalogObject*> objects_;
  std::vector<std::deque<Batch>> live_;
};

// ---------------------------------------------------------------------------
// star_incremental

class StarIncremental : public Workload {
 public:
  explicit StarIncremental(const Args& a)
      : rng_(a.seed),
        batch_rows_(a.tiny ? 20 : 250),
        dim_rows_(a.tiny ? 500 : 10000) {}

  /// Categories of the dimension: cat_totals has one row for each of the
  /// ~3.7k that 10k dim rows hit, so converting its partition for a read is
  /// real work rather than a few hundred ns of lock and cache bookkeeping.
  static constexpr int kCats = 4096;
  /// The fact table is kBatches batches of batch_rows_ rows, one
  /// micro-partition each, as the tick feed writes them.
  static constexpr int kBatches = 1000;
  /// Updates pick from the newest kRecentBatches batches.
  static constexpr int kRecentBatches = 4;

  void Setup() override {
    sys_ = std::make_unique<System>(SystemOptions{});
    DvsEngine& e = sys_->engine;
    Run(e, "CREATE TABLE fact (k INT, dim_id INT, v INT) "
           "MIN_DATA_RETENTION = '3 minutes'");
    Run(e, "CREATE TABLE dim (dim_id INT, cat INT)");
    fact_ = e.catalog().Find("fact").value();
    CatalogObject* dim = e.catalog().Find("dim").value();
    std::vector<Row> d;
    for (int64_t i = 0; i < dim_rows_; ++i) {
      d.push_back({Value::Int(i), Value::Int(rng_.Uniform(0, kCats - 1))});
    }
    ChangeSet cs = dim->storage->MakeInsertChanges(std::move(d));
    Must(e.txn().CommitWrites({{dim->storage.get(), std::move(cs), dim->id}})
             .status(),
         "dim load");
    // The initial load is the feed run kBatches times without retiring, so
    // the table starts in the layout the measured ticks keep it in.
    CommitLog load;
    for (int b = 0; b < kBatches; ++b) Feed(&load, /*retire=*/false);

    const std::string agg =
        "SELECT d.cat AS cat, count(*) AS n, sum(f.v) AS sv FROM fact f "
        "JOIN dim d ON f.dim_id = d.dim_id GROUP BY ALL";
    const std::string top =
        "SELECT cat % 16 AS bucket, sum(n) AS n, sum(sv) AS sv FROM "
        "cat_totals GROUP BY ALL";
    Run(e, "CREATE DYNAMIC TABLE cat_totals TARGET_LAG = '1 minute' "
           "WAREHOUSE = wh REFRESH_MODE = INCREMENTAL INITIALIZE = ON_SCHEDULE "
           "MIN_DATA_RETENTION = '3 minutes' AS " + agg);
    Run(e, "CREATE DYNAMIC TABLE bucket_totals TARGET_LAG = '1 minute' "
           "WAREHOUSE = wh REFRESH_MODE = INCREMENTAL INITIALIZE = ON_SCHEDULE "
           "MIN_DATA_RETENTION = '3 minutes' AS " + top);
    dts_ = {{"cat_totals", agg}, {"bucket_totals", top}};
    targets_.push_back({e.ObjectIdOf("cat_totals").value(), -1, kCats});
    sys_->sched->RunUntil(kT0);  // the initialization wave
    Warmup(8);
  }

  void Pump(Micros, Micros, CommitLog* log) override { Feed(log, true); }

  std::vector<ReadTarget> Targets() const override { return targets_; }
  std::vector<DtDef> SampledDts() const override { return dts_; }

  /// One probe per tick: a point lookup on cat_totals at the present, the
  /// first read of the refresh the tick just committed. It resolves and pins
  /// the new version and converts its fresh partition (~3.7k rows) before
  /// the lookup: ~0.5 ms, a single mode that follows the tick's own
  /// run-to-run variation. Warm lookups that hit the batch cache were ~3 us
  /// loops over cached data; their median jumped from 3 to 5 us in runs
  /// where the host slowed the tick by a fifth (ten-seed spread 0.51), and
  /// mixing in misses or scans put p50 or p95 on the edge between modes.
  ReadMix Reads() const override { return {1.0, 0, 1}; }

 private:
  struct LiveRow {
    RowId id;
    int64_t k, dim, v;
    Row Values() const { return {Value::Int(k), Value::Int(dim), Value::Int(v)}; }
  };

  /// One tick's CDC in one commit, 0.1% of the table per kind: a new batch
  /// of keys, a quarter batch of updates skewed to the newest rows, and the
  /// oldest batch deleted.
  void Feed(CommitLog* log, bool retire) {
    ChangeSet cs;
    const size_t n = static_cast<size_t>(batch_rows_);
    if (retire) {
      for (size_t i = 0; i < n; ++i) {
        cs.push_back({ChangeAction::kDelete, live_.front().id, live_.front().Values()});
        live_.pop_front();
      }
    }
    if (!live_.empty()) {
      const double reach = static_cast<double>(std::min(live_.size(), n * kRecentBatches));
      std::set<size_t> picked;
      while (picked.size() < n / 4) {
        const double back = -std::log(1 - rng_.NextDouble()) * reach / 4;
        picked.insert(live_.size() - 1 -
                      std::min(static_cast<size_t>(reach) - 1, static_cast<size_t>(back)));
      }
      for (size_t idx : picked) {
        LiveRow& r = live_[idx];
        cs.push_back({ChangeAction::kDelete, r.id, r.Values()});
        r.v = rng_.Uniform(0, 999);
        cs.push_back({ChangeAction::kInsert, r.id, r.Values()});
      }
    }
    std::vector<Row> rows;
    for (size_t i = 0; i < n; ++i) {
      rows.push_back({Value::Int(next_key_++), Value::Int(rng_.Uniform(0, dim_rows_ - 1)),
                      Value::Int(rng_.Uniform(0, 999))});
    }
    for (ChangeRow& c : fact_->storage->MakeInsertChanges(std::move(rows))) {
      live_.push_back({c.row_id, c.values[0].int_value(), c.values[1].int_value(),
                       c.values[2].int_value()});
      cs.push_back(std::move(c));
    }
    log->Writes(sys_->engine.txn(), {{fact_->storage.get(), std::move(cs), fact_->id}});
  }

  Rng rng_;
  int64_t batch_rows_;
  int64_t dim_rows_;
  int64_t next_key_ = 0;
  CatalogObject* fact_ = nullptr;
  std::deque<LiveRow> live_;
  std::vector<ReadTarget> targets_;
  std::vector<DtDef> dts_;
};

// ---------------------------------------------------------------------------
// Reads

struct ReadSample {
  serve::ReadQuery query;
  serve::ReadResult result;
};

/// Reads drawn from a workload's read mix, each timed around its
/// QueryService::Execute call. Every 64th successful read is kept for the
/// oracle. Used by one thread at a time.
class Reader {
 public:
  Reader(serve::QueryService* service, const VirtualClock* clock,
         const Workload& w, uint64_t seed)
      : service_(service),
        clock_(clock),
        targets_(w.Targets()),
        heads_(w.KeyHeads()),
        window_(w.KeyWindow()),
        rng_(seed),
        mix_(w.Reads()),
        zipf_(targets_.size(), w.ReadSkew()) {}

  void ReadOne() {
    serve::ReadQuery q = MakeQuery();
    const int64_t begin = NowNs();
    Result<serve::ReadResult> r = service_->Execute(q);
    latency_us.push_back(ToMicros(NowNs() - begin));
    reads.Add(r.ok());
    if (!r.ok()) {
      if (r.status().code() == StatusCode::kFailedPrecondition) {
        ++resolution_misses;
      }
      return;
    }
    if ((reads.attempted & 63) == 7) {
      std::lock_guard<std::mutex> lock(samples_mu_);
      samples_.push_back({q, r.take()});
    }
  }

  /// Sampled successful reads since the last call, for the oracle.
  std::vector<ReadSample> TakeSamples() {
    std::lock_guard<std::mutex> lock(samples_mu_);
    return std::move(samples_);
  }

  std::vector<double> latency_us;
  Tally reads;
  uint64_t resolution_misses = 0;

 private:
  serve::ReadQuery MakeQuery() {
    const ReadTarget& t = targets_[zipf_.Draw(&rng_)];
    serve::ReadQuery q;
    q.table = t.id;
    q.read_ts = clock_->Now();
    // Some reads travel back one or two ticks (within retention).
    if (rng_.Bernoulli(mix_.time_travel_share)) {
      q.read_ts = std::max(kT0, q.read_ts - kTick * rng_.Uniform(1, 2));
    }
    if (rng_.Bernoulli(mix_.point_share)) {
      q.kind = serve::ReadKind::kPointLookup;
      q.key_column = 0;
      if (t.source >= 0) {
        const int64_t head =
            (*heads_)[static_cast<size_t>(t.source)].load(std::memory_order_relaxed);
        q.key = Value::Int(head - 1 - rng_.Uniform(0, window_ - 1));
      } else {
        q.key = Value::Int(rng_.Uniform(0, t.range - 1));
      }
    } else {
      q.kind = serve::ReadKind::kScan;
      q.sum_column = 1;
    }
    return q;
  }

  serve::QueryService* service_;
  const VirtualClock* clock_;
  std::vector<ReadTarget> targets_;
  const std::vector<std::atomic<int64_t>>* heads_;
  int64_t window_;
  Rng rng_;
  ReadMix mix_;
  ZipfTable zipf_;
  std::mutex samples_mu_;
  std::vector<ReadSample> samples_;  ///< Guarded by samples_mu_.
};

/// One generator thread issuing a Reader's reads on a fixed schedule,
/// whatever the service's speed. Latency is the Execute call itself; the
/// wait between a read's due time and its start is recorded apart
/// (queue_us): on a VM whose vCPUs lose 1-10% of wall time to the host in
/// 1-8 ms gaps, a due-based tail measures the host.
class OpenLoopReader {
 public:
  OpenLoopReader(Reader* reader, double rate, std::shared_mutex* trace_gate)
      : reader_(reader),
        period_ns_(static_cast<int64_t>(1e9 / rate)),
        trace_gate_(trace_gate) {}

  ~OpenLoopReader() { Stop(); }
  OpenLoopReader(const OpenLoopReader&) = delete;
  OpenLoopReader& operator=(const OpenLoopReader&) = delete;

  void Start() { thread_ = std::thread([this] { Loop(); }); }
  void Stop() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }

  std::vector<double> queue_us;  ///< Valid after Stop().

 private:
  void Loop() {
    const int64_t start = NowNs() + 1'000'000;
    for (uint64_t i = 0; !stop_.load(std::memory_order_acquire); ++i) {
      const int64_t due = start + static_cast<int64_t>(i) * period_ns_;
      if (due > NowNs()) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - NowNs()));
      }
      std::shared_lock<std::shared_mutex> gate;
      if (trace_gate_ != nullptr) {
        gate = std::shared_lock<std::shared_mutex>(*trace_gate_);
      }
      queue_us.push_back(ToMicros(NowNs() - due));
      reader_->ReadOne();
    }
  }

  Reader* reader_;
  int64_t period_ns_;
  std::shared_mutex* trace_gate_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// ---------------------------------------------------------------------------
// Traced runs: spans folded into per-layer totals, one recorder per loop
// iteration so the recorder never fills (trace.dropped stays 0).

struct LayerTotals {
  std::vector<double> plan_ms, finalize_ms;
  double attempt_ms = 0;
  double execute_total_ms = 0;
  std::map<std::string, double> op_self_ms;  ///< exec op.<Kind>
  std::map<std::string, std::vector<double>> refresh_us;  ///< by action
  std::vector<double> wal_append_us, checkpoint_ms;
  std::vector<double> query_point_us, query_scan_us;
  uint64_t dropped = 0;
  uint64_t iterations = 0;
};

const char* ActionKey(RefreshAction a) {
  switch (a) {
    case RefreshAction::kNoData: return "no_data";
    case RefreshAction::kIncremental: return "incremental";
    case RefreshAction::kFull: return "full";
    case RefreshAction::kInitialize: return "initialize";
    case RefreshAction::kReinitialize: return "reinitialize";
  }
  return "other";
}

/// Folds one iteration's spans. Self time = duration minus the direct
/// children on the same thread. Exec op spans count only inside a refresh
/// attempt: reads run the same operators under serve spans.
void FoldSpans(std::vector<obs::TraceEvent> events,
               const std::unordered_map<std::string, RefreshAction>& actions,
               LayerTotals* out) {
  std::sort(events.begin(), events.end(),
            [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.start_us != b.start_us) return a.start_us < b.start_us;
              return a.dur_us > b.dur_us;
            });
  std::vector<double> child_us(events.size(), 0);
  std::vector<bool> in_refresh(events.size(), false);
  std::vector<size_t> stack;
  for (size_t i = 0; i < events.size(); ++i) {
    const obs::TraceEvent& e = events[i];
    while (!stack.empty()) {
      const obs::TraceEvent& top = events[stack.back()];
      if (top.tid == e.tid && e.start_us + e.dur_us <= top.start_us + top.dur_us) {
        break;
      }
      stack.pop_back();
    }
    in_refresh[i] = std::string(e.category) == "refresh";
    if (!stack.empty()) {
      child_us[stack.back()] += static_cast<double>(e.dur_us);
      in_refresh[i] = in_refresh[i] || in_refresh[stack.back()];
    }
    stack.push_back(i);
  }
  for (size_t i = 0; i < events.size(); ++i) {
    const obs::TraceEvent& e = events[i];
    const double dur = static_cast<double>(e.dur_us);
    const std::string cat = e.category;
    const std::string name = e.name;
    if (cat == "sched") {
      if (name == "tick.plan") out->plan_ms.push_back(dur / 1e3);
      if (name == "tick.execute") out->execute_total_ms += dur / 1e3;
      if (name == "tick.finalize") out->finalize_ms.push_back(dur / 1e3);
    } else if (cat == "refresh") {
      out->attempt_ms += dur / 1e3;
      auto it = actions.find(e.scope);
      if (it != actions.end()) out->refresh_us[ActionKey(it->second)].push_back(dur);
    } else if (cat == "exec") {
      if (in_refresh[i]) out->op_self_ms[name] += (dur - child_us[i]) / 1e3;
    } else if (cat == "persist") {
      if (name == "wal.append") out->wal_append_us.push_back(dur);
      if (name == "checkpoint") out->checkpoint_ms.push_back(dur / 1e3);
    } else if (cat == "serve") {
      (name == "query.point" ? out->query_point_us : out->query_scan_us)
          .push_back(dur);
    }
  }
}

// ---------------------------------------------------------------------------
// Correctness checks

std::vector<Row> Sorted(std::vector<Row> rows) {
  std::sort(rows.begin(), rows.end(), RowLess);
  return rows;
}

bool SameRows(const std::vector<Row>& a, const std::vector<Row>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!RowsEqual(a[i], b[i])) return false;
  }
  return true;
}

/// DVS invariant: a DT's contents equal its defining query at its data
/// timestamp.
void CheckDvs(DvsEngine& engine, const std::vector<DtDef>& dts, Tally* checks) {
  for (const DtDef& d : dts) {
    auto obj = engine.catalog().Find(d.name);
    if (!obj.ok() || obj.value()->dt == nullptr) {
      checks->Add(false);
      continue;
    }
    const Micros ts = obj.value()->dt->data_timestamp;
    auto contents = engine.QueryAsOf("SELECT * FROM " + d.name, ts);
    auto oracle = engine.QueryAsOf(d.sql, ts);
    const bool ok = contents.ok() && oracle.ok() &&
                    SameRows(Sorted(contents.take()), Sorted(oracle.take()));
    if (!ok) std::fprintf(stderr, "perfbench: DVS mismatch on %s\n", d.name.c_str());
    checks->Add(ok);
  }
}

/// Sampled concurrent reads must equal re-reads, between ticks, at the
/// refresh timestamp they resolved to. Run before the next tick, so
/// retention GC cannot have pruned the version yet.
void CheckReads(serve::QueryService& service,
                const std::vector<ReadSample>& samples, Tally* checks) {
  for (const ReadSample& s : samples) {
    serve::ReadQuery q = s.query;
    q.read_ts = s.result.resolved_refresh_ts;
    auto r = service.Execute(q);
    const serve::ReadResult& a = s.result;
    const bool ok = r.ok() && a.version == r.value().version &&
                    a.digest == r.value().digest &&
                    a.rows_scanned == r.value().rows_scanned &&
                    a.rows_matched == r.value().rows_matched &&
                    a.sum_i64 == r.value().sum_i64 &&
                    a.sum_f64 == r.value().sum_f64;
    if (!ok) std::fprintf(stderr, "perfbench: read oracle mismatch\n");
    checks->Add(ok);
  }
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------------------

std::unique_ptr<Workload> MakeWorkload(const Args& a, const std::string& dir) {
  if (a.workload == "fleet_durable") return std::make_unique<FleetDurable>(a, dir);
  if (a.workload == "star_incremental") return std::make_unique<StarIncremental>(a);
  if (a.workload == "serve_mixed") return std::make_unique<ServeMixed>(a);
  Fatal("unknown workload '" + a.workload + "'");
}

int RunBenchmark(const Args& args) {
  const std::string dir =
      (fs::path(args.data_dir) /
       (args.workload + "-" + std::to_string(::getpid())))
          .string();

  // ---- Setup, several times from an empty engine; the last one is kept.
  const int setups = args.tiny ? 1 : 3;
  std::vector<double> setup_s;
  std::unique_ptr<Workload> w;
  for (int r = 0; r < setups; ++r) {
    w.reset();
    malloc_trim(0);  // so an earlier setup's freed memory does not count
    const int64_t t0 = NowNs();
    w = MakeWorkload(args, dir);
    w->Setup();
    setup_s.push_back(ToSeconds(NowNs() - t0));
  }
  System& sys = w->sys();
  const int checkpoint_every = w->CheckpointEvery();
  const bool durable = checkpoint_every > 0;

  Tally refreshes, checks;
  uint64_t busy_skips = 0;
  CommitLog log;
  log.time_parse = args.trace;
  LayerTotals layers;
  std::vector<double> tick_ms;
  std::vector<double> traced_tick_ms, untraced_tick_ms;

  const size_t log_at_loop = sys.sched->log().size();
  const size_t gc_at_loop = w->gc_ms.size();
  const int64_t reg0_rewrite = sys.Metric("storage.rows_rewritten_copy");
  const int64_t reg0_raw = sys.Metric("storage.change_scan_raw_rows");
  const int64_t reg0_jh = sys.Metric("exec.join_cache.hits");
  const int64_t reg0_jm = sys.Metric("exec.join_cache.misses");
  const int64_t reg0_bh = sys.Metric("storage.batch_cache.hits");
  const int64_t reg0_bm = sys.Metric("storage.batch_cache.misses");
  const int64_t reg0_vb = sys.Metric("exec.vector_bails");
  const uint64_t wal0 =
      sys.manager ? sys.manager->stats().wal_bytes.load() : 0;
  const uint64_t ckb0 =
      sys.manager ? sys.manager->stats().checkpoint_bytes.load() : 0;
  const uint64_t ckn0 = sys.manager ? sys.manager->checkpoints_taken() : 0;

  // ---- Measured loop: commits for one canonical period, then its tick;
  // reads beside it (open loop) or after it (probes).
  serve::QueryService service(&sys.engine);
  std::shared_mutex trace_gate;
  Reader reader(&service, &sys.clock, *w, args.seed * 7919 + 1);
  const int probes = w->Reads().probes;
  std::unique_ptr<OpenLoopReader> open_loop;
  if (w->ReadRate() > 0) {
    open_loop = std::make_unique<OpenLoopReader>(
        &reader, w->ReadRate(), args.trace ? &trace_gate : nullptr);
    open_loop->Start();
  }
  std::unique_ptr<obs::TraceRecorder> recorder;
  double step_s = 0;  // commits plus ticks
  const int64_t loop_start = NowNs();
  const int64_t deadline = loop_start + static_cast<int64_t>(args.seconds * 1e9);
  uint64_t iter = 0;
  for (; NowNs() < deadline; ++iter) {
    // Setup ends on a tick that is a multiple of 8, so iteration i runs a
    // tick congruent to i + 1 mod 8. Traced runs leave every fourth
    // iteration unarmed: iterations 0 and 2 (mod 4) both run odd ticks,
    // which refresh the same due set, so their tick times give the tracing
    // overhead.
    const bool armed = args.trace && iter % 4 != 2;
    const size_t log_before = sys.sched->log().size();
    if (armed) {
      std::unique_lock<std::shared_mutex> lock(trace_gate);
      recorder = std::make_unique<obs::TraceRecorder>(size_t{1} << 24);
      obs::InstallTraceRecorder(recorder.get());
    }
    const int64_t step0 = NowNs();
    const double ms = w->Step(&log);
    step_s += ToSeconds(NowNs() - step0);
    tick_ms.push_back(ms);
    if (iter % 4 == 0) traced_tick_ms.push_back(ms);
    if (iter % 4 == 2) untraced_tick_ms.push_back(ms);
    if (!open_loop) {
      for (int r = 0; r < probes; ++r) reader.ReadOne();
    }
    if (armed) {
      {
        std::unique_lock<std::shared_mutex> lock(trace_gate);
        obs::InstallTraceRecorder(nullptr);
      }
      std::unordered_map<std::string, RefreshAction> actions;
      const auto& records = sys.sched->log();
      for (size_t i = log_before; i < records.size(); ++i) {
        if (!records[i].skipped && !records[i].failed) {
          actions[records[i].dt_name] = records[i].action;
        }
      }
      layers.dropped += recorder->dropped();
      layers.iterations += 1;
      FoldSpans(recorder->Snapshot(), actions, &layers);
      recorder.reset();
    }
    CheckReads(service, reader.TakeSamples(), &checks);
  }
  const double loop_s = ToSeconds(NowNs() - loop_start);
  if (open_loop) open_loop->Stop();
  CheckReads(service, reader.TakeSamples(), &checks);

  // ---- Quiesce. The durable workload ticks on to a fixed offset past its
  // last checkpoint, so recovery replays the same WAL length every run.
  if (durable) {
    const uint64_t every = static_cast<uint64_t>(checkpoint_every);
    while (iter % every != every / 2) {
      CommitLog tail;
      w->Step(&tail);
      ++iter;
    }
    // The scheduler drops a policy checkpoint's Status (the manager keeps
    // it in wal_status()); a failing checkpoint would make the checkpoint
    // ticks cheaper while recovery still matched from the growing WAL.
    // Setup leaves the policy's count at 0, so every `every` ticks took one.
    const bool ok = sys.manager->wal_status().ok() &&
                    sys.manager->checkpoints_taken() - ckn0 == iter / every;
    if (!ok) std::fprintf(stderr, "perfbench: checkpoints failed or missing\n");
    checks.Add(ok);
  }

  const auto& records = sys.sched->log();
  uint64_t no_data = 0, ran = 0;
  uint64_t rows_processed = 0, changes_applied = 0;
  for (size_t i = 0; i < records.size(); ++i) {
    const RefreshRecord& rec = records[i];
    if (rec.skipped) {
      ++busy_skips;
      continue;
    }
    refreshes.Add(!rec.failed);
    if (i < log_at_loop || rec.failed) continue;
    ++ran;
    no_data += rec.action == RefreshAction::kNoData;
    rows_processed += rec.rows_processed;
    changes_applied += rec.changes_applied;
  }

  const double rewrite =
      static_cast<double>(sys.Metric("storage.rows_rewritten_copy") - reg0_rewrite);
  const double raw =
      static_cast<double>(sys.Metric("storage.change_scan_raw_rows") - reg0_raw);
  const double jh = static_cast<double>(sys.Metric("exec.join_cache.hits") - reg0_jh);
  const double jm = static_cast<double>(sys.Metric("exec.join_cache.misses") - reg0_jm);
  const double bh = static_cast<double>(sys.Metric("storage.batch_cache.hits") - reg0_bh);
  const double bm = static_cast<double>(sys.Metric("storage.batch_cache.misses") - reg0_bm);
  const double vb = static_cast<double>(sys.Metric("exec.vector_bails") - reg0_vb);
  const double wal_bytes =
      sys.manager ? static_cast<double>(sys.manager->stats().wal_bytes.load() - wal0) : 0;
  const double ck_bytes =
      sys.manager
          ? static_cast<double>(sys.manager->stats().checkpoint_bytes.load() - ckb0)
          : 0;
  const double ck_count =
      sys.manager ? static_cast<double>(sys.manager->checkpoints_taken() - ckn0) : 0;
  const serve::ServeStats serve_stats = service.stats();
  const std::vector<double> gc_ms(w->gc_ms.begin() + static_cast<std::ptrdiff_t>(gc_at_loop),
                                  w->gc_ms.end());

  // ---- Correctness.
  const int64_t checks_start = NowNs();
  CheckDvs(sys.engine, w->SampledDts(), &checks);

  // ---- Recovery. Durable runs recover what the run journaled; the others
  // write one checkpoint of their final state and recover that.
  std::string live_image;
  {
    SchedulerPersistState state = sys.sched->ExportState();
    if (!durable) {
      fs::remove_all(dir);
      persist::ManagerOptions mo;
      mo.dir = dir;
      auto opened = persist::Manager::Open(mo);
      Must(opened.status(), "persist open");
      auto manager = opened.take();
      Must(manager->Attach(&sys.engine, &state), "persist attach");
    }
    live_image = persist::EncodeSystemImage(
        persist::CaptureSystemImage(sys.engine, &state));
  }
  const Micros live_now = sys.clock.Now();
  const double live_rss = PeakRssMb();
  w.reset();  // The live engine goes before recovery builds a second one.
  // At least 5 recoveries and 3 s of them: on a shared VM the host can slow
  // the process by up to half for a second or so at a time, and a quick
  // recovery (0.1 s on star_incremental) repeated a fixed 9 times could fall
  // inside one such spell.
  std::vector<double> recover_s;
  const int min_recoveries = args.tiny ? 1 : 5;
  const int64_t recover_window = args.tiny ? 0 : kRecoverWindowNs;
  const int64_t recover_start = NowNs();
  for (int r = 0; r < min_recoveries ||
                  (NowNs() - recover_start < recover_window && r < 64);
       ++r) {
    VirtualClock clock(0);
    const int64_t t0 = NowNs();
    auto rec = persist::Recover(dir, &clock);
    recover_s.push_back(ToSeconds(NowNs() - t0));
    bool ok = rec.ok();
    if (ok) {
      clock.AdvanceTo(live_now);
      ok = persist::EncodeSystemImage(persist::CaptureSystemImage(
               *rec.value().engine, &rec.value().sched)) == live_image;
    }
    if (!ok) std::fprintf(stderr, "perfbench: recovered image differs\n");
    checks.Add(ok);
  }
  fs::remove_all(dir);
  const double recover_total_s = ToSeconds(NowNs() - recover_start);
  const double checks_s = ToSeconds(recover_start - checks_start);

  // ---- Report.
  const uint64_t attempted = log.commits.attempted + refreshes.attempted +
                             reader.reads.attempted + checks.attempted;
  const uint64_t failed = log.commits.failed + refreshes.failed +
                          reader.reads.failed + checks.failed;
  const bool correct = checks.failed == 0;

  std::printf("# workload %s seed %" PRIu64 " ticks %" PRIu64
              " loop %.2fs setups %d\n",
              args.workload.c_str(), args.seed, iter, loop_s, setups);
  std::printf("# commits %" PRIu64 "/%" PRIu64 " failed, refreshes %" PRIu64
              "/%" PRIu64 " failed, busy skips %" PRIu64 ", reads %" PRIu64
              "/%" PRIu64 " failed (%" PRIu64
              " resolution misses), checks %" PRIu64 "/%" PRIu64 " failed\n",
              log.commits.failed, log.commits.attempted, refreshes.failed,
              refreshes.attempted, busy_skips, reader.reads.failed,
              reader.reads.attempted, reader.resolution_misses, checks.failed,
              checks.attempted);
  std::printf("# samples: ticks %zu commits %zu reads %zu recoveries %zu\n",
              tick_ms.size(), log.commit_us.size(), reader.latency_us.size(),
              recover_s.size());
  std::printf("# wall: setups %.2fs, loop %.2fs, checks and checkpoint %.2fs, "
              "recoveries %.2fs\n",
              std::accumulate(setup_s.begin(), setup_s.end(), 0.0), loop_s,
              checks_s, recover_total_s);

  Report report;
  if (!args.trace) {
    report.Add("setup_s", Median(setup_s), "s");
    report.Add("tick_p50_ms", ExactQuantile(tick_ms, 0.5), "ms");
    report.Add("tick_p90_ms", ExactQuantile(tick_ms, 0.9), "ms");
    report.Add("ingest_rows_per_s", static_cast<double>(log.rows) / step_s, "1/s");
    report.Add("commit_p50_us", ExactQuantile(log.commit_us, 0.5), "us");
    report.Add("commit_p90_us", ExactQuantile(log.commit_us, 0.9), "us");
    report.Add("read_p50_us", ExactQuantile(reader.latency_us, 0.5), "us");
    report.Add("read_p95_us", ExactQuantile(reader.latency_us, 0.95), "us");
    report.Add("recover_s", Median(recover_s), "s");
    report.Add("peak_rss_mb", live_rss, "MB");
  } else {
    const double iters = std::max<double>(1, static_cast<double>(layers.iterations));
    auto share = [](double num, double den) { return den > 0 ? num / den : 0; };
    report.Add("sched.plan_ms", Median(layers.plan_ms), "ms");
    report.Add("sched.finalize_ms", Median(layers.finalize_ms), "ms");
    report.Add("sched.no_data_share", share(no_data, ran), "ratio");
    report.Add("sched.busy_skips", static_cast<double>(busy_skips), "count");
    report.Add("runtime.parallelism",
               share(layers.attempt_ms, layers.execute_total_ms), "ratio");
    for (const char* a : {"no_data", "incremental", "full"}) {
      report.Add(std::string("dt.refresh_us.") + a, Median(layers.refresh_us[a]),
                 "us");
    }
    report.Add("dt.rows_processed_per_refresh", share(rows_processed, ran), "rows");
    for (const char* k : {"Scan", "Filter", "Project", "Join", "Aggregate"}) {
      report.Add(std::string("exec.op_self_ms.") + k,
                 layers.op_self_ms[k] / iters, "ms");
    }
    report.Add("exec.join_cache.hit_ratio", share(jh, jh + jm), "ratio");
    report.Add("storage.batch_cache.hit_ratio", share(bh, bh + bm), "ratio");
    report.Add("exec.vector_bails", vb, "count");
    report.Add("storage.rewrite_amplification",
               share(rewrite, static_cast<double>(log.rows + changes_applied)),
               "ratio");
    report.Add("storage.change_scan_raw_rows",
               share(raw, static_cast<double>(tick_ms.size())), "rows");
    report.Add("txn.commit_us",
               Median(log.txn_us),
               "us");
    report.Add("sql.parse_us", Median(log.parse_us), "us");
    report.Add("persist.wal_append_us", Median(layers.wal_append_us), "us");
    report.Add("persist.wal_bytes_per_commit",
               share(wal_bytes, static_cast<double>(log.commits.attempted)),
               "bytes");
    report.Add("persist.checkpoint_ms", Median(layers.checkpoint_ms), "ms");
    report.Add("persist.checkpoint_bytes", share(ck_bytes, ck_count), "bytes");
    report.Add("persist.retention_gc_ms", Median(gc_ms), "ms");
    report.Add("serve.query_us.point", Median(layers.query_point_us), "us");
    report.Add("serve.query_us.scan", Median(layers.query_scan_us), "us");
    const std::vector<double> no_queue;
    const std::vector<double>& queue_us = open_loop ? open_loop->queue_us : no_queue;
    report.Add("serve.queue_us", Median(queue_us), "us");
    report.Add("serve.cache_hit_ratio",
               share(static_cast<double>(serve_stats.cache_hits),
                     static_cast<double>(serve_stats.cache_hits +
                                         serve_stats.cache_misses)),
               "ratio");
    report.Add("serve.read_p99_us", ExactQuantile(reader.latency_us, 0.99), "us");
    report.Add("serve.rows_scanned_per_read",
               share(static_cast<double>(serve_stats.rows_scanned),
                     static_cast<double>(serve_stats.queries)),
               "rows");
    report.Add("gen.late_p99_ms", ExactQuantile(queue_us, 0.99) / 1e3, "ms");
    report.Add("trace.dropped", static_cast<double>(layers.dropped), "count");
    const double traced = Median(traced_tick_ms);
    const double untraced = Median(untraced_tick_ms);
    report.Add("trace.overhead_pct",
               untraced > 0 ? 100 * (traced / untraced - 1) : 0, "%");
  }
  report.Print(correct, attempted, failed);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
#if !defined(__OPTIMIZE__)
  std::fprintf(stderr,
               "perfbench: refusing to run an unoptimized build; configure "
               "with -DCMAKE_BUILD_TYPE=Release\n");
  return 3;
#endif
  const Args args = ParseArgs(argc, argv);
  std::printf("# env {\"nproc\": %u, \"build_type\": \"%s\", \"compiler\": "
              "\"%s\", \"git_sha\": \"%s\", \"workload\": \"%s\", \"seed\": "
              "%" PRIu64 ", \"seconds\": %g, \"trace\": %d, \"tiny\": %d}\n",
              std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
              PERFBENCH_COMPILER, args.git_sha.c_str(), args.workload.c_str(),
              args.seed, args.seconds, args.trace ? 1 : 0, args.tiny ? 1 : 0);
  return RunBenchmark(args);
}
