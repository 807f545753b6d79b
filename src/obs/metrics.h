// Unified metrics registry (the observability tentpole, ROADMAP
// "Observability architecture").
//
// Every subsystem's telemetry — storage work counters, scheduler refresh
// accounting, serve latencies, durability byte counts — registers here under
// one dotted namespace (`storage.index_lookups`, `sched.transient_failures`,
// `serve.admission_peak`, `persist.wal_bytes`, ...) instead of growing
// another ad-hoc stats struct. Three instrument types:
//
//  - Counter:   monotonic uint64, relaxed-atomic increment. Hot-path cost is
//               one relaxed fetch_add — the same cost as the raw
//               std::atomic fields the scattered stats structs used, which
//               is why StorageStats migrated onto it field-for-field.
//  - Gauge:     int64 set/add/max, relaxed-atomic.
//  - Histogram: log-spaced buckets (8 linear sub-buckets per power-of-two
//               octave), relaxed-atomic record. It is the one concurrent
//               histogram (serve read latencies record into it too);
//               HistogramData is its plain single-threaded form, used by
//               benches and as the scrape format.
//
// Determinism contract: every metric declares `deterministic` at
// registration. Deterministic metrics derive only from virtual-time work
// (rows processed, refresh decisions, index maintenance) and must be
// byte-identical across worker counts — MetricsSnapshot::DeterministicText()
// is the fingerprint bench_e20 gates at worker_threads 0 vs 4. Wall-time
// metrics (serve latencies, span durations) are reported, never gated.
//
// Thread-safety / TSan story: registration and snapshotting take `mu_`;
// recording touches only the instrument's own relaxed atomics, never the
// map. Instruments are owned by the registry and are never deallocated
// before it, so a pointer obtained from Register* stays valid for the
// registry's lifetime. Callback registrants (gauge/histogram functions
// capture `this` of some subsystem object) must Unregister before their
// captured object dies.

#ifndef DVS_OBS_METRICS_H_
#define DVS_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace dvs {
namespace obs {

/// Monotonic relaxed-atomic counter. Drop-in for the `std::atomic<uint64_t>`
/// fields the per-subsystem stats structs used: supports `+= n` and implicit
/// conversion to uint64_t.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Increment(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  Counter& operator+=(uint64_t n) {
    Increment(n);
    return *this;
  }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  /// std::atomic spelling kept so migrated stats-field readers compile as-is.
  uint64_t load() const { return value(); }
  operator uint64_t() const { return value(); }
  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// Relaxed-atomic int64 gauge (set/add/monotonic-max).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n) { v_.fetch_add(n, std::memory_order_relaxed); }
  /// Raises the gauge to `v` if above the current value (admission peaks).
  void MaxWith(int64_t v) {
    int64_t cur = v_.load(std::memory_order_relaxed);
    while (v > cur &&
           !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  int64_t value() const { return v_.load(std::memory_order_relaxed); }
  operator int64_t() const { return value(); }

 private:
  std::atomic<int64_t> v_{0};
};

/// Plain (non-atomic) histogram: what Histogram::Export returns and what a
/// single-threaded caller (a bench aggregating refresh lags) records into
/// directly.
struct HistogramData {
  /// 8 exact buckets for 0..7, then 8 sub-buckets per octave up to 2^63.
  static constexpr size_t kSubBuckets = 8;
  static constexpr size_t kBuckets = kSubBuckets + 61 * kSubBuckets;

  static size_t BucketIndex(uint64_t v);
  static double BucketMidpoint(size_t index);

  std::vector<uint64_t> buckets;  ///< size kBuckets, or empty when count==0.
  uint64_t count = 0;
  uint64_t sum = 0;
  int64_t max = 0;

  void Add(int64_t value);
  void Merge(const HistogramData& other);
  double Mean() const;
  /// Approximate q-quantile (bucket midpoint, <= ~6% relative error).
  double Quantile(double q) const;
};

/// Concurrent histogram instrument: relaxed-atomic Record plus bucket-wise
/// Merge of a HistogramData. Export is safe concurrently with writers but
/// only approximately consistent mid-flight; it is exact once they stop.
class Histogram {
 public:
  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Record(int64_t value);
  void Merge(const HistogramData& d);
  HistogramData Export() const;
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }

 private:
  std::array<std::atomic<uint64_t>, HistogramData::kBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<int64_t> max_{0};
};

enum class MetricKind { kCounter, kGauge, kHistogram };

const char* MetricKindName(MetricKind k);

/// One scraped metric value.
struct MetricSample {
  std::string name;
  std::string help;
  MetricKind kind = MetricKind::kCounter;
  bool deterministic = false;
  int64_t value = 0;        ///< Counters and gauges.
  HistogramData histogram;  ///< Histograms.
};

/// Point-in-time scrape of a registry, sorted by metric name.
struct MetricsSnapshot {
  std::vector<MetricSample> samples;

  /// Canonical sorted `name value` text encoding (histograms expand to
  /// .count/.sum/.max/.p50/.p95/.p99 lines). Stable across runs given equal
  /// values — the byte-compare format for determinism gates and the
  /// encoding `wal_dump --stats` prints.
  std::string ToText() const;
  /// ToText() restricted to deterministic metrics: the worker-count
  /// invariance fingerprint.
  std::string DeterministicText() const;
  /// Prometheus text exposition (HELP/TYPE comments, summary-style
  /// quantiles; dots become underscores).
  std::string ToPrometheus() const;

  const MetricSample* Find(const std::string& name) const;
};

/// Named instrument registry. Registration is idempotent: re-registering an
/// existing name returns the existing instrument (kind and flags keep their
/// first-registration values). Gauge/histogram *functions* are scraped at
/// Snapshot() time for subsystems whose source of truth lives elsewhere
/// (per-table StorageStats aggregation, serve latency histograms); they are
/// replaced on re-registration so a rebuilt engine can re-wire them.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter* RegisterCounter(const std::string& name, std::string help,
                           bool deterministic = false);
  Gauge* RegisterGauge(const std::string& name, std::string help,
                       bool deterministic = false);
  Histogram* RegisterHistogram(const std::string& name, std::string help,
                               bool deterministic = false);

  void RegisterGaugeFn(const std::string& name, std::string help,
                       bool deterministic, std::function<int64_t()> fn);
  void RegisterHistogramFn(const std::string& name, std::string help,
                           bool deterministic,
                           std::function<HistogramData()> fn);

  /// Removes a metric (callback registrants must call this before the
  /// object captured by their callback dies). Unknown names are a no-op.
  void Unregister(const std::string& name);

  MetricsSnapshot Snapshot() const;
  size_t size() const;

  /// Process-global default registry for tools and one-engine processes.
  /// Benches comparing runs (worker-count determinism) use their own
  /// instances instead.
  static Registry& Default();

 private:
  struct Entry {
    std::string help;
    MetricKind kind = MetricKind::kCounter;
    bool deterministic = false;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
    std::function<int64_t()> gauge_fn;
    std::function<HistogramData()> histogram_fn;
  };

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
};

}  // namespace obs
}  // namespace dvs

#endif  // DVS_OBS_METRICS_H_
