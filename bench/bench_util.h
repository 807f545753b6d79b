// Shared helpers for the experiment binaries (bench/). Each binary
// regenerates one table or figure of the paper (DESIGN.md §3) and prints a
// PASS/FAIL line for the *shape* claim it reproduces. Absolute numbers come
// from the simulator and are not expected to match the paper's testbed.

#ifndef DVS_BENCH_BENCH_UTIL_H_
#define DVS_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdio>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "dt/engine.h"

namespace dvs {
namespace bench {

inline void Run(DvsEngine& engine, const std::string& sql) {
  auto r = engine.Execute(sql);
  if (!r.ok()) {
    std::printf("FATAL: %s\n  in: %s\n", r.status().ToString().c_str(),
                sql.c_str());
    std::exit(1);
  }
}

inline int g_failures = 0;

inline void Check(bool ok, const char* claim) {
  std::printf("[%s] %s\n", ok ? "PASS" : "FAIL", claim);
  if (!ok) ++g_failures;
}

inline int Finish() {
  if (g_failures > 0) {
    std::printf("\n%d shape check(s) FAILED\n", g_failures);
    return 1;
  }
  std::printf("\nall shape checks passed\n");
  return 0;
}

/// ASCII bar for histogram rows.
inline std::string Bar(double fraction, int width = 40) {
  int n = static_cast<int>(fraction * width + 0.5);
  if (n > width) n = width;
  return std::string(static_cast<size_t>(n), '#');
}

/// Wall-clock stopwatch for timing refresh loops.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  void Reset() { start_ = std::chrono::steady_clock::now(); }
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Machine-readable experiment reporter. Every perf experiment writes a
/// BENCH_E*.json file so successive PRs can compare numbers (schema is
/// documented in ROADMAP.md, "Performance architecture"):
///
///   {
///     "experiment": "E15",
///     "description": "...",
///     "meta": { "<key>": <value>, ... },
///     "points": [ { "kind": "<kind>", "<key>": <value>, ... }, ... ]
///   }
///
/// Values are JSON numbers, strings, or booleans; each point is one
/// measured configuration, and its string "kind" names what it measures
/// (tools/bench_dump rejects a point without one).
class BenchJson {
 public:
  /// One flat JSON object (a metadata block or a data point).
  class Obj {
   public:
    Obj& Int(const std::string& key, int64_t v) {
      fields_.emplace_back(key, std::to_string(v));
      return *this;
    }
    Obj& Num(const std::string& key, double v) {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.6g", v);
      fields_.emplace_back(key, buf);
      return *this;
    }
    Obj& Bool(const std::string& key, bool v) {
      fields_.emplace_back(key, v ? "true" : "false");
      return *this;
    }
    Obj& Str(const std::string& key, const std::string& v) {
      fields_.emplace_back(key, Quote(v));
      return *this;
    }

    std::string ToJson() const {
      std::string out = "{";
      for (size_t i = 0; i < fields_.size(); ++i) {
        if (i) out += ", ";
        out += Quote(fields_[i].first) + ": " + fields_[i].second;
      }
      out += "}";
      return out;
    }

   private:
    static std::string Quote(const std::string& s) {
      std::string out = "\"";
      for (char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        if (c == '\n') {
          out += "\\n";
        } else {
          out += c;
        }
      }
      out += "\"";
      return out;
    }
    std::vector<std::pair<std::string, std::string>> fields_;
  };

  BenchJson(std::string experiment, std::string description)
      : experiment_(std::move(experiment)),
        description_(std::move(description)) {}

  Obj& meta() { return meta_; }

  /// Appends a point whose first field is "kind": `kind`.
  Obj& AddPoint(const std::string& kind) {
    points_.emplace_back();
    return points_.back().Str("kind", kind);
  }

  /// Writes BENCH_<experiment>.json into the working directory; returns the
  /// file name (empty on failure).
  std::string WriteFile() const {
    std::string path = "BENCH_" + experiment_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::printf("WARN: cannot write %s\n", path.c_str());
      return "";
    }
    Obj header;
    header.Str("experiment", experiment_).Str("description", description_);
    std::string head = header.ToJson();
    head.pop_back();  // strip '}' to splice meta/points in
    std::fprintf(f, "%s, \"meta\": %s, \"points\": [", head.c_str(),
                 meta_.ToJson().c_str());
    for (size_t i = 0; i < points_.size(); ++i) {
      std::fprintf(f, "%s\n  %s", i ? "," : "", points_[i].ToJson().c_str());
    }
    std::fprintf(f, "\n]}\n");
    std::fclose(f);
    std::printf("wrote %s (%zu points)\n", path.c_str(), points_.size());
    return path;
  }

 private:
  std::string experiment_;
  std::string description_;
  Obj meta_;
  std::vector<Obj> points_;
};

/// Canonical read-latency point keys for the serving benches. E19 and E20
/// both report read latency; routing them through one helper keeps the
/// `read_p50_ms` / `read_p99_ms` / `qps` key spellings from drifting between
/// experiments (the Benchmark JSON schema section of ROADMAP.md documents
/// them once).
inline BenchJson::Obj& AddReadLatency(BenchJson::Obj& point, double p50_ms,
                                      double p99_ms, double qps) {
  return point.Num("read_p50_ms", p50_ms).Num("read_p99_ms", p99_ms).Num(
      "qps", qps);
}

}  // namespace bench
}  // namespace dvs

#endif  // DVS_BENCH_BENCH_UTIL_H_
