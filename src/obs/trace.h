// Trace spans with Chrome trace-event export (the observability tentpole,
// part 2; ROADMAP "Observability architecture" documents the span taxonomy).
//
// Instrumented layers open a TraceSpan around a unit of work:
//
//   obs::TraceSpan span("sched", "tick.execute");
//   if (span.armed()) span.AddArg("due", static_cast<int64_t>(nodes.size()));
//
// Arming is a common/global_hook.h GlobalHook, like the fault injector's:
// one process-global atomic recorder pointer, installed by benches/tools via
// ScopedTraceRecorder. A span at an *unarmed* site costs exactly one atomic
// load — no clock read, no allocation, no branch beyond the null check —
// which is what keeps tracing's disarmed overhead on the refresh hot path
// under the E20 gate. When armed, the span captures wall time at
// construction and records one complete ("ph":"X") event at destruction.
//
// Span taxonomy (category / name):
//   sched   / tick.plan, tick.execute, tick.finalize — the three phases.
//   refresh / attempt          — one per engine refresh attempt, retries
//                                included (scope = DT name, args attempt).
//   exec    / op.<PlanKind>    — one per batch-engine operator execution.
//   serve   / query            — one per QueryService::Execute.
//   persist / wal.append, checkpoint — durability I/O.
//
// Wall-clock durations are *never* deterministic: traces are a reporting
// artifact, excluded from every byte-compare gate.

#ifndef DVS_OBS_TRACE_H_
#define DVS_OBS_TRACE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/global_hook.h"
#include "common/status.h"

namespace dvs {
namespace obs {

struct TraceEvent {
  const char* category = "";  ///< Static string (taxonomy above).
  const char* name = "";      ///< Static string.
  std::string scope;          ///< Dynamic instance label (DT name, file).
  int64_t start_us = 0;       ///< Relative to the recorder's epoch.
  int64_t dur_us = 0;
  uint32_t tid = 0;  ///< Small dense per-recorder-process thread number.
  const char* arg1_name = nullptr;
  int64_t arg1 = 0;
  const char* arg2_name = nullptr;
  int64_t arg2 = 0;
};

/// Collects completed spans. Bounded: events past `capacity` are dropped
/// and counted, so an armed long run degrades to a truncated trace rather
/// than unbounded memory.
class TraceRecorder {
 public:
  explicit TraceRecorder(size_t capacity = 1 << 20);
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  void Record(TraceEvent e);
  /// Microseconds since the recorder was constructed (steady clock).
  int64_t NowUs() const;

  std::vector<TraceEvent> Snapshot() const;
  size_t size() const;
  size_t dropped() const;
  /// Total events offered (recorded + dropped) — the span count the E20
  /// overhead model multiplies by the per-span cost.
  size_t offered() const;

  /// Writes the chrome://tracing / Perfetto JSON ({"traceEvents":[...]}).
  /// tools/trace_dump validates and summarizes the output.
  Status WriteChromeTrace(const std::string& path) const;

 private:
  const int64_t epoch_ns_;
  const size_t capacity_;
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
  size_t dropped_ = 0;
};

/// The armed recorder, or nullptr (one atomic load); InstallTraceRecorder
/// (nullptr disarms) returns the previous one; ScopedTraceRecorder is the
/// RAII form.
using TraceHook = GlobalHook<TraceRecorder*, TraceRecorder>;
inline TraceRecorder* ActiveTraceRecorder() { return TraceHook::Get(); }
inline TraceRecorder* InstallTraceRecorder(TraceRecorder* recorder) {
  return TraceHook::Install(recorder);
}
using ScopedTraceRecorder = TraceHook::Scoped;

/// RAII span. `category` and `name` must be static strings; `scope` is
/// copied only when armed, so passing a string_view of a live object is
/// free at unarmed sites.
class TraceSpan {
 public:
  TraceSpan(const char* category, const char* name,
            std::string_view scope = {});
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  bool armed() const { return rec_ != nullptr; }
  /// Attaches up to two integer args (shown in the trace viewer). No-op
  /// when disarmed; callers can guard with armed() to skip arg computation.
  void AddArg(const char* arg_name, int64_t value);

 private:
  TraceRecorder* rec_;
  TraceEvent event_;
};

}  // namespace obs
}  // namespace dvs

#endif  // DVS_OBS_TRACE_H_
