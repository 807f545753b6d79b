#include "obs/trace.h"

#include <atomic>
#include <chrono>
#include <cstdio>

namespace dvs {
namespace obs {

namespace {

int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Small dense thread numbers for the Chrome "tid" field (hashes of
/// std::thread::id render unreadably). Assigned lazily on first armed span.
uint32_t CurrentTraceTid() {
  static std::atomic<uint32_t> next{1};
  thread_local uint32_t tid = next.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

void AppendJsonEscaped(std::string* out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      case '\r': *out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

}  // namespace

TraceRecorder::TraceRecorder(size_t capacity)
    : epoch_ns_(SteadyNowNs()), capacity_(capacity) {}

int64_t TraceRecorder::NowUs() const {
  return (SteadyNowNs() - epoch_ns_) / 1000;
}

void TraceRecorder::Record(TraceEvent e) {
  std::lock_guard<std::mutex> lock(mu_);
  if (events_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  events_.push_back(std::move(e));
}

std::vector<TraceEvent> TraceRecorder::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

size_t TraceRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

size_t TraceRecorder::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

size_t TraceRecorder::offered() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size() + dropped_;
}

Status TraceRecorder::WriteChromeTrace(const std::string& path) const {
  std::vector<TraceEvent> events = Snapshot();
  std::string out;
  out.reserve(events.size() * 128 + 64);
  out += "{\"traceEvents\":[";
  bool first = true;
  char buf[160];
  for (const TraceEvent& e : events) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    AppendJsonEscaped(&out, e.name);
    out += "\",\"cat\":\"";
    AppendJsonEscaped(&out, e.category);
    out += "\",\"ph\":\"X\"";
    std::snprintf(buf, sizeof(buf),
                  ",\"ts\":%lld,\"dur\":%lld,\"pid\":1,\"tid\":%u",
                  static_cast<long long>(e.start_us),
                  static_cast<long long>(e.dur_us), e.tid);
    out += buf;
    out += ",\"args\":{";
    bool first_arg = true;
    if (!e.scope.empty()) {
      out += "\"scope\":\"";
      AppendJsonEscaped(&out, e.scope);
      out += '"';
      first_arg = false;
    }
    for (const auto& [arg_name, arg] :
         {std::pair(e.arg1_name, e.arg1), std::pair(e.arg2_name, e.arg2)}) {
      if (arg_name == nullptr) continue;
      if (!first_arg) out += ',';
      first_arg = false;
      out += '"';
      AppendJsonEscaped(&out, arg_name);
      std::snprintf(buf, sizeof(buf), "\":%lld",
                    static_cast<long long>(arg));
      out += buf;
    }
    out += "}}";
  }
  out += "],\"displayTimeUnit\":\"ms\"}\n";

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Unavailable("cannot open trace file: " + path);
  }
  const size_t written = std::fwrite(out.data(), 1, out.size(), f);
  const bool closed = std::fclose(f) == 0;
  if (written != out.size() || !closed) {
    return Unavailable("short write to trace file: " + path);
  }
  return OkStatus();
}

TraceSpan::TraceSpan(const char* category, const char* name,
                     std::string_view scope)
    : rec_(ActiveTraceRecorder()) {
  if (rec_ == nullptr) return;
  event_.category = category;
  event_.name = name;
  event_.scope.assign(scope.data(), scope.size());
  event_.tid = CurrentTraceTid();
  event_.start_us = rec_->NowUs();
}

void TraceSpan::AddArg(const char* arg_name, int64_t value) {
  if (rec_ == nullptr) return;
  if (event_.arg1_name == nullptr) {
    event_.arg1_name = arg_name;
    event_.arg1 = value;
  } else if (event_.arg2_name == nullptr) {
    event_.arg2_name = arg_name;
    event_.arg2 = value;
  }
}

TraceSpan::~TraceSpan() {
  if (rec_ == nullptr) return;
  event_.dur_us = rec_->NowUs() - event_.start_us;
  rec_->Record(std::move(event_));
}

}  // namespace obs
}  // namespace dvs
