// trace_dump — validator and summarizer for Chrome trace-event JSON written
// by obs::TraceRecorder::WriteChromeTrace:
//
//   $ trace_dump <trace.json>             # validate + per-category summary
//   $ trace_dump --quiet <trace.json>     # validate only (CI artifact guard)
//
// Exit 0 when the file parses as a trace-event container and every event is
// well-formed (object with string "name"/"cat"/"ph" and numeric "ts"; "X"
// events additionally need a numeric "dur"); exit 3 on any malformed event
// or JSON syntax error; other nonzero when the file cannot be read.

#include <cinttypes>
#include <cstdio>
#include <map>
#include <string>

#include "json.h"

namespace {

using dvs::tools::JsonParser;
using dvs::tools::JsonValue;

// ---- Trace-event validation ----

struct CategorySummary {
  uint64_t events = 0;
  double total_dur_us = 0;
  double max_dur_us = 0;
};

bool IsString(const JsonValue* v) {
  return v != nullptr && v->kind == JsonValue::Kind::kString;
}
bool IsNumber(const JsonValue* v) {
  return v != nullptr && v->kind == JsonValue::Kind::kNumber;
}

int Validate(const JsonValue& root, bool quiet) {
  if (root.kind != JsonValue::Kind::kObject) {
    std::fprintf(stderr, "trace_dump: top level is not an object\n");
    return 3;
  }
  const JsonValue* events = root.Find("traceEvents");
  if (events == nullptr || events->kind != JsonValue::Kind::kArray) {
    std::fprintf(stderr, "trace_dump: missing \"traceEvents\" array\n");
    return 3;
  }
  std::map<std::string, CategorySummary> by_category;
  for (size_t i = 0; i < events->items.size(); ++i) {
    const JsonValue& e = events->items[i];
    if (e.kind != JsonValue::Kind::kObject) {
      std::fprintf(stderr, "trace_dump: event %zu is not an object\n", i);
      return 3;
    }
    const JsonValue* name = e.Find("name");
    const JsonValue* cat = e.Find("cat");
    const JsonValue* ph = e.Find("ph");
    const JsonValue* ts = e.Find("ts");
    if (!IsString(name) || !IsString(cat) || !IsString(ph) || !IsNumber(ts)) {
      std::fprintf(stderr,
                   "trace_dump: event %zu lacks string name/cat/ph or "
                   "numeric ts\n",
                   i);
      return 3;
    }
    double dur = 0;
    if (ph->str == "X") {  // complete events carry a duration
      const JsonValue* d = e.Find("dur");
      if (!IsNumber(d) || d->num < 0) {
        std::fprintf(stderr,
                     "trace_dump: complete event %zu ('%s') lacks a "
                     "non-negative dur\n",
                     i, name->str.c_str());
        return 3;
      }
      dur = d->num;
    }
    CategorySummary& s = by_category[cat->str + "/" + name->str];
    s.events += 1;
    s.total_dur_us += dur;
    if (dur > s.max_dur_us) s.max_dur_us = dur;
  }
  if (!quiet) {
    std::printf("%zu events, %zu span kinds\n", events->items.size(),
                by_category.size());
    std::printf("%-32s %10s %14s %12s\n", "category/name", "count",
                "total_dur_us", "max_dur_us");
    for (const auto& [key, s] : by_category) {
      std::printf("%-32s %10" PRIu64 " %14.1f %12.1f\n", key.c_str(), s.events,
                  s.total_dur_us, s.max_dur_us);
    }
  }
  std::printf("OK: %zu events validated\n", events->items.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return dvs::tools::RunJsonValidator(argc, argv, "trace_dump", "<trace.json>", Validate);
}
