// bench_dump — validator and summarizer for the BENCH_E*.json result files
// written by bench::BenchJson (bench/bench_util.h):
//
//   $ bench_dump <BENCH_E21.json>           # validate + per-point summary
//   $ bench_dump --quiet <BENCH_E21.json>   # validate only (CI artifact guard)
//
// Exit 0 when the file parses and matches the bench schema: a top-level
// object with string "experiment" and "description", an object "meta", and
// a "points" array in which every point is an object carrying a string
// "kind" and only scalar fields (string/number/bool). Exit 1 when the file
// cannot be read, 2 on usage errors, 3 on JSON syntax or schema violations —
// the same code trace_dump and wal_dump use for malformed input, so CI can
// treat 3 uniformly as "artifact corrupt".

#include <cstdio>

#include "json.h"

namespace {

using dvs::tools::JsonParser;
using dvs::tools::JsonValue;

bool IsString(const JsonValue* v) {
  return v != nullptr && v->kind == JsonValue::Kind::kString;
}

bool IsScalar(const JsonValue& v) {
  return v.kind == JsonValue::Kind::kString ||
         v.kind == JsonValue::Kind::kNumber ||
         v.kind == JsonValue::Kind::kBool;
}

int Validate(const JsonValue& root, bool quiet) {
  if (root.kind != JsonValue::Kind::kObject) {
    std::fprintf(stderr, "bench_dump: top level is not an object\n");
    return 3;
  }
  const JsonValue* experiment = root.Find("experiment");
  const JsonValue* description = root.Find("description");
  if (!IsString(experiment) || !IsString(description)) {
    std::fprintf(stderr,
                 "bench_dump: missing string \"experiment\"/\"description\"\n");
    return 3;
  }
  const JsonValue* meta = root.Find("meta");
  if (meta == nullptr || meta->kind != JsonValue::Kind::kObject) {
    std::fprintf(stderr, "bench_dump: missing \"meta\" object\n");
    return 3;
  }
  const JsonValue* points = root.Find("points");
  if (points == nullptr || points->kind != JsonValue::Kind::kArray) {
    std::fprintf(stderr, "bench_dump: missing \"points\" array\n");
    return 3;
  }
  for (size_t i = 0; i < points->items.size(); ++i) {
    const JsonValue& p = points->items[i];
    if (p.kind != JsonValue::Kind::kObject) {
      std::fprintf(stderr, "bench_dump: point %zu is not an object\n", i);
      return 3;
    }
    if (!IsString(p.Find("kind"))) {
      std::fprintf(stderr, "bench_dump: point %zu lacks a string \"kind\"\n",
                   i);
      return 3;
    }
    for (const auto& [key, v] : p.fields) {
      if (!IsScalar(v)) {
        std::fprintf(stderr,
                     "bench_dump: point %zu field \"%s\" is not a scalar\n", i,
                     key.c_str());
        return 3;
      }
    }
  }
  if (!quiet) {
    std::printf("%s: %s\n", experiment->str.c_str(),
                description->str.c_str());
    for (size_t i = 0; i < points->items.size(); ++i) {
      const JsonValue& p = points->items[i];
      std::printf("  point %zu kind=%s fields=%zu\n", i,
                  p.Find("kind")->str.c_str(), p.fields.size());
    }
  }
  std::printf("OK: %zu points validated\n", points->items.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return dvs::tools::RunJsonValidator(argc, argv, "bench_dump", "<BENCH_Exx.json>", Validate);
}
