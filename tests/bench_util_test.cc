// Tests for bench/bench_util.h helpers: the BenchJson encoding every
// BENCH_E*.json file goes through, and the read-latency keys E19 and E20
// share. (The percentiles the benches report come from obs::HistogramData,
// tested in obs_test.)

#include <gtest/gtest.h>

#include "bench_util.h"

namespace dvs {
namespace {

TEST(BenchJsonTest, ObjEncodesTypedFieldsInOrder) {
  bench::BenchJson::Obj o;
  o.Int("n", -3).Num("x", 0.5).Bool("ok", true).Str("s", "a\"b\\c\nd");
  EXPECT_EQ(o.ToJson(),
            R"({"n": -3, "x": 0.5, "ok": true, "s": "a\"b\\c\nd"})");
}

TEST(BenchJsonTest, PointLeadsWithKindAndReadLatencyKeys) {
  bench::BenchJson json("T", "test");
  bench::BenchJson::Obj& point =
      bench::AddReadLatency(json.AddPoint("scan"), 1.5, 2.5, 100);
  EXPECT_EQ(point.ToJson(),
            R"({"kind": "scan", "read_p50_ms": 1.5, "read_p99_ms": 2.5, )"
            R"("qps": 100})");
}

}  // namespace
}  // namespace dvs
