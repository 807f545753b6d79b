// E7 — §6.3 changed-row distribution: "A majority (67%) of incremental
// refreshes ... has a number of output changed rows (inserts + deletes) of
// less than 1% of the total size of the respective DT ... 21% of refreshes
// change more than 10% of their DT."
//
// Skewed CDC over a population of aggregate DTs: most refreshes touch a
// handful of hot groups (tiny change fraction); occasional wide batches
// touch many groups.
//
// --smoke (the ctest entry) stops after the first 30 refreshes of the same
// stream, where both shape checks already hold; the default runs all 300.

#include <cstring>

#include "bench_util.h"

using namespace dvs;

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  VirtualClock clock(0);
  DvsEngine engine(clock);
  Rng rng(2718);

  constexpr int kGroups = 2000;
  bench::Run(engine, "CREATE TABLE events (grp INT, v INT)");
  // Dense initial load: every group populated (batched inserts).
  for (int g = 0; g < kGroups; g += 200) {
    std::string sql = "INSERT INTO events VALUES ";
    for (int j = g; j < g + 200; ++j) {
      if (j > g) sql += ", ";
      sql += "(" + std::to_string(j) + ", " + std::to_string(j % 17) + ")";
    }
    bench::Run(engine, sql);
  }
  bench::Run(engine,
             "CREATE DYNAMIC TABLE by_group TARGET_LAG = '1 minute' "
             "WAREHOUSE = wh AS SELECT grp, count(*) AS n, sum(v) AS sv "
             "FROM events GROUP BY ALL");

  ObjectId id = engine.ObjectIdOf("by_group").value();
  struct Sample {
    double change_fraction;
  };
  std::vector<Sample> samples;

  const int kRefreshes = smoke ? 30 : 300;
  for (int i = 0; i < kRefreshes; ++i) {
    // Skewed batch: mostly 1-3 hot groups (Zipf), occasionally a wide batch.
    int touched = rng.Bernoulli(0.18)
                      ? static_cast<int>(rng.Uniform(kGroups / 8, kGroups / 2))
                      : static_cast<int>(rng.Uniform(1, 3));
    for (int t = 0; t < touched; ++t) {
      int g = static_cast<int>(rng.Zipf(kGroups, 0.8));
      bench::Run(engine, "INSERT INTO events VALUES (" + std::to_string(g) +
                         ", " + std::to_string(rng.Uniform(0, 50)) + ")");
    }
    clock.Advance(kMicrosPerMinute);
    auto outcome = engine.refresh_engine().Refresh(id, clock.Now());
    if (!outcome.ok()) {
      std::printf("FATAL: %s\n", outcome.status().ToString().c_str());
      return 1;
    }
    const RefreshOutcome& o = outcome.value();
    if (o.action != RefreshAction::kIncremental || o.dt_row_count == 0) {
      continue;
    }
    samples.push_back({static_cast<double>(o.changes_applied) /
                       static_cast<double>(o.dt_row_count)});
  }

  int below_1pct = 0, above_10pct = 0;
  for (const Sample& s : samples) {
    if (s.change_fraction < 0.01) ++below_1pct;
    if (s.change_fraction > 0.10) ++above_10pct;
  }
  double f_below = static_cast<double>(below_1pct) / samples.size();
  double f_above = static_cast<double>(above_10pct) / samples.size();

  std::printf("E7 — changed rows per incremental refresh (%zu refreshes, DT "
              "of %d groups)\n\n", samples.size(), kGroups);
  struct Bucket {
    const char* label;
    double lo, hi;
  } buckets[] = {
      {"< 0.1%", 0, 0.001},   {"0.1% - 1%", 0.001, 0.01},
      {"1% - 10%", 0.01, 0.10}, {"> 10%", 0.10, 10.0},
  };
  for (const Bucket& b : buckets) {
    int n = 0;
    for (const Sample& s : samples) {
      if (s.change_fraction >= b.lo && s.change_fraction < b.hi) ++n;
    }
    double f = static_cast<double>(n) / samples.size();
    std::printf("%-10s %6.1f%%  %s\n", b.label, 100 * f,
                bench::Bar(f).c_str());
  }
  std::printf("\n< 1%% of DT changed: %.1f%%   (paper: 67%%)\n", 100 * f_below);
  std::printf("> 10%% of DT changed: %.1f%%  (paper: 21%%)\n\n", 100 * f_above);

  bench::Check(f_below > 0.5,
               "majority of refreshes change <1% of the DT (paper: 67%)");
  bench::Check(f_above > 0.05 && f_above < 0.45,
               "a sizable minority changes >10% (paper: 21%) — full refresh "
               "fallback stays relevant");
  return bench::Finish();
}
