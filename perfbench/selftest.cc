// Checks perfbench's exact-percentile helper against sorted samples.
// Exits nonzero on the first mismatch.

#include <cstdio>
#include <random>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what, double got, double want) {
  if (ok) return;
  ++failures;
  std::printf("FAIL %s: got %.17g want %.17g\n", what, got, want);
}

}  // namespace

int main() {
  using perfbench::ExactQuantile;
  using perfbench::Median;

  Expect(ExactQuantile({}, 0.5) == 0, "empty", ExactQuantile({}, 0.5), 0);
  Expect(ExactQuantile({7}, 0.99) == 7, "single", ExactQuantile({7}, 0.99), 7);

  // 1..100 shuffled: the q-quantile is exactly 100 * q.
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  std::mt19937_64 rng(42);
  std::shuffle(hundred.begin(), hundred.end(), rng);
  for (int pct = 1; pct <= 100; ++pct) {
    const double got = ExactQuantile(hundred, pct / 100.0);
    Expect(got == pct, "1..100", got, pct);
  }
  Expect(ExactQuantile(hundred, 0) == 1, "q=0", ExactQuantile(hundred, 0), 1);

  // Random sizes and values: the nearest rank of the sorted copy.
  for (int trial = 0; trial < 200; ++trial) {
    const size_t n = 1 + rng() % 997;
    std::vector<double> v(n);
    for (double& x : v) x = static_cast<double>(rng() % 100000) / 7.0;
    std::vector<double> sorted = v;
    std::sort(sorted.begin(), sorted.end());
    for (double q : {0.5, 0.9, 0.99}) {
      size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
      if (rank < 1) rank = 1;
      Expect(ExactQuantile(v, q) == sorted[rank - 1], "random",
             ExactQuantile(v, q), sorted[rank - 1]);
    }
    Expect(Median(v) == sorted[(n + 1) / 2 - 1], "median", Median(v),
           sorted[(n + 1) / 2 - 1]);
  }

  std::printf(failures == 0 ? "selftest: ok\n" : "selftest: %d failures\n",
              failures);
  return failures == 0 ? 0 : 1;
}
