// Exact order statistics over raw samples.
//
// Every percentile perfbench reports comes from here: the samples are kept
// whole and sorted, never folded into the library's bucketed histograms
// (whose 1/8-octave buckets are 6-12% wide at any value).

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Nearest-rank q-quantile (q in [0, 1]): the smallest sample with at least
/// q * n samples at or below it. 0 for an empty sample set.
inline double ExactQuantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  // The epsilon keeps q * n exact for products like 0.9 * 100, which
  // floating point rounds to 90.00000000000001.
  double rank = std::ceil(q * n - 1e-9);
  rank = std::clamp(rank, 1.0, n);
  return samples[static_cast<size_t>(rank) - 1];
}

inline double Median(std::vector<double> samples) {
  return ExactQuantile(std::move(samples), 0.5);
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
