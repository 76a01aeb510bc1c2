// Nearest-rank percentiles over latency samples, with the reporting rule
// the benchmark follows: a percentile is reported only when at least ten
// samples lie beyond it, so p99 needs 1000 samples.

#ifndef PERFBENCH_PERCENTILE_H_
#define PERFBENCH_PERCENTILE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Samples that must lie strictly above a reported percentile's rank.
inline constexpr int64_t kMinSamplesBeyond = 10;

/// 1-based nearest rank of percentile `p` (0 < p <= 100) among `n` samples:
/// ceil(p / 100 * n), clamped to [1, n]. Computed in integer hundredths of a
/// percent so that e.g. p = 99 and n = 1000 gives exactly 990.
inline int64_t NearestRank(double p, int64_t n) {
  if (n <= 0) return 0;
  const auto hundredths = static_cast<int64_t>(std::llround(p * 100.0));
  const int64_t rank = (hundredths * n + 9999) / 10000;
  return std::clamp<int64_t>(rank, 1, n);
}

/// Number of samples ranked above percentile `p`'s nearest rank.
inline int64_t SamplesBeyond(double p, int64_t n) {
  return n - NearestRank(p, n);
}

/// True when percentile `p` of `n` samples has at least kMinSamplesBeyond
/// samples beyond it.
inline bool Reportable(double p, int64_t n) {
  return n > 0 && SamplesBeyond(p, n) >= kMinSamplesBeyond;
}

/// Median and p99 of a latency sample, with the sample count.
struct LatencySummary {
  int64_t count = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  /// Samples beyond the p99 rank; >= kMinSamplesBeyond iff p99_valid.
  int64_t beyond_p99 = 0;
  bool p99_valid = false;
};

/// Nearest-rank value of percentile `p` in an ascending-sorted sample.
inline double PercentileOfSorted(const std::vector<double>& sorted, double p) {
  const int64_t rank = NearestRank(p, static_cast<int64_t>(sorted.size()));
  return rank >= 1 ? sorted[static_cast<size_t>(rank - 1)] : 0.0;
}

inline LatencySummary Summarize(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  LatencySummary s;
  s.count = static_cast<int64_t>(samples.size());
  s.p50 = PercentileOfSorted(samples, 50.0);
  s.p99 = PercentileOfSorted(samples, 99.0);
  s.beyond_p99 = SamplesBeyond(99.0, s.count);
  s.p99_valid = Reportable(99.0, s.count);
  return s;
}

}  // namespace perfbench

#endif  // PERFBENCH_PERCENTILE_H_
