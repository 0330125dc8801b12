// Arithmetic of the Surfer benchmark, kept apart from the workloads so the
// self-tests in tests/bench_math_test.cc can pin it: exact nearest-rank
// percentiles over raw samples, the "highest percentile with at least ten
// samples beyond it" tail rule, open-loop due-time latency and generator
// lateness, the setup residual, and ratios with their bases.

#ifndef SURFER_PERFBENCH_BENCH_MATH_H_
#define SURFER_PERFBENCH_BENCH_MATH_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Samples that must lie strictly above a reported tail percentile.
inline constexpr size_t kTailSamplesBeyond = 10;

/// Nearest-rank percentile of an ascending-sorted sample: the value at rank
/// ceil(p/100 * n), ranks counted from 1 and clamped to [1, n]. No
/// interpolation and no buckets, so the result is always one of the samples.
/// Returns 0 for an empty sample.
inline double NearestRank(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) {
    return 0.0;
  }
  const double n = static_cast<double>(sorted.size());
  double rank = std::ceil(p / 100.0 * n);
  rank = std::clamp(rank, 1.0, n);
  return sorted[static_cast<size_t>(rank) - 1];
}

/// A tail figure and where it sits in its sample.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;  ///< 100 * rank / n of the reported sample
  size_t beyond = 0;        ///< samples strictly after it in rank order
  size_t count = 0;         ///< sample size
};

/// The highest percentile, at most `max_percentile`, that still has at
/// least kTailSamplesBeyond samples after it: the cap when the sample is
/// large enough, else the sample at rank n - 10 (the eleventh largest). A
/// sample of ten or fewer has no such percentile; the median is reported
/// with its true `beyond` count so the caller can see it.
inline Tail TailOf(const std::vector<double>& sorted,
                   double max_percentile = 99.0) {
  Tail tail;
  tail.count = sorted.size();
  if (sorted.empty()) {
    return tail;
  }
  const size_t n = sorted.size();
  size_t rank = static_cast<size_t>(
      std::ceil(max_percentile / 100.0 * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  if (n - rank < kTailSamplesBeyond) {
    rank = n > kTailSamplesBeyond
               ? n - kTailSamplesBeyond
               : static_cast<size_t>(std::ceil(0.5 * static_cast<double>(n)));
  }
  tail.value = sorted[rank - 1];
  tail.percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  tail.beyond = n - rank;
  return tail;
}

/// Sorts a copy and returns it (percentile helpers take sorted input).
inline std::vector<double> Sorted(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values;
}

inline double Median(const std::vector<double>& values) {
  return NearestRank(Sorted(values), 50.0);
}

/// Open-loop latency of one request: from the time it was *due* to be sent
/// to the time its answer was observed. A stalled generator therefore
/// charges its stall to every request it delayed. All times in one unit.
inline double DueLatency(double due, double observed) {
  return observed - due;
}

/// How late the generator submitted a request relative to its schedule;
/// never negative (an early send is on time).
inline double Lateness(double due, double submitted) {
  return std::max(0.0, submitted - due);
}

/// Due time of request `i` of an open loop at `rate` requests per second
/// that starts at `start` (seconds).
inline double DueTime(double start, double rate, size_t i) {
  return start + static_cast<double>(i) / rate;
}

/// What the named setup layers leave unexplained: total minus their sum.
inline double SetupResidual(double total_s, const std::vector<double>& layers_s) {
  double sum = 0.0;
  for (double layer : layers_s) {
    sum += layer;
  }
  return total_s - sum;
}

/// |residual| as a share of the total (0 for a zero total).
inline double SetupResidualFrac(double total_s,
                                const std::vector<double>& layers_s) {
  return total_s > 0.0 ? std::abs(SetupResidual(total_s, layers_s)) / total_s
                       : 0.0;
}

/// part / base, 0 when the base is empty. Every ratio the benchmark prints
/// goes through here with its base named at the call site.
inline double Ratio(double part, double base) {
  return base != 0.0 ? part / base : 0.0;
}

/// Share of messages the wire plane merged away: merged / (merged + sent).
inline double CombinedFrac(double merged, double sent) {
  return Ratio(merged, merged + sent);
}

/// Share of cache lookups that hit: hits / (hits + misses).
inline double HitFrac(double hits, double misses) {
  return Ratio(hits, hits + misses);
}

/// Relative cost of tracing: traced / untraced - 1 on the same figure.
inline double OverheadFrac(double traced, double untraced) {
  return untraced != 0.0 ? traced / untraced - 1.0 : 0.0;
}

}  // namespace perfbench

#endif  // SURFER_PERFBENCH_BENCH_MATH_H_
