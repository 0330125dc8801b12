// Self-tests of the benchmark's arithmetic (bench_math.h). Built as
// perfbench_selftest; perfbench/run.py runs it before every measurement and
// refuses to report numbers when it fails. Exits nonzero on the first
// failed expectation.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <vector>

#include "bench_math.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "bench_math_test:%d: FAILED %s\n", line, what);
    ++failures;
  }
}

#define EXPECT(cond) Expect((cond), #cond, __LINE__)

bool Near(double a, double b) { return std::abs(a - b) < 1e-12; }

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) {
    v.push_back(i);
  }
  return v;
}

void NearestRankIsExact() {
  const std::vector<double> v = OneTo(100);
  EXPECT(perfbench::NearestRank(v, 50.0) == 50.0);
  EXPECT(perfbench::NearestRank(v, 99.0) == 99.0);
  EXPECT(perfbench::NearestRank(v, 0.0) == 1.0);
  EXPECT(perfbench::NearestRank(v, 100.0) == 100.0);
  // No interpolation: p50 of {1,2,3,4} is a sample, rank ceil(2) = 2.
  EXPECT(perfbench::NearestRank({1, 2, 3, 4}, 50.0) == 2.0);
  EXPECT(perfbench::NearestRank({1, 2, 3, 4}, 51.0) == 3.0);
  // Microsecond resolution survives: 150 and 190 stay apart.
  EXPECT(perfbench::NearestRank({150.0, 190.0, 191.0}, 50.0) == 190.0);
  EXPECT(perfbench::NearestRank({}, 50.0) == 0.0);
  EXPECT(perfbench::Median({5, 1, 3}) == 3.0);
}

void TailKeepsTenBeyond() {
  // Large sample: p99, with 10 samples beyond rank 990 of 1000.
  perfbench::Tail t = perfbench::TailOf(OneTo(1000));
  EXPECT(t.value == 990.0);
  EXPECT(Near(t.percentile, 99.0));
  EXPECT(t.beyond == 10);
  EXPECT(t.count == 1000);
  // 999 samples: p99 is rank 990 with only 9 beyond, so step down to n-10.
  t = perfbench::TailOf(OneTo(999));
  EXPECT(t.value == 989.0);
  EXPECT(t.beyond == 10);
  // 100 jobs: the eleventh largest, p90.
  t = perfbench::TailOf(OneTo(100));
  EXPECT(t.value == 90.0);
  EXPECT(Near(t.percentile, 90.0));
  EXPECT(t.beyond == 10);
  // 25 jobs: rank 15, p60.
  t = perfbench::TailOf(OneTo(25));
  EXPECT(t.value == 15.0);
  EXPECT(Near(t.percentile, 60.0));
  EXPECT(t.beyond == 10);
  // Too small for ten beyond: the median, with the true count beyond.
  t = perfbench::TailOf(OneTo(8));
  EXPECT(t.value == 4.0);
  EXPECT(t.beyond == 4);
  EXPECT(perfbench::TailOf({}).count == 0);
  // A lower cap: p90 of 1000 samples, far more than ten beyond.
  t = perfbench::TailOf(OneTo(1000), 90.0);
  EXPECT(t.value == 900.0);
  EXPECT(t.beyond == 100);
  // The cap never lowers the ten-beyond rule: 50 samples capped at p90
  // would leave 5 beyond, so rank 40.
  t = perfbench::TailOf(OneTo(50), 90.0);
  EXPECT(t.value == 40.0);
  EXPECT(t.beyond == 10);
}

void OpenLoopLatencyCountsFromDueTime() {
  // Request 3 of a 1000/s loop started at t=2 s is due at 2.003 s.
  EXPECT(Near(perfbench::DueTime(2.0, 1000.0, 3), 2.003));
  // The generator stalled: sent 500 us late, answered 100 us after sending.
  const double due = 3000.0, sent = 3500.0, answered = 3600.0;
  EXPECT(Near(perfbench::DueLatency(due, answered), 600.0));
  EXPECT(Near(perfbench::Lateness(due, sent), 500.0));
  // Sent early (never happens with a spinning generator) is not negative.
  EXPECT(perfbench::Lateness(due, 2990.0) == 0.0);
}

void SetupResidual() {
  EXPECT(Near(perfbench::SetupResidual(10.0, {2.0, 7.5}), 0.5));
  EXPECT(Near(perfbench::SetupResidualFrac(10.0, {2.0, 7.5}), 0.05));
  // Layers that overshoot the total (clock skew) still give a share.
  EXPECT(Near(perfbench::SetupResidualFrac(10.0, {6.0, 4.2}), 0.02));
  EXPECT(perfbench::SetupResidualFrac(0.0, {1.0}) == 0.0);
}

void RatioBases() {
  EXPECT(Near(perfbench::Ratio(3.0, 4.0), 0.75));
  EXPECT(perfbench::Ratio(3.0, 0.0) == 0.0);
  // merged / (merged + sent), not merged / sent.
  EXPECT(Near(perfbench::CombinedFrac(25.0, 75.0), 0.25));
  // hits / (hits + misses).
  EXPECT(Near(perfbench::HitFrac(1.0, 3.0), 0.25));
  EXPECT(perfbench::HitFrac(0.0, 0.0) == 0.0);
  // job_vs_seq: the threaded job over the sequential base; 0.25 = 4x faster.
  EXPECT(Near(perfbench::Ratio(0.04, 0.16), 0.25));
  // traced / untraced - 1.
  EXPECT(Near(perfbench::OverheadFrac(1.02, 1.0), 0.02));
  EXPECT(perfbench::OverheadFrac(1.0, 0.0) == 0.0);
}

void RefusedRequestsMissEveryLimit() {
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> v = perfbench::Sorted({100.0, inf, 50.0, 75.0});
  EXPECT(perfbench::NearestRank(v, 100.0) == inf);
  EXPECT(perfbench::NearestRank(v, 50.0) == 75.0);
}

}  // namespace

int main() {
  NearestRankIsExact();
  TailKeepsTenBeyond();
  OpenLoopLatencyCountsFromDueTime();
  SetupResidual();
  RatioBases();
  RefusedRequestsMissEveryLimit();
  if (failures != 0) {
    std::fprintf(stderr, "bench_math_test: %d failure(s)\n", failures);
    return 1;
  }
  std::printf("bench_math_test: all passed\n");
  return 0;
}
