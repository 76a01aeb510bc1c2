// Unit test of perfbench/src/percentile.h. Exits nonzero on the first
// failed expectation; run.py runs it before every benchmark run, and
// `ctest` in the benchmark's build directory runs it too.

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "percentile.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "percentile_test: FAILED %s\n", what);
    ++failures;
  }
}

std::vector<double> OneToN(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

}  // namespace

int main() {
  using namespace perfbench;

  // Nearest rank on known inputs.
  Expect(NearestRank(50.0, 10) == 5, "p50 of 10 is rank 5");
  Expect(NearestRank(50.0, 11) == 6, "p50 of 11 is rank 6");
  Expect(NearestRank(99.0, 1000) == 990, "p99 of 1000 is rank 990");
  Expect(NearestRank(99.0, 1001) == 991, "p99 of 1001 is rank 991");
  Expect(NearestRank(99.0, 100) == 99, "p99 of 100 is rank 99");
  Expect(NearestRank(100.0, 7) == 7, "p100 is the maximum");
  Expect(NearestRank(0.1, 7) == 1, "tiny p clamps to rank 1");
  Expect(NearestRank(50.0, 0) == 0, "empty sample has no rank");

  const LatencySummary s = Summarize(OneToN(1000));
  Expect(s.count == 1000, "sample count is reported");
  Expect(s.p50 == 500.0, "p50 of 1..1000 is 500");
  Expect(s.p99 == 990.0, "p99 of 1..1000 is 990");

  const LatencySummary odd = Summarize({3.0, 1.0, 2.0});
  Expect(odd.count == 3 && odd.p50 == 2.0, "p50 of {1,2,3} is 2");
  Expect(Summarize({}).count == 0, "empty summary counts 0");

  // The ten-beyond rule: p99 is reportable from 1000 samples on.
  Expect(s.beyond_p99 == 10 && s.p99_valid, "1000 samples: 10 beyond p99");
  const LatencySummary short_run = Summarize(OneToN(999));
  Expect(short_run.beyond_p99 == 9 && !short_run.p99_valid,
         "999 samples: p99 not reportable");
  Expect(Reportable(50.0, 20) && !Reportable(50.0, 19),
         "p50 needs 20 samples");
  Expect(Reportable(99.9, 10000) && !Reportable(99.9, 9999),
         "p99.9 needs 10000 samples");

  if (failures == 0) std::printf("percentile_test: ok\n");
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
