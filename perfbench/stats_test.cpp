// Tests of the benchmark's statistics code (stats.hpp). Exits non-zero and
// names the failing check on any mismatch.
//
//   .bench_build/perfbench/perfbench_stats_test

#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++g_failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void test_percentile() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  check(near(perfbench::percentile(v, 50), 50), "p50 of 1..100 is 50");
  check(near(perfbench::percentile(v, 99), 99), "p99 of 1..100 is 99");
  check(near(perfbench::percentile(v, 100), 100), "p100 is the max");
  check(near(perfbench::percentile(v, 0), 1), "p0 is the min");
  check(near(perfbench::percentile({}, 50), 0), "empty sample gives 0");
  check(near(perfbench::median({3, 1, 2}), 2), "median of three");
}

void test_tail_rule() {
  // p90 needs 100 samples, p95 200 and p99 1000 for ten beyond.
  check(perfbench::samples_beyond(100, 90) == 10, "100 samples: 10 beyond p90");
  check(perfbench::samples_beyond(1000, 99) == 10, "1000 samples: 10 beyond p99");
  check(perfbench::tail_percentile(99) == 0.0, "99 samples support no tail");
  check(perfbench::tail_percentile(100) == 90.0, "100 samples pick p90");
  check(perfbench::tail_percentile(199) == 90.0, "199 samples still p90");
  check(perfbench::tail_percentile(200) == 95.0, "200 samples pick p95");
  check(perfbench::tail_percentile(999) == 95.0, "999 samples still p95");
  check(perfbench::tail_percentile(1000) == 99.0, "1000 samples pick p99");
  check(perfbench::tail_percentile(50000) == 99.0, "large samples stay at p99");
}

void test_slo_attainment() {
  using perfbench::RequestOutcome;
  std::vector<RequestOutcome> sent = {
      {true, 0.10, 0.010},   // meets both
      {true, 0.30, 0.010},   // TTFT miss
      {true, 0.10, 0.050},   // TPOT miss
      {false, 0.01, 0.001},  // failed: a miss whatever its timings
      {false, 0.0, 0.0},     // refused before admission: a miss
  };
  check(near(perfbench::slo_attainment(sent, 0.2, 0.02), 0.2),
        "1 of 5 sent meets both limits");
  check(near(perfbench::slo_attainment(sent, 1.0, 1.0), 0.6),
        "failed and refused requests miss even loose limits");
  check(near(perfbench::slo_attainment({}, 1.0, 1.0), 0.0), "nothing sent gives 0");
}

void test_busy_and_bubble() {
  using perfbench::Interval;
  // Two stages over a 10 s window. Stage 0 computes [0,4] and [5,7]; stage 1
  // computes [2,6]. Union of computing time: [0,7] = 7 s. Busy: 6 + 4 = 10.
  const std::vector<std::vector<Interval>> stages = {{{0, 4}, {5, 7}}, {{2, 6}}};
  const Interval window{0, 10};
  check(near(perfbench::busy_share(stages[0], window), 0.6), "stage 0 busy 6 of 10 s");
  check(near(perfbench::busy_share(stages[1], window), 0.4), "stage 1 busy 4 of 10 s");
  check(near(perfbench::union_length({{0, 4}, {5, 7}, {2, 6}}), 7.0), "union is 7 s");
  check(near(perfbench::bubble_share(stages, window), 1.0 - 10.0 / 14.0),
        "bubble = 1 - busy / (stages * active)");
  // Perfect overlap has no bubble; clipping to a window drops outside time.
  check(near(perfbench::bubble_share({{{1, 3}}, {{1, 3}}}, window), 0.0),
        "identical spans leave no bubble");
  check(near(perfbench::busy_share({{-5, 1}, {9, 20}}, window), 0.2),
        "spans are clipped to the window");
}

void test_pair_edges() {
  using perfbench::Edge;
  // A dangling end (its begin dropped), two spans, then a trailing begin.
  const std::vector<Edge> edges = {{false, 0.5}, {true, 1.0}, {false, 1.5},
                                   {true, 2.0},  {false, 3.0}, {true, 4.0}};
  const auto spans = perfbench::pair_edges(edges);
  check(spans.size() == 2, "two complete spans");
  check(spans.size() == 2 && near(spans[0].begin, 1.0) && near(spans[0].end, 1.5),
        "first span [1, 1.5]");
  check(spans.size() == 2 && near(spans[1].begin, 2.0) && near(spans[1].end, 3.0),
        "second span [2, 3]");
}

void test_cv() {
  check(near(perfbench::cv({5, 5, 5}), 0.0), "constant sample has cv 0");
  check(near(perfbench::cv({1, 3}), 0.5), "cv of {1,3} is 1/2");
}

}  // namespace

int main() {
  test_percentile();
  test_tail_rule();
  test_slo_attainment();
  test_busy_and_bubble();
  test_pair_edges();
  test_cv();
  if (g_failures == 0) std::printf("perfbench_stats_test: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
