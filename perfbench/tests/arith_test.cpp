// Tests for the benchmark's own arithmetic (arith.h): the percentile
// reporting rule, open-loop due-time accounting, span self time, and the
// seeded Poisson schedule. Dependency-free; exits non-zero on failure.
//
//   cmake --build .bench_build/perfbench --target perfbench_tests
//   ctest --test-dir .bench_build/perfbench
#include <cstdio>
#include <cstdlib>
#include <numeric>

#include "arith.h"

namespace {

int failures = 0;

#define CHECK(cond)                                                        \
  do {                                                                     \
    if (!(cond)) {                                                         \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__, __LINE__, \
                   #cond);                                                 \
      ++failures;                                                          \
    }                                                                      \
  } while (0)

using namespace perfbench;

void percentile_rule() {
  std::vector<double> v(100);
  std::iota(v.begin(), v.end(), 1.0);  // 1..100
  CHECK(quantile_sorted(v, 5000) == 50.0);
  CHECK(quantile_sorted(v, 9900) == 99.0);
  CHECK(quantile_sorted(v, 10000) == 100.0);
  CHECK(quantile_sorted(v, 1) == 1.0);
  CHECK(quantile_sorted({}, 5000) == 0.0);
  CHECK(median({3.0, 1.0, 2.0}) == 2.0);

  // Nearest rank is exact integer arithmetic: p99 of 1000 is rank 990.
  CHECK(nearest_rank(1000, 9900) == 990);
  CHECK(nearest_rank(999, 9900) == 990);  // ceil(989.01)
  CHECK(nearest_rank(1, 5000) == 1);

  CHECK(samples_beyond(1000, 9900) == 10);
  CHECK(samples_beyond(999, 9900) == 9);
  CHECK(samples_beyond(5, 10000) == 0);

  // The highest percentile with at least ten samples beyond it.
  CHECK(highest_reportable(19) == 0);  // p50 has only 9 beyond
  CHECK(highest_reportable(20) == 5000);
  CHECK(highest_reportable(99) == 5000);   // p90: rank 90, 9 beyond
  CHECK(highest_reportable(100) == 9000);  // p90: rank 90, 10 beyond
  CHECK(highest_reportable(999) == 9000);
  CHECK(highest_reportable(1000) == 9900);
  CHECK(highest_reportable(9999) == 9900);
  CHECK(highest_reportable(10000) == 9990);
  CHECK(highest_reportable(100000) == 9999);
  CHECK(highest_reportable(1000, 11) == 9000);
}

/// One generator thread serving a schedule: it takes each request when
/// it is free, sleeps until the due time, and wakes `wake` late.
std::vector<OpenLoopTimes> serve(const std::vector<std::int64_t>& due,
                                 const std::vector<std::int64_t>& service, std::int64_t wake) {
  std::vector<OpenLoopTimes> out;
  std::int64_t free_at = 0;
  for (std::size_t i = 0; i < due.size(); ++i) {
    const std::int64_t claimed = free_at;
    const std::int64_t start = claimed > due[i] ? claimed : due[i] + wake;
    out.push_back({due[i], claimed, start, start + service[i]});
    free_at = start + service[i];
  }
  return out;
}

void due_time_accounting() {
  // A 250-unit stall on the first request delays the next two; timing
  // from the due time charges them the wait, timing from the start would
  // hide it (coordinated omission).
  const auto t = serve({0, 100, 200, 400}, {250, 10, 10, 10}, 0);
  CHECK(open_loop_latency(t[0]) == 250);
  CHECK(open_loop_latency(t[1]) == 160);  // waited 150, served 10
  CHECK(t[1].end - t[1].start == 10);
  CHECK(open_loop_latency(t[2]) == 70);
  CHECK(open_loop_latency(t[3]) == 10);  // the backlog has drained
  // Waiting behind the stall is the gateway's, not the generator's.
  for (const OpenLoopTimes& x : t) CHECK(generator_lag(x) == 0);

  // A generator that wakes 7 units late is charged exactly that, both in
  // its lag and in the latency.
  const auto late = serve({0, 100, 200}, {10, 10, 10}, 7);
  for (const OpenLoopTimes& x : late) {
    CHECK(generator_lag(x) == 7);
    CHECK(open_loop_latency(x) == 17);
  }
  // A start stamped before the due time never reads as negative lag.
  CHECK(generator_lag({100, 50, 99, 120}) == 0);
  CHECK(open_loop_latency({100, 50, 99, 120}) == 20);
}

void self_time_nested() {
  // root [0,100] > a [10,40] > a1 [20,30]
  const std::vector<Span> spans = {
      {0, 0, 100, -1, 1}, {1, 10, 40, 0, 1}, {2, 20, 30, 1, 1}};
  const auto self = self_times(spans);
  CHECK(self[0] == 70);
  CHECK(self[1] == 20);
  CHECK(self[2] == 10);
}

void self_time_overlapping() {
  // Two overlapping children cover [10,70] once: 60, not 80.
  const std::vector<Span> spans = {
      {0, 0, 100, -1, 1}, {1, 10, 50, 0, 1}, {1, 30, 70, 0, 1}};
  CHECK(self_times(spans)[0] == 40);

  // A child contained in another sibling adds nothing.
  const std::vector<Span> contained = {
      {0, 0, 100, -1, 1}, {1, 10, 60, 0, 1}, {1, 20, 30, 0, 1}};
  CHECK(self_times(contained)[0] == 50);

  // Touching children: [10,20] + [20,30] = 20.
  const std::vector<Span> touching = {
      {0, 0, 100, -1, 1}, {1, 10, 20, 0, 1}, {1, 20, 30, 0, 1}};
  CHECK(self_times(touching)[0] == 80);

  // A child running past its parent is clipped to the parent.
  const std::vector<Span> spill = {{0, 0, 100, -1, 1}, {1, 90, 120, 0, 1}, {1, -5, 5, 0, 1}};
  CHECK(self_times(spill)[0] == 85);

  // Unsorted children, and a zero-length child, are handled.
  const std::vector<Span> unsorted = {
      {0, 0, 100, -1, 1}, {1, 60, 80, 0, 1}, {1, 10, 20, 0, 1}, {1, 50, 50, 0, 1}};
  CHECK(self_times(unsorted)[0] == 70);
}

void self_time_telescopes() {
  // Disjoint children of the root plus the root's self time add up to
  // the root's duration: the property the traced run checks per request.
  const std::vector<Span> spans = {{0, 0, 1000, -1, 7}, {1, 0, 40, 0, 7},
                                   {2, 100, 300, 0, 7}, {3, 120, 150, 2, 7},
                                   {4, 300, 700, 0, 7}, {5, 700, 990, 0, 7}};
  const auto self = self_times(spans);
  std::int64_t children = 0;
  for (const Span& s : spans) {
    if (s.parent == 0) children += s.duration();
  }
  CHECK(children + self[0] == spans[0].duration());
  CHECK(self[0] == 70);
  CHECK(self[2] == 170);
}

void poisson_determinism() {
  const std::int64_t horizon = 10'000'000'000;  // 10 s
  const auto a = poisson_schedule(42, 3000.0, horizon);
  const auto b = poisson_schedule(42, 3000.0, horizon);
  const auto c = poisson_schedule(43, 3000.0, horizon);
  CHECK(a == b);
  CHECK(a != c);
  CHECK(!a.empty() && a.front() >= 0 && a.back() < horizon);
  CHECK(std::is_sorted(a.begin(), a.end()));
  // 30000 expected arrivals, sd ~173: within 5 sd.
  CHECK(a.size() > 29'000 && a.size() < 31'000);
  // Exponential gaps: about 1/e of them exceed the mean gap.
  std::size_t long_gaps = 0;
  for (std::size_t i = 1; i < a.size(); ++i) {
    if (a[i] - a[i - 1] > 333'333) ++long_gaps;
  }
  const double share = static_cast<double>(long_gaps) / static_cast<double>(a.size() - 1);
  CHECK(share > 0.35 && share < 0.385);
  CHECK(poisson_schedule(1, 0.0, horizon).empty());

  // The stream itself is fixed per seed on every platform.
  SplitMix64 rng{0};
  CHECK(rng.next() == 0xe220a8397b1dcdafULL);
}

}  // namespace

int main() {
  percentile_rule();
  due_time_accounting();
  self_time_nested();
  self_time_overlapping();
  self_time_telescopes();
  poisson_determinism();
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench arithmetic: all checks passed\n");
  return 0;
}
