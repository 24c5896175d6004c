// The benchmark's own arithmetic: percentiles and the reporting rule,
// medians, the seeded Poisson arrival schedule, open-loop due-time
// accounting and span self time. Pure functions, no I/O, no clocks, so
// tests/arith_test.cpp can pin every rule exactly.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Quantiles are written in parts per ten thousand (9900 = p99) so the
/// nearest-rank index is integer arithmetic and never depends on how a
/// double like 0.99 rounds.
using Permyriad = std::int64_t;

/// 1-based nearest rank of quantile q in n samples: ceil(q * n / 10000),
/// at least 1.
[[nodiscard]] inline std::size_t nearest_rank(std::size_t n, Permyriad q) {
  const auto rank = (static_cast<std::int64_t>(n) * q + 9999) / 10000;
  return static_cast<std::size_t>(std::max<std::int64_t>(rank, 1));
}

/// Nearest-rank quantile of an ascending-sorted sample; 0 when empty.
[[nodiscard]] inline double quantile_sorted(const std::vector<double>& sorted, Permyriad q) {
  if (sorted.empty()) return 0.0;
  return sorted[std::min(nearest_rank(sorted.size(), q), sorted.size()) - 1];
}

/// Sorts a copy; convenience for one-off quantiles.
[[nodiscard]] inline double quantile(std::vector<double> values, Permyriad q) {
  std::sort(values.begin(), values.end());
  return quantile_sorted(values, q);
}

[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 5000);
}

/// Samples strictly above the nearest-rank position of q.
[[nodiscard]] inline std::size_t samples_beyond(std::size_t n, Permyriad q) {
  const std::size_t rank = nearest_rank(n, q);
  return rank >= n ? 0 : n - rank;
}

/// The reporting rule: the highest of p50, p90, p99, p99.9, p99.99 that
/// still has at least `min_beyond` samples above it. Returns 0 when not
/// even the median qualifies (fewer than ~2 * min_beyond samples).
[[nodiscard]] inline Permyriad highest_reportable(std::size_t n, std::size_t min_beyond = 10) {
  Permyriad best = 0;
  for (Permyriad q : {5000, 9000, 9900, 9990, 9999}) {
    if (samples_beyond(n, q) >= min_beyond) best = q;
  }
  return best;
}

/// splitmix64: a portable, seedable stream, so one seed yields one
/// schedule on every platform and standard library.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Uniform in [0, 1) with 53 random bits.
  double uniform01() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// Due times (ns from the schedule start) of a Poisson arrival process at
/// `rate_per_s`, every arrival strictly before `horizon_ns`.
[[nodiscard]] inline std::vector<std::int64_t> poisson_schedule(std::uint64_t seed,
                                                                double rate_per_s,
                                                                std::int64_t horizon_ns) {
  std::vector<std::int64_t> due;
  if (rate_per_s <= 0.0) return due;
  SplitMix64 rng{seed};
  const double mean_gap_ns = 1e9 / rate_per_s;
  double t = 0.0;
  while (true) {
    t += -std::log1p(-rng.uniform01()) * mean_gap_ns;
    if (t >= static_cast<double>(horizon_ns)) break;
    due.push_back(static_cast<std::int64_t>(t));
  }
  return due;
}

/// One open-loop request: when it was due, when a generator thread was
/// free to take it, when that thread called into the gateway, and when
/// the call returned.
struct OpenLoopTimes {
  std::int64_t due = 0;
  std::int64_t claimed = 0;
  std::int64_t start = 0;
  std::int64_t end = 0;
};

/// Latency as the user sees it: from the due time, so a request that had
/// to wait for a free generator thread (every thread blocked behind a
/// stall in the gateway) is charged the wait, not only its own call.
[[nodiscard]] inline std::int64_t open_loop_latency(const OpenLoopTimes& t) {
  return t.end - t.due;
}

/// The generator's own lateness: how long after the later of the due time
/// and the moment a thread was free the call actually started (wake-up
/// and bookkeeping). Waiting for a free thread is the gateway's doing and
/// is not counted here; it is in the latency.
[[nodiscard]] inline std::int64_t generator_lag(const OpenLoopTimes& t) {
  return std::max<std::int64_t>(0, t.start - std::max(t.due, t.claimed));
}

/// One recorded interval. `parent` indexes the same span vector (-1 for
/// a root); `request` groups the spans of one request.
struct Span {
  int kind = 0;
  std::int64_t start = 0;
  std::int64_t end = 0;
  int parent = -1;
  std::uint64_t request = 0;

  [[nodiscard]] std::int64_t duration() const { return end - start; }
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals (children are
/// clipped to the parent, and overlapping children are counted once).
[[nodiscard]] inline std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    const std::int64_t lo = std::max(s.start, p.start);
    const std::int64_t hi = std::min(s.end, p.end);
    if (hi > lo) children[static_cast<std::size_t>(s.parent)].emplace_back(lo, hi);
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t run_lo = 0;
    std::int64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = spans[i].duration() - covered;
  }
  return self;
}

}  // namespace perfbench
