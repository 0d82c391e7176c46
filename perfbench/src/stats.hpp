// The harness's own statistics: order statistics with an honest tail rule,
// geometric means, open-loop due-time accounting and the max-rate ladder
// search. Header-only so tests/test_stats.cpp can pin every rule.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <optional>
#include <stdexcept>
#include <vector>

namespace perfbench {

/// Median (mean of the two middle values for even counts). Throws on an
/// empty sample: every caller must have measured something.
inline double median(std::vector<double> v) {
  if (v.empty()) throw std::logic_error("median of an empty sample");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Geometric mean of strictly positive values.
inline double geomean(const std::vector<double>& v) {
  if (v.empty()) throw std::logic_error("geomean of an empty sample");
  double log_sum = 0.0;
  for (double x : v) {
    if (!(x > 0.0)) throw std::logic_error("geomean needs positive values");
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(v.size()));
}

/// A tail percentile as reported: which quantile it really is, its value,
/// and how many samples it rests on.
struct TailPercentile {
  double quantile = 0.0;  ///< the quantile actually reported (≤ requested)
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;  ///< samples strictly above the reported rank
};

/// Samples that must lie beyond a reported percentile.
inline constexpr std::size_t kMinBeyond = 10;

/// The highest quantile ≤ `wanted` that still leaves at least `min_beyond`
/// samples beyond its nearest rank (rank k = ceil(q·n), 1-based; `beyond`
/// = n − k). A p99 therefore needs n ≥ 1000; with fewer samples the
/// quantile is lowered until ten remain beyond it. nullopt when
/// n ≤ min_beyond, where no percentile is defensible.
inline std::optional<TailPercentile> tail_percentile(
    std::vector<double> samples, double wanted,
    std::size_t min_beyond = kMinBeyond) {
  const std::size_t n = samples.size();
  if (n <= min_beyond) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(wanted * static_cast<double>(n) - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, n - min_beyond);
  TailPercentile p;
  p.quantile = std::min(wanted, static_cast<double>(rank) /
                                    static_cast<double>(n));
  p.value = samples[rank - 1];
  p.samples = n;
  p.beyond = n - rank;
  return p;
}

/// One open-loop request: when it was due, when the generator actually
/// sent it, and when its answer was seen. Times in seconds from any epoch.
struct OpenLoopSample {
  double due = 0.0;
  double sent = 0.0;
  double done = 0.0;
  bool ok = true;  ///< false for a refused, shed, failed or wrong answer
};

/// Fixed-rate schedule: request i is due at start + i / rate.
inline double due_time(double start, double rate, std::size_t i) {
  return start + static_cast<double>(i) / rate;
}

/// Latency of an open-loop request, timed from its DUE time so that a
/// stalled generator or server charges every request queued behind the
/// stall. A failed request misses any limit: +infinity.
inline double latency_from_due(const OpenLoopSample& s) {
  if (!s.ok) return std::numeric_limits<double>::infinity();
  return s.done - s.due;
}

/// How late the generator sent a request (never negative).
inline double lateness(const OpenLoopSample& s) {
  return std::max(0.0, s.sent - s.due);
}

/// Verdict for one rung of the rate ladder.
struct RungVerdict {
  bool pass = false;
  double p99 = 0.0;      ///< seconds; +inf when a request failed beyond it
  double drain = 0.0;    ///< last completion minus last due time, seconds
  std::size_t samples = 0;
};

/// A rate is sustained when its p99 latency (from due) meets `limit` and
/// the backlog does not grow: everything sent is answered within `limit`
/// of the last due time. Needs enough samples for a true p99 (≥ 1000);
/// fewer is a failed rung, never a guessed one.
inline RungVerdict judge_rung(const std::vector<OpenLoopSample>& samples,
                              double limit) {
  RungVerdict v;
  v.samples = samples.size();
  std::vector<double> lat;
  lat.reserve(samples.size());
  double last_due = -std::numeric_limits<double>::infinity();
  double last_done = -std::numeric_limits<double>::infinity();
  for (const OpenLoopSample& s : samples) {
    lat.push_back(latency_from_due(s));
    last_due = std::max(last_due, s.due);
    last_done = std::max(last_done, s.done);
  }
  const auto p = tail_percentile(lat, 0.99);
  if (!p || p->quantile < 0.99) return v;
  v.p99 = p->value;
  v.drain = last_done - last_due;
  v.pass = v.p99 <= limit && v.drain <= limit;
  return v;
}

/// Geometric rate ladder: `first`, first·step, … up to and including the
/// last rung ≤ `last`.
inline std::vector<double> rate_ladder(double first, double last,
                                       double step) {
  std::vector<double> rungs;
  for (double r = first; r <= last * (1 + 1e-9); r *= step) rungs.push_back(r);
  return rungs;
}

/// Highest rung whose probe passes, by bisection over the rung index
/// (sustainability is monotone in the offered rate). Probes at most
/// ceil(log2(rungs+1)) rungs. -1 when even the lowest rung fails.
template <class Probe>
int ladder_search(const std::vector<double>& rungs, Probe&& probe) {
  int lo = -1;                              // highest index known to pass
  int hi = static_cast<int>(rungs.size());  // lowest index known to fail
  while (hi - lo > 1) {
    const int mid = lo + (hi - lo) / 2;
    if (probe(rungs[static_cast<std::size_t>(mid)])) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace perfbench
