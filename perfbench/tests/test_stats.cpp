// Checks of the harness's own statistics (src/stats.hpp): the ≥10-beyond
// percentile rule, geomean, open-loop due-time and lateness accounting, and
// the max-rate ladder search. Exit code 0 when every check holds.
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <vector>

#include "stats.hpp"

namespace {

int g_failures = 0;

#define CHECK(cond)                                                  \
  do {                                                               \
    if (!(cond)) {                                                   \
      std::printf("FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond);    \
      ++g_failures;                                                  \
    }                                                                \
  } while (0)

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> iota_samples(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;  // n, n-1, …, 1: unsorted on purpose
}

void percentile_rule() {
  using perfbench::tail_percentile;
  // 1000 samples: a true p99 with exactly ten beyond it.
  auto p = tail_percentile(iota_samples(1000), 0.99);
  CHECK(p && near(p->quantile, 0.99) && near(p->value, 990) && p->beyond == 10);
  // 100 samples: p99 would rest on one sample; the rule lowers it to p90.
  p = tail_percentile(iota_samples(100), 0.99);
  CHECK(p && near(p->quantile, 0.90) && near(p->value, 90) && p->beyond == 10);
  // More samples than needed keep the requested quantile.
  p = tail_percentile(iota_samples(5000), 0.99);
  CHECK(p && near(p->quantile, 0.99) && near(p->value, 4950) && p->beyond == 50);
  // 11 samples: the lowest rank, ten beyond it; 10 or fewer: none.
  p = tail_percentile(iota_samples(11), 0.99);
  CHECK(p && near(p->value, 1) && p->beyond == 10);
  CHECK(!tail_percentile(iota_samples(10), 0.99));
  CHECK(!tail_percentile({}, 0.5));
  // The median as a tail percentile of 21 samples.
  p = tail_percentile(iota_samples(21), 0.5);
  CHECK(p && near(p->value, 11) && p->beyond == 10);
  CHECK(near(perfbench::median({3, 1, 2}), 2));
  CHECK(near(perfbench::median({4, 1, 2, 3}), 2.5));
}

void geomean_rule() {
  CHECK(near(perfbench::geomean({1, 100}), 10));
  CHECK(near(perfbench::geomean({2, 8}), 4));
  CHECK(near(perfbench::geomean({5}), 5));
  bool threw = false;
  try {
    perfbench::geomean({1, 0});
  } catch (const std::logic_error&) {
    threw = true;
  }
  CHECK(threw);
}

void open_loop_accounting() {
  using perfbench::OpenLoopSample;
  CHECK(near(perfbench::due_time(2.0, 4.0, 6), 3.5));
  // Sent half a second late, answered 0.1 s after sending: the latency
  // counts the lateness too.
  const OpenLoopSample late{1.0, 1.5, 1.6, true};
  CHECK(near(perfbench::latency_from_due(late), 0.6));
  CHECK(near(perfbench::lateness(late), 0.5));
  const OpenLoopSample early{1.0, 1.0, 1.2, true};
  CHECK(near(perfbench::lateness(early), 0.0));
  const OpenLoopSample failed{1.0, 1.0, 1.001, false};
  CHECK(std::isinf(perfbench::latency_from_due(failed)));

  // A one-second stall at request 100 of a 1000 rps loop: every request
  // queued behind it is charged from its own due time, so the stall shows
  // in the tail instead of vanishing into the generator's wait.
  std::vector<OpenLoopSample> samples;
  double clock = 0.0;
  for (std::size_t i = 0; i < 2000; ++i) {
    const double due = perfbench::due_time(0.0, 1000.0, i);
    clock = std::max(clock, due);
    if (i == 100) clock += 1.0;
    samples.push_back({due, clock, clock + 0.0005, true});
    clock += 0.0002;  // the generator catches up at 5000 rps
  }
  std::vector<double> lat;
  for (const auto& s : samples) lat.push_back(perfbench::latency_from_due(s));
  const auto p99 = perfbench::tail_percentile(lat, 0.99);
  CHECK(p99 && p99->value > 0.5);
  CHECK(perfbench::lateness(samples[101]) > 0.9);
  CHECK(perfbench::latency_from_due(samples[1999]) < 0.001);  // caught up
}

std::vector<perfbench::OpenLoopSample> flat(std::size_t n, double latency) {
  std::vector<perfbench::OpenLoopSample> v;
  for (std::size_t i = 0; i < n; ++i) {
    const double due = perfbench::due_time(0.0, 1000.0, i);
    v.push_back({due, due, due + latency, true});
  }
  return v;
}

void rung_judgement() {
  const double limit = 0.010;
  CHECK(perfbench::judge_rung(flat(1000, 0.001), limit).pass);
  // Too few samples for a true p99: never a pass.
  CHECK(!perfbench::judge_rung(flat(999, 0.001), limit).pass);
  // Ten slow answers sit beyond the p99 rank; eleven reach it.
  auto ten = flat(1000, 0.001);
  for (std::size_t i = 0; i < 10; ++i) ten[i * 50].done += 0.05;
  CHECK(perfbench::judge_rung(ten, limit).pass);
  auto eleven = ten;
  eleven[999].done += 0.05;
  CHECK(!perfbench::judge_rung(eleven, limit).pass);
  // A refused request counts as missing the limit.
  auto refused = flat(1000, 0.001);
  for (std::size_t i = 0; i < 11; ++i) refused[i].ok = false;
  CHECK(!perfbench::judge_rung(refused, limit).pass);
  // A growing backlog: the last answer lands after the limit even though
  // fewer than 1% of requests are slow.
  auto backlog = flat(1000, 0.001);
  for (std::size_t i = 995; i < 1000; ++i) backlog[i].done += 0.02 * static_cast<double>(i - 994);
  const auto v = perfbench::judge_rung(backlog, limit);
  CHECK(!v.pass && v.drain > limit && v.p99 <= limit);
}

void ladder() {
  const auto rungs = perfbench::rate_ladder(100, 25600, std::pow(2.0, 1.0 / 16));
  CHECK(rungs.size() == 129);
  CHECK(near(rungs.front(), 100) && std::fabs(rungs.back() - 25600) < 1e-6);
  for (const double capacity : {50.0, 100.0, 3000.0, 3100.0, 25600.0, 1e9}) {
    int probes = 0;
    const int best = perfbench::ladder_search(rungs, [&](double rate) {
      ++probes;
      return rate <= capacity * (1 + 1e-9);
    });
    int expected = -1;
    for (std::size_t i = 0; i < rungs.size(); ++i) {
      if (rungs[i] <= capacity * (1 + 1e-9)) expected = static_cast<int>(i);
    }
    CHECK(best == expected);
    CHECK(probes <= 8);  // ceil(log2(129 + 1))
  }
}

}  // namespace

int main() {
  percentile_rule();
  geomean_rule();
  open_loop_accounting();
  rung_judgement();
  ladder();
  if (g_failures == 0) std::printf("perfbench_selftest: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
