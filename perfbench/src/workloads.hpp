// The benchmark's workloads. Each runs in its own process: set-up, a timed
// phase of --seconds, correctness checks on every answer, and — with
// --trace 1 — spans around every layer call plus the per-layer probes.
#pragma once

#include <string>
#include <vector>

#include "common.hpp"
#include "report.hpp"
#include "spans.hpp"

namespace perfbench {

/// oneshot-exact, nodel-certify, oneshot-hda.
bool is_search_workload(const std::string& name);
void run_search_workload(const RunConfig& config, Report& report);

/// serve-zipf.
void run_serve_workload(const RunConfig& config, Report& report);

/// One instance to push through the serve tier.
struct ServeCase {
  const rbpeb::Dag* dag = nullptr;
  std::size_t red_limit = 0;
  std::string model;
  std::string solver;
  rbpeb::SolverOptions options;
  std::size_t budget_states = 0;
  std::size_t budget_threads = 0;
  std::string reference_cost;  ///< required cost when non-empty
};

/// The serving path for a search workload's own instances: each case is
/// sent cold and then as a relabelled copy, all at once, into a fresh
/// two-worker server. Gives serve.queue_wait_us, serve.miss_solve_ms, the
/// hit/flight/shed shares and gen.lag_ms; every answer is checked.
void probe_serve_path(const std::vector<ServeCase>& cases, Rng& rng,
                      SpanRecorder& spans, Report& report);

/// Write the spans (Chrome JSON) and print the per-name self-time table.
void write_spans(const RunConfig& config, const SpanRecorder& spans,
                 Report& report);

}  // namespace perfbench
