// Helpers shared by the workloads: seeded relabelling, request lines, the
// canonical-label form of a trace, and the per-layer probes every traced
// run takes over the instances its workload actually touches.
#pragma once

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "report.hpp"
#include "spans.hpp"
#include "src/graph/dag.hpp"
#include "src/pebble/engine.hpp"
#include "src/pebble/trace.hpp"
#include "src/serve/canonical.hpp"
#include "src/solvers/api.hpp"

namespace perfbench {

using Rng = std::mt19937_64;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// A uniformly random permutation of 0..n-1.
std::vector<rbpeb::NodeId> random_permutation(std::size_t n, Rng& rng);

/// The isomorphic copy of `dag` with node v renamed perm[v].
rbpeb::Dag relabel(const rbpeb::Dag& dag,
                   const std::vector<rbpeb::NodeId>& perm);

/// One serve protocol request line (JSONL) carrying `dag` inline.
std::string request_line(const std::string& id, const rbpeb::Dag& dag,
                         std::size_t red_limit, const std::string& model,
                         const std::string& solver,
                         const rbpeb::SolverOptions& options = {},
                         std::size_t budget_states = 0,
                         std::size_t budget_threads = 0);

/// `trace` rewritten into canonical positions (node v → its index in
/// form.order), as text: equal for two isomorphic requests exactly when the
/// cache served one answer to both.
std::string canonical_trace_text(const rbpeb::Trace& trace,
                                 const rbpeb::serve::CanonicalForm& form);

/// What a per-layer probe looks at: one instance's engine, a complete trace
/// on it (an answer the workload produced), and the request line that would
/// ask the serve tier for it.
struct ProbeInput {
  const rbpeb::Engine* engine = nullptr;
  rbpeb::Trace trace;
  std::string line;
};

/// engine.* and bounds.eval_ns: replay each trace, probing every candidate
/// move (4 types × n nodes) at each state with Engine::is_legal, timing
/// Engine::apply along the trace and StateBoundEvaluator on each state's
/// masks (a PDB attached past 42 nodes, as pdb=auto does).
/// bounds.pdb_build_ms: one PatternDatabase build per instance.
/// Returns, per input, what these probes price one search expansion at:
/// 4n legality probes plus one bound evaluation per legal successor.
std::vector<double> probe_engine_and_bounds(const std::vector<ProbeInput>& inputs,
                                            Report& report);

/// serve.parse_us, serve.canonicalize_us, serve.audit_us: parse_request of
/// each request line, canonicalize of each DAG, verify of each trace.
void probe_serve_layers(const std::vector<ProbeInput>& inputs, Report& report);

/// search.expanded, search.ns_per_expansion, search.dup_share,
/// search.dead_share, search.table_mb and search.passes over one solve per
/// case and each case's median wall time. With `modelled_ns` (per case,
/// from probe_engine_and_bounds) also the computed
/// search.other_ns_per_expansion: the time an expansion spends beyond its
/// legality probes and bound evaluations — the closed table and queue.
void search_counter_metrics(const std::vector<const rbpeb::SolveResult*>& solves,
                            const std::vector<double>& case_ms,
                            const std::vector<double>& modelled_ns, Report& report);

/// A stat of a solve result as a number (0 when absent).
std::size_t solve_stat(const rbpeb::SolveResult& result, const char* key);

/// Median time of `fn` per call in ns, over repeated batches lasting at
/// least `min_ms` in total.
template <class Fn>
double time_per_call_ns(Fn&& fn, double min_ms = 20.0) {
  std::vector<double> per_call;
  std::size_t batch = 1;
  const auto start = Clock::now();
  while (per_call.size() < 5 || seconds_since(start) * 1e3 < min_ms) {
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < batch; ++i) fn();
    const double elapsed = static_cast<double>(now_ns() - t0);
    if (elapsed < 2e5 && batch < (1u << 20)) {
      batch *= 2;  // batches of at least 0.2 ms keep clock reads negligible
      continue;
    }
    per_call.push_back(elapsed / static_cast<double>(batch));
    if (per_call.size() > 200) break;
  }
  std::sort(per_call.begin(), per_call.end());
  return per_call[per_call.size() / 2];
}

}  // namespace perfbench
