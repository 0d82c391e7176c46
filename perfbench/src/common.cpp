#include "common.hpp"

#include <algorithm>
#include <numeric>

#include "src/graph/dag_builder.hpp"
#include "src/graph/dag_io.hpp"
#include "src/pebble/bounds.hpp"
#include "src/pebble/verifier.hpp"
#include "src/serve/protocol.hpp"
#include "src/solvers/bigstate/pdb.hpp"

namespace perfbench {

using namespace rbpeb;

namespace {

/// Sink for probe results so the optimizer cannot drop the probed calls.
volatile std::int64_t g_sink = 0;

/// pdb=auto consults a pattern database exactly past this many nodes
/// (solvers/exact.hpp, PdbMode::Auto).
constexpr std::size_t kPdbAutoMinNodes = 43;

/// Time StateBoundEvaluator over precomputed masks of `states`: the search
/// derives each successor's masks in O(1), so the probe charges only the
/// evaluation itself.
template <class Masks>
double eval_pass_ns(StateBoundEvaluator& evaluator,
                    const std::vector<const GameState*>& states,
                    std::size_t n) {
  std::vector<Masks> masks;
  masks.reserve(states.size());
  for (const GameState* s : states) masks.push_back(Masks::from(*s, n));
  return time_per_call_ns([&] {
    std::int64_t acc = 0;
    for (const Masks& m : masks) acc += evaluator.lower_bound_scaled(m).value_or(-1);
    g_sink = acc;
  });
}

}  // namespace

std::vector<NodeId> random_permutation(std::size_t n, Rng& rng) {
  std::vector<NodeId> perm(n);
  std::iota(perm.begin(), perm.end(), NodeId{0});
  std::shuffle(perm.begin(), perm.end(), rng);
  return perm;
}

Dag relabel(const Dag& dag, const std::vector<NodeId>& perm) {
  DagBuilder builder;
  builder.add_nodes(dag.node_count());
  for (NodeId v = 0; v < dag.node_count(); ++v) {
    for (const NodeId u : dag.predecessors(v)) builder.add_edge(perm[u], perm[v]);
  }
  return builder.build();
}

std::string request_line(const std::string& id, const Dag& dag,
                         std::size_t red_limit, const std::string& model,
                         const std::string& solver,
                         const SolverOptions& options,
                         std::size_t budget_states,
                         std::size_t budget_threads) {
  std::string line = "{\"id\":" + serve::json_quote(id) +
                     ",\"dag\":" + serve::json_quote(to_text(dag)) +
                     ",\"r\":" + std::to_string(red_limit) +
                     ",\"model\":" + serve::json_quote(model) +
                     ",\"solver\":" + serve::json_quote(solver);
  if (!options.empty()) {
    line += ",\"options\":{";
    bool first = true;
    for (const auto& [key, value] : options) {
      if (!first) line += ",";
      first = false;
      line += serve::json_quote(key) + ":" + serve::json_quote(value);
    }
    line += "}";
  }
  if (budget_states != 0 || budget_threads != 0) {
    line += ",\"budget\":{";
    if (budget_states != 0) line += "\"states\":" + std::to_string(budget_states);
    if (budget_states != 0 && budget_threads != 0) line += ",";
    if (budget_threads != 0) line += "\"threads\":" + std::to_string(budget_threads);
    line += "}";
  }
  return line + "}";
}

std::string canonical_trace_text(const Trace& trace,
                                 const serve::CanonicalForm& form) {
  std::vector<NodeId> position(form.order.size());
  for (std::size_t i = 0; i < form.order.size(); ++i) {
    position[form.order[i]] = static_cast<NodeId>(i);
  }
  std::string out;
  out.reserve(trace.size() * 6);
  for (const Move& move : trace) {
    out.push_back("LSCD"[static_cast<int>(move.type)]);
    out += std::to_string(position[move.node]);
    out.push_back(' ');
  }
  return out;
}

std::vector<double> probe_engine_and_bounds(const std::vector<ProbeInput>& inputs,
                                            Report& report) {
  constexpr std::size_t kMaxProbesPerInput = 100'000;
  constexpr MoveType kTypes[] = {MoveType::Load, MoveType::Store,
                                 MoveType::Compute, MoveType::Delete};
  double legal_ns = 0, apply_ns = 0, eval_ns = 0, pdb_ms = 0;
  double probes = 0, rejects = 0, probed_states = 0, moves = 0, evals = 0;
  std::vector<double> modelled;
  for (const ProbeInput& input : inputs) {
    const Engine& engine = *input.engine;
    const std::size_t n = engine.dag().node_count();
    std::vector<GameState> states{engine.initial_state()};
    Cost cost;
    for (const Move& move : input.trace) {
      GameState next = states.back();
      engine.apply(next, move, cost);
      states.push_back(std::move(next));
    }
    apply_ns += time_per_call_ns([&] {
      GameState s = engine.initial_state();
      Cost c;
      for (const Move& move : input.trace) engine.apply(s, move, c);
      g_sink = static_cast<std::int64_t>(s.red_count());
    });
    moves += static_cast<double>(input.trace.size());

    const std::size_t stride =
        std::max<std::size_t>(1, states.size() * 4 * n / kMaxProbesPerInput);
    std::vector<const GameState*> sampled;
    for (std::size_t i = 0; i < states.size(); i += stride) {
      sampled.push_back(&states[i]);
    }
    std::size_t legal = 0;
    for (const GameState* s : sampled) {
      for (const MoveType type : kTypes) {
        for (NodeId v = 0; v < n; ++v) legal += engine.is_legal(*s, {type, v});
      }
    }
    const double pass_probes = static_cast<double>(sampled.size() * 4 * n);
    const double pass_legal_ns = time_per_call_ns([&] {
      std::int64_t acc = 0;
      for (const GameState* s : sampled) {
        for (const MoveType type : kTypes) {
          for (NodeId v = 0; v < n; ++v) acc += engine.is_legal(*s, {type, v});
        }
      }
      g_sink = acc;
    });
    legal_ns += pass_legal_ns;
    probes += pass_probes;
    rejects += pass_probes - static_cast<double>(legal);
    probed_states += static_cast<double>(sampled.size());

    const std::int64_t t0 = now_ns();
    const PatternDatabase pdb(engine);
    pdb_ms += static_cast<double>(now_ns() - t0) / 1e6;
    StateBoundEvaluator evaluator(engine);
    if (n >= kPdbAutoMinNodes) evaluator.attach_pdb(&pdb);
    double pass_eval_ns = 0;
    if (n <= StateBoundEvaluator::kMaskMaxNodes) {
      pass_eval_ns = eval_pass_ns<StateBoundEvaluator::StateMasks>(evaluator, sampled, n);
    } else if (n <= StateBoundEvaluator::kWideMaskMaxNodes) {
      pass_eval_ns = eval_pass_ns<StateBoundEvaluator::WideStateMasks>(evaluator, sampled, n);
    } else {
      pass_eval_ns = eval_pass_ns<StateBoundEvaluator::MaskVec>(evaluator, sampled, n);
    }
    eval_ns += pass_eval_ns;
    evals += static_cast<double>(sampled.size());
    const double per_state = static_cast<double>(sampled.size());
    modelled.push_back(pass_legal_ns / per_state +
                       static_cast<double>(legal) / per_state * pass_eval_ns / per_state);
  }
  report.metric("engine.is_legal_ns", legal_ns / probes, "ns");
  report.metric("engine.apply_ns", apply_ns / moves, "ns");
  report.metric("engine.probes_per_state", probes / probed_states, "count");
  report.metric("engine.reject_share", rejects / probes, "share");
  report.metric("bounds.eval_ns", eval_ns / evals, "ns");
  report.metric("bounds.pdb_build_ms", pdb_ms / static_cast<double>(inputs.size()), "ms");
  return modelled;
}

std::size_t solve_stat(const SolveResult& result, const char* key) {
  const auto it = result.stats.find(key);
  return it == result.stats.end() ? 0 : std::stoull(it->second);
}

void search_counter_metrics(const std::vector<const SolveResult*>& solves,
                            const std::vector<double>& case_ms,
                            const std::vector<double>& modelled_ns, Report& report) {
  double expanded = 0, dup = 0, dead = 0, table_bytes = 0, passes = 0, ms = 0;
  double modelled_total_ns = 0;
  for (std::size_t i = 0; i < solves.size(); ++i) {
    const SolveResult& r = *solves[i];
    const auto case_expanded = static_cast<double>(solve_stat(r, "states_expanded"));
    expanded += case_expanded;
    modelled_total_ns += case_expanded * modelled_ns[i];
    dup += static_cast<double>(solve_stat(r, "dup_skipped"));
    dead += static_cast<double>(solve_stat(r, "dead_prunes"));
    table_bytes = std::max(table_bytes, static_cast<double>(solve_stat(r, "table_bytes")));
    // Single-pass searches report no anytime_passes: they ran one pass.
    passes += static_cast<double>(std::max<std::size_t>(1, solve_stat(r, "anytime_passes")));
    ms += case_ms[i];
  }
  report.metric("search.expanded", expanded, "count");
  report.metric("search.ns_per_expansion", ms * 1e6 / expanded, "ns");
  report.metric("search.dup_share", dup / (expanded + dup), "share");
  report.metric("search.dead_share", dead / (expanded + dead), "share");
  report.metric("search.table_mb", table_bytes / (1 << 20), "MB");
  report.metric("search.passes", passes / static_cast<double>(solves.size()), "count");
  report.metric("search.other_ns_per_expansion", (ms * 1e6 - modelled_total_ns) / expanded, "ns");
  report.note_string("search.other_ns_per_expansion_basis",
                     "computed: ns_per_expansion minus 4n is_legal probes and one "
                     "bound evaluation per legal successor, priced per case by the "
                     "replay probes; the search skips the evaluation for stale "
                     "successors, so this is a lower estimate and can go negative");
}

void probe_serve_layers(const std::vector<ProbeInput>& inputs, Report& report) {
  double parse_ns = 0, canon_ns = 0, audit_ns = 0;
  for (const ProbeInput& input : inputs) {
    parse_ns += time_per_call_ns([&] {
      g_sink = static_cast<std::int64_t>(serve::parse_request(input.line).red_limit);
    }, 5.0);
    canon_ns += time_per_call_ns([&] {
      g_sink = static_cast<std::int64_t>(serve::canonicalize(input.engine->dag()).dag_hash);
    }, 5.0);
    audit_ns += time_per_call_ns([&] {
      g_sink = static_cast<std::int64_t>(verify(*input.engine, input.trace).length);
    }, 5.0);
  }
  const double count = static_cast<double>(inputs.size());
  report.metric("serve.parse_us", parse_ns / count / 1e3, "us");
  report.metric("serve.canonicalize_us", canon_ns / count / 1e3, "us");
  report.metric("serve.audit_us", audit_ns / count / 1e3, "us");
}

}  // namespace perfbench
