// The search workloads: rounds of solves through SolverRegistry::at(..).run
// over a fixed case set, each case's median taken over many in-process
// repetitions (single solves of the nodel and hda cases spread 10–40%
// between runs; medians over a 20 s run spread a few percent).
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>

#include "stats.hpp"
#include "workloads.hpp"
#include "src/instances/spec.hpp"
#include "src/obs/introspect.hpp"
#include "src/pebble/verifier.hpp"

namespace perfbench {

using namespace rbpeb;

namespace {

struct CaseDef {
  const char* spec;
  const char* model;
  std::size_t red_limit;
  std::size_t budget_states;  ///< 0 = the solver default
  bool proves;  ///< the solve must end Optimal; else it must be certified
  /// Required cost of the proven optimum; empty when no reference is
  /// committed for the instance.
  const char* reference;
};

struct WorkloadDef {
  const char* solver;
  std::size_t threads;  ///< budget.threads (hda-astar workers)
  bool serial;          ///< expansion counts must repeat exactly
  std::vector<CaseDef> cases;
};

// Reference optima for the oneshot cases come from the Dijkstra `exact`
// solver — the independent oracle, which shares no search code with the
// A* tier (`perfbench --references` recomputes them). The nodel reference
// for stencil:width=2,steps=14 is BENCH_anytime.json's proven optimum.
const std::vector<CaseDef> kOneshotCases = {
    {"pyramid:base=5", "oneshot", 3, 0, true, "12"},
    {"tree:leaves=8", "oneshot", 3, 0, true, "6"},
    {"layered:layers=4,width=4,indegree=2,seed=1", "oneshot", 3, 0, true, "17"},
    {"stencil:width=3,steps=6", "oneshot", 4, 0, true, "11"},
    {"stencil:width=4,steps=4", "oneshot", 4, 0, true, "14"},
};

// Two cases the anytime tier proves optimal, and two it can only certify:
// those reach the >42-node pattern databases, the four-pass weight
// schedule and the runtime-width MaskVec states. Their state budgets hold
// each solve near one second.
const std::vector<CaseDef> kNodelCases = {
    {"stencil:width=2,steps=14", "nodel", 3, 200'000, true, "53"},
    {"layered:layers=13,width=2,indegree=2,seed=3", "nodel", 3, 200'000, true, ""},
    {"layered:layers=16,width=6,indegree=2,seed=71", "nodel", 3, 14'000, false, ""},
    {"layered:layers=24,width=8,indegree=2,seed=64", "nodel", 3, 6'000, false, ""},
};

WorkloadDef workload_def(const std::string& name) {
  if (name == "oneshot-exact") return {"exact-astar", 1, true, kOneshotCases};
  if (name == "nodel-certify") return {"anytime-astar", 1, true, kNodelCases};
  // hda-astar at exactly two workers: at four (= nproc here) its wall time
  // is bimodal across processes.
  return {"hda-astar", 2, false,
          std::vector<CaseDef>(kOneshotCases.begin(), kOneshotCases.begin() + 4)};
}

struct Prepared {
  const CaseDef* def = nullptr;
  instances::ResolvedInstance instance;
  std::unique_ptr<Engine> engine;
  SolveRequest request;
};

using PreparedSet = std::vector<std::unique_ptr<Prepared>>;

/// Everything before the first solve: resolve each spec, build its engine
/// and its request.
PreparedSet prepare(const WorkloadDef& def, SpanRecorder& spans) {
  PreparedSet out;
  for (std::size_t i = 0; i < def.cases.size(); ++i) {
    const CaseDef& c = def.cases[i];
    auto p = std::make_unique<Prepared>();
    p->def = &c;
    {
      const Span span(spans, "instances.resolve_instance", static_cast<std::int64_t>(i));
      p->instance = instances::resolve_instance(c.spec);
    }
    {
      const Span span(spans, "engine.construct", static_cast<std::int64_t>(i));
      p->engine = std::make_unique<Engine>(
          p->instance.dag, solver_options::parse_model(c.model), c.red_limit);
    }
    p->request.engine = p->engine.get();
    if (c.budget_states != 0) p->request.budget.max_states = c.budget_states;
    p->request.budget.threads = def.threads;
    out.push_back(std::move(p));
  }
  return out;
}

struct Solve {
  std::size_t case_index = 0;
  double ms = 0.0;
  SolveResult result;
};

/// Check one answer: a trace that re-audits, a proof of optimality (and the
/// committed optimum) where the case proves, a certificate that holds
/// wherever one is attached or required, and — for serial searches — the
/// same expansion count as the case's first solve.
void check_solve(const WorkloadDef& def, const Prepared& p,
                 const SolveResult& r, std::map<std::size_t, std::string>& expanded,
                 std::size_t case_index, Report& report) {
  const std::string name = p.def->spec;
  if (!r.ok() || !r.has_trace()) {
    report.operation(false, name + ": status " + to_string(r.status) + " " + r.detail);
    return;
  }
  const VerifyResult vr = verify(*p.engine, *r.trace);
  if (!vr.ok() || vr.total != r.cost) {
    report.operation(false, name + ": trace fails the re-audit");
    return;
  }
  if (p.def->proves &&
      (r.status != SolveStatus::Optimal ||
       (*p.def->reference != '\0' && r.cost.str() != p.def->reference))) {
    report.operation(false, name + ": cost " + r.cost.str() + " (" +
                                to_string(r.status) + "), reference " +
                                p.def->reference);
    return;
  }
  if ((!p.def->proves && !r.certificate) ||
      (r.certificate && !certificate_holds(*r.certificate, vr.total))) {
    report.operation(false, name + ": no certificate that holds");
    return;
  }
  if (def.serial) {
    const auto it = r.stats.find("states_expanded");
    const std::string count = it == r.stats.end() ? "?" : it->second;
    auto [seen, fresh] = expanded.emplace(case_index, count);
    if (!fresh && seen->second != count) {
      report.operation(false, name + ": expansions " + count + " vs " + seen->second);
      return;
    }
  }
  report.operation(true);
}

/// Rounds of every case (order shuffled per round by the seed) until
/// `seconds` have passed; at least one round.
std::vector<std::vector<Solve>> run_rounds(const WorkloadDef& def,
                                           const PreparedSet& cases,
                                           double seconds, Rng& rng,
                                           SpanRecorder& spans,
                                           std::map<std::size_t, std::string>& expanded,
                                           Report& report) {
  const Solver& solver = SolverRegistry::instance().at(def.solver);
  std::vector<std::vector<Solve>> rounds;
  const auto start = Clock::now();
  do {
    std::vector<std::size_t> order(cases.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::shuffle(order.begin(), order.end(), rng);
    const Span round_span(spans, "round", static_cast<std::int64_t>(rounds.size()));
    std::vector<Solve> round;
    for (const std::size_t i : order) {
      Solve s;
      s.case_index = i;
      {
        const Span span(spans, "solver.run", static_cast<std::int64_t>(i));
        const std::int64_t t0 = now_ns();
        s.result = solver.run(cases[i]->request);
        s.ms = static_cast<double>(now_ns() - t0) / 1e6;
      }
      {
        const Span span(spans, "verify", static_cast<std::int64_t>(i));
        check_solve(def, *cases[i], s.result, expanded, i, report);
      }
      s.result.trace.reset();  // keep the process footprint to the solver's
      round.push_back(std::move(s));
    }
    rounds.push_back(std::move(round));
  } while (seconds_since(start) < seconds);
  return rounds;
}

double round_wall_s(const std::vector<Solve>& round) {
  double ms = 0;
  for (const Solve& s : round) ms += s.ms;
  return ms / 1e3;
}

/// Per case: median solve ms over the rounds.
std::vector<double> case_medians(const std::vector<std::vector<Solve>>& rounds,
                                 std::size_t case_count) {
  std::vector<std::vector<double>> per_case(case_count);
  for (const auto& round : rounds) {
    for (const Solve& s : round) per_case[s.case_index].push_back(s.ms);
  }
  std::vector<double> out;
  for (const auto& v : per_case) out.push_back(median(v));
  return out;
}

void end_to_end_metrics(const std::vector<std::vector<Solve>>& rounds,
                        std::size_t case_count, double setup_s, Report& report) {
  std::vector<double> walls;
  double solve_s = 0;
  std::size_t solves = 0;
  for (const auto& round : rounds) {
    walls.push_back(round_wall_s(round));
    for (const Solve& s : round) {
      solve_s += s.ms / 1e3;
      ++solves;
    }
  }
  const std::vector<double> per_case = case_medians(rounds, case_count);
  report.metric("setup_s", setup_s, "s");
  report.metric("wall_s", median(walls), "s");
  report.metric("case_ms_geomean", geomean(per_case), "ms");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  report.metric("ok_share",
                static_cast<double>(report.attempted() - report.failed()) /
                    static_cast<double>(report.attempted()),
                "share");
  // A request here is one case's solve. A run holds a few dozen solves
  // spread over a handful of cases, too few for a tail percentile by the
  // ten-beyond rule (and a pooled quantile would jump between cases as the
  // round count changes), so both latencies are read off the per-case
  // medians: the median case and the slowest case.
  report.metric("latency_p50_ms", median(per_case), "ms");
  report.metric("latency_p99_ms", *std::max_element(per_case.begin(), per_case.end()), "ms");
  report.note_string("latency_basis", "per-case median solve times: median case, slowest case");
  report.metric("max_rate_rps", static_cast<double>(solves) / solve_s, "1/s");
  report.note_number("rounds", static_cast<double>(rounds.size()));
  std::string wall_list = "[";
  for (const double w : walls) wall_list += (wall_list.size() > 1 ? "," : "") + json_number(w);
  report.note("round_walls_s", wall_list + "]");
  std::string case_list = "[";
  for (const double m : per_case) {
    case_list += (case_list.size() > 1 ? "," : "") + json_number(m);
  }
  report.note("case_median_ms", case_list + "]");
  std::vector<std::string> samples(case_count, "[");
  for (const auto& round : rounds) {
    for (const Solve& s : round) {
      std::string& list = samples[s.case_index];
      list += (list.size() > 1 ? "," : "") + json_number(s.ms);
    }
  }
  std::string sample_list = "[";
  for (const std::string& list : samples) {
    sample_list += (sample_list.size() > 1 ? "," : "") + list + "]";
  }
  report.note("case_samples_ms", sample_list + "]");
}

/// Search counters from the traced rounds: each case's first solve (the
/// counters repeat exactly for serial searches) and its median time.
void search_layer_metrics(const PreparedSet& cases,
                          const std::vector<std::vector<Solve>>& rounds,
                          const std::vector<double>& modelled_ns, Report& report) {
  std::vector<const SolveResult*> firsts(cases.size());
  for (const Solve& s : rounds.front()) firsts[s.case_index] = &s.result;
  search_counter_metrics(firsts, case_medians(rounds, cases.size()), modelled_ns, report);
}

/// search.pdb_share: one solve per case with a progress sampler attached,
/// which makes the search attribute every expansion's bound to the counting
/// bounds or the pattern database.
void pdb_share_probe(const WorkloadDef& def, const PreparedSet& cases,
                     SpanRecorder& spans, Report& report) {
  const Solver& solver = SolverRegistry::instance().at(def.solver);
  double counting = 0, pdb = 0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    obs::SearchProgressSampler sampler({});
    SolveRequest request = cases[i]->request;
    request.progress = &sampler;
    const Span span(spans, "solver.run.attributed", static_cast<std::int64_t>(i));
    const SolveResult r = solver.run(request);
    counting += static_cast<double>(solve_stat(r, "attr_counting"));
    pdb += static_cast<double>(solve_stat(r, "attr_pdb"));
  }
  report.metric("search.pdb_share", counting + pdb > 0 ? pdb / (counting + pdb) : 0.0, "share");
}

/// hda.expanded_ratio and hda.speedup: hda-astar at two workers against
/// serial exact-astar on the same instances. The workload's own medians
/// stand in for whichever side its rounds already measured.
void hda_probe(const std::string& workload, const PreparedSet& cases, const std::vector<double>& med_ms,
               const std::vector<std::vector<Solve>>& rounds,
               SpanRecorder& spans, Report& report) {
  const Solver& serial = SolverRegistry::instance().at("exact-astar");
  const Solver& hda = SolverRegistry::instance().at("hda-astar");
  double serial_exp = 0, hda_exp = 0;
  std::vector<double> speedups;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    if (!cases[i]->def->proves) continue;  // a full search would not end
    SolveRequest request = cases[i]->request;
    request.budget.max_states = SolveBudget{}.max_states;
    const auto timed = [&](const Solver& solver, std::size_t threads,
                           std::size_t& expanded_out) {
      request.budget.threads = threads;
      const Span span(spans, threads == 2 ? "solver.run.hda" : "solver.run.serial",
                      static_cast<std::int64_t>(i));
      const std::int64_t t0 = now_ns();
      const SolveResult r = solver.run(request);
      const double ms = static_cast<double>(now_ns() - t0) / 1e6;
      expanded_out = solve_stat(r, "states_expanded");
      report.operation(r.status == SolveStatus::Optimal,
                       std::string(cases[i]->def->spec) + ": hda probe not optimal");
      return ms;
    };
    std::size_t se = 0, he = 0;
    double serial_ms = 0, hda_ms = 0;
    if (workload == "oneshot-exact") {
      serial_ms = med_ms[i];
      for (const Solve& s : rounds.front()) {
        if (s.case_index == i) se = solve_stat(s.result, "states_expanded");
      }
      hda_ms = timed(hda, 2, he);
    } else if (workload == "oneshot-hda") {
      hda_ms = med_ms[i];
      for (const Solve& s : rounds.front()) {
        if (s.case_index == i) he = solve_stat(s.result, "states_expanded");
      }
      serial_ms = timed(serial, 1, se);
    } else {
      serial_ms = timed(serial, 1, se);
      hda_ms = timed(hda, 2, he);
    }
    serial_exp += static_cast<double>(se);
    hda_exp += static_cast<double>(he);
    speedups.push_back(serial_ms / hda_ms);
  }
  report.metric("hda.expanded_ratio", hda_exp / serial_exp, "ratio");
  report.metric("hda.speedup", geomean(speedups), "ratio");
}

void traced_run(const std::string& workload, const WorkloadDef& def,
                const PreparedSet& cases, const RunConfig& config, Rng& rng,
                SpanRecorder& spans, Report& report) {
  std::map<std::size_t, std::string> expanded;
  SpanRecorder off(false);
  const auto plain = run_rounds(def, cases, config.seconds / 2, rng, off, expanded, report);
  const auto traced = run_rounds(def, cases, config.seconds / 2, rng, spans, expanded, report);
  std::vector<double> plain_walls, traced_walls;
  for (const auto& r : plain) plain_walls.push_back(round_wall_s(r));
  for (const auto& r : traced) traced_walls.push_back(round_wall_s(r));
  report.metric("trace.overhead_share", median(traced_walls) / median(plain_walls) - 1.0, "share");

  pdb_share_probe(def, cases, spans, report);
  const std::vector<double> med_ms = case_medians(traced, cases.size());
  hda_probe(workload, cases, med_ms, traced, spans, report);

  // Per-layer probes over each case's own optimal (or certified) trace.
  const Solver& solver = SolverRegistry::instance().at(def.solver);
  std::vector<ProbeInput> inputs;
  std::vector<ServeCase> serve_cases;
  for (const auto& p : cases) {
    SolveResult r;
    {
      const Span span(spans, "solver.run", -1);
      r = solver.run(p->request);
    }
    ProbeInput in;
    in.engine = p->engine.get();
    in.trace = *r.trace;
    in.line = request_line("probe", p->instance.dag, p->def->red_limit,
                           p->def->model, def.solver, {},
                           p->def->budget_states, def.threads);
    inputs.push_back(std::move(in));
    ServeCase sc;
    sc.dag = &p->instance.dag;
    sc.red_limit = p->def->red_limit;
    sc.model = p->def->model;
    sc.solver = def.solver;
    sc.budget_states = p->def->budget_states;
    sc.budget_threads = def.threads;
    sc.reference_cost = p->def->reference;
    serve_cases.push_back(std::move(sc));
  }
  std::vector<double> modelled_ns;
  {
    const Span span(spans, "probe.engine_and_bounds");
    modelled_ns = probe_engine_and_bounds(inputs, report);
  }
  search_layer_metrics(cases, traced, modelled_ns, report);
  {
    const Span span(spans, "probe.serve_layers");
    probe_serve_layers(inputs, report);
  }
  probe_serve_path(serve_cases, rng, spans, report);
}

}  // namespace

bool is_search_workload(const std::string& name) {
  return name == "oneshot-exact" || name == "nodel-certify" ||
         name == "oneshot-hda";
}

void run_search_workload(const RunConfig& config, Report& report) {
  const WorkloadDef def = workload_def(config.workload);
  Rng rng(config.seed);
  SpanRecorder spans(config.trace);

  // Set-up is well under a millisecond here, so one pass would read at
  // clock resolution: repeat it and report the median pass.
  std::vector<double> setup_times;
  std::vector<double> resolve_ms;
  PreparedSet cases;
  const auto setup_start = Clock::now();
  while (setup_times.size() < 11 ||
         (seconds_since(setup_start) < 0.25 && setup_times.size() < 501)) {
    SpanRecorder off(false);
    const std::int64_t t0 = now_ns();
    cases = prepare(def, setup_times.empty() ? spans : off);
    setup_times.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    const std::int64_t t1 = now_ns();
    for (const CaseDef& c : def.cases) (void)instances::resolve_instance(c.spec);
    resolve_ms.push_back(static_cast<double>(now_ns() - t1) / 1e6 /
                         static_cast<double>(def.cases.size()));
  }
  report.note_number("setup_passes", static_cast<double>(setup_times.size()));

  if (!config.trace) {
    std::map<std::size_t, std::string> expanded;
    const auto rounds = run_rounds(def, cases, config.seconds, rng, spans, expanded, report);
    end_to_end_metrics(rounds, cases.size(), median(setup_times), report);
    return;
  }
  report.metric("instances.resolve_ms", median(resolve_ms), "ms");
  traced_run(config.workload, def, cases, config, rng, spans, report);
  write_spans(config, spans, report);
}

}  // namespace perfbench
