// serve-zipf: open-loop traffic from one generator thread into a
// two-worker serve::Server. Most requests are fresh random relabellings of
// a pre-warmed hot set drawn Zipf(1.1), so parse, canonicalize, cache
// remapping and the Verifier audit do the work; a fixed share are
// never-seen small instances that exact-astar solves cold.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <unordered_set>

#include "openloop.hpp"
#include "stats.hpp"
#include "workloads.hpp"
#include "src/graph/dag_builder.hpp"
#include "src/instances/spec.hpp"
#include "src/obs/introspect.hpp"
#include "src/pebble/bounds.hpp"
#include "src/pebble/trace_io.hpp"
#include "src/pebble/verifier.hpp"
#include "src/serve/protocol.hpp"

namespace perfbench {

using namespace rbpeb;
using serve::ResponseMessage;

namespace {

struct HotDef {
  const char* spec;
  const char* model;
};

// 40–300 nodes, from generators and from corpus/ text and .rbg files. The
// list order is the Zipf rank (first = hottest) and is fixed, so which
// instances are hot does not depend on the seed. Ranks follow the measured
// hit cost, cheapest first: the pooled median then sits inside the dense
// cluster of cheap hits instead of at the gap above it, where a small shift
// in the tail would move it by half, and the costliest canonicalizations
// (the symmetric tree and FFT) make up the tail the p99 reads.
const std::vector<HotDef> kHotSet = {
    {"rbg:corpus/layered12x8.rbg", "oneshot"},
    {"layered:layers=10,width=4,indegree=2,seed=5", "oneshot"},
    {"stencil:width=8,steps=8", "nodel"},
    {"text:corpus/skew8x4.txt", "nodel"},
    {"pyramid:base=12", "oneshot"},
    {"layered:layers=20,width=6,indegree=2,seed=7", "nodel"},
    {"text:corpus/vertexcover4.txt", "oneshot"},
    {"fft:size=16", "nodel"},
    {"layered:layers=30,width=10,indegree=3,seed=9", "oneshot"},
    {"text:corpus/wide64.txt", "oneshot"},
    {"tree:leaves=64", "nodel"},
    {"fft:size=32", "oneshot"},
};
constexpr const char* kHotSolver = "certified-greedy";
constexpr const char* kMissSolver = "exact-astar";
constexpr double kZipfExponent = 1.1;
constexpr double kMissShare = 0.07;
constexpr std::size_t kMissNodes = 9;
/// Nominal offered rate for the latency metrics, well below the capacity
/// the ladder finds, and the share of --seconds it runs for.
constexpr double kNominalRate = 200.0;
constexpr double kNominalShare = 0.5;
/// p99 latency limit (from due time) a ladder rung must meet: far above
/// the cold-solve tail (a few ms), so queueing near saturation, where
/// latency climbs steeply, decides which rungs pass.
constexpr double kLatencyLimitS = 0.050;
constexpr std::size_t kRungRequests = 1200;
constexpr std::size_t kBurstRequests = 1000;
constexpr int kBursts = 5;
/// Ladder searches; after the first, each bisects only ±8 rungs around the
/// first result. max_rate_rps is their median.
constexpr int kLadderSearches = 3;
constexpr int kLadderWindow = 8;
constexpr int kSetupPasses = 5;
/// Misses whose optimum is re-derived by the Dijkstra `exact` oracle.
constexpr int kOracleChecks = 6;

serve::ServerOptions server_options() {
  serve::ServerOptions o;
  o.workers = 2;
  o.solver_threads = 1;
  o.cache_bytes = std::size_t{1} << 30;  // holds the whole hot set
  o.max_queue = std::size_t{1} << 20;    // overload shows as latency
  o.default_solver = kMissSolver;
  return o;
}

struct HotItem {
  instances::ResolvedInstance instance;
  std::string model;
  std::size_t red_limit = 0;
  ResponseMessage cold;        ///< the run's cold answer
  std::string cold_canonical;  ///< its trace in canonical positions
};

/// What the generator sent, so every answer can be checked afterwards.
struct Sent {
  int hot = -1;  ///< hot-set index, or -1 for a cold miss
  std::uint64_t perm_seed = 0;
  std::shared_ptr<const Dag> miss;
};

struct Phase {
  std::vector<std::string> lines;
  std::vector<Sent> sent;
};

/// A random DAG on kMissNodes nodes, indegree ≤ 2 (so R = 3 suffices).
Dag random_small_dag(Rng& rng) {
  DagBuilder builder;
  builder.add_nodes(kMissNodes);
  for (NodeId v = 2; v < kMissNodes; ++v) {
    const NodeId a = static_cast<NodeId>(rng() % v);
    builder.add_edge(a, v);
    if (rng() % 3 != 0) {
      NodeId b = static_cast<NodeId>(rng() % (v - 1));
      if (b >= a) ++b;
      builder.add_edge(b, v);
    }
  }
  return builder.build();
}

class Generator {
 public:
  Generator(const std::vector<HotItem>& hot, Rng& rng) : hot_(hot), rng_(rng) {
    double total = 0;
    for (std::size_t k = 1; k <= hot.size(); ++k) {
      total += std::pow(static_cast<double>(k), -kZipfExponent);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
    for (const HotItem& h : hot) {
      seen_.insert(serve::canonicalize(h.instance.dag).dag_hash);
    }
  }

  Phase make(std::size_t count, const std::string& tag) {
    Phase phase;
    for (std::size_t i = 0; i < count; ++i) {
      const std::string id = tag + "-" + std::to_string(i);
      Sent s;
      if (std::uniform_real_distribution<double>(0, 1)(rng_) < kMissShare) {
        s.miss = std::make_shared<const Dag>(fresh_miss());
        phase.lines.push_back(request_line(id, *s.miss, 3, "oneshot", kMissSolver));
      } else {
        const double u = std::uniform_real_distribution<double>(0, 1)(rng_);
        s.hot = static_cast<int>(std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
        s.hot = std::min(s.hot, static_cast<int>(hot_.size()) - 1);
        s.perm_seed = rng_();
        const HotItem& h = hot_[static_cast<std::size_t>(s.hot)];
        phase.lines.push_back(request_line(id, relabelled(h, s.perm_seed),
                                           h.red_limit, h.model, kHotSolver));
      }
      phase.sent.push_back(std::move(s));
    }
    return phase;
  }

  static Dag relabelled(const HotItem& h, std::uint64_t perm_seed) {
    Rng perm_rng(perm_seed);
    return relabel(h.instance.dag,
                   random_permutation(h.instance.dag.node_count(), perm_rng));
  }

 private:
  /// A small instance no earlier request (hot or miss) is isomorphic to,
  /// as far as the serve tier's own canonical hash can tell.
  Dag fresh_miss() {
    for (;;) {
      Dag dag = random_small_dag(rng_);
      if (seen_.insert(serve::canonicalize(dag).dag_hash).second) return dag;
    }
  }

  const std::vector<HotItem>& hot_;
  Rng& rng_;
  std::vector<double> cdf_;
  std::unordered_set<std::uint64_t> seen_;
};

/// Everything before the first timed request: resolve the hot set, start
/// the server, and pre-warm its cache with one cold solve per hot item. The
/// cold answers must equal a direct registry solve byte for byte, and any
/// certificate must hold.
std::unique_ptr<serve::Server> set_up(std::vector<HotItem>& hot,
                                      SpanRecorder& spans, Report* report) {
  hot.clear();
  for (std::size_t i = 0; i < kHotSet.size(); ++i) {
    HotItem h;
    {
      const Span span(spans, "instances.resolve_instance", static_cast<std::int64_t>(i));
      h.instance = instances::resolve_instance(kHotSet[i].spec);
    }
    h.model = kHotSet[i].model;
    h.red_limit = min_red_pebbles(h.instance.dag);
    hot.push_back(std::move(h));
  }
  auto server = start_server(server_options());
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < hot.size(); ++i) {
    lines.push_back(request_line("warm-" + std::to_string(i), hot[i].instance.dag,
                                 hot[i].red_limit, hot[i].model, kHotSolver));
  }
  SpanRecorder off(false);
  const auto outcomes = run_open_loop(*server, lines, 0.0, off);
  for (std::size_t i = 0; i < hot.size(); ++i) {
    HotItem& h = hot[i];
    h.cold = outcomes[i].response;
    h.cold_canonical = canonical_trace_text(trace_from_text(h.cold.trace_text),
                                            serve::canonicalize(h.instance.dag));
    if (report == nullptr) continue;
    const Engine engine(h.instance.dag, solver_options::parse_model(h.model), h.red_limit);
    SolveRequest request;
    request.engine = &engine;
    const SolveResult direct = SolverRegistry::instance().at(kHotSolver).run(request);
    // certified-greedy proves a certificate only where the model has a
    // nonzero lower bound (nodel); the oneshot answers carry none.
    std::string differs;
    if (!direct.has_trace()) differs += " trace";
    if (direct.certificate && !certificate_holds(*direct.certificate, direct.cost)) {
      differs += " certificate";
    }
    if (h.cold.cache != "miss" ||
        h.cold.status != (direct.status == SolveStatus::Optimal ? "optimal" : "heuristic")) {
      differs += " status";
    }
    if (h.cold.cost != direct.cost.str()) differs += " cost";
    if (h.cold.epsilon != (direct.certificate ? direct.certificate->epsilon.str() : "") ||
        h.cold.lower_bound != (direct.certificate ? direct.certificate->lower_bound.str() : "")) {
      differs += " certificate";
    }
    if (direct.has_trace() && h.cold.trace_text != trace_to_text(*direct.trace)) {
      differs += " trace";
    }
    report->operation(differs.empty(), std::string(kHotSet[i].spec) +
                                           ": cold serve answer differs from a "
                                           "direct solve in" + differs);
  }
  return server;
}

/// Check one answer against what was sent. Every trace is re-audited under
/// the request's own engine; a hot answer must be the run's cold answer
/// byte for byte once both are written in canonical positions; a miss must
/// be proven optimal, and the first few are re-derived by the Dijkstra
/// oracle. Returns the failure, or "" when the answer is right.
std::string check_answer(const std::vector<HotItem>& hot, const Sent& sent,
                         const ResponseMessage& r, int& oracle_budget) {
  if (r.status != "heuristic" && r.status != "optimal") {
    return r.id + ": status " + r.status + " " + r.detail;
  }
  const Dag dag = sent.hot >= 0
                      ? Generator::relabelled(hot[static_cast<std::size_t>(sent.hot)],
                                              sent.perm_seed)
                      : Dag(*sent.miss);
  const HotItem* h = sent.hot >= 0 ? &hot[static_cast<std::size_t>(sent.hot)] : nullptr;
  const Engine engine(dag, solver_options::parse_model(h ? h->model : "oneshot"),
                      h ? h->red_limit : 3);
  const Trace trace = trace_from_text(r.trace_text);
  const VerifyResult vr = verify(engine, trace);
  if (!vr.ok() || vr.total.str() != r.cost) return r.id + ": trace fails the re-audit";
  if (h != nullptr) {
    if (r.status != h->cold.status || r.cost != h->cold.cost ||
        r.epsilon != h->cold.epsilon || r.lower_bound != h->cold.lower_bound ||
        canonical_trace_text(trace, serve::canonicalize(dag)) != h->cold_canonical) {
      return r.id + ": answer differs from the cold answer (cache " + r.cache + ")";
    }
    return "";
  }
  if (r.status != "optimal") return r.id + ": miss not proven optimal";
  if (oracle_budget > 0) {
    --oracle_budget;
    SolveRequest request;
    request.engine = &engine;
    const SolveResult oracle = SolverRegistry::instance().at("exact").run(request);
    if (!oracle.ok() || oracle.cost.str() != r.cost) {
      return r.id + ": cost " + r.cost + " vs Dijkstra oracle " + oracle.cost.str();
    }
  }
  return "";
}

/// Run one phase and check every answer; failed answers count as missing
/// any latency limit.
std::vector<LoopOutcome> run_phase(serve::Server& server, const Phase& phase,
                                   double rate, const std::vector<HotItem>& hot,
                                   int& oracle_budget, SpanRecorder& spans,
                                   Report& report) {
  std::vector<LoopOutcome> outcomes = run_open_loop(server, phase.lines, rate, spans);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const std::string failure =
        check_answer(hot, phase.sent[i], outcomes[i].response, oracle_budget);
    outcomes[i].sample.ok = failure.empty();
    report.operation(failure.empty(), failure);
  }
  return outcomes;
}

std::vector<double> latencies_ms(const std::vector<LoopOutcome>& outcomes) {
  std::vector<double> out;
  for (const LoopOutcome& o : outcomes) out.push_back(latency_from_due(o.sample) * 1e3);
  return out;
}

std::string percentile_basis(const std::optional<TailPercentile>& p) {
  if (!p) return "null";
  return "{\"quantile\": " + json_number(p->quantile) +
         ", \"samples\": " + std::to_string(p->samples) +
         ", \"beyond\": " + std::to_string(p->beyond) + "}";
}

/// Per-layer metrics of one traced nominal phase.
void serve_layer_metrics(serve::Server& server, const Phase& phase,
                         const std::vector<LoopOutcome>& outcomes,
                         const std::vector<HotItem>& hot, Rng& rng,
                         SpanRecorder& spans, Report& report) {
  std::size_t hits = 0, flights = 0, shed = 0;
  std::vector<double> miss_ms, lag_ms;
  for (const LoopOutcome& o : outcomes) {
    hits += o.response.cache == "hit";
    flights += o.response.cache == "flight";
    shed += o.response.status == "rejected";
    if (o.response.cache == "miss") miss_ms.push_back(static_cast<double>(o.response.solve_us) / 1e3);
    lag_ms.push_back(lateness(o.sample) * 1e3);
  }
  const double n = static_cast<double>(outcomes.size());
  report.metric("serve.queue_wait_us",
                snapshot_histogram(server.metrics_snapshot_json(), "queue_us", "p50"), "us");
  report.metric("serve.miss_solve_ms", median(miss_ms), "ms");
  report.metric("serve.hit_share", static_cast<double>(hits) / n, "share");
  report.metric("serve.flight_share", static_cast<double>(flights) / n, "share");
  report.metric("serve.shed_share", static_cast<double>(shed) / n, "share");
  const auto lag = tail_percentile(lag_ms, 0.99);
  report.metric("gen.lag_ms", lag ? lag->value : *std::max_element(lag_ms.begin(), lag_ms.end()), "ms");
  report.note("gen.lag_ms_basis", percentile_basis(lag));

  // Serve-layer probes over the first 64 requests as sent (hits and misses
  // in their traffic proportions).
  std::vector<std::unique_ptr<Dag>> dags;
  std::vector<std::unique_ptr<Engine>> engines;
  std::vector<ProbeInput> sample;
  std::vector<const Dag*> miss_dags;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const Sent& s = phase.sent[i];
    if (s.hot < 0) miss_dags.push_back(s.miss.get());
    if (sample.size() >= 64) continue;
    const HotItem* h = s.hot >= 0 ? &hot[static_cast<std::size_t>(s.hot)] : nullptr;
    dags.push_back(std::make_unique<Dag>(h ? Generator::relabelled(*h, s.perm_seed) : *s.miss));
    engines.push_back(std::make_unique<Engine>(
        *dags.back(), solver_options::parse_model(h ? h->model : "oneshot"),
        h ? h->red_limit : 3));
    sample.push_back({engines.back().get(), trace_from_text(outcomes[i].response.trace_text),
                      phase.lines[i]});
  }
  {
    const Span span(spans, "probe.serve_layers");
    probe_serve_layers(sample, report);
  }
  // The search serve-zipf does: exact-astar on its cold misses, re-run
  // directly (serial, then hda-astar at two workers, then attributed). The
  // engine and bound probes replay these same solves, so the computed
  // search.other_ns_per_expansion compares like with like.
  const Solver& serial = SolverRegistry::instance().at(kMissSolver);
  const Solver& hda = SolverRegistry::instance().at("hda-astar");
  std::shuffle(miss_dags.begin(), miss_dags.end(), rng);
  miss_dags.resize(std::min<std::size_t>(miss_dags.size(), 32));
  std::vector<SolveResult> serial_results;
  std::vector<ProbeInput> replays;
  std::vector<double> serial_ms, speedups;
  double hda_expanded = 0, serial_expanded = 0, attr_counting = 0, attr_pdb = 0;
  for (const Dag* dag : miss_dags) {
    engines.push_back(std::make_unique<Engine>(*dag, Model::oneshot(), 3));
    SolveRequest request;
    request.engine = engines.back().get();
    request.budget.threads = 1;
    std::int64_t t0 = now_ns();
    {
      const Span span(spans, "solver.run.serial");
      serial_results.push_back(serial.run(request));
    }
    serial_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    request.budget.threads = 2;
    t0 = now_ns();
    SolveResult h;
    {
      const Span span(spans, "solver.run.hda");
      h = hda.run(request);
    }
    speedups.push_back(serial_ms.back() / (static_cast<double>(now_ns() - t0) / 1e6));
    report.operation(serial_results.back().ok() && h.ok() &&
                         h.cost == serial_results.back().cost,
                     "miss re-solve: hda and exact-astar disagree");
    hda_expanded += static_cast<double>(solve_stat(h, "states_expanded"));
    serial_expanded += static_cast<double>(solve_stat(serial_results.back(), "states_expanded"));
    obs::SearchProgressSampler sampler({});
    request.budget.threads = 1;
    request.progress = &sampler;
    const SolveResult attributed = serial.run(request);
    attr_counting += static_cast<double>(solve_stat(attributed, "attr_counting"));
    attr_pdb += static_cast<double>(solve_stat(attributed, "attr_pdb"));
    replays.push_back({engines.back().get(),
                       serial_results.back().trace.value_or(Trace{}), ""});
  }
  std::vector<double> modelled_ns;
  {
    const Span span(spans, "probe.engine_and_bounds");
    modelled_ns = probe_engine_and_bounds(replays, report);
  }
  std::vector<const SolveResult*> firsts;
  for (const SolveResult& r : serial_results) firsts.push_back(&r);
  search_counter_metrics(firsts, serial_ms, modelled_ns, report);
  report.metric("search.pdb_share",
                attr_counting + attr_pdb > 0 ? attr_pdb / (attr_counting + attr_pdb) : 0.0,
                "share");
  report.metric("hda.expanded_ratio", hda_expanded / serial_expanded, "ratio");
  report.metric("hda.speedup", geomean(speedups), "ratio");
}

}  // namespace

void run_serve_workload(const RunConfig& config, Report& report) {
  Rng rng(config.seed);
  SpanRecorder spans(config.trace);
  SpanRecorder off(false);

  std::vector<HotItem> hot;
  std::unique_ptr<serve::Server> server;
  std::vector<double> setup_s, resolve_ms;
  for (int pass = 0; pass < kSetupPasses; ++pass) {
    server.reset();  // the previous pass's server drains and joins here
    const std::int64_t t0 = now_ns();
    server = set_up(hot, pass == 0 ? spans : off,
                    pass + 1 == kSetupPasses ? &report : nullptr);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    const std::int64_t t1 = now_ns();
    for (const HotDef& def : kHotSet) (void)instances::resolve_instance(def.spec);
    resolve_ms.push_back(static_cast<double>(now_ns() - t1) / 1e6 /
                         static_cast<double>(kHotSet.size()));
  }
  Generator generator(hot, rng);
  int oracle_budget = kOracleChecks;
  report.note_number("nominal_rate_rps", kNominalRate);
  report.note_number("latency_limit_ms", kLatencyLimitS * 1e3);
  report.note_number("miss_share_target", kMissShare);

  if (config.trace) {
    report.metric("instances.resolve_ms", median(resolve_ms), "ms");
    const auto count = static_cast<std::size_t>(kNominalRate * config.seconds * kNominalShare / 2);
    const Phase plain_phase = generator.make(count, "plain");
    const auto plain = run_phase(*server, plain_phase, kNominalRate, hot, oracle_budget, off, report);
    const Phase traced_phase = generator.make(count, "traced");
    const auto traced = run_phase(*server, traced_phase, kNominalRate, hot, oracle_budget, spans, report);
    report.metric("trace.overhead_share",
                  median(latencies_ms(traced)) / median(latencies_ms(plain)) - 1.0, "share");
    serve_layer_metrics(*server, traced_phase, traced, hot, rng, spans, report);
    write_spans(config, spans, report);
    return;
  }

  // Nominal rate: latency at a fixed offered load.
  const Phase nominal_phase = generator.make(
      static_cast<std::size_t>(kNominalRate * config.seconds * kNominalShare), "nominal");
  const auto nominal = run_phase(*server, nominal_phase, kNominalRate, hot,
                                 oracle_budget, off, report);
  const std::vector<double> lat = latencies_ms(nominal);
  std::vector<std::vector<double>> per_item(hot.size());
  std::size_t hits = 0;
  for (std::size_t i = 0; i < nominal.size(); ++i) {
    const Sent& s = nominal_phase.sent[i];
    if (s.hot >= 0) per_item[static_cast<std::size_t>(s.hot)].push_back(lat[i]);
    hits += nominal[i].response.cache == "hit";
  }
  std::vector<double> item_medians;
  std::string item_counts = "[", item_ms = "[";
  for (const auto& v : per_item) {
    if (v.empty()) continue;
    item_medians.push_back(median(v));
    item_counts += (item_counts.size() > 1 ? "," : "") + std::to_string(v.size());
    item_ms += (item_ms.size() > 1 ? "," : "") + json_number(item_medians.back());
  }
  report.note("item_median_ms", item_ms + "]");
  const auto p99 = tail_percentile(lat, 0.99);

  // Batch replay: a burst of requests all due at once, drained.
  std::vector<double> drains;
  for (int b = 0; b < kBursts; ++b) {
    const Phase burst = generator.make(kBurstRequests, "burst" + std::to_string(b));
    const auto outcomes = run_phase(*server, burst, 0.0, hot, oracle_budget, off, report);
    double last = 0;
    for (const LoopOutcome& o : outcomes) last = std::max(last, o.sample.done);
    drains.push_back(last);
  }

  // Rate ladder: the highest rung whose p99 meets the limit with no
  // growing backlog.
  const std::vector<double> rungs = rate_ladder(100.0, 25600.0, std::pow(2.0, 1.0 / 16));
  std::string probed = "[";
  const auto probe = [&](double rate) {
    const Phase phase = generator.make(kRungRequests, "rung");
    const auto outcomes = run_phase(*server, phase, rate, hot, oracle_budget, off, report);
    std::vector<OpenLoopSample> samples;
    for (const LoopOutcome& o : outcomes) samples.push_back(o.sample);
    const RungVerdict v = judge_rung(samples, kLatencyLimitS);
    probed += (probed.size() > 1 ? "," : "") + std::string("{\"rate\": ") +
              json_number(rate) + ", \"pass\": " + (v.pass ? "true" : "false") +
              ", \"p99_ms\": " + json_number(v.p99 * 1e3) +
              ", \"drain_ms\": " + json_number(v.drain * 1e3) + "}";
    return v.pass;
  };
  // Below the lowest rung nothing was sustained; count that as half of it.
  const auto rate_at = [&](int rung) {
    return rung >= 0 ? rungs[static_cast<std::size_t>(rung)] : rungs[0] / 2;
  };
  const int first = ladder_search(rungs, probe);
  std::vector<double> max_rates{rate_at(first)};
  for (int k = 1; k < kLadderSearches; ++k) {
    const int lo = std::max(0, first - kLadderWindow);
    const int hi = std::min(static_cast<int>(rungs.size()), first + kLadderWindow + 1);
    const std::vector<double> window(rungs.begin() + lo, rungs.begin() + hi);
    const int found = ladder_search(window, probe);
    max_rates.push_back(found >= 0 ? window[static_cast<std::size_t>(found)] : rate_at(lo - 1));
  }

  report.metric("setup_s", median(setup_s), "s");
  report.metric("wall_s", median(drains), "s");
  report.metric("case_ms_geomean", geomean(item_medians), "ms");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  report.metric("ok_share",
                static_cast<double>(report.attempted() - report.failed()) /
                    static_cast<double>(report.attempted()),
                "share");
  report.metric("latency_p50_ms", median(lat), "ms");
  report.metric("latency_p99_ms", p99 ? p99->value : *std::max_element(lat.begin(), lat.end()), "ms");
  report.metric("max_rate_rps", median(max_rates), "1/s");
  report.note("latency_p99_ms_basis", percentile_basis(p99));
  report.note_number("latency_p50_ms_samples", static_cast<double>(lat.size()));
  report.note("case_ms_geomean_samples_per_item", item_counts + "]");
  report.note_number("nominal_hit_share", static_cast<double>(hits) / static_cast<double>(nominal.size()));
  report.note("ladder_probes", probed + "]");
  report.note_number("burst_requests", kBurstRequests);
  std::string drain_list = "[";
  for (const double d : drains) drain_list += (drain_list.size() > 1 ? "," : "") + json_number(d);
  report.note("burst_drains_s", drain_list + "]");
}

void probe_serve_path(const std::vector<ServeCase>& cases, Rng& rng,
                      SpanRecorder& spans, Report& report) {
  const std::unique_ptr<serve::Server> server = start_server(server_options());
  std::vector<std::string> lines;
  std::vector<Dag> copies;
  copies.reserve(cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const ServeCase& c = cases[i];
    copies.push_back(relabel(*c.dag, random_permutation(c.dag->node_count(), rng)));
    lines.push_back(request_line("cold-" + std::to_string(i), *c.dag, c.red_limit, c.model,
                                 c.solver, c.options, c.budget_states, c.budget_threads));
    lines.push_back(request_line("copy-" + std::to_string(i), copies.back(), c.red_limit,
                                 c.model, c.solver, c.options, c.budget_states,
                                 c.budget_threads));
  }
  const auto outcomes = run_open_loop(*server, lines, 0.0, spans, 1'000'000);
  std::size_t hits = 0, flights = 0, shed = 0;
  std::vector<double> miss_ms, lag_ms;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const ServeCase& c = cases[i / 2];
    const ResponseMessage& r = outcomes[i].response;
    const Dag& dag = i % 2 == 0 ? *c.dag : copies[i / 2];
    const Engine engine(dag, solver_options::parse_model(c.model), c.red_limit);
    const Trace trace = trace_from_text(r.trace_text);
    const VerifyResult vr = verify(engine, trace);
    bool ok = vr.ok() && vr.total.str() == r.cost &&
              (c.reference_cost.empty() || r.cost == c.reference_cost);
    if (i % 2 == 1) {
      const ResponseMessage& cold = outcomes[i - 1].response;
      ok = ok && r.cost == cold.cost &&
           canonical_trace_text(trace, serve::canonicalize(dag)) ==
               canonical_trace_text(trace_from_text(cold.trace_text),
                                    serve::canonicalize(*c.dag));
    }
    report.operation(ok, r.id + ": serve-path answer wrong (cache " + r.cache + ")");
    hits += r.cache == "hit";
    flights += r.cache == "flight";
    shed += r.status == "rejected";
    if (r.cache == "miss") miss_ms.push_back(static_cast<double>(r.solve_us) / 1e3);
    lag_ms.push_back(lateness(outcomes[i].sample) * 1e3);
  }
  const double n = static_cast<double>(outcomes.size());
  report.metric("serve.queue_wait_us",
                snapshot_histogram(server->metrics_snapshot_json(), "queue_us", "p50"), "us");
  report.metric("serve.miss_solve_ms", median(miss_ms), "ms");
  report.metric("serve.hit_share", static_cast<double>(hits) / n, "share");
  report.metric("serve.flight_share", static_cast<double>(flights) / n, "share");
  report.metric("serve.shed_share", static_cast<double>(shed) / n, "share");
  report.metric("gen.lag_ms", *std::max_element(lag_ms.begin(), lag_ms.end()), "ms");
}

void write_spans(const RunConfig& config, const SpanRecorder& spans,
                 Report& report) {
  std::string table = "{";
  for (const auto& [name, t] : spans.totals()) {
    table += (table.size() > 1 ? ", " : "") + json_string(name) +
             ": {\"count\": " + std::to_string(t.count) +
             ", \"total_ms\": " + json_number(t.total_ms) +
             ", \"self_ms\": " + json_number(t.self_ms) + "}";
    std::printf("span %-28s count %8zu  total %12.3f ms  self %12.3f ms\n",
                name.c_str(), t.count, t.total_ms, t.self_ms);
  }
  report.note("span_self_time", table + "}");
  if (config.out_dir.empty()) return;
  std::filesystem::create_directories(config.out_dir);
  const std::string path = config.out_dir + "/" + config.workload + "-seed" +
                           std::to_string(config.seed) + "-spans.json";
  std::ofstream(path) << spans.chrome_json();
  report.note_string("span_file", path);
}

}  // namespace perfbench
