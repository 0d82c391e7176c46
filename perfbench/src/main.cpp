// perfbench — the rbpeb benchmark harness. One workload per process:
//
//   perfbench --workload W --seed N --seconds S --trace 0|1 [--out-dir D]
//   perfbench --references      (re-derive the oneshot reference optima)
//
// The last stdout line is the result object: correct, attempted, failed and
// the metrics — end-to-end with --trace 0, per-layer with --trace 1. The
// exit code is 0 only when every answer checked out.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"
#include "src/instances/spec.hpp"
#include "src/pebble/bounds.hpp"

namespace {

/// Dijkstra `exact` on each oneshot case: the independent oracle behind the
/// committed references. Slow (minutes); not part of a benchmark run.
int print_references() {
  const char* specs[] = {"pyramid:base=5", "tree:leaves=8",
                         "layered:layers=4,width=4,indegree=2,seed=1",
                         "stencil:width=3,steps=6", "stencil:width=4,steps=4"};
  for (const char* spec : specs) {
    const auto instance = rbpeb::instances::resolve_instance(spec);
    const rbpeb::Engine engine(instance.dag, rbpeb::Model::oneshot(),
                               rbpeb::min_red_pebbles(instance.dag));
    rbpeb::SolveRequest request;
    request.engine = &engine;
    request.budget.max_states = std::size_t{1} << 40;
    const auto r = rbpeb::SolverRegistry::instance().at("exact").run(request);
    std::printf("%s R=%zu %s cost %s\n", spec, engine.red_limit(),
                rbpeb::to_string(r.status), r.cost.str().c_str());
  }
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload W --seed N --seconds S --trace 0|1 "
               "[--out-dir D]\n       perfbench --references\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--references") return print_references();
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      config.workload = value;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      config.trace = value == "1";
    } else if (arg == "--out-dir") {
      config.out_dir = value;
    } else {
      return usage();
    }
  }
  if (!(config.seconds > 0)) return usage();
  if (!perfbench::is_search_workload(config.workload) &&
      config.workload != "serve-zipf") {
    std::fprintf(stderr, "unknown workload '%s'\n", config.workload.c_str());
    return usage();
  }

  perfbench::Report report(config);
  try {
    if (config.workload == "serve-zipf") {
      perfbench::run_serve_workload(config, report);
    } else {
      perfbench::run_search_workload(config, report);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  report.emit();
  return report.correct() ? 0 : 3;
}
