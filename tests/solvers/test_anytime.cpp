// The anytime tier: weighted-A* passes must converge to the proven optimum
// when the budget allows, must return a verified incumbent with a sound
// machine-checkable certificate when it does not, and must carry that
// certificate intact through the solver registry — including on instances
// far past what exact search can finish.
#include "src/solvers/anytime_astar.hpp"

#include <gtest/gtest.h>

#include "src/graph/dag_builder.hpp"
#include "src/instances/spec.hpp"
#include "src/pebble/bounds.hpp"
#include "src/pebble/trace_io.hpp"
#include "src/pebble/verifier.hpp"
#include "src/solvers/api.hpp"
#include "src/solvers/exact_astar.hpp"
#include "src/solvers/greedy.hpp"
#include "src/support/check.hpp"
#include "src/workloads/chain.hpp"
#include "src/workloads/random_layered.hpp"
#include "src/workloads/stencil.hpp"

namespace rbpeb {
namespace {

/// A verified greedy pebbling as an IncumbentSeed (cost in scaled units).
/// solve_greedy refuses `sources_start_blue` engines (PreconditionError), so
/// this helper only seeds default-start-convention engines; a Hong–Kung
/// seed would go through load_blue_sources, as the registry does.
IncumbentSeed greedy_seed(const Engine& engine) {
  Trace trace = solve_greedy(engine);
  const Rational cost = verify_or_throw(engine, trace).total;
  const Rational scaled = cost * Rational(engine.model().epsilon().den());
  RBPEB_ENSURE(scaled.den() == 1, "seed cost must be integral in scaled units");
  return IncumbentSeed{std::move(trace), scaled.num()};
}

// ---- convergence: full budget ⇒ a proof ----------------------------------

/// With the budget to finish, every pass schedule ends in epsilon == 0 and
/// the exact-astar optimum, on every model.
TEST(AnytimeAstar, FullBudgetProvesTheOptimumOnEveryModel) {
  Dag dag = make_random_layered_dag({.layers = 4, .width = 3, .indegree = 2,
                                     .seed = 61});  // 12 nodes
  for (const Model& model : all_models()) {
    Engine engine(dag, model, min_red_pebbles(dag));
    ExactSearchOptions options;
    options.max_states = 4'000'000;
    auto exact = try_solve_exact_astar(engine, options);
    ASSERT_TRUE(exact.has_value()) << model.name();
    ExactSearchStats stats;
    auto anytime = try_solve_anytime_astar(engine, options, {}, &stats);
    ASSERT_TRUE(anytime.has_value()) << model.name();
    EXPECT_TRUE(anytime->optimal) << model.name();
    EXPECT_TRUE(anytime->certified) << model.name();
    EXPECT_EQ(anytime->epsilon, Rational(0)) << model.name();
    EXPECT_EQ(anytime->cost, exact->cost) << model.name();
    EXPECT_EQ(anytime->lower_bound, anytime->cost) << model.name();
    EXPECT_EQ(verify_or_throw(engine, anytime->trace).total, anytime->cost)
        << model.name();
    EXPECT_EQ(stats.termination, ExactTermination::Solved) << model.name();
    EXPECT_GE(stats.anytime_passes, 1u) << model.name();
  }
}

// ---- starved budgets ⇒ a certificate, never a lie ------------------------

/// A budget too small to prove anything still returns the seed with a sound
/// certificate: cost ≤ (1+ε)·L in exact rationals, and L at or below the
/// true optimum (computed independently).
TEST(AnytimeAstar, StarvedBudgetReturnsSoundCertificate) {
  Dag dag = make_random_layered_dag({.layers = 6, .width = 4, .indegree = 2,
                                     .seed = 62});  // 24 nodes
  Engine engine(dag, Model::nodel(), min_red_pebbles(dag));
  ExactSearchOptions exact_options;
  exact_options.max_states = 4'000'000;
  auto exact = try_solve_exact_astar(engine, exact_options);
  ASSERT_TRUE(exact.has_value());

  ExactSearchOptions options;
  options.max_states = 200;  // a few hundred expansions: no proof possible
  options.seed = greedy_seed(engine);
  ExactSearchStats stats;
  auto anytime = try_solve_anytime_astar(engine, options, {}, &stats);
  ASSERT_TRUE(anytime.has_value());
  EXPECT_EQ(verify_or_throw(engine, anytime->trace).total, anytime->cost);
  ASSERT_TRUE(anytime->certified);
  // The defining inequality, in exact arithmetic.
  EXPECT_LE(anytime->cost,
            (Rational(1) + anytime->epsilon) * anytime->lower_bound);
  // The witness really is a lower bound on the optimum.
  EXPECT_LE(anytime->lower_bound, exact->cost);
  // And the incumbent is the verified seed or something cheaper.
  EXPECT_LE(anytime->cost, Rational(options.seed->g_scaled,
                                    engine.model().epsilon().den()));
  if (!anytime->optimal) {
    EXPECT_LT(anytime->lower_bound, anytime->cost);
    EXPECT_LT(Rational(0), anytime->epsilon);
  }
}

/// Tightening budgets only ever tighten the guarantee: more states must
/// never yield a larger ε on the same instance and schedule.
TEST(AnytimeAstar, LargerBudgetsNeverLoosenEpsilon) {
  Dag dag = make_random_layered_dag({.layers = 6, .width = 4, .indegree = 2,
                                     .seed = 63});  // 24 nodes
  Engine engine(dag, Model::nodel(), min_red_pebbles(dag));
  std::optional<Rational> last_epsilon;
  for (std::size_t budget : {400u, 20'000u, 1'000'000u}) {
    ExactSearchOptions options;
    options.max_states = budget;
    options.seed = greedy_seed(engine);
    auto anytime = try_solve_anytime_astar(engine, options);
    ASSERT_TRUE(anytime.has_value()) << budget;
    ASSERT_TRUE(anytime->certified) << budget;
    if (last_epsilon.has_value()) {
      EXPECT_LE(anytime->epsilon, *last_epsilon) << budget;
    }
    last_epsilon = anytime->epsilon;
  }
}

// ---- the tier's reason to exist: instances exact search cannot touch -----

/// A 192-node instance — far past the fixed-width masks and any exact-solve
/// horizon — comes back with a verified trace and a machine-checked
/// certificate on the runtime-width path.
TEST(AnytimeAstar, CertifiesA192NodeInstance) {
  Dag dag = make_random_layered_dag({.layers = 24, .width = 8, .indegree = 2,
                                     .seed = 64});  // 192 nodes
  ASSERT_EQ(dag.node_count(), 192u);
  Engine engine(dag, Model::compcost(), min_red_pebbles(dag));
  ExactSearchOptions options;
  options.max_states = 30'000;
  options.seed = greedy_seed(engine);
  ExactSearchStats stats;
  auto anytime = try_solve_anytime_astar(engine, options, {}, &stats);
  ASSERT_TRUE(anytime.has_value());
  EXPECT_EQ(verify_or_throw(engine, anytime->trace).total, anytime->cost);
  ASSERT_TRUE(anytime->certified);
  EXPECT_LT(Rational(0), anytime->lower_bound);
  EXPECT_LE(anytime->lower_bound, anytime->cost);
  EXPECT_LE(anytime->cost,
            (Rational(1) + anytime->epsilon) * anytime->lower_bound);
  // The stats mirror the certificate in scaled units.
  const std::int64_t den = engine.model().epsilon().den();
  EXPECT_EQ(Rational(stats.lower_bound_scaled, den), anytime->lower_bound);
  EXPECT_EQ(Rational(stats.incumbent_scaled, den), anytime->cost);
}

/// The target-epsilon stopping rule ends the schedule early but the
/// certificate it returns is still exact and still audited.
TEST(AnytimeAstar, TargetEpsilonStopsEarlyWithAnExactCertificate) {
  Dag dag = make_chain_dag(64);
  Engine engine(dag, Model::oneshot(), 3);
  ExactSearchOptions options;
  options.max_states = 1'000'000;
  AnytimeOptions anytime_options;
  anytime_options.target_epsilon = 1e9;  // any certificate at all satisfies it
  auto anytime = try_solve_anytime_astar(engine, options, anytime_options);
  ASSERT_TRUE(anytime.has_value());
  if (anytime->certified) {
    EXPECT_LE(anytime->cost,
              (Rational(1) + anytime->epsilon) * anytime->lower_bound);
  }
}

/// Degenerate schedules are rejected loudly: weights below 1 would break
/// the Dial-queue integrality argument, not silently misbehave.
TEST(AnytimeAstar, RejectsWeightsBelowOne) {
  Dag dag = make_chain_dag(6);
  Engine engine(dag, Model::base(), 2);
  AnytimeOptions bad;
  bad.weights = {{1, 2}};
  EXPECT_THROW(try_solve_anytime_astar(engine, {}, bad), PreconditionError);
}

/// Weights past kMaxAnytimeWeight, or with numerators that could overflow
/// h·num, are refused before the pass allocates its ⌊w·ceiling⌋ + 1 buckets.
/// Every case here fails validation, so no pass ever starts.
TEST(AnytimeAstar, RejectsWeightsAboveTheCapBeforeAllocating) {
  Dag dag = make_chain_dag(6);
  Engine engine(dag, Model::base(), 2);
  for (const AnytimeWeight& w :
       {AnytimeWeight{kMaxAnytimeWeight + 1, 1},
        AnytimeWeight{2 * kMaxAnytimeWeight + 1, 2},
        AnytimeWeight{kMaxAnytimeWeightTerm, kMaxAnytimeWeightTerm}}) {
    AnytimeOptions bad;
    bad.weights = {{2, 1}, w, {1, 1}};
    try {
      (void)try_solve_anytime_astar(engine, {}, bad);
      FAIL() << "accepted weight " << w.num << "/" << w.den;
    } catch (const PreconditionError& error) {
      EXPECT_NE(std::string(error.what()).find("16"), std::string::npos)
          << error.what();
    }
  }
  // The cap itself, and a unit ratio with the largest numerator, are fine.
  AnytimeOptions edge;
  edge.weights = {{kMaxAnytimeWeight, 1},
                  {kMaxAnytimeWeightTerm - 1, kMaxAnytimeWeightTerm - 1}};
  EXPECT_TRUE(try_solve_anytime_astar(engine, {}, edge).has_value());
}

// ---- one pass core: exact-astar is the unit-weight pass -------------------

/// A one-pass {1} schedule without a seed is exact-astar: the same cost,
/// trace and counters on every model and state width, whether the pass
/// solves or is cut by the state budget.
TEST(AnytimeAstar, UnitWeightPassIsExactAstar) {
  struct Width {
    const char* name;
    bool force_var_state;
    bool force_mask_vec;
  };
  const Width widths[] = {
      {"default", false, false}, {"var", true, false}, {"vec", false, true}};
  AnytimeOptions unit;
  unit.weights = {{1, 1}};
  for (const char* spec :
       {"pyramid:base=4", "stencil:width=3,steps=3", "chain:n=12",
        "layered:layers=4,width=3,indegree=2,seed=61"}) {
    const Dag dag = instances::resolve_instance(spec).dag;
    for (const Model& model : all_models()) {
      Engine engine(dag, model, min_red_pebbles(dag) + 1);
      for (const Width& width : widths) {
        for (std::size_t budget : {400'000u, 300u}) {
          const std::string where = std::string(spec) + " " + model.name() +
                                    " " + width.name + " " +
                                    std::to_string(budget);
          ExactSearchOptions options;
          options.max_states = budget;
          options.force_var_state = width.force_var_state;
          options.force_mask_vec = width.force_mask_vec;
          ExactSearchStats exact_stats;
          ExactSearchStats pass_stats;
          const auto exact =
              try_solve_exact_astar(engine, options, &exact_stats);
          const auto pass =
              try_solve_anytime_astar(engine, options, unit, &pass_stats);
          ASSERT_EQ(exact.has_value(), pass.has_value()) << where;
          if (exact) {
            EXPECT_EQ(pass->cost, exact->cost) << where;
            EXPECT_TRUE(pass->optimal) << where;
            EXPECT_EQ(trace_to_text(pass->trace), trace_to_text(exact->trace))
                << where;
          }
          EXPECT_EQ(pass_stats.termination, exact_stats.termination) << where;
          EXPECT_EQ(pass_stats.states_expanded, exact_stats.states_expanded)
              << where;
          EXPECT_EQ(pass_stats.dup_skipped, exact_stats.dup_skipped) << where;
          EXPECT_EQ(pass_stats.dead_prunes, exact_stats.dead_prunes) << where;
          EXPECT_EQ(pass_stats.table_bytes, exact_stats.table_bytes) << where;
        }
      }
    }
  }
}

// ---- through the registry ------------------------------------------------

TEST(AnytimeSolver, RegisteredAndOptimalOnSmallInstancesWithCertificate) {
  const Solver* solver = SolverRegistry::instance().find("anytime-astar");
  ASSERT_NE(solver, nullptr);
  Dag dag = make_random_layered_dag({.layers = 4, .width = 3, .indegree = 2,
                                     .seed = 65});  // 12 nodes
  Engine engine(dag, Model::oneshot(), min_red_pebbles(dag));
  SolveRequest request;
  request.engine = &engine;
  request.budget.max_states = 4'000'000;
  SolveResult result = solver->run(request);
  ASSERT_EQ(result.status, SolveStatus::Optimal) << result.detail;
  ASSERT_TRUE(result.has_trace());
  ASSERT_TRUE(result.certificate.has_value());
  EXPECT_EQ(result.certificate->epsilon, Rational(0));
  EXPECT_EQ(result.certificate->cost, result.cost);
  EXPECT_TRUE(certificate_holds(*result.certificate, result.cost));
  EXPECT_EQ(result.stats.count("anytime_passes"), 1u);
}

/// Starved through the registry: the auto greedy seed guarantees an answer
/// (Heuristic, never BudgetExhausted) and the certificate survives the
/// result plumbing.
TEST(AnytimeSolver, StarvedRequestStillAnswersWithCertificate) {
  Dag dag = make_random_layered_dag({.layers = 10, .width = 6, .indegree = 3,
                                     .seed = 66});  // 60 nodes
  Engine engine(dag, Model::compcost(), min_red_pebbles(dag));
  SolveRequest request;
  request.engine = &engine;
  request.budget.max_states = 2'000;
  SolveResult result = SolverRegistry::instance().at("anytime-astar").run(request);
  ASSERT_TRUE(result.ok()) << result.detail;
  ASSERT_TRUE(result.has_trace());
  if (result.certificate.has_value()) {
    EXPECT_TRUE(certificate_holds(*result.certificate, result.cost));
  } else {
    EXPECT_EQ(result.stats.count("certified"), 1u);
  }
}

/// A memory-budget stop names its cause the way exact-astar's does: with
/// spilling off, the detail says so, and the limiting resource is memory.
TEST(AnytimeSolver, MemoryBudgetDetailNamesTheSpillCause) {
  const Dag dag =
      instances::resolve_instance("layered:layers=3,width=4,indegree=2,seed=6")
          .dag;
  Engine engine(dag, Model::oneshot(), 3);
  SolveRequest request;
  request.engine = &engine;
  request.budget.max_memory_bytes = 100'000;
  request.options["incumbent"] = "none";
  request.options["spill"] = "off";
  for (const char* name : {"exact-astar", "anytime-astar"}) {
    const SolveResult result = SolverRegistry::instance().at(name).run(request);
    ASSERT_EQ(result.status, SolveStatus::BudgetExhausted) << name;
    EXPECT_NE(result.detail.find("memory budget (100000 bytes) exhausted"),
              std::string::npos)
        << name << ": " << result.detail;
    EXPECT_NE(result.detail.find("spilling to disk was disabled (spill=off)"),
              std::string::npos)
        << name << ": " << result.detail;
    EXPECT_EQ(result.stats.at("limiting_resource"), "memory") << name;
  }
}

/// The weights/epsilon options parse exactly and bad values are refused
/// with the offending token named.
TEST(AnytimeSolver, WeightScheduleOptionsParseAndValidate) {
  Dag dag = make_chain_dag(8);
  Engine engine(dag, Model::base(), 2);
  SolveRequest request;
  request.engine = &engine;
  request.budget.max_states = 100'000;
  request.options["weights"] = "4,5/2,1";
  request.options["epsilon"] = "0.25";
  const Solver& solver = SolverRegistry::instance().at("anytime-astar");
  SolveResult result = solver.run(request);
  EXPECT_TRUE(result.ok()) << result.detail;

  for (const char* bad : {"0", "1/2", "2/0", "x", "", "17", "33/2",
                          "100000000", "4294967296/4294967296",
                          "9223372036854775807/2"}) {
    request.options["weights"] = bad;
    EXPECT_THROW(solver.run(request), PreconditionError) << bad;
  }
  request.options["weights"] = "16,4294967295/4294967295";
  EXPECT_TRUE(solver.run(request).ok());
  request.options["weights"] = "2,1";
  request.options["epsilon"] = "-1";
  EXPECT_THROW(solver.run(request), PreconditionError);
}

}  // namespace
}  // namespace rbpeb
