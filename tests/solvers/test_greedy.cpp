#include "src/solvers/greedy.hpp"

#include <gtest/gtest.h>

#include "src/gadgets/transforms.hpp"
#include "src/graph/dag_builder.hpp"
#include "src/pebble/bounds.hpp"
#include "src/pebble/verifier.hpp"
#include "src/support/check.hpp"
#include "src/workloads/fft.hpp"
#include "src/workloads/matmul.hpp"
#include "src/workloads/pyramid.hpp"
#include "src/workloads/random_layered.hpp"
#include "src/workloads/tree_reduction.hpp"

namespace rbpeb {
namespace {

TEST(Greedy, ZeroCostOnChainWithEnoughPebbles) {
  DagBuilder b;
  b.add_nodes(10);
  for (NodeId v = 0; v + 1 < 10; ++v) b.add_edge(v, v + 1);
  Dag dag = b.build();
  Engine engine(dag, Model::oneshot(), 2);
  Trace trace = solve_greedy(engine);
  VerifyResult vr = verify_or_throw(engine, trace);
  EXPECT_EQ(vr.total, Rational(0));  // dead nodes deleted for free
}

TEST(Greedy, ComputesEveryNodeExactlyOnce) {
  Dag dag = make_random_layered_dag({.layers = 5, .width = 6, .indegree = 3,
                                     .seed = 4});
  Engine engine(dag, Model::oneshot(), min_red_pebbles(dag) + 1);
  Trace trace = solve_greedy(engine);
  std::vector<int> computes(dag.node_count(), 0);
  for (const Move& move : trace) {
    if (move.type == MoveType::Compute) ++computes[move.node];
  }
  for (int c : computes) EXPECT_EQ(c, 1);
  EXPECT_TRUE(verify(engine, trace).ok());
}

struct GreedyCase {
  GreedyRule rule;
  EvictionRule eviction;
};

class GreedyMatrix : public ::testing::TestWithParam<GreedyCase> {};

INSTANTIATE_TEST_SUITE_P(
    RulesByEviction, GreedyMatrix,
    ::testing::Values(
        GreedyCase{GreedyRule::MostRedInputs, EvictionRule::Lru},
        GreedyCase{GreedyRule::MostRedInputs, EvictionRule::FewestRemainingUses},
        GreedyCase{GreedyRule::MostRedInputs, EvictionRule::Random},
        GreedyCase{GreedyRule::FewestBlueInputs, EvictionRule::Lru},
        GreedyCase{GreedyRule::FewestBlueInputs, EvictionRule::FewestRemainingUses},
        GreedyCase{GreedyRule::RedRatio, EvictionRule::FewestRemainingUses},
        GreedyCase{GreedyRule::RedRatio, EvictionRule::Random}),
    [](const auto& info) {
      std::string name = std::string(to_string(info.param.rule)) + "_" +
                         to_string(info.param.eviction);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// Property: every rule/eviction combination yields a legal, complete
// pebbling within the universal cost bound, in every model.
TEST_P(GreedyMatrix, ValidAndBoundedOnWorkloads) {
  GreedyOptions options;
  options.rule = GetParam().rule;
  options.eviction = GetParam().eviction;

  std::vector<Dag> dags;
  dags.push_back(make_matmul_dag(3).dag);
  dags.push_back(make_fft_dag(8).dag);
  dags.push_back(make_tree_reduction_dag(13).dag);
  for (const Dag& dag : dags) {
    for (const Model& model : all_models()) {
      Engine engine(dag, model, min_red_pebbles(dag) + 2);
      Trace trace = solve_greedy(engine, options);
      VerifyResult vr = verify(engine, trace);
      ASSERT_TRUE(vr.ok()) << model.name() << ": " << vr.error;
      EXPECT_LE(vr.total, universal_cost_upper_bound(dag, model));
    }
  }
}

TEST(Greedy, MoreRedPebblesNeverHurtMuch) {
  // Not a theorem for greedy, but a sanity property on regular workloads:
  // doubling the cache should not increase the cost.
  Dag dag = make_matmul_dag(4).dag;
  Engine small(dag, Model::oneshot(), 3);
  Engine large(dag, Model::oneshot(), 12);
  Rational cost_small = verify_or_throw(small, solve_greedy(small)).total;
  Rational cost_large = verify_or_throw(large, solve_greedy(large)).total;
  EXPECT_LE(cost_large, cost_small);
}

TEST(Greedy, DeterministicForFixedSeed) {
  Dag dag = make_fft_dag(16).dag;
  GreedyOptions options;
  options.eviction = EvictionRule::Random;
  options.seed = 99;
  Engine engine(dag, Model::oneshot(), 4);
  Trace a = solve_greedy(engine, options);
  Trace b = solve_greedy(engine, options);
  EXPECT_EQ(a.moves(), b.moves());
}

TEST(Greedy, EagerDeleteDisabledStillValid) {
  // With eager deletion off, dead pebbles are only dropped when an eviction
  // actually needs the slot; the trace must stay valid and no more expensive
  // than the universal bound.
  Dag dag = make_tree_reduction_dag(9).dag;
  GreedyOptions options;
  options.eager_delete_dead = false;
  Engine engine(dag, Model::oneshot(), 3);
  Trace trace = solve_greedy(engine, options);
  VerifyResult vr = verify(engine, trace);
  EXPECT_TRUE(vr.ok()) << vr.error;
  EXPECT_LE(vr.total, universal_cost_upper_bound(dag, Model::oneshot()));
}

TEST(Greedy, SinksRetainPebbles) {
  Dag dag = make_fft_dag(8).dag;
  Engine engine(dag, Model::oneshot(), 3);
  VerifyResult vr = verify_or_throw(engine, solve_greedy(engine));
  for (NodeId sink : dag.sinks()) {
    EXPECT_FALSE(vr.final_state.is_empty(sink));
  }
}

/// Greedy computes sources, so a Hong–Kung engine (sources pre-loaded blue)
/// is refused before the run starts, with a message naming the bridge; the
/// bridge itself turns the default-convention trace into a legal one.
TEST(Greedy, RejectsSourcesStartBlueUpFrontAndNamesTheBridge) {
  const Dag dag = make_pyramid_dag(4).dag;
  PebblingConvention convention;
  convention.sources_start_blue = true;
  const Engine strict(dag, Model::oneshot(), 3, convention);
  try {
    (void)solve_greedy(strict);
    FAIL() << "solve_greedy accepted a sources_start_blue engine";
  } catch (const PreconditionError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("sources_start_blue"), std::string::npos) << what;
    EXPECT_NE(what.find("load_blue_sources"), std::string::npos) << what;
  }

  const Engine relaxed(dag, Model::oneshot(), 3);
  const Trace bridged = load_blue_sources(dag, solve_greedy(relaxed));
  EXPECT_TRUE(verify(strict, bridged).ok());
}

TEST(GreedyRuleNames, Render) {
  EXPECT_STREQ(to_string(GreedyRule::MostRedInputs), "most-red-inputs");
  EXPECT_STREQ(to_string(GreedyRule::FewestBlueInputs), "fewest-blue-inputs");
  EXPECT_STREQ(to_string(GreedyRule::RedRatio), "red-ratio");
  EXPECT_STREQ(to_string(EvictionRule::Lru), "lru");
  EXPECT_STREQ(to_string(EvictionRule::FewestRemainingUses), "fewest-uses");
  EXPECT_STREQ(to_string(EvictionRule::Random), "random");
}

}  // namespace
}  // namespace rbpeb
