// Game-rule legality per model variant (paper, Sections 1 and 4).
#include "src/pebble/engine.hpp"

#include <gtest/gtest.h>

#include "src/graph/dag_builder.hpp"
#include "src/support/check.hpp"

namespace rbpeb {
namespace {

Dag edge_dag() {  // 0 -> 1
  DagBuilder b;
  b.add_nodes(2);
  b.add_edge(0, 1);
  return b.build();
}

class EngineAllModels : public ::testing::TestWithParam<std::size_t> {
 protected:
  const Model& model() const { return all_models()[GetParam()]; }
};

INSTANTIATE_TEST_SUITE_P(Models, EngineAllModels, ::testing::Range<std::size_t>(0, 4),
                         [](const auto& info) {
                           return std::string(all_models()[info.param].name());
                         });

TEST_P(EngineAllModels, ComputeSourceFromEmptyState) {
  Dag dag = edge_dag();
  Engine engine(dag, model(), 2);
  GameState state = engine.initial_state();
  EXPECT_TRUE(engine.is_legal(state, compute(0)));
  Cost cost;
  engine.apply(state, compute(0), cost);
  EXPECT_TRUE(state.is_red(0));
  EXPECT_TRUE(state.was_computed(0));
  EXPECT_EQ(cost.computes, 1);
  EXPECT_EQ(cost.transfers(), 0);
}

TEST_P(EngineAllModels, ComputeRequiresRedInputs) {
  Dag dag = edge_dag();
  Engine engine(dag, model(), 2);
  GameState state = engine.initial_state();
  EXPECT_FALSE(engine.is_legal(state, compute(1)));
  Cost cost;
  engine.apply(state, compute(0), cost);
  EXPECT_TRUE(engine.is_legal(state, compute(1)));
  engine.apply(state, store(0), cost);  // input now blue
  EXPECT_FALSE(engine.is_legal(state, compute(1)));
}

TEST_P(EngineAllModels, RedBudgetEnforced) {
  DagBuilder b;
  b.add_nodes(3);  // three independent sources
  Dag dag = b.build();
  Engine engine(dag, model(), 2);
  GameState state = engine.initial_state();
  Cost cost;
  engine.apply(state, compute(0), cost);
  engine.apply(state, compute(1), cost);
  EXPECT_FALSE(engine.is_legal(state, compute(2)));
  engine.apply(state, store(0), cost);
  EXPECT_TRUE(engine.is_legal(state, compute(2)));
  // Load also respects the budget.
  engine.apply(state, compute(2), cost);
  EXPECT_FALSE(engine.is_legal(state, load(0)));
}

TEST_P(EngineAllModels, StoreNeedsRedLoadNeedsBlue) {
  Dag dag = edge_dag();
  Engine engine(dag, model(), 2);
  GameState state = engine.initial_state();
  EXPECT_FALSE(engine.is_legal(state, store(0)));
  EXPECT_FALSE(engine.is_legal(state, load(0)));
  Cost cost;
  engine.apply(state, compute(0), cost);
  EXPECT_FALSE(engine.is_legal(state, load(0)));  // red, not blue
  engine.apply(state, store(0), cost);
  EXPECT_TRUE(state.is_blue(0));
  EXPECT_FALSE(engine.is_legal(state, store(0)));
  EXPECT_TRUE(engine.is_legal(state, load(0)));
  engine.apply(state, load(0), cost);
  EXPECT_TRUE(state.is_red(0));
  EXPECT_EQ(cost.loads, 1);
  EXPECT_EQ(cost.stores, 1);
}

TEST_P(EngineAllModels, ComputeOnRedNodeRejected) {
  Dag dag = edge_dag();
  Engine engine(dag, model(), 2);
  GameState state = engine.initial_state();
  Cost cost;
  engine.apply(state, compute(0), cost);
  EXPECT_FALSE(engine.is_legal(state, compute(0)));
}

TEST_P(EngineAllModels, ApplyIllegalMoveThrows) {
  Dag dag = edge_dag();
  Engine engine(dag, model(), 2);
  GameState state = engine.initial_state();
  Cost cost;
  EXPECT_THROW(engine.apply(state, store(0), cost), PreconditionError);
}

TEST_P(EngineAllModels, CompletionRequiresPebbledSinks) {
  Dag dag = edge_dag();
  Engine engine(dag, model(), 2);
  GameState state = engine.initial_state();
  Cost cost;
  EXPECT_FALSE(engine.is_complete(state));
  engine.apply(state, compute(0), cost);
  EXPECT_FALSE(engine.is_complete(state));  // 1 is the only sink
  engine.apply(state, compute(1), cost);
  EXPECT_TRUE(engine.is_complete(state));
  engine.apply(state, store(1), cost);  // blue pebble also counts
  EXPECT_TRUE(engine.is_complete(state));
}

TEST_P(EngineAllModels, MinimumBudgetEnforcedAtConstruction) {
  Dag dag = edge_dag();  // Δ = 1 -> R >= 2
  EXPECT_THROW(Engine(dag, model(), 1), PreconditionError);
  EXPECT_NO_THROW(Engine(dag, model(), 2));
}

// --- model-specific rules ---

TEST(EngineOneshot, SecondComputeRejected) {
  Dag dag = edge_dag();
  Engine engine(dag, Model::oneshot(), 2);
  GameState state = engine.initial_state();
  Cost cost;
  engine.apply(state, compute(0), cost);
  engine.apply(state, erase(0), cost);
  EXPECT_FALSE(engine.is_legal(state, compute(0)));
}

TEST(EngineBase, RecomputeAfterDeleteAllowed) {
  Dag dag = edge_dag();
  Engine engine(dag, Model::base(), 2);
  GameState state = engine.initial_state();
  Cost cost;
  engine.apply(state, compute(0), cost);
  engine.apply(state, erase(0), cost);
  EXPECT_TRUE(engine.is_legal(state, compute(0)));
}

TEST(EngineNodel, DeleteForbidden) {
  Dag dag = edge_dag();
  Engine engine(dag, Model::nodel(), 2);
  GameState state = engine.initial_state();
  Cost cost;
  engine.apply(state, compute(0), cost);
  EXPECT_FALSE(engine.is_legal(state, erase(0)));
}

TEST(EngineNodel, RecomputeReplacesBluePebble) {
  Dag dag = edge_dag();
  Engine engine(dag, Model::nodel(), 2);
  GameState state = engine.initial_state();
  Cost cost;
  engine.apply(state, compute(0), cost);
  engine.apply(state, store(0), cost);
  ASSERT_TRUE(state.is_blue(0));
  ASSERT_TRUE(engine.is_legal(state, compute(0)));
  engine.apply(state, compute(0), cost);
  EXPECT_TRUE(state.is_red(0));
  EXPECT_EQ(state.blue_count(), 0u);
  EXPECT_EQ(cost.computes, 2);
}

TEST(EngineDelete, RequiresAnyPebble) {
  Dag dag = edge_dag();
  Engine engine(dag, Model::base(), 2);
  GameState state = engine.initial_state();
  Cost cost;
  EXPECT_FALSE(engine.is_legal(state, erase(0)));
  engine.apply(state, compute(0), cost);
  engine.apply(state, store(0), cost);
  EXPECT_TRUE(engine.is_legal(state, erase(0)));  // blue pebbles deletable
  engine.apply(state, erase(0), cost);
  EXPECT_TRUE(state.is_empty(0));
  EXPECT_EQ(cost.deletes, 1);
}

// is_legal is the string-free verdict; why_illegal formats the same verdict
// into the reasons the Verifier, apply and the CLI have always printed.
TEST(EngineReasons, EveryRejectionKeepsItsMessage) {
  DagBuilder b;  // 0 -> 1, plus an isolated node 2
  b.add_nodes(3);
  b.add_edge(0, 1);
  Dag dag = b.build();
  Cost cost;
  auto expect_reason = [](const Engine& engine, const GameState& state,
                          const Move& move, const std::string& reason) {
    EXPECT_FALSE(engine.is_legal(state, move)) << to_string(move);
    EXPECT_EQ(engine.why_illegal(state, move), reason) << to_string(move);
  };

  Engine base(dag, Model::base(), 2);
  GameState state = base.initial_state();
  expect_reason(base, state, load(5), "node id out of range");
  expect_reason(base, state, load(0), "load requires a blue pebble on the node");
  expect_reason(base, state, compute(1),
                "input node 0 does not hold a red pebble");
  expect_reason(base, state, erase(0), "delete requires a pebble on the node");
  base.apply(state, compute(2), cost);
  base.apply(state, store(2), cost);
  expect_reason(base, state, store(2), "store requires a red pebble on the node");
  base.apply(state, compute(0), cost);
  expect_reason(base, state, compute(0), "node already holds a red pebble");
  base.apply(state, compute(1), cost);  // two reds: the budget is full
  expect_reason(base, state, load(2), "red pebble budget exhausted");
  expect_reason(base, state, compute(2), "red pebble budget exhausted");
  try {
    base.apply(state, load(2), cost);
    ADD_FAILURE() << "illegal load applied";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "illegal move load(2): red pebble budget exhausted"),
              std::string::npos)
        << e.what();
  }

  Engine oneshot(dag, Model::oneshot(), 2);
  state = oneshot.initial_state();
  oneshot.apply(state, compute(0), cost);
  oneshot.apply(state, erase(0), cost);
  expect_reason(oneshot, state, compute(0),
                "oneshot: node was already computed once");

  Engine nodel(dag, Model::nodel(), 2);
  state = nodel.initial_state();
  nodel.apply(state, compute(0), cost);
  expect_reason(nodel, state, erase(0), "nodel: deletions are forbidden");

  Engine hong_kung(dag, Model::base(), 2, {.sources_start_blue = true});
  state = hong_kung.initial_state();
  expect_reason(hong_kung, state, compute(0),
                "sources are pre-loaded blue inputs and cannot be computed");
  EXPECT_TRUE(hong_kung.is_legal(state, load(0)));
  EXPECT_EQ(hong_kung.why_illegal(state, load(0)), std::nullopt);
}

TEST(EngineState, RedNodesAndCounters) {
  DagBuilder b;
  b.add_nodes(3);
  Dag dag = b.build();
  Engine engine(dag, Model::base(), 3);
  GameState state = engine.initial_state();
  Cost cost;
  engine.apply(state, compute(0), cost);
  engine.apply(state, compute(2), cost);
  engine.apply(state, store(2), cost);
  EXPECT_EQ(state.red_count(), 1u);
  EXPECT_EQ(state.blue_count(), 1u);
  EXPECT_EQ(state.red_nodes(), std::vector<NodeId>({0}));
}

TEST(EngineMoves, ToStringRendering) {
  EXPECT_EQ(to_string(load(7)), "load(7)");
  EXPECT_EQ(to_string(store(1)), "store(1)");
  EXPECT_EQ(to_string(compute(0)), "compute(0)");
  EXPECT_EQ(to_string(erase(9)), "delete(9)");
}

}  // namespace
}  // namespace rbpeb
