// The standard (black) pebble game companion model.
#include "src/blackpebble/black_engine.hpp"

#include <gtest/gtest.h>

#include "src/graph/dag_builder.hpp"
#include "src/support/check.hpp"
#include "src/workloads/pyramid.hpp"
#include "src/workloads/tree_reduction.hpp"

namespace rbpeb {
namespace {

Dag chain(std::size_t n) {
  DagBuilder b;
  b.add_nodes(n);
  for (NodeId v = 0; v + 1 < n; ++v) b.add_edge(v, v + 1);
  return b.build();
}

TEST(BlackEngine, PlacementRules) {
  Dag dag = chain(3);
  BlackEngine engine(dag, 2);
  BlackState state(dag.node_count());
  EXPECT_FALSE(engine.is_legal(state, black_place(1)));  // pred unpebbled
  engine.apply(state, black_place(0));
  EXPECT_TRUE(engine.is_legal(state, black_place(1)));
  engine.apply(state, black_place(1));
  EXPECT_FALSE(engine.is_legal(state, black_place(2)));  // budget (2) full
  engine.apply(state, black_remove(0));
  EXPECT_TRUE(engine.is_legal(state, black_place(2)));
  EXPECT_FALSE(engine.is_legal(state, black_place(1)));  // already pebbled
  EXPECT_FALSE(engine.is_legal(state, black_remove(0)));
  EXPECT_THROW(engine.apply(state, black_remove(0)), PreconditionError);
}

TEST(BlackEngine, VerdictAndReasonsAgree) {
  // is_legal is the string-free verdict; why_illegal formats the same one.
  Dag dag = chain(3);
  BlackEngine engine(dag, 2);
  BlackState state(dag.node_count());
  engine.apply(state, black_place(0));
  engine.apply(state, black_place(1));
  const std::pair<BlackMove, const char*> rejected[] = {
      {black_place(7), "node id out of range"},
      {black_remove(2), "no pebble to remove"},
      {black_place(1), "node already pebbled"},
      {black_place(2), "pebble budget exhausted"},
  };
  for (const auto& [move, reason] : rejected) {
    EXPECT_FALSE(engine.is_legal(state, move)) << to_string(move);
    EXPECT_EQ(engine.why_illegal(state, move), reason) << to_string(move);
  }
  engine.apply(state, black_remove(0));
  EXPECT_EQ(engine.why_illegal(state, black_place(1)), "node already pebbled");
  engine.apply(state, black_remove(1));
  EXPECT_FALSE(engine.is_legal(state, black_place(2)));
  EXPECT_EQ(engine.why_illegal(state, black_place(2)),
            "input node 1 is not pebbled");
  EXPECT_TRUE(engine.is_legal(state, black_place(0)));
  EXPECT_EQ(engine.why_illegal(state, black_place(0)), std::nullopt);
  try {
    engine.apply(state, black_remove(2));
    ADD_FAILURE() << "illegal remove applied";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "illegal move remove(2): no pebble to remove"),
              std::string::npos)
        << e.what();
  }
}

TEST(BlackVerify, AuditsPeakAndCompleteness) {
  Dag dag = chain(3);
  BlackEngine engine(dag, 2);
  std::vector<BlackMove> moves = {black_place(0), black_place(1),
                                  black_remove(0), black_place(2)};
  BlackVerifyResult vr = black_verify(engine, moves);
  EXPECT_TRUE(vr.ok()) << vr.error;
  EXPECT_EQ(vr.peak_pebbles, 2u);

  // Dropping the last placement leaves the sink unpebbled.
  moves.pop_back();
  EXPECT_FALSE(black_verify(engine, moves).complete);
}

TEST(BlackPebbling, ChainNeedsTwoPebbles) {
  Dag dag = chain(6);
  EXPECT_FALSE(black_pebblable_with(dag, 1));
  std::vector<BlackMove> witness;
  ASSERT_TRUE(black_pebblable_with(dag, 2, &witness));
  BlackEngine engine(dag, 2);
  EXPECT_TRUE(black_verify(engine, witness).ok());
  EXPECT_EQ(black_pebbling_number(dag), 2u);
}

TEST(BlackPebbling, PyramidNumbersMatchClassicResult) {
  // An r-base pyramid needs exactly r+1 pebbles — the classical fact the
  // paper's Section 3 alludes to when comparing gadget cost cliffs.
  for (std::size_t r : {2u, 3u, 4u}) {
    Dag dag = make_pyramid_dag(r).dag;
    EXPECT_EQ(black_pebbling_number(dag), r + 1) << "r=" << r;
    EXPECT_FALSE(black_pebblable_with(dag, r));
  }
}

TEST(BlackPebbling, BalancedTreeNeedsHeightPlusTwo) {
  // A binary reduction in-tree over 2^h leaves needs exactly h+2 pebbles:
  // while the second subtree result is being derived, the first result and
  // the in-flight chain occupy h+1 pebbles at the deepest moment.
  EXPECT_EQ(black_pebbling_number(make_tree_reduction_dag(4).dag), 4u);
  EXPECT_EQ(black_pebbling_number(make_tree_reduction_dag(8).dag), 5u);
}

TEST(BlackPebbling, WitnessRespectsTheBudget) {
  Dag dag = make_pyramid_dag(3).dag;
  std::vector<BlackMove> witness;
  ASSERT_TRUE(black_pebblable_with(dag, 4, &witness));
  BlackEngine engine(dag, 4);
  BlackVerifyResult vr = black_verify(engine, witness);
  EXPECT_TRUE(vr.ok()) << vr.error;
  EXPECT_LE(vr.peak_pebbles, 4u);
}

TEST(BlackPebbling, EdgelessAndEmptyDags) {
  DagBuilder empty;
  EXPECT_EQ(black_pebbling_number(empty.build()), 0u);
  DagBuilder b;
  b.add_nodes(3);
  Dag dag = b.build();
  // Three independent sinks; one pebble can visit them one at a time.
  EXPECT_EQ(black_pebbling_number(dag), 1u);
}

TEST(BlackPebbling, PebblingNumberAtLeastRedBlueMinimum) {
  // Black pebbling needs at least Δ+1 — the same floor as red-blue R.
  Dag dag = make_pyramid_dag(4).dag;
  EXPECT_GE(black_pebbling_number(dag), dag.max_indegree() + 1);
}

TEST(BlackPebbling, RejectsOversizedDag) {
  DagBuilder b;
  b.add_nodes(21);
  Dag dag = b.build();
  EXPECT_THROW(black_pebblable_with(dag, 3), PreconditionError);
}

}  // namespace
}  // namespace rbpeb
