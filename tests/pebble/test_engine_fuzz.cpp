// Randomized rule-engine fuzzing: walk long random sequences of *legal*
// moves and check that every documented invariant holds at every step, in
// every model. This guards the Engine against rule regressions that the
// construction-specific tests might not touch.
//
// The same walks hold the rules' other readers to the Engine at every
// visited state: is_legal must agree with why_illegal on every candidate,
// and the mask-native successor generator the searches expand with
// (StateBoundEvaluator::legal_moves / is_complete) must produce exactly the
// Engine's in-order legal moves at every mask width that covers the DAG.
#include <gtest/gtest.h>

#include <ostream>

#include "src/pebble/bounds.hpp"
#include "src/pebble/engine.hpp"
#include "src/pebble/verifier.hpp"
#include "src/support/rng.hpp"
#include "src/workloads/random_layered.hpp"

namespace rbpeb {

// Readable move lists in failure messages.
void PrintTo(const Move& move, std::ostream* os) { *os << to_string(move); }

namespace {

constexpr MoveType kMoveTypes[] = {MoveType::Load, MoveType::Store,
                                   MoveType::Compute, MoveType::Delete};

/// `state` with every sink recolored `color` — random walks rarely pebble
/// every sink, so the completion test also runs on these.
GameState with_sinks(const Engine& engine, GameState state,
                     PebbleColor color) {
  for (NodeId s : engine.dag().sinks()) state.set_color(s, color);
  return state;
}

/// The generator's moves and completion verdicts at one width, against the
/// Engine's.
template <class Masks>
void expect_generator_matches(const Engine& engine,
                              const StateBoundEvaluator& generator,
                              const GameState& state,
                              const std::vector<Move>& engine_moves,
                              const char* width) {
  const std::size_t n = state.node_count();
  std::vector<Move> moves;
  generator.legal_moves(Masks::from(state, n), moves);
  EXPECT_EQ(moves, engine_moves) << width;
  for (const GameState& s :
       {state, with_sinks(engine, state, PebbleColor::Red),
        with_sinks(engine, state, PebbleColor::Blue)}) {
    EXPECT_EQ(generator.is_complete(Masks::from(s, n)),
              engine.is_complete(s))
        << width;
  }
}

/// Walk `walk_length` random legal moves from the initial state, checking
/// the invariants and the differential agreements above at every state.
void random_walk(const Engine& engine, std::uint64_t seed,
                 std::size_t walk_length) {
  const Dag& dag = engine.dag();
  const Model& model = engine.model();
  const std::size_t n = dag.node_count();
  const std::size_t r = engine.red_limit();
  const StateBoundEvaluator generator(engine);
  Rng rng(seed);
  GameState state = engine.initial_state();
  Cost cost;
  Trace trace;

  for (std::size_t step = 0; step < walk_length; ++step) {
    // Enumerate all legal moves at this state, in the search probe order.
    // One out-of-range node rides along: rejected by both verdicts alike.
    std::vector<Move> legal;
    for (std::size_t v = 0; v <= n; ++v) {
      for (MoveType type : kMoveTypes) {
        const Move move{type, static_cast<NodeId>(v)};
        const bool ok = engine.is_legal(state, move);
        EXPECT_EQ(ok, !engine.why_illegal(state, move).has_value())
            << to_string(move) << " at step " << step;
        if (ok) legal.push_back(move);
      }
    }
    using Evaluator = StateBoundEvaluator;
    if (n <= Evaluator::kMaskMaxNodes) {
      expect_generator_matches<Evaluator::StateMasks>(engine, generator, state,
                                                      legal, "one word");
    }
    if (n <= Evaluator::kWideMaskMaxNodes) {
      expect_generator_matches<Evaluator::WideStateMasks>(
          engine, generator, state, legal, "two words");
    }
    expect_generator_matches<Evaluator::MaskVec>(engine, generator, state,
                                                 legal, "runtime width");
    if (::testing::Test::HasFailure()) return;  // one report per walk

    if (legal.empty()) break;  // possible in oneshot after deletions
    Move move = legal[rng.next_below(legal.size())];
    engine.apply(state, move, cost);
    trace.push(move);

    // Invariants after every step:
    EXPECT_LE(state.red_count(), r);
    std::size_t red = 0, blue = 0;
    for (std::size_t v = 0; v < n; ++v) {
      NodeId id = static_cast<NodeId>(v);
      if (state.is_red(id)) ++red;
      if (state.is_blue(id)) ++blue;
      // A pebbled node was computed at some point: pebbles only enter the
      // board via Step 3, except the Hong–Kung sources' starting blue.
      const bool preloaded =
          engine.convention().sources_start_blue && dag.is_source(id);
      if (!state.is_empty(id) && !preloaded) {
        EXPECT_TRUE(state.was_computed(id));
      }
      // Oneshot: a computed-and-empty node can never again hold a pebble —
      // verified implicitly by legality, spot-check the rule here:
      if (!model.allows_recompute() && state.was_computed(id) &&
          state.is_empty(id)) {
        EXPECT_FALSE(engine.is_legal(state, compute(id)));
        EXPECT_FALSE(engine.is_legal(state, load(id)));
      }
    }
    EXPECT_EQ(red, state.red_count());
    EXPECT_EQ(blue, state.blue_count());
    if (!model.allows_delete()) EXPECT_EQ(cost.deletes, 0);
  }

  // The replayed walk agrees with the incrementally accumulated cost.
  VerifyResult vr = verify(engine, trace);
  EXPECT_TRUE(vr.legal) << vr.error;
  EXPECT_EQ(vr.cost, cost);
  EXPECT_EQ(vr.total, model.total(cost));
}

struct FuzzCase {
  std::size_t model_index;
  std::uint64_t seed;
};

class EngineFuzz : public ::testing::TestWithParam<FuzzCase> {};

INSTANTIATE_TEST_SUITE_P(
    Walks, EngineFuzz,
    ::testing::Values(FuzzCase{0, 1}, FuzzCase{0, 2}, FuzzCase{1, 1},
                      FuzzCase{1, 2}, FuzzCase{2, 1}, FuzzCase{2, 2},
                      FuzzCase{3, 1}, FuzzCase{3, 2}),
    [](const auto& info) {
      return std::string(all_models()[info.param.model_index].name()) +
             "_seed" + std::to_string(info.param.seed);
    });

TEST_P(EngineFuzz, RandomLegalWalkKeepsInvariants) {
  const Model& model = all_models()[GetParam().model_index];
  Dag dag = make_random_layered_dag({.layers = 4, .width = 5, .indegree = 2,
                                     .seed = GetParam().seed + 10});
  Engine engine(dag, model, dag.max_indegree() + 2);
  random_walk(engine, GetParam().seed, 400);
}

// Every model × every PebblingConvention × one DAG per mask width: ≤64
// nodes (all three widths apply), 65–128 (two-word and runtime width) and
// >128 (runtime width only).
struct ConventionCase {
  std::size_t model_index;
  bool sources_start_blue;
  bool sinks_end_blue;
  std::size_t layers;
  std::size_t width;
};

class EngineConventionFuzz : public ::testing::TestWithParam<ConventionCase> {
};

std::vector<ConventionCase> convention_cases() {
  std::vector<ConventionCase> cases;
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {4, 10}, {6, 16}, {5, 40}};  // 40, 96 and 200 nodes
  for (std::size_t m = 0; m < all_models().size(); ++m) {
    for (bool sources_blue : {false, true}) {
      for (bool sinks_blue : {false, true}) {
        for (const auto& [layers, width] : shapes) {
          cases.push_back({m, sources_blue, sinks_blue, layers, width});
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Walks, EngineConventionFuzz, ::testing::ValuesIn(convention_cases()),
    [](const auto& info) {
      const ConventionCase& c = info.param;
      return std::string(all_models()[c.model_index].name()) +
             (c.sources_start_blue ? "_srcblue" : "_srcfree") +
             (c.sinks_end_blue ? "_sinkblue" : "_sinkany") + "_n" +
             std::to_string(c.layers * c.width);
    });

TEST_P(EngineConventionFuzz, MaskGeneratorMatchesEngine) {
  const ConventionCase& c = GetParam();
  Dag dag = make_random_layered_dag(
      {.layers = c.layers, .width = c.width, .indegree = 2,
       .seed = c.layers * c.width + c.model_index});
  ASSERT_EQ(dag.node_count(), c.layers * c.width);
  PebblingConvention convention;
  convention.sources_start_blue = c.sources_start_blue;
  convention.sinks_end_blue = c.sinks_end_blue;
  Engine engine(dag, all_models()[c.model_index], dag.max_indegree() + 2,
                convention);
  random_walk(engine, c.model_index + 7, 300);
}

}  // namespace
}  // namespace rbpeb
