// The hashed pattern-database tier: open-addressed tables must be invisible
// where the flat 8^|P| tables exist (force_hashed differential), wider
// patterns must build real tables that stay admissible, the min-cut
// partitioner must produce legal partitions, and a byte-budget truncation
// must weaken the heuristic only downward (floors, never optimism). The
// hashed tier builds one unshared table per pattern in the partitioner's
// order, so it is also the oracle for flat tables shared by pattern shape.
#include "src/solvers/bigstate/pdb.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/graph/dag_builder.hpp"
#include "src/instances/spec.hpp"
#include "src/pebble/bounds.hpp"
#include "src/pebble/verifier.hpp"
#include "src/solvers/exact.hpp"
#include "src/solvers/exact_astar.hpp"
#include "src/support/rng.hpp"
#include "src/workloads/chain.hpp"
#include "src/workloads/random_layered.hpp"
#include "src/workloads/tree_reduction.hpp"

namespace rbpeb {
namespace {

std::vector<Move> legal_moves(const Engine& engine, const GameState& state) {
  std::vector<Move> legal;
  for (std::size_t v = 0; v < state.node_count(); ++v) {
    for (MoveType type : {MoveType::Load, MoveType::Store, MoveType::Compute,
                          MoveType::Delete}) {
      Move move{type, static_cast<NodeId>(v)};
      if (engine.is_legal(state, move)) legal.push_back(move);
    }
  }
  return legal;
}

/// Random-walk the concrete game, comparing the two databases' bounds at
/// every visited state. `upper_is_reference` asserts equality; otherwise
/// `a` must only ever be the weaker (smaller-or-equal, never dead when the
/// reference is alive) side.
void walk_and_compare(const Engine& engine, const PatternDatabase& a,
                      const PatternDatabase& reference, bool expect_equal,
                      std::uint64_t seed, int steps = 200) {
  Rng rng(seed);
  GameState state = engine.initial_state();
  for (int step = 0; step < steps; ++step) {
    const auto got = a.lower_bound_scaled(state);
    const auto want = reference.lower_bound_scaled(state);
    if (expect_equal) {
      ASSERT_EQ(got, want) << "step=" << step;
    } else if (want.has_value()) {
      // Truncation may only weaken: never dead where the reference is
      // alive, never above the reference's (admissible) value.
      ASSERT_TRUE(got.has_value()) << "step=" << step;
      ASSERT_LE(*got, *want) << "step=" << step;
    }
    std::vector<Move> legal = legal_moves(engine, state);
    if (legal.empty()) break;
    Cost cost;
    engine.apply(state, legal[rng.next_below(legal.size())], cost);
  }
}

// ---- hashed vs flat, bit for bit -----------------------------------------

/// force_hashed builds open-addressed tables at widths the flat arrays
/// cover; both must serve identical bounds (and identical dead verdicts) at
/// every reachable configuration, on every model.
TEST(HashedPdb, ForcedHashedTablesMatchFlatTablesEverywhere) {
  Dag dag = make_random_layered_dag({.layers = 5, .width = 4, .indegree = 2,
                                     .seed = 51});  // 20 nodes
  std::uint64_t seed = 500;
  for (const Model& model : all_models()) {
    Engine engine(dag, model, min_red_pebbles(dag));
    for (std::size_t width : {3u, 6u, 8u}) {
      PatternDatabase flat(engine, width);
      PatternDatabase hashed(engine, width, {}, PdbPartition::Cone,
                             /*table_byte_budget=*/0, /*force_hashed=*/true);
      ASSERT_EQ(flat.pattern_count(), hashed.pattern_count());
      walk_and_compare(engine, hashed, flat, /*expect_equal=*/true, ++seed);
    }
  }
}

/// All four start/finish conventions, Hong–Kung sources and sinks included.
std::vector<PebblingConvention> all_conventions() {
  std::vector<PebblingConvention> out;
  for (bool sources_blue : {false, true}) {
    for (bool sinks_blue : {false, true}) {
      PebblingConvention convention;
      convention.sources_start_blue = sources_blue;
      convention.sinks_end_blue = sinks_blue;
      out.push_back(convention);
    }
  }
  return out;
}

/// Bytes the flat tables would take with one table per pattern.
std::size_t unshared_flat_bytes(const PatternDatabase& db) {
  std::size_t bytes = 0;
  for (std::size_t p = 0; p < db.pattern_count(); ++p) {
    bytes += (std::size_t{1} << (3 * db.pattern_nodes(p).size())) *
             sizeof(std::int32_t);
  }
  return bytes;
}

/// Flat tables are shared between patterns of one shape (in canonical node
/// order); the forced-hashed tables are built per pattern in partition
/// order. On DAGs full of repeated shapes both must serve identical bounds
/// and dead verdicts everywhere, in every model and convention.
TEST(HashedPdb, SharedFlatTablesMatchPerPatternTablesOnRepeatedShapes) {
  std::uint64_t seed = 700;
  for (const char* spec :
       {"stencil:width=2,steps=14", "tree:leaves=16",
        "layered:layers=8,width=6,indegree=2,seed=71"}) {
    const Dag dag = instances::resolve_instance(spec).dag;
    for (const Model& model : all_models()) {
      for (const PebblingConvention& convention : all_conventions()) {
        const Engine engine(dag, model, min_red_pebbles(dag) + 1, convention);
        for (std::size_t width : {4u, 6u}) {
          SCOPED_TRACE(std::string(spec) + " " + model.name() + " width " +
                       std::to_string(width) + " sources_blue " +
                       std::to_string(convention.sources_start_blue) +
                       " sinks_blue " +
                       std::to_string(convention.sinks_end_blue));
          PatternDatabase shared(engine, width);
          PatternDatabase hashed(engine, width, {}, PdbPartition::Cone,
                                 /*table_byte_budget=*/0,
                                 /*force_hashed=*/true);
          ASSERT_EQ(shared.pattern_count(), hashed.pattern_count());
          EXPECT_LT(shared.table_bytes(), unshared_flat_bytes(shared))
              << "no two patterns shared a table";
          walk_and_compare(engine, shared, hashed, /*expect_equal=*/true,
                           ++seed);
        }
      }
    }
  }
}

/// k disjoint copies of one component, each relabelled differently, are k
/// patterns of one shape: the database holds a single copy's table, and the
/// copies' bounds add up.
TEST(HashedPdb, DisjointRelabelledCopiesShareOneTable) {
  constexpr std::size_t kSize = 6;
  constexpr std::size_t kCopies = 5;
  const std::vector<std::pair<NodeId, NodeId>> edges = {
      {0, 2}, {1, 2}, {1, 3}, {2, 4}, {3, 4}, {4, 5}, {0, 5}};
  auto copies = [&](std::size_t k) {
    DagBuilder builder;
    builder.add_nodes(k * kSize);
    for (std::size_t c = 0; c < k; ++c) {
      // Copy c relabels node i as (5i + c) mod 6 inside its own id block.
      auto id = [&](NodeId i) {
        return static_cast<NodeId>(c * kSize + (5 * i + c) % kSize);
      };
      for (const auto& [from, to] : edges) builder.add_edge(id(from), id(to));
    }
    return builder.build();
  };
  const Dag one = copies(1);
  const Dag many = copies(kCopies);
  for (const Model& model : all_models()) {
    for (const PebblingConvention& convention : all_conventions()) {
      const Engine single(one, model, 3, convention);
      const Engine multiple(many, model, 3, convention);
      const PatternDatabase single_db(single, kSize);
      const PatternDatabase multiple_db(multiple, kSize);
      ASSERT_EQ(single_db.pattern_count(), 1u);
      ASSERT_EQ(multiple_db.pattern_count(), kCopies);
      EXPECT_EQ(multiple_db.table_bytes(), single_db.table_bytes());
      EXPECT_EQ(single_db.table_bytes(),
                (std::size_t{1} << (3 * kSize)) * sizeof(std::int32_t));
      const auto one_bound = single_db.lower_bound_scaled(single.initial_state());
      const auto all_bound =
          multiple_db.lower_bound_scaled(multiple.initial_state());
      ASSERT_TRUE(one_bound.has_value());
      ASSERT_TRUE(all_bound.has_value());
      EXPECT_EQ(*all_bound, static_cast<std::int64_t>(kCopies) * *one_bound);
    }
  }
}

/// A build stopped at any point reports build_aborted() and counts only the
/// tables it finished; one that ran to the end serves the full bounds.
TEST(HashedPdb, StoppedBuildsNeverCountAPartialTable) {
  const Dag dag = instances::resolve_instance("tree:leaves=32").dag;
  const Engine engine(dag, Model::nodel(), 4);
  const PatternDatabase full(engine, 6);
  for (int fire_at : {1, 2, 5, 13, 40, 120}) {
    int polls = 0;
    const PatternDatabase cut(engine, 6, [&] { return ++polls >= fire_at; });
    if (cut.build_aborted()) {
      EXPECT_LT(cut.table_bytes(), full.table_bytes()) << fire_at;
    } else {
      EXPECT_EQ(cut.table_bytes(), full.table_bytes()) << fire_at;
      walk_and_compare(engine, cut, full, /*expect_equal=*/true, 800);
    }
  }
}

/// The hashed tier holds only reached abstract states, so at equal width it
/// must be no larger than the dense arrays it replaces.
TEST(HashedPdb, HashedTablesAreSparserThanFlatAtEqualWidth) {
  Dag dag = make_chain_dag(16);
  Engine engine(dag, Model::oneshot(), 3);
  PatternDatabase flat(engine, 8);
  PatternDatabase hashed(engine, 8, {}, PdbPartition::Cone, 0, true);
  EXPECT_GT(flat.table_bytes(), 0u);
  EXPECT_GT(hashed.table_bytes(), 0u);
  EXPECT_LT(hashed.table_bytes(), flat.table_bytes());
}

// ---- genuinely wide patterns ---------------------------------------------

/// A width past the flat cap builds a hashed table for real and the result
/// stays admissible: folded into the search it must not change the proven
/// optimum (checked against a flat-PDB solve of the same instance).
TEST(HashedPdb, WidePatternsStayAdmissibleInTheSearch) {
  Dag dag = make_random_layered_dag({.layers = 3, .width = 3, .indegree = 2,
                                     .seed = 52});  // 9 nodes
  Engine engine(dag, Model::nodel(), min_red_pebbles(dag));
  ExactSearchOptions narrow;
  narrow.max_states = 2'000'000;
  narrow.pdb = PdbMode::On;
  narrow.pdb_pattern_size = 5;
  ExactSearchOptions wide = narrow;
  wide.pdb_pattern_size = 9;  // one 9-node pattern: hashed territory
  ExactSearchStats narrow_stats, wide_stats;
  auto narrow_result = try_solve_exact_astar(engine, narrow, &narrow_stats);
  auto wide_result = try_solve_exact_astar(engine, wide, &wide_stats);
  ASSERT_TRUE(narrow_result.has_value());
  ASSERT_TRUE(wide_result.has_value());
  EXPECT_EQ(narrow_result->cost, wide_result->cost);
  // The whole-instance abstraction is the instance itself: its heuristic is
  // perfect, so the search should expand no more than the narrow one.
  EXPECT_LE(wide_stats.states_expanded, narrow_stats.states_expanded);
  EXPECT_EQ(verify_or_throw(engine, wide_result->trace).total,
            wide_result->cost);
}

// ---- the min-cut partitioner ---------------------------------------------

TEST(MinCutPartition, CoversEveryNodeDisjointlyWithinTheSizeCap) {
  for (std::size_t cap : {1u, 4u, 7u, 16u}) {
    Dag dag = make_random_layered_dag({.layers = 6, .width = 5, .indegree = 3,
                                       .seed = 53});
    auto patterns = partition_into_patterns_mincut(dag, cap);
    std::vector<int> seen(dag.node_count(), 0);
    for (const auto& pattern : patterns) {
      EXPECT_LE(pattern.size(), cap);
      EXPECT_FALSE(pattern.empty());
      for (NodeId v : pattern) ++seen[v];
    }
    for (std::size_t v = 0; v < dag.node_count(); ++v) {
      EXPECT_EQ(seen[v], 1) << "node " << v << " cap " << cap;
    }
  }
}

/// On a chain every partitioner should find the obvious contiguous
/// segmentation — and the min-cut DP must never cut more edges than the
/// greedy cone partitioner on the same instance.
TEST(MinCutPartition, CutsNoMoreEdgesThanTheGreedyConePartitioner) {
  auto crossing_edges = [](const Dag& dag,
                           const std::vector<std::vector<NodeId>>& patterns) {
    std::vector<std::size_t> owner(dag.node_count(), 0);
    for (std::size_t p = 0; p < patterns.size(); ++p) {
      for (NodeId v : patterns[p]) owner[v] = p;
    }
    std::size_t crossing = 0;
    for (std::size_t v = 0; v < dag.node_count(); ++v) {
      for (NodeId u : dag.predecessors(static_cast<NodeId>(v))) {
        if (owner[u] != owner[v]) ++crossing;
      }
    }
    return crossing;
  };
  for (std::uint64_t seed : {54u, 55u, 56u}) {
    Dag dag = make_random_layered_dag({.layers = 6, .width = 4, .indegree = 2,
                                       .seed = seed});
    const auto cone = partition_into_patterns(dag, 6);
    const auto mincut = partition_into_patterns_mincut(dag, 6);
    EXPECT_LE(crossing_edges(dag, mincut), crossing_edges(dag, cone))
        << "seed " << seed;
  }
}

/// The mincut partitioner is reachable end to end through the search
/// options and changes no proven optimum.
TEST(MinCutPartition, SearchWithMinCutPartitionAgreesWithCone) {
  Dag dag = make_random_layered_dag({.layers = 5, .width = 3, .indegree = 2,
                                     .seed = 57});  // 15 nodes
  Engine engine(dag, Model::oneshot(), min_red_pebbles(dag));
  ExactSearchOptions cone;
  cone.max_states = 2'000'000;
  cone.pdb = PdbMode::On;
  cone.pdb_pattern_size = 5;
  ExactSearchOptions mincut = cone;
  mincut.pdb_partition = PdbPartition::MinCut;
  auto cone_result = try_solve_exact_astar(engine, cone);
  auto mincut_result = try_solve_exact_astar(engine, mincut);
  ASSERT_TRUE(cone_result.has_value());
  ASSERT_TRUE(mincut_result.has_value());
  EXPECT_EQ(cone_result->cost, mincut_result->cost);
}

// ---- byte-budget truncation ----------------------------------------------

/// A build squeezed under a tiny byte budget truncates instead of failing:
/// bounds only ever drop relative to the untruncated build (settled entries
/// exact, the rest floored), and no live state is called dead.
TEST(HashedPdb, TruncatedBuildsOnlyWeakenTheBound) {
  Dag dag = make_random_layered_dag({.layers = 5, .width = 4, .indegree = 2,
                                     .seed = 58});  // 20 nodes
  std::uint64_t seed = 600;
  for (const Model& model : all_models()) {
    Engine engine(dag, model, min_red_pebbles(dag));
    PatternDatabase full(engine, 7, {}, PdbPartition::Cone, 0, true);
    // A few KiB: enough for the first slot arrays, far under the full build.
    PatternDatabase truncated(engine, 7, {}, PdbPartition::Cone,
                              /*table_byte_budget=*/8 << 10,
                              /*force_hashed=*/true);
    ASSERT_GT(full.table_bytes(), std::size_t{8} << 10)
        << "budget not actually binding; tighten the test";
    walk_and_compare(engine, truncated, full, /*expect_equal=*/false, ++seed);
  }
}

/// The truncated database still drives the search to the true optimum —
/// admissibility is what the searches rely on, so prove it end to end.
TEST(HashedPdb, SearchWithTruncatedTablesStillProvesTheOptimum) {
  Dag dag = make_random_layered_dag({.layers = 5, .width = 3, .indegree = 2,
                                     .seed = 59});  // 15 nodes
  Engine engine(dag, Model::compcost(), min_red_pebbles(dag));
  auto reference = try_solve_exact_astar(engine, ExactSearchOptions{});
  ASSERT_TRUE(reference.has_value());
  PatternDatabase truncated(engine, 8, {}, PdbPartition::Cone,
                            /*table_byte_budget=*/4 << 10,
                            /*force_hashed=*/true);
  StateBoundEvaluator eval(engine);
  eval.attach_pdb(&truncated);
  // The start state's bound must not exceed the true optimum.
  const auto start = eval.lower_bound_scaled(engine.initial_state());
  ASSERT_TRUE(start.has_value());
  const Rational eps = engine.model().epsilon();
  EXPECT_LE(Rational(*start, eps.den()), reference->cost);
}

}  // namespace
}  // namespace rbpeb
