#include "src/solvers/exact_astar.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/pebble/bounds.hpp"
#include "src/solvers/bigstate/ddd.hpp"
#include "src/solvers/bigstate/pdb.hpp"
#include "src/solvers/bigstate/spill.hpp"
#include "src/solvers/bigstate/var_state.hpp"
#include "src/solvers/bucket_queue.hpp"
#include "src/solvers/packed_state.hpp"
#include "src/support/check.hpp"

namespace rbpeb {

static_assert(kExactAstarMaxNodes == StateBoundEvaluator::kVecMaskMaxNodes,
              "the search cap is the runtime-width bound cap");
static_assert(kExactAstarFixedMaxNodes == PackedState128::max_nodes(),
              "the fixed-width cap is the __uint128_t packing limit");

namespace {

template <typename Packed, typename Masks>
std::optional<ExactResult> astar_impl(const Engine& engine,
                                      const ExactSearchOptions& opt,
                                      ExactSearchStats& stats) {
  using Key = typename Packed::Key;
  const Dag& dag = engine.dag();
  const Model& model = engine.model();
  const std::size_t n = dag.node_count();
  const std::int64_t eps_den = model.epsilon().den();
  const StopPredicate& should_stop = opt.should_stop;
  const obs::TraceSpan search_span("astar.search", "nodes", n);
  obs::Counter& expanded_counter =
      obs::MetricsRegistry::instance().counter("search.expanded");

  // Anything priced beyond the universal ceiling is dropped — no optimal
  // pebbling lives there — which also caps the bucket count. A seeded
  // incumbent tightens the same prune: nothing pricing at or above a known
  // completion's cost can beat it.
  const std::int64_t ceiling = universal_search_ceiling_scaled(dag, model);
  const std::int64_t incumbent =
      opt.seed ? std::min(ceiling + 1, opt.seed->g_scaled) : ceiling + 1;

  // The spill directory outlives the table reading/writing under it and is
  // removed wholesale on every exit path, cancellation included.
  std::optional<bigstate::SpillDirectory> spill_dir =
      make_spill_directory(opt);
  SpillingClosedTable<Packed> table(n, opt.max_memory_bytes,
                                    spill_dir ? spill_dir->path() : "",
                                    opt.max_disk_bytes);
  using Table = SpillingClosedTable<Packed>;
  struct QueueItem {
    Key key;
    std::int64_t g;  ///< g at push time; stale when it no longer matches.
  };
  BucketQueue<QueueItem> queue(static_cast<std::size_t>(ceiling) + 1);

  std::optional<PatternDatabase> pdb;
  if (bigstate_pdb_enabled(opt, n)) {
    // Hashed PDB tables (patterns wider than 8) take at most half of the
    // memory budget, leaving the rest to the closed table; their builds
    // truncate admissibly at the cap instead of overshooting.
    pdb.emplace(engine, opt.pdb_pattern_size, should_stop, opt.pdb_partition,
                opt.max_memory_bytes != 0 ? opt.max_memory_bytes / 2 : 0);
    if (pdb->build_aborted()) {
      stats.termination = ExactTermination::Stopped;
      return std::nullopt;
    }
  }
  StateBoundEvaluator bound(engine);
  if (pdb) bound.attach_pdb(&*pdb);
  // PDB tables and the bucket arrays live inside the same memory budget as
  // the closed table; the queue share is refreshed at the poll checkpoints.
  const std::size_t pdb_bytes = pdb ? pdb->table_bytes() : 0;
  table.set_overhead_bytes(pdb_bytes + queue.bytes());

  auto fill_spill_stats = [&] {
    stats.table_bytes = table.bytes();
    stats.spilled_states = table.spilled_states();
    stats.spill_bytes = table.spill_bytes();
    stats.spill_peak_bytes = table.spill_peak_bytes();
    stats.merge_passes = table.merge_passes();
    stats.spill_io_error = table.spill_io_error();
    stats.table_headroom_stop = table.headroom_stop();
  };
  auto give_up = [&](ExactTermination why) {
    stats.termination = why;
    fill_spill_stats();
    return std::nullopt;
  };
  // Nothing prices below the seed, so the seed is optimal — return it.
  auto seed_wins = [&]() {
    stats.termination = ExactTermination::Solved;
    fill_spill_stats();
    stats.seed_won = true;
    ExactResult result;
    result.trace = opt.seed->trace;
    result.cost = Rational(opt.seed->g_scaled, eps_den);
    result.states_expanded = stats.states_expanded;
    return result;
  };

  const GameState start_state = engine.initial_state();
  const Packed start = Packed::from_state(start_state);
  std::optional<std::int64_t> start_h = bound.lower_bound_scaled(start);
  if (!start_h) {
    // A verified seed proves the instance completable, so a dead start can
    // only mean no completion prices below the seed.
    if (opt.seed) return seed_wins();
    return give_up(ExactTermination::Exhausted);
  }
  if (*start_h >= incumbent) {
    if (opt.seed) return seed_wins();
    return give_up(ExactTermination::Exhausted);
  }
  if (table.relax(start.key(), 0, start.key(), Move{MoveType::Load, 0}) ==
      Table::Relax::OutOfMemory) {
    return give_up(ExactTermination::MemoryBudget);
  }
  queue.push(*start_h, {start.key(), 0});

  std::size_t& expanded = stats.states_expanded;
  std::vector<Move> moves;  // the expanded state's legal moves
  while (!queue.empty()) {
    auto [f, item] = queue.pop();
    // Expansion gate: stale-g check plus the delayed duplicate check
    // against any spill runs — each (key, g) expands at most once.
    const auto pop = table.begin_expansion(item.key, item.g);
    if (pop == Table::Pop::OutOfMemory) {
      return give_up(ExactTermination::MemoryBudget);
    }
    if (pop == Table::Pop::Skip) {
      ++stats.dup_skipped;
      continue;
    }
    const std::int64_t g = item.g;
    const Packed current = Packed::from_key(item.key, n);
    // One mask extraction per expansion; successors and their masks below
    // are derived from it in O(1) each — packed keys and bound masks alike.
    const Masks masks = Masks::from(current, n);
    if (bound.is_complete(masks)) {
      // Settle unverified entries first: an evicted-then-regenerated
      // ancestor's RAM entry could otherwise splice a worse tree edge
      // into the optimal trace.
      table.settle();
      std::vector<Move> reversed;
      Key cursor = item.key;
      while (!(cursor == start.key())) {
        const auto& link = table.at(cursor);
        reversed.push_back(link.via);
        cursor = link.parent;
      }
      ExactResult result;
      for (std::size_t i = reversed.size(); i-- > 0;) {
        result.trace.push(reversed[i]);
      }
      result.cost = Rational(g, eps_den);
      result.states_expanded = expanded;
      stats.termination = ExactTermination::Solved;
      fill_spill_stats();
      return result;
    }
    if (expanded >= opt.max_states) {
      return give_up(ExactTermination::StateBudget);
    }
    // Entry check included (expanded == 0): an expired deadline stops the
    // search before it burns a poll interval of expansions. The same
    // checkpoint refreshes the queue's share of the memory budget.
    if ((expanded & 0x3Fu) == 0) {
      table.set_overhead_bytes(pdb_bytes + queue.bytes());
      if (should_stop && should_stop()) {
        return give_up(ExactTermination::Stopped);
      }
      if (expanded != 0) {
        expanded_counter.add(64);
        // Trace instants every 16 checkpoints: enough to see frontier
        // progress in the timeline without swamping the ring on multi-
        // million-state searches.
        if ((expanded & 0x3FFu) == 0 && obs::trace_enabled()) {
          obs::trace_instant("astar.checkpoint", "expanded", expanded);
        }
        // Progress sampling rides the same 1024-expansion cadence; the
        // wall-clock rate limit (due()) keeps the O(open-list) summary off
        // fast solves' critical path.
        if ((expanded & 0x3FFu) == 0 && opt.progress != nullptr &&
            opt.progress->due()) {
          obs::ProgressObservation ob;
          ob.expanded = expanded;
          ob.frontier_f_scaled = f;  // popped min-f: a certified lower bound
          ob.incumbent_scaled = opt.seed ? incumbent : -1;
          ob.open_states = queue.size();
          queue.for_each([&](std::int64_t fq, const QueueItem& qi) {
            if (ob.open_f_min < 0 || fq < ob.open_f_min) ob.open_f_min = fq;
            ob.open_f_max = std::max(ob.open_f_max, fq);
            if (ob.open_g_min < 0 || qi.g < ob.open_g_min) ob.open_g_min = qi.g;
            ob.open_g_max = std::max(ob.open_g_max, qi.g);
          });
          ob.dup_skipped = stats.dup_skipped;
          ob.dead_prunes = stats.dead_prunes;
          ob.attr_counting = stats.attr_counting;
          ob.attr_pdb = stats.attr_pdb;
          ob.spilled_states = table.spilled_states();
          ob.spill_bytes = table.spill_bytes();
          ob.merge_passes = table.merge_passes();
          opt.progress->observe(ob);
        }
      }
    }
    if (opt.progress != nullptr) {
      // Bound-source attribution: one extra (pure, deterministic) bound
      // evaluation per expansion, done only when someone is watching so
      // un-instrumented searches stay byte-identical. An expanded state is
      // never dead — it priced under the incumbent when generated.
      (void)bound.lower_bound_scaled(masks);
      if (bound.last_source() == StateBoundEvaluator::BoundSource::Pdb) {
        ++stats.attr_pdb;
      } else {
        ++stats.attr_counting;
      }
    }
    ++expanded;

    // Probe, then price, then insert (bigstate/ddd.hpp): a stale successor
    // costs no bound evaluation, a dead or over-incumbent one no slot.
    bound.legal_moves(masks, moves);
    for (const Move& move : moves) {
      const Packed next = current.apply(move);
      const std::int64_t next_g = g + scaled_move_cost(model, move.type);
      const auto probe = table.probe(next.key(), next_g);
      if (probe.verdict == Table::Relax::Stale) continue;
      Masks next_masks = masks;
      next_masks.apply(move);
      std::optional<std::int64_t> h = bound.lower_bound_scaled(next_masks);
      if (!h) {
        ++stats.dead_prunes;  // provably dead: prune
        continue;
      }
      const std::int64_t next_f = next_g + *h;
      if (next_f >= incumbent) continue;  // no winner lives beyond it
      if (table.insert(probe, next.key(), next_g, item.key, move) ==
          Table::Relax::OutOfMemory) {
        return give_up(ExactTermination::MemoryBudget);
      }
      queue.push(next_f, {next.key(), next_g});
    }
  }
  if (opt.seed) return seed_wins();
  return give_up(ExactTermination::Exhausted);
}

}  // namespace

std::optional<ExactResult> try_solve_exact_astar(
    const Engine& engine, const ExactSearchOptions& options,
    ExactSearchStats* stats) {
  const std::size_t n = engine.dag().node_count();
  RBPEB_REQUIRE(n <= kExactAstarMaxNodes,
                "solve_exact_astar supports at most 1024 nodes");
  ExactSearchStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = {};  // a reused struct must not accumulate across calls
  const bool force_wide = options.force_var_state || options.force_mask_vec;
  using Masks1 = StateBoundEvaluator::StateMasks;
  if (options.force_mask_vec || n > StateBoundEvaluator::kWideMaskMaxNodes) {
    // Runtime-width masks: the only path past 128 nodes, and the forced
    // differential-testing path below it.
    return astar_impl<VarPackedState, StateBoundEvaluator::MaskVec>(
        engine, options, *stats);
  }
  if (!force_wide && n <= PackedState64::max_nodes()) {
    return astar_impl<PackedState64, Masks1>(engine, options, *stats);
  }
  if (!force_wide && n <= PackedState128::max_nodes()) {
    return astar_impl<PackedState128, Masks1>(engine, options, *stats);
  }
  // Variable-width states; wide masks cover every n ≤ 128 and price
  // identically to the one-word path, so a forced run matches bit-for-bit.
  return astar_impl<VarPackedState, StateBoundEvaluator::WideStateMasks>(
      engine, options, *stats);
}

std::optional<ExactResult> try_solve_exact_astar(
    const Engine& engine, std::size_t max_states,
    const StopPredicate& should_stop, ExactSearchStats* stats) {
  ExactSearchOptions options;
  options.max_states = max_states;
  options.should_stop = should_stop;
  return try_solve_exact_astar(engine, options, stats);
}

ExactResult solve_exact_astar(const Engine& engine, std::size_t max_states) {
  ExactSearchStats stats;
  auto result = try_solve_exact_astar(engine, max_states, {}, &stats);
  if (!result) {
    switch (stats.termination) {
      case ExactTermination::Exhausted:
        throw InvariantError(
            "solve_exact_astar exhausted the reachable configuration graph "
            "without a complete state");
      case ExactTermination::MemoryBudget:
        throw InvariantError(
            "solve_exact_astar exceeded its memory budget");
      default:
        throw InvariantError("solve_exact_astar exceeded its state budget");
    }
  }
  return std::move(*result);
}

}  // namespace rbpeb
