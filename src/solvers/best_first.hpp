// What the best-first searches share: the pass core behind exact-astar and
// anytime-astar (exact_astar.cpp) and hda-astar's sharded workers
// (hda/hda_astar.cpp). Internal to src/solvers.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/introspect.hpp"
#include "src/pebble/bounds.hpp"
#include "src/pebble/trace.hpp"
#include "src/solvers/bigstate/pdb.hpp"
#include "src/solvers/bigstate/var_state.hpp"
#include "src/solvers/bucket_queue.hpp"
#include "src/solvers/exact.hpp"
#include "src/solvers/exact_astar.hpp"
#include "src/solvers/packed_state.hpp"
#include "src/support/check.hpp"

namespace rbpeb::best_first {

/// fn.template operator()<Packed, Masks>() on the widths an instance runs
/// on: fixed-width words up to 42 nodes, variable-width states over
/// two-word masks up to 128 (they price like the one-word path, so a forced
/// run matches bit-for-bit), runtime-width MaskVec past 128 or when forced.
template <typename Fn>
decltype(auto) dispatch_width(std::size_t node_count,
                              const ExactSearchOptions& options, Fn&& fn) {
  using Masks1 = StateBoundEvaluator::StateMasks;
  if (options.force_mask_vec ||
      node_count > StateBoundEvaluator::kWideMaskMaxNodes) {
    return fn.template operator()<VarPackedState,
                                  StateBoundEvaluator::MaskVec>();
  }
  const bool force_wide = options.force_var_state || options.force_mask_vec;
  if (!force_wide && node_count <= PackedState64::max_nodes()) {
    return fn.template operator()<PackedState64, Masks1>();
  }
  if (!force_wide && node_count <= PackedState128::max_nodes()) {
    return fn.template operator()<PackedState128, Masks1>();
  }
  return fn.template operator()<VarPackedState,
                                StateBoundEvaluator::WideStateMasks>();
}

/// The universal ceiling in scaled units: nothing optimal prices beyond it,
/// which caps the bucket count. Open items hold g and f in 32 bits; both
/// stay at or below the ceiling, and a ceiling past 2^31 would need more
/// bucket memory than any machine has.
inline std::int64_t search_ceiling(const Engine& engine) {
  const std::int64_t ceiling =
      universal_search_ceiling_scaled(engine.dag(), engine.model());
  RBPEB_ENSURE(ceiling < std::numeric_limits<std::int32_t>::max(),
               "search ceiling does not fit a 32-bit open item");
  return ceiling;
}

/// The pattern database the options ask for, or nullopt. Hashed tables take
/// at most half of the memory budget and truncate admissibly at that cap.
/// A build cut short by should_stop reports build_aborted(): the search
/// then ends Stopped.
inline std::optional<PatternDatabase> build_pdb(
    const Engine& engine, const ExactSearchOptions& options) {
  std::optional<PatternDatabase> pdb;
  if (bigstate_pdb_enabled(options, engine.dag().node_count())) {
    pdb.emplace(engine, options.pdb_pattern_size, options.should_stop,
                options.pdb_partition,
                options.max_memory_bytes != 0 ? options.max_memory_bytes / 2
                                              : 0);
  }
  return pdb;
}

/// A bound evaluator reinforced by `pdb` when there is one; one per thread.
inline StateBoundEvaluator make_bound(
    const Engine& engine, const std::optional<PatternDatabase>& pdb) {
  StateBoundEvaluator bound(engine);
  if (pdb) bound.attach_pdb(&*pdb);
  return bound;
}

/// Open-list entry: stale once g no longer matches the closed table. f is
/// the unweighted g + h — what pruning and frontier bounds read, whatever
/// the queue's priority. g and f are narrowed to 32 bits here (both stay
/// within search_ceiling), keeping the item the size of a {key, 64-bit g}
/// pair and the queue's share of a memory budget with it.
template <typename Key>
struct OpenItem {
  OpenItem(Key k, std::int64_t g_, std::int64_t f_)
      : key(std::move(k)), g(static_cast<std::int32_t>(g_)),
        f(static_cast<std::int32_t>(f_)) {}
  Key key;
  std::int32_t g;
  std::int32_t f;
};

/// The seed returned as the optimum: nothing priced below its cost.
inline ExactResult seed_optimum(const Engine& engine,
                                const ExactSearchOptions& options,
                                ExactSearchStats& stats) {
  stats.termination = ExactTermination::Solved;
  stats.seed_won = true;
  return ExactResult{
      options.seed->trace,
      Rational(options.seed->g_scaled, engine.model().epsilon().den()),
      stats.states_expanded};
}

/// The moves from `start` to `goal`, following the settled tree edges
/// `at(key)` (a closed-table Entry) back from the goal.
template <typename Key, typename At>
Trace walk_trace(const Key& goal, const Key& start, At&& at) {
  std::vector<Move> reversed;
  for (Key cursor = goal; !(cursor == start);) {
    const auto link = at(cursor);
    reversed.push_back(link.via);
    cursor = link.parent;
  }
  Trace trace;
  for (std::size_t i = reversed.size(); i-- > 0;) trace.push(reversed[i]);
  return trace;
}

/// The open list's size and f/g range for a progress observation; O(bucket
/// count + size), so only at the sampler's wall-clock-limited cadence.
template <typename Key>
void summarize_open(const BucketQueue<OpenItem<Key>>& queue,
                    obs::ProgressObservation& ob) {
  ob.open_states = queue.size();
  queue.for_each([&](std::int64_t, const OpenItem<Key>& qi) {
    if (ob.open_f_min < 0 || qi.f < ob.open_f_min) ob.open_f_min = qi.f;
    ob.open_f_max = std::max<std::int64_t>(ob.open_f_max, qi.f);
    if (ob.open_g_min < 0 || qi.g < ob.open_g_min) ob.open_g_min = qi.g;
    ob.open_g_max = std::max<std::int64_t>(ob.open_g_max, qi.g);
  });
}

/// Bound-source attribution of one expansion: an extra (pure) bound
/// evaluation, made only while a progress sampler watches so that other
/// searches stay byte-identical. An expanded state is never dead.
template <typename Masks>
void attribute_bound(StateBoundEvaluator& bound, const Masks& masks,
                     std::size_t& counting, std::size_t& pdb) {
  (void)bound.lower_bound_scaled(masks);
  ++(bound.last_source() == StateBoundEvaluator::BoundSource::Pdb ? pdb
                                                                   : counting);
}

/// Fold a closed table's footprint into `stats`: counters add up; byte
/// peaks add across tables live at once (hda shards) and take the max over
/// tables live one after another (anytime passes).
template <typename Table>
void fold_table_stats(ExactSearchStats& stats, const Table& table,
                      bool concurrent) {
  auto peak = [&](std::size_t& into, std::size_t bytes) {
    into = concurrent ? into + bytes : std::max(into, bytes);
  };
  peak(stats.table_bytes, table.bytes());
  peak(stats.spill_peak_bytes, table.spill_peak_bytes());
  stats.spilled_states += table.spilled_states();
  stats.spill_bytes += table.spill_bytes();
  stats.merge_passes += table.merge_passes();
  stats.spill_io_error = stats.spill_io_error || table.spill_io_error();
  stats.table_headroom_stop =
      stats.table_headroom_stop || table.headroom_stop();
}

/// `result`, or the InvariantError the throwing solve_* entry points raise.
inline ExactResult value_or_throw(std::optional<ExactResult> result,
                                  const ExactSearchStats& stats,
                                  const std::string& solver) {
  if (result) return std::move(*result);
  switch (stats.termination) {
    case ExactTermination::Exhausted:
      throw InvariantError(solver +
                           " exhausted the reachable configuration graph "
                           "without a complete state");
    case ExactTermination::MemoryBudget:
      throw InvariantError(solver + " exceeded its memory budget");
    default:
      throw InvariantError(solver + " exceeded its state budget");
  }
}

}  // namespace rbpeb::best_first
