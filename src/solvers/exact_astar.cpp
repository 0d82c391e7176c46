// The best-first pass core: exact-astar is one pass at weight 1,
// anytime-astar a schedule of weighted passes plus the certificate
// (anytime_astar.hpp), and hda-astar at one worker exact-astar's pass.
#include "src/solvers/exact_astar.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/pebble/bounds.hpp"
#include "src/solvers/anytime_astar.hpp"
#include "src/solvers/best_first.hpp"
#include "src/solvers/bigstate/ddd.hpp"
#include "src/solvers/bigstate/spill.hpp"
#include "src/solvers/bucket_queue.hpp"
#include "src/support/check.hpp"

namespace rbpeb {

static_assert(kExactAstarMaxNodes == StateBoundEvaluator::kVecMaskMaxNodes,
              "the search cap is the runtime-width bound cap");
static_assert(kExactAstarFixedMaxNodes == PackedState128::max_nodes(),
              "the fixed-width cap is the __uint128_t packing limit");

namespace {

/// How a pass ended: a completion (w = 1 only: nothing open prices below
/// it), a drained queue (nothing below the incumbent is left), a budget
/// cut, should_stop, or a closed table out of memory and spill room.
enum class PassEnd { Completion, Drained, Cut, Stopped, Memory };

struct PassResult {
  PassEnd end;
  /// On Cut: min(incumbent, min unweighted f still open) — a lower bound
  /// on any completion cheaper than the incumbent (anytime_astar.hpp).
  std::int64_t frontier = 0;
};

/// How a search ends after a pass that neither completed nor drained.
ExactTermination unfinished(PassEnd end) {
  if (end == PassEnd::Cut) return ExactTermination::StateBudget;
  return end == PassEnd::Stopped ? ExactTermination::Stopped
                                 : ExactTermination::MemoryBudget;
}

/// What the passes of one search share: bound, pattern database, spill
/// directory and the incumbent — the seed's cost until a pass finds a
/// cheaper completion. Each pass owns its table and queue, so its footprint
/// is released before the next pass is charged against the memory budget.
/// Not movable: the bound points at the PDB member.
template <typename Packed, typename Masks>
class BestFirstSearch {
 public:
  using Key = typename Packed::Key;
  using Table = SpillingClosedTable<Packed>;
  using Item = best_first::OpenItem<Key>;

  BestFirstSearch(const Engine& engine, const ExactSearchOptions& opt,
                  ExactSearchStats& stats)
      : model_(engine.model()),
        opt_(opt),
        stats_(stats),
        n_(engine.dag().node_count()),
        ceiling_(best_first::search_ceiling(engine)),
        // Outlives every table under it; removed on every exit path.
        spill_dir_(make_spill_directory(opt)),
        pdb_(best_first::build_pdb(engine, opt)),
        bound_(best_first::make_bound(engine, pdb_)),
        start_(Packed::from_state(engine.initial_state())),
        // ceiling + 1: no completion yet. A seed tightens it — nothing
        // pricing at or above a known completion's cost can beat it.
        incumbent_(opt.seed ? std::min(ceiling_ + 1, opt.seed->g_scaled)
                            : ceiling_ + 1) {}
  BestFirstSearch(const BestFirstSearch&) = delete;
  BestFirstSearch& operator=(const BestFirstSearch&) = delete;

  bool pdb_aborted() const { return pdb_ && pdb_->build_aborted(); }

  /// The start state's admissible bound; nullopt when it is provably dead.
  std::optional<std::int64_t> start_bound() {
    return bound_.lower_bound_scaled(start_);
  }

  std::int64_t incumbent() const { return incumbent_; }
  bool has_trace() const { return found_.has_value() || opt_.seed; }
  bool seed_holds() const { return !found_ && opt_.seed; }
  /// The incumbent's trace: the last completion found, else the seed's.
  Trace take_trace() { return found_ ? std::move(*found_) : opt_.seed->trace; }

  /// One pass at weight `w` from the start state (bound `start_h`) until the
  /// expansion count reaches `budget`. A weighted pass records each cheaper
  /// completion and keeps popping; at w = 1 the first one ends the pass, as
  /// all left open has f ≥ its cost. `floor`, the bound earlier passes
  /// proved, is a weighted pass's progress frontier.
  PassResult pass(AnytimeWeight w, std::size_t budget, std::int64_t start_h,
                  std::int64_t floor) {
    const bool unit = w.num == w.den;
    // Pushed items have g + h < incumbent ≤ ceiling + 1, so g + w·h stays
    // within w·ceiling. The clamp is defensive: priorities only order
    // expansion, the certificate never reads them.
    const std::int64_t max_priority = ceiling_ * w.num / w.den;
    auto priority = [&](std::int64_t g, std::int64_t h) {
      return unit ? g + h : std::min(g + (h * w.num) / w.den, max_priority);
    };
    Table table(n_, opt_.max_memory_bytes,
                spill_dir_ ? spill_dir_->path() : "", opt_.max_disk_bytes);
    BucketQueue<Item> queue(static_cast<std::size_t>(max_priority) + 1);
    // PDB tables and the bucket arrays live inside the same memory budget
    // as the closed table; the queue share is refreshed at the polls.
    const std::size_t pdb_bytes = pdb_ ? pdb_->table_bytes() : 0;
    table.set_overhead_bytes(pdb_bytes + queue.bytes());
    auto end = [&](PassEnd why, std::int64_t frontier = 0) {
      best_first::fold_table_stats(stats_, table, /*concurrent=*/false);
      return PassResult{why, frontier};
    };

    const Key start = start_.key();
    if (table.relax(start, 0, start, Move{MoveType::Load, 0}) ==
        Table::Relax::OutOfMemory) {
      return end(PassEnd::Memory);
    }
    queue.push(priority(0, start_h), Item(start, 0, start_h));

    std::size_t& expanded = stats_.states_expanded;
    while (!queue.empty()) {
      auto [popped, item] = queue.pop();
      // A completion found after this push may have overtaken its f; the
      // unweighted prune is what keeps weighted passes certificate-sound.
      if (item.f >= incumbent_) continue;
      // Expansion gate: stale-g check plus the delayed duplicate check
      // against any spill runs — each (key, g) expands at most once.
      const auto pop = table.begin_expansion(item.key, item.g);
      if (pop == Table::Pop::OutOfMemory) return end(PassEnd::Memory);
      if (pop == Table::Pop::Skip) {
        ++stats_.dup_skipped;
        continue;
      }
      const std::int64_t g = item.g;
      const Packed current = Packed::from_key(item.key, n_);
      // One mask extraction per expansion; successors and their masks below
      // are derived from it in O(1) each — packed keys and bound masks alike.
      const Masks masks = Masks::from(current, n_);
      if (bound_.is_complete(masks)) {
        // item.f < incumbent and h ≥ 0 give g < incumbent: strictly better.
        // Settle unverified entries first: an evicted-then-regenerated
        // ancestor's RAM entry could otherwise splice a worse tree edge
        // into the trace.
        table.settle();
        found_ = best_first::walk_trace(
            item.key, start, [&](const Key& key) { return table.at(key); });
        incumbent_ = g;
        if (unit) return end(PassEnd::Completion);
        continue;
      }
      if (expanded >= budget) {
        // The popped item is still open: it was never expanded. At w = 1 it
        // holds the queue's least f; a weighted pass scans the rest. Stale
        // items only lower the minimum, keeping it admissible.
        std::int64_t frontier = std::min<std::int64_t>(incumbent_, item.f);
        if (!unit) {
          queue.for_each([&](std::int64_t, const Item& open) {
            frontier = std::min<std::int64_t>(frontier, open.f);
          });
        }
        return end(PassEnd::Cut, frontier);
      }
      // Entry check included (expanded == 0): an expired deadline stops the
      // search before it burns a poll interval of expansions. The same
      // checkpoint refreshes the queue's share of the memory budget.
      if ((expanded & 0x3Fu) == 0) {
        table.set_overhead_bytes(pdb_bytes + queue.bytes());
        if (opt_.should_stop && opt_.should_stop()) {
          return end(PassEnd::Stopped);
        }
        if (expanded != 0) {
          expanded_counter_.add(64);
          // Every 16 checkpoints: enough to see frontier progress without
          // swamping the ring; the sampler's wall-clock limit (due()) keeps
          // the O(open-list) summary off fast solves' critical path.
          if ((expanded & 0x3FFu) == 0) {
            if (obs::trace_enabled()) {
              obs::trace_instant("astar.checkpoint", "expanded", expanded);
            }
            if (opt_.progress != nullptr && opt_.progress->due()) {
              obs::ProgressObservation ob;
              ob.expanded = expanded;
              // At w = 1 the popped f is the open list's least: a certified
              // lower bound. A weighted pass pops out of f order, so it
              // reports what the earlier passes proved.
              ob.frontier_f_scaled = unit ? popped : floor;
              ob.incumbent_scaled = has_trace() ? incumbent_ : -1;
              best_first::summarize_open(queue, ob);
              ob.dup_skipped = stats_.dup_skipped;
              ob.dead_prunes = stats_.dead_prunes;
              ob.attr_counting = stats_.attr_counting;
              ob.attr_pdb = stats_.attr_pdb;
              ob.spilled_states =
                  stats_.spilled_states + table.spilled_states();
              ob.spill_bytes = stats_.spill_bytes + table.spill_bytes();
              ob.merge_passes = stats_.merge_passes + table.merge_passes();
              opt_.progress->observe(ob);
            }
          }
        }
      }
      if (opt_.progress != nullptr) {
        best_first::attribute_bound(bound_, masks, stats_.attr_counting,
                                    stats_.attr_pdb);
      }
      ++expanded;

      // Probe, then price, then insert (bigstate/ddd.hpp): a stale successor
      // costs no bound evaluation, a dead or over-incumbent one no slot.
      bound_.legal_moves(masks, moves_);
      for (const Move& move : moves_) {
        const Packed next = current.apply(move);
        const std::int64_t next_g = g + scaled_move_cost(model_, move.type);
        const auto probe = table.probe(next.key(), next_g);
        if (probe.verdict == Table::Relax::Stale) continue;
        Masks next_masks = masks;
        next_masks.apply(move);
        const std::optional<std::int64_t> h =
            bound_.lower_bound_scaled(next_masks);
        if (!h) {
          ++stats_.dead_prunes;  // provably dead: prune
          continue;
        }
        const std::int64_t next_f = next_g + *h;
        if (next_f >= incumbent_) continue;  // no winner lives beyond it
        if (table.insert(probe, next.key(), next_g, item.key, move) ==
            Table::Relax::OutOfMemory) {
          return end(PassEnd::Memory);
        }
        queue.push(priority(next_g, *h), Item(next.key(), next_g, next_f));
      }
    }
    return end(PassEnd::Drained);
  }

 private:
  const Model& model_;
  const ExactSearchOptions& opt_;
  ExactSearchStats& stats_;
  const std::size_t n_;
  const std::int64_t ceiling_;
  std::optional<bigstate::SpillDirectory> spill_dir_;
  std::optional<PatternDatabase> pdb_;
  StateBoundEvaluator bound_;
  const Packed start_;
  std::int64_t incumbent_;
  std::optional<Trace> found_;  ///< the cheapest completion a pass found
  std::vector<Move> moves_;     ///< the expanded state's legal moves
  obs::Counter& expanded_counter_ =
      obs::MetricsRegistry::instance().counter("search.expanded");
};

template <typename Packed, typename Masks>
std::optional<ExactResult> exact_search(const Engine& engine,
                                        const ExactSearchOptions& opt,
                                        ExactSearchStats& stats) {
  const obs::TraceSpan search_span("astar.search", "nodes",
                                   engine.dag().node_count());
  BestFirstSearch<Packed, Masks> search(engine, opt, stats);
  auto give_up = [&](ExactTermination why) -> std::optional<ExactResult> {
    stats.termination = why;
    return std::nullopt;
  };
  if (search.pdb_aborted()) return give_up(ExactTermination::Stopped);
  // Nothing below the seed (a dead start included: a verified seed proves
  // the instance completable) makes the seed optimal.
  auto exhausted = [&]() -> std::optional<ExactResult> {
    if (opt.seed) return best_first::seed_optimum(engine, opt, stats);
    return give_up(ExactTermination::Exhausted);
  };
  const std::optional<std::int64_t> start_h = search.start_bound();
  if (!start_h || *start_h >= search.incumbent()) return exhausted();
  const PassEnd end =
      search.pass({1, 1}, opt.max_states, *start_h, *start_h).end;
  if (end == PassEnd::Drained) return exhausted();
  if (end != PassEnd::Completion) return give_up(unfinished(end));
  stats.termination = ExactTermination::Solved;
  return ExactResult{
      search.take_trace(),
      Rational(search.incumbent(), engine.model().epsilon().den()),
      stats.states_expanded};
}

template <typename Packed, typename Masks>
std::optional<AnytimeResult> anytime_search(const Engine& engine,
                                            const ExactSearchOptions& opt,
                                            const AnytimeOptions& any,
                                            ExactSearchStats& stats) {
  const obs::TraceSpan search_span("anytime.search", "nodes",
                                   engine.dag().node_count());
  const std::int64_t eps_den = engine.model().epsilon().den();
  BestFirstSearch<Packed, Masks> search(engine, opt, stats);
  if (search.pdb_aborted()) {
    stats.termination = ExactTermination::Stopped;
    return std::nullopt;
  }
  const std::optional<std::int64_t> start_h = search.start_bound();

  // A dead start admits no completion at all — unless a verified seed
  // proved one exists, in which case nothing can price below it.
  if (!start_h && !opt.seed) {
    stats.termination = ExactTermination::Exhausted;
    return std::nullopt;
  }
  // The proved lower bound on the optimum. The admissible start bound never
  // exceeds a verified completion's cost, so the clamp is purely defensive.
  std::int64_t L = std::min(start_h.value_or(search.incumbent()),
                            search.incumbent());

  auto finish = [&](ExactTermination term) -> std::optional<AnytimeResult> {
    const std::int64_t C = search.incumbent();
    stats.termination = term;
    stats.lower_bound_scaled = L;
    if (!search.has_trace()) return std::nullopt;
    stats.incumbent_scaled = C;
    stats.seed_won = search.seed_holds() && C == L;
    AnytimeResult result;
    result.trace = search.take_trace();
    result.cost = Rational(C, eps_den);
    result.lower_bound = Rational(L, eps_den);
    result.optimal = (C == L);
    // lower_bound == 0 < cost: no finite ε makes cost ≤ (1+ε)·0 hold.
    result.certified = result.optimal || L > 0;
    result.epsilon = result.optimal || L == 0 ? Rational(0, 1)
                                              : Rational(C - L, L);
    result.states_expanded = stats.states_expanded;
    return result;
  };

  const std::vector<AnytimeWeight> schedule =
      any.weights.empty() ? std::vector<AnytimeWeight>{{1, 1}} : any.weights;
  const std::size_t& expanded = stats.states_expanded;
  for (std::size_t pass = 0; pass < schedule.size(); ++pass) {
    const std::int64_t C = search.incumbent();
    if (C <= L) return finish(ExactTermination::Solved);
    // Stopping rule only — the certificate already meets the target.
    if (search.has_trace() && L > 0 &&
        static_cast<double>(C - L) <=
            any.target_epsilon * static_cast<double>(L)) {
      return finish(ExactTermination::StateBudget);
    }
    if (expanded >= opt.max_states) break;

    const obs::TraceSpan pass_span("anytime.pass", "pass", pass);
    // This pass's slice of the global expansion budget; the last pass takes
    // whatever remains.
    const std::size_t pass_budget =
        expanded + std::max<std::size_t>(
                       1, (opt.max_states - expanded) / (schedule.size() - pass));
    const PassResult result =
        search.pass(schedule[pass], pass_budget, *start_h, L);
    // A cancelled or starved pass proves nothing beyond its predecessors.
    if (result.end == PassEnd::Stopped || result.end == PassEnd::Memory) {
      return finish(unfinished(result.end));
    }
    ++stats.anytime_passes;
    if (result.end == PassEnd::Cut) {
      L = std::max(L, result.frontier);
      continue;
    }
    // Completion or Drained: nothing below the incumbent is left open. With
    // an incumbent that proves it optimal — at any weight, since pruning
    // was unweighted; without one the instance has no completion at all.
    if (!search.has_trace()) return finish(ExactTermination::Exhausted);
    L = search.incumbent();
    return finish(ExactTermination::Solved);
  }
  return finish(search.incumbent() <= L ? ExactTermination::Solved
                                        : ExactTermination::StateBudget);
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
  return best_first::dispatch_width(
      n, options, [&]<typename Packed, typename Masks>() {
        return exact_search<Packed, Masks>(engine, options, *stats);
      });
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
  return best_first::value_or_throw(
      try_solve_exact_astar(engine, max_states, {}, &stats), stats,
      "solve_exact_astar");
}

std::optional<AnytimeResult> try_solve_anytime_astar(
    const Engine& engine, const ExactSearchOptions& options,
    const AnytimeOptions& anytime, ExactSearchStats* stats) {
  const std::size_t n = engine.dag().node_count();
  RBPEB_REQUIRE(n <= kExactAstarMaxNodes,
                "solve_anytime_astar supports at most 1024 nodes");
  for (const AnytimeWeight& w : anytime.weights) {
    RBPEB_REQUIRE(valid_anytime_weight(w),
                  "anytime weights must be ratios from 1 to " +
                      std::to_string(kMaxAnytimeWeight) +
                      " with numerators below 2^32");
  }
  RBPEB_REQUIRE(anytime.target_epsilon >= 0.0,
                "target epsilon must be nonnegative");
  ExactSearchStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = {};  // a reused struct must not accumulate across calls
  return best_first::dispatch_width(
      n, options, [&]<typename Packed, typename Masks>() {
        return anytime_search<Packed, Masks>(engine, options, anytime, *stats);
      });
}

}  // namespace rbpeb
