#include "src/solvers/hda/hda_astar.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <mutex>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/graph/dag_algorithms.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/pebble/bounds.hpp"
#include "src/solvers/best_first.hpp"
#include "src/solvers/exact_astar.hpp"
#include "src/solvers/hda/shard.hpp"
#include "src/solvers/hda/termination.hpp"
#include "src/support/check.hpp"

namespace rbpeb {

static_assert(kHdaAstarMaxNodes == StateBoundEvaluator::kVecMaskMaxNodes,
              "the search cap is the runtime-width bound cap");

namespace {

using hda::kRouteBatchSize;
using hda::Mailbox;
using hda::SafraRing;
using hda::Shard;
using hda::StateMsg;
using hda::WorkerLedger;

/// Shared search context: everything the workers coordinate through.
template <typename Packed>
struct SearchContext {
  using Key = typename Packed::Key;

  SearchContext(std::size_t node_count, std::size_t workers,
                std::size_t bucket_count, std::size_t table_bytes_each,
                const std::vector<std::string>& spill_partitions,
                std::size_t disk_bytes_each, std::int64_t no_incumbent)
      : ring(workers), incumbent(no_incumbent) {
    shards.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i) {
      shards.push_back(std::make_unique<Shard<Packed>>(
          node_count, bucket_count, table_bytes_each,
          spill_partitions.empty() ? std::string() : spill_partitions[i],
          disk_bytes_each));
    }
  }

  Shard<Packed>& shard(std::size_t i) { return *shards[i]; }

  std::vector<std::unique_ptr<Shard<Packed>>> shards;  // mailboxes pin them
  SafraRing ring;

  /// Scaled g of the best complete state seen; pruning anything priced at or
  /// above it is what turns quiescence into an optimality certificate. A
  /// stale (higher) read only delays a prune, so relaxed loads suffice.
  std::atomic<std::int64_t> incumbent;
  std::mutex goal_mutex;
  Key goal_key{};
  bool has_goal = false;

  /// Exact global expansion count; workers reserve one ticket per expansion,
  /// so the state budget lands on the same count at any thread count.
  std::atomic<std::size_t> expanded{0};

  /// Introspection aggregates. Workers accumulate thread-locally and fold
  /// in at their 64-expansion checkpoints and on exit (relaxed adds off the
  /// hot path), so after the join they are exact; mid-search reads by the
  /// sampling worker are the documented approximation.
  std::atomic<std::size_t> dup_skipped{0};
  std::atomic<std::size_t> dead_prunes{0};
  std::atomic<std::size_t> attr_counting{0};
  std::atomic<std::size_t> attr_pdb{0};

  std::atomic<bool> abort{false};
  std::atomic<int> abort_why{-1};
  std::mutex error_mutex;
  std::exception_ptr error;

  void abort_with(ExactTermination why) {
    int expected = -1;
    abort_why.compare_exchange_strong(expected, static_cast<int>(why),
                                      std::memory_order_relaxed);
    abort.store(true, std::memory_order_release);
  }
};

/// `sampler` (may be null) drives the progress/attribution probes; worker 0
/// is the designated snapshot writer — its own shard's open list and spill
/// counters stand in for the whole search (the only shard it may touch
/// without racing), while expansion count and incumbent are global.
/// `no_incumbent` is the context's sentinel (ceiling + 1): any incumbent
/// below it is a real completion (or the verified seed) worth reporting.
template <typename Packed, typename Masks>
void hda_worker(const Engine& engine, SearchContext<Packed>& ctx,
                const std::optional<PatternDatabase>& pdb, std::size_t wid,
                std::size_t max_states, const StopPredicate& should_stop,
                obs::SearchProgressSampler* sampler,
                std::int64_t no_incumbent) {
  const Dag& dag = engine.dag();
  const Model& model = engine.model();
  const std::size_t n = dag.node_count();
  const std::size_t workers = ctx.shards.size();
  Shard<Packed>& self = ctx.shard(wid);
  using Table = typename Shard<Packed>::Table;

  // Per-worker span: each worker is its own thread, so its events land on
  // their own trace track — per-shard mailbox/eviction activity reads
  // directly off the timeline.
  const obs::TraceSpan worker_span("hda.worker", "shard", wid);
  obs::Counter& expanded_counter =
      obs::MetricsRegistry::instance().counter("search.expanded");

  StateBoundEvaluator bound = best_first::make_bound(engine, pdb);  // shared
  // The shared PDB tables and this worker's bucket arrays are budgeted
  // against this shard's table cap; the queue share refreshes per poll.
  const std::size_t pdb_share = pdb ? pdb->table_bytes() / workers : 0;
  self.table.set_overhead_bytes(pdb_share + self.queue.bytes());
  WorkerLedger ledger;
  std::vector<std::vector<StateMsg<Packed>>> out(workers);
  std::vector<StateMsg<Packed>> inbox;
  std::vector<Move> moves;  // the expanded state's legal moves
  std::size_t local_expanded = 0;
  std::size_t idle_spins = 0;
  std::size_t local_dup = 0, local_dead = 0;
  std::size_t local_attr_counting = 0, local_attr_pdb = 0;
  auto flush_introspection = [&] {
    if (local_dup != 0) ctx.dup_skipped.fetch_add(local_dup,
                                                  std::memory_order_relaxed);
    if (local_dead != 0) ctx.dead_prunes.fetch_add(local_dead,
                                                   std::memory_order_relaxed);
    if (local_attr_counting != 0) {
      ctx.attr_counting.fetch_add(local_attr_counting,
                                  std::memory_order_relaxed);
    }
    if (local_attr_pdb != 0) {
      ctx.attr_pdb.fetch_add(local_attr_pdb, std::memory_order_relaxed);
    }
    local_dup = local_dead = local_attr_counting = local_attr_pdb = 0;
  };

  // Relax one priced state into this shard's table/queue. Messages losing to
  // an equal-or-better path, or priced at or above the incumbent, die here.
  auto accept = [&](const StateMsg<Packed>& m) {
    if (m.f >= ctx.incumbent.load(std::memory_order_relaxed)) return;
    switch (self.table.relax(m.key, m.g, m.parent, m.via)) {
      case Table::Relax::OutOfMemory:
        ctx.abort_with(ExactTermination::MemoryBudget);
        return;
      case Table::Relax::Stale:
        return;
      case Table::Relax::Inserted:
      case Table::Relax::Improved:
        break;
    }
    self.queue.push(m.f, {m.key, m.g, m.f});
  };

  // Route a generated state to its owner: same-shard states relax in place,
  // the rest ride per-target batches. Credit counts at enqueue so an
  // in-flight message is always covered by its sender (termination.hpp).
  // Batching amortizes the mailbox lock under load; with the local queue
  // drained this expansion is the last local work, so ship immediately —
  // on serial instances (chains) the whole search is such hand-offs and
  // latency, not lock traffic, is the cost that matters.
  auto route = [&](StateMsg<Packed> m) {
    const std::size_t target = hda::owner_of<Packed>(m.key, workers);
    if (target == wid) {
      accept(m);
      return;
    }
    out[target].push_back(std::move(m));
    ++ledger.credit;
    if (out[target].size() >= kRouteBatchSize || self.queue.empty()) {
      ctx.shard(target).mailbox.deliver(out[target]);
      out[target].clear();
    }
  };

  auto flush_all = [&] {
    for (std::size_t t = 0; t < workers; ++t) {
      if (!out[t].empty()) {
        ctx.shard(t).mailbox.deliver(out[t]);
        out[t].clear();
      }
    }
  };

  while (true) {
    if (ctx.abort.load(std::memory_order_acquire)) break;
    if (ctx.ring.certified()) break;

    // Incoming states first: they may undercut what the local queue holds.
    if (self.mailbox.drain(inbox) > 0) {
      ledger.credit -= static_cast<std::int64_t>(inbox.size());
      ledger.black = true;
      idle_spins = 0;
      obs::trace_instant("hda.mailbox_drain", "messages", inbox.size());
      for (const StateMsg<Packed>& m : inbox) accept(m);
    }

    if (self.queue.empty()) {
      // Idle: push any straggler batches out (unflushed credit would keep
      // the ring from ever certifying), then offer the token. A worker that
      // stays starved backs off to a short sleep — on an oversubscribed
      // machine, yield-spinning idlers would otherwise steal most of the
      // busy workers' cycles.
      flush_all();
      if (!self.mailbox.empty()) continue;
      if (ctx.ring.try_pass(wid, ledger)) break;
      if (++idle_spins > 64) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      } else {
        std::this_thread::yield();
      }
      continue;
    }
    idle_spins = 0;

    auto [f, item] = self.queue.pop();
    // Expansion gate: stale-g check plus the delayed duplicate check
    // against this shard's spill runs — each (key, g) expands at most once.
    const auto pop_verdict = self.table.begin_expansion(item.key, item.g);
    if (pop_verdict == Table::Pop::OutOfMemory) {
      ctx.abort_with(ExactTermination::MemoryBudget);
      break;
    }
    if (pop_verdict == Table::Pop::Skip) {
      ++local_dup;
      continue;
    }
    if (f >= ctx.incumbent.load(std::memory_order_relaxed)) continue;
    const std::int64_t g = item.g;
    const Packed current = Packed::from_key(item.key, n);
    // One mask extraction per expansion; successors and their masks below
    // are derived from it in O(1) each — packed keys and bound masks alike.
    const Masks masks = Masks::from(current, n);
    if (bound.is_complete(masks)) {
      const std::lock_guard<std::mutex> lock(ctx.goal_mutex);
      if (!ctx.has_goal || g < ctx.incumbent.load(std::memory_order_relaxed)) {
        ctx.has_goal = true;
        ctx.goal_key = item.key;
        ctx.incumbent.store(g, std::memory_order_relaxed);
      }
      continue;  // never expanded: no completion extends a complete state for free
    }
    // Entry poll included (local_expanded == 0): an expired deadline stops
    // this worker before it burns a poll interval of expansions. The same
    // checkpoint refreshes the queue's share of the memory budget.
    if ((local_expanded & 0x3Fu) == 0) {
      self.table.set_overhead_bytes(pdb_share + self.queue.bytes());
      flush_introspection();
      if (should_stop && should_stop()) {
        ctx.abort_with(ExactTermination::Stopped);
        break;
      }
      if (local_expanded != 0) {
        expanded_counter.add(64);
        if ((local_expanded & 0x3FFu) == 0 && obs::trace_enabled()) {
          obs::trace_instant("hda.checkpoint", "expanded", local_expanded);
        }
        // Worker 0 is the single snapshot writer: global expansion count
        // and incumbent, own-shard open list and spill counters (the only
        // shard it may read without racing — the documented approximation).
        if ((local_expanded & 0x3FFu) == 0 && wid == 0 && sampler != nullptr &&
            sampler->due()) {
          obs::ProgressObservation ob;
          ob.expanded = ctx.expanded.load(std::memory_order_relaxed);
          ob.frontier_f_scaled = f;
          const std::int64_t inc =
              ctx.incumbent.load(std::memory_order_relaxed);
          ob.incumbent_scaled = inc < no_incumbent ? inc : -1;
          best_first::summarize_open(self.queue, ob);
          ob.dup_skipped = ctx.dup_skipped.load(std::memory_order_relaxed);
          ob.dead_prunes = ctx.dead_prunes.load(std::memory_order_relaxed);
          ob.attr_counting =
              ctx.attr_counting.load(std::memory_order_relaxed);
          ob.attr_pdb = ctx.attr_pdb.load(std::memory_order_relaxed);
          ob.spilled_states = self.table.spilled_states();
          ob.spill_bytes = self.table.spill_bytes();
          ob.merge_passes = self.table.merge_passes();
          sampler->observe(ob);
        }
      }
    }
    const std::size_t ticket =
        ctx.expanded.fetch_add(1, std::memory_order_relaxed);
    if (ticket >= max_states) {
      ctx.expanded.fetch_sub(1, std::memory_order_relaxed);
      ctx.abort_with(ExactTermination::StateBudget);
      break;
    }
    ++local_expanded;

    if (sampler != nullptr) {
      best_first::attribute_bound(bound, masks, local_attr_counting,
                                  local_attr_pdb);
    }
    bound.legal_moves(masks, moves);
    for (const Move& move : moves) {
      const Packed next = current.apply(move);
      const std::int64_t next_g = g + scaled_move_cost(model, move.type);
      Masks next_masks = masks;
      next_masks.apply(move);
      std::optional<std::int64_t> h = bound.lower_bound_scaled(next_masks);
      if (!h) {
        ++local_dead;  // provably dead: prune
        continue;
      }
      const std::int64_t next_f = next_g + *h;
      if (next_f >= ctx.incumbent.load(std::memory_order_relaxed)) continue;
      route({next.key(), item.key, next_g, next_f, move});
    }
  }
  flush_introspection();
}

/// HDA* pays per-state routing latency; on an instance whose search frontier
/// is a single state (level width 1 — chains), that is all it does. Fall
/// back to one worker there: the sequential path costs nothing to detect
/// and beats an 8-thread game of pass-the-parcel by orders of magnitude.
bool serial_instance(const Dag& dag) {
  const std::size_t n = dag.node_count();
  if (n < 2) return true;
  std::vector<std::size_t> width(longest_path_length(dag) + 1, 0);
  for (std::size_t d : node_depths(dag)) {
    if (++width[d] > 1) return false;
  }
  return true;
}

/// Workers a search may run under its memory budget. Each shard gets an
/// even share of the budget. Without spilling, a share below one slot slab
/// cannot hold even the start state, and one below a table's first growth
/// stops the shard at its first slab — splitting such a budget only
/// fragments it. Run fewer workers instead, so a tight budget bites the way
/// it does in the serial search at any thread count. (A spilling shard
/// admits its first slab regardless and sheds the rest to its partition.)
template <typename Packed>
std::size_t budgeted_workers(std::size_t workers,
                             const ExactSearchOptions& opt) {
  if (opt.max_memory_bytes == 0 || bigstate_spill_enabled(opt)) return workers;
  return std::clamp<std::size_t>(
      opt.max_memory_bytes / SpillingClosedTable<Packed>::first_growth_bytes(),
      1, workers);
}

/// The sharded search proper, for two or more workers.
template <typename Packed, typename Masks>
std::optional<ExactResult> hda_impl(const Engine& engine, std::size_t workers,
                                    const ExactSearchOptions& opt,
                                    ExactSearchStats& stats) {
  const std::size_t n = engine.dag().node_count();
  const std::int64_t eps_den = engine.model().epsilon().den();
  auto give_up = [&](ExactTermination why) -> std::optional<ExactResult> {
    stats.termination = why;
    return std::nullopt;
  };

  // The incumbent starts one past the universal ceiling — or at the seed's
  // verified cost, pruning speculation above a known completion from move
  // one — so "f >= incumbent" subsumes the ceiling prune of the sequential
  // A* until a real complete state undercuts it.
  const std::int64_t ceiling = best_first::search_ceiling(engine);
  const std::int64_t seeded_incumbent =
      opt.seed ? std::min(ceiling + 1, opt.seed->g_scaled) : ceiling + 1;

  const std::optional<PatternDatabase> pdb = best_first::build_pdb(engine, opt);
  if (pdb && pdb->build_aborted()) return give_up(ExactTermination::Stopped);

  // One spill directory per search, one private partition per shard: run
  // files stay single-owner, so the disk path needs no locks. Declared
  // before the context so the shards' run files die first.
  std::optional<bigstate::SpillDirectory> spill_dir =
      make_spill_directory(opt);
  std::vector<std::string> spill_partitions;
  if (spill_dir) {
    spill_partitions.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      spill_partitions.push_back(
          spill_dir->partition("shard-" + std::to_string(w)));
    }
  }
  SearchContext<Packed> ctx(
      n, workers, static_cast<std::size_t>(ceiling) + 1,
      opt.max_memory_bytes == 0 ? 0
                                : std::max<std::size_t>(
                                      1, opt.max_memory_bytes / workers),
      spill_partitions,
      opt.max_disk_bytes == 0
          ? 0
          : std::max<std::size_t>(1, opt.max_disk_bytes / workers),
      seeded_incumbent);
  stats.threads_used = workers;
  auto fold_shards = [&] {
    for (const auto& shard : ctx.shards) {
      best_first::fold_table_stats(stats, shard->table, /*concurrent=*/true);
    }
  };

  const Packed start = Packed::from_state(engine.initial_state());
  {
    StateBoundEvaluator bound = best_first::make_bound(engine, pdb);
    std::optional<std::int64_t> start_h = bound.lower_bound_scaled(start);
    if (!start_h || *start_h >= seeded_incumbent) {
      if (opt.seed) return best_first::seed_optimum(engine, opt, stats);
      return give_up(ExactTermination::Exhausted);
    }
    // Seed the owner shard before any worker exists; thread creation
    // publishes it.
    Shard<Packed>& home =
        ctx.shard(hda::owner_of<Packed>(start.key(), workers));
    if (home.table.relax(start.key(), 0, start.key(),
                         Move{MoveType::Load, 0}) ==
        Shard<Packed>::Table::Relax::OutOfMemory) {
      fold_shards();
      return give_up(ExactTermination::MemoryBudget);
    }
    home.queue.push(*start_h, {start.key(), 0, *start_h});
  }

  const obs::TraceSpan search_span("hda.search", "workers", workers);
  // Worker threads are fresh: hand them the spawner's trace context so their
  // spans keep the originating request id.
  const std::uint64_t trace_ctx = obs::trace_context();
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      const obs::ScopedTraceContext ctx_scope(trace_ctx);
      try {
        hda_worker<Packed, Masks>(engine, ctx, pdb, w, opt.max_states,
                                  opt.should_stop, opt.progress, ceiling + 1);
      } catch (...) {
        {
          const std::lock_guard<std::mutex> lock(ctx.error_mutex);
          if (!ctx.error) ctx.error = std::current_exception();
        }
        ctx.abort_with(ExactTermination::Stopped);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  stats.states_expanded = ctx.expanded.load(std::memory_order_relaxed);
  stats.dup_skipped = ctx.dup_skipped.load(std::memory_order_relaxed);
  stats.dead_prunes = ctx.dead_prunes.load(std::memory_order_relaxed);
  stats.attr_counting = ctx.attr_counting.load(std::memory_order_relaxed);
  stats.attr_pdb = ctx.attr_pdb.load(std::memory_order_relaxed);
  fold_shards();
  if (ctx.error) std::rethrow_exception(ctx.error);
  if (ctx.abort.load(std::memory_order_acquire)) {
    return give_up(static_cast<ExactTermination>(
        ctx.abort_why.load(std::memory_order_relaxed)));
  }
  if (!ctx.has_goal) {
    // Quiescence with no goal: with a seed it proves nothing beats the
    // seed; without one the reachable graph is exhausted.
    if (opt.seed) return best_first::seed_optimum(engine, opt, stats);
    return give_up(ExactTermination::Exhausted);
  }

  // Quiescence proved nothing open prices below the incumbent, so the chain
  // of tree edges behind goal_key is an optimal pebbling. Every entry lives
  // in its key's owner shard; all shards are safely readable after the join.
  // Settle each shard first: an evicted-then-regenerated ancestor's RAM
  // entry could otherwise splice a worse tree edge into the optimal trace.
  for (auto& shard : ctx.shards) shard->table.settle();
  ExactResult result;
  result.trace =
      best_first::walk_trace(ctx.goal_key, start.key(), [&](const auto& key) {
        return ctx.shard(hda::owner_of<Packed>(key, workers)).table.at(key);
      });
  result.cost = Rational(ctx.incumbent.load(std::memory_order_relaxed), eps_den);
  result.states_expanded = stats.states_expanded;
  stats.termination = ExactTermination::Solved;
  return result;
}

}  // namespace

std::size_t hda_resolve_threads(std::size_t threads) {
  RBPEB_REQUIRE(threads <= kHdaAstarMaxThreads,
                "hda-astar supports at most " +
                    std::to_string(kHdaAstarMaxThreads) + " threads");
  if (threads != 0) return threads;
  const auto hw = static_cast<std::size_t>(std::thread::hardware_concurrency());
  // The hw fallback honors the same cap explicit requests are checked
  // against; a >256-thread machine gets the cap, not a throw or a bypass.
  return std::clamp<std::size_t>(hw, 1, kHdaAstarMaxThreads);
}

std::optional<ExactResult> try_solve_hda_astar(
    const Engine& engine, std::size_t threads,
    const ExactSearchOptions& options, ExactSearchStats* stats) {
  const std::size_t n = engine.dag().node_count();
  RBPEB_REQUIRE(n <= kHdaAstarMaxNodes,
                "solve_hda_astar supports at most 1024 nodes");
  std::size_t workers = hda_resolve_threads(threads);
  if (workers > 1 && serial_instance(engine.dag())) workers = 1;
  ExactSearchStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = {};
  return best_first::dispatch_width(
      n, options, [&]<typename Packed, typename Masks>() {
        workers = budgeted_workers<Packed>(workers, options);
        if (workers > 1) {
          return hda_impl<Packed, Masks>(engine, workers, options, *stats);
        }
        // One worker runs exact-astar's serial pass: no mailbox, no token
        // ring, and the search stops at its first completion.
        auto result = try_solve_exact_astar(engine, options, stats);
        stats->threads_used = 1;
        return result;
      });
}

std::optional<ExactResult> try_solve_hda_astar(const Engine& engine,
                                               std::size_t threads,
                                               std::size_t max_states,
                                               const StopPredicate& should_stop,
                                               ExactSearchStats* stats) {
  ExactSearchOptions options;
  options.max_states = max_states;
  options.should_stop = should_stop;
  return try_solve_hda_astar(engine, threads, options, stats);
}

ExactResult solve_hda_astar(const Engine& engine, std::size_t threads,
                            std::size_t max_states) {
  ExactSearchStats stats;
  return best_first::value_or_throw(
      try_solve_hda_astar(engine, threads, max_states, {}, &stats), stats,
      "solve_hda_astar");
}

}  // namespace rbpeb
