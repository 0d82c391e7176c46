#include "src/solvers/bigstate/pdb.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <functional>
#include <limits>
#include <map>
#include <numeric>
#include <span>

#include "src/graph/dag_algorithms.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/pebble/bounds.hpp"
#include "src/support/check.hpp"

namespace rbpeb {

std::vector<std::vector<NodeId>> partition_into_patterns(
    const Dag& dag, std::size_t max_pattern_size) {
  const std::size_t cap =
      std::clamp<std::size_t>(max_pattern_size, 1,
                              PatternDatabase::kMaxHashedPatternSize);
  const std::size_t n = dag.node_count();
  std::vector<std::vector<NodeId>> patterns;
  std::vector<std::size_t> pattern_of(n, static_cast<std::size_t>(-1));
  for (NodeId v : topological_order(dag)) {
    // Count how many of v's direct predecessors each open pattern holds;
    // joining the densest one keeps ancestor cones together, which is where
    // the pebbling interaction the heuristic should see lives.
    std::size_t best = static_cast<std::size_t>(-1);
    std::size_t best_preds = 0;
    for (NodeId p : dag.predecessors(v)) {
      const std::size_t candidate = pattern_of[p];
      if (patterns[candidate].size() >= cap) continue;
      std::size_t preds_here = 0;
      for (NodeId q : dag.predecessors(v)) {
        if (pattern_of[q] == candidate) ++preds_here;
      }
      if (preds_here > best_preds) {
        best_preds = preds_here;
        best = candidate;
      }
    }
    if (best == static_cast<std::size_t>(-1)) {
      // No predecessor pattern has room (or v is a source): reuse the most
      // recently opened pattern when it has room — fewer, fuller patterns
      // mean fewer table lookups per evaluation — else open a fresh one.
      if (!patterns.empty() && patterns.back().size() < cap) {
        best = patterns.size() - 1;
      } else {
        patterns.emplace_back();
        best = patterns.size() - 1;
      }
    }
    pattern_of[v] = best;
    patterns[best].push_back(v);
  }
  return patterns;
}

std::vector<std::vector<NodeId>> partition_into_patterns_mincut(
    const Dag& dag, std::size_t max_pattern_size) {
  const std::size_t cap =
      std::clamp<std::size_t>(max_pattern_size, 1,
                              PatternDatabase::kMaxHashedPatternSize);
  const std::size_t n = dag.node_count();
  if (n == 0) return {};
  const std::vector<NodeId> order = topological_order(dag);
  std::vector<std::size_t> pos(n, 0);
  for (std::size_t i = 0; i < n; ++i) pos[order[i]] = i;

  // crossing[k] = number of edges (u, v) with pos[u] < k <= pos[v] — the
  // edges a segment boundary at k abstracts away. Built as a difference
  // array: each edge crosses every boundary in (pos[u], pos[v]].
  std::vector<std::int64_t> crossing(n + 2, 0);
  for (std::size_t v = 0; v < n; ++v) {
    for (NodeId u : dag.predecessors(static_cast<NodeId>(v))) {
      const std::size_t lo = pos[u];
      const std::size_t hi = pos[v];
      crossing[lo + 1] += 1;
      crossing[hi + 1] -= 1;
    }
  }
  for (std::size_t k = 1; k <= n; ++k) crossing[k] += crossing[k - 1];

  // dp[k] = cheapest total crossing weight of the boundaries partitioning
  // the first k order positions into segments of at most `cap` nodes.
  constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max() / 2;
  std::vector<std::int64_t> dp(n + 1, kInf);
  std::vector<std::size_t> parent(n + 1, 0);
  dp[0] = 0;
  for (std::size_t k = 1; k <= n; ++k) {
    const std::size_t lo = k > cap ? k - cap : 0;
    for (std::size_t j = lo; j < k; ++j) {
      if (dp[j] == kInf) continue;
      // The boundary at k costs its crossing edges; the final boundary at n
      // closes the last segment for free (nothing crosses past the end).
      const std::int64_t cost = dp[j] + (k < n ? crossing[k] : 0);
      if (cost < dp[k]) {
        dp[k] = cost;
        parent[k] = j;
      }
    }
  }

  std::vector<std::size_t> cuts;
  for (std::size_t k = n; k > 0; k = parent[k]) cuts.push_back(k);
  std::reverse(cuts.begin(), cuts.end());
  std::vector<std::vector<NodeId>> patterns;
  std::size_t start = 0;
  for (std::size_t cut : cuts) {
    patterns.emplace_back(order.begin() + static_cast<std::ptrdiff_t>(start),
                          order.begin() + static_cast<std::ptrdiff_t>(cut));
    start = cut;
  }
  return patterns;
}

namespace {

/// 3-bit field of position `i` inside a packed projection index.
inline unsigned field_at(std::uint64_t index, std::size_t i) {
  return static_cast<unsigned>((index >> (3 * i)) & 7u);
}

inline std::uint64_t with_field(std::uint64_t index, std::size_t i,
                                unsigned f) {
  const std::size_t shift = 3 * i;
  return (index & ~(std::uint64_t{7} << shift)) |
         (static_cast<std::uint64_t>(f) << shift);
}

constexpr unsigned kNone = static_cast<unsigned>(PebbleColor::None);
constexpr unsigned kRed = static_cast<unsigned>(PebbleColor::Red);
constexpr unsigned kBlue = static_cast<unsigned>(PebbleColor::Blue);

/// Reorders a flat pattern's nodes canonically: among the orders that are
/// topological inside the pattern, the one whose per-position signature —
/// (source, sink) flags and the mask of in-pattern predecessor positions,
/// all earlier — is lexicographically smallest. The sequence records every
/// in-pattern edge at its head, so isomorphic patterns (equal up to
/// relabelling) land on equal sequences. A permutation is abandoned at the
/// first position that breaks topological order or exceeds the best
/// sequence, skipping every other permutation with that prefix. Sharing is
/// decided by the exact signature (AbstractGame::key), so this order only
/// has to be good, not right.
void canonicalize(std::vector<NodeId>& nodes, const Dag& dag,
                  bool sources_matter) {
  constexpr std::size_t kMax = PatternDatabase::kMaxPatternSize;
  const std::size_t p = nodes.size();
  std::array<unsigned, kMax> flags{};
  std::array<unsigned, kMax> preds{};  ///< bit j: nodes[j] is a predecessor
  for (std::size_t i = 0; i < p; ++i) {
    flags[i] = (dag.is_sink(nodes[i]) ? 1u : 0u) |
               (sources_matter && dag.is_source(nodes[i]) ? 2u : 0u);
    for (NodeId u : dag.predecessors(nodes[i])) {
      for (std::size_t j = 0; j < p; ++j) {
        if (nodes[j] == u) preds[i] |= 1u << j;
      }
    }
  }
  std::array<std::uint8_t, kMax> perm{};
  std::array<std::uint8_t, kMax> position{};
  std::iota(perm.begin(), perm.begin() + p, std::uint8_t{0});
  std::array<std::uint8_t, kMax> best_perm = perm;
  std::array<unsigned, kMax> best;
  best.fill(~0u);  // above every signature: the first complete order wins
  std::array<unsigned, kMax> signature{};
  do {
    bool smaller = false;
    unsigned placed = 0;
    std::size_t k = 0;
    for (; k < p; ++k) {
      const unsigned v = perm[k];
      if ((preds[v] & ~placed) != 0) break;  // not topological
      unsigned mask = 0;
      for (unsigned m = preds[v]; m != 0; m &= m - 1) {
        mask |= 1u << position[std::countr_zero(m)];
      }
      signature[k] = (flags[v] << kMax) | mask;
      if (!smaller) {
        if (signature[k] > best[k]) break;
        smaller = signature[k] < best[k];
      }
      position[v] = static_cast<std::uint8_t>(k);
      placed |= 1u << v;
    }
    if (k < p) {
      // Every permutation sharing perm[0..k] fails at k too: jump to the
      // last of them, so next_permutation moves on to the next prefix.
      std::sort(perm.begin() + k + 1, perm.begin() + p, std::greater<>());
      continue;
    }
    if (smaller) {
      best = signature;
      best_perm = perm;
    }
  } while (std::next_permutation(perm.begin(), perm.begin() + p));
  const std::vector<NodeId> original = nodes;
  for (std::size_t k = 0; k < p; ++k) nodes[k] = original[best_perm[k]];
}

}  // namespace

/// The abstract game of one pattern: every constraint of Engine::why_illegal
/// that only mentions the pattern's nodes, as word operations on packed
/// projection indices (field i at bits 3i..3i+2). A concrete-legal move on a
/// pattern node is always abstract-legal on the projection, which is what
/// makes the tables admissible.
struct PatternDatabase::AbstractGame {
  std::size_t width = 0;
  std::int64_t red_limit = 0;
  std::int64_t eps_num = 0;
  std::int64_t eps_den = 0;
  bool allows_recompute = true;
  bool allows_delete = true;
  bool sinks_end_blue = false;
  std::uint64_t low_bits = 0;     ///< bit 3i of every position i
  std::uint64_t source_bits = 0;  ///< Hong–Kung sources (never computable)
  std::uint64_t sink_bits = 0;    ///< DAG sinks
  /// Per position: bit 3j for each in-pattern direct predecessor j.
  std::vector<std::uint64_t> pred_bits;

  AbstractGame(const Engine& engine, const std::vector<NodeId>& nodes)
      : width(nodes.size()),
        red_limit(static_cast<std::int64_t>(engine.red_limit())),
        eps_num(engine.model().epsilon().num()),
        eps_den(engine.model().epsilon().den()),
        allows_recompute(engine.model().allows_recompute()),
        allows_delete(engine.model().allows_delete()),
        sinks_end_blue(engine.convention().sinks_end_blue),
        pred_bits(nodes.size(), 0) {
    const Dag& dag = engine.dag();
    for (std::size_t i = 0; i < width; ++i) {
      const std::uint64_t bit = std::uint64_t{1} << (3 * i);
      low_bits |= bit;
      if (engine.convention().sources_start_blue && dag.is_source(nodes[i])) {
        source_bits |= bit;
      }
      if (dag.is_sink(nodes[i])) sink_bits |= bit;
      for (NodeId u : dag.predecessors(nodes[i])) {
        for (std::size_t j = 0; j < width; ++j) {
          if (nodes[j] == u) pred_bits[i] |= std::uint64_t{1} << (3 * j);
        }
      }
    }
  }

  /// Everything the game reads of the pattern; equal keys (under one
  /// build's shared rules) mean byte-identical tables.
  std::vector<std::uint64_t> key() const {
    std::vector<std::uint64_t> k{width, source_bits, sink_bits};
    k.insert(k.end(), pred_bits.begin(), pred_bits.end());
    return k;
  }

  /// Red positions of `index`: color 01 at each field's low bit.
  std::uint64_t red_bits(std::uint64_t index) const {
    return index & ~(index >> 1) & low_bits;
  }

  bool room(std::uint64_t index) const {
    return std::popcount(red_bits(index)) < red_limit;
  }

  bool legal(std::uint64_t index, std::size_t i, MoveType type) const {
    const unsigned f = field_at(index, i);
    const unsigned color = f & 3u;
    switch (type) {
      case MoveType::Load:
        return color == kBlue && room(index);
      case MoveType::Store:
        return color == kRed;
      case MoveType::Compute:
        if ((source_bits >> (3 * i)) & 1u) return false;
        if (!allows_recompute && (f & 4u) != 0) return false;
        if (color == kRed) return false;
        if ((pred_bits[i] & ~red_bits(index)) != 0) return false;
        return room(index);
      case MoveType::Delete:
        return allows_delete && color != kNone;
    }
    return false;
  }

  /// relax(pre, cost) for every legal move pre → index, positions in
  /// ascending order (the hashed build's truncation point depends on it).
  template <class Relax>
  void for_each_preimage(std::uint64_t index, Relax&& relax) const {
    auto offer = [&](std::uint64_t pre, std::size_t i, MoveType type,
                     std::int64_t cost) {
      if (legal(pre, i, type)) relax(pre, cost);
    };
    for (std::size_t i = 0; i < width; ++i) {
      const unsigned f = field_at(index, i);
      const unsigned computed = f & 4u;
      switch (f & 3u) {
        case kRed:
          // Load lands on Red from Blue, computed untouched.
          offer(with_field(index, i, kBlue | computed), i, MoveType::Load,
                eps_den);
          if (computed != 0) {
            // Compute lands on Red+computed from None or Blue, either prior
            // computed flag (legal() enforces the oneshot rule).
            for (unsigned prior_color : {kNone, kBlue}) {
              for (unsigned prior_computed : {0u, 4u}) {
                offer(with_field(index, i, prior_color | prior_computed), i,
                      MoveType::Compute, eps_num);
              }
            }
          }
          break;
        case kBlue:
          offer(with_field(index, i, kRed | computed), i, MoveType::Store,
                eps_den);
          break;
        case kNone:
          for (unsigned prior_color : {kRed, kBlue}) {
            offer(with_field(index, i, prior_color | computed), i,
                  MoveType::Delete, 0);
          }
          break;
      }
    }
  }

  /// seed(index) for every goal projection — each position walks its valid
  /// fields (6 per non-sink, the sink-constrained subset otherwise), never
  /// the 8^width dense indices — position 0 fastest. Stops early, returning
  /// false, when seed does.
  template <class Seed>
  bool for_each_goal(Seed&& seed) const {
    static constexpr unsigned kAny[] = {kNone, kNone | 4u, kRed,
                                        kRed | 4u, kBlue, kBlue | 4u};
    static constexpr unsigned kStored[] = {kRed, kRed | 4u, kBlue, kBlue | 4u};
    static constexpr unsigned kBlueOnly[] = {kBlue, kBlue | 4u};
    std::vector<std::span<const unsigned>> choices(width);
    for (std::size_t i = 0; i < width; ++i) {
      if (((sink_bits >> (3 * i)) & 1u) == 0) {
        choices[i] = kAny;
      } else if (sinks_end_blue) {
        choices[i] = kBlueOnly;
      } else {
        choices[i] = kStored;
      }
    }
    std::vector<std::size_t> counter(width, 0);
    for (;;) {
      std::uint64_t index = 0;
      for (std::size_t i = 0; i < width; ++i) {
        index |= static_cast<std::uint64_t>(choices[i][counter[i]]) << (3 * i);
      }
      if (!seed(index)) return false;
      // Odometer step.
      std::size_t i = 0;
      while (i < width && ++counter[i] == choices[i].size()) counter[i++] = 0;
      if (i == width) return true;
    }
  }
};

bool PatternDatabase::HashedTable::grow(std::size_t* total_bytes,
                                        std::size_t byte_budget) {
  const std::size_t new_cap = slots_.empty() ? 1024 : slots_.size() * 2;
  // The rehash transient: the old and the new slot arrays coexist until the
  // re-insertion below finishes, and both count against the budget.
  const std::size_t old_bytes = bytes();
  const std::size_t new_bytes = new_cap * sizeof(Slot);
  if (*total_bytes + new_bytes > byte_budget) return false;
  std::vector<Slot> old = std::move(slots_);
  *total_bytes += new_bytes;
  slots_.assign(new_cap, Slot{});
  const std::size_t mask = new_cap - 1;
  for (const Slot& slot : old) {
    if (slot.key == kEmptyKey) continue;
    std::size_t s = hash(slot.key) & mask;
    while (slots_[s].key != kEmptyKey) s = (s + 1) & mask;
    slots_[s] = slot;
  }
  old.clear();
  old.shrink_to_fit();
  *total_bytes -= old_bytes;
  return true;
}

PatternDatabase::HashedTable::Slot* PatternDatabase::HashedTable::find_or_insert(
    std::uint64_t key, std::size_t* total_bytes, std::size_t byte_budget) {
  // Grow at 50% load (or on first insert) to keep probe chains short.
  if (slots_.empty() || 2 * (size_ + 1) > slots_.size()) {
    if (!grow(total_bytes, byte_budget)) {
      // Lookups of existing entries must still work after a refused growth.
      if (slots_.empty()) return nullptr;
      if (2 * size_ >= slots_.size()) return nullptr;  // genuinely full
    }
  }
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t s = hash(key) & mask;; s = (s + 1) & mask) {
    Slot& slot = slots_[s];
    if (slot.key == key) return &slot;
    if (slot.key == kEmptyKey) {
      slot.key = key;
      ++size_;
      return &slot;
    }
  }
}

PatternDatabase::PatternDatabase(const Engine& engine,
                                 std::size_t max_pattern_size,
                                 const StopPredicate& should_stop,
                                 PdbPartition partition,
                                 std::size_t table_byte_budget,
                                 bool force_hashed) {
  const Dag& dag = engine.dag();
  const std::size_t size =
      max_pattern_size == 0 ? kDefaultPatternSize : max_pattern_size;
  std::vector<std::vector<NodeId>> node_sets =
      partition == PdbPartition::MinCut
          ? partition_into_patterns_mincut(dag, size)
          : partition_into_patterns(dag, size);
  const std::int64_t cost_cap =
      universal_search_ceiling_scaled(dag, engine.model());
  const std::size_t byte_budget =
      table_byte_budget == 0 ? kDefaultHashedTableBytes : table_byte_budget;
  const obs::TraceSpan build_span("pdb.build", "patterns", node_sets.size());
  patterns_.resize(node_sets.size());
  // Exact game signature → its flat table; a table enters only once built.
  std::map<std::vector<std::uint64_t>, const std::int32_t*> table_of_shape;
  BucketQueue<std::uint32_t> flat_queue(static_cast<std::size_t>(cost_cap) + 1);
  for (std::size_t p = 0; p < node_sets.size() && !aborted_; ++p) {
    Pattern& pattern = patterns_[p];
    pattern.nodes = std::move(node_sets[p]);
    const std::size_t width = pattern.nodes.size();
    if (width > kMaxPatternSize || force_hashed) {
      const obs::TraceSpan pattern_span("pdb.pattern", "width", width);
      build_pattern_hashed(AbstractGame(engine, pattern.nodes), pattern,
                           cost_cap, should_stop, byte_budget);
      continue;
    }
    canonicalize(pattern.nodes, dag, engine.convention().sources_start_blue);
    const AbstractGame game(engine, pattern.nodes);
    std::vector<std::uint64_t> key = game.key();
    if (const auto it = table_of_shape.find(key); it != table_of_shape.end()) {
      pattern.completion = it->second;
      continue;
    }
    const obs::TraceSpan pattern_span("pdb.pattern", "width", width);
    std::vector<std::int32_t>& table = flat_tables_.emplace_back();
    if (!build_flat(game, table, flat_queue, cost_cap, should_stop)) {
      aborted_ = true;
      break;
    }
    table_bytes_ += table.size() * sizeof(std::int32_t);
    pattern.completion = table.data();
    table_of_shape.emplace(std::move(key), table.data());
  }
  table_bytes_ += hashed_bytes_;
  auto& registry = obs::MetricsRegistry::instance();
  registry.counter("pdb.builds").add();
  registry.gauge("pdb.table_bytes").set(static_cast<std::int64_t>(table_bytes_));
}

// The goal sweeps and the Dijkstras are the only unbounded loops in a PDB
// build; all poll the cooperative stop hook so a cancelled solve is never
// pinned behind an 8^8-entry table (the searches' poll cadence, scaled up —
// these iterations are far cheaper than an expansion).
constexpr std::size_t kStopPollMask = 0xFFFu;

bool PatternDatabase::build_flat(const AbstractGame& game,
                                 std::vector<std::int32_t>& table,
                                 BucketQueue<std::uint32_t>& queue,
                                 std::int64_t cost_cap,
                                 const StopPredicate& should_stop) {
  std::size_t polls = 0;
  auto stop = [&] {
    return (polls++ & kStopPollMask) == 0 && should_stop && should_stop();
  };
  // Backward Dijkstra from every complete projection over move pre-images.
  // Distances clamp at cost_cap (an underestimate, so still admissible —
  // and never reached in practice: cost_cap is the Section 3 universal
  // ceiling for the whole DAG).
  table.assign(std::size_t{1} << (3 * game.width), kUnreachable);
  const bool seeded = game.for_each_goal([&](std::uint64_t index) {
    if (stop()) return false;
    table[index] = 0;
    queue.push(0, static_cast<std::uint32_t>(index));
    return true;
  });
  if (!seeded) return false;

  polls = 0;
  while (!queue.empty()) {
    if (stop()) return false;
    const auto [d, index] = queue.pop();
    if (table[index] != d) continue;  // stale duplicate
    game.for_each_preimage(index, [&](std::uint64_t pre, std::int64_t cost) {
      const std::int64_t nd = std::min(d + cost, cost_cap);
      std::int32_t& entry = table[pre];
      if (entry != kUnreachable && entry <= nd) return;
      entry = static_cast<std::int32_t>(nd);
      queue.push(nd, static_cast<std::uint32_t>(pre));
    });
  }
  return true;
}

void PatternDatabase::build_pattern_hashed(const AbstractGame& game,
                                           Pattern& pattern,
                                           std::int64_t cost_cap,
                                           const StopPredicate& should_stop,
                                           std::size_t byte_budget) {
  // A sink-free pattern's abstract game requires nothing: every valid
  // projection is a goal at distance 0, exactly what the flat table holds
  // for such patterns. Serve the constant instead of materializing it.
  if (game.sink_bits == 0) {
    pattern.complete = false;
    pattern.floor = 0;
    return;
  }

  // Truncation state: once the byte budget refuses an insert, the build
  // stops immediately. Everything settled so far is exact; every other
  // abstract state's true completion cost is at least the distance being
  // expanded when the budget hit (Dijkstra settles in nondecreasing
  // order), so that distance becomes the admissible floor for absences.
  bool truncated = false;
  std::int64_t floor_d = 0;

  BucketQueue<std::uint64_t> queue(static_cast<std::size_t>(cost_cap) + 1);
  std::size_t polls = 0;
  game.for_each_goal([&](std::uint64_t index) {
    if ((polls++ & kStopPollMask) == 0 && should_stop && should_stop()) {
      aborted_ = true;
      return false;
    }
    HashedTable::Slot* slot =
        pattern.table.find_or_insert(index, &hashed_bytes_, byte_budget);
    if (slot == nullptr) {
      truncated = true;
      floor_d = 0;
      return false;
    }
    slot->dist = 0;
    queue.push(0, index);
    return true;
  });
  if (aborted_) return;

  polls = 0;
  while (!queue.empty() && !truncated) {
    if ((polls++ & kStopPollMask) == 0 && should_stop && should_stop()) {
      aborted_ = true;
      return;
    }
    const auto [d, index] = queue.pop();
    HashedTable::Slot* slot = pattern.table.find(index);
    RBPEB_ENSURE(slot != nullptr, "popped abstract state must be tabled");
    if (slot->dist != d) continue;  // stale duplicate
    slot->settled = true;
    game.for_each_preimage(index, [&](std::uint64_t pre, std::int64_t cost) {
      if (truncated) return;
      const std::int64_t nd = std::min(d + cost, cost_cap);
      HashedTable::Slot* pre_slot =
          pattern.table.find_or_insert(pre, &hashed_bytes_, byte_budget);
      if (pre_slot == nullptr) {
        truncated = true;
        floor_d = std::min(d, cost_cap);
        return;
      }
      if (pre_slot->settled) return;  // final already; Dijkstra never improves it
      if (pre_slot->dist != kUnreachable && pre_slot->dist <= nd) return;
      pre_slot->dist = static_cast<std::int32_t>(nd);
      queue.push(nd, pre);
    });
  }
  if (truncated) {
    pattern.complete = false;
    pattern.floor = static_cast<std::int32_t>(floor_d);
  }
}

}  // namespace rbpeb
