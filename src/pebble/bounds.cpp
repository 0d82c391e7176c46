#include "src/pebble/bounds.hpp"

#include <bit>
#include <limits>

#include "src/graph/dag_algorithms.hpp"
#include "src/solvers/bigstate/pdb.hpp"
#include "src/support/check.hpp"

namespace rbpeb {

std::size_t min_red_pebbles(const Dag& dag) {
  if (dag.node_count() == 0) return 0;
  return dag.max_indegree() + 1;
}

Rational universal_cost_upper_bound(const Dag& dag, const Model& model) {
  const std::int64_t n = static_cast<std::int64_t>(dag.node_count());
  const std::int64_t delta = static_cast<std::int64_t>(dag.max_indegree());
  // (2Δ+1)·n transfers; compcost adds at most ε per node computation in the
  // greedy strategy of Section 3 (each node computed exactly once there).
  Rational bound((2 * delta + 1) * n);
  if (model.kind() == ModelKind::Compcost) {
    bound += model.epsilon() * Rational(n);
  }
  return bound;
}

Rational cost_lower_bound(const Dag& dag, const Model& model,
                          std::size_t red_limit) {
  const std::int64_t n = static_cast<std::int64_t>(dag.node_count());
  switch (model.kind()) {
    case ModelKind::Base:
    case ModelKind::Oneshot:
      return Rational(0);
    case ModelKind::Nodel: {
      // Every node eventually holds a pebble which cannot be deleted; at most
      // R of them can stay red, so at least n - R Step-2 operations happen.
      std::int64_t r = static_cast<std::int64_t>(red_limit);
      return Rational(n > r ? n - r : 0);
    }
    case ModelKind::Compcost: {
      // Each non-source node must be computed at least once, at ε apiece.
      std::int64_t non_sources =
          n - static_cast<std::int64_t>(dag.sources().size());
      return model.epsilon() * Rational(non_sources);
    }
  }
  RBPEB_ENSURE(false, "unreachable");
  return Rational(0);
}

std::int64_t universal_search_ceiling_scaled(const Dag& dag,
                                             const Model& model) {
  const auto n = static_cast<std::int64_t>(dag.node_count());
  const auto delta = static_cast<std::int64_t>(dag.max_indegree());
  const std::int64_t eps_num = model.epsilon().num();
  const std::int64_t eps_den = model.epsilon().den();
  return (2 * delta + 1) * n * eps_den + n * eps_num + 2 * n * eps_den;
}

StateBoundEvaluator::StateBoundEvaluator(const Engine& engine)
    : engine_(&engine),
      eps_num_(engine.model().epsilon().num()),
      eps_den_(engine.model().epsilon().den()) {
  const Dag& dag = engine.dag();
  const std::size_t n = dag.node_count();
  if (n <= kMaskMaxNodes) {
    pred_mask_.assign(n, 0);
    cone_mask_.assign(n, 0);
    for (std::size_t v = 0; v < n; ++v) {
      const NodeId node = static_cast<NodeId>(v);
      for (NodeId p : dag.predecessors(node)) {
        pred_mask_[v] |= std::uint64_t{1} << p;
      }
      if (dag.is_sink(node)) sinks_mask_ |= std::uint64_t{1} << v;
      if (dag.is_source(node)) sources_mask_ |= std::uint64_t{1} << v;
    }
    // Ancestor cones compose along a topological order: by the time v is
    // visited every predecessor's cone is final.
    for (NodeId v : topological_order(dag)) {
      std::uint64_t cone = std::uint64_t{1} << v;
      for (NodeId p : dag.predecessors(v)) cone |= cone_mask_[p];
      cone_mask_[v] = cone;
    }
    // Fall through: the wide caches are built for every n ≤ 128, because the
    // variable-width searches use WideStateMasks even on small instances
    // (one mask type per search instantiation).
  }
  if (n <= kWideMaskMaxNodes) {
    // ≤128 nodes: the same caches over two-word masks.
    pred_mask2_.assign(n, WideMask{});
    cone_mask2_.assign(n, WideMask{});
    for (std::size_t v = 0; v < n; ++v) {
      const NodeId node = static_cast<NodeId>(v);
      for (NodeId p : dag.predecessors(node)) {
        pred_mask2_[v][p >> 6] |= std::uint64_t{1} << (p & 63);
      }
      if (dag.is_sink(node)) {
        sinks_mask2_[v >> 6] |= std::uint64_t{1} << (v & 63);
      }
      if (dag.is_source(node)) {
        sources_mask2_[v >> 6] |= std::uint64_t{1} << (v & 63);
      }
    }
    for (NodeId v : topological_order(dag)) {
      WideMask cone{};
      cone[v >> 6] = std::uint64_t{1} << (v & 63);
      for (NodeId p : dag.predecessors(v)) {
        for (std::size_t w = 0; w < cone.size(); ++w) {
          cone[w] |= cone_mask2_[p][w];
        }
      }
      cone_mask2_[v] = cone;
    }
  }
  if (n > kVecMaskMaxNodes) return;  // generic path only past the vec cap
  // Runtime-width caches, built for every n ≤ kVecMaskMaxNodes so a forced
  // MaskVec run on a small instance can be compared against the fixed paths.
  const std::size_t W = (n + 63) / 64;
  maskv_words_ = W;
  pred_maskv_.assign(n * W, 0);
  cone_maskv_.assign(n * W, 0);
  sinks_maskv_.assign(W, 0);
  sources_maskv_.assign(W, 0);
  scratchv_.assign(5 * W, 0);
  for (std::size_t v = 0; v < n; ++v) {
    const NodeId node = static_cast<NodeId>(v);
    for (NodeId p : dag.predecessors(node)) {
      pred_maskv_[v * W + (p >> 6)] |= std::uint64_t{1} << (p & 63);
    }
    if (dag.is_sink(node)) {
      sinks_maskv_[v >> 6] |= std::uint64_t{1} << (v & 63);
    }
    if (dag.is_source(node)) {
      sources_maskv_[v >> 6] |= std::uint64_t{1} << (v & 63);
    }
  }
  for (NodeId v : topological_order(dag)) {
    std::uint64_t* cone = &cone_maskv_[static_cast<std::size_t>(v) * W];
    cone[v >> 6] |= std::uint64_t{1} << (v & 63);
    for (NodeId p : dag.predecessors(v)) {
      const std::uint64_t* pcone = &cone_maskv_[static_cast<std::size_t>(p) * W];
      for (std::size_t w = 0; w < W; ++w) cone[w] |= pcone[w];
    }
  }
}

template <class FieldFn>
std::optional<std::int64_t> StateBoundEvaluator::pdb_floor(
    FieldFn&& field) const {
  return pdb_->sum_scaled(field);
}

std::optional<std::int64_t> StateBoundEvaluator::lower_bound_scaled(
    const StateMasks& state) {
  last_source_ = BoundSource::Counting;
  const Model& model = engine_->model();
  const PebblingConvention& conv = engine_->convention();
  const std::uint64_t pebbled = state.pebbled();
  const std::uint64_t empty = ~pebbled;  // junk above bit n never enters

  // Seeds plus the stores owed by non-blue sinks under the blue convention.
  std::int64_t sink_stores_owed = 0;
  if (conv.sinks_end_blue) {
    sink_stores_owed =
        std::popcount(sinks_mask_ & ~state.blue);  // blue arrives via Store
  }
  std::uint64_t frontier = sinks_mask_ & empty;

  // Requirement closure, composed from the construction-time caches: a
  // frontier node whose whole ancestor cone is pebble-free contributes its
  // cached cone in one OR (every such ancestor is empty, hence also owed a
  // computation, and none of them can have blue inputs); anything else
  // advances one cached predecessor word at a time.
  std::uint64_t closure = 0;
  std::uint64_t blue_inputs = 0;
  while (frontier != 0) {
    const int v = std::countr_zero(frontier);
    frontier &= frontier - 1;
    const std::uint64_t bit = std::uint64_t{1} << v;
    if ((closure & bit) != 0) continue;
    const std::uint64_t cone = cone_mask_[static_cast<std::size_t>(v)];
    if ((cone & pebbled) == 0) {
      closure |= cone;
      continue;
    }
    closure |= bit;
    const std::uint64_t preds = pred_mask_[static_cast<std::size_t>(v)];
    blue_inputs |= preds & state.blue;
    frontier |= preds & empty & ~closure;
  }

  // Dead states: a needed oneshot value already spent, or a needed (hence
  // empty) Hong–Kung source — uncomputable and, with no pebble, unloadable.
  if (!model.allows_recompute() && (closure & state.computed) != 0) {
    return std::nullopt;
  }
  if (conv.sources_start_blue && (closure & sources_mask_) != 0) {
    return std::nullopt;
  }

  std::int64_t bound =
      static_cast<std::int64_t>(std::popcount(closure)) * eps_num_;
  // Blue inputs that can never be recomputed owe a full Load; the rest owe
  // whichever of reload / recompute is cheaper.
  std::uint64_t no_recompute = 0;
  if (!model.allows_recompute()) no_recompute |= state.computed;
  if (conv.sources_start_blue) no_recompute |= sources_mask_;
  bound += static_cast<std::int64_t>(std::popcount(blue_inputs & no_recompute)) *
           eps_den_;
  bound +=
      static_cast<std::int64_t>(std::popcount(blue_inputs & ~no_recompute)) *
      std::min(eps_num_, eps_den_);

  std::int64_t stores_owed = sink_stores_owed;
  if (model.kind() == ModelKind::Nodel) {
    // No deletions: currently pebbled nodes and the closure all hold pebbles
    // at the end, at most R of them red. Stores minus loads equals the net
    // blue growth, so stores >= final_blue - current_blue.
    const std::int64_t final_pebbled =
        std::popcount(pebbled) + std::popcount(closure);
    const std::int64_t r = static_cast<std::int64_t>(engine_->red_limit());
    const std::int64_t blue = std::popcount(state.blue);
    // Max, not sum: this and the sink term lower-bound the same stores.
    stores_owed = std::max(stores_owed, final_pebbled - r - blue);
  }
  std::int64_t total = bound + stores_owed * eps_den_;
  if (pdb_ != nullptr) {
    auto floor = pdb_floor([&](NodeId v) {
      const std::uint64_t bit = std::uint64_t{1} << v;
      unsigned f = (state.red & bit) != 0 ? 1u
                   : (state.blue & bit) != 0 ? 2u
                                             : 0u;
      if ((state.computed & bit) != 0) f |= 4u;
      return f;
    });
    if (!floor) {
      last_source_ = BoundSource::Pdb;  // a projection proved the state dead
      return std::nullopt;
    }
    if (*floor > total) {
      total = *floor;
      last_source_ = BoundSource::Pdb;
    }
  }
  return total;
}

std::optional<std::int64_t> StateBoundEvaluator::lower_bound_scaled(
    const WideStateMasks& state) {
  last_source_ = BoundSource::Counting;
  const Model& model = engine_->model();
  const PebblingConvention& conv = engine_->convention();
  constexpr std::size_t kWords = WideStateMasks::kWords;

  WideMask pebbled, empty;
  for (std::size_t w = 0; w < kWords; ++w) {
    pebbled[w] = state.red[w] | state.blue[w];
    empty[w] = ~pebbled[w];  // junk above bit n never enters
  }

  // Seeds plus the stores owed by non-blue sinks under the blue convention.
  std::int64_t sink_stores_owed = 0;
  WideMask frontier;
  for (std::size_t w = 0; w < kWords; ++w) {
    if (conv.sinks_end_blue) {
      sink_stores_owed += std::popcount(sinks_mask2_[w] & ~state.blue[w]);
    }
    frontier[w] = sinks_mask2_[w] & empty[w];
  }

  // Requirement closure composed from the two-word caches — the same
  // whole-cone jumps and per-predecessor-word advances as the one-word path.
  WideMask closure{};
  WideMask blue_inputs{};
  while ((frontier[0] | frontier[1]) != 0) {
    const std::size_t w = frontier[0] != 0 ? 0 : 1;
    const int b = std::countr_zero(frontier[w]);
    frontier[w] &= frontier[w] - 1;
    const std::size_t v = (w << 6) | static_cast<std::size_t>(b);
    const std::uint64_t bit = std::uint64_t{1} << b;
    if ((closure[w] & bit) != 0) continue;
    const WideMask& cone = cone_mask2_[v];
    bool cone_unpebbled = true;
    for (std::size_t i = 0; i < kWords; ++i) {
      if ((cone[i] & pebbled[i]) != 0) cone_unpebbled = false;
    }
    if (cone_unpebbled) {
      for (std::size_t i = 0; i < kWords; ++i) closure[i] |= cone[i];
      continue;
    }
    closure[w] |= bit;
    const WideMask& preds = pred_mask2_[v];
    for (std::size_t i = 0; i < kWords; ++i) {
      blue_inputs[i] |= preds[i] & state.blue[i];
      frontier[i] |= preds[i] & empty[i] & ~closure[i];
    }
  }

  // Dead states: a needed oneshot value already spent, or a needed (hence
  // empty) Hong–Kung source — uncomputable and, with no pebble, unloadable.
  std::int64_t closure_count = 0;
  for (std::size_t w = 0; w < kWords; ++w) {
    if (!model.allows_recompute() && (closure[w] & state.computed[w]) != 0) {
      return std::nullopt;
    }
    if (conv.sources_start_blue && (closure[w] & sources_mask2_[w]) != 0) {
      return std::nullopt;
    }
    closure_count += std::popcount(closure[w]);
  }

  std::int64_t bound = closure_count * eps_num_;
  // Blue inputs that can never be recomputed owe a full Load; the rest owe
  // whichever of reload / recompute is cheaper.
  for (std::size_t w = 0; w < kWords; ++w) {
    std::uint64_t no_recompute = 0;
    if (!model.allows_recompute()) no_recompute |= state.computed[w];
    if (conv.sources_start_blue) no_recompute |= sources_mask2_[w];
    bound += static_cast<std::int64_t>(
                 std::popcount(blue_inputs[w] & no_recompute)) *
             eps_den_;
    bound += static_cast<std::int64_t>(
                 std::popcount(blue_inputs[w] & ~no_recompute)) *
             std::min(eps_num_, eps_den_);
  }

  std::int64_t stores_owed = sink_stores_owed;
  if (model.kind() == ModelKind::Nodel) {
    std::int64_t pebbled_count = 0;
    std::int64_t blue_count = 0;
    for (std::size_t w = 0; w < kWords; ++w) {
      pebbled_count += std::popcount(pebbled[w]);
      blue_count += std::popcount(state.blue[w]);
    }
    const std::int64_t final_pebbled = pebbled_count + closure_count;
    const std::int64_t r = static_cast<std::int64_t>(engine_->red_limit());
    // Max, not sum: this and the sink term lower-bound the same stores.
    stores_owed = std::max(stores_owed, final_pebbled - r - blue_count);
  }
  std::int64_t total = bound + stores_owed * eps_den_;
  if (pdb_ != nullptr) {
    auto floor = pdb_floor([&](NodeId v) {
      const std::size_t w = v >> 6;
      const std::uint64_t bit = std::uint64_t{1} << (v & 63);
      unsigned f = (state.red[w] & bit) != 0 ? 1u
                   : (state.blue[w] & bit) != 0 ? 2u
                                                : 0u;
      if ((state.computed[w] & bit) != 0) f |= 4u;
      return f;
    });
    if (!floor) {
      last_source_ = BoundSource::Pdb;  // a projection proved the state dead
      return std::nullopt;
    }
    if (*floor > total) {
      total = *floor;
      last_source_ = BoundSource::Pdb;
    }
  }
  return total;
}

std::optional<std::int64_t> StateBoundEvaluator::lower_bound_scaled(
    const MaskVec& state) {
  last_source_ = BoundSource::Counting;
  const Model& model = engine_->model();
  const PebblingConvention& conv = engine_->convention();
  const std::size_t W = maskv_words_;
  RBPEB_REQUIRE(W != 0 && state.words() == W,
                "MaskVec width must match the evaluator's DAG");

  // Scratch planes: pebbled, empty, frontier, closure, blue_inputs.
  std::uint64_t* pebbled = scratchv_.data();
  std::uint64_t* empty = pebbled + W;
  std::uint64_t* frontier = empty + W;
  std::uint64_t* closure = frontier + W;
  std::uint64_t* blue_inputs = closure + W;
  for (std::size_t w = 0; w < W; ++w) {
    pebbled[w] = state.red()[w] | state.blue()[w];
    empty[w] = ~pebbled[w];  // junk above bit n never enters
    closure[w] = 0;
    blue_inputs[w] = 0;
  }

  // Seeds plus the stores owed by non-blue sinks under the blue convention.
  std::int64_t sink_stores_owed = 0;
  for (std::size_t w = 0; w < W; ++w) {
    if (conv.sinks_end_blue) {
      sink_stores_owed += std::popcount(sinks_maskv_[w] & ~state.blue()[w]);
    }
    frontier[w] = sinks_maskv_[w] & empty[w];
  }

  // Requirement closure composed from the runtime-width caches — the same
  // whole-cone jumps and per-predecessor-word advances as the fixed paths,
  // with the word scan generalized to W words.
  for (;;) {
    std::size_t w = 0;
    while (w < W && frontier[w] == 0) ++w;
    if (w == W) break;
    const int b = std::countr_zero(frontier[w]);
    frontier[w] &= frontier[w] - 1;
    const std::size_t v = (w << 6) | static_cast<std::size_t>(b);
    const std::uint64_t bit = std::uint64_t{1} << b;
    if ((closure[w] & bit) != 0) continue;
    const std::uint64_t* cone = &cone_maskv_[v * W];
    bool cone_unpebbled = true;
    for (std::size_t i = 0; i < W; ++i) {
      if ((cone[i] & pebbled[i]) != 0) cone_unpebbled = false;
    }
    if (cone_unpebbled) {
      for (std::size_t i = 0; i < W; ++i) closure[i] |= cone[i];
      continue;
    }
    closure[w] |= bit;
    const std::uint64_t* preds = &pred_maskv_[v * W];
    for (std::size_t i = 0; i < W; ++i) {
      blue_inputs[i] |= preds[i] & state.blue()[i];
      frontier[i] |= preds[i] & empty[i] & ~closure[i];
    }
  }

  // Dead states: a needed oneshot value already spent, or a needed (hence
  // empty) Hong–Kung source — uncomputable and, with no pebble, unloadable.
  std::int64_t closure_count = 0;
  for (std::size_t w = 0; w < W; ++w) {
    if (!model.allows_recompute() &&
        (closure[w] & state.computed()[w]) != 0) {
      return std::nullopt;
    }
    if (conv.sources_start_blue && (closure[w] & sources_maskv_[w]) != 0) {
      return std::nullopt;
    }
    closure_count += std::popcount(closure[w]);
  }

  std::int64_t bound = closure_count * eps_num_;
  // Blue inputs that can never be recomputed owe a full Load; the rest owe
  // whichever of reload / recompute is cheaper.
  for (std::size_t w = 0; w < W; ++w) {
    std::uint64_t no_recompute = 0;
    if (!model.allows_recompute()) no_recompute |= state.computed()[w];
    if (conv.sources_start_blue) no_recompute |= sources_maskv_[w];
    bound += static_cast<std::int64_t>(
                 std::popcount(blue_inputs[w] & no_recompute)) *
             eps_den_;
    bound += static_cast<std::int64_t>(
                 std::popcount(blue_inputs[w] & ~no_recompute)) *
             std::min(eps_num_, eps_den_);
  }

  std::int64_t stores_owed = sink_stores_owed;
  if (model.kind() == ModelKind::Nodel) {
    std::int64_t pebbled_count = 0;
    std::int64_t blue_count = 0;
    for (std::size_t w = 0; w < W; ++w) {
      pebbled_count += std::popcount(pebbled[w]);
      blue_count += std::popcount(state.blue()[w]);
    }
    const std::int64_t final_pebbled = pebbled_count + closure_count;
    const std::int64_t r = static_cast<std::int64_t>(engine_->red_limit());
    // Max, not sum: this and the sink term lower-bound the same stores.
    stores_owed = std::max(stores_owed, final_pebbled - r - blue_count);
  }
  std::int64_t total = bound + stores_owed * eps_den_;
  if (pdb_ != nullptr) {
    auto floor = pdb_floor([&](NodeId v) {
      const std::size_t w = v >> 6;
      const std::uint64_t bit = std::uint64_t{1} << (v & 63);
      unsigned f = (state.red()[w] & bit) != 0 ? 1u
                   : (state.blue()[w] & bit) != 0 ? 2u
                                                  : 0u;
      if ((state.computed()[w] & bit) != 0) f |= 4u;
      return f;
    });
    if (!floor) {
      last_source_ = BoundSource::Pdb;  // a projection proved the state dead
      return std::nullopt;
    }
    if (*floor > total) {
      total = *floor;
      last_source_ = BoundSource::Pdb;
    }
  }
  return total;
}

template <class Masks>
void StateBoundEvaluator::legal_moves(const Masks& state,
                                      std::vector<Move>& moves) const {
  moves.clear();
  const Planes p = planes(state);
  const std::size_t n = engine_->dag().node_count();
  const Model& model = engine_->model();
  std::size_t reds = 0;
  for (std::size_t w = 0; w < p.words; ++w) reds += std::popcount(p.red[w]);
  const bool room = reds < engine_->red_limit();
  const bool spent_stay_spent = !model.allows_recompute();
  const bool sources_blue = engine_->convention().sources_start_blue;
  for (std::size_t w = 0; w < p.words; ++w) {
    const std::size_t base = w << 6;
    const std::uint64_t red = p.red[w];
    const std::uint64_t loadable = room ? p.blue[w] : 0;
    const std::uint64_t deletable = model.allows_delete() ? red | p.blue[w] : 0;
    // Compute candidates: in range, not red, not a spent oneshot value, not
    // a Hong–Kung source; kept when every predecessor word is covered by red.
    std::uint64_t candidates = 0;
    if (room && n > base) {
      candidates = n - base >= 64 ? ~red
                                  : ~red & ((std::uint64_t{1} << (n - base)) - 1);
      if (spent_stay_spent) candidates &= ~p.computed[w];
      if (sources_blue) candidates &= ~p.sources[w];
    }
    std::uint64_t computable = 0;
    while (candidates != 0) {
      const int b = std::countr_zero(candidates);
      candidates &= candidates - 1;
      const std::uint64_t* pred = preds(state, base + static_cast<std::size_t>(b));
      std::uint64_t missing = 0;
      for (std::size_t i = 0; i < p.words; ++i) missing |= pred[i] & ~p.red[i];
      if (missing == 0) computable |= std::uint64_t{1} << b;
    }
    std::uint64_t any = loadable | red | computable | deletable;
    while (any != 0) {
      const int b = std::countr_zero(any);
      any &= any - 1;
      const std::uint64_t bit = std::uint64_t{1} << b;
      const NodeId v = static_cast<NodeId>(base + static_cast<std::size_t>(b));
      if ((loadable & bit) != 0) moves.push_back({MoveType::Load, v});
      if ((red & bit) != 0) moves.push_back({MoveType::Store, v});
      if ((computable & bit) != 0) moves.push_back({MoveType::Compute, v});
      if ((deletable & bit) != 0) moves.push_back({MoveType::Delete, v});
    }
  }
}

template <class Masks>
bool StateBoundEvaluator::is_complete(const Masks& state) const {
  const Planes p = planes(state);
  const bool blue_only = engine_->convention().sinks_end_blue;
  for (std::size_t w = 0; w < p.words; ++w) {
    const std::uint64_t done = blue_only ? p.blue[w] : p.red[w] | p.blue[w];
    if ((p.sinks[w] & ~done) != 0) return false;
  }
  return true;
}

template void StateBoundEvaluator::legal_moves(const StateMasks&,
                                               std::vector<Move>&) const;
template void StateBoundEvaluator::legal_moves(const WideStateMasks&,
                                               std::vector<Move>&) const;
template void StateBoundEvaluator::legal_moves(const MaskVec&,
                                               std::vector<Move>&) const;
template bool StateBoundEvaluator::is_complete(const StateMasks&) const;
template bool StateBoundEvaluator::is_complete(const WideStateMasks&) const;
template bool StateBoundEvaluator::is_complete(const MaskVec&) const;

std::optional<Rational> state_cost_lower_bound(const Engine& engine,
                                               const GameState& state) {
  StateBoundEvaluator evaluator(engine);
  std::optional<std::int64_t> scaled = evaluator.lower_bound_scaled(state);
  if (!scaled) return std::nullopt;
  return Rational(*scaled, engine.model().epsilon().den());
}

std::size_t optimal_length_upper_bound(const Dag& dag, const Model& model) {
  const std::size_t n = dag.node_count();
  const std::size_t delta = dag.max_indegree();
  const std::size_t transfers = (2 * delta + 1) * n;
  switch (model.kind()) {
    case ModelKind::Base:
      // The base model admits optimal pebblings of superpolynomial length
      // (paper, Section 4); no finite bound is claimed.
      return std::numeric_limits<std::size_t>::max();
    case ModelKind::Oneshot:
      // ≤ n computes; a deleted node can never be re-pebbled, so ≤ n deletes.
      return transfers + 2 * n;
    case ModelKind::Nodel:
      // ≤ n first computes; every recomputation consumes a blue pebble
      // created by a Step 2, of which there are at most `transfers`.
      return 2 * transfers + n;
    case ModelKind::Compcost: {
      // Lemma 1: p ≤ (2/ε)·(2Δ+1+ε)·n non-transfer steps.
      Rational eps = model.epsilon();
      Rational cost_cap = universal_cost_upper_bound(dag, model);
      // p ≤ 2 · cost_cap / ε  ⇒  p ≤ ceil(2 · num · eps_den / (den · eps_num))
      __int128 num = static_cast<__int128>(2) * cost_cap.num() * eps.den();
      __int128 den = static_cast<__int128>(cost_cap.den()) * eps.num();
      std::size_t p = static_cast<std::size_t>((num + den - 1) / den);
      return transfers + p;
    }
  }
  RBPEB_ENSURE(false, "unreachable");
  return 0;
}

}  // namespace rbpeb
