// The rules of the game: legality checking and state transition for every
// model variant, with exact cost accounting.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "src/graph/dag.hpp"
#include "src/pebble/cost.hpp"
#include "src/pebble/model.hpp"
#include "src/pebble/move.hpp"
#include "src/pebble/state.hpp"

namespace rbpeb {

/// Alternative initial/final-state definitions from the literature
/// (paper, Section 3 and Appendix C). The defaults are the paper's own
/// convention: sources are computable for free, sinks may end red or blue.
struct PebblingConvention {
  /// Sources begin with a blue pebble and are NOT computable (the Hong–Kung
  /// convention); they enter fast memory only via Step 1.
  bool sources_start_blue = false;
  /// Completion requires a blue pebble on every sink (instead of any color).
  bool sinks_end_blue = false;
};

/// An instance of the pebbling problem: a DAG, a model, and the red-pebble
/// budget R. The Engine answers "is this move legal here?" and applies moves.
///
/// Rule summary (paper, Sections 1 and 4):
///  * Load:    node holds blue; fewer than R red pebbles on the DAG.
///  * Store:   node holds red.
///  * Compute: all predecessors hold red; the node itself does not hold red
///             (re-placing red on a red node is a no-op and is rejected to
///             keep search spaces clean); capacity R respected; in oneshot
///             the node must never have been computed before. Computing a
///             blue-pebbled node replaces blue by red (recomputation as in
///             nodel/base/compcost).
///  * Delete:  node holds a pebble of either color; forbidden in nodel.
///
/// A pebbling is complete when every sink holds a pebble of either color.
class Engine {
 public:
  /// `red_limit` is R. Requires R >= Δ+1 (paper, Section 3: otherwise no
  /// pebbling exists), unless the DAG has no edges in which case R >= 1.
  /// The Engine keeps a reference to `dag`, which must outlive it; binding a
  /// temporary is rejected at compile time.
  Engine(const Dag& dag, Model model, std::size_t red_limit,
         PebblingConvention convention = {});
  Engine(Dag&&, Model, std::size_t, PebblingConvention = {}) = delete;

  const Dag& dag() const { return *dag_; }
  const Model& model() const { return model_; }
  std::size_t red_limit() const { return red_limit_; }
  const PebblingConvention& convention() const { return convention_; }

  /// Starting configuration: empty, except that under sources_start_blue
  /// every source holds a blue pebble.
  GameState initial_state() const;

  /// The legality verdict: string-free, allocation-free. This is what the
  /// solvers and the Dijkstra oracle probe.
  bool is_legal(const GameState& state, const Move& move) const {
    return check(state, move).code == Rejection::None;
  }

  /// Diagnostics only (the Verifier, apply's exception, the CLI): nullopt if
  /// `move` is legal in `state`; otherwise a human-readable reason formatted
  /// from the same verdict is_legal tests. Never mutates.
  std::optional<std::string> why_illegal(const GameState& state,
                                         const Move& move) const;

  /// Apply a legal move, updating `state` and accumulating operation counts
  /// into `cost`. Throws PreconditionError if the move is illegal.
  void apply(GameState& state, const Move& move, Cost& cost) const;

  /// True when every sink of the DAG holds a pebble (red or blue).
  bool is_complete(const GameState& state) const;

 private:
  /// Which rule a move breaks; None when it is legal.
  enum class Rejection : std::uint8_t {
    None,
    NodeOutOfRange,
    LoadNeedsBlue,
    RedBudgetExhausted,
    StoreNeedsRed,
    SourceNotComputable,
    AlreadyComputedOnce,
    AlreadyRed,
    InputNotRed,
    DeletionsForbidden,
    DeleteNeedsPebble,
    UnknownMoveType,
  };
  struct Verdict {
    Rejection code = Rejection::None;
    NodeId input = 0;  ///< the offending input node of an InputNotRed
  };

  /// The rules of the game, written once: is_legal tests the verdict,
  /// why_illegal formats it.
  Verdict check(const GameState& state, const Move& move) const;

  const Dag* dag_;
  Model model_;
  std::size_t red_limit_;
  PebblingConvention convention_;
};

}  // namespace rbpeb
