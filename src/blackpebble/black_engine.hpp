// The standard (black) pebble game — the 1970s ancestor of red-blue
// pebbling, kept in rbpeb as a companion model (paper, Section 2: its
// PSPACE-completeness [10] and time-space tradeoffs [11, 15, 17] motivate
// the whole field, and Demaine–Liu's red-blue PSPACE proof reduces to it).
//
// Rules: place a pebble on a node whose predecessors are all pebbled
// (sources anytime), or remove any pebble. The resource is the *maximum
// number of pebbles on the DAG at once*; the goal is to pebble every sink
// at some point. There is no slow memory and no transfer cost.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/graph/dag.hpp"

namespace rbpeb {

/// One step of a black pebbling.
struct BlackMove {
  enum class Type { Place, Remove } type;
  NodeId node;
  bool operator==(const BlackMove& o) const = default;
};

inline BlackMove black_place(NodeId v) {
  return {BlackMove::Type::Place, v};
}
inline BlackMove black_remove(NodeId v) {
  return {BlackMove::Type::Remove, v};
}

std::string to_string(const BlackMove& move);

/// Dynamic state: pebbled set + which sinks have been pebbled so far
/// (a sink only needs to be pebbled at *some* point).
class BlackState {
 public:
  BlackState() = default;
  explicit BlackState(std::size_t node_count);

  bool pebbled(NodeId v) const { return pebbled_[v]; }
  std::size_t pebble_count() const { return count_; }
  void place(NodeId v);
  void remove(NodeId v);

 private:
  std::vector<bool> pebbled_;
  std::size_t count_ = 0;
};

/// Rule engine with a pebble budget.
class BlackEngine {
 public:
  BlackEngine(const Dag& dag, std::size_t pebble_limit);
  BlackEngine(Dag&&, std::size_t) = delete;

  const Dag& dag() const { return *dag_; }
  std::size_t pebble_limit() const { return limit_; }

  /// The legality verdict: string-free, allocation-free.
  bool is_legal(const BlackState& state, const BlackMove& move) const {
    return check(state, move).code == Rejection::None;
  }
  /// Diagnostics only: nullopt if legal, else a reason formatted from the
  /// same verdict is_legal tests.
  std::optional<std::string> why_illegal(const BlackState& state,
                                         const BlackMove& move) const;
  void apply(BlackState& state, const BlackMove& move) const;

 private:
  /// Which rule a move breaks; None when it is legal.
  enum class Rejection : std::uint8_t {
    None,
    NodeOutOfRange,
    NothingToRemove,
    AlreadyPebbled,
    BudgetExhausted,
    InputNotPebbled,
  };
  struct Verdict {
    Rejection code = Rejection::None;
    NodeId input = 0;  ///< the offending input node of an InputNotPebbled
  };

  /// The rules, written once: is_legal tests the verdict, why_illegal
  /// formats it.
  Verdict check(const BlackState& state, const BlackMove& move) const;

  const Dag* dag_;
  std::size_t limit_;
};

/// Replay audit of a black pebbling: legality, peak pebbles, and whether
/// every sink was pebbled at some point.
struct BlackVerifyResult {
  bool legal = false;
  bool complete = false;
  std::size_t failed_at = 0;
  std::string error;
  std::size_t peak_pebbles = 0;
  std::size_t length = 0;
  bool ok() const { return legal && complete; }
};

BlackVerifyResult black_verify(const BlackEngine& engine,
                               const std::vector<BlackMove>& moves);

/// Minimum number of pebbles that suffice to pebble the DAG (the classic
/// "pebbling number"). Exhaustive search over configurations; intended for
/// DAGs of up to ~20 nodes. Returns the smallest k for which a strategy
/// exists, and optionally a witness strategy at that k.
std::size_t black_pebbling_number(const Dag& dag,
                                  std::vector<BlackMove>* witness = nullptr);

/// Decision form: can the DAG be pebbled with at most k pebbles?
bool black_pebblable_with(const Dag& dag, std::size_t k,
                          std::vector<BlackMove>* witness = nullptr);

}  // namespace rbpeb
