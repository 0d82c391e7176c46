#include "src/blackpebble/black_engine.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "src/support/check.hpp"

namespace rbpeb {

std::string to_string(const BlackMove& move) {
  std::ostringstream os;
  os << (move.type == BlackMove::Type::Place ? "place" : "remove") << '('
     << move.node << ')';
  return os.str();
}

BlackState::BlackState(std::size_t node_count)
    : pebbled_(node_count, false) {}

void BlackState::place(NodeId v) {
  RBPEB_REQUIRE(v < pebbled_.size() && !pebbled_[v], "invalid place");
  pebbled_[v] = true;
  ++count_;
}

void BlackState::remove(NodeId v) {
  RBPEB_REQUIRE(v < pebbled_.size() && pebbled_[v], "invalid remove");
  pebbled_[v] = false;
  --count_;
}

BlackEngine::BlackEngine(const Dag& dag, std::size_t pebble_limit)
    : dag_(&dag), limit_(pebble_limit) {
  std::size_t min_k = dag.node_count() == 0 ? 0 : dag.max_indegree() + 1;
  RBPEB_REQUIRE(limit_ >= min_k,
                "pebble budget below max-indegree + 1 cannot pebble anything");
}

BlackEngine::Verdict BlackEngine::check(const BlackState& state,
                                        const BlackMove& move) const {
  if (!dag_->contains(move.node)) return {Rejection::NodeOutOfRange};
  const NodeId v = move.node;
  if (move.type == BlackMove::Type::Remove) {
    if (!state.pebbled(v)) return {Rejection::NothingToRemove};
    return {};
  }
  if (state.pebbled(v)) return {Rejection::AlreadyPebbled};
  if (state.pebble_count() >= limit_) return {Rejection::BudgetExhausted};
  for (NodeId u : dag_->predecessors(v)) {
    if (!state.pebbled(u)) return {Rejection::InputNotPebbled, u};
  }
  return {};
}

std::optional<std::string> BlackEngine::why_illegal(
    const BlackState& state, const BlackMove& move) const {
  const Verdict verdict = check(state, move);
  switch (verdict.code) {
    case Rejection::None: return std::nullopt;
    case Rejection::NodeOutOfRange: return "node id out of range";
    case Rejection::NothingToRemove: return "no pebble to remove";
    case Rejection::AlreadyPebbled: return "node already pebbled";
    case Rejection::BudgetExhausted: return "pebble budget exhausted";
    case Rejection::InputNotPebbled: break;
  }
  std::ostringstream os;
  os << "input node " << verdict.input << " is not pebbled";
  return os.str();
}

void BlackEngine::apply(BlackState& state, const BlackMove& move) const {
  if (auto reason = why_illegal(state, move)) {
    throw PreconditionError("illegal move " + to_string(move) + ": " +
                            *reason);
  }
  if (move.type == BlackMove::Type::Place) state.place(move.node);
  else state.remove(move.node);
}

BlackVerifyResult black_verify(const BlackEngine& engine,
                               const std::vector<BlackMove>& moves) {
  BlackVerifyResult result;
  const Dag& dag = engine.dag();
  BlackState state(dag.node_count());
  std::vector<bool> sink_done(dag.node_count(), false);
  result.legal = true;
  for (std::size_t i = 0; i < moves.size(); ++i) {
    if (auto reason = engine.why_illegal(state, moves[i])) {
      result.legal = false;
      result.failed_at = i;
      result.error = "move " + std::to_string(i) + " " + to_string(moves[i]) +
                     ": " + *reason;
      break;
    }
    engine.apply(state, moves[i]);
    if (moves[i].type == BlackMove::Type::Place) {
      sink_done[moves[i].node] = true;
    }
    result.peak_pebbles = std::max(result.peak_pebbles, state.pebble_count());
    ++result.length;
  }
  result.complete = result.legal;
  for (NodeId sink : dag.sinks()) {
    if (!sink_done[sink]) result.complete = false;
  }
  return result;
}

namespace {

struct BlackSearch {
  const Dag& dag;
  std::size_t k;
  std::vector<NodeId> sinks;
  // Visited (pebbled_mask, sinks_done_mask) pairs.
  std::unordered_set<std::uint64_t> visited;
  std::unordered_map<std::uint64_t, std::pair<std::uint64_t, BlackMove>> parent;
  static constexpr std::size_t kMaxStates = 4'000'000;

  std::uint64_t key(std::uint32_t pebbles, std::uint32_t done) const {
    return (static_cast<std::uint64_t>(done) << 32) | pebbles;
  }

  /// BFS over configurations; returns the goal key or nullopt.
  std::optional<std::uint64_t> search() {
    const std::size_t n = dag.node_count();
    std::uint32_t all_done = 0;
    for (std::size_t i = 0; i < sinks.size(); ++i) all_done |= (1u << i);

    std::vector<std::uint64_t> frontier{key(0, 0)};
    visited.insert(frontier[0]);
    if (all_done == 0) return frontier[0];
    while (!frontier.empty()) {
      std::vector<std::uint64_t> next;
      for (std::uint64_t cur : frontier) {
        auto pebbles = static_cast<std::uint32_t>(cur & 0xFFFFFFFFu);
        auto done = static_cast<std::uint32_t>(cur >> 32);
        std::size_t count = static_cast<std::size_t>(__builtin_popcount(pebbles));
        for (std::size_t v = 0; v < n; ++v) {
          std::uint32_t bit = 1u << v;
          std::uint64_t succ;
          BlackMove move{};
          if (pebbles & bit) {
            move = black_remove(static_cast<NodeId>(v));
            succ = key(pebbles & ~bit, done);
          } else {
            if (count >= k) continue;
            bool ready = true;
            for (NodeId u : dag.predecessors(static_cast<NodeId>(v))) {
              if (!(pebbles & (1u << u))) {
                ready = false;
                break;
              }
            }
            if (!ready) continue;
            std::uint32_t new_done = done;
            for (std::size_t i = 0; i < sinks.size(); ++i) {
              if (sinks[i] == static_cast<NodeId>(v)) new_done |= (1u << i);
            }
            move = black_place(static_cast<NodeId>(v));
            succ = key(pebbles | bit, new_done);
          }
          if (!visited.insert(succ).second) continue;
          RBPEB_REQUIRE(visited.size() <= kMaxStates,
                        "black pebbling search exceeded its state budget");
          parent[succ] = {cur, move};
          if (static_cast<std::uint32_t>(succ >> 32) == all_done) return succ;
          next.push_back(succ);
        }
      }
      frontier = std::move(next);
    }
    return std::nullopt;
  }
};

}  // namespace

bool black_pebblable_with(const Dag& dag, std::size_t k,
                          std::vector<BlackMove>* witness) {
  RBPEB_REQUIRE(dag.node_count() <= 20,
                "black pebbling search supports at most 20 nodes");
  if (dag.node_count() == 0) return true;
  if (k < dag.max_indegree() + 1 && !dag.sinks().empty()) {
    // Cannot even place a pebble on a max-indegree node's successor chain;
    // still possibly enough if every sink is reachable with fewer pebbles —
    // the search below answers exactly, so only shortcut k == 0.
    if (k == 0) return false;
  }
  BlackSearch search{dag, k, dag.sinks(), {}, {}};
  auto goal = search.search();
  if (!goal) return false;
  if (witness) {
    std::vector<BlackMove> reversed;
    std::uint64_t cur = *goal;
    const std::uint64_t start = 0;
    while (cur != start) {
      auto it = search.parent.find(cur);
      RBPEB_ENSURE(it != search.parent.end(), "broken parent chain");
      reversed.push_back(it->second.second);
      cur = it->second.first;
    }
    witness->assign(reversed.rbegin(), reversed.rend());
  }
  return true;
}

std::size_t black_pebbling_number(const Dag& dag,
                                  std::vector<BlackMove>* witness) {
  if (dag.node_count() == 0) return 0;
  for (std::size_t k = 1; k <= dag.node_count(); ++k) {
    if (black_pebblable_with(dag, k, witness)) return k;
  }
  RBPEB_ENSURE(false, "n pebbles always suffice");
  return dag.node_count();
}

}  // namespace rbpeb
