// The greedy pebbling heuristics of Section 8.
//
// A greedy pebbling is an ordering of the (first) computation of nodes: in
// each step, among the uncomputed nodes whose inputs have all been computed,
// one is chosen by a myopic rule. The three rules the paper analyzes:
//   * largest number of red pebbles among the inputs,
//   * smallest number of blue pebbles among the inputs,
//   * largest red-pebbles-to-inputs ratio.
// In the models that allow recomputation we follow the paper's Appendix A.4
// interpretation: greedy orders *first* computations and never recomputes.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "src/pebble/engine.hpp"
#include "src/pebble/trace.hpp"
#include "src/solvers/eviction.hpp"

namespace rbpeb {

/// Node-choice rule (paper, Section 8).
enum class GreedyRule {
  MostRedInputs,
  FewestBlueInputs,
  RedRatio,
};

const char* to_string(GreedyRule rule);

/// Inverse of to_string; nullopt for unknown names.
std::optional<GreedyRule> greedy_rule_from_name(std::string_view name);

/// Configuration of a greedy run.
struct GreedyOptions {
  GreedyRule rule = GreedyRule::MostRedInputs;
  EvictionRule eviction = EvictionRule::FewestRemainingUses;
  /// Immediately delete red pebbles that will never be used again (when the
  /// model allows deletion). Matches the paper's accounting, where dead
  /// pebbles are removed for free.
  bool eager_delete_dead = true;
  /// Seed for the Random eviction rule.
  std::uint64_t seed = 1;
};

/// Run the greedy heuristic to completion and return the trace.
///
/// The trace computes every node exactly once; it is legal in all four
/// models (deletions are replaced by stores under nodel) and complete.
///
/// Precondition: the engine uses the paper's default start convention.
/// Greedy computes sources, which `sources_start_blue` forbids, so such an
/// engine is rejected up front with a PreconditionError. Solve on the
/// default-convention view of the instance and rewrite the trace with
/// load_blue_sources (and finish_sinks_blue for `sinks_end_blue`; both in
/// gadgets/transforms.hpp) — the registry's greedy adapter does exactly
/// that.
/// Complexity: O(n · (n + Δ)) time with incremental candidate scoring.
Trace solve_greedy(const Engine& engine, const GreedyOptions& options = {});

}  // namespace rbpeb
