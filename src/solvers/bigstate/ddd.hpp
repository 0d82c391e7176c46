// External-memory closed table with delayed duplicate detection — what turns
// `--budget-memory` from a wall into a working set.
//
// The PR-4 ClosedTable refused inserts past its byte budget and the
// searches surfaced that as ExactTermination::MemoryBudget: a dead end.
// SpillingClosedTable (its replacement) keeps the same open-addressed,
// byte-accounted core but *evicts* instead of refusing: when an insert or growth would exceed the
// budget it sheds the cold half of its entries — lowest g first, the layers
// a mostly-monotone A* has already burned through (the structured-duplicate-
// detection reading of the DAG's level structure) — into sorted spill runs
// on disk (spill.hpp), then carries on.
//
// Duplicate detection is *delayed* (Korf's DDD): a freshly generated state
// is checked against the in-RAM table immediately, but against the spilled
// runs only in batched merge passes, triggered the first time an unverified
// entry is about to be expanded. The reconciliation restores exact
// in-memory semantics before any decision depends on them:
//
//  * a spilled record with a smaller g supersedes the RAM entry (its queue
//    items die by the stale-g check, exactly as an in-RAM improvement
//    would);
//  * an equal-g record marks the RAM entry already-expanded when the disk
//    copy was, so the regenerated duplicate is popped and dropped — never
//    expanded twice;
//  * a worse record on disk is simply stale history (runs are immutable;
//    compaction garbage-collects it).
//
// Every expansion gate runs through begin_expansion, which enforces
// "expand (key, g) at most once, and only at the best known g" — the exact
// invariant the in-memory search maintains implicitly — so a spilling
// search reproduces the in-memory search's costs AND expansion counts
// bit-for-bit (asserted by tests/solvers/test_spill.cpp), and the
// optimality proof is untouched: no state is lost, only parked on disk.
//
// The table holds live states only. Every search loop offers a generated
// state in the same order — probe, then price, then insert:
//
//  1. probe(key, g): a key already known at a g no worse is stale and is
//     dropped before the bound is evaluated;
//  2. the caller prices the state; a provably dead state, or one whose
//     f = g + h reaches the incumbent, is dropped without taking a slot;
//  3. insert(probe, ...) stores the rest, reusing the position the probe
//     found unless growth or eviction re-homed the slots in between.
//
// A dead state is therefore priced again each time it is generated, and
// ExactSearchStats::dead_prunes counts every such generation.
//
// Slot layout: the child key, its g, and one 64-bit word packing the tree
// edge `via`, the parent's 3-bit field at via.node and the slot's flags
// (occupied, verified, expanded) with its 16-bit deferred count. A move
// rewrites exactly one node's field, so the parent key is not stored: it
// is the child key with that field restored (Packed::key_with_field). A
// slot is 24 bytes for 64-bit keys, 32 for 128-bit keys and 48 for
// VarPackedState. Spill records keep the full parent key (spill.hpp).
//
// Single-owner like ClosedTable: the sequential search owns one, each
// hda-astar shard owns one over its own spill partition.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/pebble/move.hpp"
#include "src/solvers/bigstate/spill.hpp"
#include "src/solvers/exact.hpp"
#include "src/support/check.hpp"

namespace rbpeb {

/// Whether these options engage the external-memory path: a memory budget
/// is set and spilling is not explicitly off. One definition serves
/// exact-astar and hda-astar.
inline bool bigstate_spill_enabled(const ExactSearchOptions& options) {
  return options.max_memory_bytes != 0 && options.spill != SpillMode::Off;
}

/// Create the per-search spill directory the options ask for — a unique,
/// search-owned directory under the system temp dir (Auto) or under
/// options.spill_path (Path) — or nullopt when spilling is disabled. The
/// directory and everything in it is removed when the returned object dies,
/// cancellation and exceptions included.
std::optional<bigstate::SpillDirectory> make_spill_directory(
    const ExactSearchOptions& options);

template <typename Packed>
class SpillingClosedTable {
 public:
  using Key = typename Packed::Key;

  /// Best known path to a state: its cost and the tree edge achieving it.
  struct Entry {
    std::int64_t g = 0;
    Key parent{};
    Move via{MoveType::Load, 0};
  };

  /// Outcome of offering one generated state (see relax()).
  enum class Relax {
    Inserted,     ///< Fresh key: push it.
    Improved,     ///< Strictly cheaper path to a known key: push it.
    Stale,        ///< A path at least as cheap is already known: drop it.
    OutOfMemory,  ///< No spill room left (spill off, or disk budget hit).
  };

  /// Verdict on a popped open item (see begin_expansion()).
  enum class Pop {
    Expand,       ///< g is the best known and unexpanded: expand now.
    Skip,         ///< Superseded or already expanded at this g: drop it.
    OutOfMemory,  ///< Bookkeeping the expansion needs no longer fits.
  };

  /// `spill_dir` empty (or `max_bytes` 0) disables spilling: budget hits
  /// then refuse exactly like ClosedTable. With spilling, the budget is
  /// honored down to a minimum working set of one initial slot slab.
  SpillingClosedTable(std::size_t node_count, std::size_t max_bytes,
                      const std::string& spill_dir,
                      std::size_t max_disk_bytes)
      : node_count_(node_count), max_bytes_(max_bytes) {
    if (!spill_dir.empty() && max_bytes != 0) {
      layout_.key_bytes = Packed::key_serialized_bytes(node_count);
      runs_.emplace(layout_, spill_dir, max_disk_bytes);
    }
  }

  /// Bytes a table needs to grow once past its first slot slab: the first
  /// slab plus the doubled one its entries are re-homed into. A budget
  /// below it holds the table to the first slab's few hundred states.
  static constexpr std::size_t first_growth_bytes() {
    return 3 * kInitialSlots * sizeof(Slot);
  }

  /// Bytes the search holds outside this table but inside the same memory
  /// budget — pattern-database tables and the open queue's bucket arrays.
  /// Counted against max_bytes alongside bytes(); refreshed by the searches
  /// at their poll checkpoints.
  void set_overhead_bytes(std::size_t bytes) { overhead_bytes_ = bytes; }

  /// Where a probed key stands. `verdict` is what insert() would report:
  /// Stale (drop it), Inserted (absent) or Improved (known at a worse g).
  /// Valid until the next call that changes the table.
  struct Probe {
    Relax verdict = Relax::Inserted;
    std::size_t pos = 0;        ///< the key's slot, or the empty slot ending
                                ///< its probe run
    std::uint64_t epoch = 0;    ///< slot layout the position belongs to
  };

  /// Step 1 of probe → price → insert: one hash probe for `key` at path
  /// cost g. Stale means a path at least as cheap is already in RAM (the
  /// delayed check against disk happens at expansion time).
  Probe probe(const Key& key, std::int64_t g) const {
    if (slots_.empty()) return Probe{Relax::Inserted, 0, epoch_};
    const std::size_t pos = locate(key);
    if (!slots_[pos].occupied) return Probe{Relax::Inserted, pos, epoch_};
    return Probe{g >= slots_[pos].g ? Relax::Stale : Relax::Improved, pos,
                 epoch_};
  }

  /// Step 3: store a priced, live, non-stale state. Precondition: `p` is
  /// this table's latest probe of `key` at `g`, not Stale, and `parent`
  /// differs from `key` at most in node via.node's field — `parent` is a
  /// real parent and `via` the move taking it to `key` (or, for the start
  /// state, parent == key). Only that field of `parent` is kept; at()
  /// derives the parent back from `key`.
  Relax insert(Probe p, const Key& key, std::int64_t g, const Key& parent,
               Move via) {
    RBPEB_ENSURE(p.epoch == epoch_ && p.verdict != Relax::Stale,
                 "SpillingClosedTable::insert: outdated or stale probe");
    const unsigned parent_field = Packed::key_field(parent, via.node);
    if (p.verdict == Relax::Improved) {
      // A strict improvement re-opens the state; verified status survives
      // (the RAM g only moved further below any spilled record's). Items
      // at the old g — deferred duplicates included — go stale with it.
      Slot& slot = slots_[p.pos];
      slot.g = g;
      set_edge(slot, via, parent_field);
      slot.expanded = 0;
      slot.deferred = 0;
      return Relax::Improved;
    }
    if (!ensure_capacity()) return Relax::OutOfMemory;
    if (!budget_insert(Packed::key_heap_bytes(key))) {
      return Relax::OutOfMemory;
    }
    // Growth or eviction re-homed the slots: find the key's new empty slot.
    if (p.epoch != epoch_) p.pos = locate(key);
    place(p.pos, key, g, via, parent_field);
    return Relax::Inserted;
  }

  /// probe() then insert() without pricing in between — for states that are
  /// already priced (the start state, hda-astar's routed messages). The
  /// same precondition on (parent, via) as insert().
  Relax relax(const Key& key, std::int64_t g, const Key& parent, Move via) {
    const Probe p = probe(key, g);
    if (p.verdict == Relax::Stale) return Relax::Stale;
    return insert(p, key, g, parent, via);
  }

  /// Gate a popped open item (key, g): Expand exactly when the in-memory
  /// search would expand it — g matches the best known path and the state
  /// has not been expanded at this g yet. The first pop of an unverified
  /// entry triggers the batched merge pass against the spill runs.
  Pop begin_expansion(const Key& key, std::int64_t g) {
    if (Slot* slot = find_slot(key)) {
      if (!slot->verified) {
        reconcile();
        slot = find_slot(key);  // reconcile never moves slots; be explicit
      }
      if (slot->g != g || slot->expanded) return Pop::Skip;
      if (slot->deferred > 0) {
        --slot->deferred;  // a duplicate item: the original expands later
        return Pop::Skip;
      }
      slot->expanded = 1;
      return Pop::Expand;
    }
    // The key was evicted wholesale; its truth lives on disk.
    RBPEB_ENSURE(runs_ && !runs_->empty(),
                 "begin_expansion: popped key absent from RAM and disk");
    std::uint8_t* rec = rec_scratch();
    Packed::key_serialize(key, key_scratch());
    const bool found = runs_->lookup(key_scratch(), rec);
    RBPEB_ENSURE(found, "begin_expansion: popped key lost by the spill");
    if (bigstate::spill_record_g(layout_, rec) != g ||
        bigstate::spill_record_expanded(layout_, rec)) {
      return Pop::Skip;
    }
    // Re-adopt into RAM — marked expanded if this pop is the state's
    // original item, or with one deferred duplicate consumed if not — so
    // every sibling item at the same g resolves against RAM from here on.
    // (ensure_capacity/make_room may reuse the scratch; copy fields first.)
    const Move via = bigstate::spill_record_via(layout_, rec);
    const unsigned parent_field = record_parent_field(rec, via);
    const std::uint16_t deferred =
        bigstate::spill_record_deferred(layout_, rec);
    if (!ensure_capacity()) return Pop::OutOfMemory;
    if (!budget_insert(Packed::key_heap_bytes(key))) return Pop::OutOfMemory;
    Slot& slot = place(locate(key), key, g, via, parent_field);
    slot.verified = 1;
    if (!pending_.empty() && pending_.back() == key) {
      pending_.pop_back();  // place() queued it; it is already settled
      pending_heap_bytes_ -= Packed::key_heap_bytes(key);
    }
    if (deferred > 0) {
      slot.deferred = deferred - 1u;
      return Pop::Skip;
    }
    slot.expanded = 1;
    return Pop::Expand;
  }

  /// Settle every unverified entry against the spill runs. MUST be called
  /// before path reconstruction: an evicted-then-regenerated state's RAM
  /// entry may hold a worse (unreconciled) path whose tree edge would
  /// otherwise be spliced into the returned trace by at().
  void settle() { reconcile(); }

  /// Best known path record for `key`, wherever it lives — RAM or a spill
  /// run. Callers must settle() first (reconstruction walks only settled
  /// keys), so the key must exist and RAM entries are best-known. A RAM
  /// entry's parent is derived: `key` with the stored field restored.
  Entry at(const Key& key) const {
    if (const Slot* slot = find_slot(key)) {
      RBPEB_ENSURE(slot->verified,
                   "SpillingClosedTable::at: unsettled entry — call "
                   "settle() before reconstruction");
      return Entry{slot->g, derived_parent(*slot), via_of(*slot)};
    }
    RBPEB_ENSURE(runs_ && !runs_->empty(),
                 "SpillingClosedTable::at: key not present");
    std::uint8_t* rec = rec_scratch();
    Packed::key_serialize(key, key_scratch());
    const bool found = runs_->lookup(key_scratch(), rec);
    RBPEB_ENSURE(found, "SpillingClosedTable::at: key not present");
    return Entry{bigstate::spill_record_g(layout_, rec),
                 Packed::key_deserialize(rec + layout_.parent_offset(),
                                         node_count_),
                 bigstate::spill_record_via(layout_, rec)};
  }

  std::size_t size() const { return size_; }

  /// RAM footprint: slot array, heap spill of stored keys, and the pending
  /// (unverified-key) buffer. Overhead bytes are budgeted but reported by
  /// their owners.
  std::size_t bytes() const {
    return slots_.capacity() * sizeof(Slot) + heap_bytes_ +
           pending_.capacity() * sizeof(Key) + pending_heap_bytes_;
  }

  std::size_t max_bytes() const { return max_bytes_; }

  bool spilling() const { return runs_.has_value(); }
  std::size_t spilled_states() const {
    return runs_ ? runs_->records_spilled() : 0;
  }
  std::size_t spill_bytes() const { return runs_ ? runs_->bytes_written() : 0; }
  std::size_t spill_peak_bytes() const {
    return runs_ ? runs_->peak_disk_bytes() : 0;
  }
  std::size_t merge_passes() const { return runs_ ? runs_->merge_passes() : 0; }
  bool spill_io_error() const {
    return runs_ && runs_->last_failure() == bigstate::SpillFailure::Io;
  }

  /// True once the table refused to grow because the budget could not cover
  /// the rehash *transient* (old + new slot slab while re-homing) even
  /// though the grown table's steady-state footprint would have fit — the
  /// search stopped one doubling early. Sticky; surfaced by the searches as
  /// `table_headroom_stop` so the ROADMAP residual cap is observable.
  bool headroom_stop() const { return headroom_stop_; }

 private:
  struct Slot {
    Key key{};
    std::int64_t g = 0;
    std::uint64_t via_node : 32 = 0;
    std::uint64_t via_type : 2 = 0;
    std::uint64_t parent_field : 3 = 0;  ///< the parent's field at via_node
    std::uint64_t occupied : 1 = 0;
    std::uint64_t verified : 1 = 1;  ///< RAM g ≤ every spilled g for this key
    std::uint64_t expanded : 1 = 0;  ///< the state was expanded at exactly g
    /// Duplicate open-queue items at g that must pop (and be consumed)
    /// before the state's earliest-pushed item expands it — what keeps
    /// spilled expansion ORDER identical to in-memory: dups are pushed
    /// later, so LIFO buckets pop them first, and the real expansion still
    /// happens at the original item's queue position.
    std::uint64_t deferred : 16 = 0;
  };
  static_assert(sizeof(Slot) == sizeof(Key) + 2 * sizeof(std::uint64_t),
                "a slot is its key, g and one packed edge/flags word");

  static Move via_of(const Slot& slot) {
    return Move{static_cast<MoveType>(slot.via_type),
                static_cast<NodeId>(slot.via_node)};
  }

  static void set_edge(Slot& slot, Move via, unsigned parent_field) {
    slot.via_node = via.node;
    slot.via_type = static_cast<unsigned>(via.type);
    slot.parent_field = parent_field;
  }

  static Key derived_parent(const Slot& slot) {
    return Packed::key_with_field(slot.key, static_cast<NodeId>(slot.via_node),
                                  static_cast<unsigned>(slot.parent_field));
  }

  /// The parent's field at via.node, read from a spill record's full
  /// parent key.
  unsigned record_parent_field(const std::uint8_t* rec, Move via) const {
    return Packed::key_field(
        Packed::key_deserialize(rec + layout_.parent_offset(), node_count_),
        via.node);
  }

  static constexpr std::size_t kInitialSlots = 1024;
  /// A spilling table never evicts below this population: budgets smaller
  /// than the working-set floor would otherwise degenerate into one-record
  /// runs. The budget is honored above the floor, best-effort below.
  static constexpr std::size_t kMinEvictEntries = 512;

  bool fits(std::size_t total) const {
    return max_bytes_ == 0 || total <= max_bytes_;
  }

  /// Budget gate for one fresh insert costing `extra` heap bytes: within
  /// budget, or shed the cold half first; below the working-set floor a
  /// spilling table admits the insert regardless (a table too small to
  /// evict from must still make progress). False = truly out of room
  /// (spilling off, or the disk budget is exhausted too).
  bool budget_insert(std::size_t extra) {
    if (fits(bytes() + overhead_bytes_ + extra)) return true;
    if (!spilling()) return false;
    if (size_ >= kMinEvictEntries && !make_room()) return false;
    return true;
  }

  /// Linear probe for `key` in a non-empty slot array: the key's slot, or
  /// the empty slot ending its probe run — where a fresh insert goes.
  std::size_t locate(const Key& key) const {
    std::size_t i = Packed::hash_key(key) & mask_;
    while (slots_[i].occupied && !(slots_[i].key == key)) i = (i + 1) & mask_;
    return i;
  }

  Slot* find_slot(const Key& key) {
    if (slots_.empty()) return nullptr;
    Slot& slot = slots_[locate(key)];
    return slot.occupied ? &slot : nullptr;
  }

  const Slot* find_slot(const Key& key) const {
    return const_cast<SpillingClosedTable*>(this)->find_slot(key);
  }

  /// Keep the load factor below 3/4: grow within the budget, else shed the
  /// cold half to disk (which halves the load instead).
  bool ensure_capacity() {
    if (!slots_.empty() && (size_ + 1) * 4 < slots_.size() * 3) return true;
    if (grow()) return true;
    if (make_room()) return true;
    if (grow_refused_for_headroom_ && !headroom_stop_) {
      // The capacity refusal that ends the search was a transient-only one:
      // the grown table would have fit, the copy peak would not. Record it
      // so the BudgetExhausted the caller is about to report can say so.
      headroom_stop_ = true;
      obs::trace_instant("table.headroom_stop", "table_bytes", bytes());
      obs::MetricsRegistry::instance().counter("table.headroom_stop").add();
    }
    return false;
  }

  bool grow() {
    const std::size_t new_cap =
        slots_.empty() ? kInitialSlots : slots_.size() * 2;
    // The rehash transient counts: the old slot array stays alive alongside
    // the new one until every occupied slot is re-homed below, so the peak
    // the budget must cover is old + new, not new alone.
    const std::size_t new_total = (new_cap + slots_.size()) * sizeof(Slot) +
                                  heap_bytes_ +
                                  pending_.capacity() * sizeof(Key) +
                                  pending_heap_bytes_ + overhead_bytes_;
    grow_refused_for_headroom_ = false;
    if (!fits(new_total)) {
      // Would the grown table have fit at steady state (new slab only, old
      // one freed)? Then this refusal is purely the rehash transient.
      const std::size_t steady_total =
          new_cap * sizeof(Slot) + heap_bytes_ +
          pending_.capacity() * sizeof(Key) + pending_heap_bytes_ +
          overhead_bytes_;
      grow_refused_for_headroom_ = fits(steady_total);
      // The first slab is the minimum working set a spilling table needs
      // to make progress; below it the budget is best-effort.
      if (!(spilling() && slots_.empty())) return false;
    }
    rehome(new_cap);
    return true;
  }

  /// Rebuild the slot array at `capacity` slots, re-inserting every
  /// occupied slot. Positions handed out by earlier probes are void after.
  void rehome(std::size_t capacity) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(capacity, Slot{});
    mask_ = capacity - 1;
    ++epoch_;
    heap_bytes_ = 0;
    size_ = 0;
    for (Slot& slot : old) {
      if (!slot.occupied) continue;
      std::size_t i = Packed::hash_key(slot.key) & mask_;
      while (slots_[i].occupied) i = (i + 1) & mask_;
      heap_bytes_ += Packed::key_heap_bytes(slot.key);
      slots_[i] = std::move(slot);
      ++size_;
    }
  }

  /// Store a fresh key at `pos`, the empty slot locate() found for it.
  Slot& place(std::size_t pos, const Key& key, std::int64_t g, Move via,
              unsigned parent_field) {
    Slot& slot = slots_[pos];
    slot.key = key;
    slot.g = g;
    set_edge(slot, via, parent_field);
    slot.occupied = 1;
    slot.expanded = 0;
    slot.deferred = 0;
    slot.verified = !runs_ || runs_->empty();
    heap_bytes_ += Packed::key_heap_bytes(slot.key);
    ++size_;
    ++epoch_;  // the empty slot other probes may have found is taken
    if (!slot.verified) {
      pending_.push_back(slot.key);
      pending_heap_bytes_ += Packed::key_heap_bytes(slot.key);
    }
    return slot;
  }

  /// The batched DDD pass: merge-join every unverified key against the
  /// spill runs and fold better-or-equal disk records into their RAM
  /// entries, restoring exact in-memory semantics for all of them.
  void reconcile() {
    if (pending_.empty()) return;
    if (runs_ && !runs_->empty()) {
      const obs::TraceSpan merge_span("spill.merge", "pending",
                                      pending_.size());
      const std::size_t kb = layout_.key_bytes;
      std::vector<std::uint32_t> order(pending_.size());
      std::iota(order.begin(), order.end(), 0u);
      std::vector<std::uint8_t> keys(pending_.size() * kb);
      for (std::size_t i = 0; i < pending_.size(); ++i) {
        Packed::key_serialize(pending_[i], keys.data() + i * kb);
      }
      std::sort(order.begin(), order.end(),
                [&](std::uint32_t a, std::uint32_t b) {
                  return std::memcmp(keys.data() + a * kb,
                                     keys.data() + b * kb, kb) < 0;
                });
      std::vector<std::uint8_t> sorted(keys.size());
      for (std::size_t i = 0; i < order.size(); ++i) {
        std::memcpy(sorted.data() + i * kb, keys.data() + order[i] * kb, kb);
      }
      runs_->batch_lookup(
          sorted.data(), order.size(),
          [&](std::size_t i, const std::uint8_t* rec) {
            Slot* slot = find_slot(pending_[order[i]]);
            RBPEB_ENSURE(slot != nullptr, "reconcile: pending key vanished");
            const std::int64_t disk_g = bigstate::spill_record_g(layout_, rec);
            const std::int64_t ram_g = slot->g;
            if (disk_g > ram_g) return;  // stale disk history
            // The disk path was there first: adopt it (ties keep the first
            // inserter's tree edge, as the in-memory table would). If the
            // disk copy was expanded, the regenerated duplicate's queue
            // item dies at its pop; if it is still open at the same g, the
            // duplicate defers to the original's (earlier) queue item so
            // expansion order stays bit-identical to in-memory.
            const bool disk_expanded =
                bigstate::spill_record_expanded(layout_, rec);
            std::uint16_t deferred =
                bigstate::spill_record_deferred(layout_, rec);
            if (disk_g == ram_g && !disk_expanded &&
                deferred < std::numeric_limits<std::uint16_t>::max()) {
              // This fresh insert pushed one more duplicate. Saturating at
              // 65535 (would need that many evict/regenerate cycles of one
              // key at one g) degrades expansion ORDER locally, never
              // correctness: each (key, g) still expands at most once.
              ++deferred;
            }
            const Move via = bigstate::spill_record_via(layout_, rec);
            slot->g = disk_g;
            set_edge(*slot, via, record_parent_field(rec, via));
            slot->expanded = disk_expanded;
            slot->deferred = deferred;
          });
    }
    for (const Key& key : pending_) {
      Slot* slot = find_slot(key);
      RBPEB_ENSURE(slot != nullptr, "reconcile: pending key vanished");
      slot->verified = 1;
    }
    pending_.clear();
    pending_heap_bytes_ = 0;
  }

  /// Shed the cold half: settle every unverified entry first (eviction must
  /// write truth, not candidates), then spill the lowest-g half of the
  /// table into a fresh sorted run and drop it from RAM.
  bool make_room() {
    if (!spilling() || size_ == 0) return false;
    reconcile();
    const obs::TraceSpan evict_span("spill.evict", "entries", size_);
    std::vector<std::uint32_t> occupied;
    occupied.reserve(size_);
    for (std::uint32_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i].occupied) occupied.push_back(i);
    }
    const std::size_t evict_count = (occupied.size() + 1) / 2;
    // Lowest g-layer first: in a mostly-monotone best-first search those
    // are the levels the frontier has left behind — the cold end.
    std::nth_element(occupied.begin(), occupied.begin() + (evict_count - 1),
                     occupied.end(), [&](std::uint32_t a, std::uint32_t b) {
                       return slots_[a].g < slots_[b].g;
                     });
    const std::size_t rb = layout_.record_bytes();
    std::vector<std::uint8_t> records(evict_count * rb);
    for (std::size_t v = 0; v < evict_count; ++v) {
      const Slot& slot = slots_[occupied[v]];
      std::uint8_t* rec = records.data() + v * rb;
      Packed::key_serialize(slot.key, rec);
      Packed::key_serialize(derived_parent(slot),
                            rec + layout_.parent_offset());
      bigstate::spill_record_store(layout_, rec, slot.g, via_of(slot),
                                   slot.expanded != 0,
                                   static_cast<std::uint16_t>(slot.deferred));
    }
    bigstate::sort_spill_records(layout_, records.data(), evict_count);
    if (!runs_->append_run(records.data(), evict_count)) return false;
    {
      auto& registry = obs::MetricsRegistry::instance();
      registry.counter("spill.evict_passes").add();
      registry.counter("spill.evicted_states").add(evict_count);
    }
    // Rebuild the slot array without the victims (same capacity: the point
    // was shedding entries and their heap keys, not shrinking the slab).
    for (std::size_t v = 0; v < evict_count; ++v) {
      slots_[occupied[v]].occupied = 0;
    }
    rehome(slots_.size());
    return true;
  }

  std::size_t node_count_ = 0;
  std::size_t max_bytes_ = 0;
  std::size_t overhead_bytes_ = 0;
  bool grow_refused_for_headroom_ = false;  ///< last grow() refusal kind
  bool headroom_stop_ = false;              ///< see headroom_stop()
  bigstate::SpillLayout layout_;
  std::optional<bigstate::SpillRunSet> runs_;
  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::uint64_t epoch_ = 0;  ///< bumped whenever slot positions change
  std::size_t size_ = 0;
  std::size_t heap_bytes_ = 0;
  /// Scratch buffers for single-record disk lookups (begin_expansion, at):
  /// sized once, reused on the hot popped-an-evicted-key path instead of
  /// allocating per pop.
  std::uint8_t* key_scratch() const {
    key_scratch_.resize(layout_.key_bytes);
    return key_scratch_.data();
  }
  std::uint8_t* rec_scratch() const {
    rec_scratch_.resize(layout_.record_bytes());
    return rec_scratch_.data();
  }

  std::vector<Key> pending_;  ///< unverified keys since the last merge pass
  std::size_t pending_heap_bytes_ = 0;
  mutable std::vector<std::uint8_t> key_scratch_;
  mutable std::vector<std::uint8_t> rec_scratch_;
};

}  // namespace rbpeb
