// SessionStore: the serving runtime's session arena, its hot-path data
// layout, and the per-session decide kernel.
//
// The store separates a session's cold slab record (spec, trace, lifecycle
// slots) from dense struct-of-arrays mirrors of exactly the fields the
// decide/schedule/drain phases read every slot, so each phase is a linear
// walk over contiguous arrays. Decide is one pass over the active list:
// every session runs the drift-plus-penalty argmax,
// d* = argmax V·p_a(d) − Q(t)·a(d), over its own flattened candidate row
// (precomputed log-points and bytes; no transcendental math, no virtual
// dispatch) and under its QoS tier's brownout ceiling. The argmax spans a
// handful of candidates, so it costs less than any scheme that would share
// it between sessions with equal inputs: such a scheme pays a key, a probe
// and a fan-out per session whether or not the inputs repeat.
//
// Frame rows are addressed by a per-session *row cursor* advanced in the
// drain phase (every active session drains every slot), so decide needs no
// `(slot - arrival) % frames` integer division per session.
//
// The trace is the slot loop's largest memory stream: every active session
// records every slot. Decide therefore outputs the index of the chosen
// candidate (plus its arrivals, which the scheduler reads), and drain writes
// the share and a one-byte copy of that index into the session's current
// StepChunk, taken from the link's StepArena in bump order. Drain reaches
// the chunk through two hot mirrors (the chunk being written and the chain
// position), never through the cold slab; the session's SessionTrace
// learns its size when the session retires and decodes full StepRecords on
// read from the table rows and the Lindley recurrence (see
// session_trace.hpp). Every chunk names its segment: activate tags the head
// chunk with the segment's slab position, and when a chunk fills, drain
// links a fresh one under the filled chunk's tag (read from the same cache
// line it just wrote), so finish() can summarize the link's records in one
// read of the arena.
//
// A store keeps only the segments that may still matter: when the cluster
// re-places a session (failover or migration), the link the session left
// releases the superseded segment (release()). Its chunks return to the
// arena's free list and its slab position to the store's slot free list,
// which create() takes from before it appends. So slab positions, and the
// tags that name them, are reused; a record's placement number keeps the
// order in which the link placed its segments (placement_order()).
//
// Floating-point *sums* are deliberately not maintained incrementally: an
// incrementally updated sum rounds differently from the canonical
// left-to-right pass, and everything here must stay bit-for-bit against the
// view-based reference runtime (asserted by reference_runtime_test and the
// serving determinism tests).
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/status.hpp"
#include "serving/session_trace.hpp"
#include "sim/frame_stats_cache.hpp"

namespace arvis {

/// A session's lifetime is [arrival_slot, departure_slot); this sentinel
/// means "stays until the run ends".
inline constexpr std::size_t kNeverDeparts =
    std::numeric_limits<std::size_t>::max();

/// QoS tiers the store tracks candidate ceilings for. Sized above kSloTiers
/// so this layer stays independent of the telemetry headers; the manager
/// validates spec.qos < kSloTiers long before activation.
inline constexpr std::size_t kStoreQosTiers = 8;

/// One streaming client as submitted to the server.
struct SessionSpec {
  /// Frame statistics of the content this session streams (non-null;
  /// sessions may share a cache).
  const FrameStatsCache* cache = nullptr;
  std::size_t arrival_slot = 0;
  std::size_t departure_slot = kNeverDeparts;
  /// Scheduler priority (>= 0; weighted policies only).
  double weight = 1.0;
  /// QoS tier for SLO accounting: 0 = best-effort, 1 = standard,
  /// 2 = premium. Raw index (not the driver-layer QosClass enum — this layer
  /// sits below the trace format); must be < kSloTiers, which the manager
  /// validates. Tiering affects accounting only, never scheduling.
  std::uint8_t qos = 1;
};

/// kReleased marks a free slab position: a superseded segment the store
/// released, whose record is gone.
enum class SessionPhase : std::uint8_t { kPending, kActive, kClosed, kReleased };

/// The hot SoA state carried across a live migration: backlog, served-bytes
/// EWMA, and the frame-row cursor. Extracted from the source link's store
/// just before the session retires there and injected into the target's
/// store right after activation, so the migrated session's decide/drain
/// sequence continues bit for bit — the row cursor stays valid because
/// every link shares one ServingConfig (same candidate width) and caches
/// intern to tables of identical geometry. Deliberately *not* carried: the
/// candidate ceiling (limit), which is the target link's brownout state, and
/// the weight, which rides in the spec.
struct HotSessionState {
  double backlog = 0.0;
  double ewma = 0.0;
  std::size_t row_off = 0;
};

/// The cold per-session record (slab resident; read at lifecycle edges,
/// never in the decide/schedule/drain loops).
struct ServingSession {
  ServingSession(std::size_t id_in, const SessionSpec& spec_in)
      : id(id_in), spec(spec_in), arrival_actual(spec_in.arrival_slot) {}

  std::size_t id;
  SessionSpec spec;
  /// Per-slot record (see session_trace.hpp): started at activation on the
  /// link's chunk arena, sealed when the session retires (empty until then).
  SessionTrace trace;
  SessionPhase phase = SessionPhase::kPending;
  int max_sustainable_depth = 0;
  double cheapest_load = 0.0;
  /// Slot the session actually became active; session-local frame time
  /// counts from here.
  std::size_t arrival_actual = 0;
  std::size_t departure_actual = 0;
  /// The store's placement number: its create() count when this segment
  /// was created.
  std::size_t placement = 0;
};

/// The arena + hot-mirror container. The SessionManager owns one and drives
/// it; the store's job is keeping the SoA arrays in lockstep with the
/// active list so the phase loops can trust plain indices.
class SessionStore {
 public:
  /// `candidates` must be non-empty (the manager validates ordering/range)
  /// and at most 255 long: a record stores the chosen index in one byte.
  /// Throws std::invalid_argument otherwise, or on V < 0. A store holds at
  /// most kSegmentTagLimit (2^24) segments: a record chunk carries its
  /// segment's slab position in three bytes (see create()).
  SessionStore(std::vector<int> candidates, double v);

  // --- slab ---------------------------------------------------------------

  /// A cold record at a free slab position if there is one, else appended
  /// (stable reference either way). Ids need not be ordered (cluster
  /// placement can create them out of submission order) but must be unique
  /// among the store's records. Its slab position is the tag its record's
  /// chunks carry, so a store holds at most kSegmentTagLimit records: throws
  /// std::length_error past that.
  ServingSession& create(std::size_t id, const SessionSpec& spec);
  /// The slab position of the record create() returned last.
  [[nodiscard]] std::uint32_t newest() const noexcept { return newest_; }
  /// Slab positions, free ones included.
  [[nodiscard]] std::size_t session_count() const noexcept {
    return slab_.size();
  }
  /// Free slab positions (released segments create() has not reused).
  [[nodiscard]] std::size_t free_slots() const noexcept {
    return free_slots_.size();
  }
  /// The record at slab position `pos`, which must not be free.
  [[nodiscard]] ServingSession& session(std::size_t pos) noexcept {
    ARVIS_DCHECK_LT(pos, slab_.size());
    ARVIS_DCHECK_MSG(slab_[pos].phase != SessionPhase::kReleased,
                     "reading a released slab record");
    return slab_[pos];
  }
  [[nodiscard]] const ServingSession& session(std::size_t pos) const noexcept {
    return const_cast<SessionStore*>(this)->session(pos);
  }
  /// The slab positions that hold a record, in the order create() made
  /// them (the finish() walk).
  [[nodiscard]] std::vector<std::uint32_t> placement_order() const;
  /// Releases the closed segment at slab position `pos`, which a re-placement
  /// superseded: its record chunks go back to the arena's free list and its
  /// position to the slot free list. Touches no chunk (the check layer
  /// poisons them), and allocates only when a free list grows.
  void release(std::uint32_t pos);
  /// The link's record chunks, every record's under its slab position.
  [[nodiscard]] const StepArena& arena() const noexcept { return *arena_; }

  // --- active list + hot mirrors ------------------------------------------

  /// Marks `s`, the record create() returned last, active at `slot` and
  /// mirrors its hot fields into the SoA arrays (interning its cache's
  /// FlatDecideTable on first sight), and starts its trace on that table at
  /// `slot` in an arena chunk tagged with its slab position. The first
  /// activation of a slot starts at index 0 of its head chunk; each further
  /// one in the same slot starts one index later (wrapping at 13).
  void activate(ServingSession& s, std::size_t slot);

  /// Retires every active session `should_close` selects: seals each trace
  /// and invokes `on_close(session)` in index order, then compacts the
  /// active list and every SoA mirror, one block copy per run of survivors,
  /// keeping their relative order.
  template <class ShouldClose, class OnClose>
  void retire_active(ShouldClose should_close, OnClose on_close) {
    retiring_.clear();
    for (std::size_t i = 0; i < active_.size(); ++i) {
      if (should_close(*active_[i])) retiring_.push_back(i);
    }
    retire_marked(on_close);
  }

  /// The per-slot departure sweep: retires every session whose departure
  /// slot has been reached. Same contract as retire_active with the
  /// departure predicate, but the scan reads only the dense departure
  /// mirror — in the no-departure steady state it never touches the cold
  /// slab at all.
  template <class OnClose>
  void retire_departed(std::size_t slot, OnClose on_close) {
    retiring_.clear();
    for (std::size_t i = 0; i < departure_.size(); ++i) {
      if (departure_[i] <= slot) retiring_.push_back(i);
    }
    retire_marked(on_close);
  }

  /// Retires active session i alone (the retire_active contract).
  template <class OnClose>
  void retire_at(std::size_t i, OnClose on_close) {
    ARVIS_DCHECK_LT(i, active_.size());
    retiring_.assign(1, i);
    retire_marked(on_close);
  }

  /// Moves active session i's departure to `slot`, in its spec and in the
  /// sweep mirror together (the external-close control path).
  void set_departure(std::size_t i, std::size_t slot) noexcept {
    ARVIS_DCHECK_LT(i, active_.size());
    active_[i]->spec.departure_slot = slot;
    departure_[i] = slot;
  }

  [[nodiscard]] std::size_t active_count() const noexcept {
    return active_.size();
  }
  [[nodiscard]] ServingSession& active_session(std::size_t i) noexcept {
    ARVIS_DCHECK_LT(i, active_.size());
    ARVIS_DCHECK_MSG(active_[i] != nullptr, "poisoned active slot");
    return *active_[i];
  }

  /// Session·slots active session i has recorded in its current segment
  /// (its trace reads empty until it retires). Reads the slab: snapshot
  /// cadence, never the slot loop.
  [[nodiscard]] std::size_t recorded_steps(std::size_t i) const noexcept {
    ARVIS_DCHECK_LT(i, active_.size());
    return pos_[i] - active_[i]->trace.first();
  }
  /// Quality active session i was served in its last recorded slot: its
  /// last choice in the frame row before the cursor, which drain advanced
  /// (wrapping at row 0). Requires recorded_steps(i) > 0; valid between
  /// slots (compaction carries choice_, decide rewrites it).
  [[nodiscard]] double last_quality(std::size_t i) const noexcept {
    ARVIS_DCHECK(recorded_steps(i) != 0);
    const std::size_t stride = 2 * width_;
    const std::size_t row =
        (row_off_[i] == 0 ? frames_[i] * stride : row_off_[i]) - stride;
    return table_[i][row + choice_[i]];
  }

  // --- live-migration state transfer ---------------------------------------

  /// Reads active session i's hot mirrors for migration extraction (called
  /// before the session retires from this store, while the mirrors are
  /// still live — the poison check proves it).
  [[nodiscard]] HotSessionState hot_state(std::size_t i) const noexcept {
    ARVIS_DCHECK_LT(i, active_.size());
    ARVIS_DCHECK_MSG(
        std::bit_cast<std::uint64_t>(backlog_[i]) != kPoisonedSlotBits,
        "hot_state on poisoned (released) slot");
    return HotSessionState{backlog_[i], ewma_[i], row_off_[i]};
  }

  /// Overwrites the most recently activated session's hot mirrors with
  /// migrated state — activate() then inject_hot_state() is the migration
  /// injection sequence. The next decide reads the carried backlog and frame
  /// row instead of the fresh zero, and the segment's trace starts at them.
  /// The row cursor must be aligned to the session's table stride and in
  /// range (checked), which holds whenever source and target share the
  /// serving config and content caches.
  void inject_hot_state(const HotSessionState& state) noexcept {
    ARVIS_DCHECK(!active_.empty());
    const std::size_t i = active_.size() - 1;
    ARVIS_DCHECK_MSG(state.row_off % (2 * width_) == 0,
                     "migrated row cursor misaligned for this store");
    ARVIS_DCHECK_LT(state.row_off, frames_[i] * 2 * width_);
    backlog_[i] = state.backlog;
    ewma_[i] = state.ewma;
    row_off_[i] = state.row_off;
    active_[i]->trace.resume_at(state.backlog, state.row_off);
  }

  // --- generation-stamped handles (the arena lifetime checker) ------------

  /// A reference to an active SoA slot, stamped with the membership
  /// generation it was minted at. Any lifecycle edge (activation or
  /// retirement batch) bumps the generation, so a handle that survives one
  /// is provably stale: indices may have compacted underneath it. Resolving
  /// a stale handle is a checked error in Debug/sanitizer builds and
  /// undefined in Release — mint handles per slot, never store them across
  /// begin_slot(). Two plain words; Release pays nothing for carrying one.
  struct ActiveHandle {
    std::size_t index = 0;
    std::uint64_t generation = 0;
  };

  /// Mints a handle for active index `i` at the current generation.
  [[nodiscard]] ActiveHandle active_handle(std::size_t i) const noexcept {
    ARVIS_DCHECK_LT(i, active_.size());
    return ActiveHandle{i, generation_};
  }

  /// Resolves a handle to its session, validating (Debug only) that no
  /// lifecycle edge invalidated it and the slot is not poisoned.
  [[nodiscard]] ServingSession& resolve(ActiveHandle h) noexcept {
    ARVIS_DCHECK_MSG(h.generation == generation_,
                     "stale session handle: lifecycle edge since mint");
    ARVIS_DCHECK_LT(h.index, active_.size());
    ARVIS_DCHECK_MSG(active_[h.index] != nullptr, "poisoned active slot");
    return *active_[h.index];
  }

  /// Handle-validated hot-mirror read (the schedulers read whole spans; this
  /// is the single-session accessor for code that holds a handle).
  [[nodiscard]] double backlog_at(ActiveHandle h) const noexcept {
    ARVIS_DCHECK_MSG(h.generation == generation_,
                     "stale session handle: lifecycle edge since mint");
    ARVIS_DCHECK_LT(h.index, active_.size());
    ARVIS_DCHECK_MSG(
        std::bit_cast<std::uint64_t>(backlog_[h.index]) != kPoisonedSlotBits,
        "poisoned active slot");
    return backlog_[h.index];
  }

  /// Cross-checks every SoA mirror against the cold slab and the interned
  /// tables: index-parallel lengths, weight/departure bit-equality with the
  /// spec, table pointers/frame counts matching the table interned for the
  /// session's cache (the first one, so a duplicate intern fails), row
  /// cursors aligned and in range, no poisoned or duplicated slots, every
  /// chunk on a record's chain tagged with its slab position, every free
  /// slot released and listed once, and no free-list chunk on a record's
  /// chain. O(active + slab + chunks) — called from tests and the bench
  /// oracles, never from the slot loop (hot-path invariants are the DCHECKs
  /// above).
  [[nodiscard]] Status validate() const;

  // --- brownout quality ceilings -------------------------------------------

  /// Sets the per-QoS candidate ceiling: sessions of tier t may only choose
  /// among their first `limits[t]` candidates (candidates_ is the manager's
  /// ascending depth list, so a lower ceiling caps delivered quality — the
  /// brownout degradation knob). Tiers beyond `limits.size()` reset to the
  /// full width. Every limit must be in [1, width]. Active sessions take
  /// their tier's new ceiling at the next decide. Handles stay valid: a
  /// ceiling changes no index. Throws std::invalid_argument on a limit out of range or more than
  /// kStoreQosTiers entries.
  void set_tier_limits(std::span<const std::uint32_t> limits);

  // --- per-slot kernels ---------------------------------------------------

  /// The decide phase: for every active session, the drift-plus-penalty
  /// argmax over its precomputed candidate row for this slot, among the
  /// first limit_[i] candidates (its tier's brownout ceiling; the full
  /// width when degradation is idle). Writes the chosen candidate index and
  /// its arrivals, which schedule and drain read. Touches only index-i state
  /// per session and performs no allocation, no virtual dispatch, no
  /// transcendental math and no integer division (the frame row is a cursor
  /// advanced by drain()). Serial within the link; the serving runtime runs
  /// links in parallel.
  void decide_all() noexcept;

  /// Drain bookkeeping for active session i after the scheduler granted
  /// `share`: Lindley queue step, the step's record, hot-mirror refresh,
  /// EWMA update (alpha > 0 only) and frame-row cursor advance. Returns the
  /// bytes actually served.
  ///
  /// The Lindley step runs inline on the hot mirror (lindley_next, the
  /// arithmetic SessionTrace's decoder replays), because the serving runtime
  /// observes a queue only through the trace and the served-bytes return.
  /// The record keeps just the share and the chosen candidate index, written
  /// into the session's current chunk through the chunk_/pos_ mirrors (the
  /// cold slab is not touched); a chunk that fills links a fresh one from
  /// the arena, tagged with the filled chunk's tag, so every chunk of a
  /// record names its segment. Depth, arrivals, quality and both backlogs
  /// are decoded on read from the session's table row and the same
  /// recurrence.
  double drain(std::size_t i, double share, double alpha) {
    ARVIS_DCHECK_LT(i, active_.size());
    ARVIS_DCHECK_MSG(chunk_[i] != nullptr, "drain on poisoned slot");
    ARVIS_DCHECK_MSG(
        std::bit_cast<std::uint64_t>(backlog_[i]) != kPoisonedSlotBits,
        "drain on poisoned (released) slot");
    const double backlog = backlog_[i];
    const double served = served_bytes(backlog, share);
    backlog_[i] = lindley_next(backlog, share, dec_arrivals_[i]);
    StepChunk* chunk = chunk_[i];
    const std::size_t k = pos_[i]++ % kStepsPerChunk;
    chunk->service[k] = share;
    chunk->choice[k] = static_cast<std::uint8_t>(choice_[i]);
    if (k == kStepsPerChunk - 1) {
      chunk->next = arena_->alloc(chunk->tag());
      chunk_[i] = chunk->next;
    }
    const std::size_t next = row_off_[i] + 2 * width_;
    row_off_[i] = next == frames_[i] * 2 * width_ ? 0 : next;
    if (alpha > 0.0) ewma_[i] = (1.0 - alpha) * ewma_[i] + alpha * served;
    return served;
  }

  // --- SoA spans for the schedule phase -----------------------------------

  [[nodiscard]] std::span<const double> backlogs() const noexcept {
    return backlog_;
  }
  [[nodiscard]] std::span<const double> decided_arrivals() const noexcept {
    return dec_arrivals_;
  }
  [[nodiscard]] std::span<const double> weights() const noexcept {
    return weight_;
  }
  [[nodiscard]] std::span<const double> ewma_throughput() const noexcept {
    return ewma_;
  }

 private:
  /// Seals and closes the sessions at the indices in retiring_ (ascending),
  /// then compacts the survivors over them.
  template <class OnClose>
  void retire_marked(OnClose on_close) {
    if (retiring_.empty()) return;
    for (const std::size_t i : retiring_) {
      active_[i]->trace.commit(pos_[i]);
      on_close(*active_[i]);
    }
    compact_retired();
  }
  /// Moves each run of survivors between the indices in retiring_ down
  /// over them, one block copy per run in every SoA mirror (the decide
  /// choice too: last_quality reads it between slots), then shrinks the
  /// active list and bumps the generation.
  void compact_retired();
  void resize_active(std::size_t n);
  /// The (possibly newly) interned table for `cache`.
  const std::shared_ptr<const FlatDecideTable>& intern(
      const FrameStatsCache& cache);

  std::vector<int> candidates_;
  double v_;
  std::size_t width_;  // candidates_.size()
  /// Per-QoS candidate ceiling applied at activation (all width_ when the
  /// degradation policy is idle). Fixed size; never reallocates.
  std::vector<std::uint32_t> tier_limit_;

  std::deque<ServingSession> slab_;        // stable refs
  std::vector<std::uint32_t> free_slots_;  // released positions, LIFO
  std::uint32_t newest_ = 0;               // position create() returned last
  std::size_t placements_ = 0;             // create() calls so far
  std::vector<ServingSession*> active_;    // admission order
  std::vector<std::size_t> retiring_;      // scratch: indices retiring now

  // Hot SoA mirrors, index-parallel with active_.
  std::vector<double> backlog_;
  std::vector<double> weight_;
  std::vector<double> ewma_;
  std::vector<const double*> table_;       // flattened table base pointer
  std::vector<std::size_t> frames_;        // table frame count (cycle length)
  std::vector<std::size_t> row_off_;       // current frame row, in doubles
  std::vector<std::size_t> departure_;     // spec departure slot (sweep key)
  std::vector<std::uint8_t> qos_;          // spec QoS tier (ceiling lookup)
  std::vector<std::uint32_t> limit_;       // candidate ceiling (<= width_)
  std::vector<StepChunk*> chunk_;          // chunk drain writes into next
  std::vector<std::size_t> pos_;           // chain position drain writes next

  // Per-slot decide outputs (written by decide, read by schedule/drain):
  // the chosen candidate index and its arrivals.
  std::vector<std::uint32_t> choice_;
  std::vector<double> dec_arrivals_;

  // This link's record chunks. Shared with every trace started in it, so
  // finished outcomes stay decodable after the store.
  std::shared_ptr<StepArena> arena_;
  std::size_t next_first_ = 0;     // head-chunk index of the next activation
  std::size_t rotation_slot_ = 0;  // the slot next_first_ rotates within

  // Interned flattened tables, keyed by cache identity (few distinct caches
  // per run; linear scan at activation only). Shared with every trace
  // started on them, so finished outcomes stay decodable after the store.
  std::vector<
      std::pair<const FrameStatsCache*, std::shared_ptr<const FlatDecideTable>>>
      tables_;

  std::uint64_t generation_ = 1;  // lifecycle-edge count (ActiveHandle)
};

}  // namespace arvis
