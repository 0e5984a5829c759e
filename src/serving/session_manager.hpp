// The per-link serving engine.
//
// A SessionManager is one edge link: its admission controller, its
// EdgeScheduler and the sessions streaming on it. It does not own a session
// lifecycle of its own — EdgeCluster, the one serving runtime, places every
// session onto a link (try_place, or place_migrated for a live migration),
// routes external closes to it, and drives its slot phases. A one-link
// server is a K = 1 cluster (run_cluster_scenario with one channel). Every
// session's depth decisions stay purely local (the paper's
// distributed-operation claim survives intact — the only centralized pieces
// are the link dividing its own capacity and the edge refusing sessions that
// cannot fit its stability region).
//
// Slot phases, as EdgeCluster::step calls them:
//   1. begin_slot(): close this slot's departures (so a same-slot placement
//      sees the freed link reservation); placements and migrations follow,
//      then evaluate_brownout() when the degradation policy is on. The
//      cluster runs this prefix serially, because placement reads every
//      link's reservations;
//   2. finish_slot(): the link's slot work, one task on the cluster's
//      executor. Every active session decides on local state (one argmax
//      per session, SessionStore::decide_all), the EdgeScheduler divides
//      the slot's capacity, queues drain, and per-session records (9.85
//      bytes per slot in the link's chunk arena, decoded on read — see
//      session_trace.hpp) and link metrics record. It touches only this
//      link's state, so links run concurrently and the result is
//      bit-identical for any thread count.
// At the run's end, finish() fills each session's outcome from the segment
// it ended on and summarizes the link's records in one read of its chunk
// arena (SessionTrace::summarize_in_arena_order). The cluster runs the
// links' finish calls as executor tasks, like their slot work.
//
// Data layout (the hot-path contract): sessions live in the SessionStore's
// stable-index slab, and the per-slot fields the three phases touch are
// mirrored into dense struct-of-arrays vectors indexed by the active list —
// decide is a flattened argmax over precomputed candidate rows, schedule
// consumes the SoA spans directly (no demand-struct copy-in), drain walks
// the same arrays. See session_store.hpp; perf/ measures the resulting
// ns/session·slot, and tests/reference_runtime_test.cpp asserts the layout
// is behaviour-free against the view-based reference runtime.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/status.hpp"
#include "serving/admission.hpp"
#include "serving/metrics.hpp"
#include "serving/scheduler.hpp"
#include "serving/session_store.hpp"
#include "serving/session_trace.hpp"
#include "serving/telemetry/flight_recorder.hpp"
#include "serving/telemetry/registry.hpp"
#include "serving/telemetry/slo.hpp"
#include "serving/telemetry/tracer.hpp"
#include "sim/frame_stats_cache.hpp"
#include "sim/trace.hpp"

namespace arvis {

/// Brownout degradation: under overload or reduced capacity a link
/// lowers the per-QoS quality ceiling (restricting each session's decide
/// candidate set to a prefix) *before* admission starts hard-rejecting —
/// everyone streams a little worse instead of newcomers streaming not at
/// all. Transitions are hysteretic (enter above one utilization, exit below
/// a lower one) and recorded as flight events, so the SLO quality-floor spec
/// and the black box both see them. Free when disabled: one branch per slot.
struct DegradationPolicy {
  bool enabled = false;
  /// Enter brownout when reserved load / scaled admissible capacity reaches
  /// this fraction. Must exceed exit_utilization.
  double enter_utilization = 0.98;
  /// Exit brownout when utilization falls back to this fraction.
  double exit_utilization = 0.85;
  /// Candidates shaved off the top of each tier's set during brownout
  /// (0 = best-effort, 1 = standard, 2 = premium). Clamped so at least
  /// min_candidates survive.
  std::size_t tier_drop[kSloTiers] = {3, 2, 1};
  /// Floor on every tier's brownout candidate count. >= 1.
  std::size_t min_candidates = 1;
};

/// A session forcibly evicted by the fault plane (its link went down),
/// reported to the caller for failover re-placement. `spec` is the live
/// spec: the departure slot reflects any external close applied since
/// admission.
struct EvictedSession {
  std::size_t id = 0;
  SessionSpec spec;
};

struct ServingConfig {
  std::size_t steps = 800;
  std::vector<int> candidates{5, 6, 7, 8, 9, 10};
  SchedulerPolicy policy = SchedulerPolicy::kWorkConserving;
  /// Tradeoff knob V of every session's Lyapunov controller (byte domain —
  /// calibrate with calibrate_streaming_v).
  double v = 0.0;
  AdmissionConfig admission;
  /// Width of the cluster's executor, whose tasks are links: each runs one
  /// link's finish_slot, bit-identically to serial. No effect at K = 1 (one
  /// task always runs inline); 1 = serial, 0 = all cores.
  std::size_t threads = 1;
  /// Averaging window (slots) of the per-session served-bytes EWMA fed to
  /// the proportional-fair scheduler: alpha = 1 / window. 0 (default)
  /// disables the history signal — proportional-fair then weighs
  /// instantaneous demand, the legacy behaviour, bit for bit. Must be 0 or
  /// >= 1.
  double pf_ewma_window = 0.0;
  /// Observability wiring (off by default — and free when off: the
  /// instrumentation points are null checks and slot-boundary counter
  /// bumps, never per-session work). See serving/telemetry/.
  TelemetryConfig telemetry;
  /// Brownout degradation policy (off by default; requires admission
  /// enabled to observe utilization).
  DegradationPolicy degradation;
};

/// One session's run record, filled once at finish() from the segment the
/// session ended on (its current link).
struct SessionOutcome {
  std::size_t id = 0;
  bool admitted = false;
  /// Slot the session actually became active. Equals the spec's
  /// arrival_slot unless the spec was submitted between steps with an
  /// already-elapsed arrival, in which case it arrived at submission time.
  std::size_t arrival_slot = 0;
  /// Actual last-active bound (run end for sessions that never departed).
  std::size_t departure_slot = 0;
  double weight = 1.0;
  /// Depth headroom the admission controller saw at arrival.
  int max_sustainable_depth = 0;
  /// True when `summary` is populated (admitted with a non-empty trace);
  /// computed once at finish() so consumers need not re-summarize. Sessions
  /// active < 8 slots carry a partial summary (summary.partial) whose means
  /// are valid but whose stability verdict is reported as "too-short".
  bool has_summary = false;
  TraceSummary summary;
  /// Per-slot record over the active window (empty when rejected), packed;
  /// decode with steps() or to_trace(). It keeps its arena chunks and decide
  /// table alive, so it stays decodable after the runtime is gone.
  SessionTrace trace;
};

/// One link of an EdgeCluster. Not thread-safe; the cluster drives it.
class SessionManager {
 public:
  /// `mean_capacity_bytes` calibrates admission (ChannelModel::
  /// mean_capacity_bytes() of the stream that drives this link). Throws
  /// std::invalid_argument on an empty or non-ascending candidate set,
  /// steps == 0, or a bad admission config.
  SessionManager(const ServingConfig& config, double mean_capacity_bytes);
  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  // --- Phase API -----------------------------------------------------------
  // EdgeCluster interleaves the phases of its links: close everywhere, place
  // cross-link arrivals, then run each link's finish_slot() as one task
  // with its own capacity draw. Call order per slot: begin_slot()
  // [+ try_place()* / place_migrated()*] [+ evaluate_brownout()]
  // -> finish_slot().

  /// Link-level outcome of one slot, returned by finish_slot() so external
  /// drivers can aggregate fleet metrics across links.
  struct SlotReport {
    double capacity_offered = 0.0;
    /// Bytes that actually drained queues (never exceeds offered).
    double capacity_used = 0.0;
    std::size_t active_sessions = 0;
  };

  /// Closes this slot's departures, so a same-slot placement sees the freed
  /// link reservation.
  void begin_slot();

  /// The degradation policy's per-slot pass: enters or exits brownout from
  /// this slot's reservation level, so call it after the slot's placements
  /// and migrations and before finish_slot — a same-slot arrival then
  /// decides under the ceiling it caused. Only for an enabled policy (the
  /// one the constructor validated); EdgeCluster gates the call on it.
  void evaluate_brownout();

  /// The link's slot work: decides every active session
  /// (SessionStore::decide_all), schedules the slot's capacity over the
  /// store's SoA spans, drains queues, records metrics, and advances the
  /// slot clock. Touches only this link's state — its
  /// flight events and spans go through the recorders' atomic slot claims —
  /// so EdgeCluster runs the links' calls concurrently.
  SlotReport finish_slot(double capacity_bytes);

  /// try_place()'s and place_migrated()'s result: the admission decision
  /// and, on accept, the new segment's slab position on this link, which
  /// release_segment() takes.
  struct Placement : AdmissionDecision {
    std::uint32_t segment = 0;
  };

  /// The placement hook (EdgeCluster): runs this link's admission on `spec`
  /// right now. On accept the session is created *active at the current
  /// slot* under the caller-assigned `session_id`. On reject nothing is
  /// recorded beyond admission stats — the caller may spill the session to
  /// another link. Validates with validate_spec(). Call between
  /// begin_slot() and finish_slot().
  Placement try_place(const SessionSpec& spec, std::size_t session_id);

  /// Drops the closed segment at slab position `segment` (a Placement's),
  /// which the caller superseded by re-placing its session: its record
  /// chunks and slab position go back to the store's free lists
  /// (SessionStore::release), and finish() never sees it. A segment a
  /// session ends on (departure, close, eviction) must not be released.
  void release_segment(std::uint32_t segment);

  /// The link's admission state (reserved load / residual capacity), for
  /// external placement policies.
  [[nodiscard]] const AdmissionController& admission() const noexcept {
    return admission_;
  }

  /// External-close control: ends active session `session_id` at the
  /// current slot, before this slot streams (its trace covers
  /// [arrival, now)). One scan of the active list: returns false for an id
  /// not streaming here (unknown, already closed, or retired by a failover
  /// or migration), true when the close took effect. Call between slots or
  /// before finish_slot() (the driver fires close events before stepping
  /// the slot).
  bool request_close(std::size_t session_id);

  /// The spec checks try_place() applies (null cache, candidate range,
  /// window ordering, elapsed departure, negative weight, QoS tier). Public
  /// so EdgeCluster validates at its own door with the same rules instead of
  /// re-implementing them. Throws std::invalid_argument.
  void validate_spec(const SessionSpec& spec) const;

  // --- Fault plane -----------------------------------------------------------

  /// Force-closes every active session at the current slot (the link went
  /// down), appending each one's id and live spec to `out` so the caller can
  /// re-place them elsewhere. Admission reservations are released;
  /// lifetimes are recorded like ordinary closes. Returns the
  /// number evicted. Allocation only when `out` grows — a fault edge, never
  /// steady-state work.
  std::size_t evict_all_active(std::vector<EvictedSession>& out);

  // --- Live migration --------------------------------------------------------

  /// A session pulled out of this link mid-stream for live migration: the
  /// live spec plus the hot SoA state its decide/drain continuity needs.
  struct MigratedSession {
    std::size_t id = 0;
    SessionSpec spec;
    HotSessionState hot;
  };

  /// Live-migration extraction: captures active session `session_id`'s live
  /// spec and hot state into `out`, then retires the index the id scan
  /// found exactly like an eviction (admission reservation released,
  /// lifetime recorded, kClose flight event). Returns false when the id is
  /// not active here — closed sessions cannot migrate. A handover edge,
  /// never steady-state work.
  bool extract_session(std::size_t session_id, MigratedSession& out);

  /// Live-migration injection: the same admission gate as try_place, but on
  /// accept the session resumes with its carried hot state (backlog, EWMA,
  /// frame-row cursor) instead of starting a fresh stream — its decide
  /// sequence continues bit for bit when source and target links are
  /// equivalent. The candidate ceiling is *this* link's brownout state, not
  /// the source's. Call between begin_slot() and finish_slot().
  Placement place_migrated(const MigratedSession& migrated,
                           std::size_t session_id);

  /// Active session i's runtime id — the handover candidate scan, paired
  /// with the index-parallel active_backlogs() span.
  [[nodiscard]] std::size_t active_session_id(std::size_t i) noexcept {
    return store_.active_session(i).id;
  }
  /// The active fleet's backlog mirror (index-parallel with the ids above).
  [[nodiscard]] std::span<const double> active_backlogs() const noexcept {
    return store_.backlogs();
  }

  /// Fault-plane capacity scaling: multiplies the admission budget (and the
  /// brownout utilization denominator) by `scale`. 1.0 restores nominal
  /// capacity and is the bitwise identity. Throws std::invalid_argument on a
  /// non-finite or negative scale.
  void set_capacity_scale(double scale);

  /// True while the degradation policy has the quality ceilings lowered.
  [[nodiscard]] bool brownout_active() const noexcept { return brownout_; }
  /// Brownout windows entered over the run.
  [[nodiscard]] std::size_t brownout_enters() const noexcept {
    return brownout_enters_;
  }

  /// Sessions currently streaming.
  [[nodiscard]] std::size_t active_count() const noexcept;
  /// The link's admission outcomes so far (placements and migration
  /// injections; a spill counts on every link it tried).
  [[nodiscard]] AdmissionStats admission_stats() const noexcept {
    return admission_stats_;
  }

  /// Running slot aggregates, readable mid-run (the event-driven driver
  /// samples them for periodic metrics snapshots); finish() folds in the
  /// sessions whose outcome it fills.
  [[nodiscard]] const ServerMetrics& metrics() const noexcept {
    return metrics_;
  }

  /// Folds this link's SLO gauges into `observation`: per-tier active
  /// counts, the link-exact p95 of the backlog-age proxy (backlog · active /
  /// mean link capacity — slots of queued work at a fair share), and the
  /// delivered-quality floor over active sessions. The accepted and
  /// rejected counters are the cluster's, which counts sessions, not
  /// admission tests. Additive (merge_slo_sample semantics), so a cluster
  /// calls it once per link and gets the worst-link gauge view. Snapshot
  /// cadence only — O(active log active), never part of the slot loop.
  void accumulate_slo(SloObservation& observation);

  /// Cross-checks the session store's SoA mirrors against the cold slab
  /// (SessionStore::validate). O(active + slab + chunks), callable mid-run
  /// between phases — tests and the bench oracles call it at checkpoints;
  /// it is never part of the slot loop.
  [[nodiscard]] Status validate_store() const { return store_.validate(); }
  /// The link's session store, read-only (tests read its footprint).
  [[nodiscard]] const SessionStore& store() const noexcept { return store_; }

  /// Fast-forwards the slot clock `slots` slots across an idle stretch: no
  /// sessions are active, so the skipped slots would only have drawn and
  /// wasted capacity. Skipped slots offer no capacity and record no metrics
  /// — an event-driven server does not burn link time while nobody streams.
  /// Throws std::logic_error when sessions are active or the manager is
  /// finished.
  void skip_idle_slots(std::size_t slots);

  /// Closes every still-active session at the current slot, then asks
  /// `outcome_for(id)` for each segment the link still holds, in placement
  /// order, which SessionOutcome the segment fills, or null for a segment
  /// the caller's books superseded. The link holds one segment per session
  /// that ended on it (departure, close, eviction, or still active), since
  /// the caller releases each segment it supersedes (release_segment), so
  /// normally every answer is non-null. The selected non-empty segments are
  /// summarized together in one read of the link's chunk arena
  /// (SessionTrace::summarize_in_arena_order, bit-identical to each record's
  /// summarize_partial). Then each selected outcome is filled, folded into
  /// metrics() and given its record, in placement order, however the slab
  /// reused positions. The manager is spent afterwards (the phase calls
  /// throw).
  template <class OutcomeFor>
  void finish(OutcomeFor outcome_for) {
    if (finished_) {
      throw std::logic_error("SessionManager::finish: already finished");
    }
    finished_ = true;
    const PhaseSpan span(tracer_, Phase::kFinish, slot_, tid_);
    store_.retire_active([](const ServingSession&) { return true; },
                         [this](ServingSession& s) {
                           s.phase = SessionPhase::kClosed;
                           s.departure_actual = slot_;
                           admission_.release(s.cheapest_load);
                         });
    const std::vector<std::uint32_t> order = store_.placement_order();
    std::vector<SessionOutcome*> outcomes(order.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      outcomes[i] = outcome_for(store_.session(order[i]).id);
    }
    fill_outcomes(order, outcomes);
  }

 private:
  /// Closes active session `s` at the current slot: closed phase and
  /// departure slot, admission reservation released, the sessions_closed
  /// counter and lifetime histogram, and the kClose flight event. The one
  /// close path of departures, evictions and migration extractions.
  void retire(ServingSession& s);
  /// finish()'s fill: summarizes the segment at each slab position
  /// `order[i]` whose `outcomes[i]` is non-null into it, then fills each,
  /// folds it into metrics_ and moves its record in, in that order.
  void fill_outcomes(std::span<const std::uint32_t> order,
                     std::span<SessionOutcome* const> outcomes);
  void register_telemetry();

  ServingConfig config_;
  /// Mean link capacity admission calibrated against; the SLO sampler's
  /// service-rate proxy for the backlog-age gauge.
  double mean_capacity_bytes_ = 0.0;
  AdmissionController admission_;
  std::unique_ptr<EdgeScheduler> scheduler_;
  /// The session arena: cold slab + hot SoA mirrors (see session_store.hpp).
  SessionStore store_;
  ServerMetrics metrics_;
  std::size_t slot_ = 0;
  bool finished_ = false;
  // Scratch reused across slots.
  std::vector<double> shares_;

  // Telemetry. tracer_ is null unless full tracing is on (a PhaseSpan over a
  // null tracer is one branch); the handle pointers are null unless counters
  // are on, so the hot path pays one predictable check per instrumentation
  // point. Handles are registered once at construction under "link<tid>/".
  PhaseTracer* tracer_ = nullptr;
  std::uint32_t tid_ = 0;
  TelemetryCounter* c_slots_ = nullptr;
  TelemetryCounter* c_adm_accept_ = nullptr;
  TelemetryCounter* c_adm_reject_ = nullptr;
  TelemetryCounter* c_closed_ = nullptr;
  TelemetryHistogram* h_active_ = nullptr;
  TelemetryHistogram* h_slot_used_ = nullptr;
  TelemetryHistogram* h_lifetime_ = nullptr;

  // Flight recorder (default ON — resolve_flight_recorder falls back to the
  // process-global ring). record() is a relaxed fetch_add plus six plain
  // stores and fires only at lifecycle edges and brownout transitions,
  // never per session·slot, so the allocation probes hold with it on.
  FlightRecorder* flight_ = nullptr;

  // The link's one admission ledger (placements and migration
  // injections), and the SLO sample's snapshot-time delay scratch
  // ([tier 0..2] + [all tiers]).
  AdmissionStats admission_stats_;
  std::vector<double> slo_scratch_[kSloTiers + 1];

  // Brownout degradation state. The limit scratch is preallocated at
  // construction so transitions allocate nothing.
  bool brownout_ = false;
  std::size_t brownout_enters_ = 0;
  std::vector<std::uint32_t> tier_limit_scratch_;
  TelemetryCounter* c_brownout_ = nullptr;
};

}  // namespace arvis
